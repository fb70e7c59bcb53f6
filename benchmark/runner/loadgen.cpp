#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "common.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace vs2::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

double SinceMs(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// A rung's generator is on time when its own wake-up error stays well
/// inside the latency budget it is measuring.
constexpr double kGeneratorLateShareOfLimit = 0.25;

/// How long before a due time an in-process connection stops sleeping.
constexpr double kSpinMs = 3.0;
/// Requests an in-process connection serves on one CPU before moving on.
constexpr size_t kRequestsPerCpu = 64;

}  // namespace

std::vector<double> PoissonSchedule(uint64_t seed, double rate_rps,
                                    double seconds) {
  std::vector<double> due;
  if (rate_rps <= 0.0 || seconds <= 0.0) return due;
  util::Rng rng(seed);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate_rps;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

size_t PhaseResult::failed() const {
  return static_cast<size_t>(std::count(ok.begin(), ok.end(), 0));
}

double PhaseResult::AchievedRps() const {
  if (elapsed_sec <= 0.0) return 0.0;
  return static_cast<double>(sent() - failed()) / elapsed_sec;
}

double PhaseResult::LatencyPct(double p) const {
  std::vector<double> values = latency_ms;
  for (size_t i = 0; i < values.size(); ++i) {
    if (!ok[i]) values[i] = std::numeric_limits<double>::infinity();
  }
  return Pct(values, p);
}

double PhaseResult::WindowedRps() const {
  std::vector<double> per_window;
  size_t n = done_sec.size();
  double window_start = 0.0;
  for (size_t w = 0; w < kWindows; ++w) {
    size_t begin = n * w / kWindows, end = n * (w + 1) / kWindows;
    if (begin == end) continue;
    double window_end = *std::max_element(done_sec.begin() + begin,
                                          done_sec.begin() + end);
    double answered = static_cast<double>(
        std::count(ok.begin() + begin, ok.begin() + end, 1));
    if (window_end > window_start) {
      per_window.push_back(answered / (window_end - window_start));
    }
    window_start = window_end;
  }
  return Pct(per_window, 0.5);
}

double PhaseResult::WindowedPct(double p) const {
  size_t n = latency_ms.size();
  std::vector<double> values = latency_ms;
  for (size_t i = 0; i < n; ++i) {
    if (!ok[i]) values[i] = std::numeric_limits<double>::infinity();
  }
  // Find the window whose own percentile is highest, then pool the rest.
  size_t worst = 0;
  double worst_value = -1.0;
  for (size_t w = 0; w < kWindows; ++w) {
    size_t begin = n * w / kWindows, end = n * (w + 1) / kWindows;
    if (begin == end) continue;
    double value = Pct(std::vector<double>(values.begin() + begin,
                                           values.begin() + end),
                       p);
    if (value > worst_value) {
      worst_value = value;
      worst = w;
    }
  }
  std::vector<double> kept(values.begin(),
                           values.begin() + n * worst / kWindows);
  kept.insert(kept.end(), values.begin() + n * (worst + 1) / kWindows,
              values.end());
  return Pct(kept.empty() ? values : kept, p);
}

PhaseResult RunOpenLoop(const std::vector<double>& due_sec,
                        const LoadOptions& load, const RequestFn& fn) {
  const size_t conns = load.conns;
  const auto spin = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(load.in_process ? kSpinMs
                                                                : 0.0));
  const size_t n = due_sec.size();
  PhaseResult result;
  result.latency_ms.assign(n, 0.0);
  result.send_late_ms.assign(n, 0.0);
  result.ok.assign(n, 0);
  std::vector<double> own_late(n, -1.0);
  if (n > 0) {
    result.offered_rps = static_cast<double>(n) / due_sec.back();
  }

  std::atomic<size_t> next{0};
  std::vector<Clock::time_point> last_done(conns);
  result.begin_sec = NowSec();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  {
    std::vector<std::thread> threads;
    threads.reserve(conns);
    for (size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        CpuRotation rotation(load.in_process, kRequestsPerCpu);
        last_done[c] = start;
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          rotation.Next();
          Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due_sec[i]));
          bool idle = Clock::now() < due;
          if (idle) {
            std::this_thread::sleep_until(due - spin);
            while (Clock::now() < due) {
            }
          }
          Clock::time_point sent = Clock::now();
          bool ok = fn(c, i);
          Clock::time_point done = Clock::now();
          result.ok[i] = ok ? 1 : 0;
          result.latency_ms[i] = SinceMs(due, done);
          result.send_late_ms[i] = SinceMs(due, sent);
          if (idle) own_late[i] = SinceMs(due, sent);
          last_done[c] = done;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  Clock::time_point end = *std::max_element(last_done.begin(), last_done.end());
  result.elapsed_sec = std::chrono::duration<double>(end - start).count();
  result.end_sec = NowSec();
  for (double late : own_late) {
    if (late >= 0.0) result.generator_late_ms.push_back(late);
  }
  return result;
}

PhaseResult RunClosedLoop(const LoadOptions& load, double seconds,
                          size_t max_requests, const RequestFn& fn) {
  const size_t conns = load.conns;
  PhaseResult result;
  result.latency_ms.assign(max_requests, 0.0);
  result.ok.assign(max_requests, 0);
  result.done_sec.assign(max_requests, 0.0);
  std::atomic<size_t> next{0};
  std::atomic<size_t> ran{0};
  std::vector<Clock::time_point> last_done(conns);
  result.begin_sec = NowSec();
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    threads.reserve(conns);
    for (size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        CpuRotation rotation(load.in_process, kRequestsPerCpu);
        last_done[c] = start;
        while (Clock::now() < stop) {
          size_t i = next.fetch_add(1);
          if (i >= max_requests) break;
          rotation.Next();
          Clock::time_point sent = Clock::now();
          bool ok = fn(c, i);
          Clock::time_point done = Clock::now();
          result.ok[i] = ok ? 1 : 0;
          result.latency_ms[i] = SinceMs(sent, done);
          result.done_sec[i] = SinceMs(start, done) / 1e3;
          last_done[c] = done;
          ran.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // Indices are claimed in order and every claimed index below the final
  // count was run, so the first `ran` slots hold the phase.
  size_t n = ran.load();
  result.latency_ms.resize(n);
  result.ok.resize(n);
  result.done_sec.resize(n);
  Clock::time_point end = *std::max_element(last_done.begin(), last_done.end());
  result.elapsed_sec = std::chrono::duration<double>(end - start).count();
  result.end_sec = NowSec();
  return result;
}

RungVerdict JudgeRung(const PhaseResult& rung, double limit_ms) {
  RungVerdict v;
  v.rate_rps = rung.offered_rps;
  v.p99_ms = rung.WindowedPct(0.99);
  v.generator_late_p99_ms = Pct(rung.generator_late_ms, 0.99);
  v.generator_on_time =
      v.generator_late_p99_ms <= kGeneratorLateShareOfLimit * limit_ms;
  // A backlog that grows shows as send lateness rising through the rung:
  // the mean lateness of its last third exceeds that of its first third by
  // more than the limit, or the answers fall behind the offered rate.
  size_t n = rung.send_late_ms.size();
  if (n > 0) {
    size_t third = std::max<size_t>(1, n / 3);
    std::vector<double> first(rung.send_late_ms.begin(),
                              rung.send_late_ms.begin() + third);
    std::vector<double> last(rung.send_late_ms.end() - third,
                             rung.send_late_ms.end());
    v.backlog_grew = Mean(last) - Mean(first) > limit_ms ||
                     rung.AchievedRps() < 0.9 * rung.offered_rps;
  }
  v.passed = n > 0 && v.generator_on_time && !v.backlog_grew &&
             rung.failed() == 0 && v.p99_ms <= limit_ms;
  return v;
}

double MaxRate(const std::vector<RungVerdict>& ladder, double limit_ms) {
  if (ladder.empty()) return 0.0;
  // A failing rung is at least at the limit, whatever failed it.
  auto failing_p99 = [&](const RungVerdict& v) {
    return std::isfinite(v.p99_ms) ? std::max(v.p99_ms, limit_ms)
                                   : 1e3 * limit_ms;
  };
  size_t best = ladder.size();  // highest passing rung
  for (size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i].passed) best = i;
  }
  if (best == ladder.size()) {
    return ladder[0].rate_rps * limit_ms / failing_p99(ladder[0]);
  }
  if (best + 1 == ladder.size()) return ladder[best].rate_rps;
  const RungVerdict& pass = ladder[best];
  const RungVerdict& fail = ladder[best + 1];
  double pass_p99 = std::max(pass.p99_ms, 1e-3);
  double span = std::log(failing_p99(fail)) - std::log(pass_p99);
  double frac =
      span > 0.0 ? (std::log(limit_ms) - std::log(pass_p99)) / span : 0.0;
  frac = std::clamp(frac, 0.0, 1.0);
  return pass.rate_rps + frac * (fail.rate_rps - pass.rate_rps);
}

std::string DescribeRung(const std::string& name, const PhaseResult& phase,
                         const RungVerdict& verdict) {
  return util::Format(
      "  %-10s offered %8.1f/s achieved %8.1f/s  sent %6zu failed %4zu  "
      "p50 %8.3f ms  p99 %8.3f ms  gen-late p99 %6.3f ms  %s%s\n",
      name.c_str(), phase.offered_rps, phase.AchievedRps(), phase.sent(),
      phase.failed(), phase.LatencyPct(0.5), verdict.p99_ms,
      verdict.generator_late_p99_ms, verdict.passed ? "pass" : "FAIL",
      verdict.backlog_grew ? " (backlog)" : "");
}

}  // namespace vs2::benchmark
