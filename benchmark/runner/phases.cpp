#include <algorithm>
#include <cstdio>
#include <thread>

#include "workloads.hpp"

namespace vs2::benchmark {
namespace {

uint64_t PhaseSeed(uint64_t seed, size_t phase) {
  return (seed + 1) * 0x9E3779B97F4A7C15ull + phase * 0xBF58476D1CE4E5B9ull;
}

}  // namespace

size_t Schedules::TotalRequests() const {
  size_t total = 0;
  for (const auto& due : due_sec) total += due.size();
  return total;
}

Schedules MakeSchedules(const RatePlan& plan, uint64_t seed, double seconds) {
  Schedules s;
  s.names = {"low", "high"};
  s.due_sec.push_back(
      PoissonSchedule(PhaseSeed(seed, 0), kLowRps, kLowShare * seconds));
  s.due_sec.push_back(PoissonSchedule(PhaseSeed(seed, 1), kHighRps,
                                      kHighShare * seconds));
  double rate = plan.ladder_rps;
  for (size_t k = 0; k < kRungs; ++k, rate *= kLadderStep) {
    s.names.push_back("ladder" + std::to_string(k + 1));
    s.due_sec.push_back(PoissonSchedule(PhaseSeed(seed, k + 2), rate,
                                        kLadderShare / kRungs * seconds));
  }
  return s;
}

size_t WarmupCap(const RatePlan& plan, double seconds) {
  return static_cast<size_t>(plan.closed_cap_rps * kWarmupShare *
                             seconds) +
         1;
}

size_t ClosedLoopCap(const RatePlan& plan, double seconds) {
  return static_cast<size_t>(plan.closed_cap_rps * kClosedShare *
                             seconds) +
         1;
}

size_t PhasePlanResult::TotalSent() const {
  size_t total = warmup.sent() + closed.sent();
  for (const PhaseResult& r : rungs) total += r.sent();
  return total;
}

void PhasePlanResult::MarkFailed(size_t seq) {
  if (seq < warmup.sent()) {
    warmup.ok[seq] = 0;
    return;
  }
  seq -= warmup.sent();
  if (seq < closed.sent()) {
    closed.ok[seq] = 0;
    return;
  }
  seq -= closed.sent();
  for (PhaseResult& r : rungs) {
    if (seq < r.sent()) {
      r.ok[seq] = 0;
      return;
    }
    seq -= r.sent();
  }
}

PhasePlanResult RunPhases(const RatePlan& plan, const Schedules& schedules,
                          double seconds, const SequencedFn& fn) {
  PhasePlanResult out;
  size_t base = 0;
  auto from_base = [&](size_t conn, size_t index) {
    return fn(conn, base + index);
  };
  out.warmup = RunClosedLoop(plan.load, kWarmupShare * seconds,
                             WarmupCap(plan, seconds), from_base);
  base += out.warmup.sent();
  double closed_seconds =
      plan.closed_one_pass ? 1e9 : kClosedShare * seconds;
  out.closed = RunClosedLoop(plan.load, closed_seconds,
                             ClosedLoopCap(plan, seconds), from_base);
  base += out.closed.sent();
  for (size_t k = 0; k < schedules.due_sec.size(); ++k) {
    out.rungs.push_back(
        RunOpenLoop(schedules.due_sec[k], plan.load, from_base));
    out.rung_names.push_back(schedules.names[k]);
    base += out.rungs.back().sent();
  }
  return out;
}

bool PlanFor(const std::string& workload, RatePlan* plan) {
  const size_t conns = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  RatePlan p;
  if (workload == "batch-mixed") {
    p.load = {1, true};  // one thread calling Vs2::Process
    p.closed_one_pass = true;
    p.ladder_rps = 430;
    p.limit_ms = 25;
    p.closed_cap_rps = 800;
  } else if (workload == "fleet-hot") {
    p.load = {conns, false};
    p.ladder_rps = 500;
    p.limit_ms = 20;
    p.closed_cap_rps = 2000;
  } else if (workload == "fleet-cold") {
    p.load = {conns, false};
    p.ladder_rps = 450;
    p.limit_ms = 25;
    p.closed_cap_rps = 850;
  } else {
    return false;
  }
  *plan = p;
  return true;
}

double MedianSetup(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  return seconds.empty() ? 0.0 : seconds[seconds.size() / 2];
}

void AddEndToEndMetrics(const RatePlan& plan, const PhasePlanResult& phases,
                        const SetupTiming& setup, double f1,
                        const HostProbe& probe, RunResult* result) {
  auto over = [&](const PhaseResult& first, const PhaseResult& last) {
    return probe.Slowness(first.begin_sec, last.end_sec);
  };
  const double setup_slow = probe.Slowness(setup.begin_sec, setup.end_sec);
  const double closed_slow = over(phases.closed, phases.closed);
  const double low_slow = over(phases.rungs[0], phases.rungs[0]);
  const double high_slow = over(phases.rungs[1], phases.rungs[1]);
  const double ladder_slow = over(phases.rungs[2], phases.rungs.back());
  std::printf("host slowness (probe kernel median / %.3f ms): setup %.3f  "
              "closed %.3f  low %.3f  high %.3f  ladder %.3f\n",
              HostProbe::kNominalKernelMs, setup_slow, closed_slow, low_slow,
              high_slow, ladder_slow);
  std::printf("raw setup %.4f s; phases as measured (p99 limit %.1f ms, %zu "
              "connections):\n",
              setup.median_s, plan.limit_ms, plan.load.conns);
  std::printf(
      "  %-10s achieved %8.1f/s  sent %6zu failed %4zu  p50 %8.3f ms  p99 "
      "%8.3f ms\n",
      "closed", phases.closed.AchievedRps(), phases.closed.sent(),
      phases.closed.failed(), phases.closed.LatencyPct(0.5),
      phases.closed.WindowedPct(0.99));
  std::vector<RungVerdict> ladder;
  size_t failed = phases.warmup.failed() + phases.closed.failed();
  for (size_t k = 0; k < phases.rungs.size(); ++k) {
    ladder.push_back(JudgeRung(phases.rungs[k], plan.limit_ms));
    failed += phases.rungs[k].failed();
    std::printf("%s", DescribeRung(phases.rung_names[k], phases.rungs[k],
                                   ladder.back())
                          .c_str());
  }
  result->attempted = phases.TotalSent();
  result->failed = failed;
  if (failed > 0) result->correct = false;

  MetricSet& m = result->metrics;
  m.Add("setup_s", setup.median_s / setup_slow, "s");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  m.Add("ok_frac",
        result->attempted == 0
            ? 0.0
            : static_cast<double>(result->attempted - failed) /
                  static_cast<double>(result->attempted),
        "frac");
  m.Add("f1", f1, "frac");
  m.Add("docs_per_s", phases.closed.WindowedRps() * closed_slow, "1/s");
  m.Add("doc_ms_p50", phases.closed.WindowedPct(0.5) / closed_slow, "ms");
  m.Add("doc_ms_p99", phases.closed.WindowedPct(0.99) / closed_slow, "ms");
  m.Add("max_rate_rps", MaxRate(ladder, plan.limit_ms) * ladder_slow, "1/s");
  m.Add("lat_ms_p50.low", phases.rungs[0].WindowedPct(0.5) / low_slow, "ms");
  // p95 at the fixed rates, not p99: the low rate's ~600 samples leave
  // fewer than ten beyond a p99, and on fleet-hot ~1% of requests at these
  // rates run ~3 ms long, so a p99 jumped between two levels run to run.
  m.Add("lat_ms_p95.low", phases.rungs[0].WindowedPct(0.95) / low_slow, "ms");
  m.Add("lat_ms_p50.high", phases.rungs[1].WindowedPct(0.5) / high_slow,
        "ms");
  m.Add("lat_ms_p95.high", phases.rungs[1].WindowedPct(0.95) / high_slow,
        "ms");
}

}  // namespace vs2::benchmark
