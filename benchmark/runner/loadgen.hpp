#ifndef VS2_BENCHMARK_LOADGEN_HPP_
#define VS2_BENCHMARK_LOADGEN_HPP_

/// \file loadgen.hpp
/// The load generator every workload drives its system with. One process,
/// at most `nproc` connections (a "connection" is whatever the workload's
/// request function talks through: a socket to the fleet router, or a
/// direct `Vs2::Process` call on the in-process workload).
///
///  * **Open loop** — requests are due on a Poisson schedule drawn from
///    the workload seed. Each connection takes the next request in
///    schedule order, sleeps until it is due, sends it and waits for the
///    answer. When every connection is busy a due request waits, and its
///    latency still counts from its due time.
///  * **Closed loop** — each connection sends its next request as soon as
///    the previous one is answered.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace vs2::benchmark {

/// Sends request `index` of a phase on connection `conn` and waits for the
/// answer; returns false when the request failed, was refused or lost, or
/// its answer was wrong.
using RequestFn = std::function<bool(size_t conn, size_t index)>;

/// Due times (seconds from phase start) of a Poisson arrival process at
/// `rate_rps` over `seconds`. Same seed, rate and length: same schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_rps,
                                    double seconds);

/// Raw samples of one phase, by request index.
struct PhaseResult {
  double offered_rps = 0.0;  ///< 0 for a closed loop
  std::vector<double> latency_ms;
  std::vector<double> send_late_ms;  ///< open loop: send time - due time
  /// Open loop: lateness of requests whose connection sat idle until the
  /// due time, i.e. the generator's own wake-up error.
  std::vector<double> generator_late_ms;
  std::vector<uint8_t> ok;
  std::vector<double> done_sec;  ///< closed loop: answer time from start
  double elapsed_sec = 0.0;  ///< phase start to last answer
  double begin_sec = 0.0;    ///< `NowSec` when the phase started
  double end_sec = 0.0;      ///< `NowSec` when its last answer came

  size_t sent() const { return ok.size(); }
  size_t failed() const;
  /// Answered requests per second of the phase.
  double AchievedRps() const;
  /// Median over `kWindows` consecutive windows of the phase of the
  /// answered requests per second in each.
  double WindowedRps() const;
  /// Latency percentile in ms; failed requests count as infinitely late.
  double LatencyPct(double p) const;
  /// Latency percentile over the phase without its worst of `kWindows`
  /// consecutive windows (the one whose own percentile is highest), so a
  /// stall of the shared machine that falls in one window does not set the
  /// phase's figure. Failed requests count as infinitely late.
  double WindowedPct(double p) const;

  static constexpr size_t kWindows = 7;
};

/// How the load generator's threads behave.
struct LoadOptions {
  size_t conns = 1;
  /// The connection thread does the work itself (one thread calling the
  /// pipeline). It then spins through the last few milliseconds before a
  /// request is due instead of sleeping, so the wake-up delay of an idle
  /// machine stays out of the latency, and it moves round the allowed CPUs
  /// every few dozen requests: on a shared host one core can run far
  /// faster or slower than the rest for minutes, and a thread left on it
  /// would measure that core rather than the machine.
  bool in_process = false;
};

PhaseResult RunOpenLoop(const std::vector<double>& due_sec,
                        const LoadOptions& load, const RequestFn& fn);

/// Runs closed-loop connections for `seconds` or `max_requests` requests,
/// whichever ends first.
PhaseResult RunClosedLoop(const LoadOptions& load, double seconds,
                          size_t max_requests, const RequestFn& fn);

/// Verdict on one rung of the rate ladder against a p99 latency limit.
struct RungVerdict {
  double rate_rps = 0.0;
  double p99_ms = 0.0;
  double generator_late_p99_ms = 0.0;
  bool generator_on_time = true;  ///< the rung counts at all
  bool backlog_grew = false;
  bool passed = false;
};

RungVerdict JudgeRung(const PhaseResult& rung, double limit_ms);

/// Highest rate meeting the limit over rungs of ascending rate: the rate of
/// the highest passing rung, interpolated (in log p99) toward the failing
/// rung above it. Positive even when every rung fails.
double MaxRate(const std::vector<RungVerdict>& ladder, double limit_ms);

/// One line per rung, for the human-readable part of the output.
std::string DescribeRung(const std::string& name, const PhaseResult& phase,
                         const RungVerdict& verdict);

}  // namespace vs2::benchmark

#endif  // VS2_BENCHMARK_LOADGEN_HPP_
