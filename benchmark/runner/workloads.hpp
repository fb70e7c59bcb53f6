#ifndef VS2_BENCHMARK_WORKLOADS_HPP_
#define VS2_BENCHMARK_WORKLOADS_HPP_

/// \file workloads.hpp
/// The three workloads and the phase plan they share. Every untraced run
/// measures the same phases, in order, on its own system:
///
///  1. set-up, repeated `kSetupRepeats` times (`setup_s` is the median);
///  2. a short closed-loop warm-up, checked but not timed, then a closed
///     loop (`docs_per_s`, `doc_ms_p50`, `doc_ms_p99`);
///  3. open loops at fixed rates: the low rate (`lat_ms_*.low`), the high
///     rate (`lat_ms_*.high`), then a ladder of `kRungs` rungs
///     `kLadderStep` times apart around the knee; `max_rate_rps` is the
///     highest of all these rates that meets the p99 latency limit without
///     failures or a growing backlog;
///  4. output checks outside the timed phases (`ok_frac`, `f1`).
///
/// Every percentile and `docs_per_s` is windowed (`PhaseResult`), so a
/// stall of the shared machine moves only the windows it falls in.
///
/// A traced run (`--trace 1`) measures instead the per-layer breakdown
/// documented beside each workload.

#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"

namespace vs2::benchmark {

inline constexpr int kSetupRepeats = 3;

// Shares of `--seconds` per phase, and the ladder's shape.
inline constexpr double kWarmupShare = 0.05;
inline constexpr double kClosedShare = 0.2;
inline constexpr double kLowShare = 0.2;
inline constexpr double kHighShare = 0.2;
inline constexpr double kLadderShare = 0.35;
inline constexpr size_t kRungs = 6;
/// The fixed low and high rates, the same for every workload: the high
/// rate loads each system to roughly a third of what it serves closed loop
/// on a 4-CPU host, so queueing shows without the p99 amplifying every
/// shift in the host's speed.
inline constexpr double kLowRps = 120;
inline constexpr double kHighRps = 240;
inline constexpr double kLadderStep = 1.1;

/// Rates and limits of one workload.
struct RatePlan {
  LoadOptions load;          ///< load-generator connections
  double ladder_rps = 0.0;   ///< first ladder rung
  double limit_ms = 0.0;     ///< p99 latency limit of `max_rate_rps`
  double closed_cap_rps = 0.0;  ///< sizes the closed-loop phases
  /// The timed closed loop is one pass of `ClosedLoopCap` requests, however
  /// long it takes (batch-mixed: one pass over its corpus).
  bool closed_one_pass = false;
};

/// Every open-loop schedule of a run: index 0 is the low rate, 1 the high
/// rate, then the ladder rungs in ascending rate.
struct Schedules {
  std::vector<std::string> names;
  std::vector<std::vector<double>> due_sec;

  size_t TotalRequests() const;
};

Schedules MakeSchedules(const RatePlan& plan, uint64_t seed, double seconds);

/// Upper bounds on the requests of the warm-up and of the timed closed
/// loop.
size_t WarmupCap(const RatePlan& plan, double seconds);
size_t ClosedLoopCap(const RatePlan& plan, double seconds);

/// Sends request number `seq` of the run (numbered across phases) on
/// connection `conn`; same contract as `RequestFn`.
using SequencedFn = std::function<bool(size_t conn, size_t seq)>;

/// Raw samples of the untraced phases. Request `seq` numbers run from the
/// closed loop through the rungs in order.
struct PhasePlanResult {
  PhaseResult warmup;
  PhaseResult closed;
  std::vector<PhaseResult> rungs;  ///< low, high, then the ladder
  std::vector<std::string> rung_names;

  /// Number of requests sent in all phases.
  size_t TotalSent() const;
  /// Clears `ok` of request `seq` (a check after the run found it wrong).
  void MarkFailed(size_t seq);
};

/// Runs phases 2 and 3 above. Each closed loop ends at its share of
/// `seconds` or at its cap, whichever comes first; with
/// `plan.closed_one_pass` the timed closed loop runs to its cap.
PhasePlanResult RunPhases(const RatePlan& plan, const Schedules& schedules,
                          double seconds, const SequencedFn& fn);

/// A run's repeated set-ups: the median time and the span they took.
struct SetupTiming {
  double median_s = 0.0;
  double begin_sec = 0.0;  ///< `NowSec` at the first set-up's start
  double end_sec = 0.0;    ///< `NowSec` at the last set-up's end
};

/// Adds the end-to-end metrics, in the order BENCHMARK.json lists them,
/// and prints the rung table. Fills `result`'s attempted/failed. Every
/// time and rate is scaled to the reference host speed with the probe's
/// `Slowness` over the phase it was measured in (times divided, rates
/// multiplied); `probe` must be stopped.
void AddEndToEndMetrics(const RatePlan& plan, const PhasePlanResult& phases,
                        const SetupTiming& setup, double f1,
                        const HostProbe& probe, RunResult* result);

/// Median of a run's repeated set-up times.
double MedianSetup(std::vector<double> seconds);

RunResult RunBatchMixed(const RunOptions& options);
RunResult RunFleetHot(const RunOptions& options);
RunResult RunFleetCold(const RunOptions& options);

/// The plan of a workload by name; false when the name is unknown.
bool PlanFor(const std::string& workload, RatePlan* plan);

}  // namespace vs2::benchmark

#endif  // VS2_BENCHMARK_WORKLOADS_HPP_
