#ifndef VS2_BENCHMARK_COMMON_HPP_
#define VS2_BENCHMARK_COMMON_HPP_

/// \file common.hpp
/// Shared pieces of the benchmark runner: the clock, sample summaries, the
/// metric record printed as the result line, the provenance stamp, and the
/// stage-by-stage replay of `core::Vs2::Process` that attributes pipeline
/// time to layers from outside the library.

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "eval/metrics.hpp"

namespace vs2::benchmark {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

/// Monotonic clock in seconds.
double NowSec();

double Mean(const std::vector<double>& values);
/// Nearest-rank percentile (`obs::Percentile` semantics), `p` in [0, 1].
double Pct(const std::vector<double>& values, double p);

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

/// Moves the calling thread round the CPUs it was allowed at construction,
/// `per_cpu` calls of `Next` on each, and restores that set when
/// destroyed. On a shared host one core can run far faster or slower than
/// the rest for minutes; a single thread that stays on it measures that
/// core rather than the machine. Threads it starts inherit its one-CPU
/// set, so it only wraps work that starts none.
class CpuRotation {
 public:
  CpuRotation(bool enabled, size_t per_cpu);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Call before each unit of work.
  void Next();

 private:
  bool enabled_;
  size_t per_cpu_;
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  size_t served_ = 0;
};

/// \brief Measures how fast the shared host runs while a workload runs.
///
/// A thread started by the constructor runs a fixed calibration kernel
/// (tokenizing, hashing and sorting a synthetic text, with no heap
/// allocation and no call into the library) every few milliseconds and
/// records the thread CPU time each run took. On a shared host the same
/// work can take twice as long from one minute to the next; the kernel
/// slows with the workload, so dividing a measured time by the kernel's
/// `Slowness` over the same span cancels most of that drift while every
/// change of the program's own work still shows.
class HostProbe {
 public:
  /// The kernel's median CPU time on the reference host (a 4-CPU Intel
  /// Xeon VM, the one the bounds in BENCHMARK.json were set on).
  static constexpr double kNominalKernelMs = 0.38;

  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Stops and joins the thread; the queries below need it stopped.
  void Stop();
  /// Median kernel CPU time in ms over the samples started in
  /// [from_sec, to_sec) (`NowSec` times), or over all samples when that
  /// span holds fewer than `kMinSamples`.
  double MedianMs(double from_sec, double to_sec) const;
  /// `MedianMs` over the span divided by `kNominalKernelMs`: above 1 when
  /// the host ran slower than the reference.
  double Slowness(double from_sec, double to_sec) const;

  static constexpr size_t kMinSamples = 20;

 private:
  void Loop();

  struct Sample {
    double start_sec;
    double cpu_ms;
  };
  std::vector<Sample> samples_;  ///< written by the thread until Stop
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Ordered name -> (value, unit) record; rendered as the result line's
/// `"metrics"` object.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Outcome of one workload run.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
};

/// Prints a `stamp {...}` line naming the hardware, toolchain, SIMD level,
/// commit and seed every number of the run came from.
void PrintStamp(const RunOptions& options);

/// Pipeline configuration every workload uses: the paper's per-dataset
/// weights with the triage router on.
core::PipelineConfig WorkloadConfig(doc::DatasetId dataset);

/// The wire response a `serve::Daemon` fronting a triaging pipeline sends
/// for `result`: `doc::ExtractionsToJson` with the `"lane"` prefix.
std::string ExpectedResponse(const core::Vs2::DocResult& result);

/// Micro-F1 counts of one document's extractions against its ground truth
/// `truth`, scored as the paper's end-to-end tables are (IoU > 0.65 and
/// label). OCR copies annotations verbatim, so the input document's and the
/// observed document's are the same.
eval::PrCounts ScoreExtractions(
    const std::vector<core::Extraction>& extractions,
    const doc::Document& truth);

/// Generates `count` documents of `dataset` from `seed`, numbered from
/// `*next_id` on, leaving out every document whose OCR-observed text holds
/// a run of ten or more digits. Such a token (a phone number whose dashes
/// the OCR channel dropped) overflows the `std::stoi` in
/// `nlp::LooksLikeClockTime`, and the exception ends the process; the
/// workloads must not fail, so they do without those documents.
std::vector<doc::Document> GenerateSafe(doc::DatasetId dataset, size_t count,
                                        uint64_t seed, uint64_t* next_id);

/// Near-blank pages (feed separators, cover sheets): the SKIP lane's
/// traffic. Every second page carries one stray page number.
std::vector<doc::Document> BlankPages(size_t count, uint64_t first_id);

/// Time and work per pipeline layer, summed over replayed documents.
struct StageTotals {
  size_t docs = 0;
  size_t lanes[3] = {0, 0, 0};  ///< indexed by triage::Lane
  double classify_us = 0.0;
  double transcribe_us = 0.0;
  double xycut_ms = 0.0;
  double segment_ms = 0.0;
  double interest_points_ms = 0.0;
  double select_ms[3] = {0.0, 0.0, 0.0};  ///< indexed by triage::Lane
  double stages_ms = 0.0;                 ///< sum of every timed stage
  uint64_t cuts = 0;
  uint64_t cluster_calls = 0;
  uint64_t merges = 0;
  uint64_t matches = 0;
  uint64_t extractions = 0;
};

/// \brief Runs `vs2.Process(doc)` as its individual public stage calls
/// (triage, OCR, XY-cut or VS2-Segment, interest points, VS2-Select),
/// timing each and reading the `segment.*` / `select.*` counters around
/// them. The result must equal `Process` byte for byte; callers check.
/// Counter deltas are exact only while no other thread runs the pipeline.
Result<core::Vs2::DocResult> ProcessByStage(const core::Vs2& vs2,
                                            const doc::Document& doc,
                                            StageTotals* totals);

/// Everything a traced run reports, one field per per-layer metric. A
/// layer a workload bypasses keeps its zero.
struct LayerReport {
  StageTotals stages;
  /// Summed untraced `Process` time over the replayed documents: the base
  /// of `core.unattributed_frac`.
  double process_ms = 0.0;
  eval::PrCounts f1[3];  ///< by dataset D1, D2, D3

  double from_json_us = 0.0;
  double to_json_us = 0.0;
  double request_kb = 0.0;
  double content_address_us = 0.0;
  double cache_hit_frac = 0.0;
  double cache_evict_per_req = 0.0;
  double worker_ms_p50 = 0.0;
  double worker_ms_p99 = 0.0;
  double worker_ms_mean = 0.0;
  double pipeline_ms_p50 = 0.0;
  double cache_lookup_ms_p50 = 0.0;
  double queue_wait_ms_p50 = 0.0;
  double queue_wait_ms_p99 = 0.0;
  double round_trip_ms_mean = 0.0;
  double hop_ms_p50 = 0.0;
  double router_parse_us = 0.0;
  double transport_ms_mean = 0.0;
  double shed_frac = 0.0;
  double reroute_frac = 0.0;
  double late_ms_p99 = 0.0;
  double achieved_rps = 0.0;
  double overhead_frac = 0.0;
  double host_kernel_ms = 0.0;  ///< `HostProbe` median over the run
};

/// Adds every per-layer metric, in the order BENCHMARK.json lists them.
void AddLayerMetrics(const LayerReport& report, MetricSet* metrics);

}  // namespace vs2::benchmark

#endif  // VS2_BENCHMARK_COMMON_HPP_
