#ifndef VS2_SERVE_SERVICE_HPP_
#define VS2_SERVE_SERVICE_HPP_

/// \file service.hpp
/// Long-lived, in-process extraction server core. Where `core::BatchEngine`
/// amortizes one *batch* over a worker pool and returns, `ExtractionService`
/// stays up and serves independent requests from many client threads with
/// the properties a deployment needs at the front door:
///
///  * **Admission control** — a bounded queue of admitted-but-not-running
///    requests. At capacity, `Submit` fails fast with `kUnavailable`
///    instead of queueing unboundedly; the client sheds load or retries.
///  * **Deadlines** — each request can carry a deadline. It is enforced
///    when a worker dequeues the request (an overloaded queue never burns
///    pipeline time on an already-dead request) and again between pipeline
///    stages via `core::ProcessOptions::checkpoint`, yielding
///    `kDeadlineExceeded`.
///  * **Result caching** — a content-addressed LRU cache (`ResultCache`)
///    keyed by the FNV-1a hash of the canonical document JSON. Cached and
///    recomputed responses are bit-identical because the pipeline is
///    deterministic per document.
///  * **Graceful drain** — `Drain()` stops admission, finishes in-flight
///    and queued work, then flushes the configured trace/metrics exports.
///
/// Queue depth, in-flight count and cache size are exported as
/// `serve.queue_depth` / `serve.in_flight` / `serve.cache_size` gauges, and
/// admission/cache/deadline outcomes as `serve.*` counters, through
/// `obs::Metrics` (see DESIGN.md §10).

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/slowlog.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace vs2::serve {

/// Service construction knobs.
struct ServiceOptions {
  /// Worker threads executing the pipeline. 0 = one per hardware thread.
  size_t jobs = 0;
  /// Max requests admitted but not yet picked up by a worker. A `Submit`
  /// beyond this fails immediately with `kUnavailable`.
  size_t queue_capacity = 64;
  /// Result-cache capacity in entries; 0 disables caching.
  size_t cache_entries = 256;
  /// Result-cache entry lifetime in seconds; <= 0 means no expiry.
  double cache_ttl_seconds = 0.0;
  /// Deadline applied to requests that do not set their own; <= 0 = none.
  double default_deadline_ms = 0.0;
  /// When non-empty, `Drain()` writes the Chrome trace / metrics snapshot
  /// here (tracing must have been enabled by the host, e.g. `vs2_serve
  /// --trace=FILE` does both).
  std::string trace_path;
  std::string metrics_path;
  /// Monotonic clock in seconds used for deadlines, cache TTL and latency
  /// accounting. Null = `std::chrono::steady_clock`. Injectable so tests
  /// exercise expiry deterministically.
  std::function<double()> clock;
  /// Test seam: runs on the worker thread right after a request is
  /// dequeued, before its deadline check. Lets tests hold a worker to
  /// build queue depth deterministically. Null in production.
  std::function<void()> dequeue_hook;
};

/// Per-request knobs.
struct RequestOptions {
  /// Relative deadline from admission. 0 = service default; < 0 = none
  /// (even when the service has a default).
  double deadline_ms = 0.0;
  /// Skip cache lookup and fill for this request.
  bool bypass_cache = false;
  /// Caller-supplied trace id (the wire `"trace_id"` field). Invalid
  /// (default) = the service generates one, so every request is still
  /// attributable in the slow log; the daemon only echoes ids the client
  /// supplied.
  obs::TraceContext trace;
};

/// Per-request observability results, filled by the worker before the
/// request's future resolves. Pass to `Submit`/`Extract` to receive the
/// trace id the request ran under and its per-stage timing breakdown (the
/// same data the slow log records).
struct RequestTelemetry {
  obs::TraceContext trace;
  double total_ms = 0.0;
  std::vector<obs::StageRecorder::Stage> stages;
  /// Stage completions beyond the recorder's capacity (not in `stages`).
  size_t stages_dropped = 0;
};

/// \brief The long-lived extraction server core: a `Vs2` behind a bounded
/// queue, a worker pool and a result cache.
///
/// Thread-safe: `Submit`, `Extract`, `stats` and `Drain` may be called from
/// any number of threads. The referenced pipeline must outlive the service.
class ExtractionService {
 public:
  using Response = Result<core::Vs2::DocResult>;

  explicit ExtractionService(const core::Vs2& pipeline,
                             ServiceOptions options = {});
  /// Drains: equivalent to `Drain()` then teardown.
  ~ExtractionService();

  ExtractionService(const ExtractionService&) = delete;
  ExtractionService& operator=(const ExtractionService&) = delete;

  /// Admits one request. Returns a future that resolves to the extraction
  /// result, or — already resolved, without blocking — to `kUnavailable`
  /// when the queue is full or the service is draining. When `telemetry`
  /// is non-null it must outlive the future; it is fully written before
  /// the future resolves (rejected requests record zero stages).
  std::future<Response> Submit(doc::Document document,
                               RequestOptions options = {},
                               RequestTelemetry* telemetry = nullptr);

  /// Blocking convenience: `Submit(...).get()`.
  Response Extract(const doc::Document& document, RequestOptions options = {},
                   RequestTelemetry* telemetry = nullptr);

  /// Stops admitting (`Submit` returns `kUnavailable` from this point),
  /// waits for every queued and in-flight request to finish, then flushes
  /// the configured trace/metrics exports. Idempotent.
  void Drain();

  /// Point-in-time service state; counters are service-local (the
  /// process-wide `serve.*` obs instruments aggregate across instances).
  struct Stats {
    uint64_t accepted = 0;
    uint64_t rejected = 0;  ///< queue-full + draining refusals
    uint64_t completed = 0;
    uint64_t deadline_exceeded = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_evictions = 0;
    size_t queue_depth = 0;  ///< admitted, not yet picked up by a worker
    size_t in_flight = 0;    ///< currently executing on a worker
    size_t cache_size = 0;
    bool accepting = true;   ///< false once draining began
  };
  Stats stats() const;

  size_t jobs() const { return pool_->size(); }
  const ServiceOptions& options() const { return options_; }
  /// The pipeline this service fronts (the daemon reads its triage mode to
  /// decide whether responses carry a `"lane"` echo).
  const core::Vs2& pipeline() const { return pipeline_; }

 private:
  double Now() const;
  /// Absolute deadline in clock seconds, or +inf when none applies.
  double ResolveDeadline(const RequestOptions& options, double admitted_at)
      const;
  /// Worker-side execution of one admitted request.
  Response RunAdmitted(const doc::Document& document,
                       const RequestOptions& options, double deadline);

  const core::Vs2& pipeline_;
  ServiceOptions options_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<util::ThreadPool> pool_;

  mutable sync::Mutex mu_{"serve.service"};
  bool accepting_ VS2_GUARDED_BY(mu_) = true;
  /// obs exports written by a completed Drain
  bool flushed_ VS2_GUARDED_BY(mu_) = false;
  size_t queued_ VS2_GUARDED_BY(mu_) = 0;
  size_t in_flight_ VS2_GUARDED_BY(mu_) = 0;
  uint64_t accepted_ VS2_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ VS2_GUARDED_BY(mu_) = 0;
  uint64_t completed_ VS2_GUARDED_BY(mu_) = 0;
  uint64_t deadline_exceeded_ VS2_GUARDED_BY(mu_) = 0;
};

}  // namespace vs2::serve

#endif  // VS2_SERVE_SERVICE_HPP_
