/// \file fleet_workloads.cpp
/// `fleet-hot` and `fleet-cold`: a `fleet::Router` over two in-process
/// workers, each an `ExtractionService` with one pipeline thread behind a
/// `serve::Daemon` on a Unix socket, driven through the router by the
/// shared load generator.
///
///  * `fleet-hot` serves D1 forms drawn from a hot set of 64 documents,
///    routed once through the fleet during set-up so every worker cache
///    holds its share: nearly every request is a cache hit, and wire parse,
///    content address, cache lookup, serialization and the router hop do
///    the work.
///  * `fleet-cold` serves D2 posters, each request a document not sent
///    earlier in the run, more of them than the caches hold: every request
///    runs the FULL pipeline and writes the cache, evicting as it goes.
///
/// Every response is compared with the lane-prefixed
/// `doc::ExtractionsToJson` of an in-process `Process` of the same request
/// line, computed outside the timed phases.
///
/// Traced run: after the warm-up, the low rate untraced, then the low and
/// high rates with `"trace_id"` request lines. The echoed `total_ms` and
/// stages split the worker time into queue wait, cache lookup and
/// pipeline; timed calls to `doc::FromJson`, `serve::ContentAddressInto`,
/// the router's parse and `doc::ExtractionsToJson` on the same lines split
/// the rest of the round trip, and what remains is transport. A
/// stage-by-stage replay of the served documents gives the pipeline
/// layers.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "datasets/pretrained.hpp"
#include "doc/serialization.hpp"
#include "fleet/net.hpp"
#include "fleet/router.hpp"
#include "serve/content_address.hpp"
#include "serve/daemon.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace vs2::benchmark {
namespace {

constexpr size_t kWorkers = 2;
constexpr size_t kHotDocuments = 64;
/// Per-worker result-cache capacity: holds the hot set, and a small share
/// of a cold run's distinct documents.
constexpr size_t kCacheEntries = 256;
/// Documents of the traced run whose layer calls are timed one by one.
constexpr size_t kLayerSample = 256;
/// Documents generated at a time during set-up.
constexpr size_t kGenerateChunk = 1000;
/// Sockets live under the build directory of the checkout.
constexpr const char* kSocketDir = ".bench_build/sockets";

struct InProcessWorker {
  InProcessWorker(const core::Vs2& vs2, const serve::ServiceOptions& options,
                  const std::string& socket_path)
      : service(vs2, options) {
    serve::DaemonOptions daemon_options;
    daemon_options.unix_socket_path = socket_path;
    daemon = std::make_unique<serve::Daemon>(service, daemon_options);
  }
  serve::ExtractionService service;
  std::unique_ptr<serve::Daemon> daemon;
};

/// The router and its workers; stopping is the destructor's job.
struct Fleet {
  std::vector<std::unique_ptr<InProcessWorker>> workers;
  std::unique_ptr<fleet::Router> router;
  fleet::Endpoint front;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    if (router) router->Stop();
    for (auto& w : workers) {
      w->daemon->Stop();
      w->service.Drain();
    }
  }

  struct CacheTotals {
    uint64_t hits = 0, misses = 0, evictions = 0;
  };
  CacheTotals Cache() const {
    CacheTotals t;
    for (const auto& w : workers) {
      serve::ExtractionService::Stats s = w->service.stats();
      t.hits += s.cache_hits;
      t.misses += s.cache_misses;
      t.evictions += s.cache_evictions;
    }
    return t;
  }
};

Result<std::unique_ptr<Fleet>> StartFleet(const core::Vs2& vs2) {
  ::mkdir(".bench_build", 0755);
  ::mkdir(kSocketDir, 0755);
  auto fleet_ptr = std::make_unique<Fleet>();
  std::vector<fleet::WorkerSpec> specs;
  for (size_t w = 0; w < kWorkers; ++w) {
    serve::ServiceOptions options;
    options.jobs = 1;
    options.cache_entries = kCacheEntries;
    std::string socket =
        util::Format("%s/%d.w%zu.sock", kSocketDir, ::getpid(), w);
    fleet_ptr->workers.push_back(
        std::make_unique<InProcessWorker>(vs2, options, socket));
    VS2_RETURN_IF_ERROR(fleet_ptr->workers.back()->daemon->Start());
    fleet::WorkerSpec spec;
    spec.endpoint.unix_socket_path = socket;  // adopted: no spawn_argv
    specs.push_back(std::move(spec));
  }
  fleet::RouterOptions options;
  options.unix_socket_path =
      util::Format("%s/%d.router.sock", kSocketDir, ::getpid());
  fleet_ptr->router =
      std::make_unique<fleet::Router>(std::move(specs), options);
  VS2_RETURN_IF_ERROR(fleet_ptr->router->Start());
  fleet_ptr->front.unix_socket_path = options.unix_socket_path;
  return fleet_ptr;
}

/// What distinguishes the two fleet workloads.
struct FleetSpec {
  const char* name;
  doc::DatasetId dataset;
  bool hot;
};

struct FleetSystem {
  std::unique_ptr<core::Vs2> pipeline;
  std::vector<std::string> lines;         ///< request line per document
  std::vector<std::string> traced_lines;  ///< same, with a "trace_id"
  std::unique_ptr<Fleet> fleet;
};

/// `line` with a top-level `"trace_id"` inserted after its opening brace.
std::string WithTraceId(const std::string& line, uint64_t doc_index) {
  return util::Format("{\"trace_id\":\"%016llx%016llx\",",
                      0x5EEDBEEFull, static_cast<unsigned long long>(
                                         doc_index + 1)) +
         line.substr(1);
}

Result<std::unique_ptr<FleetSystem>> SetUp(const FleetSpec& spec,
                                           uint64_t seed, size_t documents,
                                           bool traced, size_t threads) {
  auto system = std::make_unique<FleetSystem>();
  system->lines.resize(documents);
  if (traced) system->traced_lines.resize(documents);
  // Generated in chunks so a cold run never holds all its documents at
  // once; every request line is a distinct document.
  util::ThreadPool pool(threads);
  uint64_t next_id = 0;
  for (size_t first = 0; first < documents; first += kGenerateChunk) {
    std::vector<doc::Document> chunk = GenerateSafe(
        spec.dataset, std::min(kGenerateChunk, documents - first),
        (seed * 31 + static_cast<uint64_t>(spec.dataset)) * 7919 +
            first / kGenerateChunk,
        &next_id);
    util::ParallelFor(&pool, chunk.size(), [&](size_t i) {
      size_t d = first + i;
      system->lines[d] = doc::ToJson(chunk[i]);
      if (traced) system->traced_lines[d] = WithTraceId(system->lines[d], d);
    });
  }
  system->pipeline = std::make_unique<core::Vs2>(
      spec.dataset, datasets::PretrainedEmbedding(),
      WorkloadConfig(spec.dataset));
  VS2_ASSIGN_OR_RETURN(system->fleet, StartFleet(*system->pipeline));
  if (spec.hot) {
    // Route the hot set once so each document is cached on its shard.
    fleet::LineConn conn(fleet::Dial(system->fleet->front, 30.0));
    for (const std::string& line : system->lines) {
      std::string response;
      if (!conn.ok() || !conn.SendLine(line) || !conn.RecvLine(&response) ||
          response.rfind("{\"error\":", 0) == 0) {
        return Status::Internal("cache prefill failed: " + response);
      }
    }
  }
  return system;
}

/// One request's record, written by the connection that sent it.
struct Record {
  bool served = false;     ///< answered with a non-error response
  uint64_t hash = 0;       ///< of the response payload (echo removed)
  double round_trip_ms = 0.0;
  double total_ms = -1.0;  ///< echoed worker time; traced lines only
  double pipeline_ms = 0.0;
  double cache_lookup_ms = 0.0;
};

/// Splits a traced response into its echo (`total_ms`, stages) and the
/// payload the untraced protocol would have sent.
bool ParseEcho(const std::string& response, Record* record,
               std::string* payload) {
  size_t total = response.find("\"total_ms\":");
  size_t stages = response.find("\"stages\":[");
  if (total == std::string::npos || stages == std::string::npos) return false;
  record->total_ms = std::strtod(response.c_str() + total + 11, nullptr);
  size_t end = response.find("],", stages);
  if (end == std::string::npos) return false;
  for (size_t at = response.find("{\"name\":\"", stages); at < end;
       at = response.find("{\"name\":\"", at + 1)) {
    size_t name_end = response.find('"', at + 9);
    std::string name = response.substr(at + 9, name_end - at - 9);
    double ms = std::strtod(response.c_str() + name_end + 7, nullptr);
    if (name == "vs2.process") record->pipeline_ms += ms;
    if (name == "serve.cache_lookup") record->cache_lookup_ms += ms;
  }
  payload->assign(1, '{');
  payload->append(response, end + 2, std::string::npos);
  return true;
}

/// Load-generator side of a run: client connections and per-request
/// records.
class Client {
 public:
  Client(const FleetSystem& system, size_t conns, size_t requests,
         std::vector<size_t> doc_of)
      : system_(system), conns_(conns), buffers_(conns), records_(requests),
        doc_of_(std::move(doc_of)) {}

  /// Request `seq` on connection `conn`, traced or not.
  bool Send(size_t conn, size_t seq, bool traced) {
    fleet::LineConn& c = conns_[conn];
    if (!c.ok()) c = fleet::LineConn(fleet::Dial(system_.fleet->front, 30.0));
    size_t d = doc_of_[seq];
    const std::string& line =
        traced ? system_.traced_lines[d] : system_.lines[d];
    std::string& response = buffers_[conn];
    Record& record = records_[seq];
    double t0 = NowSec();
    if (!c.ok() || !c.SendLine(line) || !c.RecvLine(&response)) {
      c.Close();
      return false;
    }
    record.round_trip_ms = (NowSec() - t0) * 1e3;
    if (response.rfind("{\"error\":", 0) == 0) return false;
    if (!traced) {
      record.hash = util::Fnv1a64(response);
    } else {
      std::string payload;
      if (!ParseEcho(response, &record, &payload)) return false;
      record.hash = util::Fnv1a64(payload);
    }
    record.served = true;
    return true;
  }

  const Record& record(size_t seq) const { return records_[seq]; }
  size_t doc_of(size_t seq) const { return doc_of_[seq]; }

 private:
  const FleetSystem& system_;
  std::vector<fleet::LineConn> conns_;
  std::vector<std::string> buffers_;  ///< per connection
  std::vector<Record> records_;       ///< by request seq
  std::vector<size_t> doc_of_;        ///< request seq -> document
};

/// In-process reference of every document in `docs`: the expected
/// response hash and the F1 counts, computed on `threads` threads.
struct Reference {
  std::vector<uint64_t> hash;  ///< by document; 0 = not computed
  std::vector<eval::PrCounts> counts;
};

Reference ComputeReferences(const FleetSystem& system,
                            const std::vector<size_t>& docs, size_t threads) {
  Reference ref;
  ref.hash.assign(system.lines.size(), 0);
  ref.counts.assign(system.lines.size(), eval::PrCounts{});
  util::ThreadPool pool(threads);
  util::ParallelFor(&pool, docs.size(), [&](size_t k) {
    size_t d = docs[k];
    Result<doc::Document> parsed = doc::FromJson(system.lines[d]);
    if (!parsed.ok()) return;
    Result<core::Vs2::DocResult> result = system.pipeline->Process(*parsed);
    if (!result.ok()) return;
    ref.hash[d] = util::Fnv1a64(ExpectedResponse(*result));
    ref.counts[d] = ScoreExtractions(result->extractions, *parsed);
  });
  return ref;
}

/// Distinct documents of the first `sent` requests, in first-seen order.
std::vector<size_t> DistinctDocs(const Client& client, size_t sent) {
  std::vector<size_t> docs;
  std::vector<bool> seen;
  for (size_t seq = 0; seq < sent; ++seq) {
    size_t d = client.doc_of(seq);
    if (d >= seen.size()) seen.resize(d + 1, false);
    if (!seen[d]) {
      seen[d] = true;
      docs.push_back(d);
    }
  }
  return docs;
}

/// Compares every served response of the first `sent` requests with the
/// reference; returns the number that differ and marks them through
/// `mark_failed`.
size_t Verify(const Client& client, const Reference& ref, size_t sent,
              const std::function<void(size_t)>& mark_failed) {
  size_t wrong = 0;
  for (size_t seq = 0; seq < sent; ++seq) {
    const Record& r = client.record(seq);
    if (!r.served) continue;  // the load generator counted it already
    if (r.hash != ref.hash[client.doc_of(seq)]) {
      ++wrong;
      mark_failed(seq);
    }
  }
  return wrong;
}

/// Request seq -> document: hot traffic draws from the hot set with the
/// seed, cold traffic never repeats a document.
std::vector<size_t> DocumentSequence(const FleetSpec& spec, uint64_t seed,
                                     size_t requests) {
  std::vector<size_t> doc_of(requests);
  util::Rng rng(seed ^ 0xD0C5EC0ull);
  for (size_t seq = 0; seq < requests; ++seq) {
    doc_of[seq] = spec.hot ? static_cast<size_t>(rng.UniformInt(
                                 0, static_cast<int>(kHotDocuments) - 1))
                           : seq;
  }
  return doc_of;
}

size_t Threads() {
  return std::max<size_t>(1, std::min<size_t>(
                                 4, std::thread::hardware_concurrency()));
}

/// Replays the first `kLayerSample` served documents one call at a time:
/// the serving layers' public calls on each request line (worker parse,
/// content address, the router's parse, response serialization), then
/// `Process` against the stage-by-stage replay, timed alternately and
/// compared byte for byte. Returns the number of documents that failed.
size_t ReplayServedDocuments(const FleetSystem& system,
                             const std::vector<size_t>& docs,
                             LayerReport* report) {
  size_t n = std::min(docs.size(), kLayerSample);
  if (n == 0) return 0;
  fleet::RouterOptions router_defaults;
  double from_json = 0, address = 0, router = 0, to_json = 0, bytes = 0;
  size_t failed = 0;
  std::string canonical;
  for (size_t k = 0; k < n; ++k) {
    const std::string& line = system.lines[docs[k]];
    bytes += static_cast<double>(line.size());
    double t0 = NowSec();
    Result<doc::Document> parsed = doc::FromJson(line);
    double t1 = NowSec();
    if (!parsed.ok()) {
      ++failed;
      continue;
    }
    canonical.clear();
    serve::ContentAddressInto(*parsed, &canonical);
    double t2 = NowSec();
    // The router's per-line work: parse, content address, triage features.
    Result<doc::Document> routed = doc::FromJson(line);
    serve::ContentAddress(*routed);
    triage::RouteFeatures(
        triage::ComputeTriageFeatures(*routed,
                                      router_defaults.triage.grid_scale),
        router_defaults.triage);
    double t3 = NowSec();
    from_json += (t1 - t0) * 1e6;
    address += (t2 - t1) * 1e6;
    router += (t3 - t2) * 1e6;

    // Alternate which call goes first so neither profits from a warm cache.
    Result<core::Vs2::DocResult> processed = Status::Internal("not run");
    Result<core::Vs2::DocResult> staged = Status::Internal("not run");
    for (int pass = 0; pass < 2; ++pass) {
      if ((pass + k) % 2 == 0) {
        double p0 = NowSec();
        processed = system.pipeline->Process(*parsed);
        report->process_ms += (NowSec() - p0) * 1e3;
      } else {
        staged = ProcessByStage(*system.pipeline, *parsed, &report->stages);
      }
    }
    if (!processed.ok() || !staged.ok() ||
        ExpectedResponse(*processed) != ExpectedResponse(*staged)) {
      ++failed;
      continue;
    }
    double s0 = NowSec();
    doc::ExtractionsToJson(*processed);
    to_json += (NowSec() - s0) * 1e6;
  }
  double dn = static_cast<double>(n);
  report->from_json_us = from_json / dn;
  report->content_address_us = address / dn;
  report->router_parse_us = router / dn;
  report->to_json_us = to_json / dn;
  report->request_kb = bytes / dn / 1024.0;
  return failed;
}

RunResult RunFleet(const FleetSpec& spec, const RunOptions& options) {
  RatePlan plan;
  PlanFor(spec.name, &plan);
  RunResult out;
  const size_t threads = Threads();
  Schedules schedules = MakeSchedules(plan, options.seed, options.seconds);
  size_t requests = WarmupCap(plan, options.seconds) +
                    (options.trace ? 2 * schedules.due_sec[0].size() +
                                         schedules.due_sec[1].size()
                                   : ClosedLoopCap(plan, options.seconds) +
                                         schedules.TotalRequests());
  size_t documents = spec.hot ? kHotDocuments : requests;

  HostProbe probe;
  std::unique_ptr<FleetSystem> system;
  std::vector<double> setup_times;
  SetupTiming setup;
  setup.begin_sec = NowSec();
  for (int k = 0; k < (options.trace ? 1 : kSetupRepeats); ++k) {
    system.reset();
    double t0 = NowSec();
    Result<std::unique_ptr<FleetSystem>> started =
        SetUp(spec, options.seed, documents, options.trace, threads);
    if (!started.ok()) {
      std::fprintf(stderr, "%s: set-up failed: %s\n", spec.name,
                   started.status().ToString().c_str());
      out.correct = false;
      out.attempted = 1;
      out.failed = 1;
      return out;
    }
    system = std::move(*started);
    setup_times.push_back(NowSec() - t0);
  }
  setup.end_sec = NowSec();
  setup.median_s = MedianSetup(setup_times);
  std::printf("%s: %zu documents, %zu workers, cache %zu entries each, "
              "setup %.3f s\n",
              spec.name, system->lines.size(), kWorkers, kCacheEntries,
              setup.median_s);

  Client client(*system, plan.load.conns, requests,
                DocumentSequence(spec, options.seed, requests));
  if (!options.trace) {
    Fleet::CacheTotals cache_before = system->fleet->Cache();
    PhasePlanResult phases = RunPhases(
        plan, schedules, options.seconds,
        [&](size_t conn, size_t seq) { return client.Send(conn, seq, false); });
    probe.Stop();
    size_t sent = phases.TotalSent();
    Fleet::CacheTotals cache = system->fleet->Cache();
    std::vector<size_t> docs = DistinctDocs(client, sent);
    Reference ref = ComputeReferences(*system, docs, threads);
    size_t wrong = Verify(client, ref, sent,
                          [&](size_t seq) { phases.MarkFailed(seq); });
    eval::PrCounts total;
    for (size_t d : docs) total.Add(ref.counts[d]);
    uint64_t lookups = (cache.hits - cache_before.hits) +
                       (cache.misses - cache_before.misses);
    fleet::Router::Stats router = system->fleet->router->stats();
    std::printf("%s: %zu requests, %zu distinct documents, cache hit frac "
                "%.4f, %zu wrong responses; router rerouted %llu, shed "
                "%llu, unavailable %llu, markdowns %llu\n",
                spec.name, sent, docs.size(),
                lookups == 0 ? 0.0
                             : static_cast<double>(cache.hits -
                                                   cache_before.hits) /
                                   static_cast<double>(lookups),
                wrong, static_cast<unsigned long long>(router.rerouted),
                static_cast<unsigned long long>(router.shed_to_sibling),
                static_cast<unsigned long long>(router.unavailable),
                static_cast<unsigned long long>(router.markdowns));
    AddEndToEndMetrics(plan, phases, setup, total.F1(), probe, &out);
    return out;
  }

  // ---- traced run -------------------------------------------------------
  PhaseResult warmup = RunClosedLoop(
      plan.load, kWarmupShare * options.seconds,
      WarmupCap(plan, options.seconds),
      [&](size_t conn, size_t seq) { return client.Send(conn, seq, false); });
  size_t base = warmup.sent();
  auto run_rung = [&](const std::vector<double>& due, bool traced) {
    size_t phase_base = base;
    PhaseResult r = RunOpenLoop(due, plan.load, [&](size_t conn, size_t i) {
      return client.Send(conn, phase_base + i, traced);
    });
    base += r.sent();
    return r;
  };
  PhaseResult low_plain = run_rung(schedules.due_sec[0], false);
  size_t traced_begin = base;
  Fleet::CacheTotals cache_traced = system->fleet->Cache();
  fleet::Router::Stats router_before = system->fleet->router->stats();
  PhaseResult low_traced = run_rung(schedules.due_sec[0], true);
  size_t high_begin = base;
  PhaseResult high = run_rung(schedules.due_sec[1], true);
  size_t sent = base;
  Fleet::CacheTotals cache_after = system->fleet->Cache();
  fleet::Router::Stats router_after = system->fleet->router->stats();

  LayerReport report;
  probe.Stop();
  report.host_kernel_ms = probe.MedianMs(0.0, NowSec());
  std::vector<size_t> docs = DistinctDocs(client, sent);
  Reference ref = ComputeReferences(*system, docs, threads);
  size_t failed = warmup.failed() + low_plain.failed() + low_traced.failed() +
                  high.failed();
  failed += Verify(client, ref, sent, [](size_t) {});

  size_t replayed = std::min(docs.size(), kLayerSample);
  failed += ReplayServedDocuments(*system, docs, &report);
  for (size_t d : docs) {
    report.f1[static_cast<size_t>(spec.dataset) - 1].Add(ref.counts[d]);
  }

  uint64_t hits = cache_after.hits - cache_traced.hits;
  uint64_t lookups = hits + (cache_after.misses - cache_traced.misses);
  double traced_requests = static_cast<double>(sent - traced_begin);
  report.cache_hit_frac =
      lookups == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups);
  report.cache_evict_per_req =
      lookups == 0 ? 0.0
                   : static_cast<double>(cache_after.evictions -
                                         cache_traced.evictions) /
                         static_cast<double>(lookups);
  report.shed_frac = static_cast<double>(router_after.shed_to_sibling -
                                         router_before.shed_to_sibling) /
                     traced_requests;
  report.reroute_frac =
      static_cast<double>(router_after.rerouted - router_before.rerouted) /
      traced_requests;

  // Echo-derived serving layers, over the high rate where queueing shows.
  std::vector<double> worker, pipeline, lookup, queue, hop, round_trip;
  for (size_t seq = high_begin; seq < sent; ++seq) {
    const Record& r = client.record(seq);
    if (!r.served || r.total_ms < 0.0) continue;
    worker.push_back(r.total_ms);
    pipeline.push_back(r.pipeline_ms);
    lookup.push_back(r.cache_lookup_ms);
    queue.push_back(std::max(0.0, r.total_ms - r.pipeline_ms -
                                      r.cache_lookup_ms));
    hop.push_back(r.round_trip_ms - r.total_ms);
    round_trip.push_back(r.round_trip_ms);
  }
  report.worker_ms_p50 = Pct(worker, 0.5);
  report.worker_ms_p99 = Pct(worker, 0.99);
  report.worker_ms_mean = Mean(worker);
  report.pipeline_ms_p50 = Pct(pipeline, 0.5);
  report.cache_lookup_ms_p50 = Pct(lookup, 0.5);
  report.queue_wait_ms_p50 = Pct(queue, 0.5);
  report.queue_wait_ms_p99 = Pct(queue, 0.99);
  report.hop_ms_p50 = Pct(hop, 0.5);
  report.round_trip_ms_mean = Mean(round_trip);
  report.transport_ms_mean =
      report.round_trip_ms_mean - report.worker_ms_mean -
      (report.router_parse_us + report.from_json_us + report.to_json_us) /
          1e3;
  report.late_ms_p99 = Pct(high.generator_late_ms, 0.99);
  report.achieved_rps = high.AchievedRps();
  report.overhead_frac =
      low_traced.LatencyPct(0.5) / low_plain.LatencyPct(0.5) - 1.0;

  std::printf(
      "round trip at the high rate, mean %.3f ms =\n"
      "  worker (echoed total_ms)        %8.3f ms\n"
      "  router parse+address+triage     %8.3f ms\n"
      "  worker doc::FromJson            %8.3f ms\n"
      "  doc::ExtractionsToJson          %8.3f ms\n"
      "  transport (remainder)           %8.3f ms\n",
      report.round_trip_ms_mean, report.worker_ms_mean,
      report.router_parse_us / 1e3, report.from_json_us / 1e3,
      report.to_json_us / 1e3, report.transport_ms_mean);
  out.attempted = sent + 2 * replayed;
  out.failed = failed;
  out.correct = failed == 0;
  AddLayerMetrics(report, &out.metrics);
  return out;
}

}  // namespace

RunResult RunFleetHot(const RunOptions& options) {
  return RunFleet({"fleet-hot", doc::DatasetId::kD1TaxForms, true}, options);
}

RunResult RunFleetCold(const RunOptions& options) {
  return RunFleet({"fleet-cold", doc::DatasetId::kD2EventPosters, false},
                  options);
}

}  // namespace vs2::benchmark
