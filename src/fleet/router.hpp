#ifndef VS2_FLEET_ROUTER_HPP_
#define VS2_FLEET_ROUTER_HPP_

/// \file router.hpp
/// The fleet front door: a `serve::LineServer` that accepts the existing
/// newline-JSON wire protocol and consistent-hashes each document's
/// content address (`serve::ContentAddress` — the same hash the workers'
/// result caches key on) over N shared-nothing worker daemons, so every
/// document's cache entry lives on exactly one shard and warm-hit rate
/// survives horizontal scale-out (DESIGN.md §15). It forwards the
/// canonical bytes it hashed as a canonical line (serve/wire.hpp), so a
/// worker serves a cache hit without parsing the document again.
///
/// **Routing tiers per document line** (hot-shard load shedding layered on
/// the workers' admission queues):
///   1. primary — the ring's live owner of the content address;
///   2. shed-to-sibling — when the primary answers `kUnavailable` (queue
///      full) or its last health probe showed a near-full queue, the next
///      distinct live shard takes the request (a cache miss there, but
///      capacity instead of a rejection);
///   3. immediate `kUnavailable` — no queueing or blind retry inside the
///      router; the client sheds load or retries, exactly the
///      `ExtractionService` admission contract one level up.
/// A transport failure mid-request (worker crashed) re-routes the line to
/// the sibling — the pipeline is deterministic and side-effect-free, so
/// replaying a possibly-already-executed request is safe. The client sees
/// a served response or a clean error line, never a hung connection.
///
/// **Worker lifecycle**: spawned workers (fork/exec `vs2_serve`) are
/// launched by `Start`, SIGTERM-drained by `Stop`, and individually
/// restartable via `RestartShard` — mark down (ring re-routes), drain
/// router-side in-flight, terminate (the worker's signal handler runs
/// `ExtractionService::Drain()`), relaunch, wait healthy, mark up.
/// Adopted workers (external daemons, or in-process `serve::Daemon`s in
/// tests/bench) skip the lifecycle calls. A health thread probes
/// `{"cmd":"health"}` every `health_interval_sec`; `mark_down_after`
/// consecutive failures take a shard out of the ring, the first healthy
/// probe puts it back.
///
/// **Admin wire** (same envelope as the worker daemon):
///   {"cmd":"stats"}   -> merged fleet snapshot: {"fleet":...,"shards":[..]}
///   {"cmd":"health"}  -> router summary (live shard count, counters)
///   {"cmd":"slow"}    -> concatenation of every reachable worker's slow log
///   {"cmd":"restart","shard":"N"} -> draining restart of shard N
/// `vs2_top` renders the merged stats as a per-shard table; `vs2_fleet`
/// (examples/) is the CLI host.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/hash_ring.hpp"
#include "fleet/net.hpp"
#include "fleet/worker.hpp"
#include "serve/line_server.hpp"
#include "triage/triage.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace vs2::fleet {

struct RouterOptions {
  // ---- listener (see serve::LineServerOptions) ----
  std::string unix_socket_path;
  int tcp_port = 0;
  int backlog = 64;
  bool reuse_addr = true;
  size_t max_line_bytes = 8u << 20;

  // ---- ring ----
  size_t virtual_nodes = 64;

  // ---- lifecycle ----
  /// How long `Start` waits for every worker to answer
  /// `{"cmd":"health"}` ok. Covers worker startup cost (pattern learning
  /// takes seconds).
  double worker_start_timeout_sec = 180.0;
  /// SIGTERM-to-SIGKILL grace on terminate; the worker drains in-flight
  /// requests during it.
  double terminate_grace_sec = 8.0;

  // ---- health ----
  double health_interval_sec = 0.5;
  /// Consecutive failed probes before a shard is marked down.
  int mark_down_after = 2;
  double probe_timeout_sec = 1.0;

  // ---- data path ----
  /// Receive/send timeout on router->worker connections: a hung (not
  /// dead) worker turns into a failed forward + re-route, never a hung
  /// client connection.
  double upstream_timeout_sec = 30.0;
  /// Proactive shed threshold: when the primary's last-probed
  /// queue_depth/queue_capacity is at or above this, route to the sibling
  /// without asking the primary. 1.0 disables proactive shedding (the
  /// reactive kUnavailable tier still sheds).
  double shed_queue_fraction = 0.9;

  // ---- restart ----
  /// Max wait for router-side in-flight requests to a shard to finish
  /// before its worker is terminated.
  double restart_drain_timeout_sec = 10.0;

  // ---- triage ----
  /// Thresholds for the router-side classification that counts lanes in
  /// `{"cmd":"stats"}` (mode is ignored; the router always applies the
  /// auto rule).
  triage::TriageConfig triage;
};

/// \brief Consistent-hash front router over a fleet of worker daemons.
class Router : public serve::LineServer {
 public:
  Router(std::vector<WorkerSpec> workers, RouterOptions options);
  ~Router() override;

  /// Launches spawned workers, waits for every worker's health, starts the
  /// health prober, then opens the listener. On failure everything already
  /// started is torn down.
  Status Start() override;

  /// Closes the listener and client connections, stops the health prober,
  /// and SIGTERM-drains spawned workers. Idempotent.
  void Stop() override;

  /// Draining restart of one shard (see file comment). Blocks until the
  /// worker is back and healthy; only spawned workers can restart.
  Status RestartShard(size_t shard);

  size_t shard_count() const { return shards_.size(); }
  bool shard_up(size_t shard) const;

  /// One request line in, one response line out (no trailing newline).
  /// Test seam; real connections get their own upstream connection set.
  std::string HandleLine(const std::string& line);

  /// Router-level counters (monotonic over the router's lifetime).
  struct Stats {
    uint64_t forwarded = 0;        ///< responses relayed from a worker
    uint64_t rerouted = 0;         ///< transport failure -> sibling served
    uint64_t shed_to_sibling = 0;  ///< hot/full primary -> sibling tried
    uint64_t unavailable = 0;      ///< kUnavailable returned to the client
    uint64_t bad_document = 0;     ///< rejected before routing
    uint64_t markdowns = 0;
    uint64_t markups = 0;
    uint64_t restarts = 0;
    uint64_t triage_skip = 0;  ///< router-side lane counts (traffic mix)
    uint64_t triage_fast = 0;
    uint64_t triage_full = 0;
  };
  Stats stats() const;

 protected:
  std::unique_ptr<ConnectionHandler> NewConnection() override;
  std::string OversizedLineResponse(size_t max_line_bytes) override;

 private:
  /// Per-shard lifecycle state, *not* guarded by `mu_`: `worker` handles
  /// lifecycle + admin probes (thread-compatible — the restart path
  /// serializes lifecycle calls per shard via the `restarting` health
  /// flag), and `in_flight` is a lock-free forward counter.
  struct Shard {
    explicit Shard(WorkerSpec spec) : worker(std::move(spec)) {}
    WorkerHandle worker;
    std::atomic<uint64_t> in_flight{0};  ///< router-side forwards running
  };

  /// Per-shard health state, guarded by `mu_` (kept in a parallel vector
  /// rather than inside `Shard` so the guard is expressible to the
  /// thread-safety analysis, which matches capability expressions
  /// structurally and cannot tie a field of one object to another
  /// object's mutex). `up` mirrors the ring; `restarting` pins a shard
  /// down across a lifecycle cycle so the health prober cannot mark it up
  /// mid-restart.
  struct ShardHealth {
    bool up = true;
    bool restarting = false;
    int failures = 0;             ///< consecutive failed probes
    double queue_fraction = 0.0;  ///< from the last health probe
  };

  /// What one client connection keeps across its lines: upstream
  /// connections (the data path shares no sockets across threads, so
  /// forwards never lock), the parse tape and the forwarded-line buffer.
  struct Session {
    explicit Session(size_t shards) : upstream(shards) {}
    std::vector<LineConn> upstream;
    util::JsonTape tape;
    std::string forward;
  };

  std::string HandleLineOn(const std::string& line, Session& session);
  std::string RouteDocument(const std::string& line,
                            const util::JsonValue& root, Session& session);
  /// One forward with a single fresh-connection retry (a cached
  /// connection may be stale after a worker restart). False = transport
  /// failure after retry: the worker is gone.
  bool Forward(size_t shard, const std::string& line,
               std::vector<LineConn>& upstream, std::string* response);
  /// Data-path failure evidence: marks the shard down immediately (the
  /// retry already failed on a fresh connection).
  void NoteForwardFailure(size_t shard);

  std::string HandleAdmin(std::string_view cmd, const util::JsonValue& root);
  std::string MergedStatsJson();
  std::string RouterHealthJson();
  std::string MergedSlowJson();

  void HealthLoop();
  void ProbeAll();

  RouterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Routing-state lock: ring membership, shard health, counters. Leaf
  /// lock — never held across a network round trip or while acquiring
  /// another mutex (DESIGN.md §17).
  mutable sync::Mutex mu_{"fleet.router.state"};
  HashRing ring_ VS2_GUARDED_BY(mu_);
  std::vector<ShardHealth> health_ VS2_GUARDED_BY(mu_);
  uint64_t forwarded_ VS2_GUARDED_BY(mu_) = 0;
  uint64_t rerouted_ VS2_GUARDED_BY(mu_) = 0;
  uint64_t shed_to_sibling_ VS2_GUARDED_BY(mu_) = 0;
  uint64_t unavailable_ VS2_GUARDED_BY(mu_) = 0;
  uint64_t bad_document_ VS2_GUARDED_BY(mu_) = 0;
  uint64_t markdowns_ VS2_GUARDED_BY(mu_) = 0;
  uint64_t markups_ VS2_GUARDED_BY(mu_) = 0;
  uint64_t restarts_ VS2_GUARDED_BY(mu_) = 0;
  /// indexed by triage::Lane
  uint64_t triage_lanes_[3] VS2_GUARDED_BY(mu_) = {0, 0, 0};

  std::atomic<bool> health_running_{false};
  /// Prober wakeup lock: pairs with `health_cv_` only (never nested with
  /// `mu_` — the prober takes `mu_` strictly after releasing it).
  sync::Mutex health_mu_{"fleet.router.health"};
  sync::CondVar health_cv_;
  std::thread health_thread_;

  /// Serializes the HandleLine test seam.
  sync::Mutex test_session_mu_{"fleet.router.test_session"};
  std::unique_ptr<Session> test_session_ VS2_GUARDED_BY(test_session_mu_);
};

}  // namespace vs2::fleet

#endif  // VS2_FLEET_ROUTER_HPP_
