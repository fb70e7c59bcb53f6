#include "fleet/router.hpp"

#include <chrono>
#include <cstdlib>

#include "doc/serialization.hpp"
#include "fleet/snapshot.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "serve/content_address.hpp"
#include "serve/wire.hpp"
#include "util/strings.hpp"

namespace vs2::fleet {
namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string UnavailableLine(const std::string& message) {
  return doc::ErrorToJson("<request>", Status::Unavailable(message));
}

}  // namespace

Router::Router(std::vector<WorkerSpec> workers, RouterOptions options)
    : serve::LineServer([&] {
        serve::LineServerOptions listener;
        listener.unix_socket_path = options.unix_socket_path;
        listener.tcp_port = options.tcp_port;
        listener.backlog = options.backlog;
        listener.reuse_addr = options.reuse_addr;
        listener.max_line_bytes = options.max_line_bytes;
        return listener;
      }()),
      options_(std::move(options)),
      ring_(workers.size(), HashRingOptions{options_.virtual_nodes}) {
  shards_.reserve(workers.size());
  for (WorkerSpec& spec : workers) {
    shards_.push_back(std::make_unique<Shard>(std::move(spec)));
  }
  health_.resize(shards_.size());
}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (shards_.empty()) {
    return Status::InvalidArgument("router needs at least one worker shard");
  }
  for (auto& shard : shards_) {
    Status launched = shard->worker.Launch();
    if (!launched.ok()) {
      Stop();
      return launched;
    }
  }
  for (auto& shard : shards_) {
    Status healthy =
        shard->worker.WaitHealthy(options_.worker_start_timeout_sec);
    if (!healthy.ok()) {
      Stop();
      return healthy;
    }
  }
  health_running_.store(true);
  health_thread_ = std::thread([this] { HealthLoop(); });
  Status started = LineServer::Start();
  if (!started.ok()) Stop();
  return started;
}

void Router::Stop() {
  LineServer::Stop();  // no new lines; joins connection threads
  if (health_running_.exchange(false)) {
    // The empty critical section serializes with the prober's locked
    // running check: after it, the prober has either seen false or is
    // already inside WaitFor and the notify below wakes it. Without it a
    // notify could land between the prober's check and its wait and be
    // lost (a bounded-latency stall the annotation migration surfaced).
    { sync::MutexLock lock(&health_mu_); }
    health_cv_.NotifyAll();
  }
  if (health_thread_.joinable()) health_thread_.join();
  for (auto& shard : shards_) {
    if (shard->worker.spawned() && shard->worker.pid() > 0) {
      shard->worker.Terminate(options_.terminate_grace_sec);
    }
  }
  {
    sync::MutexLock lock(&test_session_mu_);
    test_session_.reset();
  }
}

bool Router::shard_up(size_t shard) const {
  sync::MutexLock lock(&mu_);
  return shard < health_.size() && health_[shard].up;
}

Router::Stats Router::stats() const {
  sync::MutexLock lock(&mu_);
  Stats stats;
  stats.forwarded = forwarded_;
  stats.rerouted = rerouted_;
  stats.shed_to_sibling = shed_to_sibling_;
  stats.unavailable = unavailable_;
  stats.bad_document = bad_document_;
  stats.markdowns = markdowns_;
  stats.markups = markups_;
  stats.restarts = restarts_;
  stats.triage_skip = triage_lanes_[static_cast<size_t>(triage::Lane::kSkip)];
  stats.triage_fast = triage_lanes_[static_cast<size_t>(triage::Lane::kFast)];
  stats.triage_full = triage_lanes_[static_cast<size_t>(triage::Lane::kFull)];
  return stats;
}

std::unique_ptr<serve::LineServer::ConnectionHandler> Router::NewConnection() {
  class Handler : public ConnectionHandler {
   public:
    explicit Handler(Router* router)
        : router_(router), session_(router->shards_.size()) {}
    std::string HandleLine(const std::string& line) override {
      return router_->HandleLineOn(line, session_);
    }

   private:
    Router* router_;
    Session session_;
  };
  return std::make_unique<Handler>(this);
}

std::string Router::OversizedLineResponse(size_t max_line_bytes) {
  return doc::ErrorToJson(
      "<request>",
      Status::InvalidArgument(util::Format(
          "request line exceeds %zu bytes without newline", max_line_bytes)));
}

std::string Router::HandleLine(const std::string& line) {
  sync::MutexLock lock(&test_session_mu_);
  if (!test_session_) test_session_ = std::make_unique<Session>(shards_.size());
  return HandleLineOn(line, *test_session_);
}

std::string Router::HandleLineOn(const std::string& line, Session& session) {
  Status parsed = session.tape.Parse(line);
  std::string response;
  if (!parsed.ok()) {
    sync::MutexLock lock(&mu_);
    ++bad_document_;
    response = doc::ErrorToJson(
        "<request>",
        Status::InvalidArgument("bad document JSON: " + parsed.ToString()));
  } else if (util::JsonValue cmd = session.tape.root()["cmd"];
             cmd.present()) {
    response =
        cmd.is_string()
            ? HandleAdmin(cmd.string(), session.tape.root())
            : doc::ErrorToJson(
                  "<admin>",
                  Status::InvalidArgument("\"cmd\" must be a string: stats, "
                                          "health, slow or restart"));
  } else {
    response = RouteDocument(line, session.tape.root(), session);
  }
  session.tape.Shrink();
  return response;
}

bool Router::Forward(size_t shard, const std::string& line,
                     std::vector<LineConn>& upstream, std::string* response) {
  Shard& s = *shards_[shard];
  s.in_flight.fetch_add(1, std::memory_order_relaxed);
  bool ok = false;
  // Two attempts: the cached connection may be stale after a worker
  // restart; the second always dials fresh.
  for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
    LineConn& conn = upstream[shard];
    if (!conn.ok()) {
      conn = LineConn(
          Dial(s.worker.endpoint(), options_.upstream_timeout_sec));
    }
    ok = conn.ok() && conn.SendLine(line) && conn.RecvLine(response);
    if (!ok) conn.Close();
  }
  s.in_flight.fetch_sub(1, std::memory_order_relaxed);
  return ok;
}

void Router::NoteForwardFailure(size_t shard) {
  sync::MutexLock lock(&mu_);
  ShardHealth& h = health_[shard];
  // A forward already retried on a fresh connection — conclusive enough
  // to take the shard out of the ring now instead of waiting
  // `mark_down_after` probes. The health prober marks it back up.
  h.failures = options_.mark_down_after;
  if (h.up) {
    h.up = false;
    ring_.SetUp(shard, false);
    ++markdowns_;
    VS2_LOG(WARN) << "fleet: shard " << shard << " ("
                  << shards_[shard]->worker.endpoint().ToString()
                  << ") marked down after forward failure";
  }
}

std::string Router::RouteDocument(const std::string& line,
                                  const util::JsonValue& root,
                                  Session& session) {
  auto reject = [this](const Status& status) {
    sync::MutexLock lock(&mu_);
    ++bad_document_;
    return doc::ErrorToJson("<request>", status);
  };
  // The canonical mark is the router's own claim to its workers; a client
  // line carrying it is never forwarded as such.
  if (root[serve::kCanonicalKey].present()) {
    return reject(Status::InvalidArgument(
        "\"canonical\" is the router's mark for its workers; send the "
        "document itself"));
  }
  // Parse to the same canonical form the workers' caches key on. The
  // router must never route on raw line bytes: two spellings of one
  // document (key order, whitespace, float formatting) would land on
  // different shards while the cache treats them as one entry.
  Result<doc::Document> parsed = doc::FromJsonValue(root);
  if (!parsed.ok()) {
    return reject(Status::InvalidArgument("bad document JSON: " +
                                          parsed.status().ToString()));
  }
  // The trace id rides along on the canonical line, so it is checked here
  // exactly as the worker would check it.
  std::string_view trace_hex;
  if (util::JsonValue trace = root["trace_id"]; trace.present()) {
    trace_hex = trace.StringOr("");
    obs::TraceContext context;
    Status status = serve::ParseTraceId(trace_hex, &context);
    if (!status.ok()) return reject(status);
  }

  {
    // Router-side triage accounting (DESIGN.md §16): classify the document
    // the content-address step already parsed — a coarse-grid feature pass,
    // microseconds next to the upstream round trip — so `{"cmd":"stats"}`
    // reports the fleet's traffic mix even when workers triage themselves.
    triage::Lane lane = triage::RouteFeatures(
        triage::ComputeTriageFeatures(*parsed, options_.triage.grid_scale),
        options_.triage);
    sync::MutexLock lock(&mu_);
    ++triage_lanes_[static_cast<size_t>(lane)];
  }
  std::string& forward = session.forward;
  forward.clear();
  serve::AppendCanonicalLineHead(trace_hex, &forward);
  uint64_t key = serve::ContentAddressInto(*parsed, &forward);
  forward.push_back('}');
  // Canonical spelling can be far longer than the client's (every default
  // spelled out: a bare `{}` element grows ~46x). A canonical line past the
  // listener's own line cap goes out as the client's line instead, which
  // the worker parses as before.
  const std::string& upstream_line =
      forward.size() <= options_.max_line_bytes ? forward : line;
  std::vector<LineConn>& upstream = session.upstream;

  size_t primary, sibling;
  bool shed_primary;
  {
    sync::MutexLock lock(&mu_);
    primary = ring_.ShardFor(key);
    if (primary == HashRing::kNone) {
      ++unavailable_;
      return UnavailableLine("no live worker shards");
    }
    sibling = ring_.SiblingFor(key);
    shed_primary =
        sibling != primary &&
        health_[primary].queue_fraction >= options_.shed_queue_fraction;
  }

  std::string response;
  if (shed_primary) {
    // Tier 2 directly: the primary's admission queue was near-full at the
    // last probe; give the request to the sibling (cold there, but
    // capacity beats a rejection) rather than pile onto the hot shard.
    {
      sync::MutexLock lock(&mu_);
      ++shed_to_sibling_;
    }
    if (Forward(sibling, upstream_line, upstream, &response) &&
        !serve::IsUnavailableResponse(response)) {
      sync::MutexLock lock(&mu_);
      ++forwarded_;
      return response;
    }
    sync::MutexLock lock(&mu_);
    ++unavailable_;
    return UnavailableLine("fleet overloaded: primary shard hot, sibling " +
                           std::string(response.empty() ? "unreachable"
                                                        : "unavailable"));
  }

  // Tier 1: the primary owner.
  if (Forward(primary, upstream_line, upstream, &response)) {
    if (!serve::IsUnavailableResponse(response) || sibling == primary) {
      sync::MutexLock lock(&mu_);
      ++forwarded_;
      return response;
    }
    // Tier 2 (reactive): primary's queue is full — shed to the sibling.
    {
      sync::MutexLock lock(&mu_);
      ++shed_to_sibling_;
    }
    std::string sibling_response;
    if (Forward(sibling, upstream_line, upstream, &sibling_response) &&
        !serve::IsUnavailableResponse(sibling_response)) {
      sync::MutexLock lock(&mu_);
      ++forwarded_;
      return sibling_response;
    }
    // Tier 3: immediate kUnavailable — relay the primary's rejection.
    sync::MutexLock lock(&mu_);
    ++unavailable_;
    return response;
  }

  // Transport failure: the primary is gone. Mark it down and re-route the
  // request to the sibling (deterministic pipeline: replay is safe).
  NoteForwardFailure(primary);
  if (sibling != primary &&
      Forward(sibling, upstream_line, upstream, &response)) {
    sync::MutexLock lock(&mu_);
    if (serve::IsUnavailableResponse(response)) {
      ++unavailable_;
    } else {
      ++forwarded_;
    }
    ++rerouted_;
    return response;
  }
  sync::MutexLock lock(&mu_);
  ++unavailable_;
  return UnavailableLine("worker shard unreachable and no live sibling");
}

// ---------------------------------------------------------------- admin --

std::string Router::HandleAdmin(std::string_view cmd,
                                const util::JsonValue& root) {
  if (cmd == "stats") return MergedStatsJson();
  if (cmd == "health") return RouterHealthJson();
  if (cmd == "slow") return MergedSlowJson();
  if (cmd == "restart") {
    util::JsonValue shard_field = root["shard"];
    if (!shard_field.is_string()) {
      return doc::ErrorToJson(
          "<admin>",
          Status::InvalidArgument(
              "restart needs a shard: {\"cmd\":\"restart\",\"shard\":\"N\"}"));
    }
    std::string shard_text(shard_field.string());
    char* end = nullptr;
    long shard = std::strtol(shard_text.c_str(), &end, 10);
    if (end == shard_text.c_str() || *end != '\0' || shard < 0 ||
        static_cast<size_t>(shard) >= shards_.size()) {
      return doc::ErrorToJson(
          "<admin>", Status::InvalidArgument("bad shard \"" + shard_text +
                                             "\": expected 0.." +
                                             std::to_string(shards_.size() -
                                                            1)));
    }
    Status restarted = RestartShard(static_cast<size_t>(shard));
    if (!restarted.ok()) return doc::ErrorToJson("<admin>", restarted);
    return util::Format(
        "{\"restarted\":%ld,\"status\":\"ok\",\"endpoint\":\"%s\"}", shard,
        shards_[static_cast<size_t>(shard)]
            ->worker.endpoint()
            .ToString()
            .c_str());
  }
  return doc::ErrorToJson(
      "<admin>",
      Status::InvalidArgument("unknown cmd \"" + std::string(cmd) +
                              "\": expected stats, health, slow or restart"));
}

std::string Router::MergedStatsJson() {
  // Collect the per-shard verdicts under the lock, probe without it (the
  // probes are network round trips).
  struct ShardView {
    std::string endpoint;
    std::string state;
  };
  std::vector<ShardView> views(shards_.size());
  size_t live = 0;
  Stats router_stats = stats();
  {
    sync::MutexLock lock(&mu_);
    live = ring_.live_count();
    for (size_t i = 0; i < shards_.size(); ++i) {
      views[i].endpoint = shards_[i]->worker.endpoint().ToString();
      views[i].state = health_[i].restarting
                           ? "restarting"
                           : (health_[i].up ? "up" : "down");
    }
  }

  std::string shards_json = "[";
  ShardSnapshot totals;
  double rate_total = 0.0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::string health, stats_response;
    (void)shards_[i]->worker.Admin("health", options_.probe_timeout_sec,
                                   &health);
    (void)shards_[i]->worker.Admin("stats", options_.probe_timeout_sec,
                                   &stats_response);
    ShardSnapshot snapshot = ParseShardSnapshot(health, stats_response);
    if (!snapshot.reachable && views[i].state == "up") {
      views[i].state = "unreachable";  // probe raced a crash
    }
    totals.queue_depth += snapshot.queue_depth;
    totals.in_flight += snapshot.in_flight;
    totals.completed += snapshot.completed;
    totals.rejected += snapshot.rejected;
    totals.cache_hits += snapshot.cache_hits;
    totals.cache_misses += snapshot.cache_misses;
    totals.cache_size += snapshot.cache_size;
    rate_total += snapshot.rate_10s;
    if (i > 0) shards_json.push_back(',');
    shards_json +=
        ShardSnapshotJson(i, views[i].endpoint, views[i].state, snapshot);
  }
  shards_json.push_back(']');

  return util::Format(
             "{\"fleet\":{\"shards\":%zu,\"live\":%zu,"
             "\"virtual_nodes\":%zu,\"uptime_sec\":%g,\"connections\":%llu,"
             "\"router\":{\"forwarded\":%llu,\"rerouted\":%llu,"
             "\"shed_to_sibling\":%llu,\"unavailable\":%llu,"
             "\"bad_document\":%llu,\"markdowns\":%llu,\"markups\":%llu,"
             "\"restarts\":%llu,\"triage\":{\"skip\":%llu,\"fast\":%llu,"
             "\"full\":%llu}},\"totals\":{\"queue_depth\":%g,"
             "\"in_flight\":%g,\"completed\":%g,\"rejected\":%g,"
             "\"cache_hits\":%g,\"cache_misses\":%g,\"hit_rate\":%.4f,"
             "\"req_per_sec_10s\":%g}},\"shards\":",
             shards_.size(), live, options_.virtual_nodes,
             SteadySeconds() - started_at_sec(),
             static_cast<unsigned long long>(connections_served()),
             static_cast<unsigned long long>(router_stats.forwarded),
             static_cast<unsigned long long>(router_stats.rerouted),
             static_cast<unsigned long long>(router_stats.shed_to_sibling),
             static_cast<unsigned long long>(router_stats.unavailable),
             static_cast<unsigned long long>(router_stats.bad_document),
             static_cast<unsigned long long>(router_stats.markdowns),
             static_cast<unsigned long long>(router_stats.markups),
             static_cast<unsigned long long>(router_stats.restarts),
             static_cast<unsigned long long>(router_stats.triage_skip),
             static_cast<unsigned long long>(router_stats.triage_fast),
             static_cast<unsigned long long>(router_stats.triage_full),
             totals.queue_depth, totals.in_flight, totals.completed,
             totals.rejected, totals.cache_hits, totals.cache_misses,
             totals.hit_rate(), rate_total) +
         shards_json + "}";
}

std::string Router::RouterHealthJson() {
  sync::MutexLock lock(&mu_);
  size_t live = ring_.live_count();
  return util::Format(
      "{\"status\":\"%s\",\"role\":\"router\",\"accepting\":%s,"
      "\"shards\":%zu,\"live\":%zu,\"uptime_sec\":%g,\"connections\":%llu}",
      live > 0 ? "ok" : "down", live > 0 ? "true" : "false", shards_.size(),
      live, SteadySeconds() - started_at_sec(),
      static_cast<unsigned long long>(connections_served()));
}

std::string Router::MergedSlowJson() {
  // Concatenate every reachable worker's ring (each already sorted
  // slowest-first); entries stay attributable via their trace ids.
  std::string out = "{\"slow\":[";
  bool first = true;
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::string slow;
    if (!shards_[i]->worker.Admin("slow", options_.probe_timeout_sec, &slow)
             .ok()) {
      continue;
    }
    size_t open = slow.find('[');
    size_t close = slow.rfind(']');
    if (open == std::string::npos || close == std::string::npos ||
        close <= open + 1) {
      continue;  // empty or malformed shard ring
    }
    if (!first) out.push_back(',');
    first = false;
    out += slow.substr(open + 1, close - open - 1);
  }
  out += "]}";
  return out;
}

// ------------------------------------------------------------ lifecycle --

Status Router::RestartShard(size_t shard) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard));
  }
  Shard& s = *shards_[shard];
  {
    sync::MutexLock lock(&mu_);
    ShardHealth& h = health_[shard];
    if (!s.worker.spawned()) {
      return Status::InvalidArgument(
          "shard " + std::to_string(shard) + " (" +
          s.worker.endpoint().ToString() +
          ") is adopted: its lifecycle is managed externally");
    }
    if (h.restarting) {
      return Status::AlreadyExists("shard " + std::to_string(shard) +
                                   " is already restarting");
    }
    h.restarting = true;
    if (h.up) {
      h.up = false;
      ring_.SetUp(shard, false);  // traffic re-routes from here on
    }
  }

  // Drain router-side in-flight forwards to this shard; requests already
  // at the worker finish inside the worker's own Drain() on SIGTERM.
  double deadline = SteadySeconds() + options_.restart_drain_timeout_sec;
  while (s.in_flight.load(std::memory_order_relaxed) > 0 &&
         SteadySeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  Status status = s.worker.Terminate(options_.terminate_grace_sec);
  if (status.ok()) status = s.worker.Launch();
  if (status.ok()) {
    status = s.worker.WaitHealthy(options_.worker_start_timeout_sec);
  }

  sync::MutexLock lock(&mu_);
  ShardHealth& h = health_[shard];
  h.restarting = false;
  h.failures = 0;
  if (status.ok()) {
    h.up = true;
    ring_.SetUp(shard, true);
    ++restarts_;
    VS2_LOG(INFO) << "fleet: shard " << shard << " restarted ("
                  << s.worker.endpoint().ToString() << ")";
  } else {
    VS2_LOG(ERROR) << "fleet: shard " << shard
                   << " restart failed: " << status;
  }
  return status;
}

void Router::HealthLoop() {
  for (;;) {
    ProbeAll();  // checks health_running_ per shard internally
    sync::MutexLock lock(&health_mu_);
    if (!health_running_.load()) return;
    // A spurious or early wakeup just probes one interval sooner; Stop's
    // empty health_mu_ critical section guarantees its notify cannot slip
    // between the check above and this wait.
    health_cv_.WaitFor(&health_mu_, options_.health_interval_sec);
    if (!health_running_.load()) return;
  }
}

void Router::ProbeAll() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!health_running_.load()) return;
    // Endpoint is immutable; the probe dials its own connection, so no
    // lock is held across the round trip.
    std::string health;
    bool answered = shards_[i]
                        ->worker
                        .Admin("health", options_.probe_timeout_sec, &health)
                        .ok();
    ShardSnapshot snapshot = ParseShardSnapshot(health, "");

    sync::MutexLock lock(&mu_);
    ShardHealth& h = health_[i];
    if (answered && snapshot.accepting) {
      h.failures = 0;
      h.queue_fraction = snapshot.queue_fraction();
      if (!h.up && !h.restarting) {
        h.up = true;
        ring_.SetUp(i, true);
        ++markups_;
        VS2_LOG(INFO) << "fleet: shard " << i << " ("
                      << shards_[i]->worker.endpoint().ToString()
                      << ") marked up";
      }
    } else {
      // Unreachable, or reachable-but-draining: either way it must not
      // take new traffic.
      if (++h.failures >= options_.mark_down_after && h.up) {
        h.up = false;
        ring_.SetUp(i, false);
        ++markdowns_;
        VS2_LOG(WARN) << "fleet: shard " << i << " ("
                      << shards_[i]->worker.endpoint().ToString()
                      << ") marked down ("
                      << (answered ? "draining" : "unreachable") << ")";
      }
    }
  }
}

}  // namespace vs2::fleet
