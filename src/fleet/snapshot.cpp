#include "fleet/snapshot.hpp"

#include "util/json.hpp"
#include "util/strings.hpp"

namespace vs2::fleet {

ShardSnapshot ParseShardSnapshot(const std::string& health_json,
                                 const std::string& stats_json) {
  ShardSnapshot snapshot;
  util::JsonTape tape;
  if (!tape.Parse(health_json).ok()) return snapshot;
  util::JsonValue health = tape.root();
  if (!health["status"].present()) return snapshot;
  snapshot.reachable = true;
  snapshot.accepting =
      health["accepting"].is_bool() && health["accepting"].boolean();
  snapshot.queue_depth = health["queue_depth"].NumberOr(0.0);
  snapshot.queue_capacity = health["queue_capacity"].NumberOr(0.0);
  snapshot.in_flight = health["in_flight"].NumberOr(0.0);
  snapshot.completed = health["completed"].NumberOr(0.0);
  snapshot.rejected = health["rejected"].NumberOr(0.0);
  snapshot.cache_hits = health["cache_hits"].NumberOr(0.0);
  snapshot.cache_misses = health["cache_misses"].NumberOr(0.0);
  snapshot.cache_size = health["cache_size"].NumberOr(0.0);
  snapshot.uptime_sec = health["uptime_sec"].NumberOr(0.0);

  if (!stats_json.empty() && tape.Parse(stats_json).ok()) {
    util::JsonValue stats = tape.root();
    util::JsonValue latency =
        stats["histograms"]["serve.request_latency_ms"];
    snapshot.p50_ms = latency["p50"].NumberOr(0.0);
    snapshot.p95_ms = latency["p95"].NumberOr(0.0);
    snapshot.p99_ms = latency["p99"].NumberOr(0.0);
    snapshot.rate_10s =
        stats["windowed_histograms"]["serve.extract"]["10s"]["rate_per_sec"]
            .NumberOr(0.0);
  }
  return snapshot;
}

std::string ShardSnapshotJson(size_t shard, const std::string& endpoint,
                              const std::string& state,
                              const ShardSnapshot& s) {
  return util::Format(
      "{\"shard\":%zu,\"endpoint\":\"%s\",\"state\":\"%s\","
      "\"reachable\":%s,\"queue_depth\":%g,\"queue_capacity\":%g,"
      "\"in_flight\":%g,\"completed\":%g,\"rejected\":%g,"
      "\"cache_hits\":%g,\"cache_misses\":%g,\"cache_size\":%g,"
      "\"hit_rate\":%.4f,\"req_per_sec_10s\":%g,\"p50_ms\":%g,"
      "\"p95_ms\":%g,\"p99_ms\":%g,\"uptime_sec\":%g}",
      shard, endpoint.c_str(), state.c_str(),
      s.reachable ? "true" : "false", s.queue_depth, s.queue_capacity,
      s.in_flight, s.completed, s.rejected, s.cache_hits, s.cache_misses,
      s.cache_size, s.hit_rate(), s.rate_10s, s.p50_ms, s.p95_ms, s.p99_ms,
      s.uptime_sec);
}

}  // namespace vs2::fleet
