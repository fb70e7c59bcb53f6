#ifndef VS2_FLEET_SNAPSHOT_HPP_
#define VS2_FLEET_SNAPSHOT_HPP_

/// \file snapshot.hpp
/// Fleet-wide telemetry: per-shard snapshots read from the workers'
/// admin wire (`{"cmd":"health"}` + `{"cmd":"stats"}`) with the JSON
/// reader (`util::JsonTape`), and the merged fleet JSON the router serves
/// to `vs2_top`. The shapes read are those of our own serializers
/// (`Daemon::HandleAdmin`, `obs::Metrics::SnapshotJson`, both covered by
/// tests/serve_test.cpp).

#include <cstddef>
#include <string>

namespace vs2::fleet {

/// One worker's point-in-time state as the router aggregates it.
struct ShardSnapshot {
  bool reachable = false;
  bool accepting = false;
  double queue_depth = 0.0;
  double queue_capacity = 0.0;
  double in_flight = 0.0;
  double completed = 0.0;
  double rejected = 0.0;
  double cache_hits = 0.0;    ///< service-local (per shard, not process)
  double cache_misses = 0.0;
  double cache_size = 0.0;
  double uptime_sec = 0.0;
  double p50_ms = 0.0;  ///< cumulative serve.request_latency_ms
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double rate_10s = 0.0;  ///< serve.extract requests/sec over 10s window

  double hit_rate() const {
    double total = cache_hits + cache_misses;
    return total > 0.0 ? cache_hits / total : 0.0;
  }
  /// 0..1 admission-queue pressure; the router's hot-shard shed signal.
  double queue_fraction() const {
    return queue_capacity > 0.0 ? queue_depth / queue_capacity : 0.0;
  }
};

/// Reads one worker's `health` and `stats` admin responses. Either may
/// be empty (probe failed) — `reachable` is true only when `health_json`
/// parsed as a health object. Missing fields read as 0.
ShardSnapshot ParseShardSnapshot(const std::string& health_json,
                                 const std::string& stats_json);

/// Renders one entry of the merged stats `"shards"` array:
/// `{"shard":0,"endpoint":"...","state":"up",...,"p99_ms":...}`.
/// `state` is the router's verdict (`up`/`down`/`restarting`/
/// `unreachable`), which can disagree with `reachable` for a shard that
/// answers probes but is administratively down.
std::string ShardSnapshotJson(size_t shard, const std::string& endpoint,
                              const std::string& state,
                              const ShardSnapshot& snapshot);

}  // namespace vs2::fleet

#endif  // VS2_FLEET_SNAPSHOT_HPP_
