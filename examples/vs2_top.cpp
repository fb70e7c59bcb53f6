/// \file vs2_top.cpp
/// Terminal dashboard for a running `vs2_serve` daemon or `vs2_fleet`
/// router — the operator console of the telemetry plane (DESIGN.md §14,
/// §15). Polls the admin wire commands (`stats`, `health`, `slow`) over
/// one persistent connection and repaints a top(1)-style frame: for a
/// single daemon, throughput, cache hit rate, queue depth, rolling
/// 10s/1m/5m latency percentiles for `serve.extract` and the slowest
/// recent requests; for a fleet router (detected by the `"fleet"` stats
/// envelope), the router counters, fleet totals and a per-shard table
/// with state, queue, hit rate and latency percentiles.
///
/// Usage:
///   vs2_top (--unix PATH | --port N [--host H]) [--interval MS] [--once]
///
/// `--once` prints a single frame without clearing the screen and exits —
/// scripts and CI use it as a non-interactive smoke probe. Exits 1 when
/// the daemon cannot be reached or stops answering.
///
/// The dashboard reads the wire JSON with the codebase's one JSON reader
/// (`util::JsonTape`); every value it renders is produced by our own
/// `SnapshotJson()`/`HandleAdmin` serializers, whose shapes are pinned by
/// tests/serve_test.cpp. A field that is missing renders as 0.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/json.hpp"

using std::string;
using vs2::util::JsonTape;
using vs2::util::JsonValue;

namespace {

volatile std::sig_atomic_t g_quit = 0;
void HandleSignal(int) { g_quit = 1; }

int Connect(const string& unix_path, const string& host, int port) {
  if (!unix_path.empty()) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, unix_path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool ReadLine(int fd, string* buffer, string* line) {
  while (true) {
    size_t nl = buffer->find('\n');
    if (nl != string::npos) {
      *line = buffer->substr(0, nl);
      buffer->erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

/// Issues one admin command, reads one response line.
bool Query(int fd, string* buffer, const string& cmd, string* response) {
  return WriteAll(fd, "{\"cmd\":\"" + cmd + "\"}\n") &&
         ReadLine(fd, buffer, response);
}

// ------------------------------------------------------ JSON reading -----

/// The number at `value`, 0 when absent (the frames print every counter).
double Num(const JsonValue& value) { return value.NumberOr(0.0); }

/// One rolling window of one windowed histogram as rendered by
/// SnapshotJson().
struct Window {
  double rate = 0, p50 = 0, p95 = 0, p99 = 0;
};

Window ParseWindow(const JsonValue& histogram, const char* label) {
  JsonValue window = histogram[label];
  return Window{Num(window["rate_per_sec"]), Num(window["p50"]),
                Num(window["p95"]), Num(window["p99"])};
}

/// "accepting" when the health answer's status is "ok".
bool StatusOk(const JsonValue& health) {
  return health["status"].StringOr("") == "ok";
}

/// The first 12 hex digits of an entry's trace id, or "?".
string TracePrefix(const JsonValue& entry) {
  std::string_view trace = entry["trace_id"].StringOr("");
  return trace.empty() ? "?" : string(trace.substr(0, 12));
}

void PrintFrame(const JsonValue& stats, const JsonValue& health,
                const JsonValue& slow, const string& endpoint) {
  const char* kLabels[3] = {"10s", "1m", "5m"};

  std::printf("vs2_top — %s    uptime %.1fs    connections %.0f    [%s]\n",
              endpoint.c_str(), Num(health["uptime_sec"]),
              Num(health["connections"]),
              StatusOk(health) ? "accepting" : "DRAINING");
  std::printf("queue %2.0f/%-3.0f  in-flight %2.0f  jobs %2.0f  "
              "completed %.0f  rejected %.0f\n\n",
              Num(health["queue_depth"]), Num(health["queue_capacity"]),
              Num(health["in_flight"]), Num(health["jobs"]),
              Num(health["completed"]), Num(health["rejected"]));

  JsonValue extract = stats["windowed_histograms"]["serve.extract"];
  JsonValue counters = stats["windowed_counters"];
  JsonValue hits = counters["serve.cache_hits"];
  JsonValue misses = counters["serve.cache_misses"];

  std::printf("  serve.extract %12s %10s %10s\n", kLabels[0], kLabels[1],
              kLabels[2]);
  Window windows[3];
  for (int w = 0; w < 3; ++w) windows[w] = ParseWindow(extract, kLabels[w]);
  std::printf("  req/s      %12.2f %10.2f %10.2f\n", windows[0].rate,
              windows[1].rate, windows[2].rate);
  std::printf("  p50 ms     %12.2f %10.2f %10.2f\n", windows[0].p50,
              windows[1].p50, windows[2].p50);
  std::printf("  p95 ms     %12.2f %10.2f %10.2f\n", windows[0].p95,
              windows[1].p95, windows[2].p95);
  std::printf("  p99 ms     %12.2f %10.2f %10.2f\n", windows[0].p99,
              windows[1].p99, windows[2].p99);
  std::printf("  hit rate   ");
  for (int w = 0; w < 3; ++w) {
    double hit = Num(hits[kLabels[w]]["count"]);
    double miss = Num(misses[kLabels[w]]["count"]);
    double total = hit + miss;
    if (total > 0) {
      std::printf(w == 0 ? "%12.2f " : "%9.2f ", hit / total);
    } else {
      std::printf(w == 0 ? "%12s " : "%9s ", "-");
    }
  }
  std::printf("\n\nslowest requests:\n");

  // `slow` is already sorted slowest-first; show the top entries with a
  // compact stage breakdown.
  int shown = 0;
  for (JsonValue entry : slow["slow"]) {
    if (shown == 5) break;
    std::string_view status = entry["status"].StringOr("?");
    std::printf("  %s…  %8.2f ms  %-18s ", TracePrefix(entry).c_str(),
                Num(entry["total_ms"]), string(status).c_str());
    bool first = true;
    for (JsonValue stage : entry["stages"]) {
      if (!stage["name"].is_string()) continue;
      std::printf("%s%s %.1f", first ? "" : ", ",
                  string(stage["name"].string()).c_str(), Num(stage["ms"]));
      first = false;
    }
    std::printf("\n");
    ++shown;
  }
  if (shown == 0) std::printf("  (none recorded)\n");
}

/// Renders the fleet router's merged stats (`{"fleet":...,"shards":[...]}`
/// from `fleet::Router::MergedStatsJson`) as a per-shard table. Percentiles
/// stay per-shard — they cannot be merged across histograms — while the
/// counter totals fold.
void PrintFleetFrame(const JsonValue& stats, const JsonValue& health,
                     const JsonValue& slow, const string& endpoint) {
  JsonValue fleet = stats["fleet"];
  std::printf(
      "vs2_top — fleet %s    uptime %.1fs    shards %.0f/%.0f live    "
      "connections %.0f    [%s]\n",
      endpoint.c_str(), Num(fleet["uptime_sec"]), Num(fleet["live"]),
      Num(fleet["shards"]), Num(fleet["connections"]),
      StatusOk(health) ? "accepting" : "DOWN");
  JsonValue router = fleet["router"];
  std::printf(
      "router: forwarded %.0f  rerouted %.0f  shed %.0f  unavailable %.0f  "
      "markdowns %.0f  restarts %.0f\n",
      Num(router["forwarded"]), Num(router["rerouted"]),
      Num(router["shed_to_sibling"]), Num(router["unavailable"]),
      Num(router["markdowns"]), Num(router["restarts"]));
  if (JsonValue triage = router["triage"]; triage.is_object()) {
    double skip = Num(triage["skip"]);
    double fast = Num(triage["fast"]);
    double full = Num(triage["full"]);
    double total = skip + fast + full;
    std::printf(
        "triage: skip %.0f  fast %.0f  full %.0f  (%.0f%% off the full "
        "path)\n",
        skip, fast, full,
        total > 0 ? 100.0 * (skip + fast) / total : 0.0);
  }
  JsonValue totals = fleet["totals"];
  std::printf(
      "fleet:  %.1f req/s (10s)  hit rate %.2f  queue %.0f  in-flight %.0f  "
      "completed %.0f  rejected %.0f\n\n",
      Num(totals["req_per_sec_10s"]), Num(totals["hit_rate"]),
      Num(totals["queue_depth"]), Num(totals["in_flight"]),
      Num(totals["completed"]), Num(totals["rejected"]));

  std::printf(
      "  shard  state        queue  infl  req/s   hit    p50ms    p95ms    "
      "p99ms  endpoint\n");
  int shown = 0;
  for (JsonValue shard : stats["shards"]) {
    std::printf(
        "  %5.0f  %-11s %6.0f %5.0f %6.1f  %4.2f %8.2f %8.2f %8.2f  %s\n",
        Num(shard["shard"]), string(shard["state"].StringOr("?")).c_str(),
        Num(shard["queue_depth"]), Num(shard["in_flight"]),
        Num(shard["req_per_sec_10s"]), Num(shard["hit_rate"]),
        Num(shard["p50_ms"]), Num(shard["p95_ms"]), Num(shard["p99_ms"]),
        string(shard["endpoint"].StringOr("?")).c_str());
    ++shown;
  }
  if (shown == 0) std::printf("  (no shards reported)\n");

  std::printf("\nslowest requests (all shards):\n");
  int slow_shown = 0;
  for (JsonValue entry : slow["slow"]) {
    if (slow_shown == 5) break;
    std::printf("  %s…  %8.2f ms\n", TracePrefix(entry).c_str(),
                Num(entry["total_ms"]));
    ++slow_shown;
  }
  if (slow_shown == 0) std::printf("  (none recorded)\n");
}

}  // namespace

int main(int argc, char** argv) {
  string unix_path;
  string host = "127.0.0.1";
  int port = -1;
  int interval_ms = 1000;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--unix") == 0 && i + 1 < argc) {
      unix_path = argv[++i];
    } else if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      host = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_ms = std::atoi(argv[++i]);
      if (interval_ms < 100) interval_ms = 100;
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::fprintf(stderr,
                   "usage: vs2_top (--unix PATH | --port N [--host H]) "
                   "[--interval MS] [--once]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s (see --help)\n", argv[i]);
      return 2;
    }
  }
  if (unix_path.empty() && port < 0) {
    std::fprintf(stderr, "need --unix PATH or --port N (see --help)\n");
    return 2;
  }
  string endpoint =
      unix_path.empty() ? host + ":" + std::to_string(port) : unix_path;

  int fd = Connect(unix_path, host, port);
  if (fd < 0) {
    std::fprintf(stderr, "vs2_top: cannot connect to %s\n", endpoint.c_str());
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  string buffer, stats, health, slow;
  JsonTape stats_tape, health_tape, slow_tape;
  while (g_quit == 0) {
    if (!Query(fd, &buffer, "stats", &stats) ||
        !Query(fd, &buffer, "health", &health) ||
        !Query(fd, &buffer, "slow", &slow)) {
      std::fprintf(stderr, "vs2_top: %s stopped answering\n",
                   endpoint.c_str());
      ::close(fd);
      return 1;
    }
    if (!once) std::printf("\x1b[H\x1b[2J");  // home + clear
    // A failed parse leaves a tape absent: that frame prints zeros.
    (void)stats_tape.Parse(stats);
    (void)health_tape.Parse(health);
    (void)slow_tape.Parse(slow);
    // A fleet router's merged stats announce themselves with a "fleet"
    // envelope; a single daemon gets the classic frame.
    if (stats_tape.root()["fleet"].present()) {
      PrintFleetFrame(stats_tape.root(), health_tape.root(), slow_tape.root(),
                      endpoint);
    } else {
      PrintFrame(stats_tape.root(), health_tape.root(), slow_tape.root(),
                 endpoint);
    }
    std::fflush(stdout);
    if (once) break;
    ::usleep(interval_ms * 1000);
  }
  ::close(fd);
  return 0;
}
