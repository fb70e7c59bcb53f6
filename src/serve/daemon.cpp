#include "serve/daemon.hpp"

#include <chrono>

#include "doc/serialization.hpp"
#include "obs/metrics.hpp"
#include "obs/slowlog.hpp"
#include "serve/wire.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace vs2::serve {
namespace {

/// `%g` rendering for wire milliseconds, matching the metrics snapshot.
std::string Ms(double v) { return util::Format("%g", v); }

/// Renders a stage breakdown as `[{"name":"vs2.segment","ms":1.2},...]`.
/// Stage names are span-name literals — JSON-safe by construction.
std::string StagesJson(const std::vector<obs::StageRecorder::Stage>& stages) {
  std::string out = "[";
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += util::Format("{\"name\":\"%s\",\"ms\":%s}", stages[i].name,
                        Ms(stages[i].ms).c_str());
  }
  out.push_back(']');
  return out;
}

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Daemon::Daemon(ExtractionService& service, DaemonOptions options)
    : LineServer(std::move(options)), service_(service) {}

std::unique_ptr<LineServer::ConnectionHandler> Daemon::NewConnection() {
  // The daemon's per-line handling is stateless across lines; every
  // connection shares the service through the daemon itself and keeps
  // only a reused parse tape of its own.
  class Handler : public ConnectionHandler {
   public:
    explicit Handler(Daemon* daemon) : daemon_(daemon) {}
    std::string HandleLine(const std::string& line) override {
      return daemon_->HandleLine(line, &tape_);
    }

   private:
    Daemon* daemon_;
    util::JsonTape tape_;
  };
  return std::make_unique<Handler>(this);
}

std::string Daemon::OversizedLineResponse(size_t max_line_bytes) {
  return doc::ErrorToJson(
      "<request>",
      Status::InvalidArgument(util::Format(
          "request line exceeds %zu bytes without newline", max_line_bytes)));
}

std::string Daemon::HandleLine(const std::string& line) {
  util::JsonTape tape;
  return HandleLine(line, &tape);
}

std::string Daemon::HandleLine(const std::string& line,
                               util::JsonTape* tape) {
  std::string_view canonical, trace_hex;
  if (SplitCanonicalLine(line, &canonical, &trace_hex)) {
    return HandleCanonical(canonical, trace_hex);
  }
  Status parsed = tape->Parse(line);
  std::string response =
      parsed.ok() ? HandleParsed(tape->root())
                  : doc::ErrorToJson("<request>",
                                     Status::InvalidArgument(
                                         "bad document JSON: " +
                                         parsed.ToString()));
  tape->Shrink();
  return response;
}

std::string Daemon::HandleAdmin(std::string_view cmd) {
  if (cmd == "stats") {
    // The full instrument snapshot; the windowed sections carry the
    // 10s/1m/5m `serve.extract` views the fleet console polls.
    return obs::Metrics::SnapshotJson();
  }
  if (cmd == "health") {
    ExtractionService::Stats stats = service_.stats();
    // The cache fields are service-local (not the process-wide obs
    // counters): the fleet router reads per-shard hit rates from here, and
    // in-process multi-worker tests must see each shard's own cache.
    return util::Format(
        "{\"status\":\"%s\",\"accepting\":%s,\"queue_depth\":%zu,"
        "\"in_flight\":%zu,\"queue_capacity\":%zu,\"jobs\":%zu,"
        "\"completed\":%llu,\"rejected\":%llu,\"cache_hits\":%llu,"
        "\"cache_misses\":%llu,\"cache_size\":%zu,\"uptime_sec\":%s,"
        "\"connections\":%llu}",
        stats.accepting ? "ok" : "draining", stats.accepting ? "true" : "false",
        stats.queue_depth, stats.in_flight, service_.options().queue_capacity,
        service_.jobs(), static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.rejected),
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.cache_misses), stats.cache_size,
        Ms(SteadySeconds() - started_at_sec()).c_str(),
        static_cast<unsigned long long>(connections_served()));
  }
  if (cmd == "slow") {
    std::string out = "{\"slow\":[";
    bool first = true;
    for (const obs::SlowLog::Entry& entry : obs::SlowLog::Global().Snapshot()) {
      if (!first) out.push_back(',');
      first = false;
      out += util::Format(
          "{\"trace_id\":\"%s\",\"total_ms\":%s,\"status\":\"%s\","
          "\"seq\":%llu,\"stages\":%s}",
          entry.trace.ToHex().c_str(), Ms(entry.total_ms).c_str(),
          entry.status.c_str(), static_cast<unsigned long long>(entry.seq),
          StagesJson(entry.stages).c_str());
    }
    out += "]}";
    return out;
  }
  return doc::ErrorToJson(
      "<admin>",
      Status::InvalidArgument("unknown cmd \"" + std::string(cmd) +
                              "\": expected stats, health or slow"));
}

std::string Daemon::HandleParsed(const util::JsonValue& root) {
  if (util::JsonValue cmd = root["cmd"]; cmd.present()) {
    if (!cmd.is_string()) {
      return doc::ErrorToJson(
          "<admin>", Status::InvalidArgument(
                         "\"cmd\" must be a string: stats, health or slow"));
    }
    return HandleAdmin(cmd.string());
  }
  // A client-supplied trace id opts the response into the telemetry echo;
  // lines without one keep the pre-telemetry response bytes.
  RequestOptions request_options;
  util::JsonValue trace = root["trace_id"];
  if (trace.present()) {
    std::string_view hex = trace.StringOr("");
    Status status = ParseTraceId(hex, &request_options.trace);
    if (!status.ok()) return doc::ErrorToJson("<request>", status);
  }
  Result<doc::Document> document = doc::FromJsonValue(root);
  if (!document.ok()) {
    return doc::ErrorToJson(
        "<request>", Status::InvalidArgument("bad document JSON: " +
                                             document.status().ToString()));
  }
  RequestTelemetry telemetry;
  ExtractionService::Response response =
      service_
          .Submit(*std::move(document), request_options,
                  trace.present() ? &telemetry : nullptr)
          .get();
  return Render(response, trace.present(), telemetry);
}

std::string Daemon::HandleCanonical(std::string_view canonical,
                                    std::string_view trace_hex) {
  RequestOptions request_options;
  const bool traced = !trace_hex.empty();
  if (traced) {
    Status status = ParseTraceId(trace_hex, &request_options.trace);
    if (!status.ok()) return doc::ErrorToJson("<request>", status);
  }
  RequestTelemetry telemetry;
  ExtractionService::Response response =
      service_
          .SubmitCanonical(std::string(canonical), request_options,
                           traced ? &telemetry : nullptr)
          .get();
  return Render(response, traced, telemetry);
}

std::string Daemon::Render(const ExtractionService::Response& response,
                           bool traced, const RequestTelemetry& telemetry) {
  std::string payload = response.ok()
                            ? doc::ExtractionsToJson(*response)
                            : doc::ErrorToJson("<request>", response.status());
  // Lane echo (DESIGN.md §16): only when the pipeline triages, so a daemon
  // without triage keeps its pre-triage response bytes.
  if (response.ok() && service_.pipeline().config().triage.mode !=
                           triage::TriageMode::kOff) {
    payload = util::Format("{\"lane\":\"%s\",",
                           triage::LaneName((*response).triage.lane)) +
              payload.substr(1);
  }
  if (!traced) return payload;
  // Prefix the echo fields inside the existing object: both payload forms
  // are non-empty objects, so the trailing comma is always valid.
  return util::Format("{\"trace_id\":\"%s\",\"total_ms\":%s,\"stages\":%s,",
                      telemetry.trace.ToHex().c_str(),
                      Ms(telemetry.total_ms).c_str(),
                      StagesJson(telemetry.stages).c_str()) +
         payload.substr(1);
}

}  // namespace vs2::serve
