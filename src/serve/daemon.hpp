#ifndef VS2_SERVE_DAEMON_HPP_
#define VS2_SERVE_DAEMON_HPP_

/// \file daemon.hpp
/// Dependency-free POSIX-socket front-end for `ExtractionService`: the
/// process boundary of the serving stack. Listens on a Unix-domain socket
/// or a loopback TCP port and speaks newline-delimited JSON — one document
/// per request line (the `doc/serialization.hpp` schema), one response line
/// per request:
///
///   request:  {"id":7,"dataset":2,"width":560,...,"elements":[...]}
///   response: {"extractions":[...],"blocks":N,"interest_points":M}
///   error:    {"error":"InvalidArgument: ...","source":"<request>"}
///
/// A request line carrying a top-level `"trace_id"` (32 hex digits) runs
/// under that trace context and its response line is prefixed with the
/// echo fields `"trace_id"`, `"total_ms"` and `"stages"` (per-stage timing
/// breakdown). Lines without `trace_id` get byte-identical responses to
/// the pre-telemetry protocol.
///
/// A *canonical line* (`{"canonical":<doc>}`, optionally led by a
/// `"trace_id"` — the layout is in serve/wire.hpp) is what the fleet router
/// forwards: the document's canonical bytes, which the service hashes and
/// looks up without parsing; it decodes them only on a miss, and rejects
/// bytes that do not re-spell to themselves. Its responses are those of
/// the plain document line. A marked line counts a cache lookup like any
/// other request, so one that is then rejected counts as a miss. Outside
/// that exact layout a `"canonical"` key is ignored, as any unknown key.
///
/// Admin lines carry a top-level `"cmd"` instead of a document:
///
///   {"cmd":"stats"}   -> the obs::Metrics snapshot (rolling windows incl.)
///   {"cmd":"health"}  -> accepting/queue/in-flight/cache/uptime summary
///   {"cmd":"slow"}    -> K slowest recent requests with stage breakdowns
///
/// Unknown `cmd` values are rejected with a structured error line, never
/// parsed as documents. Wire schema details: DESIGN.md §14.
///
/// Responses on one connection come back in request order. Each connection
/// is served by its own thread; concurrency, backpressure, deadlines and
/// caching all live in the wrapped `ExtractionService` — an overloaded
/// service turns into `{"error":"Unavailable: ..."}` lines, not into
/// unbounded daemon-side buffering. The socket mechanics (accept loop,
/// framing, oversized-line guard, shutdown) are inherited from
/// `LineServer`, the same base the fleet `Router` builds on (DESIGN.md
/// §15). `vs2_serve` (examples/) is the CLI host; `tests/serve_test.cpp`
/// drives a loopback round-trip.

#include <string>

#include "serve/line_server.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace vs2::serve {

/// Listener configuration (see `LineServerOptions` for the fields:
/// Unix-path/TCP-port, accept backlog, `SO_REUSEADDR`, max line bytes).
using DaemonOptions = LineServerOptions;

/// \brief Accept-loop + per-connection line protocol around a service.
///
/// `Start` binds and spawns the accept thread; `Stop` (or the destructor)
/// shuts the listener and every open connection down and joins all
/// threads. The wrapped service is *not* drained by `Stop` — the host
/// decides when to `Drain()` (see `vs2_serve`'s shutdown sequence).
class Daemon : public LineServer {
 public:
  Daemon(ExtractionService& service, DaemonOptions options);

  /// One request line in, one response line out (no trailing newline).
  /// Exposed for tests; connection handlers call the overload that reuses
  /// their own tape.
  std::string HandleLine(const std::string& line);

 protected:
  std::unique_ptr<ConnectionHandler> NewConnection() override;
  std::string OversizedLineResponse(size_t max_line_bytes) override;

 private:
  std::string HandleLine(const std::string& line, util::JsonTape* tape);
  /// Dispatches one `{"cmd":...}` admin line.
  std::string HandleAdmin(std::string_view cmd);
  /// Runs one parsed request line: an admin command or a document
  /// (optionally under a wire trace id).
  std::string HandleParsed(const util::JsonValue& root);
  /// Runs one canonical line's document bytes.
  std::string HandleCanonical(std::string_view canonical,
                              std::string_view trace_hex);
  /// Renders a finished request's response line, with the lane echo and,
  /// when `traced`, the trace echo.
  std::string Render(const ExtractionService::Response& response, bool traced,
                     const RequestTelemetry& telemetry);

  ExtractionService& service_;
};

}  // namespace vs2::serve

#endif  // VS2_SERVE_DAEMON_HPP_
