#ifndef VS2_SERVE_WIRE_HPP_
#define VS2_SERVE_WIRE_HPP_

/// \file wire.hpp
/// Envelope-level helpers for the newline-JSON wire protocol, shared by
/// the worker daemon and the fleet router. The protocol multiplexes four
/// line kinds on one connection — documents, `{"cmd":...}` admin lines,
/// documents carrying a `"trace_id"` echo opt-in, and *canonical* lines.
/// Both ends read a line's envelope keys from the same parse
/// (`util::JsonTape`) that decodes its document. Wire schema details:
/// DESIGN.md §14 (telemetry) and §15 (fleet).
///
/// A canonical line carries a document in its canonical spelling
/// (`doc::ToJson`) under a mark, in exactly this layout:
///
///   {"canonical":<canonical document>}
///   {"trace_id":"<32 hex digits>","canonical":<canonical document>}
///
/// The router sends it: it has already parsed and spelled the document to
/// route it, and the worker can then hash those bytes and serve a cache
/// hit without parsing the line at all. The mark is a claim, not a trust
/// boundary: a hit is verified by byte comparison with a key the worker
/// spelled itself, and on a miss the bytes must re-spell to themselves.

#include <string>
#include <string_view>

#include "obs/trace.hpp"
#include "util/status.hpp"

namespace vs2::serve {

/// The top-level key that marks a canonical line.
inline constexpr std::string_view kCanonicalKey = "canonical";

/// Appends the head of a canonical line to `line` — `{"canonical":`, or
/// the `trace_id` form when `trace_hex` is non-empty. The canonical
/// document follows, then `}`.
void AppendCanonicalLineHead(std::string_view trace_hex, std::string* line);

/// Splits a line in the exact canonical-line layout into the document's
/// bytes and the trace id (empty when none); false for any other line.
bool SplitCanonicalLine(std::string_view line, std::string_view* canonical,
                        std::string_view* trace_hex);

/// Reads a wire `"trace_id"` (32 hex digits, not all zero) into `*trace`;
/// `kInvalidArgument` naming the value otherwise. The daemon and the
/// router, which checks it before carrying it on a canonical line, share
/// this check and its message.
Status ParseTraceId(std::string_view hex, obs::TraceContext* trace);

/// True when `line` is an `{"error":"Unavailable: ...` response — the
/// wire spelling of `kUnavailable` (`doc::ErrorToJson`). The router's
/// load-shedding tiers branch on this to tell an overloaded shard
/// (shed-to-sibling) from a served request.
bool IsUnavailableResponse(const std::string& line);

}  // namespace vs2::serve

#endif  // VS2_SERVE_WIRE_HPP_
