#include "serve/wire.hpp"

namespace vs2::serve {
namespace {

constexpr std::string_view kPlainHead = "{\"canonical\":";
constexpr std::string_view kTracedHead = "{\"trace_id\":\"";
constexpr std::string_view kTracedMark = "\",\"canonical\":";
constexpr size_t kTraceHexDigits = 32;

}  // namespace

void AppendCanonicalLineHead(std::string_view trace_hex, std::string* line) {
  if (trace_hex.empty()) {
    line->append(kPlainHead);
    return;
  }
  line->append(kTracedHead);
  line->append(trace_hex);
  line->append(kTracedMark);
}

bool SplitCanonicalLine(std::string_view line, std::string_view* canonical,
                        std::string_view* trace_hex) {
  if (line.empty() || line.back() != '}') return false;
  size_t head;
  if (line.starts_with(kPlainHead)) {
    *trace_hex = {};
    head = kPlainHead.size();
  } else if (line.starts_with(kTracedHead) &&
             line.size() > kTracedHead.size() + kTraceHexDigits &&
             line.substr(kTracedHead.size() + kTraceHexDigits)
                 .starts_with(kTracedMark)) {
    *trace_hex = line.substr(kTracedHead.size(), kTraceHexDigits);
    head = kTracedHead.size() + kTraceHexDigits + kTracedMark.size();
  } else {
    return false;
  }
  if (line.size() < head + 1) return false;
  *canonical = line.substr(head, line.size() - head - 1);
  return true;
}

Status ParseTraceId(std::string_view hex, obs::TraceContext* trace) {
  *trace = obs::TraceContext::FromHex(std::string(hex));
  if (trace->valid()) return Status::OK();
  return Status::InvalidArgument("bad trace_id \"" + std::string(hex) +
                                 "\": expected 32 hex digits, not all zero");
}

bool IsUnavailableResponse(const std::string& line) {
  return line.rfind("{\"error\":\"Unavailable", 0) == 0;
}

}  // namespace vs2::serve
