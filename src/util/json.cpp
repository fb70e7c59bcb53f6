#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace vs2::util {
namespace {

/// Tape storage kept across parses; a D1 form needs about 4k nodes.
constexpr size_t kRetainedNodes = size_t{1} << 16;
constexpr size_t kRetainedBytes = size_t{1} << 20;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// RFC 8259 §2: space, tab, line feed and carriage return only.
const char* SkipWs(const char* p, const char* end) {
  while (p < end && static_cast<unsigned char>(*p) <= ' ' &&
         (*p == ' ' || *p == '\n' || *p == '\r' || *p == '\t')) {
    ++p;
  }
  return p;
}

/// Length of the well-formed UTF-8 sequence at `p` (lead byte >= 0x80), or
/// 0: correct continuation bytes, no overlong encodings, no encoded
/// surrogates, nothing past U+10FFFF. The pipeline treats text as bytes, so
/// a permissive reader here would let ill-formed bytes reach its output.
size_t Utf8SequenceLength(const char* p, const char* end) {
  unsigned char b = static_cast<unsigned char>(*p);
  size_t len;
  unsigned min_code;
  unsigned code;
  if ((b & 0xE0) == 0xC0) {
    len = 2; min_code = 0x80; code = b & 0x1Fu;
  } else if ((b & 0xF0) == 0xE0) {
    len = 3; min_code = 0x800; code = b & 0x0Fu;
  } else if ((b & 0xF8) == 0xF0) {
    len = 4; min_code = 0x10000; code = b & 0x07u;
  } else {
    return 0;  // continuation byte or 0xF8+ lead
  }
  if (static_cast<size_t>(end - p) < len) return 0;
  for (size_t k = 1; k < len; ++k) {
    unsigned char cont = static_cast<unsigned char>(p[k]);
    if ((cont & 0xC0) != 0x80) return 0;
    code = (code << 6) | (cont & 0x3Fu);
  }
  if (code < min_code) return 0;                   // overlong
  if (code >= 0xD800 && code <= 0xDFFF) return 0;  // surrogate
  if (code > 0x10FFFF) return 0;
  return len;
}

/// Reads the four hex digits of a `\u` escape at `*p` into `*code`;
/// returns an error message, or nullptr.
const char* ParseHex4(const char** p, const char* end, unsigned* code) {
  if (end - *p < 4) return "truncated \\u escape";
  *code = 0;
  for (int k = 0; k < 4; ++k) {
    char h = *(*p)++;
    *code <<= 4;
    if (h >= '0' && h <= '9') *code |= static_cast<unsigned>(h - '0');
    else if (h >= 'a' && h <= 'f') *code |= static_cast<unsigned>(h - 'a' + 10);
    else if (h >= 'A' && h <= 'F') *code |= static_cast<unsigned>(h - 'A' + 10);
    else return "bad \\u escape digit";
  }
  return nullptr;
}

void AppendUtf8(unsigned code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

/// Decodes one escape (the backslash already consumed) onto `out`;
/// returns an error message, or nullptr.
const char* DecodeEscape(const char** p, const char* end, std::string* out) {
  if (*p >= end) return "unterminated string";
  switch (*(*p)++) {
    case '"': out->push_back('"'); return nullptr;
    case '\\': out->push_back('\\'); return nullptr;
    case '/': out->push_back('/'); return nullptr;
    case 'n': out->push_back('\n'); return nullptr;
    case 't': out->push_back('\t'); return nullptr;
    case 'r': out->push_back('\r'); return nullptr;
    case 'b': out->push_back('\b'); return nullptr;
    case 'f': out->push_back('\f'); return nullptr;
    case 'u': break;
    default: return "unknown escape sequence";
  }
  unsigned code;
  if (const char* error = ParseHex4(p, end, &code)) return error;
  if (code >= 0xDC00 && code <= 0xDFFF) {
    return "lone low surrogate in \\u escape";
  }
  if (code >= 0xD800 && code <= 0xDBFF) {
    // A high surrogate must be followed by a \u low surrogate; the pair
    // decodes to one supplementary-plane code point (RFC 8259 §7).
    if (end - *p < 2 || (*p)[0] != '\\' || (*p)[1] != 'u') {
      return "high surrogate not followed by \\u escape";
    }
    *p += 2;
    unsigned low;
    if (const char* error = ParseHex4(p, end, &low)) return error;
    if (low < 0xDC00 || low > 0xDFFF) {
      return "high surrogate not followed by low surrogate";
    }
    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  }
  AppendUtf8(code, out);
  return nullptr;
}

}  // namespace

JsonValue JsonValue::operator[](std::string_view key) const {
  if (!is_object()) return JsonValue();
  for (Iterator it = begin(), stop = end(); it != stop; ++it) {
    if (it.key() == key) return *it;
  }
  return JsonValue();
}

void JsonTape::Shrink() {
  if (nodes_.capacity() > kRetainedNodes) std::vector<Node>().swap(nodes_);
  if (decoded_.capacity() > kRetainedBytes) std::string().swap(decoded_);
  if (keys_.capacity() > kRetainedNodes) {
    std::vector<std::string_view>().swap(keys_);
  }
}

const char* JsonTape::ParseString(const char*& p, const char* end) {
  ++p;  // past the opening quote
  const char* const start = p;
  // Common case: no escapes, so the string is a view into the text.
  while (p < end) {
    unsigned char c = static_cast<unsigned char>(*p);
    if (c == '"') {
      Node node{JsonType::kString, false,
                static_cast<uint32_t>(p - start), {}};
      node.offset = static_cast<uint32_t>(start - text_.data());
      nodes_.push_back(node);
      ++p;
      return nullptr;
    }
    if (c == '\\') break;
    if (c < 0x20) {
      // RFC 8259 §7: control characters must be escaped.
      return "raw control character in string (must be escaped)";
    }
    if (c < 0x80) {
      ++p;
      continue;
    }
    size_t len = Utf8SequenceLength(p, end);
    if (len == 0) return "string is not valid UTF-8";
    p += len;
  }
  // Escaped: decode the whole string into the side buffer.
  const size_t offset = decoded_.size();
  decoded_.append(start, p);
  while (p < end) {
    unsigned char c = static_cast<unsigned char>(*p);
    if (c == '"') {
      Node node{JsonType::kString, true,
                static_cast<uint32_t>(decoded_.size() - offset), {}};
      node.offset = static_cast<uint32_t>(offset);
      nodes_.push_back(node);
      ++p;
      return nullptr;
    }
    if (c == '\\') {
      ++p;
      if (const char* error = DecodeEscape(&p, end, &decoded_)) return error;
      continue;
    }
    if (c < 0x20) {
      return "raw control character in string (must be escaped)";
    }
    if (c < 0x80) {
      decoded_.push_back(static_cast<char>(c));
      ++p;
      continue;
    }
    size_t len = Utf8SequenceLength(p, end);
    if (len == 0) return "string is not valid UTF-8";
    decoded_.append(p, len);
    p += len;
  }
  return "unterminated string";
}

const char* JsonTape::ParseNumber(const char*& p, const char* end) {
  // RFC 8259 §6: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  // The grammar is checked here; from_chars alone would take "0612".
  const char* const start = p;
  if (p < end && *p == '-') ++p;
  if (p == end || !IsDigit(*p)) {
    return p == start ? "expected number" : "malformed number";
  }
  if (*p == '0') {
    ++p;  // a leading zero stands alone: "0612" ends after the "0"
  } else {
    while (p < end && IsDigit(*p)) ++p;
  }
  if (p < end && *p == '.') {
    ++p;
    if (p == end || !IsDigit(*p)) return "malformed number";
    while (p < end && IsDigit(*p)) ++p;
  }
  if (p < end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p < end && (*p == '+' || *p == '-')) ++p;
    if (p == end || !IsDigit(*p)) return "malformed number";
    while (p < end && IsDigit(*p)) ++p;
  }

  double value;
  std::from_chars_result read = std::from_chars(start, p, value);
  if (read.ec == std::errc::result_out_of_range) {
    // from_chars reports underflow and overflow alike; strtod tells them
    // apart. Underflow is a value (signed zero) the writer can produce;
    // overflow becomes ±inf and is rejected below.
    value = std::strtod(std::string(start, p).c_str(), nullptr);
  } else if (read.ec != std::errc() || read.ptr != p) {
    return "malformed number";
  }
  // No document field is meaningful as ±Inf; overflow (e.g. "1e999") would
  // poison every downstream geometry computation.
  if (!std::isfinite(value)) {
    return "non-finite number";
  }
  Node node{JsonType::kNumber, false, 0, {}};
  node.number = value;
  nodes_.push_back(node);
  return nullptr;
}

const char* JsonTape::CheckDuplicateKeys(uint32_t object) {
  const uint32_t end = nodes_[object].end;
  keys_.clear();
  for (uint32_t k = object + 1; k < end; k = Next(k + 1)) {
    keys_.push_back(StringAt(k));
  }
  std::sort(keys_.begin(), keys_.end());
  auto dup = std::adjacent_find(keys_.begin(), keys_.end());
  return dup == keys_.end() ? nullptr : DuplicateKey(*dup);
}

const char* JsonTape::DuplicateKey(std::string_view key) {
  error_ = "duplicate key \"" + std::string(key) + "\" in object";
  return error_.c_str();
}

const char* JsonTape::ParseValue(const char*& p, const char* end,
                                 int depth) {
  if (depth > kMaxJsonDepth) return "JSON nesting too deep";
  p = SkipWs(p, end);
  if (p == end) return "unexpected end of JSON";
  switch (*p) {
    case '{':
      return ParseContainer(p, end, depth, JsonType::kObject);
    case '[':
      return ParseContainer(p, end, depth, JsonType::kArray);
    case '"':
      return ParseString(p, end);
    case 't':
    case 'f':
    case 'n': {
      std::string_view rest(p, static_cast<size_t>(end - p));
      JsonType type;
      if (rest.starts_with("true")) {
        type = JsonType::kTrue;
      } else if (rest.starts_with("false")) {
        type = JsonType::kFalse;
      } else if (rest.starts_with("null")) {
        type = JsonType::kNull;
      } else {
        return "bad literal";
      }
      p += type == JsonType::kFalse ? 5 : 4;
      nodes_.push_back(Node{type, false, 0, {}});
      return nullptr;
    }
    default:
      return ParseNumber(p, end);
  }
}

const char* JsonTape::ParseContainer(const char*& p, const char* end,
                                     int depth, JsonType type) {
  const bool object = type == JsonType::kObject;
  const char close = object ? '}' : ']';
  const auto index = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(Node{type, false, 0, {}});
  uint32_t count = 0;
  p = SkipWs(p + 1, end);
  if (p < end && *p == close) {
    ++p;
  } else {
    for (;;) {
      if (object) {
        p = SkipWs(p, end);
        if (p == end || *p != '"') return "expected '\"'";
        if (const char* error = ParseString(p, end)) return error;
        p = SkipWs(p, end);
        if (p == end || *p != ':') return "expected ':'";
        ++p;
      }
      if (const char* error = ParseValue(p, end, depth + 1)) return error;
      ++count;
      p = SkipWs(p, end);
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == close) {
        ++p;
        break;
      }
      return object ? "expected ',' or '}' in object"
                     : "expected ',' or ']' in array";
    }
  }
  nodes_[index].length = count;
  nodes_[index].end = static_cast<uint32_t>(nodes_.size());
  return object ? CheckDuplicateKeys(index) : nullptr;
}

Status JsonTape::Parse(std::string_view text) {
  text_ = text;
  nodes_.clear();
  decoded_.clear();
  if (text.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("JSON text too large");
  }
  const char* p = text.data();
  const char* const end = p + text.size();
  const char* error = ParseValue(p, end, 0);
  if (error == nullptr && SkipWs(p, end) != end) {
    error = "trailing characters after JSON value";
  }
  if (error == nullptr) return Status::OK();
  nodes_.clear();  // no partial tape: root() is absent after a failure
  return Status::InvalidArgument(error);
}

}  // namespace vs2::util
