#include "reference/json_tree_reference.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "doc/serialization.hpp"
#include "util/strings.hpp"

namespace vs2::reference {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value model + recursive-descent parser.
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonObject = std::map<std::string, std::shared_ptr<JsonValue>>;
using JsonArray = std::vector<std::shared_ptr<JsonValue>>;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  JsonArray array;
  JsonObject object;
};

// Nesting cap for the recursive-descent parser. Document JSON is at most
// three levels deep; anything deeper is hostile input (`[[[[...` otherwise
// overflows the stack — found by fuzz_doc_json).
constexpr int kMaxJsonDepth = 64;

// Strings must be well-formed UTF-8: correct continuation bytes, no overlong
// encodings, no encoded surrogates, nothing past U+10FFFF. The pipeline
// treats text as byte sequences, so a permissive parser here would let
// ill-formed bytes flow all the way into extraction output.
bool IsValidUtf8(const std::string& s) {
  size_t i = 0;
  while (i < s.size()) {
    unsigned char b = static_cast<unsigned char>(s[i]);
    size_t len;
    unsigned min_code;
    unsigned code;
    if (b < 0x80) {
      ++i;
      continue;
    } else if ((b & 0xE0) == 0xC0) {
      len = 2; min_code = 0x80; code = b & 0x1Fu;
    } else if ((b & 0xF0) == 0xE0) {
      len = 3; min_code = 0x800; code = b & 0x0Fu;
    } else if ((b & 0xF8) == 0xF0) {
      len = 4; min_code = 0x10000; code = b & 0x07u;
    } else {
      return false;  // continuation byte or 0xF8+ lead
    }
    if (i + len > s.size()) return false;
    for (size_t k = 1; k < len; ++k) {
      unsigned char cont = static_cast<unsigned char>(s[i + k]);
      if ((cont & 0xC0) != 0x80) return false;
      code = (code << 6) | (cont & 0x3Fu);
    }
    if (code < min_code) return false;                 // overlong
    if (code >= 0xD800 && code <= 0xDFFF) return false;  // surrogate
    if (code > 0x10FFFF) return false;
    i += len;
  }
  return true;
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<std::shared_ptr<JsonValue>> Parse() {
    VS2_ASSIGN_OR_RETURN(std::shared_ptr<JsonValue> v, ParseValue(0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters after JSON value");
    }
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::shared_ptr<JsonValue>> ParseValue(int depth) {
    if (depth > kMaxJsonDepth) {
      return Status::InvalidArgument("JSON nesting too deep");
    }
    SkipWs();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unexpected end of JSON");
    }
    char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  Result<std::shared_ptr<JsonValue>> ParseObject(int depth) {
    auto v = std::make_shared<JsonValue>();
    v->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return Status::InvalidArgument("expected '{'");
    SkipWs();
    if (Consume('}')) return v;
    while (true) {
      VS2_ASSIGN_OR_RETURN(std::shared_ptr<JsonValue> key, ParseString());
      if (!Consume(':')) return Status::InvalidArgument("expected ':'");
      VS2_ASSIGN_OR_RETURN(std::shared_ptr<JsonValue> val,
                           ParseValue(depth + 1));
      if (v->object.count(key->string) != 0) {
        return Status::InvalidArgument("duplicate key \"" + key->string +
                                       "\" in object");
      }
      v->object[key->string] = val;
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Status::InvalidArgument("expected ',' or '}' in object");
    }
    return v;
  }

  Result<std::shared_ptr<JsonValue>> ParseArray(int depth) {
    auto v = std::make_shared<JsonValue>();
    v->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return Status::InvalidArgument("expected '['");
    SkipWs();
    if (Consume(']')) return v;
    while (true) {
      VS2_ASSIGN_OR_RETURN(std::shared_ptr<JsonValue> item,
                           ParseValue(depth + 1));
      v->array.push_back(item);
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Status::InvalidArgument("expected ',' or ']' in array");
    }
    return v;
  }

  // Reads the four hex digits of a \u escape (the backslash and 'u' already
  // consumed) into a code unit.
  Result<unsigned> ParseHex4() {
    if (pos_ + 4 > text_.size()) {
      return Status::InvalidArgument("truncated \\u escape");
    }
    unsigned code = 0;
    for (int k = 0; k < 4; ++k) {
      char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else return Status::InvalidArgument("bad \\u escape digit");
    }
    return code;
  }

  Result<std::shared_ptr<JsonValue>> ParseString() {
    SkipWs();
    if (!Consume('"')) return Status::InvalidArgument("expected '\"'");
    auto v = std::make_shared<JsonValue>();
    v->kind = JsonValue::Kind::kString;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        if (!IsValidUtf8(v->string)) {
          return Status::InvalidArgument("string is not valid UTF-8");
        }
        return v;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': v->string.push_back('"'); break;
          case '\\': v->string.push_back('\\'); break;
          case '/': v->string.push_back('/'); break;
          case 'n': v->string.push_back('\n'); break;
          case 't': v->string.push_back('\t'); break;
          case 'r': v->string.push_back('\r'); break;
          case 'b': v->string.push_back('\b'); break;
          case 'f': v->string.push_back('\f'); break;
          case 'u': {
            VS2_ASSIGN_OR_RETURN(unsigned code, ParseHex4());
            if (code >= 0xDC00 && code <= 0xDFFF) {
              return Status::InvalidArgument("lone low surrogate in \\u escape");
            }
            if (code >= 0xD800 && code <= 0xDBFF) {
              // High surrogate: a \uXXXX low surrogate must follow; the pair
              // decodes to one supplementary-plane code point (RFC 8259 §7).
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Status::InvalidArgument(
                    "high surrogate not followed by \\u escape");
              }
              pos_ += 2;
              VS2_ASSIGN_OR_RETURN(unsigned low, ParseHex4());
              if (low < 0xDC00 || low > 0xDFFF) {
                return Status::InvalidArgument(
                    "high surrogate not followed by low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
            if (code < 0x80) {
              v->string.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              v->string.push_back(static_cast<char>(0xC0 | (code >> 6)));
              v->string.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else if (code < 0x10000) {
              v->string.push_back(static_cast<char>(0xE0 | (code >> 12)));
              v->string.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              v->string.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              v->string.push_back(static_cast<char>(0xF0 | (code >> 18)));
              v->string.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
              v->string.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              v->string.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Status::InvalidArgument("unknown escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        // RFC 8259 §7: control characters must be escaped.
        return Status::InvalidArgument(
            "raw control character in string (must be escaped)");
      } else {
        v->string.push_back(c);
      }
    }
    return Status::InvalidArgument("unterminated string");
  }

  Result<std::shared_ptr<JsonValue>> ParseBool() {
    auto v = std::make_shared<JsonValue>();
    v->kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v->boolean = true;
      pos_ += 4;
      return v;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      v->boolean = false;
      pos_ += 5;
      return v;
    }
    return Status::InvalidArgument("bad literal");
  }

  Result<std::shared_ptr<JsonValue>> ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return std::make_shared<JsonValue>();
    }
    return Status::InvalidArgument("bad literal");
  }

  Result<std::shared_ptr<JsonValue>> ParseNumber() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Status::InvalidArgument("expected number");
    auto v = std::make_shared<JsonValue>();
    v->kind = JsonValue::Kind::kNumber;
    // strtod instead of stod: underflow to a subnormal is a value, not an
    // error (stod throws out_of_range on it, which would reject legitimate
    // tiny numbers the writer itself can produce). The pre-scan above
    // limits the token to [0-9+-.eE], so strtod's hex-float and inf/nan
    // forms are unreachable.
    std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    v->number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Status::InvalidArgument("malformed number");
    }
    // No document field is meaningful as NaN or ±Inf; overflow (e.g.
    // "1e999") would poison every downstream geometry computation.
    if (!std::isfinite(v->number)) {
      return Status::InvalidArgument("non-finite number");
    }
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Writer helpers.
// ---------------------------------------------------------------------------

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      case '\r': out->append("\\r"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(util::Format("\\u%04x", c));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}


// Typed field accessors. Missing keys default; present-but-wrong-type keys
// are schema violations and reject the document (a lenient fallback here
// silently zeroes geometry, which surfaces as a confusing downstream
// pipeline failure instead of a parse error at the service boundary).
Result<double> GetNum(const JsonObject& obj, const char* key,
                      double fallback) {
  auto it = obj.find(key);
  if (it == obj.end()) return fallback;
  if (it->second->kind != JsonValue::Kind::kNumber) {
    return Status::InvalidArgument(std::string("field \"") + key +
                                   "\" must be a number");
  }
  return it->second->number;
}

Result<std::string> GetStr(const JsonObject& obj, const char* key,
                           const std::string& fallback = "") {
  auto it = obj.find(key);
  if (it == obj.end()) return fallback;
  if (it->second->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument(std::string("field \"") + key +
                                   "\" must be a string");
  }
  return it->second->string;
}

// Range-checked variant for fields that are cast to narrower integer types
// after parsing: a float→int cast of an out-of-range double is undefined
// behavior, so the bound check must happen on the double.
Result<double> GetNumIn(const JsonObject& obj, const char* key,
                        double fallback, double min, double max) {
  VS2_ASSIGN_OR_RETURN(double v, GetNum(obj, key, fallback));
  if (v < min || v > max) {
    return Status::InvalidArgument(util::Format(
        "field \"%s\" out of range [%g, %g]: %g", key, min, max, v));
  }
  return v;
}

Result<bool> GetBool(const JsonObject& obj, const char* key, bool fallback) {
  auto it = obj.find(key);
  if (it == obj.end()) return fallback;
  if (it->second->kind != JsonValue::Kind::kBool) {
    return Status::InvalidArgument(std::string("field \"") + key +
                                   "\" must be a boolean");
  }
  return it->second->boolean;
}

}  // namespace

std::string SnprintfNumber(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return util::Format("%.0f", v);
  }
  std::string g = util::Format("%.6g", v);
  // The value `%.6g` names is an integer: a positive exponent, or neither
  // a fraction nor an exponent (nor nan/inf).
  bool integer = g.find("e+") != std::string::npos ||
                 g.find_first_of(".eni") == std::string::npos;
  if (integer && std::abs(std::nearbyint(v)) < 1e15) {
    return util::Format("%.0f", v);
  }
  return g;
}

std::string SnprintfToJson(const doc::Document& d) {
  std::string out;
  out += "{";
  out += util::Format("\"id\":%llu,", static_cast<unsigned long long>(d.id));
  out += util::Format("\"dataset\":%d,", static_cast<int>(d.dataset));
  out += util::Format("\"format\":%d,", static_cast<int>(d.format));
  out += "\"width\":" + SnprintfNumber(d.width) +
         ",\"height\":" + SnprintfNumber(d.height) + ",";
  out += "\"capture_quality\":" + SnprintfNumber(d.capture_quality) + ",";
  out += util::Format("\"template_id\":%d,", d.template_id);
  out += "\"rotation_degrees\":" + SnprintfNumber(d.rotation_degrees) + ",";

  out += "\"elements\":[";
  for (size_t i = 0; i < d.elements.size(); ++i) {
    const doc::AtomicElement& el = d.elements[i];
    if (i > 0) out.push_back(',');
    out += "{";
    out += el.is_text() ? "\"kind\":\"text\"," : "\"kind\":\"image\",";
    if (el.is_text()) {
      out += "\"text\":";
      AppendEscaped(&out, el.text);
      out += ",";
      out += "\"font_size\":" + SnprintfNumber(el.style.font_size) + ",";
      out += std::string("\"bold\":") + (el.style.bold ? "true," : "false,");
      out += std::string("\"italic\":") +
             (el.style.italic ? "true," : "false,");
      out += util::Format("\"r\":%d,\"g\":%d,\"b\":%d,", el.style.color.r,
                          el.style.color.g, el.style.color.b);
    } else {
      out += util::Format("\"image_id\":%llu,",
                          static_cast<unsigned long long>(el.image_id));
    }
    out += "\"x\":" + SnprintfNumber(el.bbox.x) +
           ",\"y\":" + SnprintfNumber(el.bbox.y) +
           ",\"w\":" + SnprintfNumber(el.bbox.width) +
           ",\"h\":" + SnprintfNumber(el.bbox.height) + ",";
    out += util::Format("\"markup_hint\":%d,\"line_id\":%d", el.markup_hint,
                        el.line_id);
    out += "}";
  }
  out += "],";

  out += "\"annotations\":[";
  for (size_t i = 0; i < d.annotations.size(); ++i) {
    const doc::Annotation& a = d.annotations[i];
    if (i > 0) out.push_back(',');
    out += "{\"entity\":";
    AppendEscaped(&out, a.entity_type);
    out += ",\"x\":" + SnprintfNumber(a.bbox.x) +
           ",\"y\":" + SnprintfNumber(a.bbox.y) +
           ",\"w\":" + SnprintfNumber(a.bbox.width) +
           ",\"h\":" + SnprintfNumber(a.bbox.height) + ",\"text\":";
    AppendEscaped(&out, a.text);
    out += "}";
  }
  out += "]}";
  return out;
}

Result<doc::Document> TreeFromJson(const std::string& json) {
  JsonParser parser(json);
  VS2_ASSIGN_OR_RETURN(std::shared_ptr<JsonValue> root, parser.Parse());
  if (root->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("document JSON must be an object");
  }
  const JsonObject& obj = root->object;

  // The double precision limit (2^53) bounds ids well below uint64_t's
  // range; beyond it the JSON number could not name a distinct id anyway.
  constexpr double kMaxExactId = 9007199254740992.0;  // 2^53
  constexpr double kMaxInt = 2147483647.0;

  doc::Document d;
  VS2_ASSIGN_OR_RETURN(double id, GetNumIn(obj, "id", 0, 0, kMaxExactId));
  d.id = static_cast<uint64_t>(id);
  VS2_ASSIGN_OR_RETURN(double dataset_num,
                       GetNumIn(obj, "dataset", 2, -kMaxInt, kMaxInt));
  int dataset = static_cast<int>(dataset_num);
  if (dataset < 1 || dataset > 3) {
    return Status::InvalidArgument("dataset must be 1, 2 or 3");
  }
  d.dataset = static_cast<doc::DatasetId>(dataset);
  VS2_ASSIGN_OR_RETURN(double format_num,
                       GetNumIn(obj, "format", 2, -kMaxInt, kMaxInt));
  int format = static_cast<int>(format_num);
  if (format < 0 || format > 3) {
    return Status::InvalidArgument("format must be in [0, 3]");
  }
  d.format = static_cast<doc::DocumentFormat>(format);
  VS2_ASSIGN_OR_RETURN(d.width, GetNum(obj, "width", 0.0));
  VS2_ASSIGN_OR_RETURN(d.height, GetNum(obj, "height", 0.0));
  if (d.width <= 0.0 || d.height <= 0.0) {
    return Status::InvalidArgument("document must have positive page size");
  }
  VS2_ASSIGN_OR_RETURN(d.capture_quality,
                       GetNum(obj, "capture_quality", 1.0));
  VS2_ASSIGN_OR_RETURN(double template_id,
                       GetNumIn(obj, "template_id", -1, -kMaxInt, kMaxInt));
  d.template_id = static_cast<int>(template_id);
  VS2_ASSIGN_OR_RETURN(d.rotation_degrees,
                       GetNum(obj, "rotation_degrees", 0.0));

  auto elements_it = obj.find("elements");
  if (elements_it != obj.end()) {
    if (elements_it->second->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument("field \"elements\" must be an array");
    }
    if (elements_it->second->array.size() > doc::kMaxElementsPerDocument) {
      return Status::InvalidArgument(util::Format(
          "too many elements: %zu (limit %zu)",
          elements_it->second->array.size(), doc::kMaxElementsPerDocument));
    }
    for (const auto& item : elements_it->second->array) {
      if (item->kind != JsonValue::Kind::kObject) {
        return Status::InvalidArgument("element must be an object");
      }
      const JsonObject& e = item->object;
      util::BBox bbox;
      VS2_ASSIGN_OR_RETURN(bbox.x, GetNum(e, "x", 0));
      VS2_ASSIGN_OR_RETURN(bbox.y, GetNum(e, "y", 0));
      VS2_ASSIGN_OR_RETURN(bbox.width, GetNum(e, "w", 0));
      VS2_ASSIGN_OR_RETURN(bbox.height, GetNum(e, "h", 0));
      VS2_ASSIGN_OR_RETURN(std::string kind, GetStr(e, "kind", "text"));
      if (kind == "text") {
        doc::TextStyle style;
        VS2_ASSIGN_OR_RETURN(style.font_size, GetNum(e, "font_size", 12.0));
        VS2_ASSIGN_OR_RETURN(style.bold, GetBool(e, "bold", false));
        VS2_ASSIGN_OR_RETURN(style.italic, GetBool(e, "italic", false));
        VS2_ASSIGN_OR_RETURN(double r, GetNumIn(e, "r", 0, 0, 255));
        VS2_ASSIGN_OR_RETURN(double g, GetNumIn(e, "g", 0, 0, 255));
        VS2_ASSIGN_OR_RETURN(double b, GetNumIn(e, "b", 0, 0, 255));
        style.color = util::Rgb{static_cast<uint8_t>(r),
                                static_cast<uint8_t>(g),
                                static_cast<uint8_t>(b)};
        VS2_ASSIGN_OR_RETURN(std::string text, GetStr(e, "text"));
        doc::AtomicElement el =
            doc::MakeTextElement(std::move(text), bbox, style);
        VS2_ASSIGN_OR_RETURN(double markup, GetNumIn(e, "markup_hint", 0,
                                                     -kMaxInt, kMaxInt));
        el.markup_hint = static_cast<int>(markup);
        VS2_ASSIGN_OR_RETURN(double line_id, GetNumIn(e, "line_id", -1,
                                                      -kMaxInt, kMaxInt));
        el.line_id = static_cast<int>(line_id);
        d.elements.push_back(std::move(el));
      } else if (kind == "image") {
        VS2_ASSIGN_OR_RETURN(double image_id,
                             GetNumIn(e, "image_id", 0, 0, kMaxExactId));
        doc::AtomicElement el = doc::MakeImageElement(
            static_cast<uint64_t>(image_id), bbox, util::SlateGray());
        VS2_ASSIGN_OR_RETURN(double markup, GetNumIn(e, "markup_hint", 0,
                                                     -kMaxInt, kMaxInt));
        el.markup_hint = static_cast<int>(markup);
        d.elements.push_back(std::move(el));
      } else {
        return Status::InvalidArgument("element kind must be text or image");
      }
    }
  }

  auto ann_it = obj.find("annotations");
  if (ann_it != obj.end()) {
    if (ann_it->second->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument(
          "field \"annotations\" must be an array");
    }
    if (ann_it->second->array.size() > doc::kMaxAnnotationsPerDocument) {
      return Status::InvalidArgument(util::Format(
          "too many annotations: %zu (limit %zu)",
          ann_it->second->array.size(), doc::kMaxAnnotationsPerDocument));
    }
    for (const auto& item : ann_it->second->array) {
      if (item->kind != JsonValue::Kind::kObject) {
        return Status::InvalidArgument("annotation must be an object");
      }
      const JsonObject& a = item->object;
      doc::Annotation ann;
      VS2_ASSIGN_OR_RETURN(ann.entity_type, GetStr(a, "entity"));
      VS2_ASSIGN_OR_RETURN(ann.bbox.x, GetNum(a, "x", 0));
      VS2_ASSIGN_OR_RETURN(ann.bbox.y, GetNum(a, "y", 0));
      VS2_ASSIGN_OR_RETURN(ann.bbox.width, GetNum(a, "w", 0));
      VS2_ASSIGN_OR_RETURN(ann.bbox.height, GetNum(a, "h", 0));
      VS2_ASSIGN_OR_RETURN(ann.text, GetStr(a, "text"));
      d.annotations.push_back(std::move(ann));
    }
  }
  return d;
}

}  // namespace vs2::reference
