#include "doc/serialization.hpp"

#include <charconv>
#include <cmath>
#include <initializer_list>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace vs2::doc {
namespace {

// ---------------------------------------------------------------------------
// Writer. The canonical spelling is produced per request and hashed
// (serve/content_address.hpp), so it is appended straight to the caller's
// reused buffer, numbers through `std::to_chars`, with no temporaries per
// field.
// ---------------------------------------------------------------------------

template <typename Int>
void PutInt(std::string* out, Int v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// `v` (integral, |v| < 1e15) as `%.0f` spells it, "-0" included.
char* IntegralChars(char* buf, double v) {
  if (v == 0.0) {
    if (std::signbit(v)) *buf++ = '-';
    *buf++ = '0';
    return buf;
  }
  return std::to_chars(buf, buf + 24, static_cast<long long>(v)).ptr;
}

/// True when a `%.6g` spelling names an integer: a positive exponent (six
/// significant digits of a value of 1e6 or more), or neither a fraction
/// nor an exponent ("123457", "1.23457e+06"; not "0.5", "1e-05", "nan").
bool SpellsInteger(const char* begin, const char* end) {
  bool fraction = false;
  for (const char* p = begin; p < end; ++p) {
    if (*p == 'e') return p[1] == '+';
    if (*p == '.' || *p == 'n' || *p == 'i') fraction = true;
  }
  return !fraction;
}

void PutEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  size_t run = 0;  // start of the pending run of bytes that need no escape
  for (size_t i = 0; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default: {
        const char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out->append(esc, sizeof(esc));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

/// `%.1f` via to_chars (same digits, by the standard's definition).
void PutFixed1(std::string* out, double v) {
  char buf[400];  // %.1f of DBL_MAX is 311 characters
  char* end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 1).ptr;
  out->append(buf, end);
}

void PutBox(std::string* out, const util::BBox& box) {
  *out += "{\"x\":";
  PutFixed1(out, box.x);
  *out += ",\"y\":";
  PutFixed1(out, box.y);
  *out += ",\"w\":";
  PutFixed1(out, box.width);
  *out += ",\"h\":";
  PutFixed1(out, box.height);
  out->push_back('}');
}

/// The canonical number spelling (`AppendCanonicalNumber`).
void PutNumber(std::string* out, double v) {
  char buf[32];
  char* end;
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    end = IntegralChars(buf, v);
  } else {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                        6)
              .ptr;
    // `%.6g` would name an integer: spell the rounded value out in full,
    // so that re-reading it does not land on a different spelling
    // (1234567.5 -> "1234568", not "1.23457e+06" -> "1234570").
    if (SpellsInteger(buf, end)) {
      double rounded = std::nearbyint(v);
      if (std::abs(rounded) < 1e15) end = IntegralChars(buf, rounded);
    }
  }
  out->append(buf, end);
}

// ---------------------------------------------------------------------------
// Schema decoding from the tape. Each object's members are visited once and
// dropped into the slot of their key; unknown keys are ignored. Missing
// keys default; present-but-wrong-type keys are schema violations and
// reject the document (a lenient fallback here silently zeroes geometry,
// which surfaces as a confusing downstream pipeline failure instead of a
// parse error at the service boundary).
// ---------------------------------------------------------------------------

/// Key -> slot table of one object schema.
class Schema {
 public:
  Schema(std::initializer_list<std::string_view> keys) : keys_(keys) {}

  int size() const { return static_cast<int>(keys_.size()); }
  const char* name(int slot) const {
    return keys_[static_cast<size_t>(slot)].data();
  }

  /// Slot of `key`, or -1 for a key outside the schema.
  int Find(std::string_view key) const {
    for (int slot = 0; slot < size(); ++slot) {
      if (keys_[static_cast<size_t>(slot)] == key) return slot;
    }
    return -1;
  }

 private:
  std::vector<std::string_view> keys_;
};

/// One object's members slotted by a `Schema`, read with typed accessors.
/// A schema violation is recorded (the first one wins) and the accessor
/// returns its in-range fallback, so narrowing casts of what it returns
/// stay defined; `status()` reports the violation once the object is read.
template <size_t N>
class Fields {
 public:
  Fields(const Schema& schema, const util::JsonValue& object)
      : schema_(schema) {
    for (auto it = object.begin(), end = object.end(); it != end; ++it) {
      int slot = schema.Find(it.key());
      if (slot >= 0) value_[slot] = *it;
    }
  }

  const util::JsonValue& operator[](int slot) const { return value_[slot]; }

  double Num(int slot, double fallback) {
    const util::JsonValue& v = value_[slot];
    if (v.is_number()) return v.number();
    if (v.present()) Violation(slot, "\" must be a number");
    return fallback;
  }

  // Range-checked variant for fields that are cast to narrower integer
  // types after parsing: a float->int cast of an out-of-range double is
  // undefined behavior, so the bound check must happen on the double.
  double NumIn(int slot, double fallback, double min, double max) {
    double v = Num(slot, fallback);
    if (v >= min && v <= max) return v;
    if (error_.empty()) {
      error_ = util::Format("field \"%s\" out of range [%g, %g]: %g",
                            schema_.name(slot), min, max, v);
    }
    return fallback;
  }

  std::string_view Str(int slot, std::string_view fallback) {
    const util::JsonValue& v = value_[slot];
    if (v.is_string()) return v.string();
    if (v.present()) Violation(slot, "\" must be a string");
    return fallback;
  }

  bool Bool(int slot, bool fallback) {
    const util::JsonValue& v = value_[slot];
    if (v.is_bool()) return v.boolean();
    if (v.present()) Violation(slot, "\" must be a boolean");
    return fallback;
  }

  Status status() const {
    return error_.empty() ? Status::OK() : Status::InvalidArgument(error_);
  }

 private:
  void Violation(int slot, const char* what) {
    if (error_.empty()) {
      error_ = std::string("field \"") + schema_.name(slot) + what;
    }
  }

  const Schema& schema_;
  util::JsonValue value_[N];
  std::string error_;
};

enum DocKey {
  kId, kDataset, kFormat, kWidth, kHeight, kCaptureQuality, kTemplateId,
  kRotation, kElements, kAnnotations, kDocKeys
};
enum ElementKey {
  kKind, kImageId, kText, kFontSize, kBold, kItalic, kR, kG, kB, kX, kY, kW,
  kH, kMarkupHint, kLineId, kElementKeys
};
enum AnnotationKey { kEntity, kAnnX, kAnnY, kAnnW, kAnnH, kAnnText, kAnnKeys };

const Schema& DocSchema() {
  static const Schema schema{"id", "dataset", "format", "width", "height",
                             "capture_quality", "template_id",
                             "rotation_degrees", "elements", "annotations"};
  return schema;
}

const Schema& ElementSchema() {
  static const Schema schema{"kind", "image_id", "text", "font_size", "bold",
                             "italic", "r", "g", "b", "x", "y", "w", "h",
                             "markup_hint", "line_id"};
  return schema;
}

const Schema& AnnotationSchema() {
  static const Schema schema{"entity", "x", "y", "w", "h", "text"};
  return schema;
}

// The double precision limit (2^53) bounds ids well below uint64_t's
// range; beyond it the JSON number could not name a distinct id anyway.
constexpr double kMaxExactId = 9007199254740992.0;  // 2^53
constexpr double kMaxInt = 2147483647.0;

Status DecodeElement(const util::JsonValue& item, AtomicElement* el) {
  if (!item.is_object()) {
    return Status::InvalidArgument("element must be an object");
  }
  Fields<kElementKeys> e(ElementSchema(), item);
  el->bbox = util::BBox{e.Num(kX, 0), e.Num(kY, 0), e.Num(kW, 0),
                        e.Num(kH, 0)};
  std::string_view kind = e.Str(kKind, "text");
  VS2_RETURN_IF_ERROR(e.status());
  if (kind == "text") {
    el->kind = ElementKind::kText;
    el->style.font_size = e.Num(kFontSize, 12.0);
    el->style.bold = e.Bool(kBold, false);
    el->style.italic = e.Bool(kItalic, false);
    el->style.color = util::Rgb{static_cast<uint8_t>(e.NumIn(kR, 0, 0, 255)),
                                static_cast<uint8_t>(e.NumIn(kG, 0, 0, 255)),
                                static_cast<uint8_t>(e.NumIn(kB, 0, 0, 255))};
    el->color = util::RgbToLab(el->style.color);
    el->text.assign(e.Str(kText, ""));
  } else if (kind == "image") {
    el->kind = ElementKind::kImage;
    el->image_id =
        static_cast<uint64_t>(e.NumIn(kImageId, 0, 0, kMaxExactId));
    el->color = util::RgbToLab(util::SlateGray());
  } else {
    return Status::InvalidArgument("element kind must be text or image");
  }
  el->markup_hint =
      static_cast<int>(e.NumIn(kMarkupHint, 0, -kMaxInt, kMaxInt));
  if (el->is_text()) {
    el->line_id = static_cast<int>(e.NumIn(kLineId, -1, -kMaxInt, kMaxInt));
  }
  return e.status();
}

Status DecodeAnnotation(const util::JsonValue& item, Annotation* ann) {
  if (!item.is_object()) {
    return Status::InvalidArgument("annotation must be an object");
  }
  Fields<kAnnKeys> a(AnnotationSchema(), item);
  ann->entity_type.assign(a.Str(kEntity, ""));
  ann->bbox = util::BBox{a.Num(kAnnX, 0), a.Num(kAnnY, 0), a.Num(kAnnW, 0),
                         a.Num(kAnnH, 0)};
  ann->text.assign(a.Str(kAnnText, ""));
  return a.status();
}

/// Checks an optional array field against its size cap; absent is empty.
Status CheckArray(const util::JsonValue& array, const char* field,
                  size_t limit) {
  if (!array.present()) return Status::OK();
  if (!array.is_array()) {
    return Status::InvalidArgument(std::string("field \"") + field +
                                   "\" must be an array");
  }
  if (array.size() > limit) {
    return Status::InvalidArgument(util::Format(
        "too many %s: %zu (limit %zu)", field, array.size(), limit));
  }
  return Status::OK();
}

}  // namespace

void AppendCanonicalNumber(double v, std::string* out) { PutNumber(out, v); }

void AppendJson(const Document& d, std::string* out) {
  *out += "{\"id\":";
  PutInt(out, d.id);
  *out += ",\"dataset\":";
  PutInt(out, static_cast<int>(d.dataset));
  *out += ",\"format\":";
  PutInt(out, static_cast<int>(d.format));
  *out += ",\"width\":";
  PutNumber(out, d.width);
  *out += ",\"height\":";
  PutNumber(out, d.height);
  *out += ",\"capture_quality\":";
  PutNumber(out, d.capture_quality);
  *out += ",\"template_id\":";
  PutInt(out, d.template_id);
  *out += ",\"rotation_degrees\":";
  PutNumber(out, d.rotation_degrees);

  *out += ",\"elements\":[";
  for (size_t i = 0; i < d.elements.size(); ++i) {
    const AtomicElement& el = d.elements[i];
    if (i > 0) out->push_back(',');
    if (el.is_text()) {
      *out += "{\"kind\":\"text\",\"text\":";
      PutEscaped(out, el.text);
      *out += ",\"font_size\":";
      PutNumber(out, el.style.font_size);
      if (el.style.bold) {
        *out += ",\"bold\":true";
      } else {
        *out += ",\"bold\":false";
      }
      if (el.style.italic) {
        *out += ",\"italic\":true,\"r\":";
      } else {
        *out += ",\"italic\":false,\"r\":";
      }
      PutInt(out, el.style.color.r);
      *out += ",\"g\":";
      PutInt(out, el.style.color.g);
      *out += ",\"b\":";
      PutInt(out, el.style.color.b);
      *out += ",\"x\":";
    } else {
      *out += "{\"kind\":\"image\",\"image_id\":";
      PutInt(out, el.image_id);
      *out += ",\"x\":";
    }
    PutNumber(out, el.bbox.x);
    *out += ",\"y\":";
    PutNumber(out, el.bbox.y);
    *out += ",\"w\":";
    PutNumber(out, el.bbox.width);
    *out += ",\"h\":";
    PutNumber(out, el.bbox.height);
    *out += ",\"markup_hint\":";
    PutInt(out, el.markup_hint);
    *out += ",\"line_id\":";
    PutInt(out, el.line_id);
    out->push_back('}');
  }

  *out += "],\"annotations\":[";
  for (size_t i = 0; i < d.annotations.size(); ++i) {
    const Annotation& a = d.annotations[i];
    if (i > 0) out->push_back(',');
    *out += "{\"entity\":";
    PutEscaped(out, a.entity_type);
    *out += ",\"x\":";
    PutNumber(out, a.bbox.x);
    *out += ",\"y\":";
    PutNumber(out, a.bbox.y);
    *out += ",\"w\":";
    PutNumber(out, a.bbox.width);
    *out += ",\"h\":";
    PutNumber(out, a.bbox.height);
    *out += ",\"text\":";
    PutEscaped(out, a.text);
    out->push_back('}');
  }
  *out += "]}";
}

std::string ToJson(const Document& d) {
  std::string out;
  AppendJson(d, &out);
  return out;
}

Result<Document> FromJsonValue(const util::JsonValue& root) {
  if (!root.is_object()) {
    return Status::InvalidArgument("document JSON must be an object");
  }
  Fields<kDocKeys> f(DocSchema(), root);

  Document d;
  d.id = static_cast<uint64_t>(f.NumIn(kId, 0, 0, kMaxExactId));
  int dataset = static_cast<int>(f.NumIn(kDataset, 2, -kMaxInt, kMaxInt));
  VS2_RETURN_IF_ERROR(f.status());
  if (dataset < 1 || dataset > 3) {
    return Status::InvalidArgument("dataset must be 1, 2 or 3");
  }
  d.dataset = static_cast<DatasetId>(dataset);
  int format = static_cast<int>(f.NumIn(kFormat, 2, -kMaxInt, kMaxInt));
  VS2_RETURN_IF_ERROR(f.status());
  if (format < 0 || format > 3) {
    return Status::InvalidArgument("format must be in [0, 3]");
  }
  d.format = static_cast<DocumentFormat>(format);
  d.width = f.Num(kWidth, 0.0);
  d.height = f.Num(kHeight, 0.0);
  VS2_RETURN_IF_ERROR(f.status());
  if (d.width <= 0.0 || d.height <= 0.0) {
    return Status::InvalidArgument("document must have positive page size");
  }
  d.capture_quality = f.Num(kCaptureQuality, 1.0);
  d.template_id =
      static_cast<int>(f.NumIn(kTemplateId, -1, -kMaxInt, kMaxInt));
  d.rotation_degrees = f.Num(kRotation, 0.0);
  VS2_RETURN_IF_ERROR(f.status());

  VS2_RETURN_IF_ERROR(
      CheckArray(f[kElements], "elements", kMaxElementsPerDocument));
  d.elements.resize(f[kElements].size());
  size_t i = 0;
  for (util::JsonValue item : f[kElements]) {
    VS2_RETURN_IF_ERROR(DecodeElement(item, &d.elements[i++]));
  }

  VS2_RETURN_IF_ERROR(CheckArray(f[kAnnotations], "annotations",
                                 kMaxAnnotationsPerDocument));
  d.annotations.resize(f[kAnnotations].size());
  i = 0;
  for (util::JsonValue item : f[kAnnotations]) {
    VS2_RETURN_IF_ERROR(DecodeAnnotation(item, &d.annotations[i++]));
  }
  return d;
}

Result<Document> FromJson(const std::string& json) {
  // One tape per thread, reused: steady-state parses allocate nothing but
  // the document itself.
  thread_local util::JsonTape tape;
  Status parsed = tape.Parse(json);
  Result<Document> document =
      parsed.ok() ? FromJsonValue(tape.root()) : Result<Document>(parsed);
  tape.Shrink();
  return document;
}

std::string ExtractionsToJson(const std::vector<ExtractionRecord>& extractions,
                              size_t blocks, size_t interest_points) {
  std::string json;
  std::string* out = &json;
  *out += "{\"extractions\":[";
  bool first = true;
  for (const ExtractionRecord& ex : extractions) {
    if (!first) out->push_back(',');
    first = false;
    *out += "{\"entity\":";
    PutEscaped(out, ex.entity);
    *out += ",\"text\":";
    PutEscaped(out, ex.text);
    *out += ",\"block\":";
    PutBox(out, ex.block);
    *out += ",\"span\":";
    PutBox(out, ex.span);
    out->push_back('}');
  }
  *out += "],\"blocks\":";
  PutInt(out, blocks);
  *out += ",\"interest_points\":";
  PutInt(out, interest_points);
  out->push_back('}');
  return json;
}

std::string ErrorToJson(const std::string& source, const Status& status) {
  std::string json = "{\"error\":";
  PutEscaped(&json, status.ToString());
  json += ",\"source\":";
  PutEscaped(&json, source);
  json.push_back('}');
  return json;
}

}  // namespace vs2::doc
