#ifndef VS2_DOC_SERIALIZATION_HPP_
#define VS2_DOC_SERIALIZATION_HPP_

/// \file serialization.hpp
/// JSON import/export for documents — the integration surface for real
/// deployments: an OCR front-end (Tesseract's TSV/hOCR, a cloud OCR API)
/// is converted into this JSON shape and fed to the pipeline; extraction
/// results are read back out programmatically.
///
/// The dialect is plain JSON (UTF-8, no comments). Document shape:
/// ```json
/// {
///   "id": 7, "dataset": 2, "format": 1,
///   "width": 560.0, "height": 740.0,
///   "capture_quality": 0.8,
///   "template_id": -1,
///   "elements": [
///     {"kind": "text", "text": "Jazz", "x": 10, "y": 20, "w": 40, "h": 14,
///      "font_size": 12.0, "bold": false, "r": 0, "g": 0, "b": 0,
///      "markup_hint": 0, "line_id": 3},
///     {"kind": "image", "image_id": 4, "x": 0, "y": 0, "w": 9, "h": 9}
///   ],
///   "annotations": [
///     {"entity": "event_title", "x": 10, "y": 20, "w": 200, "h": 30,
///      "text": "Jazz Night"}
///   ]
/// }
/// ```
/// A hand-rolled writer/parser keeps the library dependency-free; the
/// parser (the tape reader of util/json.hpp) accepts any RFC 8259 JSON for
/// this schema and rejects malformed input with a descriptive `Status`.
///
/// `ToJson` is the *canonical* spelling: fixed key order, no whitespace,
/// numbers as `AppendCanonicalNumber` spells them. It is a fixed point —
/// `ToJson(FromJson(ToJson(d))) == ToJson(d)` for every document `FromJson`
/// accepts — which is what lets the serving stack key caches on it and
/// verify a client's canonical bytes by re-spelling them
/// (serve/content_address.hpp, DESIGN.md §15.1).

#include <cstddef>
#include <string>
#include <vector>

#include "doc/document.hpp"
#include "util/geometry.hpp"
#include "util/status.hpp"

namespace vs2::util {
class JsonValue;
}  // namespace vs2::util

namespace vs2::doc {

/// Hard caps on per-document array sizes accepted by `FromJson`. Inputs
/// beyond these are rejected with `kInvalidArgument` instead of being
/// parsed — a service boundary must bound the memory one request can pin.
inline constexpr size_t kMaxElementsPerDocument = 100000;
inline constexpr size_t kMaxAnnotationsPerDocument = 10000;

/// Serializes a document (elements + annotations + metadata) to JSON.
std::string ToJson(const Document& document);

/// Appends `ToJson(document)` to `out` without clearing it. Hot callers
/// (per-request cache canonicalization in serve/) reuse one buffer's
/// capacity across requests instead of allocating a fresh string each time.
void AppendJson(const Document& document, std::string* out);

/// Appends the canonical spelling of one number: `%.0f` when the value
/// rounded to six significant digits is an integer below 1e15 (so
/// 1234567.5 is "1234568", which reads back to itself, where `%.6g`'s
/// "1.23457e+06" would read back as 1234570), `%.6g` otherwise. Written
/// with `std::to_chars`, byte for byte what `snprintf` prints.
void AppendCanonicalNumber(double v, std::string* out);

/// Parses a document from JSON produced by `ToJson` (or any conforming
/// producer). Unknown keys are ignored; missing optional keys default.
/// Malformed input — truncated JSON, duplicate keys, schema fields of the
/// wrong type, oversized element/annotation arrays — is rejected with a
/// descriptive `kInvalidArgument`.
Result<Document> FromJson(const std::string& json);

/// As `FromJson`, for a value already on a parsed tape: the serving layer
/// reads envelope keys and the document from one parse of a request line.
Result<Document> FromJsonValue(const util::JsonValue& root);

// ---------------------------------------------------------------------------
// Extraction wire format — the response side of the interchange surface.
// Shared by `vs2_extract`, `vs2_serve` and the example client so every
// deployment entry point emits byte-identical JSON (pinned by regression
// test in tests/serve_test.cpp).
// ---------------------------------------------------------------------------

/// One extracted key-value pair in wire form (the subset of
/// `core::Extraction` that crosses the process boundary).
struct ExtractionRecord {
  std::string entity;
  std::string text;
  util::BBox block;  ///< bbox of the logical block it came from
  util::BBox span;   ///< bbox of the matched tokens
};

/// Renders one response line:
/// `{"extractions":[{"entity":...,"text":...,"block":{...},"span":{...}},
/// ...],"blocks":N,"interest_points":M}`.
std::string ExtractionsToJson(const std::vector<ExtractionRecord>& extractions,
                              size_t blocks, size_t interest_points);

/// Renders one error line: `{"error":"<status>","source":"<source>"}`.
std::string ErrorToJson(const std::string& source, const Status& status);

/// Adapter for `core::Vs2::DocResult`-shaped values (anything with
/// `extractions` carrying `entity`/`text`/`block_bbox`/`match_bbox`, a
/// `tree` with `Leaves()` and an `interest_points` vector). A template so
/// `doc` stays independent of `core` at link time.
template <typename DocResultT>
std::string ExtractionsToJson(const DocResultT& result) {
  std::vector<ExtractionRecord> records;
  records.reserve(result.extractions.size());
  for (const auto& ex : result.extractions) {
    records.push_back({ex.entity, ex.text, ex.block_bbox, ex.match_bbox});
  }
  return ExtractionsToJson(records, result.tree.Leaves().size(),
                           result.interest_points.size());
}

}  // namespace vs2::doc

#endif  // VS2_DOC_SERIALIZATION_HPP_
