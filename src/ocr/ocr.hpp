#ifndef VS2_OCR_OCR_HPP_
#define VS2_OCR_OCR_HPP_

/// \file ocr.hpp
/// OCR simulation standing in for Tesseract (Smith 2007), which the paper
/// uses both to transcribe documents (Sec 4.1: "We have used Tesseract …
/// to obtain the textual elements") and — its layout analysis — as
/// segmentation baseline A5 (Table 5).
///
/// `Transcribe` produces the *observed* document: same geometry (with
/// slight jitter), text corrupted by a quality-dependent noise channel
/// (character confusions, word splits/merges/drops). The paper's error
/// analysis traces most extraction failures to exactly this channel
/// ("low-quality transcription inhibiting semantic merging", Sec 6.3;
/// Fig. 3's NER false-positive blow-up).

#include <vector>

#include "doc/document.hpp"
#include "util/rng.hpp"

namespace vs2::ocr {

/// Noise-channel knobs. Effective rates scale with (1 − capture_quality).
struct OcrConfig {
  /// Character substitution probability at quality 0 (pristine = ~0).
  double char_error_at_worst = 0.18;
  /// Word dropped entirely.
  double word_drop_at_worst = 0.06;
  /// Word split into two fragments.
  double word_split_at_worst = 0.05;
  /// Word merged with its right neighbour (same line).
  double word_merge_at_worst = 0.05;
  /// Geometry jitter added to observed boxes.
  double bbox_jitter = 0.5;
  uint64_t seed = 0x0C12;
};

/// \brief Simulates OCR over `doc`: returns the observed document whose
/// textual elements carry corrupted transcriptions. Annotations are copied
/// verbatim (they are ground truth, not observations). Image elements pass
/// through unchanged except speckle cleaning. The cleaning pass of the
/// paper's Fig. 2 (skew correction + binarization) runs first: page
/// rotation is estimated from text-line direction and corrected, leaving a
/// quality-dependent residual.
doc::Document Transcribe(const doc::Document& doc, const OcrConfig& config);

/// Estimates the dominant text-line angle (degrees) from nearest-right-
/// neighbour direction statistics; 0 when the document has too little text.
/// One sort by left edge plus a bounded sweep per element, O(n log n) for
/// a page of text; `tests/reference/skew_reference.hpp` holds the
/// all-pairs scan it is tested against.
double EstimateSkewDegrees(const doc::Document& doc);

/// \brief A block found by layout analysis: element indices + bbox.
struct LayoutBlock {
  std::vector<size_t> element_indices;
  util::BBox bbox;
};

/// \brief Tesseract-style hierarchical layout analysis (baseline A5):
/// elements → lines (y-overlap clustering) → blocks (adjacent lines with
/// compatible vertical gaps and x-overlap). Purely geometric: no color, no
/// semantics, no cut search — which is why it underperforms VS2-Segment on
/// visually rich pages.
std::vector<LayoutBlock> AnalyzeLayout(const doc::Document& doc);

}  // namespace vs2::ocr

#endif  // VS2_OCR_OCR_HPP_
