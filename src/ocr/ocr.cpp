#include "ocr/ocr.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>

#include "raster/renderer.hpp"
#include "util/math.hpp"

namespace vs2::ocr {
namespace {

// Visually confusable character pairs (classic OCR confusions).
char ConfuseChar(char c, util::Rng* rng) {
  static const std::map<char, const char*> kConfusions = {
      {'l', "1Ii"}, {'1', "lI"}, {'I', "l1"}, {'O', "0Q"}, {'0', "OQ"},
      {'o', "0ce"}, {'S', "58"}, {'5', "S"},  {'B', "8R"}, {'8', "B"},
      {'e', "co"},  {'c', "eo"}, {'a', "os"}, {'n', "m"},  {'m', "n"},
      {'u', "v"},   {'v', "u"},  {'t', "f"},  {'f', "t"},  {'h', "b"},
      {'g', "q9"},  {'q', "g"},  {'d', "cl"}, {'E', "F"},  {'Z', "2"},
      {'G', "6C"},  {'D', "O"},  {'T', "I"},  {'r', "n"}};
  auto it = kConfusions.find(c);
  if (it == kConfusions.end()) {
    // Substitution by a random nearby letter keeps the channel open for
    // characters without a curated confusion set.
    if (std::isalpha(static_cast<unsigned char>(c))) {
      char base = std::islower(static_cast<unsigned char>(c)) ? 'a' : 'A';
      return static_cast<char>(base + rng->UniformInt(0, 25));
    }
    return c;
  }
  const char* options = it->second;
  size_t n = 0;
  while (options[n] != '\0') ++n;
  return options[static_cast<size_t>(rng->UniformInt(0, static_cast<int>(n) - 1))];
}

std::string CorruptWord(const std::string& word, double char_rate,
                        util::Rng* rng) {
  std::string out;
  out.reserve(word.size());
  for (char c : word) {
    double draw = rng->UniformDouble();
    if (draw < char_rate * 0.15) {
      continue;  // character dropped
    }
    if (draw < char_rate) {
      out.push_back(ConfuseChar(c, rng));
      continue;
    }
    out.push_back(c);
  }
  if (out.empty()) out = word.substr(0, 1);
  return out;
}

}  // namespace

double EstimateSkewDegrees(const doc::Document& doc) {
  // Text elements by left edge. Every candidate right of `a` within three
  // line heights is then one contiguous run, found by binary search and
  // swept until `dx` passes the limit (`dx` grows with `b.x`). A NaN left
  // edge can never be the nearest neighbour, so those elements stay out.
  std::vector<size_t> by_x;
  for (size_t j = 0; j < doc.elements.size(); ++j) {
    const doc::AtomicElement& b = doc.elements[j];
    if (b.is_text() && !std::isnan(b.bbox.x)) by_x.push_back(j);
  }
  std::sort(by_x.begin(), by_x.end(), [&doc](size_t p, size_t q) {
    return doc.elements[p].bbox.x < doc.elements[q].bbox.x;
  });

  std::vector<double> angles;
  for (size_t i = 0; i < doc.elements.size(); ++i) {
    const doc::AtomicElement& a = doc.elements[i];
    if (!a.is_text()) continue;
    // Nearest element to the right on (roughly) the same line; among equal
    // gaps the lowest element index wins.
    const double right = a.bbox.right();
    auto run = std::partition_point(by_x.begin(), by_x.end(), [&](size_t j) {
      return doc.elements[j].bbox.x - right <= 0.0;
    });
    double best_dx = 1e18;
    size_t best_j = doc.elements.size();
    double best_angle = 0.0;
    for (; run != by_x.end(); ++run) {
      const size_t j = *run;
      const doc::AtomicElement& b = doc.elements[j];
      double dx = b.bbox.x - right;
      if (dx > a.bbox.height * 3.0) break;
      if (i == j || dx <= 0.0) continue;
      double dy = b.bbox.Centroid().y - a.bbox.Centroid().y;
      if (std::abs(dy) > a.bbox.height * 1.2) continue;
      if (dx < best_dx || (dx == best_dx && j < best_j)) {
        best_dx = dx;
        best_j = j;
        best_angle = std::atan2(dy, b.bbox.Centroid().x -
                                        a.bbox.Centroid().x) *
                     180.0 / M_PI;
      }
    }
    if (best_dx < 1e17) angles.push_back(best_angle);
  }
  if (angles.size() < 4) return 0.0;
  return util::Median(angles);
}

doc::Document Transcribe(const doc::Document& doc, const OcrConfig& config) {
  doc::Document input = doc;
  // Cleaning (paper Fig. 2): skew correction first. The estimator sees the
  // captured geometry; correction is imperfect — a residual proportional
  // to (1 − quality) survives, which is what ultimately separates methods
  // that tolerate residual skew from those that need axis-aligned gaps.
  double skew = EstimateSkewDegrees(input);
  if (std::abs(skew) > 0.15) {
    double correction = -skew * (0.75 + 0.25 * input.capture_quality);
    raster::RotateDocument(&input, correction);
  }

  doc::Document observed = input;
  observed.elements.clear();

  double severity = 1.0 - std::clamp(input.capture_quality, 0.0, 1.0);
  double char_rate = config.char_error_at_worst * severity;
  double drop_rate = config.word_drop_at_worst * severity;
  double split_rate = config.word_split_at_worst * severity;
  double merge_rate = config.word_merge_at_worst * severity;

  util::Rng rng(config.seed ^ input.id * 0x9E3779B97F4A7C15ULL);

  for (size_t i = 0; i < input.elements.size(); ++i) {
    const doc::AtomicElement& el = input.elements[i];
    if (!el.is_text()) {
      // Cleaning pass (paper Fig. 2: documents are cleaned before
      // anything else): binarization removes speckle marks; how reliably
      // depends on capture quality.
      bool speck = el.bbox.Area() < 9.0;
      if (speck && rng.Bernoulli(0.55 + 0.45 * input.capture_quality)) {
        continue;
      }
      observed.elements.push_back(el);
      continue;
    }
    if (rng.Bernoulli(drop_rate)) continue;  // word lost

    // Merge with right neighbour on the same generated line.
    if (rng.Bernoulli(merge_rate) && i + 1 < input.elements.size() &&
        input.elements[i + 1].is_text() &&
        input.elements[i + 1].line_id == el.line_id && el.line_id >= 0) {
      doc::AtomicElement merged = el;
      merged.text = CorruptWord(el.text, char_rate, &rng) +
                    CorruptWord(input.elements[i + 1].text, char_rate, &rng);
      merged.bbox = util::Union(el.bbox, input.elements[i + 1].bbox);
      merged.bbox.x += rng.Normal(0.0, config.bbox_jitter);
      merged.bbox.y += rng.Normal(0.0, config.bbox_jitter);
      observed.elements.push_back(std::move(merged));
      ++i;  // neighbour consumed
      continue;
    }

    // Split into two fragments.
    if (rng.Bernoulli(split_rate) && el.text.size() >= 4) {
      size_t cut = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int>(el.text.size()) - 2));
      doc::AtomicElement left = el, right = el;
      left.text = CorruptWord(el.text.substr(0, cut), char_rate, &rng);
      right.text = CorruptWord(el.text.substr(cut), char_rate, &rng);
      double frac = static_cast<double>(cut) /
                    static_cast<double>(el.text.size());
      left.bbox.width = el.bbox.width * frac;
      right.bbox.x = el.bbox.x + left.bbox.width + 0.5;
      right.bbox.width = el.bbox.width * (1.0 - frac);
      observed.elements.push_back(std::move(left));
      observed.elements.push_back(std::move(right));
      continue;
    }

    doc::AtomicElement out = el;
    out.text = CorruptWord(el.text, char_rate, &rng);
    out.bbox.x += rng.Normal(0.0, config.bbox_jitter * severity);
    out.bbox.y += rng.Normal(0.0, config.bbox_jitter * severity);
    observed.elements.push_back(std::move(out));
  }
  return observed;
}

std::vector<LayoutBlock> AnalyzeLayout(const doc::Document& doc) {
  std::vector<size_t> indices;
  for (size_t i = 0; i < doc.elements.size(); ++i) indices.push_back(i);
  if (indices.empty()) return {};

  // --- lines: greedy clustering by vertical-center proximity ---
  std::sort(indices.begin(), indices.end(), [&](size_t a, size_t b) {
    return doc.elements[a].bbox.y < doc.elements[b].bbox.y;
  });
  std::vector<double> heights;
  for (size_t i : indices) heights.push_back(doc.elements[i].bbox.height);
  std::sort(heights.begin(), heights.end());
  double median_h = heights[heights.size() / 2];

  struct Line {
    std::vector<size_t> members;
    util::BBox bbox;
  };
  std::vector<Line> lines;
  for (size_t i : indices) {
    const util::BBox& b = doc.elements[i].bbox;
    double cy = b.y + b.height / 2.0;
    bool placed = false;
    for (Line& line : lines) {
      double line_cy = line.bbox.y + line.bbox.height / 2.0;
      if (std::abs(cy - line_cy) <
          std::max(median_h, line.bbox.height) * 0.55) {
        line.members.push_back(i);
        line.bbox = util::Union(line.bbox, b);
        placed = true;
        break;
      }
    }
    if (!placed) {
      lines.push_back(Line{{i}, b});
    }
  }
  // Column awareness: a "line" spanning two columns is split where the
  // horizontal gap between consecutive words exceeds several em.
  {
    std::vector<Line> split_lines;
    for (Line& line : lines) {
      std::sort(line.members.begin(), line.members.end(),
                [&](size_t a, size_t b) {
                  return doc.elements[a].bbox.x < doc.elements[b].bbox.x;
                });
      Line current;
      for (size_t i : line.members) {
        const util::BBox& b = doc.elements[i].bbox;
        if (!current.members.empty() &&
            b.x - current.bbox.right() > 3.0 * std::max(median_h, 6.0)) {
          split_lines.push_back(current);
          current = Line{};
        }
        current.members.push_back(i);
        current.bbox = util::Union(current.bbox, b);
      }
      if (!current.members.empty()) split_lines.push_back(current);
    }
    lines = std::move(split_lines);
  }
  std::sort(lines.begin(), lines.end(),
            [](const Line& a, const Line& b) { return a.bbox.y < b.bbox.y; });

  // --- blocks: adjacent lines with small vertical gaps and x-overlap ---
  std::vector<LayoutBlock> blocks;
  double prev_gap = -1.0;
  for (const Line& line : lines) {
    bool attached = false;
    if (!blocks.empty()) {
      LayoutBlock& last = blocks.back();
      double gap = line.bbox.y - last.bbox.bottom();
      double x_overlap =
          std::min(line.bbox.right(), last.bbox.right()) -
          std::max(line.bbox.x, last.bbox.x);
      // Tesseract's paragraph detector joins lines at intra-paragraph
      // leading (≈ 0.2–0.35 × line height) — and, its classic failure
      // mode on forms, also swallows *uniformly pitched* line grids whose
      // leading still looks paragraph-like (< ~1.1 × line height with a
      // repeated pitch), under-segmenting tightly pitched form faces.
      double line_h = std::max({line.bbox.height, median_h, 1.0});
      bool paragraph_leading = gap < 0.45 * line_h;
      bool uniform_grid =
          prev_gap >= 0.0 && gap > 0.0 &&
          std::abs(gap - prev_gap) < 0.15 * std::max(gap, prev_gap) &&
          gap < 1.10 * line_h;
      if ((paragraph_leading || uniform_grid) && x_overlap > 0.0) {
        last.element_indices.insert(last.element_indices.end(),
                                    line.members.begin(), line.members.end());
        last.bbox = util::Union(last.bbox, line.bbox);
        attached = true;
      }
      prev_gap = gap;
    } else {
      prev_gap = -1.0;
    }
    if (!attached) {
      blocks.push_back(LayoutBlock{line.members, line.bbox});
    }
  }
  return blocks;
}

}  // namespace vs2::ocr
