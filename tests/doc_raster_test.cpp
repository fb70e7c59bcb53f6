/// Tests for src/doc (elements, document, layout tree, the JSON codec
/// against its pre-tape reference) and src/raster (grid, renderer, noise).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "datasets/generator.hpp"
#include "doc/document.hpp"
#include "doc/layout_tree.hpp"
#include "doc/serialization.hpp"
#include "raster/grid.hpp"
#include "raster/noise.hpp"
#include "raster/renderer.hpp"
#include "reference/json_tree_reference.hpp"
#include "util/rng.hpp"

namespace vs2 {
namespace {

doc::Document TwoLineDoc() {
  doc::Document d;
  d.width = 200;
  d.height = 100;
  doc::TextStyle style;
  style.font_size = 12;
  raster::PlaceLine(&d, "alpha beta gamma", 10, 10, style, 0);
  raster::PlaceLine(&d, "delta epsilon", 10, 50, style, 1);
  return d;
}

// ------------------------------------------- JSON codec vs tree reference --
// The tape reader and the to_chars writer (doc/serialization.cpp) against
// the tree parser and snprintf writer they replaced
// (tests/reference/json_tree_reference.hpp).

bool IsNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
         c == 'e' || c == 'E';
}

/// RFC 8259 §6: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
bool IsRfcNumber(const std::string& t) {
  size_t i = 0;
  auto digits = [&] {
    size_t start = i;
    while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
    return i > start;
  };
  if (i < t.size() && t[i] == '-') ++i;
  if (i < t.size() && t[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < t.size() && t[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
    ++i;
    if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == t.size();
}

/// True when `json` uses a spelling the tree parser took and RFC 8259
/// forbids. These are the only differences the differential test allows,
/// and each makes the tape reader reject what the tree parser accepted:
///  * a number token (the tree parser's `[0-9+-.eE]` run) that `strtod`
///    reads whole but the RFC grammar does not: `+612`, `0612`, `.5`, `5.`;
///  * `\v` or `\f` between tokens (the tree parser skipped `isspace`).
bool UsesNonRfcGrammar(const std::string& json) {
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '\v' || c == '\f') {
      return true;
    } else if (IsNumberChar(c) && c != 'e' && c != 'E') {
      size_t end = i;
      while (end < json.size() && IsNumberChar(json[end])) ++end;
      std::string token = json.substr(i, end - i);
      char* stop = nullptr;
      std::strtod(token.c_str(), &stop);
      if (stop == token.c_str() + token.size() && !IsRfcNumber(token)) {
        return true;
      }
      i = end - 1;
    }
  }
  return false;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// The first field in which two documents differ, or "" when none does.
/// Doubles compare by bit pattern, so -0 and 0 differ.
std::string FirstDifference(const doc::Document& a, const doc::Document& b) {
  auto box = [](const util::BBox& x, const util::BBox& y) {
    return Bits(x.x) == Bits(y.x) && Bits(x.y) == Bits(y.y) &&
           Bits(x.width) == Bits(y.width) && Bits(x.height) == Bits(y.height);
  };
  if (a.id != b.id || a.dataset != b.dataset || a.format != b.format) {
    return "header ids";
  }
  if (Bits(a.width) != Bits(b.width) || Bits(a.height) != Bits(b.height) ||
      Bits(a.capture_quality) != Bits(b.capture_quality) ||
      a.template_id != b.template_id ||
      Bits(a.rotation_degrees) != Bits(b.rotation_degrees)) {
    return "header values";
  }
  if (a.elements.size() != b.elements.size()) return "element count";
  for (size_t i = 0; i < a.elements.size(); ++i) {
    const doc::AtomicElement& x = a.elements[i];
    const doc::AtomicElement& y = b.elements[i];
    if (x.kind != y.kind || x.text != y.text || !box(x.bbox, y.bbox) ||
        Bits(x.color.l) != Bits(y.color.l) ||
        Bits(x.color.a) != Bits(y.color.a) ||
        Bits(x.color.b) != Bits(y.color.b) ||
        Bits(x.style.font_size) != Bits(y.style.font_size) ||
        x.style.bold != y.style.bold || x.style.italic != y.style.italic ||
        !(x.style.color == y.style.color) || x.image_id != y.image_id ||
        x.markup_hint != y.markup_hint || x.line_id != y.line_id) {
      return "element " + std::to_string(i);
    }
  }
  if (a.annotations.size() != b.annotations.size()) return "annotation count";
  for (size_t i = 0; i < a.annotations.size(); ++i) {
    const doc::Annotation& x = a.annotations[i];
    const doc::Annotation& y = b.annotations[i];
    if (x.entity_type != y.entity_type || x.text != y.text ||
        !box(x.bbox, y.bbox)) {
      return "annotation " + std::to_string(i);
    }
  }
  return "";
}

/// Runs both parsers on `json`: they must agree on accept/reject and on
/// every field, except where the input uses a non-RFC spelling. Returns
/// true when that exception was taken.
bool ExpectParsersAgree(const std::string& json, const std::string& what) {
  Result<doc::Document> tape = doc::FromJson(json);
  Result<doc::Document> tree = reference::TreeFromJson(json);
  if (tape.ok() != tree.ok()) {
    bool allowed = tree.ok() && UsesNonRfcGrammar(json);
    EXPECT_TRUE(allowed) << what << ": tape "
                         << (tape.ok() ? "accepts" : tape.status().ToString())
                         << ", tree "
                         << (tree.ok() ? "accepts" : tree.status().ToString());
    return allowed;
  }
  if (tape.ok()) {
    EXPECT_EQ(FirstDifference(*tape, *tree), "") << what;
  } else {
    EXPECT_EQ(tape.status().code(), StatusCode::kInvalidArgument) << what;
  }
  return false;
}

std::vector<std::string> GeneratedDocumentLines(size_t per_dataset) {
  std::vector<std::string> lines;
  for (doc::DatasetId id :
       {doc::DatasetId::kD1TaxForms, doc::DatasetId::kD2EventPosters,
        doc::DatasetId::kD3RealEstateFlyers}) {
    datasets::GeneratorConfig gc;
    gc.num_documents = per_dataset;
    gc.seed = 2501;
    for (const doc::Document& d : datasets::Generate(id, gc).documents) {
      lines.push_back(doc::ToJson(d));
    }
  }
  return lines;
}

TEST(JsonReferenceTest, GrammarDifferencesAreExactlyTheListedOnes) {
  const std::string head = "{\"width\":9,\"height\":9,\"rotation_degrees\":";
  for (const char* number : {"+612", "0612", ".5", "5.", "-.5", "5.e1"}) {
    std::string json = head + number + "}";
    EXPECT_TRUE(reference::TreeFromJson(json).ok()) << json;
    EXPECT_FALSE(doc::FromJson(json).ok()) << json;
    EXPECT_TRUE(UsesNonRfcGrammar(json)) << json;
  }
  for (const char* space : {"\v", "\f"}) {
    std::string json = std::string(space) + head + "9}";
    EXPECT_TRUE(reference::TreeFromJson(json).ok());
    EXPECT_FALSE(doc::FromJson(json).ok());
    EXPECT_TRUE(UsesNonRfcGrammar(json));
  }
  // RFC spellings, underflow included, read the same in both.
  for (const char* number : {"612", "-0", "0.5", "5e1", "5E+1", "1.5e-400",
                             "4.9e-324", "1e-320", "0.1"}) {
    std::string json = head + number + "}";
    EXPECT_FALSE(UsesNonRfcGrammar(json)) << json;
    EXPECT_FALSE(ExpectParsersAgree(json, json));
  }
}

TEST(JsonReferenceTest, ParsersAgreeOnTheFuzzCorpora) {
  size_t inputs = 0;
  for (const char* harness : {"fuzz_doc_json", "fuzz_wire"}) {
    std::filesystem::path dir =
        std::filesystem::path(VS2_FUZZ_CORPUS_DIR) / harness;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::stringstream buffer;
      buffer << in.rdbuf();
      const std::string content = buffer.str();
      ExpectParsersAgree(content, entry.path().string());
      // Wire seeds are line streams: every line is a request.
      std::istringstream lines(content);
      for (std::string line; std::getline(lines, line);) {
        ExpectParsersAgree(line, entry.path().string() + ": " + line);
      }
      ++inputs;
    }
  }
  EXPECT_GT(inputs, 10u);
}

TEST(JsonReferenceTest, ParsersAgreeOnDocumentsAndTheirMutations) {
  const std::vector<std::string> lines = GeneratedDocumentLines(20);
  ASSERT_EQ(lines.size(), 60u);
  // Bytes that change the structure, the number grammar, whitespace and
  // UTF-8 validity, besides random ones.
  const std::string interesting = "{}[]\":,\\0159-+.eE tfn\v\f\x7f\x80\xc3\xff";
  util::Rng rng(2502);
  size_t allowed = 0;
  for (size_t d = 0; d < lines.size(); ++d) {
    const std::string& line = lines[d];
    EXPECT_FALSE(ExpectParsersAgree(line, "document " + std::to_string(d)));
    for (int m = 0; m < 60; ++m) {
      std::string mutated = line;
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(line.size()) - 1));
      mutated[at] =
          m % 2 == 0
              ? interesting[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int>(interesting.size()) - 1))]
              : static_cast<char>(rng.UniformInt(0, 255));
      if (ExpectParsersAgree(mutated, "document " + std::to_string(d) +
                                          " byte " + std::to_string(at))) {
        ++allowed;
      }
    }
    for (int t = 0; t < 20; ++t) {
      size_t keep = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(line.size()) - 1));
      ExpectParsersAgree(line.substr(0, keep),
                         "document " + std::to_string(d) + " cut at " +
                             std::to_string(keep));
    }
  }
  // Some mutations land on a listed difference; the test must see them.
  EXPECT_GT(allowed, 0u);
}

TEST(JsonReferenceTest, ToCharsNumbersMatchSnprintfInBothBranches) {
  util::Rng rng(2503);
  auto check = [](double v) {
    std::string fast;
    doc::AppendCanonicalNumber(v, &fast);
    std::string slow = reference::SnprintfNumber(v);
    if (fast != slow) {
      ADD_FAILURE() << "value " << std::hexfloat << v << ": to_chars "
                    << fast << ", snprintf " << slow;
      return false;
    }
    return true;
  };
  size_t failures = 0;
  for (int i = 0; i < 200000 && failures < 10; ++i) {
    // `%.0f` branch: integers, and values whose six digits name one.
    double integer = std::floor(rng.UniformDouble(-1e15, 1e15) /
                                std::pow(10.0, rng.UniformInt(0, 14)));
    double big = rng.UniformDouble(1e5, 1e16) * (i % 2 == 0 ? 1 : -1);
    // `%.6g` branch: every decimal magnitude from 1e-12 to 1e12.
    double general = rng.UniformDouble(1.0, 10.0) *
                     std::pow(10.0, rng.UniformInt(-12, 12)) *
                     (i % 3 == 0 ? -1 : 1);
    // Near the six-digit rounding ties and the 1e6 boundary.
    double tie = (rng.UniformInt(100000, 999999) + 0.5) *
                 std::pow(10.0, rng.UniformInt(-9, 3));
    double any = std::bit_cast<double>(
        (static_cast<uint64_t>(rng.UniformInt(0, 0x7FEFFFFF)) << 32) |
        static_cast<uint64_t>(rng.UniformInt(0, 0x7FFFFFFF)) << 1);
    // Short decimals, as page geometry is: at most six significant digits.
    double short_decimal = rng.UniformInt(1, 999999) /
                           std::pow(10.0, rng.UniformInt(1, 10)) *
                           (i % 2 == 0 ? 1 : -1);
    for (double v : {integer, big, general, tie, std::nextafter(tie, 0.0),
                     std::nextafter(tie, 1e300), any, -any, short_decimal}) {
      if (!check(v)) ++failures;
    }
  }
  for (double v : {0.0, -0.0, 0.5, -0.5, 1e-4, 9.99999e-5, 999999.5,
                   999999.4999, 1e6, 1234567.5, 2000000.25, 1e15, 1e15 - 0.5,
                   123456.5, 0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308}) {
    check(v);
  }
}

TEST(JsonReferenceTest, ToJsonMatchesTheSnprintfWriter) {
  for (const std::string& line : GeneratedDocumentLines(20)) {
    Result<doc::Document> d = doc::FromJson(line);
    ASSERT_TRUE(d.ok()) << d.status();
    EXPECT_EQ(doc::ToJson(*d), reference::SnprintfToJson(*d));
  }
  // Escapes, images and off-grid values.
  doc::Document d;
  d.width = 1234567.5;
  d.height = 0.000123456789;
  d.rotation_degrees = -0.0;
  d.elements.push_back(doc::MakeTextElement(
      "q\"b\\s\t\n\r\x01\x1f\xC3\xA9", {2000000.25, -3.5, 1e-7, 7}, {}));
  d.elements.push_back(
      doc::MakeImageElement(9007199254740992ull, {1, 2, 3, 4}, {1, 2, 3}));
  d.annotations.push_back({"entity\x02", {0.5, 1.25, 1e20, 3}, "t\\"});
  EXPECT_EQ(doc::ToJson(d), reference::SnprintfToJson(d));
}

// --------------------------------------------------------------- Element --

TEST(ElementTest, TextElementCarriesLabColor) {
  doc::TextStyle style;
  style.color = util::White();
  doc::AtomicElement el = doc::MakeTextElement("w", {0, 0, 10, 10}, style);
  EXPECT_TRUE(el.is_text());
  EXPECT_NEAR(el.color.l, 100.0, 1.0);
}

TEST(ElementTest, ImageElementHasNoText) {
  doc::AtomicElement el =
      doc::MakeImageElement(7, {0, 0, 10, 10}, util::SlateGray());
  EXPECT_TRUE(el.is_image());
  EXPECT_FALSE(el.is_text());
  EXPECT_EQ(el.image_id, 7u);
  EXPECT_TRUE(el.text.empty());
}

// -------------------------------------------------------------- Document --

TEST(DocumentTest, ReadingOrderTopToBottomLeftToRight) {
  doc::Document d = TwoLineDoc();
  EXPECT_EQ(d.FullText(), "alpha beta gamma delta epsilon");
}

TEST(DocumentTest, TextElementIndicesSkipImages) {
  doc::Document d = TwoLineDoc();
  size_t text_count = d.elements.size();
  d.elements.push_back(doc::MakeImageElement(1, {50, 80, 10, 5},
                                             util::Goldenrod()));
  EXPECT_EQ(d.TextElementIndices().size(), text_count);
}

TEST(DocumentTest, ContentBoundsEnclosesAllElements) {
  doc::Document d = TwoLineDoc();
  util::BBox bounds = d.ContentBounds();
  for (const auto& el : d.elements) {
    EXPECT_TRUE(bounds.Contains(el.bbox));
  }
}

// ------------------------------------------------------------ LayoutTree --

TEST(LayoutTreeTest, RootCoversAllElements) {
  doc::Document d = TwoLineDoc();
  doc::LayoutTree tree = doc::LayoutTree::ForDocument(d);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.node(0).element_indices.size(), d.elements.size());
  EXPECT_TRUE(tree.Validate(d).ok());
  EXPECT_EQ(tree.Height(), 0);
}

TEST(LayoutTreeTest, AddChildComputesBBoxFromElements) {
  doc::Document d = TwoLineDoc();
  doc::LayoutTree tree = doc::LayoutTree::ForDocument(d);
  std::vector<size_t> first_line = {0, 1, 2};
  size_t child = tree.AddChild(d, tree.root(), first_line);
  const doc::LayoutNode& n = tree.node(child);
  EXPECT_FALSE(n.bbox.Empty());  // the evaluation-order regression guard
  for (size_t i : first_line) {
    EXPECT_TRUE(n.bbox.Contains(d.elements[i].bbox));
  }
  EXPECT_EQ(n.depth, 1);
  EXPECT_EQ(tree.Height(), 1);
}

TEST(LayoutTreeTest, ValidateRejectsSharedElements) {
  doc::Document d = TwoLineDoc();
  doc::LayoutTree tree = doc::LayoutTree::ForDocument(d);
  tree.AddChild(d, tree.root(), {0, 1});
  tree.AddChild(d, tree.root(), {1, 2});  // element 1 in both siblings
  EXPECT_FALSE(tree.Validate(d).ok());
}

TEST(LayoutTreeTest, MergeSiblingsCombinesElements) {
  doc::Document d = TwoLineDoc();
  doc::LayoutTree tree = doc::LayoutTree::ForDocument(d);
  size_t a = tree.AddChild(d, tree.root(), {0, 1});
  size_t b = tree.AddChild(d, tree.root(), {2});
  auto merged = tree.MergeSiblings(d, a, b);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(tree.node(*merged).element_indices.size(), 3u);
  EXPECT_EQ(tree.node(tree.root()).children.size(), 1u);
  EXPECT_TRUE(tree.Validate(d).ok());
}

TEST(LayoutTreeTest, MergeSiblingsRejectsNonSiblings) {
  doc::Document d = TwoLineDoc();
  doc::LayoutTree tree = doc::LayoutTree::ForDocument(d);
  size_t a = tree.AddChild(d, tree.root(), {0, 1});
  size_t inner = tree.AddChild(d, a, {0});
  EXPECT_FALSE(tree.MergeSiblings(d, a, inner).ok());
  EXPECT_FALSE(tree.MergeSiblings(d, a, a).ok());
  EXPECT_FALSE(tree.MergeSiblings(d, a, 999).ok());
}

TEST(LayoutTreeTest, LeavesPreOrder) {
  doc::Document d = TwoLineDoc();
  doc::LayoutTree tree = doc::LayoutTree::ForDocument(d);
  size_t a = tree.AddChild(d, tree.root(), {0, 1, 2});
  size_t b = tree.AddChild(d, tree.root(), {3, 4});
  size_t a1 = tree.AddChild(d, a, {0});
  size_t a2 = tree.AddChild(d, a, {1, 2});
  std::vector<size_t> leaves = tree.Leaves();
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(leaves[0], a1);
  EXPECT_EQ(leaves[1], a2);
  EXPECT_EQ(leaves[2], b);
}

TEST(LayoutTreeTest, AsciiArtMentionsAllLeaves) {
  doc::Document d = TwoLineDoc();
  doc::LayoutTree tree = doc::LayoutTree::ForDocument(d);
  tree.AddChild(d, tree.root(), {0, 1, 2});
  std::string art = tree.ToAsciiArt(d);
  EXPECT_NE(art.find("alpha"), std::string::npos);
  EXPECT_NE(art.find("leaf"), std::string::npos);
}

// ------------------------------------------------------------------ Grid --

TEST(GridTest, OutOfRangeReadsAsOccupied) {
  raster::OccupancyGrid g(4, 4);
  EXPECT_TRUE(g.occupied(-1, 0));
  EXPECT_TRUE(g.occupied(0, 4));
  EXPECT_FALSE(g.occupied(0, 0));
  EXPECT_FALSE(g.IsWhitespace(-1, 0));
  EXPECT_TRUE(g.IsWhitespace(3, 3));
}

TEST(GridTest, FillBoxMarksCells) {
  raster::OccupancyGrid g(10, 10);
  g.FillBox({2, 3, 4, 2});
  EXPECT_TRUE(g.occupied(2, 3));
  EXPECT_TRUE(g.occupied(5, 4));
  EXPECT_FALSE(g.occupied(1, 3));
  EXPECT_FALSE(g.occupied(2, 5));
  EXPECT_NEAR(g.OccupancyRatio(), 8.0 / 100.0, 1e-12);
}

TEST(GridTest, RasterizeClipsToRegion) {
  std::vector<util::BBox> boxes = {{-10, -10, 15, 15}, {90, 90, 20, 20}};
  raster::GridScale scale{1.0};
  raster::OccupancyGrid g =
      raster::RasterizeBoxes(boxes, {0, 0, 100, 100}, scale);
  EXPECT_EQ(g.width(), 100);
  EXPECT_TRUE(g.occupied(0, 0));     // clipped corner of box 1
  EXPECT_TRUE(g.occupied(95, 95));   // interior of box 2
  EXPECT_FALSE(g.occupied(50, 50));  // empty middle
}

TEST(GridTest, PackedWordsMirrorCellQueries) {
  // 70 wide straddles the 64-bit word boundary; verify the packed words the
  // cut kernel consumes agree with per-cell queries, including tail bits.
  raster::OccupancyGrid g(70, 70);
  g.FillBox({60, 1, 8, 5});
  g.set_occupied(0, 69);
  for (int y : {0, 1, 4, 69}) {
    const uint64_t* row = g.ws_row(y);
    for (int x = 0; x < 70; ++x) {
      bool bit = (row[x >> 6] >> (x & 63)) & 1;
      EXPECT_EQ(bit, g.IsWhitespace(x, y)) << x << "," << y;
    }
    // Bits past the grid edge must read as occupied (zero).
    for (int x = 70; x < 128; ++x) {
      EXPECT_FALSE((row[x >> 6] >> (x & 63)) & 1) << x;
    }
  }
  for (int x : {0, 59, 63, 64, 67, 69}) {
    const uint64_t* col = g.ws_col(x);
    for (int y = 0; y < 70; ++y) {
      bool bit = (col[y >> 6] >> (y & 63)) & 1;
      EXPECT_EQ(bit, g.IsWhitespace(x, y)) << x << "," << y;
    }
  }
}

TEST(GridTest, RowAndColClear) {
  raster::OccupancyGrid g(100, 80);
  EXPECT_TRUE(g.RowClear(10));
  EXPECT_TRUE(g.ColClear(99));
  g.set_occupied(99, 10);
  EXPECT_FALSE(g.RowClear(10));
  EXPECT_FALSE(g.ColClear(99));
  EXPECT_TRUE(g.RowClear(11));
  g.set_occupied(99, 10, false);
  EXPECT_TRUE(g.RowClear(10));
}

TEST(GridTest, FillCellRectMatchesSetOccupied) {
  raster::OccupancyGrid a(130, 67);
  raster::OccupancyGrid b(130, 67);
  a.FillCellRect({50, 3, 129, 66});
  for (int y = 3; y <= 66; ++y) {
    for (int x = 50; x <= 129; ++x) b.set_occupied(x, y);
  }
  for (int y = 0; y < 67; ++y) {
    for (int x = 0; x < 130; ++x) {
      EXPECT_EQ(a.occupied(x, y), b.occupied(x, y)) << x << "," << y;
    }
  }
  // Out-of-range rects clamp instead of writing out of bounds.
  a.FillCellRect({-5, -5, 500, 2});
  EXPECT_TRUE(a.occupied(0, 0));
  EXPECT_TRUE(a.occupied(129, 2));
}

TEST(GridTest, BoxToCellRectSnapsToLattice) {
  raster::GridScale scale{0.5};  // one cell = 2 units
  raster::CellRect r = raster::BoxToCellRect({10, 20, 6, 2}, scale);
  EXPECT_EQ(r, (raster::CellRect{5, 10, 7, 10}));
  // Sub-cell boxes still cover the cell they start in.
  EXPECT_FALSE(raster::BoxToCellRect({10.2, 20.2, 0.1, 0.1}, scale).Empty());
  // Empty boxes map to empty rects.
  EXPECT_TRUE(raster::BoxToCellRect({10, 20, 0, 5}, scale).Empty());
}

TEST(PageRasterTest, CropMatchesPerElementFill) {
  raster::GridScale scale{0.5};
  std::vector<util::BBox> boxes = {{10, 10, 40, 12}, {10, 40, 40, 12},
                                   {120, 10, 30, 60}, {-4, -4, 10, 10}};
  raster::PageRaster page(boxes, scale);
  raster::CellRect window{2, 2, 80, 40};
  raster::OccupancyGrid cropped = page.Crop(window);

  raster::OccupancyGrid manual(window.width(), window.height());
  for (const util::BBox& b : boxes) {
    raster::CellRect r = raster::IntersectCells(
        raster::BoxToCellRect(b, scale), window);
    if (r.Empty()) continue;
    manual.FillCellRect({r.x0 - window.x0, r.y0 - window.y0, r.x1 - window.x0,
                         r.y1 - window.y0});
  }
  EXPECT_EQ(cropped.ToAsciiArt(), manual.ToAsciiArt());

  // Restricting to a subset of elements excludes the others' cells.
  std::vector<size_t> subset = {0, 1};
  raster::OccupancyGrid partial = page.Crop(window, &subset);
  EXPECT_TRUE(partial.occupied(10 - window.x0, 8 - window.y0));  // box 0
  EXPECT_FALSE(partial.occupied(62 - window.x0, 8 - window.y0));  // box 2 only
}

TEST(GridScaleTest, UnitConversionRoundTrip) {
  raster::GridScale scale{0.5};
  EXPECT_EQ(scale.ToCellsFloor(9.9), 4);
  EXPECT_EQ(scale.ToCellsCeil(9.9), 5);
  EXPECT_DOUBLE_EQ(scale.ToUnits(5), 10.0);
}

// -------------------------------------------------------------- Renderer --

TEST(RendererTest, WordWidthMonotonicInLength) {
  EXPECT_LT(raster::WordWidth("ab", 12), raster::WordWidth("abcd", 12));
  EXPECT_LT(raster::WordWidth("word", 10), raster::WordWidth("word", 20));
  EXPECT_LT(raster::WordWidth("word", 12),
            raster::WordWidth("word", 12, /*bold=*/true));
}

TEST(RendererTest, PlaceLineLeftToRightNoOverlap) {
  doc::Document d;
  d.width = 400;
  d.height = 100;
  doc::TextStyle style;
  raster::PlaceLine(&d, "one two three", 5, 5, style, 3);
  ASSERT_EQ(d.elements.size(), 3u);
  for (size_t i = 1; i < d.elements.size(); ++i) {
    EXPECT_GT(d.elements[i].bbox.x, d.elements[i - 1].bbox.right());
    EXPECT_EQ(d.elements[i].line_id, 3);
  }
}

TEST(RendererTest, PlaceTextWrapsAtMaxWidth) {
  doc::Document d;
  d.width = 400;
  d.height = 400;
  doc::TextStyle style;
  style.font_size = 12;
  util::BBox bbox = raster::PlaceText(
      &d, "aaaa bbbb cccc dddd eeee ffff gggg hhhh", 0, 0, 80, style, 0);
  EXPECT_LE(bbox.right(), 85.0);
  EXPECT_GT(bbox.height, raster::LineHeight(12));  // wrapped to >1 line
  // line ids increase down the wrap
  int max_line = 0;
  for (const auto& el : d.elements) max_line = std::max(max_line, el.line_id);
  EXPECT_GE(max_line, 1);
}

TEST(RendererTest, PlaceCenteredLineIsCentered) {
  doc::Document d;
  d.width = 200;
  d.height = 100;
  doc::TextStyle style;
  util::BBox b = raster::PlaceCenteredLine(&d, "mid", 0, 200, 10, style);
  double center = b.x + b.width / 2;
  EXPECT_NEAR(center, 100.0, 2.0);
}

TEST(RendererTest, RotateDocumentPreservesElementCount) {
  doc::Document d = TwoLineDoc();
  d.annotations.push_back({"x", {10, 10, 50, 10}, "alpha"});
  size_t n = d.elements.size();
  util::BBox before = d.elements[0].bbox;
  raster::RotateDocument(&d, 10.0);
  EXPECT_EQ(d.elements.size(), n);
  EXPECT_NE(d.elements[0].bbox, before);
  EXPECT_DOUBLE_EQ(d.rotation_degrees, 10.0);
  // Rotation by 0 is a no-op.
  doc::Document d2 = TwoLineDoc();
  util::BBox b2 = d2.elements[0].bbox;
  raster::RotateDocument(&d2, 0.0);
  EXPECT_EQ(d2.elements[0].bbox, b2);
}

TEST(RendererTest, RotationRoundTripApproximatelyIdentity) {
  doc::Document d = TwoLineDoc();
  util::PointF c0 = d.elements[0].bbox.Centroid();
  raster::RotateDocument(&d, 15.0);
  raster::RotateDocument(&d, -15.0);
  util::PointF c1 = d.elements[0].bbox.Centroid();
  EXPECT_NEAR(c0.x, c1.x, 1e-6);
  EXPECT_NEAR(c0.y, c1.y, 1e-6);
}

// ----------------------------------------------------------------- Noise --

TEST(NoiseTest, ArtifactsLowerQualityDeterministically) {
  doc::Document a = TwoLineDoc();
  doc::Document b = TwoLineDoc();
  a.capture_quality = b.capture_quality = 1.0;
  raster::ArtifactConfig config;
  util::Rng r1(99), r2(99);
  raster::ApplyCaptureArtifacts(&a, config, &r1);
  raster::ApplyCaptureArtifacts(&b, config, &r2);
  EXPECT_LT(a.capture_quality, 1.0);
  EXPECT_EQ(a.capture_quality, b.capture_quality);
  EXPECT_EQ(a.elements.size(), b.elements.size());
}

TEST(NoiseTest, SmudgesAreImageElements) {
  doc::Document d = TwoLineDoc();
  raster::ArtifactConfig config;
  config.smudge_probability = 1.0;
  config.max_smudges = 3;
  config.speckle_per_kilo_unit2 = 0.0;
  util::Rng rng(5);
  size_t before = d.elements.size();
  raster::ApplyCaptureArtifacts(&d, config, &rng);
  size_t images = 0;
  for (const auto& el : d.elements) images += el.is_image() ? 1 : 0;
  EXPECT_GE(images, 1u);
  EXPECT_GT(d.elements.size(), before);
}

}  // namespace
}  // namespace vs2
