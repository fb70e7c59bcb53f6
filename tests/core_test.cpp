/// Tests for src/core: cut machinery (Sec 5.1.1), Algorithm 1, VS2-Segment
/// (invariants + behaviour), interest points, pattern learner, VS2-Select
/// and the end-to-end pipeline.

#include <gtest/gtest.h>

#include <set>

#include "core/algorithm1.hpp"
#include "core/cuts.hpp"
#include "core/interest_points.hpp"
#include "core/pattern_learner.hpp"
#include "core/pipeline.hpp"
#include "core/segmenter.hpp"
#include "core/select.hpp"
#include "datasets/pretrained.hpp"
#include "raster/renderer.hpp"

namespace vs2::core {
namespace {

// ------------------------------------------------------------------ Cuts --

raster::OccupancyGrid GridWithBand(int w, int h, int band_y0, int band_y1) {
  raster::OccupancyGrid g(w, h);
  for (int y = band_y0; y <= band_y1; ++y) {
    for (int x = 0; x < w; ++x) g.set_occupied(x, y);
  }
  return g;
}

TEST(CutsTest, ClearRowsAreCuts) {
  raster::OccupancyGrid g = GridWithBand(20, 20, 8, 11);
  std::vector<bool> cuts = ValidHorizontalCuts(g);
  EXPECT_TRUE(cuts[2]);
  EXPECT_TRUE(cuts[15]);
  for (int y = 8; y <= 11; ++y) EXPECT_FALSE(cuts[static_cast<size_t>(y)]);
}

TEST(CutsTest, DriftFollowsSlantedGap) {
  // A gap band that descends one cell every four columns: straight cuts
  // fail, banded cuts succeed for rows near the gap's start.
  raster::OccupancyGrid g(40, 30);
  for (int x = 0; x < 40; ++x) {
    int gap_y = 10 + x / 6;  // drifts 6 cells over the width (< band 8)
    for (int y = 0; y < 30; ++y) {
      if (std::abs(y - gap_y) > 2) g.set_occupied(x, y);
    }
  }
  std::vector<bool> cuts = ValidHorizontalCuts(g);
  bool any = false;
  for (int y = 8; y <= 13; ++y) any = any || cuts[static_cast<size_t>(y)];
  EXPECT_TRUE(any);
}

TEST(CutsTest, TallContentBlocksCut) {
  // Full-height vertical wall: no horizontal cut crosses it.
  raster::OccupancyGrid g(30, 30);
  for (int y = 0; y < 30; ++y) g.set_occupied(15, y);
  std::vector<bool> cuts = ValidHorizontalCuts(g);
  for (bool c : cuts) EXPECT_FALSE(c);
  // Vertical cuts still exist left of the wall.
  std::vector<bool> vcuts = ValidVerticalCuts(g);
  EXPECT_TRUE(vcuts[5]);
}

/// `FindSeparatorRuns` over all of `boxes`, rasterized once into a page.
std::vector<SeparatorRun> RunsOnPage(const std::vector<util::BBox>& boxes,
                                     const util::BBox& region,
                                     const raster::GridScale& scale) {
  return FindSeparatorRuns(boxes, region, raster::PageRaster(boxes, scale));
}

TEST(SeparatorRunsTest, FindsGapBetweenTwoParagraphs) {
  std::vector<util::BBox> boxes;
  // Two bands of boxes separated by a 30-unit gap.
  for (int i = 0; i < 5; ++i) {
    boxes.push_back({10.0 + i * 35, 10, 30, 12});
    boxes.push_back({10.0 + i * 35, 80, 30, 12});
  }
  auto runs = RunsOnPage(boxes, {0, 0, 200, 110}, raster::GridScale{0.5});
  bool horizontal_gap = false;
  for (const SeparatorRun& r : runs) {
    if (r.horizontal && r.mid_units > 25 && r.mid_units < 80 &&
        r.width_units > 20) {
      horizontal_gap = true;
    }
  }
  EXPECT_TRUE(horizontal_gap);
}

TEST(SeparatorRunsTest, BorderMarginsAreTrimmed) {
  std::vector<util::BBox> boxes = {{50, 50, 100, 12}};
  auto runs = RunsOnPage(boxes, {0, 0, 200, 112}, raster::GridScale{0.5});
  // The single line splits the page into top and bottom margins; both
  // touch the region border and must not be reported.
  for (const SeparatorRun& r : runs) {
    if (r.horizontal) {
      EXPECT_GT(r.start_units, 0.0);
      EXPECT_LT(r.start_units + r.width_units, 112.0);
    }
  }
}

TEST(SeparatorRunsTest, EmptyInputsYieldNoRuns) {
  EXPECT_TRUE(RunsOnPage({}, {0, 0, 100, 100}, raster::GridScale{0.5})
                  .empty());
  EXPECT_TRUE(RunsOnPage({{1, 1, 2, 2}}, {}, raster::GridScale{0.5})
                  .empty());
}

TEST(SeparatorRunsTest, SingleElementYieldsNoRuns) {
  // One box: every whitespace band is a margin flush against the
  // content-trimmed region edge; nothing separates content.
  auto runs = RunsOnPage({{50, 50, 100, 12}}, {0, 0, 200, 112},
                         raster::GridScale{0.5});
  EXPECT_TRUE(runs.empty());
}

TEST(SeparatorRunsTest, DegenerateContentFullSpanRunIsDropped) {
  // A zero-area box rasterizes to nothing, so every coordinate of the
  // trimmed grid is a cut and the single run spans the whole region. A
  // full-span run separates nothing; it must be dropped (it touches both
  // edges), not reported or mis-trimmed.
  auto runs = RunsOnPage({{50, 50, 0, 0}}, {0, 0, 200, 200},
                         raster::GridScale{0.5});
  EXPECT_TRUE(runs.empty());
}

TEST(SeparatorRunsTest, RunFlushAgainstTrimmedEdgeIsDropped) {
  // Two boxes side by side: the interior gap is a separator; the
  // whitespace trailing the content — flush against the content-trimmed
  // region edge — is a margin and must not be reported.
  std::vector<util::BBox> boxes = {{10, 10, 50, 20}, {100, 10, 50, 20}};
  auto runs = RunsOnPage(boxes, {0, 0, 300, 200}, raster::GridScale{0.5});
  bool interior_vertical = false;
  for (const SeparatorRun& r : runs) {
    if (r.horizontal) {
      ADD_FAILURE() << "horizontal margin reported as separator";
      continue;
    }
    // Every vertical run lies strictly between the boxes; none hugs the
    // region edge left of x=10 or right of x=150.
    EXPECT_GT(r.start_units, 55.0);
    EXPECT_LT(r.start_units + r.width_units, 105.0);
    if (r.mid_units > 60.0 && r.mid_units < 100.0) interior_vertical = true;
  }
  EXPECT_TRUE(interior_vertical);
}

TEST(SeparatorRunsTest, RotatedGapUsesDiscountedWidth) {
  // A 20-unit gap band drifting 25 units across the page: banded cuts
  // follow it, but no single straight row is clear, so the run's width
  // must come from the discounted banded extent (cuts.cpp's ×0.35
  // branch) rather than a straight measurement (~20 units).
  std::vector<util::BBox> boxes;
  for (int i = 0; i < 6; ++i) {
    double x = i * 50.0;
    boxes.push_back({x, 0, 50, 80.0 + 5.0 * i});      // top band
    boxes.push_back({x, 100.0 + 5.0 * i, 50, 80.0});  // bottom band
  }
  raster::GridScale scale{0.2};
  auto runs = RunsOnPage(boxes, {0, 0, 300, 210}, scale);
  const SeparatorRun* gap = nullptr;
  for (const SeparatorRun& r : runs) {
    if (r.horizontal && r.mid_units > 60.0 && r.mid_units < 150.0) gap = &r;
  }
  ASSERT_NE(gap, nullptr);
  EXPECT_GE(gap->width_units, scale.ToUnits(1));
  EXPECT_LT(gap->width_units, 15.0);
}

// ------------------------------------------------------------ Algorithm 1 --

SeparatorRun MakeRun(double start, double width, double neighbor_h,
                     double max_elem_h = 20.0) {
  SeparatorRun r;
  r.horizontal = true;
  r.start_units = start;
  r.width_units = width;
  r.mid_units = start + width / 2;
  r.neighbor_max_height = neighbor_h;
  r.scaled_width = width * neighbor_h / max_elem_h;
  return r;
}

TEST(Algorithm1Test, EmptyInputNoDelimiters) {
  EXPECT_TRUE(SelectDelimiters({}).empty());
}

TEST(Algorithm1Test, WordGapsFilteredByWidthFloor) {
  // Word gaps: ~0.32 em wide next to ~1.15 em tall neighbours.
  std::vector<SeparatorRun> runs = {MakeRun(10, 4, 14), MakeRun(30, 4, 14),
                                    MakeRun(50, 4, 14)};
  EXPECT_TRUE(SelectDelimiters(runs).empty());
}

TEST(Algorithm1Test, BlockGapsAccepted) {
  std::vector<SeparatorRun> runs = {MakeRun(20, 30, 20), MakeRun(70, 28, 20),
                                    MakeRun(120, 32, 20)};
  // Uniform wide gaps: a regular grid — all are delimiters.
  EXPECT_EQ(SelectDelimiters(runs).size(), 3u);
}

TEST(Algorithm1Test, KneeSeparatesWideFromNarrow) {
  // Two regimes: wide tall-neighbour separators and borderline narrow
  // ones. The wide group should be selected; the narrow one may be left
  // to deeper recursion.
  std::vector<SeparatorRun> runs = {
      MakeRun(10, 60, 20),  MakeRun(100, 55, 20), MakeRun(200, 13, 20),
      MakeRun(240, 14, 20), MakeRun(280, 13, 20)};
  std::vector<size_t> d = SelectDelimiters(runs);
  ASSERT_FALSE(d.empty());
  // The widest runs are always included.
  EXPECT_NE(std::find(d.begin(), d.end(), 0u), d.end());
  EXPECT_NE(std::find(d.begin(), d.end(), 1u), d.end());
}

TEST(Algorithm1Test, LoneWideRunAccepted) {
  std::vector<SeparatorRun> runs = {MakeRun(50, 40, 18)};
  EXPECT_EQ(SelectDelimiters(runs).size(), 1u);
}

TEST(Algorithm1Test, LoneNarrowRunRejected) {
  std::vector<SeparatorRun> runs = {MakeRun(50, 3, 18)};
  EXPECT_TRUE(SelectDelimiters(runs).empty());
}

// --------------------------------------------------------------- Segment --

doc::Document StackedPoster() {
  doc::Document d;
  d.width = 400;
  d.height = 500;
  doc::TextStyle title;
  title.font_size = 30;
  title.bold = true;
  raster::PlaceCenteredLine(&d, "Grand Jazz Festival", 20, 380, 30, title, 0);
  doc::TextStyle body;
  body.font_size = 12;
  raster::PlaceCenteredLine(&d, "Saturday, April 12 at 7:30 PM", 40, 360,
                            140, body, 10);
  raster::PlaceText(&d,
                    "Join us for an evening of live music and great food. "
                    "All ages are welcome and admission is free.",
                    60, 250, 280, body, 20);
  doc::TextStyle org;
  org.font_size = 14;
  raster::PlaceCenteredLine(&d, "Hosted by the Columbus Jazz Society", 40,
                            360, 420, org, 30);
  return d;
}

TEST(SegmentTest, AngularDistanceKeepsQuadrantForNegativeDx) {
  util::BBox region{100, 100, 200, 200};
  // Jittered OCR bbox: centroid 10 units left of the region origin and 30
  // below it. atan2(+dy, -dx) lands in the second quadrant, so the
  // normalized angle exceeds 1 — it must not collapse onto the +y-axis
  // value that clamping dx to a positive floor used to produce.
  doc::AtomicElement left = doc::MakeTextElement("w", {85, 125, 10, 10});
  VisualFeatures f = ComputeVisualFeatures(left, region, 20.0);
  EXPECT_GT(f.angular_distance, 1.0);

  // An element straight below the origin (dx == 0) sits exactly on the
  // +y axis: normalized angle 1. The jittered element must stay clearly
  // distinct from it.
  doc::AtomicElement below = doc::MakeTextElement("w", {95, 125, 10, 10});
  VisualFeatures g = ComputeVisualFeatures(below, region, 20.0);
  EXPECT_NEAR(g.angular_distance, 1.0, 1e-9);
  EXPECT_GT(f.angular_distance, g.angular_distance + 0.05);
}

TEST(SegmentTest, InvariantsHoldOnPoster) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  doc::Document d = StackedPoster();
  auto tree = Segment(d, emb, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->Validate(d).ok());

  // Partition property: leaves cover all elements exactly once.
  std::set<size_t> covered;
  for (size_t leaf : tree->Leaves()) {
    for (size_t e : tree->node(leaf).element_indices) {
      EXPECT_TRUE(covered.insert(e).second) << "element in two leaves";
    }
  }
  EXPECT_EQ(covered.size(), d.elements.size());
}

TEST(SegmentTest, StackedPosterSplitsIntoBlocks) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  doc::Document d = StackedPoster();
  auto tree = Segment(d, emb, {});
  ASSERT_TRUE(tree.ok());
  size_t leaves = tree->Leaves().size();
  EXPECT_GE(leaves, 4u);  // title / time / description / organizer
  EXPECT_LE(leaves, 8u);  // but no word-level shredding
}

TEST(SegmentTest, TitleIsItsOwnBlock) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  doc::Document d = StackedPoster();
  auto tree = Segment(d, emb, {});
  ASSERT_TRUE(tree.ok());
  bool title_alone = false;
  for (size_t leaf : tree->Leaves()) {
    std::string text = d.TextOf(tree->node(leaf).element_indices);
    if (text == "Grand Jazz Festival") title_alone = true;
  }
  EXPECT_TRUE(title_alone);
}

TEST(SegmentTest, EmptyDocumentGivesRootOnly) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  doc::Document d;
  d.width = 100;
  d.height = 100;
  auto tree = Segment(d, emb, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 1u);
}

TEST(SegmentTest, RejectsZeroGeometry) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  doc::Document d;
  EXPECT_FALSE(Segment(d, emb, {}).ok());
}

TEST(SegmentTest, SingleLineIsAtomic) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  doc::Document d;
  d.width = 400;
  d.height = 60;
  doc::TextStyle style;
  style.font_size = 14;
  raster::PlaceLine(&d, "one single line of words here", 10, 20, style, 0);
  auto tree = Segment(d, emb, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Leaves().size(), 1u);
}

TEST(SegmentTest, ClusteringOffDisablesNonCutSplits) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  // Two boxes arranged diagonally: no straight separator between them.
  doc::Document d;
  d.width = 400;
  d.height = 300;
  doc::TextStyle style;
  style.font_size = 12;
  raster::PlaceText(&d, "alpha beta gamma delta epsilon zeta", 10, 10, 150,
                    style, 0);
  raster::PlaceText(&d, "one two three four five six seven", 180, 120, 150,
                    style, 10);
  SegmenterConfig with, without;
  without.enable_visual_clustering = false;
  auto t_with = Segment(d, emb, with);
  auto t_without = Segment(d, emb, without);
  ASSERT_TRUE(t_with.ok());
  ASSERT_TRUE(t_without.ok());
  EXPECT_GE(t_with->Leaves().size(), t_without->Leaves().size());
}

TEST(ClusterElementsTest, SplitsTypographicallyDistinctGroups) {
  doc::Document d;
  d.width = 300;
  d.height = 120;
  doc::TextStyle big;
  big.font_size = 24;
  big.color = util::Crimson();
  doc::TextStyle small;
  small.font_size = 10;
  raster::PlaceLine(&d, "HEAD LINE", 10, 10, big, 0);
  raster::PlaceLine(&d, "tiny body words here", 10, 60, small, 1);
  std::vector<size_t> all = d.TextElementIndices();
  auto clusters = ClusterElements(d, all, {0, 0, 300, 120}, {});
  EXPECT_GE(clusters.size(), 2u);
}

TEST(ClusterElementsTest, HomogeneousParagraphStaysWhole) {
  doc::Document d;
  d.width = 300;
  d.height = 200;
  doc::TextStyle style;
  style.font_size = 11;
  raster::PlaceText(&d,
                    "uniform paragraph text flowing across several lines "
                    "with the same style everywhere in the block",
                    10, 10, 200, style, 0);
  std::vector<size_t> all = d.TextElementIndices();
  auto clusters = ClusterElements(d, all, {0, 0, 300, 200}, {});
  EXPECT_EQ(clusters.size(), 1u);
}

TEST(VisualFeaturesTest, NormalizedToRegion) {
  doc::AtomicElement el = doc::MakeTextElement("w", {50, 50, 10, 10}, {});
  VisualFeatures f = ComputeVisualFeatures(el, {0, 0, 100, 100}, 20.0);
  EXPECT_NEAR(f.centroid_x, 0.55, 1e-9);
  EXPECT_NEAR(f.centroid_y, 0.55, 1e-9);
  EXPECT_NEAR(f.height, 0.5, 1e-9);
}

TEST(VisualDistanceTest, IdenticalElementsAtZero) {
  doc::AtomicElement el = doc::MakeTextElement("w", {50, 50, 10, 10}, {});
  VisualFeatures f = ComputeVisualFeatures(el, {0, 0, 100, 100}, 20.0);
  EXPECT_NEAR(VisualDistance(f, f, el, el, {0, 0, 100, 100}), 0.0, 1e-9);
}

// --------------------------------------------------------- InterestPoints --

TEST(InterestPointsTest, TitleOnParetoFront) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  doc::Document d = StackedPoster();
  auto tree = Segment(d, emb, {});
  ASSERT_TRUE(tree.ok());
  std::vector<size_t> ips = SelectInterestPoints(d, *tree, emb);
  ASSERT_FALSE(ips.empty());
  bool title_is_ip = false;
  for (size_t ip : ips) {
    std::string text = d.TextOf(tree->node(ip).element_indices);
    if (text.find("Jazz Festival") != std::string::npos) title_is_ip = true;
  }
  EXPECT_TRUE(title_is_ip);
  EXPECT_LT(ips.size(), tree->Leaves().size() + 1);
}

TEST(InterestPointsTest, ObjectivesComputed) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  doc::Document d = StackedPoster();
  auto tree = Segment(d, emb, {});
  ASSERT_TRUE(tree.ok());
  for (size_t leaf : tree->Leaves()) {
    BlockObjectives obj = ComputeObjectives(d, *tree, leaf, emb);
    EXPECT_GE(obj.font_height, 0.0);
    EXPECT_LE(obj.coherence, 1.0 + 1e-9);
    EXPECT_LE(obj.neg_word_density, 0.0);
  }
}

// --------------------------------------------------------- PatternLearner --

TEST(PatternLearnerTest, D2PatternsMatchTable3Shape) {
  datasets::HoldoutCorpus holdout =
      datasets::BuildHoldoutCorpus(doc::DatasetId::kD2EventPosters, 0x5EED);
  PatternBook book = LearnPatterns(holdout);
  const LearnedEntityPatterns* time = book.Find("event_time");
  ASSERT_NE(time, nullptr);
  bool timex = false;
  for (const auto& p : time->patterns) {
    timex = timex || p.kind == nlp::PatternKind::kNpWithTimex;
  }
  EXPECT_TRUE(timex);

  const LearnedEntityPatterns* organizer = book.Find("event_organizer");
  ASSERT_NE(organizer, nullptr);
  bool sense = false;
  for (const auto& p : organizer->patterns) {
    sense = sense || p.kind == nlp::PatternKind::kVpWithVerbSense;
  }
  EXPECT_TRUE(sense);

  const LearnedEntityPatterns* place = book.Find("event_place");
  ASSERT_NE(place, nullptr);
  ASSERT_FALSE(place->patterns.empty());
  EXPECT_EQ(place->patterns[0].kind, nlp::PatternKind::kNpWithGeocode);
}

TEST(PatternLearnerTest, D3RegexEntitiesShortCircuit) {
  datasets::HoldoutCorpus holdout = datasets::BuildHoldoutCorpus(
      doc::DatasetId::kD3RealEstateFlyers, 0x5EED);
  PatternBook book = LearnPatterns(holdout);
  ASSERT_NE(book.Find("broker_phone"), nullptr);
  EXPECT_EQ(book.Find("broker_phone")->patterns[0].kind,
            nlp::PatternKind::kPhoneRegex);
  EXPECT_EQ(book.Find("broker_email")->patterns[0].kind,
            nlp::PatternKind::kEmailRegex);
}

TEST(PatternLearnerTest, D3SizeLearnsCdHypernym) {
  datasets::HoldoutCorpus holdout = datasets::BuildHoldoutCorpus(
      doc::DatasetId::kD3RealEstateFlyers, 0x5EED);
  PatternBook book = LearnPatterns(holdout);
  const LearnedEntityPatterns* size = book.Find("property_size");
  ASSERT_NE(size, nullptr);
  ASSERT_EQ(size->patterns.size(), 1u);
  EXPECT_EQ(size->patterns[0].kind, nlp::PatternKind::kNounWithHypernym);
  EXPECT_NE(std::find(size->patterns[0].args.begin(),
                      size->patterns[0].args.end(), "+CD"),
            size->patterns[0].args.end());
}

TEST(PatternLearnerTest, D1UsesFieldDescriptors) {
  datasets::HoldoutCorpus holdout =
      datasets::BuildHoldoutCorpus(doc::DatasetId::kD1TaxForms, 0x5EED);
  PatternBook book = LearnPatterns(holdout);
  EXPECT_EQ(book.entities.size(),
            static_cast<size_t>(datasets::kNumFormFaces *
                                datasets::kFieldsPerFace));
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(book.entities[i].patterns.size(), 1u);
    EXPECT_EQ(book.entities[i].patterns[0].kind,
              nlp::PatternKind::kFieldDescriptor);
  }
}

TEST(PatternLearnerTest, BookCarriesPreparedDescriptors) {
  for (doc::DatasetId id : {doc::DatasetId::kD1TaxForms,
                            doc::DatasetId::kD2EventPosters,
                            doc::DatasetId::kD3RealEstateFlyers}) {
    PatternBook book = LearnPatterns(datasets::BuildHoldoutCorpus(id, 0x5EED));
    ASSERT_FALSE(book.entities.empty());
    size_t descriptors = 0;
    for (const LearnedEntityPatterns& learned : book.entities) {
      ASSERT_EQ(learned.prepared.size(), learned.patterns.size())
          << learned.entity;
      for (size_t i = 0; i < learned.patterns.size(); ++i) {
        EXPECT_EQ(learned.prepared[i],
                  nlp::PrepareDescriptor(learned.patterns[i]))
            << learned.entity << " pattern " << i;
        descriptors += learned.prepared[i].want.empty() ? 0 : 1;
      }
    }
    // D1 searches field descriptors only; D2 and D3 learn none.
    if (id == doc::DatasetId::kD1TaxForms) {
      EXPECT_EQ(descriptors, book.entities.size());
    } else {
      EXPECT_EQ(descriptors, 0u);
    }
  }
}

TEST(PatternsFromMinedTreeTest, MappingByFeature) {
  auto check = [](const char* sexp, nlp::PatternKind kind) {
    auto tree = mining::ParseSExpression(sexp);
    ASSERT_TRUE(tree.ok()) << sexp;
    auto patterns = PatternsFromMinedTree(*tree);
    bool found = false;
    for (const auto& p : patterns) found = found || p.kind == kind;
    EXPECT_TRUE(found) << sexp;
  };
  check("(S (NP NNP geo))", nlp::PatternKind::kNpWithGeocode);
  check("(S (NP CD timex))", nlp::PatternKind::kNpWithTimex);
  check("(S (VP VB sense:captain))", nlp::PatternKind::kVpWithVerbSense);
  check("(S (NP NNP ner:PERSON))", nlp::PatternKind::kNerNgram);
  check("(S (NP JJ NN))", nlp::PatternKind::kNounPhraseModified);
  check("(S (NP NNP NNP))", nlp::PatternKind::kProperNounPhrase);
}

// ---------------------------------------------------------------- Select --

TEST(MultimodalWeightsTest, D2IsVisuallyWeighted) {
  MultimodalWeights w =
      MultimodalWeights::ForDataset(doc::DatasetId::kD2EventPosters);
  EXPECT_NEAR(w.alpha + w.beta + w.gamma + w.nu, 1.0, 1e-9);
  EXPECT_GE(w.beta, w.gamma);  // β, ν ≥ γ for the ornate corpus
  EXPECT_GE(w.nu, w.gamma);
  MultimodalWeights balanced =
      MultimodalWeights::ForDataset(doc::DatasetId::kD1TaxForms);
  EXPECT_DOUBLE_EQ(balanced.alpha, balanced.gamma);
}

TEST(PipelineTest, ExtractsFromCleanPoster) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  PipelineConfig config = DefaultConfigFor(doc::DatasetId::kD2EventPosters);
  config.simulate_ocr = false;
  Vs2 vs2(doc::DatasetId::kD2EventPosters, emb, config);

  doc::Document d = StackedPoster();
  d.id = 99;
  auto result = vs2.Process(d);
  ASSERT_TRUE(result.ok());
  std::map<std::string, std::string> got;
  for (const Extraction& ex : result->extractions) {
    got[ex.entity] = ex.text;
  }
  ASSERT_TRUE(got.count("event_title"));
  EXPECT_NE(got["event_title"].find("Jazz Festival"), std::string::npos);
  ASSERT_TRUE(got.count("event_time"));
  EXPECT_NE(got["event_time"].find("April"), std::string::npos);
  ASSERT_TRUE(got.count("event_organizer"));
  EXPECT_NE(got["event_organizer"].find("Jazz Society"), std::string::npos);
}

TEST(PipelineTest, AtMostOneExtractionPerEntity) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  Vs2 vs2(doc::DatasetId::kD2EventPosters, emb,
          DefaultConfigFor(doc::DatasetId::kD2EventPosters));
  doc::Document d = StackedPoster();
  d.id = 123;
  auto result = vs2.Process(d);
  ASSERT_TRUE(result.ok());
  std::set<std::string> seen;
  for (const Extraction& ex : result->extractions) {
    EXPECT_TRUE(seen.insert(ex.entity).second) << ex.entity;
  }
}

TEST(PipelineTest, DisambiguationModesAllRun) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  doc::Document d = StackedPoster();
  d.id = 5;
  for (DisambiguationMode mode :
       {DisambiguationMode::kMultimodal, DisambiguationMode::kFirstMatch,
        DisambiguationMode::kLesk}) {
    PipelineConfig config = DefaultConfigFor(doc::DatasetId::kD2EventPosters);
    config.select.disambiguation = mode;
    config.simulate_ocr = false;
    Vs2 vs2(doc::DatasetId::kD2EventPosters, emb, config);
    auto result = vs2.Process(d);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->extractions.empty());
  }
}

TEST(PipelineTest, InterestPointsReportedAsTreeNodes) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  PipelineConfig config = DefaultConfigFor(doc::DatasetId::kD2EventPosters);
  config.simulate_ocr = false;
  Vs2 vs2(doc::DatasetId::kD2EventPosters, emb, config);
  doc::Document d = StackedPoster();
  auto result = vs2.Process(d);
  ASSERT_TRUE(result.ok());
  for (size_t ip : result->interest_points) {
    ASSERT_LT(ip, result->tree.size());
    EXPECT_TRUE(result->tree.node(ip).IsLeaf());
  }
}

}  // namespace
}  // namespace vs2::core
