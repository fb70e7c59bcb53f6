/// Tests for src/triage: classifier features, lane routing (pinned
/// decisions per generator), the hoisted XY-cut splitter, force-lane
/// override equivalence, and the FAST lane's descriptor-indexed search
/// (DESIGN.md §16).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/pipeline.hpp"
#include "core/segmenter.hpp"
#include "core/select.hpp"
#include "datasets/generator.hpp"
#include "datasets/pretrained.hpp"
#include "nlp/analyzer.hpp"
#include "nlp/pattern.hpp"
#include "triage/features.hpp"
#include "triage/triage.hpp"
#include "triage/xycut.hpp"
#include "util/strings.hpp"

namespace vs2::triage {
namespace {

doc::Corpus SmallCorpus(doc::DatasetId dataset, size_t n, uint64_t seed) {
  datasets::GeneratorConfig gc;
  gc.num_documents = n;
  gc.seed = seed;
  return datasets::Generate(dataset, gc);
}

doc::Document NearBlankPage(size_t stray_marks) {
  doc::Document d;
  d.id = 7001;
  d.dataset = doc::DatasetId::kD1TaxForms;
  d.width = 612.0;
  d.height = 792.0;
  for (size_t i = 0; i < stray_marks; ++i) {
    doc::AtomicElement el;
    el.kind = doc::ElementKind::kText;
    el.text = util::Format("%zu", i);
    el.bbox = {280.0 + 30.0 * i, 760.0, 20.0, 12.0};
    d.elements.push_back(el);
  }
  return d;
}

/// A hand-built 4x3 form grid: 12 uniform 40x10 labels on a regular
/// vertical rhythm. Deterministic input for the feature golden values.
doc::Document GridFixture() {
  doc::Document d;
  d.id = 7002;
  d.dataset = doc::DatasetId::kD1TaxForms;
  d.width = 400.0;
  d.height = 400.0;
  for (int row = 0; row < 4; ++row) {
    for (int col = 0; col < 3; ++col) {
      doc::AtomicElement el;
      el.kind = doc::ElementKind::kText;
      el.text = util::Format("cell%d%d", row, col);
      el.bbox = {40.0 + col * 120.0, 50.0 + row * 90.0, 40.0, 10.0};
      d.elements.push_back(el);
    }
  }
  return d;
}

// ------------------------------------------------------------- Features --

TEST(TriageFeaturesTest, GoldenValuesOnGridFixture) {
  doc::Document d = GridFixture();
  TriageFeatures f = ComputeTriageFeatures(d, raster::GridScale{0.125});
  EXPECT_EQ(f.element_count, 12u);
  EXPECT_EQ(f.text_count, 12u);
  EXPECT_DOUBLE_EQ(f.median_height, 10.0);
  EXPECT_DOUBLE_EQ(f.height_cv, 0.0);  // perfectly uniform type size
  EXPECT_DOUBLE_EQ(f.mean_aspect, 4.0);
  // Four rows of boxes -> four occupied bands -> three interior clear
  // bands plus none at the cropped content edges.
  EXPECT_EQ(f.row_bands, 3);
  EXPECT_NEAR(f.row_band_spacing_cv, 0.0, 1e-9);  // regular rhythm
  EXPECT_GT(f.clear_row_frac, 0.5);  // 10-unit type in 90-unit pitch
  EXPECT_GT(f.occupancy, 0.0);
  EXPECT_LT(f.occupancy, 0.5);
  EXPECT_GT(f.content_fill, 0.3);
  EXPECT_LT(f.content_fill, 0.6);
}

TEST(TriageFeaturesTest, EmptyDocumentIsAllZeros) {
  TriageFeatures f =
      ComputeTriageFeatures(NearBlankPage(0), raster::GridScale{0.125});
  EXPECT_EQ(f.element_count, 0u);
  EXPECT_DOUBLE_EQ(f.occupancy, 0.0);
  EXPECT_EQ(f.row_bands, 0);
}

TEST(TriageFeaturesTest, ToJsonIsWellFormed) {
  TriageFeatures f =
      ComputeTriageFeatures(GridFixture(), raster::GridScale{0.125});
  std::string json = f.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"element_count\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"row_bands\":3"), std::string::npos) << json;
}

// -------------------------------------------------------------- Routing --

TEST(TriageRouteTest, PinnedLanesPerGenerator) {
  TriageConfig config;
  config.mode = TriageMode::kAuto;
  // D1 tax forms: every document routes FAST.
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD1TaxForms, 8, 2019).documents) {
    EXPECT_EQ(Classify(d, config).lane, Lane::kFast) << "doc " << d.id;
  }
  // D2 posters and D3 flyers: every document routes FULL.
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD2EventPosters, 8, 2019).documents) {
    EXPECT_EQ(Classify(d, config).lane, Lane::kFull) << "doc " << d.id;
  }
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD3RealEstateFlyers, 8, 2019).documents) {
    EXPECT_EQ(Classify(d, config).lane, Lane::kFull) << "doc " << d.id;
  }
  // Near-blank pages route SKIP.
  EXPECT_EQ(Classify(NearBlankPage(0), config).lane, Lane::kSkip);
  EXPECT_EQ(Classify(NearBlankPage(2), config).lane, Lane::kSkip);
}

TEST(TriageRouteTest, MisrouteAccountingOnMixedCorpus) {
  TriageConfig config;
  config.mode = TriageMode::kAuto;
  size_t lanes[3] = {0, 0, 0};
  size_t misroutes = 0;
  auto route = [&](const doc::Document& d, Lane expected) {
    Lane lane = Classify(d, config).lane;
    ++lanes[static_cast<size_t>(lane)];
    if (lane != expected) ++misroutes;
  };
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD1TaxForms, 6, 77).documents) {
    route(d, Lane::kFast);
  }
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD2EventPosters, 6, 77).documents) {
    route(d, Lane::kFull);
  }
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD3RealEstateFlyers, 6, 77).documents) {
    route(d, Lane::kFull);
  }
  route(NearBlankPage(1), Lane::kSkip);
  EXPECT_EQ(misroutes, 0u);
  EXPECT_EQ(lanes[static_cast<size_t>(Lane::kSkip)], 1u);
  EXPECT_EQ(lanes[static_cast<size_t>(Lane::kFast)], 6u);
  EXPECT_EQ(lanes[static_cast<size_t>(Lane::kFull)], 12u);
}

TEST(TriageRouteTest, ForceModesPinTheLane) {
  TriageConfig config;
  doc::Document d = GridFixture();
  config.mode = TriageMode::kForceSkip;
  EXPECT_EQ(Classify(d, config).lane, Lane::kSkip);
  EXPECT_TRUE(Classify(d, config).forced);
  config.mode = TriageMode::kForceFast;
  EXPECT_EQ(Classify(d, config).lane, Lane::kFast);
  config.mode = TriageMode::kForceFull;
  EXPECT_EQ(Classify(d, config).lane, Lane::kFull);
  // Features are still computed under force modes (the A/B payload).
  EXPECT_EQ(Classify(d, config).features.element_count, 12u);
}

TEST(TriageRouteTest, ParseTriageModeNamesRoundTrip) {
  TriageMode mode = TriageMode::kOff;
  EXPECT_TRUE(ParseTriageMode("auto", &mode));
  EXPECT_EQ(mode, TriageMode::kAuto);
  EXPECT_TRUE(ParseTriageMode("skip", &mode));
  EXPECT_EQ(mode, TriageMode::kForceSkip);
  EXPECT_TRUE(ParseTriageMode("fast", &mode));
  EXPECT_EQ(mode, TriageMode::kForceFast);
  EXPECT_TRUE(ParseTriageMode("full", &mode));
  EXPECT_EQ(mode, TriageMode::kForceFull);
  EXPECT_TRUE(ParseTriageMode("off", &mode));
  EXPECT_EQ(mode, TriageMode::kOff);
  mode = TriageMode::kAuto;
  EXPECT_FALSE(ParseTriageMode("warp", &mode));
  EXPECT_EQ(mode, TriageMode::kAuto);  // untouched on failure
}

// --------------------------------------------------------------- XY-cut --

TEST(XYCutTest, LayoutTreeLeavesMatchPartitionGroups) {
  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD1TaxForms, 3, 11).documents) {
    std::vector<std::vector<size_t>> groups = XYCutPartition(d);
    doc::LayoutTree tree = XYCutLayoutTree(d);
    std::set<std::set<size_t>> group_sets;
    for (const auto& g : groups) {
      group_sets.insert(std::set<size_t>(g.begin(), g.end()));
    }
    std::set<std::set<size_t>> leaf_sets;
    for (size_t leaf : tree.Leaves()) {
      const auto& idx = tree.node(leaf).element_indices;
      leaf_sets.insert(std::set<size_t>(idx.begin(), idx.end()));
    }
    EXPECT_EQ(group_sets, leaf_sets);
    EXPECT_TRUE(tree.Validate(d).ok());
  }
}

TEST(XYCutTest, SingleElementDocumentIsOneLeaf) {
  doc::Document d = NearBlankPage(1);
  std::vector<std::vector<size_t>> groups = XYCutPartition(d);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], std::vector<size_t>{0});
}

// -------------------------------------------- Prepared descriptor search --

TEST(PreparedDescriptorTest, WithinEditBudgetMatchesLevenshtein) {
  const char* words[] = {"total",    "tota1",   "amount", "amovnt",
                         "due",      "d",       "",       "propertyaddress",
                         "pr0perty", "address", "addres", "organizer"};
  for (const char* a : words) {
    for (const char* b : words) {
      for (size_t budget = 0; budget <= 2; ++budget) {
        EXPECT_EQ(nlp::WithinEditBudget(a, b, budget),
                  util::Levenshtein(a, b) <= budget)
            << a << " vs " << b << " budget " << budget;
      }
    }
  }
}

TEST(PreparedDescriptorTest, MatchesIdenticalToGenericMatcher) {
  nlp::SyntacticPattern pattern;
  pattern.kind = nlp::PatternKind::kFieldDescriptor;
  pattern.args = {"Total Amount Due"};
  nlp::PreparedDescriptor prep = nlp::PrepareDescriptor(pattern);
  ASSERT_EQ(prep.want.size(), 3u);

  const char* texts[] = {
      "total amount due 1250",
      "Total Amount Due 1250 and total amount due again",
      "subtotal amount due",       // leading token differs beyond budget
      "tota1 amovnt due 99",       // OCR-corrupted within budget
      "nothing relevant here",
      "total amount",              // truncated descriptor
      "due amount total",          // right tokens, wrong order
  };
  for (const char* text : texts) {
    nlp::AnalyzedText analyzed = nlp::Analyze(text);
    std::vector<nlp::PatternMatch> generic =
        nlp::MatchPattern(analyzed, pattern);
    std::vector<nlp::PatternMatch> prepared =
        nlp::MatchPreparedDescriptor(analyzed, prep);
    ASSERT_EQ(generic.size(), prepared.size()) << text;
    for (size_t i = 0; i < generic.size(); ++i) {
      EXPECT_EQ(generic[i].begin, prepared[i].begin) << text;
      EXPECT_EQ(generic[i].end, prepared[i].end) << text;
      EXPECT_DOUBLE_EQ(generic[i].score, prepared[i].score) << text;
    }
    // The length prefilter never rejects a text the matcher accepts.
    if (!generic.empty()) {
      EXPECT_TRUE(nlp::DescriptorMayMatch(nlp::TokenLengthMask(analyzed),
                                          prep))
          << text;
    }
  }
}

TEST(PreparedDescriptorTest, NonDescriptorPatternsPrepareEmpty) {
  nlp::SyntacticPattern np;
  np.kind = nlp::PatternKind::kNounPhraseModified;
  EXPECT_TRUE(nlp::PrepareDescriptor(np).want.empty());
  nlp::SyntacticPattern empty_descriptor;
  empty_descriptor.kind = nlp::PatternKind::kFieldDescriptor;
  EXPECT_TRUE(nlp::PrepareDescriptor(empty_descriptor).want.empty());
}

// ------------------------------------------------------ Pipeline wiring --

struct ExtractionKey {
  std::string entity, text;
  double x, y, w, h, score;
  bool operator==(const ExtractionKey&) const = default;
};

std::vector<ExtractionKey> Keys(const std::vector<core::Extraction>& exs) {
  std::vector<ExtractionKey> keys;
  for (const core::Extraction& ex : exs) {
    keys.push_back({ex.entity, ex.text, ex.match_bbox.x, ex.match_bbox.y,
                    ex.match_bbox.width, ex.match_bbox.height, ex.score});
  }
  return keys;
}

TEST(TriagePipelineTest, ForceFullIsBitIdenticalToTriageOff) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  core::PipelineConfig config =
      core::DefaultConfigFor(doc::DatasetId::kD2EventPosters);
  core::Vs2 vs2(doc::DatasetId::kD2EventPosters, emb, config);
  core::ProcessOptions full;
  full.triage.emplace().mode = TriageMode::kForceFull;

  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD2EventPosters, 3, 42).documents) {
    auto off = vs2.Process(d);          // triage off: the seed path
    auto forced = vs2.Process(d, full);
    ASSERT_TRUE(off.ok());
    ASSERT_TRUE(forced.ok());
    EXPECT_EQ(off->tree.size(), forced->tree.size());
    EXPECT_EQ(off->interest_points, forced->interest_points);
    EXPECT_EQ(Keys(off->extractions), Keys(forced->extractions));
    EXPECT_EQ(forced->triage.lane, Lane::kFull);
    EXPECT_TRUE(forced->triage.forced);
  }
}

TEST(TriagePipelineTest, SkipLaneReturnsRootOnlyTree) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  core::PipelineConfig config =
      core::DefaultConfigFor(doc::DatasetId::kD2EventPosters);
  config.simulate_ocr = false;  // observed == input, element counts compare
  core::Vs2 vs2(doc::DatasetId::kD2EventPosters, emb, config);
  core::ProcessOptions skip;
  skip.triage.emplace().mode = TriageMode::kForceSkip;

  doc::Corpus corpus = SmallCorpus(doc::DatasetId::kD2EventPosters, 1, 5);
  auto r = vs2.Process(corpus.documents[0], skip);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->tree.size(), 1u);  // root only
  EXPECT_TRUE(r->extractions.empty());
  EXPECT_TRUE(r->interest_points.empty());
  EXPECT_EQ(r->triage.lane, Lane::kSkip);
  // The SKIP lane still observes: the result carries the transcription.
  EXPECT_EQ(r->observed.elements.size(),
            corpus.documents[0].elements.size());
}

TEST(TriagePipelineTest, AutoRoutesD1FastWithLaneInResult) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  core::PipelineConfig config =
      core::DefaultConfigFor(doc::DatasetId::kD1TaxForms);
  config.triage.mode = TriageMode::kAuto;
  core::Vs2 vs2(doc::DatasetId::kD1TaxForms, emb, config);

  doc::Corpus corpus = SmallCorpus(doc::DatasetId::kD1TaxForms, 2, 2019);
  for (const doc::Document& d : corpus.documents) {
    auto r = vs2.Process(d);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->triage.lane, Lane::kFast);
    EXPECT_FALSE(r->triage.forced);
    EXPECT_GT(r->triage.features.element_count, 0u);
    EXPECT_FALSE(r->extractions.empty());
  }
}

TEST(TriagePipelineTest, DescriptorIndexSelectsIdenticalExtractions) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  core::PipelineConfig config =
      core::DefaultConfigFor(doc::DatasetId::kD1TaxForms);
  core::Vs2 vs2(doc::DatasetId::kD1TaxForms, emb, config);
  std::vector<datasets::EntitySpec> specs =
      datasets::EntitySpecsFor(doc::DatasetId::kD1TaxForms);

  for (const doc::Document& d :
       SmallCorpus(doc::DatasetId::kD1TaxForms, 2, 9).documents) {
    doc::LayoutTree tree = XYCutLayoutTree(d);
    core::SelectConfig generic = config.select;
    core::SelectConfig indexed = config.select;
    indexed.descriptor_index = true;
    std::vector<core::Extraction> a = core::SelectEntities(
        d, tree, vs2.pattern_book(), specs, emb, generic);
    std::vector<core::Extraction> b = core::SelectEntities(
        d, tree, vs2.pattern_book(), specs, emb, indexed);
    EXPECT_EQ(Keys(a), Keys(b));
    EXPECT_FALSE(a.empty());
  }
}

}  // namespace
}  // namespace vs2::triage
