/// Tests for src/embed (embedding space), src/ocr (transcription channel,
/// layout analysis, deskew) and src/datasets (generators, holdout,
/// pretrained embedding).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "datasets/generator.hpp"
#include "datasets/holdout.hpp"
#include "datasets/pretrained.hpp"
#include "embed/embedding.hpp"
#include "ocr/ocr.hpp"
#include "raster/renderer.hpp"
#include "reference/skew_reference.hpp"
#include "util/math.hpp"

namespace vs2 {
namespace {

// ------------------------------------------------------------- Embedding --

TEST(VocabularyTest, InternIsStable) {
  embed::Vocabulary v;
  int a = v.Intern("alpha");
  int b = v.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(v.Intern("alpha"), a);
  EXPECT_EQ(v.Lookup("alpha"), a);
  EXPECT_EQ(v.Lookup("gamma"), -1);
  EXPECT_EQ(v.WordOf(b), "beta");
  EXPECT_EQ(v.size(), 2u);
}

TEST(EmbeddingTest, VectorsAreUnitNorm) {
  embed::Embedding emb(32);
  auto v = emb.Embed("anything");
  double norm = 0;
  for (float x : v) norm += static_cast<double>(x) * x;
  EXPECT_NEAR(norm, 1.0, 1e-5);
  EXPECT_EQ(v.size(), 32u);
}

TEST(EmbeddingTest, NormalizeSubnormalVectorStaysFinite) {
  // Regression: with every component subnormal the squared norm
  // underflows so far that float(1/sqrt(norm)) rounds to +inf, and the
  // fast float scaling path turned the whole vector into inf. The
  // double-path fallback must keep every component finite and the result
  // unit-norm.
  std::vector<float> v(64, 1e-41f);
  embed::Embedding::Normalize(&v);
  double norm = 0.0;
  for (float x : v) {
    ASSERT_TRUE(std::isfinite(x)) << x;
    norm += static_cast<double>(x) * x;
  }
  EXPECT_NEAR(norm, 1.0, 1e-6);

  // Mixed-sign subnormals exercise the same regime with cancellation-free
  // accumulation; signs must survive the rescale.
  std::vector<float> mixed = {1e-41f, -2e-41f, 4e-41f, -1e-40f};
  embed::Embedding::Normalize(&mixed);
  double mixed_norm = 0.0;
  for (float x : mixed) {
    ASSERT_TRUE(std::isfinite(x)) << x;
    mixed_norm += static_cast<double>(x) * x;
  }
  EXPECT_NEAR(mixed_norm, 1.0, 1e-6);
  EXPECT_GT(mixed[0], 0.0f);
  EXPECT_LT(mixed[1], 0.0f);
}

TEST(EmbeddingTest, NormalizeZeroAndEmptyVectorsAreNoOps) {
  std::vector<float> zero(16, 0.0f);
  embed::Embedding::Normalize(&zero);
  for (float x : zero) EXPECT_EQ(x, 0.0f);

  std::vector<float> empty;
  embed::Embedding::Normalize(&empty);  // must not touch v->data()
  EXPECT_TRUE(empty.empty());
}

TEST(EmbeddingTest, HashVectorsRobustToOcrCorruption) {
  embed::Embedding emb(64);
  // Shared trigrams keep the corrupted form near the clean one...
  double corrupted = emb.Similarity("organized", "orqanized");
  // ...and far from an unrelated word.
  double unrelated = emb.Similarity("organized", "basement");
  EXPECT_GT(corrupted, unrelated + 0.2);
}

TEST(EmbeddingTest, PpmiTrainingGroupsTopics) {
  embed::Embedding emb(64);
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 60; ++i) {
    corpus.push_back({"jazz", "concert", "music", "band", "stage"});
    corpus.push_back({"kitchen", "granite", "bathroom", "garage", "bedroom"});
  }
  emb.TrainPpmi(corpus, 4);
  EXPECT_GT(emb.TrainedVocabSize(), 8u);
  double same_topic = emb.Similarity("jazz", "music");
  double cross_topic = emb.Similarity("jazz", "granite");
  EXPECT_GT(same_topic, cross_topic + 0.2);
}

TEST(EmbeddingTest, TextSimilarityReflectsOverlap) {
  embed::Embedding emb(64);
  double same = emb.TextSimilarity("annual jazz festival",
                                   "annual jazz festival");
  EXPECT_NEAR(same, 1.0, 1e-5);
  EXPECT_EQ(emb.EmbedText("").size(), 64u);
  double zero_norm = 0.0;
  for (float x : emb.EmbedText("")) zero_norm += std::abs(x);
  EXPECT_DOUBLE_EQ(zero_norm, 0.0);
}

TEST(PretrainedTest, SingletonTrainsOnce) {
  const embed::Embedding& a = datasets::PretrainedEmbedding();
  const embed::Embedding& b = datasets::PretrainedEmbedding();
  EXPECT_EQ(&a, &b);
  EXPECT_GT(a.TrainedVocabSize(), 200u);
  // Topically related generator vocabulary is close in the space.
  EXPECT_GT(a.Similarity("festival", "concert"),
            a.Similarity("festival", "deduction"));
}

// ------------------------------------------------------------------- OCR --

doc::Document CleanDoc(double quality) {
  doc::Document d;
  d.width = 300;
  d.height = 200;
  d.capture_quality = quality;
  d.id = 42;
  doc::TextStyle style;
  style.font_size = 12;
  raster::PlaceLine(&d, "the quick brown fox jumps over the lazy dog", 10,
                    10, style, 0);
  raster::PlaceLine(&d, "pack my box with five dozen liquor jugs", 10, 40,
                    style, 1);
  return d;
}

TEST(OcrTest, PerfectQualityPreservesText) {
  doc::Document d = CleanDoc(1.0);
  doc::Document observed = ocr::Transcribe(d, {});
  ASSERT_EQ(observed.elements.size(), d.elements.size());
  for (size_t i = 0; i < d.elements.size(); ++i) {
    EXPECT_EQ(observed.elements[i].text, d.elements[i].text);
  }
}

TEST(OcrTest, LowQualityCorruptsText) {
  doc::Document d = CleanDoc(0.3);
  doc::Document observed = ocr::Transcribe(d, {});
  size_t changed = 0;
  size_t common = std::min(observed.elements.size(), d.elements.size());
  // Count exact-text survivors among the first elements (drops/merges may
  // change counts).
  std::multiset<std::string> orig, got;
  for (const auto& el : d.elements) orig.insert(el.text);
  for (const auto& el : observed.elements) got.insert(el.text);
  for (const auto& w : orig) {
    if (!got.count(w)) ++changed;
  }
  (void)common;
  EXPECT_GT(changed, 2u);
}

TEST(OcrTest, DeterministicForSameDocument) {
  doc::Document d = CleanDoc(0.5);
  doc::Document a = ocr::Transcribe(d, {});
  doc::Document b = ocr::Transcribe(d, {});
  ASSERT_EQ(a.elements.size(), b.elements.size());
  for (size_t i = 0; i < a.elements.size(); ++i) {
    EXPECT_EQ(a.elements[i].text, b.elements[i].text);
  }
}

TEST(OcrTest, AnnotationsPassThrough) {
  doc::Document d = CleanDoc(0.5);
  d.annotations.push_back({"x", {10, 10, 50, 10}, "the quick"});
  doc::Document observed = ocr::Transcribe(d, {});
  ASSERT_EQ(observed.annotations.size(), 1u);
  EXPECT_EQ(observed.annotations[0].text, "the quick");
}

TEST(OcrTest, DeskewEstimatesRotation) {
  doc::Document d = CleanDoc(1.0);
  raster::RotateDocument(&d, 3.0);
  double skew = ocr::EstimateSkewDegrees(d);
  EXPECT_NEAR(skew, 3.0, 1.2);
  // Transcribe corrects most of it.
  doc::Document observed = ocr::Transcribe(d, {});
  EXPECT_LT(std::abs(ocr::EstimateSkewDegrees(observed)), 1.0);
}

// The sorted sweep must return the all-pairs scan's value bit for bit.
void ExpectSameSkew(const doc::Document& d, const std::string& what) {
  double fast = ocr::EstimateSkewDegrees(d);
  double oracle = reference::AllPairsSkewDegrees(d);
  EXPECT_EQ(std::bit_cast<uint64_t>(fast), std::bit_cast<uint64_t>(oracle))
      << what << ": sweep " << fast << " vs all-pairs " << oracle;
}

TEST(OcrSkewTest, SweepMatchesAllPairsOnDatasets) {
  datasets::GeneratorConfig gc;
  gc.num_documents = 8;
  gc.seed = 99;
  for (doc::DatasetId id : {doc::DatasetId::kD1TaxForms,
                            doc::DatasetId::kD2EventPosters,
                            doc::DatasetId::kD3RealEstateFlyers}) {
    for (const doc::Document& d : datasets::Generate(id, gc).documents) {
      std::string what = std::string(doc::DatasetName(id)) + " #" +
                         std::to_string(d.id);
      ExpectSameSkew(d, what);
      ExpectSameSkew(ocr::Transcribe(d, {}), what + " transcribed");
      for (double degrees : {-4.0, 2.5}) {
        doc::Document rotated = d;
        raster::RotateDocument(&rotated, degrees);
        ExpectSameSkew(rotated, what + " rotated");
      }
    }
  }
}

TEST(OcrSkewTest, SweepMatchesAllPairsOnRandomBoxes) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    doc::Document d;
    d.width = 400;
    d.height = 400;
    int n = rng.UniformInt(0, 60);
    for (int k = 0; k < n; ++k) {
      doc::AtomicElement e;
      if (rng.Bernoulli(0.1)) e.kind = doc::ElementKind::kImage;
      // Integer lattice coordinates make equal gaps (ties) common.
      e.bbox = {static_cast<double>(rng.UniformInt(0, 40) * 10),
                static_cast<double>(rng.UniformInt(0, 40) * 10),
                static_cast<double>(rng.UniformInt(0, 6) * 5),
                static_cast<double>(rng.UniformInt(1, 4) * 5)};
      if (trial % 2 == 1) {
        e.bbox.x += rng.UniformDouble(-3.0, 3.0);
        e.bbox.y += rng.UniformDouble(-3.0, 3.0);
      }
      d.elements.push_back(e);
    }
    ExpectSameSkew(d, "trial " + std::to_string(trial));
  }
}

TEST(OcrSkewTest, EqualGapsPickTheLowestElementIndex) {
  // Element 0 has two right neighbours at the same gap: element 1 slightly
  // below, element 2 slightly above. The lower index (1) decides its angle,
  // so every element's angle is positive (y grows downward) and so is the
  // median.
  doc::Document d;
  d.width = 400;
  d.height = 400;
  auto add = [&d](double x, double y) {
    doc::AtomicElement e;
    e.text = "w";
    e.bbox = {x, y, 20, 10};
    d.elements.push_back(e);
  };
  for (int row = 0; row < 4; ++row) {
    double y = 40.0 * row;
    add(0, y);        // a
    add(30, y + 4);   // lower index, below a
    add(30, y - 4);   // same gap, above a
  }
  ExpectSameSkew(d, "tie");
  EXPECT_GT(ocr::EstimateSkewDegrees(d), 0.0);
}

TEST(OcrSkewTest, RoundedEqualGapsPickTheLowestElementIndex) {
  // Two left edges one ulp apart just below 64 give the same rounded gap
  // from a right edge just below 0, because the gap lies in a coarser
  // binade than the edges. The sweep meets them in left-edge order, so the
  // element with the larger edge and the lower index comes second and must
  // still win the tie.
  doc::AtomicElement a;
  a.text = "w";
  a.bbox = {-10.0, 0.0, 9.9, 25.0};
  const double right = a.bbox.right();
  double hi = 64.0;
  double lo = std::nextafter(hi, 0.0);
  for (int k = 0; k < 64 && hi - right != lo - right; ++k) {
    hi = lo;
    lo = std::nextafter(hi, 0.0);
  }
  ASSERT_EQ(hi - right, lo - right) << "no rounded tie below 64";
  ASSERT_LT(lo, hi);

  doc::Document d;
  d.width = 400;
  d.height = 400;
  for (int row = 0; row < 4; ++row) {
    const double y = 100.0 * row;
    a.bbox.y = y;
    d.elements.push_back(a);
    doc::AtomicElement b = a;
    b.bbox = {hi, y - 4.0, 10.0, 25.0};  // lower index, above a
    d.elements.push_back(b);
    b.bbox = {lo, y + 4.0, 10.0, 25.0};  // same rounded gap, below a
    d.elements.push_back(b);
  }
  ExpectSameSkew(d, "rounded tie");
  EXPECT_LT(ocr::EstimateSkewDegrees(d), 0.0);
}

TEST(OcrLayoutTest, TwoSeparatedLinesBecomeTwoBlocks) {
  doc::Document d = CleanDoc(1.0);  // lines 30 units apart, ~14 tall
  auto blocks = ocr::AnalyzeLayout(d);
  EXPECT_EQ(blocks.size(), 2u);
}

TEST(OcrLayoutTest, TightLeadingMergesParagraph) {
  doc::Document d;
  d.width = 300;
  d.height = 200;
  doc::TextStyle style;
  style.font_size = 12;
  raster::PlaceLine(&d, "line one of paragraph", 10, 10, style, 0);
  raster::PlaceLine(&d, "line two of paragraph", 10, 27, style, 1);
  auto blocks = ocr::AnalyzeLayout(d);
  EXPECT_EQ(blocks.size(), 1u);
}

TEST(OcrLayoutTest, ColumnsSplitAtWideXGaps) {
  doc::Document d;
  d.width = 600;
  d.height = 100;
  doc::TextStyle style;
  style.font_size = 12;
  raster::PlaceLine(&d, "left column text", 10, 10, style, 0);
  raster::PlaceLine(&d, "right column text", 400, 10, style, 1);
  auto blocks = ocr::AnalyzeLayout(d);
  EXPECT_EQ(blocks.size(), 2u);
}

// -------------------------------------------------------------- Datasets --

class GeneratorTest : public ::testing::TestWithParam<doc::DatasetId> {};

TEST_P(GeneratorTest, ProducesRequestedCount) {
  datasets::GeneratorConfig config;
  config.num_documents = 12;
  doc::Corpus corpus = datasets::Generate(GetParam(), config);
  EXPECT_EQ(corpus.documents.size(), 12u);
  EXPECT_EQ(corpus.dataset, GetParam());
  EXPECT_FALSE(corpus.entity_types.empty());
}

TEST_P(GeneratorTest, DocumentsAreAnnotated) {
  datasets::GeneratorConfig config;
  config.num_documents = 8;
  doc::Corpus corpus = datasets::Generate(GetParam(), config);
  for (const doc::Document& d : corpus.documents) {
    EXPECT_FALSE(d.elements.empty());
    EXPECT_FALSE(d.annotations.empty());
    EXPECT_GT(d.width, 0);
    EXPECT_GT(d.height, 0);
    for (const doc::Annotation& a : d.annotations) {
      EXPECT_FALSE(a.bbox.Empty());
      EXPECT_FALSE(a.text.empty());
      // Every annotation label is in the corpus vocabulary.
      EXPECT_NE(std::find(corpus.entity_types.begin(),
                          corpus.entity_types.end(), a.entity_type),
                corpus.entity_types.end());
    }
  }
}

TEST_P(GeneratorTest, DeterministicForSeed) {
  datasets::GeneratorConfig config;
  config.num_documents = 4;
  config.seed = 777;
  doc::Corpus a = datasets::Generate(GetParam(), config);
  doc::Corpus b = datasets::Generate(GetParam(), config);
  ASSERT_EQ(a.documents.size(), b.documents.size());
  for (size_t i = 0; i < a.documents.size(); ++i) {
    ASSERT_EQ(a.documents[i].elements.size(), b.documents[i].elements.size());
    EXPECT_EQ(a.documents[i].FullText(), b.documents[i].FullText());
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, GeneratorTest,
                         ::testing::Values(doc::DatasetId::kD1TaxForms,
                                           doc::DatasetId::kD2EventPosters,
                                           doc::DatasetId::kD3RealEstateFlyers));

TEST(GeneratorD1Test, TwentyFacesWithFixedFieldCount) {
  datasets::GeneratorConfig config;
  config.num_documents = 40;
  doc::Corpus corpus = datasets::GenerateD1(config);
  std::set<int> faces;
  for (const doc::Document& d : corpus.documents) {
    faces.insert(d.template_id);
    EXPECT_EQ(d.annotations.size(),
              static_cast<size_t>(datasets::kFieldsPerFace));
    EXPECT_EQ(d.format, doc::DocumentFormat::kScannedForm);
  }
  EXPECT_EQ(faces.size(), static_cast<size_t>(datasets::kNumFormFaces));
}

TEST(GeneratorD1Test, FaceLabelsDeterministic) {
  auto a = datasets::FormFaceFieldLabels(3);
  auto b = datasets::FormFaceFieldLabels(3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), static_cast<size_t>(datasets::kFieldsPerFace));
  EXPECT_NE(datasets::FormFaceFieldLabels(4), a);
}

TEST(GeneratorD2Test, MobileCaptureFractionRespected) {
  datasets::GeneratorConfig config;
  config.num_documents = 200;
  config.mobile_capture_fraction = 0.628;
  doc::Corpus corpus = datasets::GenerateD2(config);
  size_t mobile = 0;
  for (const doc::Document& d : corpus.documents) {
    if (d.format == doc::DocumentFormat::kMobileCapture) {
      ++mobile;
      EXPECT_LT(d.capture_quality, 0.9);
    } else {
      EXPECT_EQ(d.format, doc::DocumentFormat::kDigitalPdf);
      EXPECT_GE(d.capture_quality, 0.9);
    }
  }
  EXPECT_NEAR(static_cast<double>(mobile) / 200.0, 0.628, 0.09);
}

TEST(GeneratorD2Test, FiveEntityTypes) {
  auto specs = datasets::EntitySpecsFor(doc::DatasetId::kD2EventPosters);
  EXPECT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0].name, "event_title");
}

TEST(GeneratorD3Test, HtmlWithMarkupHints) {
  datasets::GeneratorConfig config;
  config.num_documents = 5;
  doc::Corpus corpus = datasets::GenerateD3(config);
  for (const doc::Document& d : corpus.documents) {
    EXPECT_TRUE(d.HasMarkup());
    bool any_h1 = false;
    for (const auto& el : d.elements) any_h1 = any_h1 || el.markup_hint == 1;
    EXPECT_TRUE(any_h1);
    EXPECT_EQ(d.annotations.size(), 6u);
  }
}

TEST(HoldoutTest, CoversEveryEntity) {
  for (doc::DatasetId id : {doc::DatasetId::kD1TaxForms,
                            doc::DatasetId::kD2EventPosters,
                            doc::DatasetId::kD3RealEstateFlyers}) {
    datasets::HoldoutCorpus corpus = datasets::BuildHoldoutCorpus(id, 7, 10);
    for (const datasets::EntitySpec& spec : datasets::EntitySpecsFor(id)) {
      EXPECT_FALSE(corpus.EntriesFor(spec.name).empty())
          << spec.name << " has no holdout entries";
    }
  }
}

TEST(HoldoutTest, D1EntriesAreDescriptors) {
  datasets::HoldoutCorpus corpus =
      datasets::BuildHoldoutCorpus(doc::DatasetId::kD1TaxForms, 7);
  EXPECT_EQ(corpus.entries.size(),
            static_cast<size_t>(datasets::kNumFormFaces *
                                datasets::kFieldsPerFace));
}

TEST(HoldoutTest, SourcesMatchTable2) {
  auto d2 = datasets::HoldoutSources(doc::DatasetId::kD2EventPosters);
  ASSERT_EQ(d2.size(), 2u);
  EXPECT_STREQ(d2[0].website, "allevents.in");
  EXPECT_STREQ(d2[1].website, "dl.acm.org");
  auto d1 = datasets::HoldoutSources(doc::DatasetId::kD1TaxForms);
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_STREQ(d1[0].website, "irs.gov");
}

}  // namespace
}  // namespace vs2
