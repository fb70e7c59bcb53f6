/// Cross-module integration tests: full-pipeline invariants swept across
/// datasets, noise levels and ablation configurations; JSON round-trips
/// feeding the pipeline; the Eq. 2 weight tuner; end-to-end determinism.

#include <gtest/gtest.h>

#include <set>

#include "core/pipeline.hpp"
#include "core/weight_tuner.hpp"
#include "datasets/generator.hpp"
#include "datasets/pretrained.hpp"
#include "doc/serialization.hpp"
#include "eval/metrics.hpp"
#include "nlp/analyzer.hpp"
#include "ocr/ocr.hpp"
#include "util/rng.hpp"

namespace vs2 {
namespace {

// ---------------------------------------------------------- Serialization --

TEST(SerializationTest, RoundTripPreservesDocument) {
  datasets::GeneratorConfig gc;
  gc.num_documents = 3;
  for (doc::DatasetId id : {doc::DatasetId::kD1TaxForms,
                            doc::DatasetId::kD2EventPosters,
                            doc::DatasetId::kD3RealEstateFlyers}) {
    doc::Corpus corpus = datasets::Generate(id, gc);
    for (const doc::Document& original : corpus.documents) {
      std::string json = doc::ToJson(original);
      auto parsed = doc::FromJson(json);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(parsed->id, original.id);
      EXPECT_EQ(parsed->dataset, original.dataset);
      EXPECT_EQ(parsed->format, original.format);
      EXPECT_EQ(parsed->template_id, original.template_id);
      ASSERT_EQ(parsed->elements.size(), original.elements.size());
      for (size_t i = 0; i < original.elements.size(); ++i) {
        EXPECT_EQ(parsed->elements[i].text, original.elements[i].text);
        EXPECT_EQ(parsed->elements[i].kind, original.elements[i].kind);
        EXPECT_NEAR(parsed->elements[i].bbox.x, original.elements[i].bbox.x,
                    1e-3);
        EXPECT_NEAR(parsed->elements[i].bbox.height,
                    original.elements[i].bbox.height, 1e-3);
        EXPECT_EQ(parsed->elements[i].markup_hint,
                  original.elements[i].markup_hint);
      }
      ASSERT_EQ(parsed->annotations.size(), original.annotations.size());
      for (size_t i = 0; i < original.annotations.size(); ++i) {
        EXPECT_EQ(parsed->annotations[i].entity_type,
                  original.annotations[i].entity_type);
        EXPECT_EQ(parsed->annotations[i].text, original.annotations[i].text);
      }
      // Reading order — and hence all downstream text — survives.
      EXPECT_EQ(parsed->FullText(), original.FullText());
    }
  }
}

TEST(SerializationTest, EscapedStringsSurvive) {
  doc::Document d;
  d.width = 100;
  d.height = 100;
  d.elements.push_back(doc::MakeTextElement("quote\"back\\slash\ttab",
                                            {1, 2, 3, 4}, {}));
  auto parsed = doc::FromJson(doc::ToJson(d));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->elements[0].text, "quote\"back\\slash\ttab");
}

TEST(SerializationTest, RejectsMalformedJson) {
  EXPECT_FALSE(doc::FromJson("").ok());
  EXPECT_FALSE(doc::FromJson("{").ok());
  EXPECT_FALSE(doc::FromJson("[1,2]").ok());  // not an object
  EXPECT_FALSE(doc::FromJson("{\"width\":10}").ok());  // no height
  EXPECT_FALSE(doc::FromJson(
                   "{\"width\":10,\"height\":10,\"dataset\":9}")
                   .ok());  // bad dataset
  EXPECT_FALSE(doc::FromJson(
                   "{\"width\":10,\"height\":10,\"elements\":[{\"kind\":"
                   "\"blob\"}]}")
                   .ok());  // bad element kind
  EXPECT_FALSE(doc::FromJson("{\"width\":10,\"height\":10} trailing").ok());
}

// Hostile inputs a network-facing parser must reject with a descriptive
// kInvalidArgument rather than crash or mis-parse — the daemon feeds every
// client line through FromJson.
TEST(SerializationTest, RejectsHostileInputsDescriptively) {
  // Truncated mid-structure at several depths.
  for (const char* truncated :
       {"{\"width\":10,\"height\":10,\"elements\":[",
        "{\"width\":10,\"height\":10,\"elements\":[{\"kind\":\"text\",",
        "{\"width\":10,\"height\":10,\"elements\":[{\"bbox\":[1,2,",
        "{\"width\":10,\"height\":10,\"annotations\":[{\"entity\":\"x"}) {
    auto parsed = doc::FromJson(truncated);
    EXPECT_FALSE(parsed.ok()) << truncated;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }

  // Wrong-type fields name the offending field in the message.
  auto bad_width = doc::FromJson("{\"width\":\"ten\",\"height\":10}");
  ASSERT_FALSE(bad_width.ok());
  EXPECT_NE(bad_width.status().message().find("width"), std::string::npos)
      << bad_width.status();
  auto bad_elements =
      doc::FromJson("{\"width\":10,\"height\":10,\"elements\":{}}");
  ASSERT_FALSE(bad_elements.ok());
  EXPECT_NE(bad_elements.status().message().find("elements"),
            std::string::npos)
      << bad_elements.status();
  auto bad_text = doc::FromJson(
      "{\"width\":10,\"height\":10,\"elements\":[{\"kind\":\"text\","
      "\"text\":7,\"bbox\":[1,2,3,4]}]}");
  ASSERT_FALSE(bad_text.ok());
  EXPECT_NE(bad_text.status().message().find("text"), std::string::npos)
      << bad_text.status();

  // Duplicate keys are ambiguous; refuse rather than keep either value.
  auto duplicate =
      doc::FromJson("{\"width\":10,\"width\":20,\"height\":10}");
  ASSERT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.status().message().find("duplicate"),
            std::string::npos)
      << duplicate.status();
}

// A document claiming more entries than the documented caps is rejected
// before any Element/Annotation is materialized (memory-exhaustion guard).
// Annotations have the smaller cap, so the oversized end-to-end case uses
// them; the elements cap is pinned as a constant the daemon documents.
TEST(SerializationTest, RejectsOversizedArrayCounts) {
  static_assert(doc::kMaxElementsPerDocument == 100000,
                "wire-format limit is documented; change deliberately");
  std::string json = "{\"width\":10,\"height\":10,\"annotations\":[";
  for (size_t i = 0; i <= doc::kMaxAnnotationsPerDocument; ++i) {
    if (i > 0) json += ',';
    json += "{\"entity\":\"x\",\"text\":\"y\",\"bbox\":[0,0,1,1]}";
  }
  json += "]}";
  auto parsed = doc::FromJson(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("too many annotations"),
            std::string::npos)
      << parsed.status();
}

TEST(SerializationTest, ParsedDocumentRunsThroughPipeline) {
  datasets::GeneratorConfig gc;
  gc.num_documents = 1;
  gc.mobile_capture_fraction = 0.0;
  doc::Document original = datasets::GenerateD2(gc).documents[0];
  auto parsed = doc::FromJson(doc::ToJson(original));
  ASSERT_TRUE(parsed.ok());

  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  core::Vs2 vs2(doc::DatasetId::kD2EventPosters, emb,
                core::DefaultConfigFor(doc::DatasetId::kD2EventPosters));
  auto from_original = vs2.Process(original);
  auto from_parsed = vs2.Process(*parsed);
  ASSERT_TRUE(from_original.ok());
  ASSERT_TRUE(from_parsed.ok());
  ASSERT_EQ(from_original->extractions.size(),
            from_parsed->extractions.size());
  for (size_t i = 0; i < from_original->extractions.size(); ++i) {
    EXPECT_EQ(from_original->extractions[i].entity,
              from_parsed->extractions[i].entity);
    EXPECT_EQ(from_original->extractions[i].text,
              from_parsed->extractions[i].text);
  }
}

// ------------------------------------------------------- Pipeline sweeps --

struct SweepCase {
  doc::DatasetId dataset;
  bool merging;
  bool clustering;
};

class PipelineSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PipelineSweepTest, InvariantsHoldUnderConfig) {
  const SweepCase& param = GetParam();
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  core::PipelineConfig config = core::DefaultConfigFor(param.dataset);
  config.segmenter.enable_semantic_merging = param.merging;
  config.segmenter.enable_visual_clustering = param.clustering;
  core::Vs2 vs2(param.dataset, emb, config);

  datasets::GeneratorConfig gc;
  gc.num_documents = 4;
  gc.seed = 31337;
  doc::Corpus corpus = datasets::Generate(param.dataset, gc);
  const auto& specs = vs2.entity_specs();
  std::set<std::string> known;
  for (const auto& s : specs) known.insert(s.name);

  for (const doc::Document& d : corpus.documents) {
    auto result = vs2.Process(d);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Layout tree structurally valid against the observed document.
    EXPECT_TRUE(result->tree.Validate(result->observed).ok());
    // Leaves partition the observed elements.
    std::set<size_t> covered;
    for (size_t leaf : result->tree.Leaves()) {
      for (size_t e : result->tree.node(leaf).element_indices) {
        EXPECT_TRUE(covered.insert(e).second);
      }
    }
    EXPECT_EQ(covered.size(), result->observed.elements.size());
    // Extractions: unique, known entities, boxes inside the page (with
    // slack for deskew residual).
    std::set<std::string> seen;
    for (const core::Extraction& ex : result->extractions) {
      EXPECT_TRUE(known.count(ex.entity)) << ex.entity;
      EXPECT_TRUE(seen.insert(ex.entity).second);
      EXPECT_FALSE(ex.block_bbox.Empty());
      EXPECT_GT(ex.block_bbox.right(), -50.0);
      EXPECT_LT(ex.block_bbox.x, d.width + 50.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsByDataset, PipelineSweepTest,
    ::testing::Values(
        SweepCase{doc::DatasetId::kD1TaxForms, true, true},
        SweepCase{doc::DatasetId::kD1TaxForms, false, true},
        SweepCase{doc::DatasetId::kD2EventPosters, true, true},
        SweepCase{doc::DatasetId::kD2EventPosters, false, false},
        SweepCase{doc::DatasetId::kD2EventPosters, true, false},
        SweepCase{doc::DatasetId::kD3RealEstateFlyers, true, true},
        SweepCase{doc::DatasetId::kD3RealEstateFlyers, false, true}));

class NoiseSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweepTest, PipelineSurvivesQualityLevel) {
  double quality = GetParam();
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  core::PipelineConfig config =
      core::DefaultConfigFor(doc::DatasetId::kD2EventPosters);
  core::Vs2 vs2(doc::DatasetId::kD2EventPosters, emb, config);

  datasets::GeneratorConfig gc;
  gc.num_documents = 3;
  gc.seed = 4242;
  gc.mobile_capture_fraction = 0.0;
  doc::Corpus corpus = datasets::GenerateD2(gc);
  for (doc::Document d : corpus.documents) {
    d.capture_quality = quality;
    auto result = vs2.Process(d);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->tree.Validate(result->observed).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(QualityLevels, NoiseSweepTest,
                         ::testing::Values(1.0, 0.85, 0.7, 0.55, 0.4, 0.25));

TEST(PipelineDeterminismTest, SameInputsSameExtractions) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  core::Vs2 vs2(doc::DatasetId::kD2EventPosters, emb,
                core::DefaultConfigFor(doc::DatasetId::kD2EventPosters));
  datasets::GeneratorConfig gc;
  gc.num_documents = 3;
  gc.seed = 555;
  doc::Corpus corpus = datasets::GenerateD2(gc);
  for (const doc::Document& d : corpus.documents) {
    auto a = vs2.Process(d);
    auto b = vs2.Process(d);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->extractions.size(), b->extractions.size());
    for (size_t i = 0; i < a->extractions.size(); ++i) {
      EXPECT_EQ(a->extractions[i].entity, b->extractions[i].entity);
      EXPECT_EQ(a->extractions[i].text, b->extractions[i].text);
      EXPECT_EQ(a->extractions[i].block_bbox, b->extractions[i].block_bbox);
    }
  }
}

TEST(PipelineQualityTest, CleanPostersExtractAccurately) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  core::PipelineConfig config =
      core::DefaultConfigFor(doc::DatasetId::kD2EventPosters);
  core::Vs2 vs2(doc::DatasetId::kD2EventPosters, emb, config);

  datasets::GeneratorConfig gc;
  gc.num_documents = 10;
  gc.seed = 77;
  gc.mobile_capture_fraction = 0.0;  // born-digital only
  doc::Corpus corpus = datasets::GenerateD2(gc);
  eval::PrCounts total;
  for (const doc::Document& d : corpus.documents) {
    auto result = vs2.Process(d);
    ASSERT_TRUE(result.ok());
    std::vector<eval::LabeledPrediction> preds;
    for (const core::Extraction& ex : result->extractions) {
      preds.push_back({ex.entity, ex.block_bbox, ex.text, ex.match_bbox});
    }
    total.Add(eval::ScoreEndToEnd(preds, result->observed));
  }
  // Clean documents must extract well; this is a regression floor, not a
  // benchmark (the benches measure the realistic noisy setting).
  EXPECT_GT(total.F1(), 0.8) << "P=" << total.Precision()
                             << " R=" << total.Recall();
}

// ---------------------------------------------------------- Analyze golden --

/// FNV-1a over every field of every token and every chunk of the analyses
/// VS2-Select builds for a document's text-bearing leaf blocks (same block
/// text and element order as `core::SelectEntities`). The hashes were
/// recorded before the analyzer's lexicon and fuzzy matching were
/// reimplemented; any change to a tag, sense or chunk moves them.
struct AnalyzeGoldenCase {
  doc::DatasetId dataset;
  uint64_t hash;
};

void PrintTo(const AnalyzeGoldenCase& c, std::ostream* os) {
  *os << doc::DatasetName(c.dataset);
}

class AnalyzeGoldenTest : public ::testing::TestWithParam<AnalyzeGoldenCase> {};

void AppendField(std::string* out, std::string_view field) {
  out->append(field);
  out->push_back('\x1f');
}

TEST_P(AnalyzeGoldenTest, BlockAnnotationsMatchRecordedHash) {
  const doc::DatasetId dataset = GetParam().dataset;
  core::Vs2 vs2(dataset, datasets::PretrainedEmbedding(),
                core::DefaultConfigFor(dataset));
  datasets::GeneratorConfig gc;
  gc.num_documents = 10;
  gc.seed = 4242;
  doc::Corpus corpus = datasets::Generate(dataset, gc);

  std::string record;
  size_t blocks = 0;
  for (const doc::Document& d : corpus.documents) {
    auto result = vs2.Process(d);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const doc::Document& observed = result->observed;
    for (size_t leaf : result->tree.Leaves()) {
      std::vector<size_t> text_indices;
      for (size_t i : result->tree.node(leaf).element_indices) {
        if (observed.elements[i].is_text()) text_indices.push_back(i);
      }
      if (text_indices.empty()) continue;
      std::vector<size_t> ordered = doc::ReadingOrder(observed, text_indices);
      std::string joined;
      for (size_t i : ordered) {
        if (!joined.empty()) joined.push_back(' ');
        joined += observed.elements[i].text;
      }
      nlp::AnalyzedText analyzed = nlp::Analyze(joined, ordered);
      ++blocks;
      for (const nlp::Token& t : analyzed.tokens) {
        AppendField(&record, t.text);
        AppendField(&record, t.lower);
        AppendField(&record, t.stem);
        AppendField(&record, nlp::PosName(t.pos));
        AppendField(&record, nlp::NerClassName(t.ner));
        AppendField(&record, t.is_stopword ? "S" : "-");
        AppendField(&record, t.has_geocode ? "G" : "-");
        AppendField(&record, t.is_timex ? "T" : "-");
        for (const std::string& h : t.hypernyms) AppendField(&record, h);
        AppendField(&record, "|");
        for (const std::string& v : t.verb_senses) AppendField(&record, v);
        AppendField(&record, "|");
        AppendField(&record, std::to_string(t.element_index));
        record.push_back('\n');
      }
      for (const nlp::Chunk& c : analyzed.chunks) {
        AppendField(&record, nlp::ChunkKindName(c.kind));
        AppendField(&record, std::to_string(c.begin));
        AppendField(&record, std::to_string(c.end));
        record.push_back('\n');
      }
      record.push_back('\x1e');
    }
  }
  ASSERT_GT(blocks, 0u);
  EXPECT_EQ(util::Fnv1a64(record), GetParam().hash)
      << doc::DatasetName(dataset) << ": " << blocks << " blocks, "
      << record.size() << " bytes";
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, AnalyzeGoldenTest,
    ::testing::Values(
        AnalyzeGoldenCase{doc::DatasetId::kD1TaxForms, 0xf528688d19441058ULL},
        AnalyzeGoldenCase{doc::DatasetId::kD2EventPosters,
                          0xa6bda5936d53bc5cULL},
        AnalyzeGoldenCase{doc::DatasetId::kD3RealEstateFlyers,
                          0x99e0bdc0b0194f4dULL}));

// ------------------------------------------------------------ WeightTuner --

TEST(WeightTunerTest, NeverWorseThanBaseline) {
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  datasets::GeneratorConfig gc;
  gc.num_documents = 6;
  gc.seed = 2024;
  doc::Corpus dev = datasets::GenerateD2(gc);
  for (doc::Document& d : dev.documents) d = ocr::Transcribe(d, {});

  core::PipelineConfig base =
      core::DefaultConfigFor(doc::DatasetId::kD2EventPosters);
  base.simulate_ocr = false;

  // Baseline F1 with the paper's hand-set weights.
  core::WeightTunerConfig tc;
  tc.rounds = 1;
  core::WeightTuneResult tuned = core::TuneWeights(
      doc::DatasetId::kD2EventPosters, dev, emb, base, tc);

  EXPECT_GE(tuned.evaluations, 1u);
  EXPECT_NEAR(tuned.weights.alpha + tuned.weights.beta +
                  tuned.weights.gamma + tuned.weights.nu,
              1.0, 1e-9);
  // Coordinate ascent keeps the best-seen configuration, so the returned
  // F1 is at least the baseline's.
  core::PipelineConfig check = base;
  check.select.weights = core::MultimodalWeights::ForDataset(
      doc::DatasetId::kD2EventPosters);
  core::Vs2 vs2(doc::DatasetId::kD2EventPosters, emb, check);
  eval::PrCounts baseline;
  for (const doc::Document& d : dev.documents) {
    auto result = vs2.Process(d);
    if (!result.ok()) continue;
    std::vector<eval::LabeledPrediction> preds;
    for (const core::Extraction& ex : result->extractions) {
      preds.push_back({ex.entity, ex.block_bbox, ex.text, ex.match_bbox});
    }
    baseline.Add(eval::ScoreEndToEnd(preds, d));
  }
  EXPECT_GE(tuned.dev_f1 + 1e-9, baseline.F1());
}

}  // namespace
}  // namespace vs2
