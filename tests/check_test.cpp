/// Tests for the correctness-audit subsystem (src/check/ + the serve cache
/// audit): the recording-assertion framework itself, every deep validator
/// on both valid and deliberately corrupted structures (swapped child
/// links, overlapping leaves, broken packed-word zero tails, dangling LRU
/// nodes), and the fuzz-hardened JSON boundary (nesting depth cap, UTF-8
/// validation, surrogate pairs, control characters, range-checked casts).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "check/check.hpp"
#include "doc/document.hpp"
#include "doc/element.hpp"
#include "doc/layout_tree.hpp"
#include "doc/serialization.hpp"
#include "mining/subtree_miner.hpp"
#include "nlp/analyzer.hpp"
#include "nlp/chunk_tree.hpp"
#include "raster/grid.hpp"
#include "serve/cache.hpp"

namespace vs2::raster {

/// Befriended by OccupancyGrid: reaches the packed words to corrupt them.
struct OccupancyGridTestPeer {
  static std::vector<uint64_t>& rows(OccupancyGrid& grid) {
    return grid.ws_rows_;
  }
  static std::vector<uint64_t>& cols(OccupancyGrid& grid) {
    return grid.ws_cols_;
  }
};

}  // namespace vs2::raster

namespace vs2::serve {

/// Befriended by ResultCache: plants structural corruption the audit must
/// catch.
struct ResultCacheTestPeer {
  /// Appends a list node that no index entry knows about.
  static void PushUnindexedNode(ResultCache& cache) {
    cache.lru_.push_back(ResultCache::Entry{999999, "orphan", nullptr, 0.0, 0});
  }
  /// Breaks strict recency ordering by swapping two access sequences.
  static void SwapRecency(ResultCache& cache) {
    std::swap(cache.lru_.front().touched_seq, cache.lru_.back().touched_seq);
  }
  /// Points some index entry at the wrong list node.
  static void RetargetIndexEntry(ResultCache& cache) {
    auto last = std::prev(cache.lru_.end());
    for (auto& [hash, it] : cache.index_) {
      if (it != last) {
        it = last;
        return;
      }
    }
  }
};

}  // namespace vs2::serve

namespace vs2 {
namespace {

// ---------------------------------------------------------------------------
// Framework: VS2_AUDIT recording, report rendering, runtime switch.
// ---------------------------------------------------------------------------

TEST(CheckFrameworkTest, AuditRecordsExpressionFileLineAndContext) {
  check::AuditReport report;
  int x = 3;
  VS2_AUDIT(report, x == 4) << "x was " << x;
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.total_failures(), 1u);
  const check::Failure& failure = report.failures()[0];
  EXPECT_EQ(failure.expression, "x == 4");
  EXPECT_EQ(failure.context, "x was 3");
  EXPECT_GT(failure.line, 0);
  EXPECT_NE(std::string(failure.file).find("check_test.cpp"),
            std::string::npos);
  EXPECT_NE(failure.ToString().find("audit failed"), std::string::npos);
}

TEST(CheckFrameworkTest, PassingAuditDoesNotEvaluateContext) {
  check::AuditReport report;
  int evaluations = 0;
  auto context = [&evaluations]() {
    ++evaluations;
    return "expensive";
  };
  VS2_AUDIT(report, 1 + 1 == 2) << context();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(evaluations, 0);
}

TEST(CheckFrameworkTest, ReportCapsRecordedFailuresButCountsAll) {
  check::AuditReport report;
  for (int i = 0; i < 50; ++i) {
    VS2_AUDIT(report, false) << "violation " << i;
  }
  EXPECT_EQ(report.total_failures(), 50u);
  EXPECT_EQ(report.failures().size(), check::AuditReport::kMaxRecordedFailures);
  EXPECT_NE(report.ToString().find("suppressed"), std::string::npos);
}

TEST(CheckFrameworkTest, MergePreservesTotalsAcrossReports) {
  check::AuditReport a, b;
  VS2_AUDIT(a, false) << "from a";
  VS2_AUDIT(b, false) << "from b";
  VS2_AUDIT(b, false) << "from b again";
  a.Merge(b);
  EXPECT_EQ(a.total_failures(), 3u);
  EXPECT_EQ(a.failures().size(), 3u);
}

TEST(CheckFrameworkTest, ToStatusNamesSubjectAndCarriesDetails) {
  check::AuditReport report;
  VS2_AUDIT(report, false) << "the details";
  Status status = report.ToStatus("unit.subject");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("unit.subject"), std::string::npos);
  EXPECT_NE(status.message().find("the details"), std::string::npos);
  EXPECT_TRUE(check::AuditReport().ToStatus("clean").ok());
}

TEST(CheckFrameworkTest, RuntimeSwitchFlipsAndReportsPrevious) {
  // audit_bootstrap.cpp forces audits on for every test binary.
  ASSERT_TRUE(check::AuditsEnabled());
  EXPECT_TRUE(check::SetAuditsEnabled(false));
  EXPECT_FALSE(check::AuditsEnabled());
  EXPECT_FALSE(check::SetAuditsEnabled(true));
  EXPECT_TRUE(check::AuditsEnabled());
}

#if VS2_AUDIT_COMPILED_IN
using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, FatalCheckAbortsWithRenderedFailure) {
  EXPECT_DEATH({ VS2_CHECK(2 + 2 == 5) << "arithmetic drifted"; },
               "VS2_CHECK failure");
}
#endif

// ---------------------------------------------------------------------------
// Layout-tree audit.
// ---------------------------------------------------------------------------

doc::Document FourElementDoc() {
  doc::Document d;
  d.dataset = doc::DatasetId::kD2EventPosters;
  d.width = 400;
  d.height = 300;
  doc::TextStyle style;
  d.elements.push_back(
      doc::MakeTextElement("alpha", {20, 20, 60, 12}, style));
  d.elements.push_back(
      doc::MakeTextElement("beta", {20, 40, 60, 12}, style));
  d.elements.push_back(
      doc::MakeTextElement("gamma", {220, 20, 60, 12}, style));
  d.elements.push_back(
      doc::MakeTextElement("delta", {220, 40, 60, 12}, style));
  return d;
}

TEST(AuditLayoutTreeTest, AcceptsWellFormedTwoLevelTree) {
  doc::Document d = FourElementDoc();
  doc::LayoutTree tree = doc::LayoutTree::ForDocument(d);
  tree.AddChild(d, tree.root(), {0, 1});
  tree.AddChild(d, tree.root(), {2, 3});
  check::AuditReport report = check::AuditLayoutTree(tree, d);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditLayoutTreeTest, CatchesSwappedChildParentLink) {
  doc::Document d = FourElementDoc();
  doc::LayoutTree tree = doc::LayoutTree::ForDocument(d);
  size_t left = tree.AddChild(d, tree.root(), {0, 1});
  size_t right = tree.AddChild(d, tree.root(), {2, 3});
  // Swap the back-link: the left child now claims the right child as its
  // parent while the root still lists it.
  tree.mutable_node(left).parent = right;
  check::AuditReport report = check::AuditLayoutTree(tree, d);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("back-links"), std::string::npos)
      << report.ToString();
}

TEST(AuditLayoutTreeTest, CatchesOverlappingLeaves) {
  doc::Document d = FourElementDoc();
  doc::LayoutTree tree = doc::LayoutTree::ForDocument(d);
  tree.AddChild(d, tree.root(), {0, 1});
  tree.AddChild(d, tree.root(), {1, 2, 3});  // element 1 claimed twice
  check::AuditReport report = check::AuditLayoutTree(tree, d);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("shared by siblings"), std::string::npos)
      << report.ToString();
  EXPECT_NE(report.ToString().find("more than one leaf"), std::string::npos)
      << report.ToString();
}

TEST(AuditLayoutTreeTest, CatchesEscapingChildBBoxAndBadDepth) {
  doc::Document d = FourElementDoc();
  doc::LayoutTree tree = doc::LayoutTree::ForDocument(d);
  size_t child = tree.AddChild(d, tree.root(), {0, 1, 2, 3});
  tree.mutable_node(child).bbox = {-500, -500, 10, 10};
  tree.mutable_node(child).depth = 7;
  check::AuditReport report = check::AuditLayoutTree(tree, d);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("escapes parent"), std::string::npos)
      << report.ToString();
  EXPECT_NE(report.ToString().find("does not follow parent depth"),
            std::string::npos)
      << report.ToString();
}

TEST(AuditLayoutTreeTest, EnforcesConfiguredDepthBound) {
  doc::Document d = FourElementDoc();
  doc::LayoutTree tree = doc::LayoutTree::ForDocument(d);
  size_t a = tree.AddChild(d, tree.root(), {0, 1, 2, 3});
  tree.AddChild(d, a, {0, 1});
  tree.AddChild(d, a, {2, 3});
  check::LayoutTreeAuditOptions options;
  options.max_depth = 1;
  check::AuditReport report = check::AuditLayoutTree(tree, d, options);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("exceeds bound"), std::string::npos);
  options.max_depth = 2;
  EXPECT_TRUE(check::AuditLayoutTree(tree, d, options).ok());
}

// ---------------------------------------------------------------------------
// Occupancy-grid audit.
// ---------------------------------------------------------------------------

TEST(AuditOccupancyGridTest, AcceptsFreshAndFilledGrids) {
  raster::OccupancyGrid grid(70, 10);  // width straddles a word boundary
  EXPECT_TRUE(check::AuditOccupancyGrid(grid).ok());
  grid.FillBox({3, 2, 40, 5});
  grid.set_occupied(69, 9);
  check::AuditReport report = check::AuditOccupancyGrid(grid);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditOccupancyGridTest, CatchesBrokenZeroTailWord) {
  raster::OccupancyGrid grid(70, 10);
  // Set a bit at x = 64 + 10 = 74 >= width in row 3's tail word: the cut
  // kernel would read phantom whitespace beyond the page edge.
  raster::OccupancyGridTestPeer::rows(grid)[3 * grid.words_per_row() + 1] |=
      uint64_t{1} << 10;
  check::AuditReport report = check::AuditOccupancyGrid(grid);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("bits set past width"), std::string::npos)
      << report.ToString();
}

TEST(AuditOccupancyGridTest, CatchesRowColumnPackingDisagreement) {
  raster::OccupancyGrid grid(70, 10);
  // Clear the row-packed bit of cell (3, 2) while the column packing still
  // calls it whitespace.
  raster::OccupancyGridTestPeer::rows(grid)[2 * grid.words_per_row()] &=
      ~(uint64_t{1} << 3);
  check::AuditReport report = check::AuditOccupancyGrid(grid);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("packings disagree"), std::string::npos)
      << report.ToString();
}

// ---------------------------------------------------------------------------
// Document audit.
// ---------------------------------------------------------------------------

TEST(AuditDocumentTest, AcceptsWellFormedDocument) {
  doc::Document d = FourElementDoc();
  d.annotations.push_back({"event_title", {20, 20, 60, 12}, "alpha"});
  std::vector<std::string> vocabulary{"event_title", "event_date"};
  check::AuditReport report = check::AuditDocument(d, &vocabulary);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditDocumentTest, CatchesNonFiniteGeometryAndBadQuality) {
  doc::Document d = FourElementDoc();
  d.capture_quality = 1.5;
  d.elements[1].bbox.x = std::nan("");
  d.elements[2].bbox = {80, 4000, 60, 12};  // far outside the page frame
  check::AuditReport report = check::AuditDocument(d);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("outside [0, 1]"), std::string::npos);
  EXPECT_NE(report.ToString().find("non-finite"), std::string::npos);
  EXPECT_NE(report.ToString().find("noise-expanded page frame"),
            std::string::npos);
}

TEST(AuditDocumentTest, CatchesUnresolvableAnnotationEntity) {
  doc::Document d = FourElementDoc();
  d.annotations.push_back({"mystery_field", {20, 20, 60, 12}, "alpha"});
  std::vector<std::string> vocabulary{"event_title"};
  check::AuditReport report = check::AuditDocument(d, &vocabulary);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("does not resolve"), std::string::npos);
  // Without a vocabulary the same document is fine.
  EXPECT_TRUE(check::AuditDocument(d).ok());
}

// ---------------------------------------------------------------------------
// Chunk-tree / flat-tree / mined-pattern audits.
// ---------------------------------------------------------------------------

TEST(AuditChunkTreeTest, AcceptsAnalyzerOutputAndCatchesEmptyLabels) {
  nlp::AnalyzedText analyzed =
      nlp::Analyze("Annual Gala on March 3, 2019 at the Grand Ballroom");
  check::AuditReport report =
      check::AuditChunkTree(nlp::BuildChunkTree(analyzed));
  EXPECT_TRUE(report.ok()) << report.ToString();

  nlp::ParseNode root;
  root.label = "S";
  root.children.emplace_back();  // default node: empty label
  check::AuditReport corrupted = check::AuditChunkTree(root);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_NE(corrupted.ToString().find("empty label"), std::string::npos);
}

TEST(AuditFlatTreeTest, CatchesPreorderViolations) {
  mining::FlatTree good;
  good.labels = {"a", "b", "c"};
  good.parents = {-1, 0, 1};
  EXPECT_TRUE(check::AuditFlatTree(good).ok());

  mining::FlatTree forward;
  forward.labels = {"a", "b"};
  forward.parents = {-1, 1};  // parent must precede child in preorder
  ASSERT_FALSE(check::AuditFlatTree(forward).ok());
  EXPECT_NE(check::AuditFlatTree(forward).ToString().find("preorder"),
            std::string::npos);

  mining::FlatTree mismatch;
  mismatch.labels = {"a"};
  mismatch.parents = {-1, 0};
  EXPECT_FALSE(check::AuditFlatTree(mismatch).ok());
}

TEST(AuditPatternTest, RecountsSupportAgainstTransactions) {
  mining::FlatTree t;
  t.labels = {"NP", "CD"};
  t.parents = {-1, 0};
  std::vector<mining::FlatTree> transactions{t, t};

  mining::MinedPattern pattern;
  pattern.tree = t;
  pattern.support = 2;
  EXPECT_TRUE(check::AuditPattern(pattern, transactions).ok());

  pattern.support = 1;  // actually embeds in both transactions
  check::AuditReport wrong = check::AuditPattern(pattern, transactions);
  ASSERT_FALSE(wrong.ok());
  EXPECT_NE(wrong.ToString().find("embeds in"), std::string::npos);

  pattern.support = 3;  // more than there are transactions
  check::AuditReport excess = check::AuditPattern(pattern, transactions);
  ASSERT_FALSE(excess.ok());
  EXPECT_NE(excess.ToString().find("exceeds"), std::string::npos);
  EXPECT_FALSE(check::AuditMinedPatterns({pattern}, transactions).ok());
}

// ---------------------------------------------------------------------------
// Result-cache audit (serve).
// ---------------------------------------------------------------------------

serve::ResultCache::Value CacheValue() {
  return std::make_shared<const core::Vs2::DocResult>();
}

TEST(AuditResultCacheTest, AcceptsCoherentCacheAcrossOperations) {
  serve::ResultCache cache({4, 0.0});
  cache.Put(1, "one", CacheValue(), 1.0);
  cache.Put(2, "two", CacheValue(), 2.0);
  cache.Put(3, "three", CacheValue(), 3.0);
  cache.Get(1, "one", 4.0);  // refresh recency
  check::AuditReport report = serve::AuditResultCache(cache, 5.0);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditResultCacheTest, CatchesDanglingUnindexedNode) {
  serve::ResultCache cache({4, 0.0});
  cache.Put(1, "one", CacheValue(), 1.0);
  serve::ResultCacheTestPeer::PushUnindexedNode(cache);
  check::AuditReport report = serve::AuditResultCache(cache, 2.0);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("dangling node"), std::string::npos)
      << report.ToString();
}

TEST(AuditResultCacheTest, CatchesRecencyOrderViolation) {
  serve::ResultCache cache({4, 0.0});
  cache.Put(1, "one", CacheValue(), 1.0);
  cache.Put(2, "two", CacheValue(), 2.0);
  serve::ResultCacheTestPeer::SwapRecency(cache);
  check::AuditReport report = serve::AuditResultCache(cache, 3.0);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("recency order violated"),
            std::string::npos)
      << report.ToString();
}

TEST(AuditResultCacheTest, CatchesRetargetedIndexAndFutureTimestamps) {
  serve::ResultCache cache({4, 0.0});
  cache.Put(1, "one", CacheValue(), 1.0);
  cache.Put(2, "two", CacheValue(), 2.0);
  serve::ResultCacheTestPeer::RetargetIndexEntry(cache);
  check::AuditReport report = serve::AuditResultCache(cache, 3.0);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("different list node"), std::string::npos)
      << report.ToString();

  serve::ResultCache fresh({4, 0.0});
  fresh.Put(1, "one", CacheValue(), 10.0);
  check::AuditReport future = serve::AuditResultCache(fresh, 5.0);
  ASSERT_FALSE(future.ok());
  EXPECT_NE(future.ToString().find("future"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fuzz-hardened JSON boundary (pinned rejection behavior).
// ---------------------------------------------------------------------------

TEST(JsonHardeningTest, RejectsDeepNestingWithoutCrashing) {
  EXPECT_FALSE(doc::FromJson(std::string(100000, '[')).ok());
  std::string deep = std::string(200, '[') + std::string(200, ']');
  Result<doc::Document> result = doc::FromJson(deep);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("nesting too deep"),
            std::string::npos);
}

TEST(JsonHardeningTest, RejectsRawControlCharactersInStrings) {
  std::string json =
      "{\"id\":1,\"dataset\":2,\"width\":9,\"height\":9,"
      "\"elements\":[{\"kind\":\"text\",\"text\":\"a\x01z\","
      "\"x\":1,\"y\":1,\"w\":2,\"h\":2}]}";
  Result<doc::Document> result = doc::FromJson(json);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("control character"),
            std::string::npos);
}

TEST(JsonHardeningTest, RejectsIllFormedUtf8) {
  std::string json =
      "{\"id\":1,\"dataset\":2,\"width\":9,\"height\":9,"
      "\"elements\":[{\"kind\":\"text\",\"text\":\"\xc3\x28\","
      "\"x\":1,\"y\":1,\"w\":2,\"h\":2}]}";
  Result<doc::Document> result = doc::FromJson(json);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("UTF-8"), std::string::npos);
}

TEST(JsonHardeningTest, RejectsLoneSurrogatesButDecodesPairs) {
  EXPECT_FALSE(doc::FromJson(
                   "{\"id\":1,\"dataset\":2,\"width\":9,\"height\":9,"
                   "\"elements\":[{\"kind\":\"text\",\"text\":\"\\ud800\","
                   "\"x\":1,\"y\":1,\"w\":2,\"h\":2}]}")
                   .ok());
  EXPECT_FALSE(doc::FromJson(
                   "{\"id\":1,\"dataset\":2,\"width\":9,\"height\":9,"
                   "\"elements\":[{\"kind\":\"text\",\"text\":\"\\udfff\","
                   "\"x\":1,\"y\":1,\"w\":2,\"h\":2}]}")
                   .ok());
  Result<doc::Document> paired = doc::FromJson(
      "{\"id\":1,\"dataset\":2,\"width\":9,\"height\":9,"
      "\"elements\":[{\"kind\":\"text\",\"text\":\"\\ud83d\\ude00\","
      "\"x\":1,\"y\":1,\"w\":2,\"h\":2}]}");
  ASSERT_TRUE(paired.ok()) << paired.status();
  EXPECT_EQ(paired->elements[0].text, "\xF0\x9F\x98\x80");  // U+1F600
}

TEST(JsonHardeningTest, RejectsNonFiniteAndOutOfRangeNumbers) {
  EXPECT_FALSE(
      doc::FromJson("{\"id\":1,\"dataset\":2,\"width\":1e999,\"height\":9}")
          .ok());
  // Out-of-range values for int-typed fields must be rejected before the
  // float->int cast (undefined behavior otherwise, caught under UBSan).
  EXPECT_FALSE(doc::FromJson(
                   "{\"id\":1,\"dataset\":2,\"width\":9,\"height\":9,"
                   "\"elements\":[{\"kind\":\"text\",\"text\":\"x\","
                   "\"x\":1,\"y\":1,\"w\":2,\"h\":2,\"markup_hint\":1e300}]}")
                   .ok());
  EXPECT_FALSE(doc::FromJson(
                   "{\"id\":1,\"dataset\":2,\"width\":9,\"height\":9,"
                   "\"elements\":[{\"kind\":\"text\",\"text\":\"x\","
                   "\"x\":1,\"y\":1,\"w\":2,\"h\":2,\"r\":999}]}")
                   .ok());
  EXPECT_FALSE(
      doc::FromJson("{\"id\":-3,\"dataset\":2,\"width\":9,\"height\":9}")
          .ok());
  // Subnormal magnitudes are values, not errors.
  EXPECT_TRUE(doc::FromJson(
                  "{\"id\":1,\"dataset\":2,\"width\":1e-320,\"height\":9}")
                  .ok());
}

TEST(JsonHardeningTest, NumbersFollowTheRfcGrammar) {
  const std::string head = "{\"id\":1,\"dataset\":2,\"width\":";
  for (const char* bad : {"+612", "0612", ".5", "5.", "-.5", "1e", "0x10"}) {
    Result<doc::Document> result = doc::FromJson(head + bad + ",\"height\":9}");
    EXPECT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  // Underflow is a value (zero here: the page then has no width).
  Result<doc::Document> tiny = doc::FromJson(
      "{\"id\":1,\"dataset\":2,\"width\":9,\"height\":9,"
      "\"rotation_degrees\":1.5e-400}");
  ASSERT_TRUE(tiny.ok()) << tiny.status();
  EXPECT_EQ(tiny->rotation_degrees, 0.0);
  Result<doc::Document> exact =
      doc::FromJson(head + "612.0,\"height\":7.92e2}");
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(exact->width, 612.0);
  EXPECT_EQ(exact->height, 792.0);
}

TEST(JsonHardeningTest, AcceptedDocumentsRoundTrip) {
  std::string json =
      "{\"id\":7,\"dataset\":2,\"width\":612,\"height\":792,"
      "\"elements\":[{\"kind\":\"text\",\"text\":\"caf\\u00e9 \\u20ac 😀\","
      "\"x\":10,\"y\":10,\"w\":80,\"h\":14}]}";
  Result<doc::Document> parsed = doc::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Result<doc::Document> reparsed = doc::FromJson(doc::ToJson(*parsed));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->elements[0].text, parsed->elements[0].text);
}

}  // namespace
}  // namespace vs2
