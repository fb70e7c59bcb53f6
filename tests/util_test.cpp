/// Tests for src/util: Status/Result, RNG, geometry, color, math, strings.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/arena.hpp"
#include "util/color.hpp"
#include "util/geometry.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace vs2 {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("width must be positive");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "width must be positive");
  EXPECT_EQ(s.ToString(), "InvalidArgument: width must be positive");
}

TEST(StatusTest, NotApplicableIsDistinguishable) {
  EXPECT_TRUE(Status::NotApplicable("x").IsNotApplicable());
  EXPECT_FALSE(Status::Internal("x").IsNotApplicable());
  EXPECT_FALSE(Status::OK().IsNotApplicable());
}

TEST(StatusTest, StreamsLikeToString) {
  std::ostringstream os;
  os << Status::InvalidArgument("width must be positive");
  EXPECT_EQ(os.str(), "InvalidArgument: width must be positive");
  std::ostringstream ok;
  ok << Status::OK();
  EXPECT_EQ(ok.str(), "OK");
  std::ostringstream code;
  code << StatusCode::kNotFound;
  EXPECT_EQ(code.str(), "NotFound");
}

TEST(GeometryTest, BBoxStreamsLikeToString) {
  util::BBox box{1.0, 2.0, 3.5, 4.25};
  std::ostringstream os;
  os << box;
  EXPECT_EQ(os.str(), box.ToString());
  EXPECT_EQ(os.str(), "[x=1.0 y=2.0 w=3.5 h=4.2]");
}

TEST(ColorTest, LabStreamsLikeToString) {
  util::Lab lab{51.2, -3.4, 7.8};
  std::ostringstream os;
  os << lab;
  EXPECT_EQ(os.str(), lab.ToString());
  EXPECT_EQ(os.str(), "Lab(51.2, -3.4, 7.8)");
}

TEST(StatusTest, ServingCodesCarryCodeAndMessage) {
  Status deadline = Status::DeadlineExceeded("deadline expired while queued");
  EXPECT_FALSE(deadline.ok());
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.ToString(),
            "DeadlineExceeded: deadline expired while queued");

  Status unavailable = Status::Unavailable("admission queue full");
  EXPECT_FALSE(unavailable.ok());
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.ToString(), "Unavailable: admission queue full");
}

TEST(StatusTest, ServingCodesStreamLikeToString) {
  std::ostringstream deadline;
  deadline << StatusCode::kDeadlineExceeded;
  EXPECT_EQ(deadline.str(), "DeadlineExceeded");
  std::ostringstream unavailable;
  unavailable << StatusCode::kUnavailable;
  EXPECT_EQ(unavailable.str(), "Unavailable");
  std::ostringstream status;
  status << Status::Unavailable("service is draining");
  EXPECT_EQ(status.str(), "Unavailable: service is draining");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  VS2_ASSIGN_OR_RETURN(int h, Half(x));
  VS2_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------- RNG --

TEST(RngTest, DeterministicForSeed) {
  util::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntInRange) {
  util::Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(-3, 5);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 9u);  // all values reachable
}

TEST(RngTest, UniformIntDegenerateRange) {
  util::Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, UniformDoubleInHalfOpenUnit) {
  util::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  util::Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(util::Mean(xs), 5.0, 0.1);
  EXPECT_NEAR(util::StdDev(xs), 2.0, 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  util::Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  util::Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  util::Rng rng(23);
  std::vector<double> w = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.WeightedIndex(w)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

TEST(RngTest, ShufflePreservesElements) {
  util::Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end()), b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIndependentStreams) {
  util::Rng parent(31);
  util::Rng c1 = parent.Fork(1);
  util::Rng c2 = parent.Fork(2);
  EXPECT_NE(c1.NextU64(), c2.NextU64());
}

TEST(RngTest, Fnv1aStableKnownValue) {
  // FNV-1a of empty string is the offset basis.
  EXPECT_EQ(util::Fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_NE(util::Fnv1a64("a"), util::Fnv1a64("b"));
}

// -------------------------------------------------------------- Geometry --

TEST(BBoxTest, BasicAccessors) {
  util::BBox b{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(b.right(), 40);
  EXPECT_DOUBLE_EQ(b.bottom(), 60);
  EXPECT_DOUBLE_EQ(b.Area(), 1200);
  EXPECT_FALSE(b.Empty());
  EXPECT_TRUE(util::BBox{}.Empty());
}

TEST(BBoxTest, ContainsPointBoundaryInclusive) {
  util::BBox b{0, 0, 10, 10};
  EXPECT_TRUE(b.Contains(0.0, 0.0));
  EXPECT_TRUE(b.Contains(10.0, 10.0));
  EXPECT_FALSE(b.Contains(10.01, 5.0));
}

TEST(BBoxTest, IntersectDisjointIsEmpty) {
  util::BBox a{0, 0, 5, 5}, b{10, 10, 5, 5};
  EXPECT_TRUE(util::Intersect(a, b).Empty());
  EXPECT_FALSE(a.Intersects(b));
}

TEST(BBoxTest, IntersectOverlap) {
  util::BBox a{0, 0, 10, 10}, b{5, 5, 10, 10};
  util::BBox i = util::Intersect(a, b);
  EXPECT_DOUBLE_EQ(i.Area(), 25.0);
  EXPECT_TRUE(a.Intersects(b));
}

TEST(BBoxTest, UnionIgnoresEmptyOperand) {
  util::BBox a{2, 3, 4, 5};
  EXPECT_EQ(util::Union(a, util::BBox{}), a);
  EXPECT_EQ(util::Union(util::BBox{}, a), a);
}

TEST(BBoxTest, UnionAllEnclosesEverything) {
  std::vector<util::BBox> boxes = {{0, 0, 1, 1}, {5, 5, 1, 1}, {2, 8, 1, 1}};
  util::BBox u = util::UnionAll(boxes);
  for (const util::BBox& b : boxes) EXPECT_TRUE(u.Contains(b));
}

TEST(IoUTest, IdenticalBoxesGiveOne) {
  util::BBox a{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(util::IoU(a, a), 1.0);
}

TEST(IoUTest, DisjointBoxesGiveZero) {
  EXPECT_DOUBLE_EQ(util::IoU({0, 0, 1, 1}, {5, 5, 1, 1}), 0.0);
}

TEST(IoUTest, HalfOverlap) {
  // Two 2x2 boxes sharing a 1x2 strip: IoU = 2 / 6.
  EXPECT_NEAR(util::IoU({0, 0, 2, 2}, {1, 0, 2, 2}), 2.0 / 6.0, 1e-12);
}

TEST(IoUTest, Symmetric) {
  util::BBox a{0, 0, 4, 4}, b{2, 1, 5, 2};
  EXPECT_DOUBLE_EQ(util::IoU(a, b), util::IoU(b, a));
}

TEST(GeometryTest, BoxGapZeroWhenIntersecting) {
  EXPECT_DOUBLE_EQ(util::BoxGap({0, 0, 5, 5}, {3, 3, 5, 5}), 0.0);
}

TEST(GeometryTest, BoxGapHorizontal) {
  EXPECT_DOUBLE_EQ(util::BoxGap({0, 0, 5, 5}, {8, 0, 5, 5}), 3.0);
}

TEST(GeometryTest, BoxGapDiagonal) {
  EXPECT_DOUBLE_EQ(util::BoxGap({0, 0, 1, 1}, {4, 5, 1, 1}), 5.0);  // 3-4-5
}

TEST(GeometryTest, L1Distance) {
  EXPECT_DOUBLE_EQ(util::L1Distance({0, 0}, {3, 4}), 7.0);
}

TEST(GeometryTest, AngularDistanceQuadrant) {
  // Centroid on the positive x-axis: angle 0; on the diagonal: pi/4.
  EXPECT_NEAR(util::AngularDistanceFromOrigin({10, -0.5, 2, 1}), 0.0, 1e-9);
  EXPECT_NEAR(util::AngularDistanceFromOrigin({9.5, 9.5, 1, 1}), M_PI / 4,
              1e-9);
}

TEST(GeometryTest, SumOfAngularDistancesSymmetric) {
  util::BBox a{10, 10, 5, 5}, b{50, 70, 5, 5};
  EXPECT_DOUBLE_EQ(util::SumOfAngularDistances(a, b, 100, 100),
                   util::SumOfAngularDistances(b, a, 100, 100));
  EXPECT_DOUBLE_EQ(util::SumOfAngularDistances(a, a, 100, 100), 0.0);
}

// ----------------------------------------------------------------- Color --

TEST(ColorTest, BlackAndWhiteLab) {
  util::Lab black = util::RgbToLab(util::Black());
  util::Lab white = util::RgbToLab(util::White());
  EXPECT_NEAR(black.l, 0.0, 0.5);
  EXPECT_NEAR(white.l, 100.0, 0.5);
  EXPECT_NEAR(white.a, 0.0, 0.5);
  EXPECT_NEAR(white.b, 0.0, 0.5);
}

TEST(ColorTest, RoundTripWithinTolerance) {
  for (util::Rgb c : {util::DarkBlue(), util::Crimson(), util::ForestGreen(),
                      util::Goldenrod(), util::SlateGray()}) {
    util::Rgb back = util::LabToRgb(util::RgbToLab(c));
    EXPECT_NEAR(back.r, c.r, 2);
    EXPECT_NEAR(back.g, c.g, 2);
    EXPECT_NEAR(back.b, c.b, 2);
  }
}

TEST(ColorTest, DeltaEProperties) {
  util::Lab a = util::RgbToLab(util::Crimson());
  util::Lab b = util::RgbToLab(util::ForestGreen());
  EXPECT_DOUBLE_EQ(util::DeltaE(a, a), 0.0);
  EXPECT_GT(util::DeltaE(a, b), 20.0);
  EXPECT_DOUBLE_EQ(util::DeltaE(a, b), util::DeltaE(b, a));
}

// ------------------------------------------------------------------ Math --

TEST(MathTest, MeanVarianceStdDev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(util::Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(util::Variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(util::StdDev(xs), 2.0);
}

TEST(MathTest, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(util::Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(util::Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(util::Median({}), 0.0);
}

TEST(MathTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(util::Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(util::Median({4, 1, 2, 3}), 2.5);
}

TEST(MathTest, PearsonPerfectCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(util::PearsonCorrelation(xs, ys), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(util::PearsonCorrelation(xs, neg), -1.0, 1e-12);
}

TEST(MathTest, PearsonDegenerateIsZero) {
  EXPECT_DOUBLE_EQ(util::PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(util::PearsonCorrelation({1, 2}, {1}), 0.0);
}

TEST(MathTest, CosineSimilarityBasics) {
  EXPECT_NEAR(util::CosineSimilarity(std::vector<double>{1, 0},
                                     std::vector<double>{1, 0}),
              1.0, 1e-12);
  EXPECT_NEAR(util::CosineSimilarity(std::vector<double>{1, 0},
                                     std::vector<double>{0, 1}),
              0.0, 1e-12);
  EXPECT_NEAR(util::CosineSimilarity(std::vector<double>{1, 0},
                                     std::vector<double>{-1, 0}),
              -1.0, 1e-12);
}

TEST(MathTest, FirstInflectionPointOfCubic) {
  // f(i) = (i-5)^3 has an inflection at i = 5.
  std::vector<double> series;
  for (int i = 0; i <= 10; ++i) {
    double x = i - 5.0;
    series.push_back(x * x * x);
  }
  size_t t = util::FirstInflectionPoint(series, 999);
  EXPECT_NEAR(static_cast<double>(t), 5.0, 1.0);
}

TEST(MathTest, FirstInflectionPointFallback) {
  // Convex series: second difference never changes sign.
  std::vector<double> series = {0, 1, 4, 9, 16, 25};
  EXPECT_EQ(util::FirstInflectionPoint(series, 42u), 42u);
  EXPECT_EQ(util::FirstInflectionPoint({1.0, 2.0}, 7u), 7u);
}

TEST(MathTest, FirstInflectionPointAdjacentSignChange) {
  // f'' signs: -, -, + with no plateau: the crossing index itself.
  std::vector<double> series = {0, 2, 3, 3, 4, 6};
  EXPECT_EQ(util::FirstInflectionPoint(series, 99u), 3u);
}

TEST(MathTest, FirstInflectionPointPlateauThenBend) {
  // f'' signs: +, 0, 0, -: the plateau separates opposite curvatures, so
  // the inflection is the plateau's first flat index.
  std::vector<double> series = {0, 0, 1, 2, 3, 3};
  EXPECT_EQ(util::FirstInflectionPoint(series, 99u), 2u);
}

TEST(MathTest, FirstInflectionPointFlatAndMonotoneFallBack) {
  // Zero curvature everywhere: no sign change, no inflection.
  EXPECT_EQ(util::FirstInflectionPoint({5, 5, 5, 5, 5}, 7u), 7u);
  EXPECT_EQ(util::FirstInflectionPoint({0, 1, 2, 3, 4}, 7u), 7u);
}

TEST(MathTest, FirstInflectionPointFlatSpotInsideConvexStretch) {
  // f'' signs: +, 0, +: a zero-curvature plateau with the same curvature
  // on both sides is not an inflection (the old guard reported one here).
  std::vector<double> series = {0, 0, 1, 2, 4};
  EXPECT_EQ(util::FirstInflectionPoint(series, 31u), 31u);
}

TEST(MathTest, MinMaxNormalize) {
  std::vector<double> out = util::MinMaxNormalize({2, 4, 6});
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.5);
  EXPECT_DOUBLE_EQ(out[2], 1.0);
  // Constant series maps to zeros.
  for (double v : util::MinMaxNormalize({3, 3, 3})) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MathTest, RanksWithTies) {
  std::vector<double> r = util::Ranks({10, 20, 20, 30});
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, SplitAndJoin) {
  auto parts = util::Split("a,b;;c", ",;");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(util::Join(parts, "-"), "a-b-c");
  EXPECT_TRUE(util::Split("", ",").empty());
}

TEST(StringsTest, SplitWhitespace) {
  auto parts = util::SplitWhitespace("  hello\tworld \n x ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[2], "x");
}

TEST(StringsTest, TrimAndCase) {
  EXPECT_EQ(util::Trim("  padded \t"), "padded");
  EXPECT_EQ(util::ToLower("MiXeD"), "mixed");
  EXPECT_EQ(util::ToUpper("MiXeD"), "MIXED");
  EXPECT_EQ(util::Capitalize("word"), "Word");
  EXPECT_EQ(util::Capitalize(""), "");
}

TEST(StringsTest, Predicates) {
  EXPECT_TRUE(util::StartsWith("foobar", "foo"));
  EXPECT_FALSE(util::StartsWith("fo", "foo"));
  EXPECT_TRUE(util::EndsWith("foobar", "bar"));
  EXPECT_TRUE(util::IsAllDigits("0123"));
  EXPECT_FALSE(util::IsAllDigits("12a"));
  EXPECT_FALSE(util::IsAllDigits(""));
  EXPECT_TRUE(util::IsCapitalized("Word"));
  EXPECT_FALSE(util::IsCapitalized("word"));
  EXPECT_TRUE(util::HasAlpha("a1"));
  EXPECT_FALSE(util::HasAlpha("123"));
  EXPECT_TRUE(util::HasDigit("a1"));
  EXPECT_FALSE(util::HasDigit("abc"));
}

TEST(StringsTest, LevenshteinKnownValues) {
  EXPECT_EQ(util::Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(util::Levenshtein("", "abc"), 3u);
  EXPECT_EQ(util::Levenshtein("same", "same"), 0u);
  EXPECT_EQ(util::Levenshtein("january", "tanuary"), 1u);
}

TEST(StringsTest, WithinOneEditMatchesLevenshteinExhaustively) {
  // Every string of length 0-6 over a 3-letter alphabet, every ordered pair.
  std::vector<std::string> all = {""};
  for (size_t begin = 0, len = 1; len <= 6; ++len) {
    size_t end = all.size();
    for (size_t i = begin; i < end; ++i) {
      for (char c : {'a', 'b', 'c'}) all.push_back(all[i] + c);
    }
    begin = end;
  }
  ASSERT_EQ(all.size(), 1093u);
  size_t within = 0;
  for (const std::string& a : all) {
    for (const std::string& b : all) {
      bool expected = util::Levenshtein(a, b) <= 1;
      ASSERT_EQ(util::WithinOneEdit(a, b), expected) << a << " vs " << b;
      within += expected ? 1 : 0;
    }
  }
  EXPECT_GT(within, all.size());  // the positive side is exercised too
}

TEST(StringsTest, WithinOneEditMatchesLevenshteinOnAnalyzerVocabulary) {
  // The words the analyzer matches fuzzily: months, weekdays and the sense
  // verbs. Every single deletion, substitution and insertion of each, and
  // adjacent transpositions (two edits), against every word of the list.
  const std::vector<std::string> words = {
      "january",   "february",   "march",     "april",     "august",
      "september", "october",    "november",  "december",  "monday",
      "tuesday",   "wednesday",  "thursday",  "friday",    "saturday",
      "sunday",    "hosted",     "hosting",   "organized", "organizing",
      "presented", "presenting", "sponsored", "featuring", "featured",
      "curated",   "directed",   "produced"};
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz0158 .";
  for (const std::string& w : words) {
    std::vector<std::string> edits;
    for (size_t i = 0; i <= w.size(); ++i) {
      if (i < w.size()) {
        edits.push_back(w.substr(0, i) + w.substr(i + 1));
        if (i + 1 < w.size()) {
          std::string swapped = w;
          std::swap(swapped[i], swapped[i + 1]);
          edits.push_back(swapped);
        }
      }
      for (char c : alphabet) {
        if (i < w.size()) {
          std::string sub = w;
          sub[i] = c;
          edits.push_back(sub);
        }
        edits.push_back(w.substr(0, i) + c + w.substr(i));
      }
    }
    for (const std::string& e : edits) {
      for (const std::string& other : words) {
        ASSERT_EQ(util::WithinOneEdit(e, other),
                  util::Levenshtein(e, other) <= 1)
            << e << " vs " << other;
        ASSERT_EQ(util::WithinOneEdit(other, e),
                  util::Levenshtein(other, e) <= 1)
            << other << " vs " << e;
      }
    }
  }
}

TEST(StringsTest, FormatAndReplace) {
  EXPECT_EQ(util::Format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(util::ReplaceAll("a{X}b{X}", "{X}", "!"), "a!b!");
  EXPECT_EQ(util::StripChars("..a.b..", "."), "a.b");
}

// ------------------------------------------------------------------ Arena --

bool IsAligned(const void* p, size_t align) {
  return reinterpret_cast<uintptr_t>(p) % align == 0;
}

TEST(ArenaTest, AllocationsAreAlignedIncludingOverAligned) {
  util::Arena arena(/*first_chunk_bytes=*/256);
  // Deliberately misalign the cursor before each over-aligned request.
  for (size_t align : {size_t{1}, size_t{8}, size_t{16}, size_t{32},
                       size_t{64}, size_t{128}}) {
    arena.Allocate(1, 1);
    void* p = arena.Allocate(align, align);
    EXPECT_TRUE(IsAligned(p, align)) << "align " << align;
  }
}

TEST(ArenaTest, DistinctLiveAllocationsDoNotOverlap) {
  util::Arena arena(/*first_chunk_bytes=*/128);  // forces chunk growth
  std::vector<std::pair<char*, size_t>> blocks;
  for (size_t i = 0; i < 64; ++i) {
    size_t n = 17 + i * 3;
    char* p = arena.AllocateArray<char>(n);
    std::memset(p, static_cast<int>(i), n);
    blocks.emplace_back(p, n);
  }
  // Every block still holds its own fill pattern — no two overlapped.
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (size_t j = 0; j < blocks[i].second; ++j) {
      ASSERT_EQ(blocks[i].first[j], static_cast<char>(i)) << i << "/" << j;
    }
  }
}

TEST(ArenaTest, ResetRetainsChunksForSteadyStateReuse) {
  util::Arena arena(/*first_chunk_bytes=*/1024);
  auto workload = [&arena] {
    for (int i = 0; i < 100; ++i) arena.AllocateArray<double>(32);
  };
  workload();
  arena.Reset();
  size_t warm_chunks = arena.chunk_count();
  size_t warm_reserved = arena.bytes_reserved();
  EXPECT_EQ(arena.bytes_used(), 0u);
  // The O(1)-mallocs-steady-state contract: repeating the same working
  // set after Reset allocates no further chunks.
  for (int round = 0; round < 10; ++round) {
    workload();
    arena.Reset();
  }
  EXPECT_EQ(arena.chunk_count(), warm_chunks);
  EXPECT_EQ(arena.bytes_reserved(), warm_reserved);
}

TEST(ArenaTest, OversizedRequestGetsItsOwnChunk) {
  util::Arena arena(/*first_chunk_bytes=*/64);
  char* big = arena.AllocateArray<char>(1 << 20);
  std::memset(big, 0x5a, 1 << 20);  // must be real, writable storage
  EXPECT_GE(arena.bytes_reserved(), size_t{1} << 20);
}

TEST(ArenaTest, MarkRewindReclaimsScopedAllocations) {
  util::Arena arena(/*first_chunk_bytes=*/256);
  arena.AllocateArray<char>(100);
  size_t before = arena.bytes_used();
  {
    util::ArenaScope scope(&arena);
    arena.AllocateArray<char>(10000);  // spills into later chunks
    EXPECT_GT(arena.bytes_used(), before);
  }
  EXPECT_EQ(arena.bytes_used(), before);
  // Memory rewound by the scope is handed out again.
  size_t reserved = arena.bytes_reserved();
  arena.AllocateArray<char>(10000);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, CreateConstructsInPlace) {
  util::Arena arena;
  struct Node {
    int id;
    double score;
  };
  Node* n = arena.Create<Node>(Node{7, 0.5});
  EXPECT_EQ(n->id, 7);
  EXPECT_EQ(n->score, 0.5);
  EXPECT_TRUE(IsAligned(n, alignof(Node)));
}

TEST(ArenaTest, ArenaAllocatorBacksStlContainers) {
  util::Arena arena;
  std::vector<int, util::ArenaAllocator<int>> v{
      util::ArenaAllocator<int>(&arena)};
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[i], i);
  EXPECT_GT(arena.bytes_reserved(), 1000 * sizeof(int));
  EXPECT_TRUE(util::ArenaAllocator<int>(&arena) ==
              util::ArenaAllocator<double>(&arena));
  util::Arena other;
  EXPECT_TRUE(util::ArenaAllocator<int>(&arena) !=
              util::ArenaAllocator<int>(&other));
}

}  // namespace
}  // namespace vs2
