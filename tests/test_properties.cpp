// Cross-cutting property tests and regression tests for the failure modes
// discovered during integration.

#include <gtest/gtest.h>

#include <string>

#include "genasmx/common/sequence.hpp"
#include "genasmx/common/verify.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/engine/engine.hpp"
#include "genasmx/ksw/ksw_affine.hpp"
#include "genasmx/myers/myers.hpp"
#include "genasmx/refdp/edit_dp.hpp"
#include "genasmx/util/prng.hpp"

namespace gx {
namespace {

// ---------------------------------------------------------- regressions

// Regression: a candidate start flank below ~0.45*W must be absorbed
// exactly (the equal-window geometry used to derail stitching at flank
// >= 13 on insertion-heavy reads).
class StartFlankRegression : public ::testing::TestWithParam<int> {};

TEST_P(StartFlankRegression, FlankAbsorbedExactly) {
  const int flank = GetParam();
  util::Xoshiro256 rng(2024);
  // Insertion-heavy mutation pattern, like PacBio CLR reads.
  const auto origin = common::randomSequence(rng, 1'500);
  std::string query;
  for (char c : origin) {
    if (rng.chance(0.06)) query.push_back(common::kBases[rng.below(4)]);
    if (!rng.chance(0.03)) query.push_back(c);
  }
  const std::string target =
      common::randomSequence(rng, static_cast<std::size_t>(flank)) + origin;
  const auto windowed = core::alignWindowedImproved(target, query);
  const auto optimal = myers::myersAlign(target, query);
  ASSERT_TRUE(windowed.ok);
  ASSERT_TRUE(optimal.ok);
  EXPECT_TRUE(common::verifyAlignment(target, query, windowed.cigar).valid);
  // Near-exact: small slack for genuinely ambiguous window commits.
  EXPECT_LE(windowed.edit_distance, optimal.edit_distance + 6)
      << "flank=" << flank;
}

INSTANTIATE_TEST_SUITE_P(Flanks, StartFlankRegression,
                         ::testing::Values(0, 1, 4, 8, 12, 16, 20, 24));

// Regression: with lookahead disabled, the equal-window pathology exists
// (documents why the default is W/2 — if this ever starts passing with
// lookahead=0, the guard can be reconsidered).
TEST(LookaheadRegression, ZeroLookaheadDegradesFlankedAlignments) {
  util::Xoshiro256 rng(2025);
  const auto origin = common::randomSequence(rng, 1'500);
  std::string query;
  for (char c : origin) {
    if (rng.chance(0.06)) query.push_back(common::kBases[rng.below(4)]);
    if (!rng.chance(0.03)) query.push_back(c);
  }
  const std::string target = common::randomSequence(rng, 16) + origin;
  core::WindowConfig no_look;
  no_look.lookahead = 0;
  const auto degraded = core::alignWindowedImproved(target, query, no_look);
  const auto healthy = core::alignWindowedImproved(target, query);
  ASSERT_TRUE(degraded.ok);
  ASSERT_TRUE(healthy.ok);
  // Both stay valid alignments regardless.
  EXPECT_TRUE(common::verifyAlignment(target, query, degraded.cigar).valid);
  EXPECT_LE(healthy.edit_distance, degraded.edit_distance);
}

// Regression: trailing text beyond the final window becomes deletions and
// the alignment stays valid and near-optimal.
TEST(FinalWindowRegression, TrailingTextBecomesDeletions) {
  util::Xoshiro256 rng(2026);
  const auto origin = common::randomSequence(rng, 900);
  const auto query = common::mutateSequence(rng, origin, 70);
  const std::string target = origin + common::randomSequence(rng, 25);
  const auto res = core::alignWindowedImproved(target, query);
  ASSERT_TRUE(res.ok);
  const auto v = common::verifyAlignment(target, query, res.cigar);
  ASSERT_TRUE(v.valid) << v.error;
  const auto optimal = myers::myersAlign(target, query);
  EXPECT_LE(res.edit_distance, optimal.edit_distance + 10);
}

// ------------------------------------------------- cross-aligner equality

// For global alignment all exact aligners must agree on the cost, and
// GenASM's global mode is exact.
class GlobalCostAgreement : public ::testing::TestWithParam<int> {};

TEST_P(GlobalCostAgreement, AllExactAlignersAgree) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  for (int t = 0; t < 10; ++t) {
    const auto a = common::randomSequence(rng, 20 + rng.below(280));
    const auto b = common::mutateSequence(rng, a, rng.below(30));
    const int oracle = refdp::editDistance(a, b);
    EXPECT_EQ(myers::myersDistance(a, b), oracle);
    EXPECT_EQ(core::alignGlobalImproved(a, b).edit_distance, oracle);
    ksw::KswConfig unit;
    unit.params = refdp::AffineParams::editDistanceEquivalent();
    EXPECT_EQ(-ksw::kswScore(a, b, unit), oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobalCostAgreement, ::testing::Range(0, 8));

// Windowed GenASM never beats the optimal aligner (sanity of "cost
// ratio" metrics in E7) and always verifies.
TEST(WindowedVsOptimal, NeverBelowOptimalAlwaysValid) {
  util::Xoshiro256 rng(77);
  for (int t = 0; t < 12; ++t) {
    const auto a = common::randomSequence(rng, 300 + rng.below(900));
    const auto b = common::mutateSequence(rng, a, rng.below(120));
    const auto windowed = core::alignWindowedImproved(a, b);
    ASSERT_TRUE(windowed.ok);
    ASSERT_TRUE(common::verifyAlignment(a, b, windowed.cigar).valid);
    EXPECT_GE(windowed.edit_distance, myers::myersDistance(a, b));
  }
}

// ------------------------------------------------------------ batch API

engine::AlignmentEngine windowedEngine(const char* backend,
                                       std::size_t threads) {
  engine::EngineConfig cfg;
  cfg.backend = backend;
  cfg.threads = threads;
  return engine::AlignmentEngine(cfg);
}

TEST(Batch, MatchesSequentialAndThreadCountInvariant) {
  util::Xoshiro256 rng(88);
  std::vector<mapper::AlignmentPair> pairs;
  for (int i = 0; i < 24; ++i) {
    mapper::AlignmentPair p;
    p.target = common::randomSequence(rng, 400 + rng.below(400));
    p.query = common::mutateSequence(rng, p.target, rng.below(60));
    pairs.push_back(std::move(p));
  }
  auto one_thread = windowedEngine("windowed-improved", 1);
  auto four_threads = windowedEngine("windowed-improved", 4);
  const auto r1 = one_thread.alignBatch(pairs);
  const auto r4 = four_threads.alignBatch(pairs);
  ASSERT_EQ(r1.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(r1[i].ok);
    EXPECT_EQ(r1[i].cigar, r4[i].cigar);
    const auto direct =
        core::alignWindowedImproved(pairs[i].target, pairs[i].query);
    EXPECT_EQ(r1[i].cigar, direct.cigar);
  }
}

TEST(Batch, BaselineModeMatchesImproved) {
  util::Xoshiro256 rng(89);
  std::vector<mapper::AlignmentPair> pairs;
  for (int i = 0; i < 8; ++i) {
    mapper::AlignmentPair p;
    p.target = common::randomSequence(rng, 500);
    p.query = common::mutateSequence(rng, p.target, 40);
    pairs.push_back(std::move(p));
  }
  // The baseline is reproduction code, not a backend: its scalar march
  // against the served windowed-improved engine.
  auto improved = windowedEngine("windowed-improved", 2);
  const auto impr = improved.alignBatch(pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto base =
        core::alignWindowedBaseline(pairs[i].target, pairs[i].query);
    EXPECT_EQ(base.cigar, impr[i].cigar);
  }
}

TEST(Batch, EmptyBatch) {
  auto eng = windowedEngine("windowed-improved", 0);
  EXPECT_TRUE(eng.alignBatch(std::vector<mapper::AlignmentPair>{}).empty());
}

// ------------------------------------------------ adversarial inputs

TEST(Adversarial, HomopolymersAndTandemRepeats) {
  // Highly ambiguous inputs (every traceback tie triggers): all aligners
  // must stay valid and exact-cost in global mode.
  const std::string cases[][2] = {
      {"AAAAAAAAAAAAAAAA", "AAAAAAAA"},
      {"ACACACACACACACAC", "ACACACAC"},
      {"ACGACGACGACGACGACG", "ACGACGACG"},
      {"AAAAAAAACCCCCCCC", "AAAACCCC"},
      {"ACGTACGTACGTACGT", "TGCATGCATGCATGCA"},
  };
  for (const auto& c : cases) {
    const std::string t = c[0];
    const std::string q = c[1];
    const int oracle = refdp::editDistance(t, q);
    const auto g = core::alignGlobalImproved(t, q);
    ASSERT_TRUE(g.ok) << t << " vs " << q;
    EXPECT_EQ(g.edit_distance, oracle);
    EXPECT_TRUE(common::verifyAlignment(t, q, g.cigar).valid);
    const auto m = myers::myersAlign(t, q);
    EXPECT_EQ(m.edit_distance, oracle);
    EXPECT_TRUE(common::verifyAlignment(t, q, m.cigar).valid);
  }
}

TEST(Adversarial, SingleCharAndExtremeLengthRatios) {
  EXPECT_EQ(core::alignGlobalImproved("A", "T").edit_distance, 1);
  EXPECT_EQ(core::alignGlobalImproved(std::string(500, 'A'), "A")
                .edit_distance,
            499);
  EXPECT_EQ(core::alignGlobalImproved("A", std::string(500, 'A'))
                .edit_distance,
            499);
  const auto res =
      core::alignWindowedImproved(std::string(3'000, 'G'), "G");
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.edit_distance, 2'999);
}

TEST(Adversarial, WindowedOnPeriodicLongSequences) {
  // Periodic sequences maximize traceback ambiguity across windows.
  std::string t, q;
  for (int i = 0; i < 300; ++i) t += "ACGT";
  q = t;
  q.erase(200, 7);  // one deletion burst
  q.insert(600, "TTT");
  const auto res = core::alignWindowedImproved(t, q);
  ASSERT_TRUE(res.ok);
  const auto v = common::verifyAlignment(t, q, res.cigar);
  ASSERT_TRUE(v.valid) << v.error;
  EXPECT_LE(res.edit_distance, 10 + 4);
}

}  // namespace
}  // namespace gx
