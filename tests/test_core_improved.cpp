#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "genasmx/common/sequence.hpp"
#include "genasmx/common/verify.hpp"
#include "genasmx/core/genasm_improved.hpp"
#include "genasmx/genasm/genasm_baseline.hpp"
#include "genasmx/refdp/edit_dp.hpp"
#include "genasmx/util/prng.hpp"

namespace gx::core {
namespace {

ImprovedOptions optionsFromMask(int mask) {
  ImprovedOptions o;
  o.compress_entries = mask & 1;
  o.early_termination = mask & 2;
  o.traceback_pruning = mask & 4;
  return o;
}

// ------------------------------------------------- correctness vs the oracle

TEST(ImprovedGlobal, KnownCases) {
  struct Case {
    const char* t;
    const char* q;
    int dist;
  };
  for (const Case& c : {Case{"ACGT", "ACGT", 0}, Case{"ACGT", "AGGT", 1},
                        Case{"ACGT", "AGT", 1}, Case{"AGT", "ACGT", 1},
                        Case{"AAAA", "TTTT", 4}, Case{"GCTAGCT", "CTAGCTA", 2},
                        Case{"AG", "G", 1}, Case{"G", "AG", 1}}) {
    const auto res = alignGlobalImproved(c.t, c.q);
    ASSERT_TRUE(res.ok) << c.t << " vs " << c.q;
    EXPECT_EQ(res.edit_distance, c.dist) << c.t << " vs " << c.q;
    const auto v = common::verifyAlignment(c.t, c.q, res.cigar);
    EXPECT_TRUE(v.valid) << v.error;
  }
}

TEST(ImprovedGlobal, EmptyInputs) {
  EXPECT_EQ(alignGlobalImproved("", "").edit_distance, 0);
  EXPECT_EQ(alignGlobalImproved("ACGT", "").cigar.str(), "4D");
  EXPECT_EQ(alignGlobalImproved("", "ACGT").cigar.str(), "4I");
}

class ImprovedSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ImprovedSweep, MatchesOracleAndVerifies) {
  const auto [seed, len, edits] = GetParam();
  util::Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 104729 + 1);
  for (int trial = 0; trial < 8; ++trial) {
    const auto t = common::randomSequence(rng, static_cast<std::size_t>(len));
    const auto q =
        common::mutateSequence(rng, t, static_cast<std::size_t>(edits));
    const int oracle = refdp::editDistance(t, q);
    const auto res = alignGlobalImproved(t, q);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.edit_distance, oracle) << "t=" << t << " q=" << q;
    const auto v = common::verifyAlignment(t, q, res.cigar);
    ASSERT_TRUE(v.valid) << v.error;
    EXPECT_EQ(static_cast<int>(v.cost), oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LengthsByEdits, ImprovedSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 8, 33, 64, 100, 200),
                       ::testing::Values(0, 1, 4, 12)),
    [](const auto& info) {
      return std::string("s") + std::to_string(std::get<0>(info.param)) + "_len" +
             std::to_string(std::get<1>(info.param)) + "_e" +
             std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------- ablation grid: all 8 variants

// Every combination of the three improvements must produce *identical*
// results: the improvements change where table entries live and how many
// are computed/stored, never the recurrence or the traceback priority.
class AblationGrid : public ::testing::TestWithParam<int> {};

TEST_P(AblationGrid, AllOptionCombinationsAgreeWithBaseline) {
  const ImprovedOptions opts = optionsFromMask(GetParam());
  util::Xoshiro256 rng(777);
  genasm::BaselineWindowSolver<1> baseline;
  ImprovedWindowSolver<1> improved(opts);
  for (int trial = 0; trial < 20; ++trial) {
    const auto text = common::randomSequence(rng, 30 + rng.below(34));
    const auto pattern = common::mutateSequence(
        rng, text.substr(0, 20 + rng.below(30)), rng.below(8));
    if (pattern.empty() || pattern.size() > 64) continue;
    const auto t_rev = common::reversed(text);
    const auto q_rev = common::reversed(pattern);
    for (const auto anchor : {Anchor::StartOnly, Anchor::BothEnds}) {
      for (const int limit : {-1, 7, 40}) {
        WindowSpec spec;
        spec.anchor = anchor;
        spec.tb_op_limit = limit;
        const auto wb = baseline.solve(t_rev, q_rev, spec);
        const auto wi = improved.solve(t_rev, q_rev, spec);
        ASSERT_EQ(wb.ok, wi.ok);
        if (!wb.ok) continue;
        EXPECT_EQ(wb.distance, wi.distance);
        // Identical deterministic traceback priority => identical cigars.
        EXPECT_EQ(wb.cigar, wi.cigar)
            << "mask=" << GetParam() << " anchor=" << static_cast<int>(anchor)
            << " limit=" << limit << "\n baseline=" << wb.cigar.str()
            << "\n improved=" << wi.cigar.str();
        EXPECT_EQ(wb.traceback_complete, wi.traceback_complete);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Masks, AblationGrid, ::testing::Range(0, 8));

// ------------------------------------------------------ memory instrumentation

TEST(ImprovedMemory, FootprintAndAccessesBelowBaseline) {
  util::Xoshiro256 rng(99);
  const auto text = common::randomSequence(rng, 64);
  const auto pattern = common::mutateSequence(rng, text, 6);
  if (pattern.size() > 64) return;

  util::MemStats base_stats, impr_stats;
  const auto rb =
      genasm::alignGlobalBaseline(text, pattern, -1, &base_stats);
  const auto ri = alignGlobalImproved(text, pattern, -1, ImprovedOptions{},
                                      &impr_stats);
  ASSERT_TRUE(rb.ok);
  ASSERT_TRUE(ri.ok);
  EXPECT_EQ(rb.edit_distance, ri.edit_distance);
  EXPECT_LT(impr_stats.bytes_peak, base_stats.bytes_peak);
  EXPECT_LT(impr_stats.accesses(), base_stats.accesses());
  // The paper's claims are measured properly in bench_memory_*; here we
  // only pin that the reductions are substantial (>3x each).
  EXPECT_GT(base_stats.bytes_peak, 3 * impr_stats.bytes_peak);
  EXPECT_GT(base_stats.accesses(), 3 * impr_stats.accesses());
}

TEST(ImprovedMemory, EarlyTerminationSkipsLevels) {
  // Identical sequences => d_min = 0; with ET a single level is computed.
  const std::string s(64, 'A');
  util::MemStats with_et, without_et;
  ImprovedOptions on;
  ImprovedOptions off;
  off.early_termination = false;
  ASSERT_TRUE(alignGlobalImproved(s, s, -1, on, &with_et).ok);
  ASSERT_TRUE(alignGlobalImproved(s, s, -1, off, &without_et).ok);
  // Without ET all 65 levels are computed; with ET exactly 1.
  EXPECT_GT(without_et.dp_stores, 30 * with_et.dp_stores);
}

TEST(ImprovedMemory, CompressionReducesStores) {
  util::Xoshiro256 rng(101);
  const auto text = common::randomSequence(rng, 64);
  const auto pattern = common::mutateSequence(rng, text, 8);
  util::MemStats comp, uncomp;
  ImprovedOptions on;
  ImprovedOptions off;
  off.compress_entries = false;
  ASSERT_TRUE(alignGlobalImproved(text, pattern, -1, on, &comp).ok);
  ASSERT_TRUE(alignGlobalImproved(text, pattern, -1, off, &uncomp).ok);
  EXPECT_LT(comp.dp_stores, uncomp.dp_stores);
  EXPECT_LT(comp.bytes_peak, uncomp.bytes_peak);
}

TEST(ImprovedMemory, PruningShrinksStoresUnderOpLimit) {
  util::Xoshiro256 rng(103);
  const auto text = common::randomSequence(rng, 64);
  const auto pattern = common::mutateSequence(rng, text, 4);
  const auto t_rev = common::reversed(text);
  const auto q_rev = common::reversed(pattern);
  WindowSpec spec;
  spec.anchor = Anchor::StartOnly;
  spec.tb_op_limit = 16;

  util::MemStats pruned_stats, full_stats;
  ImprovedOptions pruned_opts;
  ImprovedOptions full_opts;
  full_opts.traceback_pruning = false;
  ImprovedWindowSolver<1> pruned(pruned_opts), full(full_opts);
  const auto wp =
      pruned.solve(t_rev, q_rev, spec, util::CountingMemCounter(pruned_stats));
  const auto wf =
      full.solve(t_rev, q_rev, spec, util::CountingMemCounter(full_stats));
  ASSERT_TRUE(wp.ok);
  ASSERT_TRUE(wf.ok);
  EXPECT_EQ(wp.cigar, wf.cigar);
  EXPECT_LT(pruned_stats.bytes_peak, full_stats.bytes_peak);
}

// ----------------------------------------------------------- multiword core

class ImprovedMultiWordSweep : public ::testing::TestWithParam<int> {};

TEST_P(ImprovedMultiWordSweep, MatchesOracle) {
  const int len = GetParam();
  util::Xoshiro256 rng(static_cast<std::uint64_t>(len) * 17 + 3);
  const auto t = common::randomSequence(rng, static_cast<std::size_t>(len));
  const auto q = common::mutateSequence(rng, t, 12);
  const int oracle = refdp::editDistance(t, q);
  const auto res = alignGlobalImproved(t, q);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.edit_distance, oracle);
  EXPECT_TRUE(common::verifyAlignment(t, q, res.cigar).valid);
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, ImprovedMultiWordSweep,
                         ::testing::Values(63, 64, 65, 127, 128, 129, 200,
                                           256, 300, 480));

TEST(ImprovedSolver, RespectsMaxEditsCap) {
  EXPECT_FALSE(alignGlobalImproved("AAAA", "TTTT", 3).ok);
  EXPECT_TRUE(alignGlobalImproved("AAAA", "TTTT", 4).ok);
}

// The global solvers hold one window of at most 512 query bases (the
// widest bitvector); a longer query fails instead of being truncated.
TEST(ImprovedSolver, GlobalSolveFailsPast512QueryBases) {
  util::Xoshiro256 rng(513);
  const auto t = common::randomSequence(rng, 530);
  for (const std::size_t m : {512UL, 513UL}) {
    const auto q = t.substr(0, m);
    EXPECT_EQ(alignGlobalImproved(t, q).ok, m <= 512) << m;
    EXPECT_EQ(genasm::alignGlobalBaseline(t, q).ok, m <= 512) << m;
  }
}

TEST(ImprovedSolver, TracebackOpLimitTruncates) {
  ImprovedWindowSolver<1> solver;
  const std::string text = "ACGTACGTACGT";
  WindowSpec spec;
  spec.anchor = Anchor::StartOnly;
  spec.tb_op_limit = 5;
  const auto wr = solver.solve(common::reversed(text),
                               common::reversed(text), spec);
  ASSERT_TRUE(wr.ok);
  EXPECT_EQ(wr.cigar.str(), "5=");
  EXPECT_FALSE(wr.traceback_complete);
}

}  // namespace
}  // namespace gx::core
