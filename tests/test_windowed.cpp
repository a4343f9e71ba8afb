#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "genasmx/common/sequence.hpp"
#include "genasmx/common/verify.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/refdp/edit_dp.hpp"
#include "genasmx/simd/batch_solver.hpp"
#include "genasmx/simd/dispatch.hpp"
#include "genasmx/util/prng.hpp"

namespace gx::core {
namespace {

TEST(WindowConfig, Validation) {
  WindowConfig ok;
  EXPECT_NO_THROW(ok.validate());
  WindowConfig bad_w;
  bad_w.window = 1;
  EXPECT_THROW(bad_w.validate(), std::invalid_argument);
  WindowConfig huge_w;
  huge_w.window = 1000;
  EXPECT_THROW(huge_w.validate(), std::invalid_argument);
  WindowConfig bad_o;
  bad_o.overlap = 0;
  EXPECT_THROW(bad_o.validate(), std::invalid_argument);
  WindowConfig o_ge_w;
  o_ge_w.window = 32;
  o_ge_w.overlap = 32;
  EXPECT_THROW(o_ge_w.validate(), std::invalid_argument);
}

TEST(Windowed, IdenticalSequencesAlignPerfectly) {
  util::Xoshiro256 rng(1);
  const auto s = common::randomSequence(rng, 1000);
  const auto res = alignWindowedImproved(s, s);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.edit_distance, 0);
  EXPECT_EQ(res.cigar.str(), "1000=");
}

TEST(Windowed, EmptyInputs) {
  EXPECT_EQ(alignWindowedImproved("", "").edit_distance, 0);
  EXPECT_EQ(alignWindowedImproved("ACGT", "").cigar.str(), "4D");
  EXPECT_EQ(alignWindowedImproved("", "ACGT").cigar.str(), "4I");
}

TEST(Windowed, ShortInputsBelowOneWindow) {
  // Everything fits in the final (global) window => exact distances.
  util::Xoshiro256 rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const auto t = common::randomSequence(rng, 1 + rng.below(60));
    const auto q = common::mutateSequence(rng, t, rng.below(6));
    if (q.empty()) continue;
    const auto res = alignWindowedImproved(t, q);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.edit_distance, refdp::editDistance(t, q));
    EXPECT_TRUE(common::verifyAlignment(t, q, res.cigar).valid);
  }
}

// Windowed alignment is a heuristic: always valid, cost >= optimal, and
// near-optimal at realistic long-read error rates.
class WindowedQuality
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // len, err%

TEST_P(WindowedQuality, ValidAndNearOptimal) {
  const auto [len, err_pct] = GetParam();
  util::Xoshiro256 rng(static_cast<std::uint64_t>(len) * 131 + err_pct);
  for (int trial = 0; trial < 3; ++trial) {
    const auto t = common::randomSequence(rng, static_cast<std::size_t>(len));
    const auto q = common::mutateSequence(
        rng, t, static_cast<std::size_t>(len) * err_pct / 100);
    const int oracle = refdp::editDistance(t, q);
    const auto res = alignWindowedImproved(t, q);
    ASSERT_TRUE(res.ok);
    const auto v = common::verifyAlignment(t, q, res.cigar);
    ASSERT_TRUE(v.valid) << v.error;
    EXPECT_EQ(static_cast<int>(v.cost), res.edit_distance);
    EXPECT_GE(res.edit_distance, oracle);
    // Generous quality bound; the typical overhead (bench_window_params
    // prints it as the cost ratio) is far smaller at long-read error
    // rates.
    EXPECT_LE(res.edit_distance, oracle * 2 + 8)
        << "len=" << len << " err=" << err_pct << "%";
  }
}

INSTANTIATE_TEST_SUITE_P(
    LenByError, WindowedQuality,
    ::testing::Combine(::testing::Values(200, 500, 1200),
                       ::testing::Values(0, 1, 5, 10, 15)),
    [](const auto& info) {
      return "len" + std::to_string(std::get<0>(info.param)) + "_err" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Windowed, BaselineAndImprovedProduceIdenticalAlignments) {
  // Shared windowing + identical recurrence + identical traceback priority
  // => bit-identical output, independent of all improvement toggles.
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    const auto t = common::randomSequence(rng, 400 + rng.below(400));
    const auto q = common::mutateSequence(rng, t, 30 + rng.below(30));
    const auto rb = alignWindowedBaseline(t, q);
    const auto ri = alignWindowedImproved(t, q);
    ASSERT_TRUE(rb.ok);
    ASSERT_TRUE(ri.ok);
    EXPECT_EQ(rb.edit_distance, ri.edit_distance);
    EXPECT_EQ(rb.cigar, ri.cigar);
  }
}

TEST(Windowed, AblationVariantsProduceIdenticalAlignments) {
  util::Xoshiro256 rng(4);
  const auto t = common::randomSequence(rng, 700);
  const auto q = common::mutateSequence(rng, t, 60);
  const auto reference = alignWindowedImproved(t, q);
  ASSERT_TRUE(reference.ok);
  for (int mask = 0; mask < 8; ++mask) {
    ImprovedOptions o;
    o.compress_entries = mask & 1;
    o.early_termination = mask & 2;
    o.traceback_pruning = mask & 4;
    const auto res = alignWindowedImproved(t, q, WindowConfig{}, o);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.cigar, reference.cigar) << "mask=" << mask;
  }
}

class WindowedConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // W, O

TEST_P(WindowedConfigSweep, ValidAcrossWindowGeometometry) {
  const auto [W, O] = GetParam();
  WindowConfig cfg;
  cfg.window = W;
  cfg.overlap = O;
  util::Xoshiro256 rng(static_cast<std::uint64_t>(W) * 1000 + O);
  const auto t = common::randomSequence(rng, 600);
  const auto q = common::mutateSequence(rng, t, 45);
  const auto res = alignWindowedImproved(t, q, cfg);
  ASSERT_TRUE(res.ok) << "W=" << W << " O=" << O;
  const auto v = common::verifyAlignment(t, q, res.cigar);
  ASSERT_TRUE(v.valid) << v.error;
  EXPECT_GE(res.edit_distance, refdp::editDistance(t, q));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WindowedConfigSweep,
    ::testing::Values(std::tuple{32, 8}, std::tuple{32, 16},
                      std::tuple{48, 16}, std::tuple{64, 16},
                      std::tuple{64, 24}, std::tuple{64, 32},
                      std::tuple{96, 32}, std::tuple{128, 48},
                      std::tuple{256, 64}),
    [](const auto& info) {
      return "W" + std::to_string(std::get<0>(info.param)) + "_O" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Windowed, TargetMuchLongerThanQuery) {
  // Candidate regions can carry extra reference margin; the alignment must
  // stay valid, absorbing the slack as deletions.
  util::Xoshiro256 rng(5);
  const auto q = common::randomSequence(rng, 150);
  const auto t = q + common::randomSequence(rng, 300);
  const auto res = alignWindowedImproved(t, q);
  ASSERT_TRUE(res.ok);
  EXPECT_TRUE(common::verifyAlignment(t, q, res.cigar).valid);
}

TEST(Windowed, QueryMuchLongerThanTarget) {
  util::Xoshiro256 rng(6);
  const auto t = common::randomSequence(rng, 150);
  const auto q = t + common::randomSequence(rng, 300);
  const auto res = alignWindowedImproved(t, q);
  ASSERT_TRUE(res.ok);
  EXPECT_TRUE(common::verifyAlignment(t, q, res.cigar).valid);
}

TEST(Windowed, LongReadRealisticScale) {
  // One 10kb read at ~10% error: the paper's workload shape.
  util::Xoshiro256 rng(7);
  const auto t = common::randomSequence(rng, 10000);
  const auto q = common::mutateSequence(rng, t, 1000);
  const auto res = alignWindowedImproved(t, q);
  ASSERT_TRUE(res.ok);
  const auto v = common::verifyAlignment(t, q, res.cigar);
  ASSERT_TRUE(v.valid) << v.error;
  EXPECT_LE(res.edit_distance, 2200);  // sane cost for ~1000 true edits
}

TEST(Windowed, MemStatsAccumulateAcrossWindows) {
  util::Xoshiro256 rng(8);
  const auto t = common::randomSequence(rng, 1000);
  const auto q = common::mutateSequence(rng, t, 80);
  util::MemStats stats;
  const auto res = alignWindowedImproved(t, q, WindowConfig{},
                                         ImprovedOptions{}, &stats);
  ASSERT_TRUE(res.ok);
  EXPECT_GT(stats.problems, 10u);  // ~1000/40 windows
  EXPECT_GT(stats.dp_stores, 0u);
  // Peak footprint is per-window, not per-read: must stay tiny.
  EXPECT_LT(stats.bytes_peak, 64u * 1024u);
}


// --------------------------------------------------------------------------
// The march rules through both drivers. One table of requests at the
// default geometry (W = 64, O = 24: a mid-read window commits 40 ops) runs
// through the scalar driver with either solver and through the batched
// driver at every built ISA, in both output modes. Every driver must
// report the table's pinned cost and solve its pinned number of windows
// (which pins the window geometry); a CIGAR must replay and cost at
// least the optimum.

struct MarchCase {
  std::string name;
  std::string target;
  std::string query;
  int cost;     ///< the march's edit distance, pinned
  int windows;  ///< windows the march solves, pinned
};

/// `s` with a substitution at each position in `at`.
std::string substitute(std::string s, std::initializer_list<std::size_t> at) {
  for (const std::size_t i : at) s[i] = s[i] == 'A' ? 'C' : 'A';
  return s;
}

std::vector<MarchCase> marchCases() {
  util::Xoshiro256 rng(64);
  std::vector<MarchCase> cases;
  const auto add = [&](std::string name, std::string t, std::string q,
                       int cost, int windows) {
    cases.push_back(
        {std::move(name), std::move(t), std::move(q), cost, windows});
  };
  // No window at all: the trailing-deletion and trailing-insertion exits.
  add("EmptyQuery", common::randomSequence(rng, 40), "", 40, 0);
  add("EmptyTarget", "", common::randomSequence(rng, 40), 40, 0);
  add("BothEmpty", "", "", 0, 0);
  // Remaining query of exactly W: one final window.
  const std::string w = common::randomSequence(rng, 64);
  add("QueryOfW", w, substitute(w, {3, 31, 60}), 3, 1);
  // W + 1: a mid-read window, then a 25-character final window. With the
  // text end free, the final window takes the last substitution as 1I,
  // and the text character left over becomes a trailing 1D: cost 4.
  const std::string w1 = common::randomSequence(rng, 65);
  add("QueryOfWPlus1", w1, substitute(w1, {3, 31, 64}), 4, 2);
  // 2W - O: the mid-read window leaves exactly W for the final window.
  const std::string two = common::randomSequence(rng, 104);
  add("QueryOf2WMinusO", two, substitute(two, {5, 50, 100}), 3, 2);
  // The target runs out first: trailing insertions.
  const std::string shrt = common::randomSequence(rng, 100);
  add("TargetMuchShorter", shrt, shrt + common::randomSequence(rng, 300),
      300, 3);
  // The final window leaves most of the target: trailing deletions.
  const std::string q = common::randomSequence(rng, 150);
  add("TargetMuchLonger", q + common::randomSequence(rng, 400), q, 400, 4);
  // Many windows with indels: the cap kill lands mid-march.
  const std::string t = common::randomSequence(rng, 1000);
  add("NoisyLongRead", t, common::mutateSequence(rng, t, 100), 92, 26);
  return cases;
}

/// One capped distance request and the result the table implies for it.
struct CapProbe {
  std::size_t case_idx;
  int cap;
  int want;
};

/// cap = -1 and cap = cost return the cost; cap = cost - 1 kills.
std::vector<CapProbe> capProbes(const std::vector<MarchCase>& cases) {
  std::vector<CapProbe> probes;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const int cost = cases[i].cost;
    probes.push_back({i, -1, cost});
    probes.push_back({i, cost, cost});
    if (cost > 0) probes.push_back({i, cost - 1, -1});
  }
  return probes;
}

void expectMatchesTable(const std::string& driver,
                        const std::vector<MarchCase>& cases,
                        const std::vector<common::AlignmentResult>& aligns,
                        const std::vector<CapProbe>& probes,
                        const std::vector<int>& dists) {
  ASSERT_EQ(aligns.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const MarchCase& c = cases[i];
    const common::AlignmentResult& res = aligns[i];
    SCOPED_TRACE(driver + " " + c.name);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.edit_distance, c.cost);
    EXPECT_EQ(res.score, -c.cost);
    const auto v = common::verifyAlignment(c.target, c.query, res.cigar);
    ASSERT_TRUE(v.valid) << v.error;
    EXPECT_EQ(static_cast<int>(v.cost), c.cost);
    EXPECT_GE(res.edit_distance, refdp::editDistance(c.target, c.query));
  }
  ASSERT_EQ(dists.size(), probes.size());
  for (std::size_t j = 0; j < probes.size(); ++j) {
    EXPECT_EQ(dists[j], probes[j].want)
        << driver << " " << cases[probes[j].case_idx].name
        << " cap=" << probes[j].cap;
  }
}

TEST(WindowMarchRules, ScalarAndBatchedDriversMatchTheTable) {
  const WindowConfig cfg;
  const auto cases = marchCases();
  const auto probes = capProbes(cases);
  std::vector<common::AlignmentResult> aligns(cases.size());
  std::vector<int> dists(probes.size(), -2);

  // Scalar driver, both paper solvers.
  int total_windows = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    util::MemStats stats;
    aligns[i] = alignWindowedImproved(cases[i].target, cases[i].query, cfg,
                                      {}, &stats);
    EXPECT_EQ(stats.problems, static_cast<std::uint64_t>(cases[i].windows))
        << cases[i].name;
    total_windows += cases[i].windows;
  }
  for (std::size_t j = 0; j < probes.size(); ++j) {
    const MarchCase& c = cases[probes[j].case_idx];
    dists[j] = distanceWindowedImproved(c.target, c.query, cfg, {},
                                        probes[j].cap);
  }
  expectMatchesTable("scalar/improved", cases, aligns, probes, dists);
  const std::vector<common::AlignmentResult> reference = aligns;

  for (std::size_t i = 0; i < cases.size(); ++i) {
    aligns[i] = alignWindowedBaseline(cases[i].target, cases[i].query, cfg);
  }
  for (std::size_t j = 0; j < probes.size(); ++j) {
    const MarchCase& c = cases[probes[j].case_idx];
    dists[j] = distanceWindowedBaseline(c.target, c.query, cfg,
                                        probes[j].cap);
  }
  expectMatchesTable("scalar/baseline", cases, aligns, probes, dists);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(aligns[i].cigar, reference[i].cigar) << cases[i].name;
  }

  // Batched driver at every built ISA: every case marches in one lock-step
  // batch, so marches of different lengths share sweeps.
  std::vector<BatchedAlignRequest> areqs;
  for (const MarchCase& c : cases) areqs.push_back({c.target, c.query});
  std::vector<BatchedDistanceRequest> dreqs;
  for (const CapProbe& p : probes) {
    const MarchCase& c = cases[p.case_idx];
    dreqs.push_back({c.target, c.query, p.cap});
  }
  const simd::IsaLevel active = simd::activeIsa();
  for (const simd::IsaLevel level :
       {simd::IsaLevel::Scalar, simd::IsaLevel::Sse2, simd::IsaLevel::Avx2,
        simd::IsaLevel::Avx512}) {
    if (!simd::isaSupported(level)) continue;
    ASSERT_EQ(simd::forceIsa(level), level);
    simd::SimdBatchSolver solver;
    const std::string driver =
        "batched/" + std::string(simd::isaName(solver.isa()));
    alignWindowedBatch(solver, cfg, areqs.data(), areqs.size(),
                       aligns.data());
    EXPECT_EQ(solver.stats().lanes_filled,
              static_cast<std::uint64_t>(total_windows))
        << driver;
    distanceWindowedBatch(solver, cfg, dreqs.data(), dreqs.size(),
                          dists.data());
    expectMatchesTable(driver, cases, aligns, probes, dists);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(aligns[i].cigar, reference[i].cigar)
          << driver << " " << cases[i].name;
    }
  }
  simd::forceIsa(active);
}

}  // namespace
}  // namespace gx::core
