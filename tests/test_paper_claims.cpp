// Executable regression guards for the paper's headline claims, at test
// scale (the full measurements live in bench/). Workloads are
// deterministic, so the instrumented counts are exact and these bounds
// are not flaky: they catch regressions in the improvements or in the
// instrumentation itself.

#include <gtest/gtest.h>

#include "genasmx/common/sequence.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/genasm/genasm_common.hpp"
#include "genasmx/gpukernels/genasm_kernels.hpp"
#include "genasmx/util/prng.hpp"

namespace gx {
namespace {

struct CleanPairs {
  util::MemStats baseline, improved;
  CleanPairs() {
    util::Xoshiro256 rng(7);
    for (int i = 0; i < 6; ++i) {
      const auto t = common::randomSequence(rng, 2'000);
      const auto q = common::mutateSequence(rng, t, 200);  // 10% error
      EXPECT_TRUE(
          core::alignWindowedBaseline(t, q, {}, &baseline).ok);
      EXPECT_TRUE(core::alignWindowedImproved(t, q, {}, {}, &improved).ok);
    }
  }
};

CleanPairs& pairs() {
  static CleanPairs p;
  return p;
}

TEST(PaperClaims, MemoryFootprintReductionOrder24x) {
  // Paper: 24x smaller memory footprint. Steady-state (per window
  // problem) on clean 10%-error pairs measures way above 20x; guard a
  // conservative floor.
  auto& p = pairs();
  const double base = static_cast<double>(p.baseline.bytes_allocated) /
                      static_cast<double>(p.baseline.problems);
  const double impr = static_cast<double>(p.improved.bytes_allocated) /
                      static_cast<double>(p.improved.problems);
  EXPECT_GT(base / impr, 20.0);
  EXPECT_LT(base / impr, 120.0);  // sanity ceiling: instrumentation intact
}

TEST(PaperClaims, MemoryAccessReductionOrder12x) {
  // Paper: 12x fewer memory accesses. Clean pairs measure ~22x, mixed
  // candidate workloads ~8x; guard the clean floor.
  auto& p = pairs();
  const double ratio = static_cast<double>(p.baseline.accesses()) /
                       static_cast<double>(p.improved.accesses());
  EXPECT_GT(ratio, 10.0);
  EXPECT_LT(ratio, 60.0);
}

TEST(PaperClaims, EarlyTerminationComputesFractionOfLevels) {
  // At 10% error, d_min per 64-char window is far below the 64-level cap;
  // ET must cut computed entries by >4x.
  auto& p = pairs();
  EXPECT_GT(static_cast<double>(p.baseline.dp_entries) /
                static_cast<double>(p.improved.dp_entries),
            4.0);
}

TEST(PaperClaims, ImprovedFitsInGpuSharedMemoryBaselineDoesNot) {
  // The capacity cliff that motivates the paper's GPU design.
  util::Xoshiro256 rng(11);
  std::vector<mapper::AlignmentPair> batch;
  for (int i = 0; i < 4; ++i) {
    mapper::AlignmentPair ap;
    ap.target = common::randomSequence(rng, 1'500);
    ap.query = common::mutateSequence(rng, ap.target, 150);
    batch.push_back(std::move(ap));
  }
  gpusim::Device device;
  const auto impr = gpukernels::alignBatchImproved(device, batch);
  const auto base = gpukernels::alignBatchBaseline(device, batch);
  EXPECT_EQ(impr.spilled_blocks, 0u);
  EXPECT_EQ(base.spilled_blocks, batch.size());
  // And the modeled consequence: improved is multiples faster.
  EXPECT_GT(impr.alignments_per_second / base.alignments_per_second, 3.0);
}

TEST(PaperClaims, WindowCapsMatchGenasmSemantics) {
  // StartOnly windows are always solvable within m edits; fully global
  // ones within max(n, m) — the caps the solvers rely on.
  EXPECT_EQ(genasm::autoEditCap(96, 64, genasm::Anchor::StartOnly), 64);
  EXPECT_EQ(genasm::autoEditCap(96, 64, genasm::Anchor::BothEnds), 96);
  EXPECT_EQ(genasm::autoEditCap(32, 64, genasm::Anchor::BothEnds), 64);
  // Empty-prefix availability: free in StartOnly, costs deletions in
  // BothEnds (affordable only while i <= d).
  EXPECT_FALSE(genasm::shiftInOne(genasm::Anchor::StartOnly, 50, 0));
  EXPECT_TRUE(genasm::shiftInOne(genasm::Anchor::BothEnds, 50, 0));
  EXPECT_FALSE(genasm::shiftInOne(genasm::Anchor::BothEnds, 50, 50));
  EXPECT_TRUE(genasm::shiftInOne(genasm::Anchor::BothEnds, 51, 50));
}

}  // namespace
}  // namespace gx
