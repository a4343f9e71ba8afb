// Distance-mode contract: for every registered backend,
// distance(t, q, cap) returns exactly align(t, q).edit_distance whenever
// that alignment exists with cost <= cap, and -1 otherwise. The
// primary-only mapping flow ranks candidates by these capped distances
// and its output rests entirely on this equivalence, so it is hammered
// with randomized pairs from one window to many, through the single and
// the batch entry points at every ISA level. Also pins
// the arena guarantees: MemStats alloc/free balance and zero steady-state
// scratch allocations.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "genasmx/common/sequence.hpp"
#include "genasmx/core/genasm_improved.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/engine/engine.hpp"
#include "genasmx/engine/registry.hpp"
#include "genasmx/genasm/genasm_baseline.hpp"
#include "genasmx/simd/dispatch.hpp"
#include "genasmx/util/mem_stats.hpp"
#include "genasmx/util/prng.hpp"

namespace gx {
namespace {

struct Pair {
  std::string t, q;
};

/// Read-like pairs from 8 bp to 1.5 kb (around 512 bp, the widest lane
/// pattern, too), plus degenerate shapes (empty, disjoint, indel-skewed).
std::vector<Pair> equivalencePairs(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Pair> out;
  for (const std::size_t len : {8UL, 60UL, 64UL, 100UL, 300UL, 511UL, 513UL,
                                900UL, 1500UL}) {
    const auto t = common::randomSequence(rng, len + rng.below(40));
    out.push_back({t, common::mutateSequence(rng, t, rng.below(len / 4 + 2))});
  }
  // Unrelated sequences: distances near the scatter regime.
  out.push_back({common::randomSequence(rng, 200),
                 common::randomSequence(rng, 180)});
  out.push_back({common::randomSequence(rng, 800),
                 common::randomSequence(rng, 700)});
  // Degenerate shapes.
  out.push_back({"", ""});
  out.push_back({"ACGTACGT", ""});
  out.push_back({"", "ACGTACGT"});
  out.push_back({"A", std::string(700, 'A')});
  return out;
}

class DistanceEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(DistanceEquivalence, MatchesAlignEditDistanceUncapped) {
  const auto aligner = engine::makeAligner(GetParam());
  for (const auto& [t, q] : equivalencePairs(2024)) {
    const auto res = aligner->align(t, q);
    const int expected = res.ok ? res.edit_distance : -1;
    EXPECT_EQ(aligner->distance(t, q), expected)
        << GetParam() << " |t|=" << t.size() << " |q|=" << q.size();
  }
}

TEST_P(DistanceEquivalence, CappedScoringNeverChangesSurvivors) {
  const auto aligner = engine::makeAligner(GetParam());
  // The O(n*m) oracle backends answer capped queries through a full
  // align; keep their pairs moderate so the suite stays fast.
  const bool quadratic = std::string_view(GetParam()) == "ksw" ||
                         std::string_view(GetParam()) == "affine-dp";
  for (const auto& [t, q] : equivalencePairs(4048)) {
    if (quadratic && t.size() > 600) continue;
    const auto res = aligner->align(t, q);
    const int ed = res.ok ? res.edit_distance : -1;
    // Caps straddling the true distance, plus edge caps.
    std::vector<int> caps = {0};
    if (ed >= 0) {
      caps.insert(caps.end(), {ed, ed + 1, ed > 0 ? ed - 1 : 0, 2 * ed + 7});
    }
    for (const int cap : caps) {
      const int expected = (ed >= 0 && ed <= cap) ? ed : -1;
      EXPECT_EQ(aligner->distance(t, q, cap), expected)
          << GetParam() << " |t|=" << t.size() << " |q|=" << q.size()
          << " ed=" << ed << " cap=" << cap;
    }
  }
}

// A batch's result for one task must not depend on the other tasks in
// it. The GenASM backend's single calls are one-task batches through the
// same batched march (SIMD lane packing), so this pins a many-task batch
// against one-task batches per task, at every ISA level the lane solver
// can run; for the other backends the batch is the default single-call
// loop. ServedGenasm below pins both against the
// scalar reproduction solvers.
TEST_P(DistanceEquivalence, BatchEntryPointsMatchSingleCallsOnEveryIsa) {
  const auto single = engine::makeAligner(GetParam());
  std::vector<engine::AlignmentTask> tasks;
  std::vector<common::AlignmentResult> aligned;
  std::vector<engine::DistanceTask> dtasks;
  std::vector<int> distances;
  const std::vector<Pair> pairs = equivalencePairs(8096);
  for (const auto& [t, q] : pairs) {
    tasks.push_back({t, q});
    aligned.push_back(single->align(t, q));
    const int ed = aligned.back().ok ? aligned.back().edit_distance : -1;
    std::vector<int> caps = {-1, 0};
    if (ed >= 0) caps.insert(caps.end(), {ed, ed - 1});
    for (const int cap : caps) {
      dtasks.push_back({t, q, cap});
      distances.push_back(single->distance(t, q, cap));
    }
  }

  const simd::IsaLevel active = simd::activeIsa();
  for (const auto level :
       {simd::IsaLevel::Scalar, simd::IsaLevel::Sse2, simd::IsaLevel::Avx2,
        simd::IsaLevel::Avx512}) {
    if (!simd::isaSupported(level)) continue;
    ASSERT_EQ(simd::forceIsa(level), level);
    // Constructed after forceIsa: the aligner's lane solver takes the
    // active level.
    const auto aligner = engine::makeAligner(GetParam());
    const std::string where =
        std::string(GetParam()) + "/" + std::string(simd::isaName(level));
    std::vector<common::AlignmentResult> batch(tasks.size());
    aligner->alignBatch(tasks.data(), tasks.size(), batch.data());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(batch[i].ok, aligned[i].ok) << where << " pair " << i;
      EXPECT_EQ(batch[i].edit_distance, aligned[i].edit_distance)
          << where << " pair " << i;
      EXPECT_EQ(batch[i].cigar, aligned[i].cigar) << where << " pair " << i;
    }
    std::vector<int> dists(dtasks.size());
    aligner->distanceBatch(dtasks.data(), dtasks.size(), dists.data());
    EXPECT_EQ(dists, distances) << where;
  }
  simd::forceIsa(active);
}

INSTANTIATE_TEST_SUITE_P(Backends, DistanceEquivalence,
                         ::testing::ValuesIn(
                             []() {
                               static std::vector<std::string> names =
                                   engine::AlignerRegistry::instance().names();
                               std::vector<const char*> out;
                               for (const auto& n : names)
                                 out.push_back(n.c_str());
                               return out;
                             }()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// The served GenASM name runs the lane solver for single calls and
// batches alike. Both entry points are pinned here against the scalar
// reproduction marches — the paper's improved algorithm and the
// unimproved baseline — at every ISA level.
TEST(ServedGenasm, MatchesScalarReproductionSolversOnEveryIsa) {
  const std::vector<Pair> pairs = equivalencePairs(8096);
  const simd::IsaLevel active = simd::activeIsa();
  for (const bool baseline : {false, true}) {
    std::vector<engine::AlignmentTask> tasks;
    std::vector<common::AlignmentResult> aligned;
    std::vector<engine::DistanceTask> dtasks;
    std::vector<int> distances;
    for (const auto& [t, q] : pairs) {
      tasks.push_back({t, q});
      aligned.push_back(baseline ? core::alignWindowedBaseline(t, q)
                                 : core::alignWindowedImproved(t, q));
      const int ed = aligned.back().ok ? aligned.back().edit_distance : -1;
      std::vector<int> caps = {-1, 0};
      if (ed >= 0) caps.insert(caps.end(), {ed, ed - 1});
      for (const int cap : caps) {
        dtasks.push_back({t, q, cap});
        distances.push_back(
            baseline ? core::distanceWindowedBaseline(t, q, {}, cap)
                     : core::distanceWindowedImproved(t, q, {}, {}, cap));
      }
    }

    for (const auto level :
         {simd::IsaLevel::Scalar, simd::IsaLevel::Sse2, simd::IsaLevel::Avx2,
          simd::IsaLevel::Avx512}) {
      if (!simd::isaSupported(level)) continue;
      ASSERT_EQ(simd::forceIsa(level), level);
      const auto aligner = engine::makeAligner("windowed-improved");
      const std::string where = std::string(simd::isaName(level)) + " vs " +
                                (baseline ? "baseline" : "improved");
      std::vector<common::AlignmentResult> batch(tasks.size());
      aligner->alignBatch(tasks.data(), tasks.size(), batch.data());
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto single = aligner->align(tasks[i].target, tasks[i].query);
        const common::AlignmentResult& batched = batch[i];
        for (const auto* got : {&single, &batched}) {
          EXPECT_EQ(got->ok, aligned[i].ok) << where << " pair " << i;
          EXPECT_EQ(got->edit_distance, aligned[i].edit_distance)
              << where << " pair " << i;
          EXPECT_EQ(got->cigar, aligned[i].cigar) << where << " pair " << i;
        }
      }
      std::vector<int> dists(dtasks.size());
      aligner->distanceBatch(dtasks.data(), dtasks.size(), dists.data());
      EXPECT_EQ(dists, distances) << where;
      for (std::size_t j = 0; j < dtasks.size(); ++j) {
        EXPECT_EQ(aligner->distance(dtasks[j].target, dtasks[j].query,
                                    dtasks[j].cap),
                  distances[j])
            << where << " task " << j;
      }
    }
  }
  simd::forceIsa(active);
}

// ------------------------------------------------- engine batch API

TEST(DistanceBatch, MatchesPerPairDistanceAndHonorsCaps) {
  engine::EngineConfig ecfg;
  ecfg.threads = 4;
  engine::AlignmentEngine eng(ecfg);
  util::Xoshiro256 rng(31);

  std::vector<std::string> targets, queries;
  for (int i = 0; i < 24; ++i) {
    const auto t = common::randomSequence(rng, 80 + rng.below(900));
    targets.push_back(t);
    queries.push_back(common::mutateSequence(rng, t, rng.below(60)));
  }
  std::vector<engine::DistanceTask> tasks;
  std::vector<int> expected;
  const auto aligner = engine::makeAligner(ecfg.backend);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto res = aligner->align(targets[i], queries[i]);
    const int ed = res.ok ? res.edit_distance : -1;
    // Alternate uncapped / tight / impossible caps across the batch.
    const int cap = (i % 3 == 0) ? -1 : (i % 3 == 1) ? ed : ed / 2 - 1;
    tasks.push_back({targets[i], queries[i], cap});
    expected.push_back((ed >= 0 && (cap < 0 || ed <= cap)) ? ed : -1);
    // The single-pair aligner entry point agrees.
    EXPECT_EQ(aligner->distance(targets[i], queries[i], cap), expected.back());
  }
  EXPECT_EQ(eng.distanceBatch(tasks), expected);
  // Deterministic: same results on a single-threaded engine.
  engine::AlignmentEngine eng1(engine::EngineConfig{});
  EXPECT_EQ(eng1.distanceBatch(tasks), expected);
}

// ------------------------------------------------- solver-level kernels

TEST(SolveDistance, AgreesWithFullSolveAcrossAnchorsAndCaps) {
  util::Xoshiro256 rng(555);
  genasm::BaselineWindowSolver<1> baseline;
  core::ImprovedWindowSolver<1> improved;
  for (int trial = 0; trial < 25; ++trial) {
    const auto text = common::randomSequence(rng, 40 + rng.below(60));
    const auto pattern = common::mutateSequence(
        rng, text.substr(0, 20 + rng.below(40)), rng.below(10));
    if (pattern.empty() || pattern.size() > 64) continue;
    const auto t_rev = common::reversed(text);
    const auto q_rev = common::reversed(pattern);
    for (const auto anchor :
         {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
      for (const int max_edits : {-1, 3, 12}) {
        genasm::WindowSpec spec;
        spec.anchor = anchor;
        spec.max_edits = max_edits;
        const auto full = improved.solve(t_rev, q_rev, spec);
        const int expected = full.ok ? full.distance : -1;
        EXPECT_EQ(improved.solveDistance(t_rev, q_rev, spec), expected);
        EXPECT_EQ(baseline.solveDistance(t_rev, q_rev, spec), expected);
        // The baseline's full solve agrees too (pre-existing invariant).
        const auto fb = baseline.solve(t_rev, q_rev, spec);
        EXPECT_EQ(fb.ok ? fb.distance : -1, expected);
      }
    }
  }
}

// ------------------------------------------------- MemStats invariants

TEST(MemStatsBalance, EverySolverEntryPointFreesWhatItAllocates) {
  util::Xoshiro256 rng(99);
  const auto t = common::randomSequence(rng, 900);
  const auto q = common::mutateSequence(rng, t, 60);

  for (int mask = 0; mask < 8; ++mask) {
    core::ImprovedOptions opts;
    opts.compress_entries = mask & 1;
    opts.early_termination = mask & 2;
    opts.traceback_pruning = mask & 4;
    util::MemStats stats;
    ASSERT_TRUE(core::alignWindowedImproved(t, q, {}, opts, &stats).ok);
    EXPECT_TRUE(stats.balanced())
        << "mask=" << mask << " alloc=" << stats.bytes_allocated
        << " freed=" << stats.bytes_freed;
  }
  util::MemStats base;
  ASSERT_TRUE(core::alignWindowedBaseline(t, q, {}, &base).ok);
  EXPECT_TRUE(base.balanced());

  util::MemStats dist;
  EXPECT_GE(core::distanceWindowedImproved(t, q, {}, {}, -1, &dist), 0);
  EXPECT_TRUE(dist.balanced());

  const auto small_q = q.substr(0, 300);
  const auto small_t = t.substr(0, 340);
  util::MemStats glob;
  ASSERT_TRUE(core::alignGlobalImproved(small_t, small_q, -1, {}, &glob).ok);
  EXPECT_TRUE(glob.balanced());
  util::MemStats gbase;
  ASSERT_TRUE(genasm::alignGlobalBaseline(small_t, small_q, -1, &gbase).ok);
  EXPECT_TRUE(gbase.balanced());
}

TEST(ArenaReuse, SteadyStateSolvesAllocateNothing) {
  util::Xoshiro256 rng(7);
  const auto t = common::randomSequence(rng, 1200);
  const auto q = common::mutateSequence(rng, t, 90);

  for (const bool compress : {true, false}) {
    core::ImprovedOptions opts;
    opts.compress_entries = compress;
    core::ImprovedWindowSolver<1> solver(opts);
    core::WindowBuffers bufs;
    core::WindowConfig cfg;
    // Cold pass grows the arenas...
    util::MemStats cold;
    ASSERT_TRUE(core::alignWindowed(solver, t, q, cfg, bufs,
                                    util::CountingMemCounter(cold))
                    .ok);
    EXPECT_GT(cold.scratch_allocs, 0u);
    // ...every later pass over the same geometry allocates zero.
    util::MemStats warm;
    ASSERT_TRUE(core::alignWindowed(solver, t, q, cfg, bufs,
                                    util::CountingMemCounter(warm))
                    .ok);
    EXPECT_EQ(warm.scratch_allocs, 0u) << "compress=" << compress;
    EXPECT_GT(warm.problems, 10u);  // many windows, still zero allocs
  }

  genasm::BaselineWindowSolver<1> baseline;
  core::WindowBuffers bufs;
  util::MemStats cold, warm;
  ASSERT_TRUE(core::alignWindowed(baseline, t, q, core::WindowConfig{}, bufs,
                                  util::CountingMemCounter(cold))
                  .ok);
  ASSERT_TRUE(core::alignWindowed(baseline, t, q, core::WindowConfig{}, bufs,
                                  util::CountingMemCounter(warm))
                  .ok);
  EXPECT_EQ(warm.scratch_allocs, 0u);

  // The distance kernel shares the same guarantee.
  core::ImprovedWindowSolver<1> dsolver;
  genasm::WindowSpec spec;
  const auto t_rev = common::reversed(t.substr(0, 96));
  const auto q_rev = common::reversed(q.substr(0, 64));
  util::MemStats d1, d2;
  (void)dsolver.solveDistance(t_rev, q_rev, spec,
                              util::CountingMemCounter(d1));
  (void)dsolver.solveDistance(t_rev, q_rev, spec,
                              util::CountingMemCounter(d2));
  EXPECT_EQ(d2.scratch_allocs, 0u);
}

}  // namespace
}  // namespace gx
