// SimdBatchSolver contract: every lane result is bit-identical to the
// scalar solver on the same problem, for every supported ISA level and
// the forced scalar-lane fallback. This is the guarantee the batched
// distance path in the engine and the primary-only mapping flow rest on,
// so it is hammered fuzz-style: window widths across the 64/128/256/512
// instantiations, ragged batch sizes around the lane count, cap
// saturation, degenerate shapes, and the full windowed-distance march.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "genasmx/bitvector/bitvector.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/core/genasm_improved.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/genasm/genasm_baseline.hpp"
#include "genasmx/simd/batch_solver.hpp"
#include "genasmx/simd/dispatch.hpp"
#include "genasmx/simd/kernels.hpp"
#include "genasmx/util/prng.hpp"

namespace gx {
namespace {

std::vector<simd::IsaLevel> supportedLevels() {
  std::vector<simd::IsaLevel> out = {simd::IsaLevel::Scalar};
  if (simd::isaSupported(simd::IsaLevel::Sse2)) {
    out.push_back(simd::IsaLevel::Sse2);
  }
  if (simd::isaSupported(simd::IsaLevel::Avx2)) {
    out.push_back(simd::IsaLevel::Avx2);
  }
  if (simd::isaSupported(simd::IsaLevel::Avx512)) {
    out.push_back(simd::IsaLevel::Avx512);
  }
  return out;
}

/// Scalar reference at the width the production aligners would pick for
/// this pattern (wordsNeeded), for both window solvers.
template <int NW>
int scalarDistanceAt(std::string_view t_rev, std::string_view q_rev,
                     const genasm::WindowSpec& spec, bool baseline) {
  if (baseline) {
    genasm::BaselineWindowSolver<NW> solver;
    return solver.solveDistance(t_rev, q_rev, spec);
  }
  core::ImprovedWindowSolver<NW> solver;
  return solver.solveDistance(t_rev, q_rev, spec);
}

int scalarDistance(const simd::WindowProblem& p, genasm::Anchor anchor,
                   bool baseline) {
  const auto t_rev = common::reversed(p.text);
  const auto q_rev = common::reversed(p.pattern);
  genasm::WindowSpec spec;
  spec.anchor = anchor;
  spec.max_edits = p.max_edits;
  const int nw =
      bitvector::wordsNeeded(static_cast<int>(p.pattern.size()));
  switch (nw) {
    case 1: return scalarDistanceAt<1>(t_rev, q_rev, spec, baseline);
    case 2: return scalarDistanceAt<2>(t_rev, q_rev, spec, baseline);
    case 3: return scalarDistanceAt<3>(t_rev, q_rev, spec, baseline);
    case 4: return scalarDistanceAt<4>(t_rev, q_rev, spec, baseline);
    case 5: return scalarDistanceAt<5>(t_rev, q_rev, spec, baseline);
    case 6: return scalarDistanceAt<6>(t_rev, q_rev, spec, baseline);
    case 7: return scalarDistanceAt<7>(t_rev, q_rev, spec, baseline);
    default: return scalarDistanceAt<8>(t_rev, q_rev, spec, baseline);
  }
}

template <int NW>
genasm::WindowResult scalarSolveAt(std::string_view t_rev,
                                   std::string_view q_rev,
                                   const genasm::WindowSpec& spec,
                                   bool baseline,
                                   const core::ImprovedOptions& opts = {}) {
  if (baseline) {
    genasm::BaselineWindowSolver<NW> solver;
    return solver.solve(t_rev, q_rev, spec);
  }
  core::ImprovedWindowSolver<NW> solver(opts);
  return solver.solve(t_rev, q_rev, spec);
}

genasm::WindowResult scalarSolve(const simd::WindowProblem& p,
                                 genasm::Anchor anchor, bool baseline,
                                 const core::ImprovedOptions& opts = {}) {
  const auto t_rev = common::reversed(p.text);
  const auto q_rev = common::reversed(p.pattern);
  genasm::WindowSpec spec;
  spec.anchor = anchor;
  spec.max_edits = p.max_edits;
  spec.tb_op_limit = p.tb_op_limit;
  const int nw =
      bitvector::wordsNeeded(static_cast<int>(p.pattern.size()));
  switch (nw) {
    case 1: return scalarSolveAt<1>(t_rev, q_rev, spec, baseline, opts);
    case 2: return scalarSolveAt<2>(t_rev, q_rev, spec, baseline, opts);
    case 4: return scalarSolveAt<4>(t_rev, q_rev, spec, baseline, opts);
    default: return scalarSolveAt<8>(t_rev, q_rev, spec, baseline, opts);
  }
}

/// Random window problems with a mix of widths (pattern length up to
/// `max_m`), error levels, caps, and traceback limits. Backing strings
/// are owned by `store` so the views stay alive.
std::vector<simd::WindowProblem> randomProblems(
    util::Xoshiro256& rng, std::size_t count, std::size_t max_m,
    std::vector<std::string>& store) {
  std::vector<simd::WindowProblem> out;
  // Short strings live in SSO storage, which vector reallocation moves;
  // reserve up front so the views handed out stay valid.
  store.reserve(store.size() + 2 * count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t m = 1 + rng.below(max_m);
    const std::size_t n = 1 + rng.below(max_m + max_m / 2);
    store.push_back(common::randomSequence(rng, n));
    const std::string& text = store.back();
    // Half the patterns derive from the text (realistic low distances,
    // exercises convergence masking); half are unrelated (cap blowups).
    if (rng.below(2) == 0) {
      store.push_back(common::mutateSequence(
          rng, std::string_view(text).substr(0, std::min(n, m)),
          rng.below(m / 4 + 2)));
      if (store.back().empty() || store.back().size() > max_m) {
        store.back() = common::randomSequence(rng, m);
      }
    } else {
      store.push_back(common::randomSequence(rng, m));
    }
    simd::WindowProblem p;
    p.text = text;
    p.pattern = store.back();
    // Cap mix: always-solvable, saturating-small, and mid caps.
    const int mode = static_cast<int>(rng.below(4));
    p.max_edits = mode == 0 ? -1
                  : mode == 1 ? static_cast<int>(rng.below(3))
                              : static_cast<int>(rng.below(m + 4));
    p.tb_op_limit =
        rng.below(3) == 0 ? static_cast<int>(1 + rng.below(m + 8)) : -1;
    out.push_back(p);
  }
  return out;
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndForceClamps) {
  EXPECT_TRUE(simd::isaSupported(simd::IsaLevel::Scalar));
  const auto active = simd::activeIsa();
  EXPECT_TRUE(simd::isaSupported(active));
  // Forcing an unsupported level clamps to a supported one.
  const auto forced = simd::forceIsa(simd::IsaLevel::Avx2);
  EXPECT_TRUE(simd::isaSupported(forced));
  EXPECT_EQ(simd::forceIsa(simd::IsaLevel::Scalar), simd::IsaLevel::Scalar);
  simd::forceIsa(active);  // restore
  EXPECT_FALSE(simd::isaName(active).empty());
  EXPECT_EQ(simd::isaLanes(simd::IsaLevel::Scalar), 1);
}

/// The documented fill recurrence (kernels.hpp), one lane, written
/// straight from the formula with genasm::shiftInOne for the StartOnly
/// window: the independent check on the kernel template itself, scalar
/// instantiation included.
void referenceFill(const std::vector<std::uint64_t>& prev,
                   const std::vector<std::uint64_t>& pm, int n_max, int nw,
                   int d, std::vector<std::uint64_t>& cur) {
  constexpr genasm::Anchor anchor = genasm::Anchor::StartOnly;
  const auto shl1 = [&](const std::uint64_t* x, bool in, int w) {
    const std::uint64_t carry = w == 0 ? (in ? 1u : 0u) : x[w - 1] >> 63;
    return (x[w] << 1) | carry;
  };
  for (int i = 1; i <= n_max; ++i) {
    const std::uint64_t* c = &cur[static_cast<std::size_t>((i - 1) * nw)];
    const std::uint64_t* p = &prev[static_cast<std::size_t>((i - 1) * nw)];
    const std::uint64_t* pi = &prev[static_cast<std::size_t>(i * nw)];
    for (int w = 0; w < nw; ++w) {
      std::uint64_t r = shl1(c, genasm::shiftInOne(anchor, i - 1, d), w) |
                        pm[static_cast<std::size_t>((i - 1) * nw + w)];
      if (d > 0) {
        r &= shl1(p, genasm::shiftInOne(anchor, i - 1, d - 1), w) & p[w] &
             shl1(pi, genasm::shiftInOne(anchor, i, d - 1), w);
      }
      cur[static_cast<std::size_t>(i * nw + w)] = r;
    }
  }
}

TEST(SimdFillKernel, EveryLaneMatchesScalarKernelAndNothingPastNMaxIsWritten) {
  constexpr std::uint64_t kGuard = 0xA5A5'5A5A'DEAD'BEEFULL;
  constexpr int kGuardCols = 3;
  util::Xoshiro256 rng(4242);
  for (const auto level : supportedLevels()) {
    const int L = simd::isaLanes(level);
    const simd::detail::FillTable& table =
        simd::detail::kernelsFor(level).fill;
    for (int nw = 1; nw <= simd::detail::kMaxFillWords; ++nw) {
      const simd::detail::FillFn fill =
          table[static_cast<std::size_t>(nw - 1)];
      const simd::detail::FillFn scalar =
          simd::detail::kScalarKernels.fill[static_cast<std::size_t>(nw - 1)];
      ASSERT_NE(fill, nullptr);
      for (const int d : {0, 1, 2, 7}) {
        for (const int n_max : {1, 2, 63, 64, 65, 97}) {
          const std::string ctx = std::string(simd::isaName(level)) +
                                  " nw=" + std::to_string(nw) +
                                  " d=" + std::to_string(d) + " n_max=" +
                                  std::to_string(n_max);
          const std::size_t col = static_cast<std::size_t>(nw * L);
          const std::size_t cols = static_cast<std::size_t>(n_max) + 1;
          // Random words everywhere, so every bit and every carry path
          // is exercised; the arena runs kGuardCols columns past n_max.
          std::vector<std::uint64_t> pm(static_cast<std::size_t>(n_max) *
                                        col);
          std::vector<std::uint64_t> prev(cols * col);
          std::vector<std::uint64_t> cur((cols + kGuardCols) * col, kGuard);
          for (auto& v : pm) v = rng();
          for (auto& v : prev) v = rng();
          for (std::size_t j = 0; j < col; ++j) cur[j] = rng();
          fill(simd::detail::FillArgs{cur.data(),
                                      d > 0 ? prev.data() : nullptr,
                                      pm.data(), n_max, d});
          for (std::size_t j = cols * col; j < cur.size(); ++j) {
            ASSERT_EQ(cur[j], kGuard) << ctx << " guard word " << j;
          }
          for (int l = 0; l < L; ++l) {
            // De-interleave lane l into the single-lane layout.
            const auto lane = [&](const std::vector<std::uint64_t>& v,
                                  std::size_t ncols) {
              std::vector<std::uint64_t> out(ncols *
                                             static_cast<std::size_t>(nw));
              for (std::size_t k = 0; k < out.size(); ++k) {
                out[k] = v[k * static_cast<std::size_t>(L) +
                           static_cast<std::size_t>(l)];
              }
              return out;
            };
            const auto lpm = lane(pm, static_cast<std::size_t>(n_max));
            const auto lprev = lane(prev, cols);
            const auto got = lane(cur, cols);
            // Scalar kernel on the lane's own column 0, one guard
            // column past n_max.
            auto want = lane(cur, 1);
            want.resize((cols + 1) * static_cast<std::size_t>(nw), kGuard);
            scalar(simd::detail::FillArgs{want.data(),
                                          d > 0 ? lprev.data() : nullptr,
                                          lpm.data(), n_max, d});
            for (std::size_t k = cols * static_cast<std::size_t>(nw);
                 k < want.size(); ++k) {
              ASSERT_EQ(want[k], kGuard) << ctx << " scalar guard";
            }
            want.resize(cols * static_cast<std::size_t>(nw));
            ASSERT_EQ(got, want) << ctx << " lane " << l;
            auto ref = lane(cur, 1);
            ref.resize(want.size());
            referenceFill(lprev, lpm, n_max, nw, d, ref);
            ASSERT_EQ(got, ref) << ctx << " lane " << l << " vs formula";
          }
        }
      }
    }
  }
}

TEST(SimdBatchDistance, MatchesScalarSolveDistanceAcrossWidths) {
  // Width classes straddling every BitVec instantiation the production
  // dispatch uses: 64 / 128 / 256 / 512 plus ragged in-between sizes.
  for (const std::size_t max_m : {64UL, 128UL, 256UL, 512UL}) {
    util::Xoshiro256 rng(1000 + max_m);
    std::vector<std::string> store;
    const auto problems = randomProblems(rng, 48, max_m, store);
    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      std::vector<int> got(problems.size(), -2);
      solver.solveDistanceBatch(genasm::Anchor::StartOnly, problems.data(),
                                problems.size(), got.data());
      for (std::size_t i = 0; i < problems.size(); ++i) {
        EXPECT_EQ(got[i],
                  scalarDistance(problems[i], genasm::Anchor::StartOnly, false))
            << simd::isaName(level) << " i=" << i << " max_m=" << max_m
            << " |t|=" << problems[i].text.size()
            << " |q|=" << problems[i].pattern.size()
            << " k=" << problems[i].max_edits;
      }
    }
    // The baseline solver's distance kernel agrees with the improved one,
    // in both window modes.
    for (const auto anchor :
         {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
      for (std::size_t i = 0; i < problems.size(); ++i) {
        EXPECT_EQ(scalarDistance(problems[i], anchor, true),
                  scalarDistance(problems[i], anchor, false))
            << "i=" << i << " max_m=" << max_m;
      }
    }
  }
}

TEST(SimdBatchDistance, RaggedBatchSizesAroundTheLaneCount) {
  util::Xoshiro256 rng(77);
  std::vector<std::string> store;
  const auto all = randomProblems(rng, 32, 80, store);
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    const std::size_t lanes = static_cast<std::size_t>(solver.lanes());
    for (std::size_t batch = 1; batch <= lanes + 3; ++batch) {
      std::vector<int> got(batch, -2);
      solver.solveDistanceBatch(genasm::Anchor::StartOnly, all.data(), batch,
                                got.data());
      for (std::size_t i = 0; i < batch; ++i) {
        EXPECT_EQ(got[i],
                  scalarDistance(all[i], genasm::Anchor::StartOnly, false))
            << simd::isaName(level) << " batch=" << batch << " i=" << i;
      }
    }
  }
}

TEST(SimdBatchDistance, DegenerateShapes) {
  util::Xoshiro256 rng(5);
  const std::string text = common::randomSequence(rng, 600);
  const std::string big(600, 'A');
  const std::vector<simd::WindowProblem> problems = {
      {text, "", -1, -1},                         // empty pattern -> -1
      {text, big, -1, -1},                        // pattern > 512 -> -1
      {"", "ACGT", -1, -1},                       // empty text
      {"", "ACGT", 2, -1},                        // empty text, capped out
      {std::string_view(text).substr(0, 64),
       std::string_view(text).substr(0, 64), 0, -1},  // exact match, k=0
  };
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    std::vector<int> got(problems.size(), -2);
    solver.solveDistanceBatch(genasm::Anchor::StartOnly, problems.data(),
                              problems.size(), got.data());
    EXPECT_EQ(got[0], -1);
    EXPECT_EQ(got[1], -1);
    // Empty text, pattern of 4: four insertions (or capped out at 2).
    EXPECT_EQ(got[2], 4);
    EXPECT_EQ(got[3], -1);
    EXPECT_EQ(got[4], 0);
  }
}

// The lanes solve the windowed march's StartOnly windows only; a global
// (BothEnds) problem is the scalar solvers' job, and every lane entry
// point refuses it before touching its outputs.
TEST(SimdBatchSolver, EveryEntryPointRejectsBothEnds) {
  const std::vector<simd::WindowProblem> problems = {{"ACGT", "ACG", -1, -1}};
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    std::vector<int> dist(1, -2);
    std::vector<simd::WindowOutcome> counted(1);
    std::vector<genasm::WindowResult> aligned(1);
    EXPECT_THROW(solver.solveDistanceBatch(genasm::Anchor::BothEnds,
                                           problems.data(), 1, dist.data()),
                 std::invalid_argument)
        << simd::isaName(level);
    EXPECT_THROW(solver.solveWindowBatch(genasm::Anchor::BothEnds,
                                         problems.data(), 1, counted.data()),
                 std::invalid_argument)
        << simd::isaName(level);
    EXPECT_THROW(solver.alignBatch(genasm::Anchor::BothEnds, problems.data(),
                                   1, aligned.data()),
                 std::invalid_argument)
        << simd::isaName(level);
    EXPECT_EQ(dist[0], -2);
    EXPECT_EQ(solver.stats().groups, 0u);
    // The solver stays usable for StartOnly windows.
    solver.solveDistanceBatch(genasm::Anchor::StartOnly, problems.data(), 1,
                              dist.data());
    EXPECT_EQ(dist[0], 0);
  }
}

TEST(SimdWindowBatch, MatchesScalarSolveForBothSolvers) {
  util::Xoshiro256 rng(4242);
  std::vector<std::string> store;
  // Window-march shapes: patterns up to one window, tb limits like the
  // mid-window W-O truncation.
  const auto problems = randomProblems(rng, 64, 64, store);
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    std::vector<simd::WindowOutcome> got(problems.size());
    solver.solveWindowBatch(genasm::Anchor::StartOnly, problems.data(),
                            problems.size(), got.data());
    for (std::size_t i = 0; i < problems.size(); ++i) {
      for (const bool baseline : {false, true}) {
        const auto want =
            scalarSolve(problems[i], genasm::Anchor::StartOnly, baseline);
        EXPECT_EQ(got[i].ok, want.ok)
            << simd::isaName(level) << " i=" << i << " bl=" << baseline;
        if (!want.ok) continue;
        EXPECT_EQ(got[i].distance, want.distance) << i;
        EXPECT_EQ(got[i].edits, want.cigar.editDistance()) << i;
        EXPECT_EQ(got[i].text_consumed, want.cigar.targetLength()) << i;
        EXPECT_EQ(got[i].pattern_consumed, want.cigar.queryLength()) << i;
      }
    }
  }
}

TEST(SimdWindowedMarch, MatchesScalarDistanceWindowedWithCaps) {
  util::Xoshiro256 rng(9090);
  for (const int window : {64, 128}) {
    core::WindowConfig cfg;
    cfg.window = window;
    cfg.overlap = window / 3;
    std::vector<std::string> store;
    store.reserve(40);
    std::vector<core::BatchedDistanceRequest> requests;
    std::vector<int> want;
    for (int i = 0; i < 20; ++i) {
      const std::size_t qlen = 300 + rng.below(1200);
      store.push_back(common::randomSequence(rng, qlen + rng.below(200)));
      const std::string& t = store.back();
      store.push_back(
          common::mutateSequence(rng, t.substr(0, qlen), rng.below(qlen / 6)));
      const std::string& q = store.back();
      // Reference march (improved solver at the production width).
      core::ImprovedOptions opts;
      const int ed = core::distanceWindowedImproved(t, q, cfg, opts, -1);
      const int mode = static_cast<int>(rng.below(4));
      const int cap = mode == 0   ? -1
                      : mode == 1 ? ed
                      : mode == 2 ? (ed > 0 ? ed - 1 : 0)
                                  : ed / 2;
      requests.push_back({t, q, cap});
      want.push_back(core::distanceWindowedImproved(t, q, cfg, opts, cap));
      // The baseline march agrees with the improved one (shared
      // windowing, identical per-window results).
      EXPECT_EQ(core::distanceWindowedBaseline(t, q, cfg, cap), want.back());
    }
    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      std::vector<int> got(requests.size(), -2);
      core::distanceWindowedBatch(solver, cfg, requests.data(),
                                  requests.size(), got.data());
      EXPECT_EQ(got, want) << simd::isaName(level) << " window=" << window;
    }
  }
}

// --------------------------------------------------------- batched align

/// alignBatch's contract is scalar solve() equality, cigar included.
void expectSameWindowResult(const genasm::WindowResult& got,
                            const genasm::WindowResult& want,
                            const std::string& ctx) {
  EXPECT_EQ(got.ok, want.ok) << ctx;
  if (!want.ok) return;
  EXPECT_EQ(got.distance, want.distance) << ctx;
  EXPECT_EQ(got.traceback_complete, want.traceback_complete) << ctx;
  EXPECT_EQ(got.cigar, want.cigar)
      << ctx << " got=" << got.cigar.str() << " want=" << want.cigar.str();
}

TEST(SimdBatchAlign, MatchesScalarSolveAcrossWidths) {
  // Width classes straddling every BitVec instantiation, every
  // supported ISA: the batched alignment the engine's alignBatch chunks
  // ride on must reproduce the scalar solve cigar for cigar — including
  // tb_op_limit truncation and cap failures.
  for (const std::size_t max_m : {64UL, 128UL, 256UL, 512UL}) {
    util::Xoshiro256 rng(7000 + max_m);
    std::vector<std::string> store;
    const auto problems = randomProblems(rng, 40, max_m, store);
    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      std::vector<genasm::WindowResult> got(problems.size());
      solver.alignBatch(genasm::Anchor::StartOnly, problems.data(),
                        problems.size(), got.data());
      for (std::size_t i = 0; i < problems.size(); ++i) {
        for (const bool baseline : {false, true}) {
          expectSameWindowResult(
              got[i],
              scalarSolve(problems[i], genasm::Anchor::StartOnly, baseline),
              std::string(simd::isaName(level)) + " i=" + std::to_string(i) +
                  " max_m=" + std::to_string(max_m) +
                  " bl=" + std::to_string(baseline));
        }
      }
    }
    // The global (BothEnds) solve has no lane form; its two scalar
    // solvers agree across the same widths.
    for (std::size_t i = 0; i < problems.size(); ++i) {
      expectSameWindowResult(
          scalarSolve(problems[i], genasm::Anchor::BothEnds, true),
          scalarSolve(problems[i], genasm::Anchor::BothEnds, false),
          "BothEnds i=" + std::to_string(i) +
              " max_m=" + std::to_string(max_m));
    }
  }
}

TEST(SimdBatchAlign, EveryImprovedOptionsMaskAgrees) {
  // The lane solves ignore ImprovedOptions (they change the scalar
  // solver's storage/accounting, never its results); pin that against
  // all eight masks.
  util::Xoshiro256 rng(31337);
  std::vector<std::string> store;
  const auto problems = randomProblems(rng, 24, 96, store);
  simd::SimdBatchSolver solver;  // active ISA
  std::vector<genasm::WindowResult> got(problems.size());
  solver.alignBatch(genasm::Anchor::StartOnly, problems.data(),
                    problems.size(), got.data());
  for (int mask = 0; mask < 8; ++mask) {
    core::ImprovedOptions opts;
    opts.compress_entries = (mask & 1) != 0;
    opts.early_termination = (mask & 2) != 0;
    opts.traceback_pruning = (mask & 4) != 0;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      expectSameWindowResult(
          got[i],
          scalarSolve(problems[i], genasm::Anchor::StartOnly, false, opts),
          "mask=" + std::to_string(mask) + " i=" + std::to_string(i));
    }
  }
}

TEST(SimdBatchAlign, RaggedBatchesAndShapeSortOffAreIdentical) {
  // Batch sizes around the lane count (partial final groups), with shape
  // sorting on and off: scatter-back must restore input order and the
  // results must be bit-identical either way.
  util::Xoshiro256 rng(555);
  std::vector<std::string> store;
  const auto all = randomProblems(rng, 40, 200, store);
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver sorted(level);
    simd::SimdBatchSolver unsorted(level);
    unsorted.setShapeSort(false);
    EXPECT_TRUE(sorted.shapeSort());
    EXPECT_FALSE(unsorted.shapeSort());
    const std::size_t lanes = static_cast<std::size_t>(sorted.lanes());
    for (const std::size_t batch :
         {std::size_t{1}, lanes, lanes + 3, all.size()}) {
      std::vector<genasm::WindowResult> a(batch), b(batch);
      sorted.alignBatch(genasm::Anchor::StartOnly, all.data(), batch,
                        a.data());
      unsorted.alignBatch(genasm::Anchor::StartOnly, all.data(), batch,
                          b.data());
      for (std::size_t i = 0; i < batch; ++i) {
        const std::string ctx = std::string(simd::isaName(level)) +
                                " batch=" + std::to_string(batch) +
                                " i=" + std::to_string(i);
        expectSameWindowResult(a[i], b[i], ctx + " (sort A/B)");
        expectSameWindowResult(
            a[i], scalarSolve(all[i], genasm::Anchor::StartOnly, false), ctx);
      }
    }
  }
}

TEST(SimdBatchAlign, OccupancyStatsTrackPackingAndShapeSortReducesPadding) {
  // Alternating tiny/huge shapes: unsorted groups pad every tiny lane to
  // the huge geometry; shape sorting separates them into homogeneous
  // groups. The occupancy counters are what BENCH_pipeline.json reports.
  util::Xoshiro256 rng(808);
  std::vector<std::string> store;
  store.reserve(96);
  std::vector<simd::WindowProblem> problems;
  for (int i = 0; i < 32; ++i) {
    const bool big = (i % 2) == 0;
    store.push_back(common::randomSequence(rng, big ? 700 : 12));
    const std::string& text = store.back();
    store.push_back(common::randomSequence(rng, big ? 480 : 8));
    problems.push_back({text, store.back(), -1, -1});
  }
  simd::SimdBatchSolver sorted;
  simd::SimdBatchSolver unsorted;
  unsorted.setShapeSort(false);
  std::vector<genasm::WindowResult> outs(problems.size());
  sorted.alignBatch(genasm::Anchor::StartOnly, problems.data(),
                    problems.size(), outs.data());
  unsorted.alignBatch(genasm::Anchor::StartOnly, problems.data(),
                      problems.size(), outs.data());
  for (const auto* solver : {&sorted, &unsorted}) {
    const simd::BatchStats& s = solver->stats();
    EXPECT_GT(s.groups, 0u);
    EXPECT_EQ(s.lanes_filled, problems.size());
    EXPECT_GE(s.lane_slots, s.lanes_filled);
    EXPECT_GE(s.packed_words, s.useful_words);
    EXPECT_GT(s.useful_words, 0u);
  }
  // Same useful work either way; strictly less padded work when sorting
  // actually has lanes to group (more than one lane per group).
  EXPECT_EQ(sorted.stats().useful_words, unsorted.stats().useful_words);
  if (sorted.lanes() > 1) {
    EXPECT_LT(sorted.stats().packed_words, unsorted.stats().packed_words);
  }
  sorted.resetStats();
  EXPECT_EQ(sorted.stats().groups, 0u);
  EXPECT_EQ(sorted.stats().packed_words, 0u);
  EXPECT_EQ(sorted.stats().lane_levels_issued, 0u);

  // Level divergence on a crafted batch: identical pairs converge at
  // level 0, unrelated pairs under a cap of 2 fail after 3 levels,
  // mutated pairs land in between, and empty patterns are invalid lanes
  // that only pad. Unsorted groups are input-order chunks of L, so the
  // expected counts follow from the per-lane scalar distances alone.
  // Issued levels count valid lanes only (a group's levels times its
  // valid lanes): empty and invalid slots are occupancy, not divergence.
  std::vector<simd::WindowProblem> crafted;
  for (int i = 0; i < 11; ++i) {
    store.push_back(common::randomSequence(rng, 60));
    const std::string& text = store.back();
    int cap = -1;
    switch (i % 4) {
      case 0: store.push_back(text); break;
      case 1:
        store.push_back(common::randomSequence(rng, 60));
        cap = 2;
        break;
      case 2: store.push_back(common::mutateSequence(rng, text, 5)); break;
      default: store.push_back(""); break;
    }
    crafted.push_back({text, store.back(), cap, -1});
  }
  std::vector<std::uint64_t> levels;
  std::uint64_t useful = 0;
  for (const auto& p : crafted) {
    std::uint64_t lv = 0;
    if (!p.pattern.empty()) {
      const int dist = scalarDistance(p, genasm::Anchor::StartOnly, false);
      lv = static_cast<std::uint64_t>(dist >= 0 ? dist : p.max_edits) + 1;
    }
    levels.push_back(lv);
    useful += lv;
  }
  EXPECT_EQ(levels[1], 3u);  // the capped unrelated pair fails at k = 2
  const auto L = static_cast<std::size_t>(unsorted.lanes());
  std::uint64_t issued = 0;
  for (std::size_t base = 0; base < levels.size(); base += L) {
    const auto end = std::min(levels.size(), base + L);
    const auto valid = static_cast<std::uint64_t>(
        std::count_if(levels.begin() + base, levels.begin() + end,
                      [](std::uint64_t lv) { return lv > 0; }));
    issued += valid * *std::max_element(levels.begin() + base,
                                        levels.begin() + end);
  }
  std::vector<int> dres(crafted.size());
  unsorted.resetStats();
  unsorted.solveDistanceBatch(genasm::Anchor::StartOnly, crafted.data(),
                              crafted.size(), dres.data());
  EXPECT_EQ(unsorted.stats().lane_levels_useful, useful);
  EXPECT_EQ(unsorted.stats().lane_levels_issued, issued);
  // The persisted-row fill counts the same levels.
  unsorted.resetStats();
  unsorted.alignBatch(genasm::Anchor::StartOnly, crafted.data(),
                      crafted.size(), outs.data());
  EXPECT_EQ(unsorted.stats().lane_levels_useful, useful);
  EXPECT_EQ(unsorted.stats().lane_levels_issued, issued);
  // Sorting regroups lanes: the useful levels are the same, and the
  // issued ones still cover them.
  sorted.solveDistanceBatch(genasm::Anchor::StartOnly, crafted.data(),
                            crafted.size(), dres.data());
  EXPECT_EQ(sorted.stats().lane_levels_useful, useful);
  EXPECT_GE(sorted.stats().lane_levels_issued, useful);
}

TEST(SimdWindowedMarch, AlignBatchedMatchesScalarAlignWindowed) {
  // The batched windowed-alignment march vs the scalar driver, full
  // AlignmentResult equality (ok, distance, score, cigar) for both
  // window solvers, plus degenerate requests.
  util::Xoshiro256 rng(2024);
  for (const int window : {64, 128}) {
    core::WindowConfig cfg;
    cfg.window = window;
    cfg.overlap = window / 3;
    std::vector<std::string> store;
    store.reserve(40);
    std::vector<core::BatchedAlignRequest> requests;
    for (int i = 0; i < 14; ++i) {
      const std::size_t qlen = 200 + rng.below(1400);
      store.push_back(common::randomSequence(rng, qlen + rng.below(300)));
      const std::string& t = store.back();
      store.push_back(
          common::mutateSequence(rng, t.substr(0, qlen), rng.below(qlen / 5)));
      requests.push_back({t, store.back()});
    }
    const std::string long_t = common::randomSequence(rng, 500);
    requests.push_back({long_t, ""});                            // deletions
    requests.push_back({"", std::string_view(long_t).substr(0, 50)});
    requests.push_back({long_t, std::string_view(long_t).substr(0, 40)});
    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      std::vector<common::AlignmentResult> got(requests.size());
      core::alignWindowedBatch(solver, cfg, requests.data(), requests.size(),
                               got.data());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto want = core::alignWindowedImproved(
            requests[i].target, requests[i].query, cfg);
        const std::string ctx = std::string(simd::isaName(level)) +
                                " window=" + std::to_string(window) +
                                " i=" + std::to_string(i);
        EXPECT_EQ(got[i].ok, want.ok) << ctx;
        EXPECT_EQ(got[i].edit_distance, want.edit_distance) << ctx;
        EXPECT_EQ(got[i].score, want.score) << ctx;
        EXPECT_EQ(got[i].cigar, want.cigar) << ctx;
        // The baseline driver commits the identical alignment.
        const auto base = core::alignWindowedBaseline(
            requests[i].target, requests[i].query, cfg);
        EXPECT_EQ(got[i].cigar, base.cigar) << ctx;
      }
    }
  }
}

TEST(SimdWindowedMarch, SteadyStateBatchedMarchesAllocateNothing) {
  // The batched marches (alignment and distance) must be allocation-free
  // once their arenas are warm: re-running the same request set grows
  // neither the lane solver's arenas nor the march scratch.
  util::Xoshiro256 rng(606);
  std::vector<std::string> store;
  store.reserve(24);
  std::vector<core::BatchedAlignRequest> areqs;
  std::vector<core::BatchedDistanceRequest> dreqs;
  for (int i = 0; i < 12; ++i) {
    const std::size_t qlen = 600 + rng.below(900);
    store.push_back(common::randomSequence(rng, qlen + 100));
    const std::string& t = store.back();
    store.push_back(
        common::mutateSequence(rng, t.substr(0, qlen), rng.below(60)));
    areqs.push_back({t, store.back()});
    dreqs.push_back({t, store.back(), -1});
  }
  core::WindowConfig cfg;
  simd::SimdBatchSolver solver;
  core::WindowedBatchScratch scratch;
  std::vector<common::AlignmentResult> ares(areqs.size());
  std::vector<int> dres(dreqs.size());
  // Cold pass: arenas grow to the request set's peak geometry.
  core::alignWindowedBatch(solver, cfg, areqs.data(), areqs.size(),
                           ares.data(), scratch);
  core::distanceWindowedBatch(solver, cfg, dreqs.data(), dreqs.size(),
                              dres.data(), scratch);
  const std::uint64_t solver_cold = solver.scratchAllocs();
  const std::uint64_t scratch_cold = scratch.allocs();
  EXPECT_GT(solver_cold, 0u);
  EXPECT_GT(scratch_cold, 0u);
  // Warm passes: identical request set, identical sweep geometry — the
  // steady-state contract the bench's
  // steady_scratch_allocs_per_window == 0 figure reports.
  for (int rep = 0; rep < 3; ++rep) {
    core::alignWindowedBatch(solver, cfg, areqs.data(), areqs.size(),
                             ares.data(), scratch);
    core::distanceWindowedBatch(solver, cfg, dreqs.data(), dreqs.size(),
                                dres.data(), scratch);
  }
  EXPECT_EQ(solver.scratchAllocs(), solver_cold);
  EXPECT_EQ(scratch.allocs(), scratch_cold);
}

/// Walk-kernel edge cases for a group of width class `nw`: one lane of
/// that width (so the group packs nw words), then shapes that send lanes
/// to every edge of the interior at different rounds — a d == 0 walk,
/// short texts (i reaches 1, then 0: insertions), short patterns
/// (pl == 1), text left past the pattern (pl reaches 0 first), unsolvable
/// lanes, invalid slots and empty texts. Op limits cycle through
/// -1, 0, 1 and 40.
std::vector<simd::WindowProblem> walkEdgeProblems(
    util::Xoshiro256& rng, int nw, std::vector<std::string>& store) {
  store.reserve(store.size() + 64);
  std::vector<simd::WindowProblem> out;
  const auto add = [&](std::string text, std::string pattern, int cap) {
    store.push_back(std::move(text));
    const std::string& t = store.back();
    store.push_back(std::move(pattern));
    simd::WindowProblem p;
    p.text = t;
    p.pattern = store.back();
    p.max_edits = cap;
    out.push_back(p);
  };
  const std::size_t wide = 64 * static_cast<std::size_t>(nw - 1) + 1 +
                           rng.below(64);
  const auto related = [&](std::size_t m, std::size_t edits,
                           std::size_t extra) {
    std::string t = common::randomSequence(rng, m + extra);
    std::string q = common::mutateSequence(
        rng, std::string_view(t).substr(0, m), edits);
    if (q.empty() || q.size() > 512) q = t.substr(0, m);
    add(std::move(t), std::move(q), -1);
  };
  related(wide, wide / 16 + 1, rng.below(6));           // the wide lane
  {  // d == 0 for the whole walk
    const std::string t = common::randomSequence(rng, wide + 4);
    add(t, t.substr(0, wide), -1);
  }
  for (std::size_t n = 0; n <= 3; ++n) {  // i reaches 1, then 0
    add(common::randomSequence(rng, n),
        common::randomSequence(rng, 2 + rng.below(12)), -1);
  }
  for (std::size_t m = 1; m <= 3; ++m) {  // pl == 1 from the start
    related(m, rng.below(2), rng.below(4));
  }
  for (int r = 0; r < 3; ++r) {  // 1..8 characters of text left over
    const std::size_t m = 8 + rng.below(wide);
    std::string q = common::randomSequence(rng, m);
    std::string t = common::mutateSequence(rng, q, rng.below(4)) +
                    common::randomSequence(rng, 1 + rng.below(8));
    add(std::move(t), std::move(q), -1);
  }
  related(wide / 2 + 1, wide / 8 + 2, rng.below(10));
  // Unsolvable within a small cap, and invalid slots.
  add(common::randomSequence(rng, wide), common::randomSequence(rng, wide), 2);
  add(common::randomSequence(rng, 20), "", -1);
  add(common::randomSequence(rng, 8), common::randomSequence(rng, 513), -1);
  static constexpr int kLimits[] = {-1, 0, 1, 40};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].tb_op_limit = kLimits[(i + rng.below(4)) % 4];
  }
  return out;
}

// The lane walk (walk kernel + walkTraceback as edge finisher) against
// the scalar improved solver, op for op, on every supported ISA and every
// group width nw = 1..8, for the StartOnly windows the lanes solve. Batch
// sizes are not multiples of the lane count, so tail groups carry empty
// slots; one- and two-problem batches take the lone-lane walk.
TEST(SimdLaneWalk, MatchesScalarSolveOpForOpOnEveryIsaAndWidth) {
  util::Xoshiro256 rng(2718);
  for (int nw = 1; nw <= 8; ++nw) {
    std::vector<std::string> store;
    const auto problems = walkEdgeProblems(rng, nw, store);
    const genasm::Anchor anchor = genasm::Anchor::StartOnly;
    std::vector<genasm::WindowResult> want;
    for (const auto& p : problems) {
      want.push_back(p.pattern.empty() || p.pattern.size() > 512
                         ? genasm::WindowResult{}
                         : scalarSolve(p, anchor, /*baseline=*/false));
    }
    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      std::vector<genasm::WindowResult> got(problems.size());
      std::vector<simd::WindowOutcome> counted(problems.size());
      for (int rep = 0; rep < 2; ++rep) {
        const std::uint64_t allocs = solver.scratchAllocs();
        solver.alignBatch(anchor, problems.data(), problems.size(),
                          got.data());
        solver.solveWindowBatch(anchor, problems.data(), problems.size(),
                                counted.data());
        // The second, identical batch must reuse every arena.
        if (rep == 1) {
          EXPECT_EQ(solver.scratchAllocs(), allocs);
        }
      }
      // Groups holding one or two lanes to walk take the lone-lane
      // path (the 1-lane kernel over the group's layout): solve every
      // problem alone and in pairs as well.
      for (const std::size_t per : {std::size_t{1}, std::size_t{2}}) {
        for (std::size_t b = 0; b < problems.size(); b += per) {
          const std::size_t cnt = std::min(per, problems.size() - b);
          std::vector<genasm::WindowResult> few(cnt);
          std::vector<simd::WindowOutcome> few_counted(cnt);
          solver.alignBatch(anchor, problems.data() + b, cnt, few.data());
          solver.solveWindowBatch(anchor, problems.data() + b, cnt,
                                  few_counted.data());
          for (std::size_t j = 0; j < cnt; ++j) {
            const std::string ctx =
                std::string(simd::isaName(level)) + " per=" +
                std::to_string(per) + " nw=" + std::to_string(nw) +
                " i=" + std::to_string(b + j);
            expectSameWindowResult(few[j], want[b + j], ctx);
            EXPECT_EQ(few_counted[j].ok, counted[b + j].ok) << ctx;
            EXPECT_EQ(few_counted[j].edits, counted[b + j].edits) << ctx;
            EXPECT_EQ(few_counted[j].text_consumed,
                      counted[b + j].text_consumed)
                << ctx;
            EXPECT_EQ(few_counted[j].pattern_consumed,
                      counted[b + j].pattern_consumed)
                << ctx;
          }
        }
      }
      for (std::size_t i = 0; i < problems.size(); ++i) {
        const std::string ctx =
            std::string(simd::isaName(level)) + " nw=" +
            std::to_string(nw) + " i=" + std::to_string(i) +
            " tb=" + std::to_string(problems[i].tb_op_limit);
        expectSameWindowResult(got[i], want[i], ctx);
        EXPECT_EQ(counted[i].ok, want[i].ok) << ctx;
        if (!want[i].ok) continue;
        EXPECT_EQ(counted[i].distance, want[i].distance) << ctx;
        EXPECT_EQ(counted[i].edits, want[i].cigar.editDistance()) << ctx;
        EXPECT_EQ(counted[i].text_consumed, want[i].cigar.targetLength())
            << ctx;
        EXPECT_EQ(counted[i].pattern_consumed, want[i].cigar.queryLength())
            << ctx;
      }
    }
  }
}

// Level-aware packing: two interleaved populations of one shape, near-
// identical windows (level hint 0) and heavily edited ones (hint 24).
// Input-order groups mix them, so every group runs to the slow lanes'
// levels; the packing sort groups them by hint. Results must not move,
// and fewer levels must be issued.
TEST(SimdLanePacking, LevelHintsCutIssuedLevelsWithoutChangingResults) {
  util::Xoshiro256 rng(5150);
  std::vector<std::string> store;
  store.reserve(512);
  std::vector<simd::WindowProblem> problems;
  for (int i = 0; i < 64; ++i) {
    const bool slow = (i % 2) == 1;
    store.push_back(common::randomSequence(rng, 96));
    const std::string& t = store.back();
    store.push_back(common::mutateSequence(
        rng, std::string_view(t).substr(0, 64), slow ? 24 : rng.below(2)));
    if (store.back().empty() || store.back().size() > 64) {
      store.back() = t.substr(0, 64);
    }
    simd::WindowProblem p;
    p.text = t;
    p.pattern = store.back();
    p.tb_op_limit = 40;
    p.level_hint = slow ? 24 : 0;
    problems.push_back(p);
  }
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver packed(level);
    simd::SimdBatchSolver plain(level);
    plain.setShapeSort(false);
    std::vector<genasm::WindowResult> a(problems.size());
    std::vector<genasm::WindowResult> b(problems.size());
    packed.alignBatch(genasm::Anchor::StartOnly, problems.data(),
                      problems.size(), a.data());
    plain.alignBatch(genasm::Anchor::StartOnly, problems.data(),
                     problems.size(), b.data());
    std::vector<simd::WindowOutcome> ca(problems.size());
    std::vector<simd::WindowOutcome> cb(problems.size());
    packed.solveWindowBatch(genasm::Anchor::StartOnly, problems.data(),
                            problems.size(), ca.data());
    plain.solveWindowBatch(genasm::Anchor::StartOnly, problems.data(),
                           problems.size(), cb.data());
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const std::string ctx =
          std::string(simd::isaName(level)) + " i=" + std::to_string(i);
      expectSameWindowResult(a[i], b[i], ctx);
      EXPECT_EQ(ca[i].ok, cb[i].ok) << ctx;
      EXPECT_EQ(ca[i].distance, cb[i].distance) << ctx;
      EXPECT_EQ(ca[i].edits, cb[i].edits) << ctx;
      EXPECT_EQ(ca[i].text_consumed, cb[i].text_consumed) << ctx;
      EXPECT_EQ(ca[i].pattern_consumed, cb[i].pattern_consumed) << ctx;
    }
    const simd::BatchStats& sp = packed.stats();
    const simd::BatchStats& su = plain.stats();
    EXPECT_EQ(sp.lane_levels_useful, su.lane_levels_useful);
    if (packed.lanes() > 1) {
      EXPECT_LT(sp.lane_levels_issued, su.lane_levels_issued)
          << simd::isaName(level);
    } else {
      EXPECT_EQ(sp.lane_levels_issued, su.lane_levels_issued);
    }
  }
}

// The GenASM traceback is ONE implementation (genasm::walkTraceback):
// the baseline solver, the improved solver under every options mask, and
// the SIMD lane solver are probe+emit adapters over the same walk. This
// regression pins them op-for-op — including truncation at tb_op_limit
// and, on the scalar solvers, BothEnds bulk-deletion tails (the lanes
// solve StartOnly windows only) — so any future fork of the walk logic
// in one backend fails here.
TEST(TracebackUnification, AllBackendsCommitIdenticalOperationSequences) {
  util::Xoshiro256 rng(90210);
  std::vector<std::string> store;
  auto problems = randomProblems(rng, 32, 120, store);
  // Force tight traceback budgets on half the set so Truncated walks are
  // exercised, not just Complete ones.
  for (std::size_t i = 0; i < problems.size(); i += 2) {
    problems[i].tb_op_limit =
        static_cast<int>(1 + rng.below(problems[i].pattern.size() + 4));
  }
  simd::SimdBatchSolver solver;
  std::vector<genasm::WindowResult> lane(problems.size());
  solver.alignBatch(genasm::Anchor::StartOnly, problems.data(),
                    problems.size(), lane.data());
  for (const auto anchor :
       {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const auto base = scalarSolve(problems[i], anchor, true);
      const std::string ctx = "i=" + std::to_string(i) +
                              " tb=" + std::to_string(problems[i].tb_op_limit);
      if (anchor == genasm::Anchor::StartOnly) {
        expectSameWindowResult(lane[i], base, ctx + " (lane vs baseline)");
      }
      for (int mask = 0; mask < 8; ++mask) {
        core::ImprovedOptions opts;
        opts.compress_entries = (mask & 1) != 0;
        opts.early_termination = (mask & 2) != 0;
        opts.traceback_pruning = (mask & 4) != 0;
        expectSameWindowResult(
            scalarSolve(problems[i], anchor, false, opts), base,
            ctx + " (improved mask " + std::to_string(mask) + ")");
      }
    }
  }
}

// ------------------------------------------------------------------ pack

/// The pack contract (kernels.hpp) written straight from baseCode, one
/// bit at a time: the mask table of the pattern, then one table row per
/// text column, all ones past each lane's own text and in empty slots.
std::vector<std::uint64_t> referencePack(
    const std::vector<simd::detail::PackLane>& lanes, int nw, int n_max) {
  const std::size_t L = lanes.size();
  const std::size_t col = static_cast<std::size_t>(nw) * L;
  std::vector<std::uint64_t> pm(static_cast<std::size_t>(n_max) * col, ~0ULL);
  for (std::size_t l = 0; l < L; ++l) {
    const simd::detail::PackLane& p = lanes[l];
    if (p.m == 0) continue;
    std::uint64_t mask[common::kAlphabetSize][8];
    for (auto& row : mask) std::fill(row, row + 8, ~0ULL);
    for (int j = 0; j < p.m; ++j) {
      const auto b = static_cast<char>(p.pattern[p.m - 1 - j]);
      mask[common::baseCode(b)][j >> 6] &= ~(1ULL << (j & 63));
    }
    for (int i = 1; i <= p.n; ++i) {
      const std::uint8_t c =
          common::baseCode(static_cast<char>(p.text[p.n - i]));
      for (int w = 0; w < nw; ++w) {
        pm[static_cast<std::size_t>(i - 1) * col +
           static_cast<std::size_t>(w) * L + l] = mask[c][w];
      }
    }
  }
  return pm;
}

/// Bytes drawn from all 256 values, weighted towards the ones that
/// matter: ACGT in both cases, N, and IUPAC codes.
std::string anyBytes(util::Xoshiro256& rng, std::size_t n) {
  static constexpr char kNamed[] = "ACGTacgtNnRYKMSWBDHVrykmswbdhv";
  std::string s(n, '\0');
  for (char& c : s) {
    c = rng.below(3) == 0 ? static_cast<char>(rng.below(256))
                          : kNamed[rng.below(sizeof(kNamed) - 1)];
  }
  return s;
}

/// Ragged problems over every byte value: pattern lengths at the word
/// edges (1, 63, 64, 65, 128, 512), texts shorter than the group's
/// widest, empty and over-long (invalid) patterns.
std::vector<simd::WindowProblem> raggedByteProblems(
    util::Xoshiro256& rng, std::vector<std::string>& store) {
  std::vector<simd::WindowProblem> out;
  store.reserve(store.size() + 64);
  for (const int m : {1, 63, 64, 65, 128, 512, 0, 513, 64, 1, 65, 63}) {
    const int n = static_cast<int>(rng.below(static_cast<std::uint64_t>(m) +
                                             m / 4 + 2));
    store.push_back(anyBytes(rng, static_cast<std::size_t>(n)));
    const std::string& text = store.back();
    // Half the patterns derive from the text, so lanes converge early.
    if (rng.below(2) == 0 && n >= m) {
      store.push_back(text.substr(0, static_cast<std::size_t>(m)));
      if (m > 0) store.back()[static_cast<std::size_t>(m) / 2] = 'n';
    } else {
      store.push_back(anyBytes(rng, static_cast<std::size_t>(m)));
    }
    simd::WindowProblem p;
    p.text = text;
    p.pattern = store.back();
    p.max_edits = m > 128 ? static_cast<int>(rng.below(24)) : -1;
    out.push_back(p);
  }
  return out;
}

TEST(SimdPackKernel, MatchesReferencePackOnEveryIsaAndTheEntryPointsMatchScalar) {
  const simd::IsaLevel active = simd::activeIsa();
  util::Xoshiro256 rng(1618);
  constexpr std::uint64_t kGuard = 0x5A5A'A5A5'0BAD'F00DULL;
  for (const auto level : supportedLevels()) {
    ASSERT_EQ(simd::forceIsa(level), level);
    const simd::IsaLevel isa = simd::activeIsa();
    const int L = simd::isaLanes(isa);
    const simd::detail::PackTable& pack = simd::detail::kernelsFor(isa).pack;
    for (int nw = 1; nw <= simd::detail::kMaxFillWords; ++nw) {
      for (int trial = 0; trial < 6; ++trial) {
        std::vector<std::string> store;
        store.reserve(2 * static_cast<std::size_t>(L));
        std::vector<simd::detail::PackLane> lanes(static_cast<std::size_t>(L));
        int n_max = 0;
        for (auto& lane : lanes) {
          // m from the word edges that fit nw words; a slot in five empty.
          static constexpr int kM[] = {1, 63, 64, 65, 128, 512};
          int m = kM[rng.below(6)];
          while (m > 64 * nw) m = kM[rng.below(3)];
          if (rng.below(5) == 0) m = 0;
          const int n = static_cast<int>(rng.below(150));
          store.push_back(anyBytes(rng, static_cast<std::size_t>(n)));
          store.push_back(anyBytes(rng, static_cast<std::size_t>(m)));
          lane.text = reinterpret_cast<const std::uint8_t*>(
              store[store.size() - 2].data());
          lane.pattern =
              reinterpret_cast<const std::uint8_t*>(store.back().data());
          lane.n = n;
          lane.m = m;
          if (m > 0) n_max = std::max(n_max, n);
        }
        const std::size_t words = static_cast<std::size_t>(n_max) *
                                  static_cast<std::size_t>(nw * L);
        std::vector<std::uint64_t> got(words + static_cast<std::size_t>(nw * L),
                                       kGuard);
        pack[static_cast<std::size_t>(nw - 1)](
            simd::detail::PackArgs{got.data(), lanes.data(), n_max});
        const std::string ctx = std::string(simd::isaName(isa)) +
                                " nw=" + std::to_string(nw) +
                                " trial=" + std::to_string(trial);
        for (std::size_t j = words; j < got.size(); ++j) {
          ASSERT_EQ(got[j], kGuard) << ctx << " guard word " << j;
        }
        got.resize(words);
        ASSERT_EQ(got, referencePack(lanes, nw, n_max)) << ctx;
      }
    }

    // The entry points over the same kind of bytes against the scalar
    // solver, each batch twice: the second reuses every arena.
    std::vector<std::string> store;
    const auto problems = raggedByteProblems(rng, store);
    const genasm::Anchor anchor = genasm::Anchor::StartOnly;
    simd::SimdBatchSolver solver;
    ASSERT_EQ(solver.isa(), isa);
    std::vector<genasm::WindowResult> aligned(problems.size());
    std::vector<simd::WindowOutcome> counted(problems.size());
    std::vector<int> dist(problems.size(), -2);
    for (int rep = 0; rep < 2; ++rep) {
      const std::uint64_t allocs = solver.scratchAllocs();
      solver.alignBatch(anchor, problems.data(), problems.size(),
                        aligned.data());
      solver.solveWindowBatch(anchor, problems.data(), problems.size(),
                              counted.data());
      solver.solveDistanceBatch(anchor, problems.data(), problems.size(),
                                dist.data());
      if (rep == 1) {
        EXPECT_EQ(solver.scratchAllocs(), allocs);
      }
    }
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const auto& p = problems[i];
      const std::string ctx = std::string(simd::isaName(isa)) + " m=" +
                              std::to_string(p.pattern.size()) + " n=" +
                              std::to_string(p.text.size());
      const bool solvable = !p.pattern.empty() && p.pattern.size() <= 512;
      const genasm::WindowResult want =
          solvable ? scalarSolve(p, anchor, /*baseline=*/false)
                   : genasm::WindowResult{};
      expectSameWindowResult(aligned[i], want, ctx);
      EXPECT_EQ(dist[i], want.ok ? want.distance
                                 : (solvable ? scalarDistance(p, anchor, false)
                                             : -1))
          << ctx;
      EXPECT_EQ(counted[i].ok, want.ok) << ctx;
      if (!want.ok) continue;
      EXPECT_EQ(counted[i].distance, want.distance) << ctx;
      EXPECT_EQ(counted[i].edits, want.cigar.editDistance()) << ctx;
      EXPECT_EQ(counted[i].text_consumed, want.cigar.targetLength()) << ctx;
      EXPECT_EQ(counted[i].pattern_consumed, want.cigar.queryLength())
          << ctx;
    }
  }
  simd::forceIsa(active);
}

TEST(SimdWindowedMarch, EmptyAndShortRequests) {
  core::WindowConfig cfg;
  util::Xoshiro256 rng(3);
  const auto t = common::randomSequence(rng, 300);
  const std::vector<core::BatchedDistanceRequest> requests = {
      {t, "", -1},                                    // all deletions
      {t, "", 10},                                    // capped out
      {"", std::string_view(t).substr(0, 40), -1},    // all insertions
      {t, std::string_view(t).substr(0, 40), -1},     // final-window only
  };
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    std::vector<int> got(requests.size(), -2);
    core::distanceWindowedBatch(solver, cfg, requests.data(), requests.size(),
                                got.data());
    EXPECT_EQ(got[0], static_cast<int>(t.size()));
    EXPECT_EQ(got[1], -1);
    EXPECT_EQ(got[2], 40);
    core::WindowBuffers bufs;
    core::ImprovedWindowSolver<1> ref;
    EXPECT_EQ(got[3], core::distanceWindowed(ref, t,
                                             std::string_view(t).substr(0, 40),
                                             cfg, -1, bufs));
  }
}

}  // namespace
}  // namespace gx
