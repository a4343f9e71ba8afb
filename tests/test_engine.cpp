// Engine layer: registry lookup semantics, backend-vs-oracle agreement,
// and deterministic batched execution (1 thread == N threads).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "genasmx/common/sequence.hpp"
#include "genasmx/common/verify.hpp"
#include "genasmx/core/genasm_improved.hpp"
#include "genasmx/engine/engine.hpp"
#include "genasmx/genasm/genasm_baseline.hpp"
#include "genasmx/refdp/affine_dp.hpp"
#include "genasmx/refdp/edit_dp.hpp"
#include "genasmx/simd/dispatch.hpp"
#include "genasmx/util/prng.hpp"

namespace gx {
namespace {

// ------------------------------------------------------------- registry

TEST(AlignerRegistry, UnknownNameThrows) {
  EXPECT_THROW((void)engine::makeAligner("no-such-backend"),
               std::invalid_argument);
  engine::EngineConfig cfg;
  cfg.backend = "bogus";
  EXPECT_THROW(engine::AlignmentEngine{cfg}, std::invalid_argument);
}

TEST(AlignerRegistry, UnknownNameMessageListsBackends) {
  try {
    (void)engine::makeAligner("no-such-backend");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-backend"), std::string::npos);
    EXPECT_NE(msg.find("windowed-improved"), std::string::npos);
  }
}

TEST(AlignerRegistry, RegistersAllDocumentedBackends) {
  auto& registry = engine::AlignerRegistry::instance();
  const std::vector<std::string> documented = {
      "affine-dp", "edit-dp", "ksw", "myers", "windowed-improved"};
  for (const auto& name : documented) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_FALSE(registry.description(name).empty()) << name;
    const auto aligner = registry.create(name);
    ASSERT_NE(aligner, nullptr) << name;
    EXPECT_EQ(aligner->name(), name);
  }
  EXPECT_FALSE(registry.contains("definitely-not-registered"));
  // Exactly the documented built-ins (sorted); ExternalBackendsCanRegister
  // may have added its stub first.
  auto names = registry.names();
  std::erase(names, "test-stub");
  EXPECT_EQ(names, documented);
}

// The unimproved GenASM baseline and the global (single-window) improved
// GenASM are reproduction code: the paper benches and tests call their
// scalar solvers, and no serving name reaches them.
TEST(AlignerRegistry, BaselineNamesAreNotServed) {
  for (const char* name : {"baseline", "windowed-baseline", "improved"}) {
    try {
      (void)engine::makeAligner(name);
      FAIL() << name << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("windowed-improved"),
                std::string::npos)
          << name;
    }
  }
}

TEST(AlignerRegistry, InvalidWindowGeometryPropagates) {
  engine::AlignerConfig cfg;
  cfg.window.window = 64;
  cfg.window.overlap = 64;  // overlap must be < window
  // The throw must happen at construction, not later on a worker thread.
  EXPECT_THROW((void)engine::makeAligner("windowed-improved", cfg),
               std::invalid_argument);
}

TEST(AlignerRegistry, ExternalBackendsCanRegister) {
  // New backends (GPU dispatch, remote shards, ...) plug in by name.
  class Delegating final : public engine::Aligner {
   public:
    Delegating() : inner_(engine::makeAligner("edit-dp")) {}
    common::AlignmentResult align(std::string_view t,
                                  std::string_view q) override {
      return inner_->align(t, q);
    }
    std::string_view name() const noexcept override { return "test-stub"; }

   private:
    engine::AlignerPtr inner_;
  };
  engine::AlignerRegistry::instance().add(
      "test-stub", "unit-test delegating backend",
      [](const engine::AlignerConfig&) -> engine::AlignerPtr {
        return std::make_unique<Delegating>();
      });
  const auto aligner = engine::makeAligner("test-stub");
  EXPECT_EQ(aligner->align("ACGT", "AGGT").edit_distance, 1);
}

// --------------------------------------------- backend-vs-oracle parity

// Every exact aligner reproduces refdp::editDistance on random pairs and
// emits a CIGAR that verifies at that cost; its distance-only path
// (`distance`, overridden or defaulted) agrees.
template <class Align, class Distance>
void expectExactOnRandomPairs(const std::string& name, Align&& align,
                              Distance&& distance) {
  util::Xoshiro256 rng(4242);
  for (int t = 0; t < 12; ++t) {
    const auto a = common::randomSequence(rng, 20 + rng.below(240));
    const auto b = common::mutateSequence(rng, a, rng.below(25));
    const int oracle = refdp::editDistance(a, b);
    const common::AlignmentResult res = align(a, b);
    ASSERT_TRUE(res.ok) << name << " trial " << t;
    const auto v = common::verifyAlignment(a, b, res.cigar);
    ASSERT_TRUE(v.valid) << name << ": " << v.error;
    EXPECT_EQ(static_cast<int>(res.cigar.editDistance()), oracle)
        << name << " trial " << t;
    EXPECT_EQ(distance(a, b), static_cast<int>(res.cigar.editDistance()))
        << name << " trial " << t;
  }
}

// The affine backends run with the unit-cost-equivalent parameters so
// -score ties to edit distance.
class ExactBackendOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(ExactBackendOracle, MatchesReferenceDpOnRandomPairs) {
  engine::AlignerConfig cfg;
  cfg.ksw.params = refdp::AffineParams::editDistanceEquivalent();
  const auto aligner = engine::makeAligner(GetParam(), cfg);
  expectExactOnRandomPairs(
      GetParam(),
      [&](const std::string& a, const std::string& b) {
        return aligner->align(a, b);
      },
      [&](const std::string& a, const std::string& b) {
        return aligner->distance(a, b);
      });
}

INSTANTIATE_TEST_SUITE_P(Backends, ExactBackendOracle,
                         ::testing::Values("myers", "ksw", "edit-dp",
                                           "affine-dp"));

// The global GenASM solvers, unimproved and improved, are reproduction
// code, not backends: the same check on their scalar solvers, with the
// global two-row distance kernel as their distance-only path.
template <template <int> class Solver, class Align>
void expectGlobalGenasmExact(const std::string& name, Align&& align) {
  expectExactOnRandomPairs(
      name, std::forward<Align>(align),
      [](const std::string& a, const std::string& b) {
        genasm::WindowSpec spec;
        spec.anchor = genasm::Anchor::BothEnds;
        return genasm::withSolver<Solver>(
            static_cast<int>(b.size()), nullptr,
            [&](auto& solver, auto counter) {
              return solver.solveDistance(common::reversed(a),
                                          common::reversed(b), spec, counter);
            });
      });
}

TEST(ExactBaselineOracle, GlobalBaselineMatchesReferenceDpOnRandomPairs) {
  expectGlobalGenasmExact<genasm::BaselineWindowSolver>(
      "alignGlobalBaseline", [](const std::string& a, const std::string& b) {
        return genasm::alignGlobalBaseline(a, b);
      });
}

TEST(ExactImprovedOracle, GlobalImprovedMatchesReferenceDpOnRandomPairs) {
  expectGlobalGenasmExact<core::ImprovedWindowSolver>(
      "alignGlobalImproved", [](const std::string& a, const std::string& b) {
        return core::alignGlobalImproved(a, b);
      });
}

// The windowed aligners are heuristic: never better than the oracle,
// always valid, and near-exact on read-like pairs.
template <class Align>
void expectNearOptimalOnReadLikePairs(const std::string& name, Align&& align) {
  util::Xoshiro256 rng(99);
  for (int t = 0; t < 6; ++t) {
    const auto a = common::randomSequence(rng, 600 + rng.below(600));
    const auto b = common::mutateSequence(rng, a, 40 + rng.below(40));
    const int oracle = refdp::editDistance(a, b);
    const common::AlignmentResult res = align(a, b);
    ASSERT_TRUE(res.ok) << name << " trial " << t;
    const auto v = common::verifyAlignment(a, b, res.cigar);
    ASSERT_TRUE(v.valid) << name << ": " << v.error;
    EXPECT_GE(res.edit_distance, oracle);
    EXPECT_LE(res.edit_distance, oracle + 10) << name << " trial " << t;
  }
}

TEST(WindowedBackendOracle, ValidAndNearOptimalOnReadLikePairs) {
  const auto aligner = engine::makeAligner("windowed-improved");
  expectNearOptimalOnReadLikePairs(
      "windowed-improved", [&](const std::string& a, const std::string& b) {
        return aligner->align(a, b);
      });
}

// The unimproved windowed march, reproduction code: its scalar driver.
TEST(WindowedBackendOracle, BaselineMarchValidAndNearOptimal) {
  expectNearOptimalOnReadLikePairs(
      "alignWindowedBaseline", [](const std::string& a, const std::string& b) {
        return core::alignWindowedBaseline(a, b);
      });
}

// ----------------------------------------------------- batched execution

std::vector<mapper::AlignmentPair> makePairs(std::size_t count) {
  util::Xoshiro256 rng(7);
  std::vector<mapper::AlignmentPair> pairs;
  for (std::size_t i = 0; i < count; ++i) {
    // Mixed short/long so both the global and windowed paths execute.
    const std::size_t len = i % 3 == 0 ? 150 + rng.below(100)
                                       : 600 + rng.below(700);
    mapper::AlignmentPair p;
    p.target = common::randomSequence(rng, len);
    p.query = common::mutateSequence(
        rng, p.target, static_cast<std::size_t>(len / 20) + rng.below(10));
    pairs.push_back(std::move(p));
  }
  return pairs;
}

void expectSameResults(const std::vector<common::AlignmentResult>& a,
                       const std::vector<common::AlignmentResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ok, b[i].ok) << i;
    EXPECT_EQ(a[i].edit_distance, b[i].edit_distance) << i;
    EXPECT_EQ(a[i].score, b[i].score) << i;
    EXPECT_EQ(a[i].cigar, b[i].cigar) << i;
  }
}

TEST(AlignmentEngine, BatchIsDeterministicAcrossThreadCounts) {
  const auto pairs = makePairs(36);
  engine::EngineConfig one;
  one.threads = 1;
  engine::EngineConfig four;
  four.threads = 4;
  engine::EngineConfig eight;
  eight.threads = 8;
  const auto r1 = engine::AlignmentEngine(one).alignBatch(pairs);
  const auto r4 = engine::AlignmentEngine(four).alignBatch(pairs);
  const auto r8 = engine::AlignmentEngine(eight).alignBatch(pairs);
  expectSameResults(r1, r4);
  expectSameResults(r1, r8);
}

// The engine never cuts a chunk below the SIMD lane count L, so batch
// sizes around L and one past the pool's 4 chunks per thread exercise
// every chunk shape: a lone task, a partial lane group, an exact one, a
// group plus a straggler, and many groups with a short tail.
TEST(AlignmentEngine, BatchMatchesSequentialAlignForEveryBackend) {
  constexpr std::size_t kThreads = 2;
  const auto lanes =
      static_cast<std::size_t>(simd::isaLanes(simd::activeIsa()));
  const std::vector<std::size_t> sizes = {
      1, std::max<std::size_t>(lanes - 1, 1), lanes, lanes + 1, 9,
      4 * kThreads * lanes + 3};
  const auto pairs = makePairs(sizes.back());
  for (const auto& name : engine::AlignerRegistry::instance().names()) {
    engine::EngineConfig cfg;
    cfg.backend = name;
    cfg.threads = kThreads;
    engine::AlignmentEngine eng(cfg);
    std::vector<common::AlignmentResult> sequential;
    sequential.reserve(pairs.size());
    const auto aligner = engine::makeAligner(name);
    for (const auto& p : pairs) {
      sequential.push_back(aligner->align(p.target, p.query));
    }
    for (const std::size_t n : sizes) {
      SCOPED_TRACE(name + " batch of " + std::to_string(n));
      std::vector<engine::AlignmentTask> tasks;
      for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back({pairs[i].target, pairs[i].query});
      }
      std::vector<unsigned char> failed;
      const auto batch = eng.alignBatch(tasks, &failed);
      expectSameResults(
          batch, std::vector<common::AlignmentResult>(
                     sequential.begin(),
                     sequential.begin() + static_cast<std::ptrdiff_t>(n)));
      EXPECT_EQ(failed, std::vector<unsigned char>(n, 0));
    }
  }
}

TEST(AlignmentEngine, ViewBatchMatchesOwningBatch) {
  const auto pairs = makePairs(12);
  std::vector<engine::AlignmentTask> tasks;
  tasks.reserve(pairs.size());
  for (const auto& p : pairs) tasks.push_back({p.target, p.query});
  engine::EngineConfig cfg;
  cfg.threads = 4;
  engine::AlignmentEngine eng(cfg);
  expectSameResults(eng.alignBatch(tasks), eng.alignBatch(pairs));
}

TEST(AlignmentEngine, EmptyBatchAndAccessors) {
  engine::EngineConfig cfg;
  cfg.backend = "windowed-improved";
  cfg.threads = 2;
  engine::AlignmentEngine eng(cfg);
  EXPECT_TRUE(eng.alignBatch(std::vector<mapper::AlignmentPair>{}).empty());
  EXPECT_TRUE(eng.alignBatch(std::vector<engine::AlignmentTask>{}).empty());
  EXPECT_EQ(eng.backend(), "windowed-improved");
  EXPECT_EQ(eng.threads(), 2u);
  const auto res = eng.alignBatch(
      std::vector<engine::AlignmentTask>{{"ACGTACGT", "ACGTTCGT"}});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_TRUE(res[0].ok);
  EXPECT_EQ(res[0].edit_distance, 1);
}

}  // namespace
}  // namespace gx
