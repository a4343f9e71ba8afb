#include "genasmx/engine/registry.hpp"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "genasmx/bitvector/bitvector.hpp"
#include "genasmx/refdp/affine_dp.hpp"
#include "genasmx/refdp/edit_dp.hpp"
#include "genasmx/simd/batch_solver.hpp"

namespace gx::engine {
namespace {

using common::AlignmentResult;

// Query lengths the single-window global GenASM solvers can hold; longer
// queries silently switch to the windowed driver with the same config.
constexpr std::size_t kGlobalGenasmMax = bitvector::BitVec<8>::kBits;

/// Per-aligner arenas for the batched GenASM routing: the global-vs-
/// march task split, result staging, and the march's own scratch. Owned
/// by each GenASM aligner instance and only ever grown, so steady-state
/// batches through the engine's spare-pooled workers allocate nothing.
struct GenasmBatchScratch {
  std::vector<simd::WindowProblem> globals;
  std::vector<std::size_t> global_idx;
  std::vector<DistanceTask> d_marches;
  std::vector<AlignmentTask> a_marches;
  std::vector<std::size_t> march_idx;
  std::vector<int> ints;                        ///< distance staging
  std::vector<genasm::WindowResult> wrs;        ///< global align staging
  std::vector<common::AlignmentResult> aligns;  ///< march align staging
  core::WindowedBatchScratch march;

  template <class T>
  static void ensure(std::vector<T>& buf, std::size_t n) {
    if (buf.size() < n) buf.resize(n);
  }
};

// The batch router's output policy, overloaded on the task type: where
// its marching tasks are staged, the level cap of its global solve (a
// distance folds its result cap in), the empty query's result, and which
// lane-solver and march entry points produce its results.

std::vector<DistanceTask>& marchesOf(const DistanceTask*,
                                     GenasmBatchScratch& sc) {
  return sc.d_marches;
}
std::vector<AlignmentTask>& marchesOf(const AlignmentTask*,
                                      GenasmBatchScratch& sc) {
  return sc.a_marches;
}

int levelCap(const DistanceTask& t, int max_edits) {
  return genasm::globalLevelCap(t.target, t.query, max_edits, t.cap);
}
int levelCap(const AlignmentTask&, int max_edits) { return max_edits; }

void emptyQuery(const DistanceTask& t, int& result) {
  result = genasm::distanceEmptyQuery(t.target, t.cap);
}
void emptyQuery(const AlignmentTask& t, AlignmentResult& result) {
  genasm::alignEmptyQuery(t.target, result);
}

/// Solve sc.globals as one BothEnds lane batch into results[global_idx].
void solveGlobals(simd::SimdBatchSolver& solver, GenasmBatchScratch& sc,
                  int* results) {
  const std::size_t n = sc.globals.size();
  sc.ensure(sc.ints, n);
  solver.solveDistanceBatch(genasm::Anchor::BothEnds, sc.globals.data(), n,
                            sc.ints.data());
  for (std::size_t j = 0; j < n; ++j) results[sc.global_idx[j]] = sc.ints[j];
}
void solveGlobals(simd::SimdBatchSolver& solver, GenasmBatchScratch& sc,
                  AlignmentResult* results) {
  const std::size_t n = sc.globals.size();
  sc.ensure(sc.wrs, n);
  solver.alignBatch(genasm::Anchor::BothEnds, sc.globals.data(), n,
                    sc.wrs.data());
  for (std::size_t j = 0; j < n; ++j) {
    genasm::toAlignment(sc.wrs[j], results[sc.global_idx[j]]);
  }
}

/// March `n` tasks through the batched core march into the staging
/// arena, which is returned.
const int* march(simd::SimdBatchSolver& solver, const core::WindowConfig& wcfg,
                 const DistanceTask* tasks, std::size_t n,
                 GenasmBatchScratch& sc) {
  sc.ensure(sc.ints, n);
  core::distanceWindowedBatch(solver, wcfg, tasks, n, sc.ints.data(),
                              sc.march);
  return sc.ints.data();
}
const AlignmentResult* march(simd::SimdBatchSolver& solver,
                             const core::WindowConfig& wcfg,
                             const AlignmentTask* tasks, std::size_t n,
                             GenasmBatchScratch& sc) {
  sc.ensure(sc.aligns, n);
  core::alignWindowedBatch(solver, wcfg, tasks, n, sc.aligns.data(),
                           sc.march);
  return sc.aligns.data();
}

/// The batch router of the GenASM backends, distance or alignment by the
/// task type. Tasks whose query fits a single global window run first,
/// on the lane solver as one BothEnds batch (solveDistanceBatch ==
/// scalar solveDistance, alignBatch == alignGlobalWith, per lane); the
/// rest — everything, for windowed-improved — then march through the
/// batched core march, which packs the current windows of all live tasks
/// into lanes. results[i] depends on tasks[i] alone, and equals the
/// scalar reproduction solvers' result for it (test_distance pins both).
template <class Task, class Result>
void routeBatch(simd::SimdBatchSolver& solver, const core::WindowConfig& wcfg,
                int max_edits, bool windowed_only, const Task* tasks,
                std::size_t count, Result* results, GenasmBatchScratch& sc) {
  auto& marches = marchesOf(tasks, sc);
  // Capacity for the split is bounded by count; clear() preserves it, so
  // the push_backs below never reallocate once the arena is warm.
  sc.ensure(sc.globals, count);
  sc.ensure(sc.global_idx, count);
  sc.ensure(marches, count);
  sc.ensure(sc.march_idx, count);
  sc.globals.clear();
  sc.global_idx.clear();
  marches.clear();
  sc.march_idx.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const Task& t = tasks[i];
    if (windowed_only || t.query.size() > kGlobalGenasmMax) {
      marches.push_back(t);
      sc.march_idx.push_back(i);
    } else if (t.query.empty()) {
      emptyQuery(t, results[i]);
    } else {
      sc.globals.push_back({t.target, t.query, levelCap(t, max_edits), -1});
      sc.global_idx.push_back(i);
    }
  }
  if (!sc.globals.empty()) solveGlobals(solver, sc, results);
  if (!marches.empty()) {
    const Result* marched =
        march(solver, wcfg, marches.data(), marches.size(), sc);
    for (std::size_t j = 0; j < marches.size(); ++j) {
      results[sc.march_idx[j]] = marched[j];
    }
  }
}

/// The GenASM backends. Single calls and batches both run routeBatch on
/// the aligner's own lane solver and arenas, one task for a single call;
/// `windowed_only` is false for `improved`, whose queries that fit one
/// global window (<= 512 bp) take a BothEnds lane solve instead of the
/// march.
class GenasmAligner final : public Aligner {
 public:
  // Window geometry is validated up front: the march would otherwise
  // surface the validate() throw from a worker thread.
  GenasmAligner(const AlignerConfig& cfg, std::string_view name,
                bool windowed_only)
      : cfg_(cfg), name_(name), windowed_only_(windowed_only) {
    cfg_.window.validate();
  }
  AlignmentResult align(std::string_view t, std::string_view q) override {
    const AlignmentTask task{t, q};
    AlignmentResult out;
    alignBatch(&task, 1, &out);
    return out;
  }
  int distance(std::string_view t, std::string_view q, int cap) override {
    const DistanceTask task{t, q, cap};
    int out = -1;
    distanceBatch(&task, 1, &out);
    return out;
  }
  void distanceBatch(const DistanceTask* tasks, std::size_t count,
                     int* results) override {
    routeBatch(simd_, cfg_.window, cfg_.max_edits, windowed_only_, tasks,
               count, results, batch_);
  }
  void alignBatch(const AlignmentTask* tasks, std::size_t count,
                  AlignmentResult* results) override {
    routeBatch(simd_, cfg_.window, cfg_.max_edits, windowed_only_, tasks,
               count, results, batch_);
  }
  std::string_view name() const noexcept override { return name_; }

 private:
  AlignerConfig cfg_;
  std::string_view name_;
  bool windowed_only_;
  simd::SimdBatchSolver simd_;
  GenasmBatchScratch batch_;
};

/// Register a GenasmAligner; `name` must be a literal (the aligner's
/// name() views it).
void addGenasm(AlignerRegistry& registry, std::string_view name,
               bool windowed_only, std::string description) {
  registry.add(std::string(name), std::move(description),
               [name, windowed_only](const AlignerConfig& cfg) -> AlignerPtr {
                 return std::make_unique<GenasmAligner>(cfg, name,
                                                        windowed_only);
               });
}

class MyersBackend final : public Aligner {
 public:
  explicit MyersBackend(const AlignerConfig& cfg) : aligner_(cfg.myers) {}
  AlignmentResult align(std::string_view t, std::string_view q) override {
    return aligner_.align(t, q);
  }
  int distance(std::string_view t, std::string_view q, int cap) override {
    const int d = aligner_.distance(t, q);  // bit-parallel, no traceback
    if (d < 0) return -1;
    return (cap >= 0 && d > cap) ? -1 : d;
  }
  std::string_view name() const noexcept override { return "myers"; }

 private:
  myers::MyersAligner aligner_;
};

class KswBackend final : public Aligner {
 public:
  explicit KswBackend(const AlignerConfig& cfg) : aligner_(cfg.ksw) {}
  AlignmentResult align(std::string_view t, std::string_view q) override {
    return aligner_.align(t, q);
  }
  std::string_view name() const noexcept override { return "ksw"; }

 private:
  ksw::KswAligner aligner_;
};

class EditDpBackend final : public Aligner {
 public:
  explicit EditDpBackend(const AlignerConfig&) {}
  AlignmentResult align(std::string_view t, std::string_view q) override {
    return refdp::align(t, q);
  }
  int distance(std::string_view t, std::string_view q, int cap) override {
    // O(min(n,m)) space, no traceback; a cap selects the Ukkonen band.
    if (cap >= 0) return refdp::editDistanceBanded(t, q, cap);
    return refdp::editDistance(t, q);
  }
  std::string_view name() const noexcept override { return "edit-dp"; }
};

class AffineDpBackend final : public Aligner {
 public:
  explicit AffineDpBackend(const AlignerConfig& cfg)
      : params_(cfg.ksw.params) {}
  AlignmentResult align(std::string_view t, std::string_view q) override {
    return refdp::alignAffine(t, q, params_);
  }
  std::string_view name() const noexcept override { return "affine-dp"; }

 private:
  refdp::AffineParams params_;
};

}  // namespace

AlignerRegistry::AlignerRegistry() {
  addGenasm(*this, "improved", false,
            "global improved GenASM (windowed beyond 512 bp)");
  addGenasm(*this, "windowed-improved", true,
            "windowed improved GenASM — the paper's system (default)");
  add("myers", "Myers bit-parallel + band doubling (Edlib-class)",
      [](const AlignerConfig& cfg) -> AlignerPtr {
        return std::make_unique<MyersBackend>(cfg);
      });
  add("ksw", "banded affine-gap DP (KSW2-class, minimap2's base aligner)",
      [](const AlignerConfig& cfg) -> AlignerPtr {
        return std::make_unique<KswBackend>(cfg);
      });
  add("edit-dp", "O(n*m) unit-cost reference DP (oracle)",
      [](const AlignerConfig& cfg) -> AlignerPtr {
        return std::make_unique<EditDpBackend>(cfg);
      });
  add("affine-dp", "O(n*m) Gotoh affine reference DP (oracle)",
      [](const AlignerConfig& cfg) -> AlignerPtr {
        return std::make_unique<AffineDpBackend>(cfg);
      });
}

AlignerRegistry& AlignerRegistry::instance() {
  static AlignerRegistry registry;
  return registry;
}

void AlignerRegistry::add(std::string name, std::string description,
                          Factory factory) {
  entries_[std::move(name)] =
      Entry{std::move(description), std::move(factory)};
}

bool AlignerRegistry::contains(std::string_view name) const noexcept {
  return entries_.find(name) != entries_.end();
}

AlignerPtr AlignerRegistry::create(std::string_view name,
                                   const AlignerConfig& cfg) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string msg = "unknown aligner backend '";
    msg += name;
    msg += "'; registered:";
    for (const auto& [key, entry] : entries_) {
      (void)entry;
      msg += ' ';
      msg += key;
    }
    throw std::invalid_argument(msg);
  }
  return it->second.factory(cfg);
}

std::vector<std::string> AlignerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    (void)entry;
    out.push_back(key);
  }
  return out;
}

std::string AlignerRegistry::description(std::string_view name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? std::string{} : it->second.description;
}

AlignerPtr makeAligner(std::string_view name, const AlignerConfig& cfg) {
  return AlignerRegistry::instance().create(name, cfg);
}

}  // namespace gx::engine
