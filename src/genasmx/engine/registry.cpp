#include "genasmx/engine/registry.hpp"

#include <memory>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "genasmx/bitvector/bitvector.hpp"
#include "genasmx/genasm/genasm_baseline.hpp"
#include "genasmx/refdp/affine_dp.hpp"
#include "genasmx/refdp/edit_dp.hpp"
#include "genasmx/simd/batch_solver.hpp"

namespace gx::engine {
namespace {

using bitvector::withWidth;
using bitvector::wordsNeeded;
using common::AlignmentResult;

// Query lengths the single-window global GenASM solvers can hold; longer
// queries silently switch to the windowed driver with the same config.
constexpr std::size_t kGlobalGenasmMax = bitvector::BitVec<8>::kBits;

/// Lazily-constructed per-bit-width solver instances. Each aligner owns
/// one, so solver scratch arenas persist across align()/distance() calls
/// — this is the per-worker reuse AlignmentEngine's spare pool relies on.
template <template <int> class S>
struct PerWidthSolvers {
  std::tuple<std::unique_ptr<S<1>>, std::unique_ptr<S<2>>,
             std::unique_ptr<S<3>>, std::unique_ptr<S<4>>,
             std::unique_ptr<S<5>>, std::unique_ptr<S<6>>,
             std::unique_ptr<S<7>>, std::unique_ptr<S<8>>>
      slots;

  template <int NW, class... Args>
  S<NW>& get(Args&&... args) {
    auto& p = std::get<NW - 1>(slots);
    if (!p) p = std::make_unique<S<NW>>(std::forward<Args>(args)...);
    return *p;
  }
};

/// Per-aligner arenas for the batched GenASM routing: the global-vs-
/// march task split, result staging, and the march's own scratch. Owned
/// by each GenASM aligner instance, so steady-state batches through the
/// engine's spare-pooled workers grow nothing (allocs() counts growth
/// events; the bench asserts it stays flat).
struct GenasmBatchScratch {
  std::vector<simd::WindowProblem> globals;
  std::vector<std::size_t> global_idx;
  std::vector<core::BatchedDistanceRequest> d_marches;
  std::vector<core::BatchedAlignRequest> a_marches;
  std::vector<std::size_t> march_idx;
  std::vector<int> ints;                        ///< distance staging
  std::vector<genasm::WindowResult> wrs;        ///< global align staging
  std::vector<common::AlignmentResult> aligns;  ///< march align staging
  core::WindowedBatchScratch march;

  [[nodiscard]] std::uint64_t allocs() const noexcept {
    return grow_events_ + march.allocs();
  }

  template <class T>
  void ensure(std::vector<T>& buf, std::size_t n) {
    if (buf.capacity() < n) ++grow_events_;
    if (buf.size() < n) buf.resize(n);
  }

 private:
  std::uint64_t grow_events_ = 0;
};

/// Shared batched-distance routing for the GenASM backends. Tasks whose
/// query fits a single global window go through the lane-parallel
/// distance kernel (solveDistanceBatch == scalar solveDistance per
/// lane); the rest march through core::distanceWindowedBatch, which
/// packs the current windows of all live tasks into lanes. The
/// windowed-* backends always march, mirroring their scalar distance().
/// Results are identical to the scalar per-task loop in every case.
void genasmDistanceBatch(simd::SimdBatchSolver& solver,
                         const core::WindowConfig& wcfg, int max_edits,
                         bool windowed_only, const DistanceTask* tasks,
                         std::size_t count, int* results,
                         GenasmBatchScratch& sc) {
  // Capacity for the split is bounded by count; clear() preserves it, so
  // the push_backs below never reallocate once the arena is warm.
  sc.ensure(sc.globals, count);
  sc.ensure(sc.global_idx, count);
  sc.ensure(sc.d_marches, count);
  sc.ensure(sc.march_idx, count);
  sc.globals.clear();
  sc.global_idx.clear();
  sc.d_marches.clear();
  sc.march_idx.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const DistanceTask& t = tasks[i];
    if (windowed_only || t.query.size() > kGlobalGenasmMax) {
      sc.d_marches.push_back({t.target, t.query, t.cap});
      sc.march_idx.push_back(i);
      continue;
    }
    if (t.query.empty()) {
      // distanceGlobalWith's degenerate case: delete the whole target.
      const int d = static_cast<int>(t.target.size());
      results[i] = (t.cap >= 0 && d > t.cap) ? -1 : d;
      continue;
    }
    // Fold the result cap into the level cap, as distanceGlobalWith does:
    // hopeless problems stop at cap+1 levels.
    int k = max_edits >= 0
                ? max_edits
                : genasm::autoEditCap(static_cast<int>(t.target.size()),
                                      static_cast<int>(t.query.size()),
                                      genasm::Anchor::BothEnds);
    if (t.cap >= 0 && t.cap < k) k = t.cap;
    sc.globals.push_back({t.target, t.query, k, -1});
    sc.global_idx.push_back(i);
  }
  if (!sc.globals.empty()) {
    sc.ensure(sc.ints, sc.globals.size());
    solver.solveDistanceBatch(genasm::Anchor::BothEnds, sc.globals.data(),
                              sc.globals.size(), sc.ints.data());
    for (std::size_t j = 0; j < sc.global_idx.size(); ++j) {
      results[sc.global_idx[j]] = sc.ints[j];
    }
  }
  if (!sc.d_marches.empty()) {
    sc.ensure(sc.ints, sc.d_marches.size());
    core::distanceWindowedBatch(solver, wcfg, sc.d_marches.data(),
                                sc.d_marches.size(), sc.ints.data(), sc.march);
    for (std::size_t j = 0; j < sc.march_idx.size(); ++j) {
      results[sc.march_idx[j]] = sc.ints[j];
    }
  }
}

/// Batched-alignment routing, mirroring genasmDistanceBatch: global
/// problems run on the lane solver's alignBatch (== alignGlobalWith per
/// lane, cigar included), the rest — everything, for the windowed-*
/// backends — march through core::alignWindowedBatch. results[i] is
/// bit-identical to the backend's scalar align(tasks[i]) in every case.
void genasmAlignBatch(simd::SimdBatchSolver& solver,
                      const core::WindowConfig& wcfg, int max_edits,
                      bool windowed_only, const AlignmentTask* tasks,
                      std::size_t count, AlignmentResult* results,
                      GenasmBatchScratch& sc) {
  sc.ensure(sc.globals, count);
  sc.ensure(sc.global_idx, count);
  sc.ensure(sc.a_marches, count);
  sc.ensure(sc.march_idx, count);
  sc.globals.clear();
  sc.global_idx.clear();
  sc.a_marches.clear();
  sc.march_idx.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const AlignmentTask& t = tasks[i];
    if (windowed_only || t.query.size() > kGlobalGenasmMax) {
      sc.a_marches.push_back({t.target, t.query});
      sc.march_idx.push_back(i);
      continue;
    }
    AlignmentResult& out = results[i];
    out.ok = false;
    out.edit_distance = -1;
    out.score = 0;
    out.cigar.clear();
    if (t.query.empty()) {
      // alignGlobalWith's degenerate case: delete the whole target.
      out.ok = true;
      out.edit_distance = static_cast<int>(t.target.size());
      out.score = -out.edit_distance;
      if (!t.target.empty()) {
        out.cigar.push(common::EditOp::Deletion,
                       static_cast<std::uint32_t>(t.target.size()));
      }
      continue;
    }
    sc.globals.push_back({t.target, t.query, max_edits, -1});
    sc.global_idx.push_back(i);
  }
  if (!sc.globals.empty()) {
    sc.ensure(sc.wrs, sc.globals.size());
    solver.alignBatch(genasm::Anchor::BothEnds, sc.globals.data(),
                      sc.globals.size(), sc.wrs.data());
    for (std::size_t j = 0; j < sc.global_idx.size(); ++j) {
      const genasm::WindowResult& wr = sc.wrs[j];
      AlignmentResult& out = results[sc.global_idx[j]];
      out.ok = false;
      out.edit_distance = -1;
      out.score = 0;
      out.cigar.clear();
      if (!wr.ok) continue;
      out.ok = true;
      out.edit_distance = wr.distance;
      out.score = -wr.distance;
      out.cigar = wr.cigar;
    }
  }
  if (!sc.a_marches.empty()) {
    sc.ensure(sc.aligns, sc.a_marches.size());
    core::alignWindowedBatch(solver, wcfg, sc.a_marches.data(),
                             sc.a_marches.size(), sc.aligns.data(), sc.march);
    for (std::size_t j = 0; j < sc.march_idx.size(); ++j) {
      results[sc.march_idx[j]] = sc.aligns[j];
    }
  }
}

/// The four GenASM backends: solver family S (the unimproved baseline
/// or the improved algorithm, which takes cfg.improved), and whether
/// queries that fit one global window (<= 512 bp) take the global solver
/// instead of the windowed march.
template <template <int> class S, bool kGlobalShort>
class GenasmAligner final : public Aligner {
 public:
  // Window geometry is validated up front: the march would otherwise
  // surface the validate() throw from a worker thread.
  GenasmAligner(const AlignerConfig& cfg, std::string_view name)
      : cfg_(cfg), name_(name) {
    cfg_.window.validate();
  }
  AlignmentResult align(std::string_view t, std::string_view q) override {
    if (global(q)) {
      return withWidth(wordsNeeded(static_cast<int>(q.size())), [&](auto nw) {
        return genasm::alignGlobalWith(solver<nw()>(), bufs_.t_rev,
                                       bufs_.q_rev, t, q, cfg_.max_edits);
      });
    }
    return withWidth(wordsNeeded(cfg_.window.window), [&](auto nw) {
      return core::alignWindowed(solver<nw()>(), t, q, cfg_.window, bufs_);
    });
  }
  int distance(std::string_view t, std::string_view q, int cap) override {
    if (global(q)) {
      return withWidth(wordsNeeded(static_cast<int>(q.size())), [&](auto nw) {
        return genasm::distanceGlobalWith(solver<nw()>(), bufs_.t_rev,
                                          bufs_.q_rev, t, q, cfg_.max_edits,
                                          cap);
      });
    }
    return withWidth(wordsNeeded(cfg_.window.window), [&](auto nw) {
      return core::distanceWindowed(solver<nw()>(), t, q, cfg_.window, cap,
                                    bufs_);
    });
  }
  void distanceBatch(const DistanceTask* tasks, std::size_t count,
                     int* results) override {
    genasmDistanceBatch(simd_, cfg_.window, cfg_.max_edits, !kGlobalShort,
                        tasks, count, results, batch_);
  }
  void alignBatch(const AlignmentTask* tasks, std::size_t count,
                  AlignmentResult* results) override {
    genasmAlignBatch(simd_, cfg_.window, cfg_.max_edits, !kGlobalShort, tasks,
                     count, results, batch_);
  }
  std::string_view name() const noexcept override { return name_; }

 private:
  static bool global(std::string_view q) noexcept {
    return kGlobalShort && q.size() <= kGlobalGenasmMax;
  }
  template <int NW>
  S<NW>& solver() {
    if constexpr (std::is_same_v<S<NW>, core::ImprovedWindowSolver<NW>>) {
      return solvers_.template get<NW>(cfg_.improved);
    } else {
      return solvers_.template get<NW>();
    }
  }

  AlignerConfig cfg_;
  std::string_view name_;
  PerWidthSolvers<S> solvers_;
  core::WindowBuffers bufs_;
  simd::SimdBatchSolver simd_;
  GenasmBatchScratch batch_;
};

/// Register a GenasmAligner instantiation; `name` must be a literal (the
/// aligner's name() views it).
template <template <int> class S, bool kGlobalShort>
void addGenasm(AlignerRegistry& registry, std::string_view name,
               std::string description) {
  registry.add(std::string(name), std::move(description),
               [name](const AlignerConfig& cfg) -> AlignerPtr {
                 return std::make_unique<GenasmAligner<S, kGlobalShort>>(
                     cfg, name);
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
  addGenasm<genasm::BaselineWindowSolver, true>(
      *this, "baseline",
      "global unimproved GenASM (MICRO'20; windowed beyond 512 bp)");
  addGenasm<core::ImprovedWindowSolver, true>(
      *this, "improved", "global improved GenASM (windowed beyond 512 bp)");
  addGenasm<genasm::BaselineWindowSolver, false>(
      *this, "windowed-baseline", "windowed unimproved GenASM (long reads)");
  addGenasm<core::ImprovedWindowSolver, false>(
      *this, "windowed-improved",
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
