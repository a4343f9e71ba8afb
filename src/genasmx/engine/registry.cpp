#include "genasmx/engine/registry.hpp"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "genasmx/refdp/affine_dp.hpp"
#include "genasmx/refdp/edit_dp.hpp"
#include "genasmx/simd/batch_solver.hpp"

namespace gx::engine {
namespace {

using common::AlignmentResult;

/// The GenASM backend: the windowed improved GenASM march, batched on the
/// aligner's own lane solver and arenas. Single calls are one-task
/// batches, so they run the same lane code; results[i] depends on
/// tasks[i] alone and equals the scalar reproduction march's result for
/// it (test_distance pins both).
class GenasmAligner final : public Aligner {
 public:
  // Window geometry is validated up front: the march would otherwise
  // surface the validate() throw from a worker thread.
  explicit GenasmAligner(const AlignerConfig& cfg) : cfg_(cfg) {
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
    core::distanceWindowedBatch(simd_, cfg_.window, tasks, count, results,
                                march_);
  }
  void alignBatch(const AlignmentTask* tasks, std::size_t count,
                  AlignmentResult* results) override {
    core::alignWindowedBatch(simd_, cfg_.window, tasks, count, results,
                             march_);
  }
  std::string_view name() const noexcept override {
    return "windowed-improved";
  }

 private:
  AlignerConfig cfg_;
  simd::SimdBatchSolver simd_;
  core::WindowedBatchScratch march_;
};

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
  add("windowed-improved",
      "windowed improved GenASM — the paper's system (default)",
      [](const AlignerConfig& cfg) -> AlignerPtr {
        return std::make_unique<GenasmAligner>(cfg);
      });
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
