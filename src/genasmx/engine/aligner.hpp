#pragma once
// The unified aligner abstraction the serving consumers (tools, examples,
// the batch engine) program against. Concrete solvers — windowed improved
// GenASM on the SIMD lane solver, Myers bit-vector, KSW affine, and the
// reference DP oracles — are wrapped behind this interface and selected
// by name through the AlignerRegistry (genasmx/engine/registry.hpp).
//
// An Aligner instance owns its solver's scratch buffers, so one instance
// per worker amortizes allocations across a batch share. Instances are
// NOT thread-safe; create one per thread (AlignmentEngine does).

#include <cstddef>
#include <memory>
#include <string_view>

#include "genasmx/common/cigar.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/ksw/ksw_affine.hpp"
#include "genasmx/myers/myers.hpp"

namespace gx::engine {

/// The batch calls' task types are the batched march's (core/windowed.hpp),
/// so a task reaches the march without conversion; core keeps the names
/// BatchedDistanceRequest and BatchedAlignRequest as aliases of them.
using core::AlignmentTask;
using core::DistanceTask;

/// Union of the knobs the registered backends understand. Each backend
/// reads only its slice; defaults reproduce the paper's configuration.
struct AlignerConfig {
  /// GenASM windowed geometry (windowed-improved).
  core::WindowConfig window{};
  /// Myers banding (myers backend).
  myers::MyersConfig myers{};
  /// KSW affine scoring and band (ksw backend).
  ksw::KswConfig ksw{};
};

/// Abstract pairwise aligner: target = reference text, query = read.
class Aligner {
 public:
  virtual ~Aligner() = default;

  /// Globally align query against target. result.ok == false means the
  /// backend could not produce an alignment under its configuration.
  [[nodiscard]] virtual common::AlignmentResult align(
      std::string_view target, std::string_view query) = 0;

  /// Edit cost only, no CIGAR. Backends with a cheaper distance-only
  /// kernel (GenASM's lane distance fill, Myers without traceback)
  /// override this; the default pays for the full alignment. The contract every
  /// backend must honor (tests enforce it): returns exactly
  /// align(target, query).edit_distance whenever that alignment exists
  /// and its cost is <= cap (cap < 0 = uncapped), and -1 otherwise —
  /// so capped scoring can discard candidates without ever changing
  /// which ones survive.
  [[nodiscard]] virtual int distance(std::string_view target,
                                     std::string_view query, int cap = -1) {
    const common::AlignmentResult res = align(target, query);
    if (!res.ok) return -1;
    if (cap >= 0 && res.edit_distance > cap) return -1;
    return res.edit_distance;
  }

  /// Distance-score `count` tasks; results[i] follows distance()'s
  /// contract for tasks[i] exactly (the default is that loop). Backends
  /// with a lane-parallel batched kernel override this and pack
  /// same-shaped problems into SIMD lanes — results are guaranteed
  /// identical to the scalar loop, so callers may batch freely without
  /// affecting output. The viewed storage must outlive the call.
  virtual void distanceBatch(const DistanceTask* tasks, std::size_t count,
                             int* results) {
    for (std::size_t i = 0; i < count; ++i) {
      results[i] = distance(tasks[i].target, tasks[i].query, tasks[i].cap);
    }
  }

  /// Align `count` tasks; results[i] is bit-identical to
  /// align(tasks[i].target, tasks[i].query) — cigar included — so
  /// callers may batch freely without affecting output (the default is
  /// that loop). The GenASM backend overrides this with the lock-step
  /// windowed march, which packs the current windows of all tasks into
  /// SIMD lanes. Each result is reset in place, cigar capacity preserved,
  /// so a reused results arena allocates nothing at steady state. The
  /// viewed storage must outlive the call.
  virtual void alignBatch(const AlignmentTask* tasks, std::size_t count,
                          common::AlignmentResult* results) {
    for (std::size_t i = 0; i < count; ++i) {
      results[i] = align(tasks[i].target, tasks[i].query);
    }
  }

  /// The registry name this instance was created under.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

using AlignerPtr = std::unique_ptr<Aligner>;

}  // namespace gx::engine
