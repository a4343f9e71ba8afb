#pragma once
// AlignmentEngine — the batched execution layer between the mapper and
// the solvers. Owns the thread pool, selects a backend by registry name,
// and runs deterministic batched alignment over mapper::AlignmentPairs:
// the embarrassingly-parallel outer loop the paper drives with 48 CPU
// threads, generalized over every registered backend.
//
// Layer stack:  io -> mapper -> engine -> solvers (genasm / core /
// myers / ksw / refdp). Consumers hold an engine (or a single Aligner
// from the registry) and never name concrete solver entry points.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "genasmx/engine/registry.hpp"
#include "genasmx/mapper/mapper.hpp"
#include "genasmx/util/scratch_pool.hpp"
#include "genasmx/util/thread_pool.hpp"

namespace gx::engine {

// AlignmentTask/DistanceTask are core's task types, named into this
// namespace by aligner.hpp (via registry.hpp).

struct EngineConfig {
  /// Registry name of the backend to run (see registry.hpp).
  std::string backend = "windowed-improved";
  AlignerConfig aligner{};
  /// Worker threads; 0 selects hardware concurrency.
  std::size_t threads = 0;
};

class AlignmentEngine {
 public:
  /// Throws std::invalid_argument for an unknown backend and propagates
  /// the backend's own config validation (e.g. bad window geometry).
  explicit AlignmentEngine(EngineConfig cfg = {});

  [[nodiscard]] const EngineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::string_view backend() const noexcept {
    return cfg_.backend;
  }
  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }

  /// Align every task; results[i] corresponds to tasks[i]. Deterministic:
  /// identical to the sequential loop regardless of thread count. The
  /// tasks are cut into contiguous chunks spread over the pool, and each
  /// worker hands its whole chunk to Aligner::alignBatch, so backends
  /// with a lane-parallel kernel (the GenASM backend) pack the chunk's
  /// tasks into SIMD lane batches — results stay bit-identical to the
  /// per-task single-call loop by contract. A chunk is never cut smaller than
  /// the active ISA's lane count (simd::isaLanes(simd::activeIsa())), so
  /// a small batch fills one lane group instead of spreading one-lane
  /// solves over the threads. A chunk whose batched call throws is rerun
  /// one task at a time; a task that still throws gets ok == false, and
  /// `failed` (when given) is resized to tasks.size() with 1 in exactly
  /// those slots. The viewed storage must outlive the call.
  [[nodiscard]] std::vector<common::AlignmentResult> alignBatch(
      const std::vector<AlignmentTask>& tasks,
      std::vector<unsigned char>* failed = nullptr);

  /// Owning-pair convenience overload (same semantics).
  [[nodiscard]] std::vector<common::AlignmentResult> alignBatch(
      const std::vector<mapper::AlignmentPair>& pairs);

  /// Distance-score every task; results[i] is the edit distance of
  /// tasks[i] (or -1: no alignment, or above tasks[i].cap). Chunking,
  /// determinism and failure isolation as alignBatch; a task that fails
  /// in isolation reports -1 and is flagged in `failed`.
  [[nodiscard]] std::vector<int> distanceBatch(
      const std::vector<DistanceTask>& tasks,
      std::vector<unsigned char>* failed = nullptr);

  /// The engine's worker pool, for callers (e.g. pipeline::MappingPipeline)
  /// that parallelize their own pre/post-processing around alignBatch()
  /// without spinning up a second competing pool.
  [[nodiscard]] util::ThreadPool& pool() noexcept { return pool_; }

  /// Tasks whose alignment failed even in single-task isolation; their
  /// results[i] slots carry ok=false (alignBatch) or -1 (distanceBatch).
  /// Cumulative over the engine's lifetime.
  [[nodiscard]] std::uint64_t taskFailures() const noexcept {
    return task_failures_.load(std::memory_order_relaxed);
  }
  /// Batched chunk calls that threw and were re-run per task. A nonzero
  /// count with zero taskFailures() means every task recovered on the
  /// isolation rerun.
  [[nodiscard]] std::uint64_t batchFaults() const noexcept {
    return batch_faults_.load(std::memory_order_relaxed);
  }

 private:
  /// RAII checkout of a worker aligner from the spare pool: one lease
  /// per chunk, so solver scratch is reused without a pool round-trip
  /// per problem, and persists across alignBatch calls instead of being
  /// rebuilt per chunk.
  class AlignerLease {
   public:
    explicit AlignerLease(AlignmentEngine& engine)
        : engine_(&engine),
          aligner_(engine.spares_.lease([&] { return engine.newAligner(); })) {}
    ~AlignerLease() {
      if (aligner_) engine_->spares_.giveBack(std::move(aligner_));
    }
    AlignerLease(const AlignerLease&) = delete;
    AlignerLease& operator=(const AlignerLease&) = delete;
    [[nodiscard]] Aligner* operator->() noexcept { return aligner_.get(); }
    [[nodiscard]] Aligner& operator*() noexcept { return *aligner_; }

    /// Destroy the leased aligner instead of recycling it. Called after
    /// the aligner threw mid-batch: its scratch state is unknown, and a
    /// half-written DP buffer returned to the spare pool would poison a
    /// later, unrelated batch.
    void poison() noexcept { aligner_.reset(); }

   private:
    AlignmentEngine* engine_;
    AlignerPtr aligner_;
  };

  /// Run `count` problems in lane-sized chunks on the pool: each chunk
  /// goes through batch(aligner, begin, end) on one leased aligner; a
  /// chunk that throws is rerun through one(aligner, i) per task on
  /// fresh aligners, and a task that still throws is flagged in
  /// `failed`. one() must reset its result slot before solving, so a
  /// throwing task leaves the failure value behind.
  template <class BatchFn, class OneFn>
  void runChunked(std::size_t count, std::vector<unsigned char>* failed,
                  const BatchFn& batch, const OneFn& one);

  [[nodiscard]] AlignerPtr newAligner() const {
    return makeAligner(cfg_.backend, cfg_.aligner);
  }

  EngineConfig cfg_;
  util::ThreadPool pool_;
  util::ScratchPool<Aligner> spares_;
  std::atomic<std::uint64_t> task_failures_{0};
  std::atomic<std::uint64_t> batch_faults_{0};
};

}  // namespace gx::engine
