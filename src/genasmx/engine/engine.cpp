#include "genasmx/engine/engine.hpp"

#include <utility>

#include "genasmx/simd/dispatch.hpp"

namespace gx::engine {

AlignmentEngine::AlignmentEngine(EngineConfig cfg)
    : cfg_(std::move(cfg)), pool_(cfg_.threads) {
  // Constructing one aligner up front validates the backend name and its
  // configuration eagerly; the instance seeds the spare pool rather than
  // sitting idle.
  spares_.giveBack(newAligner());
}

template <class BatchFn, class OneFn>
void AlignmentEngine::runChunked(std::size_t count,
                                 std::vector<unsigned char>* failed,
                                 const BatchFn& batch, const OneFn& one) {
  if (failed != nullptr) failed->assign(count, 0);
  const auto lanes =
      static_cast<std::size_t>(simd::isaLanes(simd::activeIsa()));
  pool_.parallel_for(
      count,
      [&](std::size_t begin, std::size_t end) {
        // One checked-out aligner per chunk: solver scratch amortizes
        // across the chunk's share and, via the spare pool, across
        // batches — the pool never holds more aligners than the peak
        // chunk concurrency.
        {
          AlignerLease aligner(*this);
          try {
            batch(*aligner, begin, end);
            return;
          } catch (...) {
            // The batched call died somewhere inside the chunk and may
            // have left partial results and torn solver scratch behind.
            // Drop the aligner (never back to the spare pool) and fall
            // through to the per-task isolation rerun below.
            aligner.poison();
            batch_faults_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Isolation rerun: one task at a time on a fresh aligner, so one
        // bad read costs exactly its own lane. The single calls run the
        // batch's code on a one-task batch (the GenASM backend runs
        // both through its lane solver), so a rerun answers as the
        // batch would have. A rerun aligner that survives its tasks is
        // healthy and joins the spare pool.
        AlignerPtr solo;
        for (std::size_t i = begin; i < end; ++i) {
          try {
            if (!solo) solo = newAligner();
            one(*solo, i);
          } catch (...) {
            solo.reset();  // scratch state unknown after the throw
            if (failed != nullptr) (*failed)[i] = 1;
            task_failures_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (solo) spares_.giveBack(std::move(solo));
      },
      lanes);
}

std::vector<common::AlignmentResult> AlignmentEngine::alignBatch(
    const std::vector<AlignmentTask>& tasks,
    std::vector<unsigned char>* failed) {
  std::vector<common::AlignmentResult> results(tasks.size());
  runChunked(
      tasks.size(), failed,
      [&](Aligner& a, std::size_t begin, std::size_t end) {
        a.alignBatch(tasks.data() + begin, end - begin,
                     results.data() + begin);
      },
      [&](Aligner& a, std::size_t i) {
        results[i] = common::AlignmentResult{};  // ok == false
        results[i] = a.align(tasks[i].target, tasks[i].query);
      });
  return results;
}

std::vector<int> AlignmentEngine::distanceBatch(
    const std::vector<DistanceTask>& tasks,
    std::vector<unsigned char>* failed) {
  std::vector<int> results(tasks.size(), -1);
  runChunked(
      tasks.size(), failed,
      [&](Aligner& a, std::size_t begin, std::size_t end) {
        a.distanceBatch(tasks.data() + begin, end - begin,
                        results.data() + begin);
      },
      [&](Aligner& a, std::size_t i) {
        results[i] = -1;  // the batched call may have part-filled the chunk
        results[i] = a.distance(tasks[i].target, tasks[i].query,
                                tasks[i].cap);
      });
  return results;
}

std::vector<common::AlignmentResult> AlignmentEngine::alignBatch(
    const std::vector<mapper::AlignmentPair>& pairs) {
  std::vector<AlignmentTask> tasks;
  tasks.reserve(pairs.size());
  for (const auto& p : pairs) tasks.push_back({p.target, p.query});
  return alignBatch(tasks);
}

}  // namespace gx::engine
