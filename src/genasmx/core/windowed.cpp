#include "genasmx/core/windowed.hpp"

#include <vector>

namespace gx::core {
namespace {

/// The output policy a batched request marches under.
CappedEdits outFor(const DistanceTask& req, int& result) {
  return CappedEdits(req.cap, result);
}
CigarOut outFor(const AlignmentTask&, common::AlignmentResult& result) {
  return CigarOut(result);
}

/// The batched driver: one lock-step sweep per window, each advancing
/// every live request's march by one window solved in the SIMD lanes.
template <class Request, class Result>
void marchBatch(simd::SimdBatchSolver& solver, const WindowConfig& cfg,
                const Request* requests, std::size_t count, Result* results,
                WindowedBatchScratch& scratch) {
  using Out = decltype(outFor(requests[0], results[0]));
  cfg.validate();
  auto& marches = [&]() -> auto& {
    if constexpr (Out::kCigar) return scratch.align_marches;
    else return scratch.distance_marches;
  }();
  // Capacities bounded by count, sized up front so the per-sweep
  // push_backs never reallocate once the arenas are warm.
  scratch.ensure(marches, count);
  scratch.ensure(scratch.probs, count);
  scratch.ensure(scratch.lane_req, count);
  auto& probs = scratch.probs;
  auto& lane_req = scratch.lane_req;
  for (std::size_t r = 0; r < count; ++r) {
    marches[r] = WindowMarch(cfg, requests[r].target, requests[r].query,
                             outFor(requests[r], results[r]));
  }

  simd::WindowProblem p;
  while (true) {
    probs.clear();
    lane_req.clear();
    for (std::size_t r = 0; r < count; ++r) {
      if (!marches[r].next(p)) continue;
      probs.push_back(p);
      lane_req.push_back(r);
    }
    if (probs.empty()) break;
    const std::size_t n = probs.size();
    if constexpr (Out::kCigar) {
      scratch.ensure(scratch.wrs, n);
      solver.alignBatch(genasm::Anchor::StartOnly, probs.data(), n,
                        scratch.wrs.data());
      for (std::size_t j = 0; j < n; ++j) {
        const genasm::WindowResult& wr = scratch.wrs[j];
        marches[lane_req[j]].commit(windowOutcome(wr), &wr.cigar);
      }
    } else {
      scratch.ensure(scratch.outs, n);
      solver.solveWindowBatch(genasm::Anchor::StartOnly, probs.data(), n,
                              scratch.outs.data());
      for (std::size_t j = 0; j < n; ++j) {
        marches[lane_req[j]].commit(scratch.outs[j], nullptr);
      }
    }
  }
}

}  // namespace

void distanceWindowedBatch(simd::SimdBatchSolver& solver,
                           const WindowConfig& cfg,
                           const DistanceTask* requests,
                           std::size_t count, int* results,
                           WindowedBatchScratch& scratch) {
  marchBatch(solver, cfg, requests, count, results, scratch);
}

void distanceWindowedBatch(simd::SimdBatchSolver& solver,
                           const WindowConfig& cfg,
                           const DistanceTask* requests,
                           std::size_t count, int* results) {
  WindowedBatchScratch scratch;
  marchBatch(solver, cfg, requests, count, results, scratch);
}

void alignWindowedBatch(simd::SimdBatchSolver& solver, const WindowConfig& cfg,
                        const AlignmentTask* requests, std::size_t count,
                        common::AlignmentResult* results,
                        WindowedBatchScratch& scratch) {
  marchBatch(solver, cfg, requests, count, results, scratch);
}

void alignWindowedBatch(simd::SimdBatchSolver& solver, const WindowConfig& cfg,
                        const AlignmentTask* requests, std::size_t count,
                        common::AlignmentResult* results) {
  WindowedBatchScratch scratch;
  marchBatch(solver, cfg, requests, count, results, scratch);
}

common::AlignmentResult alignWindowedBaseline(std::string_view target,
                                              std::string_view query,
                                              const WindowConfig& cfg,
                                              util::MemStats* stats) {
  return genasm::withSolver<genasm::BaselineWindowSolver>(
      cfg.window, stats, [&](auto& solver, auto counter) {
        return alignWindowed(solver, target, query, cfg, counter);
      });
}

common::AlignmentResult alignWindowedImproved(std::string_view target,
                                              std::string_view query,
                                              const WindowConfig& cfg,
                                              const ImprovedOptions& opts,
                                              util::MemStats* stats) {
  return genasm::withSolver<ImprovedWindowSolver>(
      cfg.window, stats,
      [&](auto& solver, auto counter) {
        return alignWindowed(solver, target, query, cfg, counter);
      },
      opts);
}

int distanceWindowedBaseline(std::string_view target, std::string_view query,
                             const WindowConfig& cfg, int cap,
                             util::MemStats* stats) {
  return genasm::withSolver<genasm::BaselineWindowSolver>(
      cfg.window, stats, [&](auto& solver, auto counter) {
        WindowBuffers bufs;
        return distanceWindowed(solver, target, query, cfg, cap, bufs,
                                counter);
      });
}

int distanceWindowedImproved(std::string_view target, std::string_view query,
                             const WindowConfig& cfg,
                             const ImprovedOptions& opts, int cap,
                             util::MemStats* stats) {
  return genasm::withSolver<ImprovedWindowSolver>(
      cfg.window, stats,
      [&](auto& solver, auto counter) {
        WindowBuffers bufs;
        return distanceWindowed(solver, target, query, cfg, cap, bufs,
                                counter);
      },
      opts);
}

}  // namespace gx::core
