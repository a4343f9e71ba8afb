#include "genasmx/core/windowed.hpp"

#include <vector>

namespace gx::core {
namespace {

template <int NW, class Counter>
common::AlignmentResult runBaseline(std::string_view target,
                                    std::string_view query,
                                    const WindowConfig& cfg, Counter counter) {
  genasm::BaselineWindowSolver<NW> solver;
  return alignWindowed(solver, target, query, cfg, counter);
}

template <int NW, class Counter>
common::AlignmentResult runImproved(std::string_view target,
                                    std::string_view query,
                                    const WindowConfig& cfg,
                                    const ImprovedOptions& opts,
                                    Counter counter) {
  ImprovedWindowSolver<NW> solver(opts);
  return alignWindowed(solver, target, query, cfg, counter);
}

template <int NW, class Counter>
int runBaselineDistance(std::string_view target, std::string_view query,
                        const WindowConfig& cfg, int cap, Counter counter) {
  genasm::BaselineWindowSolver<NW> solver;
  WindowBuffers bufs;
  return distanceWindowed(solver, target, query, cfg, cap, bufs, counter);
}

template <int NW, class Counter>
int runImprovedDistance(std::string_view target, std::string_view query,
                        const WindowConfig& cfg, const ImprovedOptions& opts,
                        int cap, Counter counter) {
  ImprovedWindowSolver<NW> solver(opts);
  WindowBuffers bufs;
  return distanceWindowed(solver, target, query, cfg, cap, bufs, counter);
}

}  // namespace

common::AlignmentResult alignWindowedBaseline(std::string_view target,
                                              std::string_view query,
                                              const WindowConfig& cfg,
                                              util::MemStats* stats) {
  const int nw = bitvector::wordsNeeded(cfg.window);
  auto run = [&](auto counter) -> common::AlignmentResult {
    switch (nw) {
      case 1: return runBaseline<1>(target, query, cfg, counter);
      case 2: return runBaseline<2>(target, query, cfg, counter);
      case 3: return runBaseline<3>(target, query, cfg, counter);
      case 4: return runBaseline<4>(target, query, cfg, counter);
      default: return runBaseline<8>(target, query, cfg, counter);
    }
  };
  if (stats) return run(util::CountingMemCounter(*stats));
  return run(util::NullMemCounter{});
}

common::AlignmentResult alignWindowedImproved(std::string_view target,
                                              std::string_view query,
                                              const WindowConfig& cfg,
                                              const ImprovedOptions& opts,
                                              util::MemStats* stats) {
  const int nw = bitvector::wordsNeeded(cfg.window);
  auto run = [&](auto counter) -> common::AlignmentResult {
    switch (nw) {
      case 1: return runImproved<1>(target, query, cfg, opts, counter);
      case 2: return runImproved<2>(target, query, cfg, opts, counter);
      case 3: return runImproved<3>(target, query, cfg, opts, counter);
      case 4: return runImproved<4>(target, query, cfg, opts, counter);
      default: return runImproved<8>(target, query, cfg, opts, counter);
    }
  };
  if (stats) return run(util::CountingMemCounter(*stats));
  return run(util::NullMemCounter{});
}

int distanceWindowedBaseline(std::string_view target, std::string_view query,
                             const WindowConfig& cfg, int cap,
                             util::MemStats* stats) {
  const int nw = bitvector::wordsNeeded(cfg.window);
  auto run = [&](auto counter) -> int {
    switch (nw) {
      case 1: return runBaselineDistance<1>(target, query, cfg, cap, counter);
      case 2: return runBaselineDistance<2>(target, query, cfg, cap, counter);
      case 3: return runBaselineDistance<3>(target, query, cfg, cap, counter);
      case 4: return runBaselineDistance<4>(target, query, cfg, cap, counter);
      default: return runBaselineDistance<8>(target, query, cfg, cap, counter);
    }
  };
  if (stats) return run(util::CountingMemCounter(*stats));
  return run(util::NullMemCounter{});
}

namespace {

/// Build the current window problem for one live request — the shared
/// cursor-to-window mapping of distanceWindowed()/alignWindowed() — with
/// the request's previous d_min as the lane-packing hint (neighbouring
/// windows of a read see similar error, so similar level counts).
/// Pre: rem_t > 0 && rem_q > 0.
simd::WindowProblem currentWindow(const WindowConfig& cfg,
                                  std::string_view target,
                                  std::string_view query,
                                  WindowedBatchScratch::March& m) {
  const std::size_t W = static_cast<std::size_t>(cfg.window);
  const std::size_t rem_t = target.size() - m.ti;
  const std::size_t rem_q = query.size() - m.qi;
  simd::WindowProblem p;
  p.max_edits = cfg.max_edits;
  p.level_hint = m.prev_dmin;
  if (rem_q <= W) {
    m.is_final = true;
    const std::size_t final_slack =
        static_cast<std::size_t>(cfg.textWindow() - cfg.window);
    const std::size_t tw_len = std::min(rem_t, rem_q + final_slack);
    p.text = target.substr(m.ti, tw_len);
    p.pattern = query.substr(m.qi, rem_q);
    p.tb_op_limit = -1;
  } else {
    m.is_final = false;
    const std::size_t tw_len =
        std::min(rem_t, static_cast<std::size_t>(cfg.textWindow()));
    p.text = target.substr(m.ti, tw_len);
    p.pattern = query.substr(m.qi, W);
    p.tb_op_limit = cfg.window - cfg.overlap;
  }
  return p;
}

}  // namespace

void distanceWindowedBatch(simd::SimdBatchSolver& solver,
                           const WindowConfig& cfg,
                           const BatchedDistanceRequest* requests,
                           std::size_t count, int* results,
                           WindowedBatchScratch& scratch) {
  cfg.validate();

  // Per-request march state — distanceWindowed()'s locals, one per lane.
  // Arena capacities (including the per-sweep probs/lane_req push_backs,
  // bounded by count) are sized up front so steady-state marches grow
  // nothing.
  scratch.ensure(scratch.st, count);
  scratch.ensure(scratch.probs, count);
  scratch.ensure(scratch.lane_req, count);
  auto& st = scratch.st;
  auto& probs = scratch.probs;
  auto& outs = scratch.outs;
  auto& lane_req = scratch.lane_req;

  std::size_t live = count;
  for (std::size_t r = 0; r < count; ++r) {
    st[r] = WindowedBatchScratch::March{};
    st[r].budget = requests[r].cap < 0
                       ? ~0ULL
                       : static_cast<std::uint64_t>(requests[r].cap);
  }
  const auto finish = [&](std::size_t r, int value) {
    st[r].done = true;
    results[r] = value;
    --live;
  };

  // Each sweep advances every live request by exactly one window: the
  // current windows of all live requests are packed into lanes and
  // solved together, then each lane applies the scalar march update.
  while (live > 0) {
    probs.clear();
    lane_req.clear();
    for (std::size_t r = 0; r < count; ++r) {
      if (st[r].done) continue;
      const std::string_view target = requests[r].target;
      const std::string_view query = requests[r].query;
      const std::size_t rem_t = target.size() - st[r].ti;
      const std::size_t rem_q = query.size() - st[r].qi;
      if (rem_q == 0) {
        st[r].acc += rem_t;  // trailing deletions
        finish(r, st[r].acc > st[r].budget ? -1
                                           : static_cast<int>(st[r].acc));
        continue;
      }
      if (rem_t == 0) {
        st[r].acc += rem_q;  // trailing insertions
        finish(r, st[r].acc > st[r].budget ? -1
                                           : static_cast<int>(st[r].acc));
        continue;
      }
      probs.push_back(currentWindow(cfg, target, query, st[r]));
      lane_req.push_back(r);
    }
    if (probs.empty()) break;
    scratch.ensure(outs, probs.size());
    solver.solveWindowBatch(genasm::Anchor::StartOnly, probs.data(),
                            probs.size(), outs.data());
    for (std::size_t j = 0; j < lane_req.size(); ++j) {
      const std::size_t r = lane_req[j];
      const simd::WindowOutcome& out = outs[j];
      WindowedBatchScratch::March& m = st[r];
      if (!out.ok) {
        finish(r, -1);
        continue;
      }
      m.prev_dmin = out.distance;
      if (m.is_final) {
        m.acc += out.edits;
        const std::size_t rem_t = requests[r].target.size() - m.ti;
        if (out.text_consumed < rem_t) m.acc += rem_t - out.text_consumed;
        finish(r, m.acc > m.budget ? -1 : static_cast<int>(m.acc));
        continue;
      }
      if (out.text_consumed == 0 && out.pattern_consumed == 0) {
        finish(r, -1);  // defensive: no progress
        continue;
      }
      m.acc += out.edits;
      if (m.acc > m.budget) {
        finish(r, -1);  // total >= acc, so the cap is blown
        continue;
      }
      m.ti += out.text_consumed;
      m.qi += out.pattern_consumed;
    }
  }
}

void distanceWindowedBatch(simd::SimdBatchSolver& solver,
                           const WindowConfig& cfg,
                           const BatchedDistanceRequest* requests,
                           std::size_t count, int* results) {
  WindowedBatchScratch scratch;
  distanceWindowedBatch(solver, cfg, requests, count, results, scratch);
}

void alignWindowedBatch(simd::SimdBatchSolver& solver, const WindowConfig& cfg,
                        const BatchedAlignRequest* requests, std::size_t count,
                        common::AlignmentResult* results,
                        WindowedBatchScratch& scratch) {
  cfg.validate();

  scratch.ensure(scratch.st, count);
  scratch.ensure(scratch.probs, count);
  scratch.ensure(scratch.lane_req, count);
  auto& st = scratch.st;
  auto& probs = scratch.probs;
  auto& wrs = scratch.wrs;
  auto& lane_req = scratch.lane_req;

  std::size_t live = count;
  for (std::size_t r = 0; r < count; ++r) {
    st[r] = WindowedBatchScratch::March{};
    // In-place reset, preserving cigar capacity, exactly as
    // alignWindowed()'s fresh AlignmentResult starts out.
    common::AlignmentResult& out = results[r];
    out.ok = false;
    out.edit_distance = -1;
    out.score = 0;
    out.cigar.clear();
  }
  const auto finishFail = [&](std::size_t r) {
    st[r].done = true;
    --live;  // results[r].ok stays false; the partial cigar stands
  };
  const auto finishOk = [&](std::size_t r) {
    st[r].done = true;
    --live;
    common::AlignmentResult& out = results[r];
    out.ok = true;
    out.edit_distance = static_cast<int>(out.cigar.editDistance());
    out.score = -out.edit_distance;
  };

  // Lock-step march, one window per live request per sweep — the same
  // sweep structure as distanceWindowedBatch, with alignWindowed()'s
  // commit logic applied per lane.
  while (live > 0) {
    probs.clear();
    lane_req.clear();
    for (std::size_t r = 0; r < count; ++r) {
      if (st[r].done) continue;
      const std::string_view target = requests[r].target;
      const std::string_view query = requests[r].query;
      const std::size_t rem_t = target.size() - st[r].ti;
      const std::size_t rem_q = query.size() - st[r].qi;
      if (rem_q == 0) {
        if (rem_t > 0) {
          results[r].cigar.push(common::EditOp::Deletion,
                                static_cast<std::uint32_t>(rem_t));
        }
        finishOk(r);
        continue;
      }
      if (rem_t == 0) {
        results[r].cigar.push(common::EditOp::Insertion,
                              static_cast<std::uint32_t>(rem_q));
        finishOk(r);
        continue;
      }
      probs.push_back(currentWindow(cfg, target, query, st[r]));
      lane_req.push_back(r);
    }
    if (probs.empty()) break;
    scratch.ensure(wrs, probs.size());
    solver.alignBatch(genasm::Anchor::StartOnly, probs.data(), probs.size(),
                      wrs.data());
    for (std::size_t j = 0; j < lane_req.size(); ++j) {
      const std::size_t r = lane_req[j];
      const genasm::WindowResult& wr = wrs[j];
      WindowedBatchScratch::March& m = st[r];
      common::AlignmentResult& out = results[r];
      if (!wr.ok) {
        finishFail(r);
        continue;
      }
      m.prev_dmin = wr.distance;
      if (m.is_final) {
        out.cigar.append(wr.cigar);
        const std::size_t rem_t = requests[r].target.size() - m.ti;
        const std::uint64_t consumed = wr.cigar.targetLength();
        if (consumed < rem_t) {
          out.cigar.push(common::EditOp::Deletion,
                         static_cast<std::uint32_t>(rem_t - consumed));
        }
        finishOk(r);
        continue;
      }
      const std::uint64_t tc = wr.cigar.targetLength();
      const std::uint64_t qc = wr.cigar.queryLength();
      if (tc == 0 && qc == 0) {
        finishFail(r);  // defensive: no progress
        continue;
      }
      out.cigar.append(wr.cigar);
      m.ti += tc;
      m.qi += qc;
    }
  }
}

void alignWindowedBatch(simd::SimdBatchSolver& solver, const WindowConfig& cfg,
                        const BatchedAlignRequest* requests, std::size_t count,
                        common::AlignmentResult* results) {
  WindowedBatchScratch scratch;
  alignWindowedBatch(solver, cfg, requests, count, results, scratch);
}

int distanceWindowedImproved(std::string_view target, std::string_view query,
                             const WindowConfig& cfg,
                             const ImprovedOptions& opts, int cap,
                             util::MemStats* stats) {
  const int nw = bitvector::wordsNeeded(cfg.window);
  auto run = [&](auto counter) -> int {
    switch (nw) {
      case 1:
        return runImprovedDistance<1>(target, query, cfg, opts, cap, counter);
      case 2:
        return runImprovedDistance<2>(target, query, cfg, opts, cap, counter);
      case 3:
        return runImprovedDistance<3>(target, query, cfg, opts, cap, counter);
      case 4:
        return runImprovedDistance<4>(target, query, cfg, opts, cap, counter);
      default:
        return runImprovedDistance<8>(target, query, cfg, opts, cap, counter);
    }
  };
  if (stats) return run(util::CountingMemCounter(*stats));
  return run(util::NullMemCounter{});
}

}  // namespace gx::core
