#pragma once
// GenASM windowed (tiled) alignment of arbitrarily long sequences.
//
// Long reads are aligned in windows of W pattern characters against W
// text characters. Each window is solved with a free original-text end
// (lookahead); only the first W-O traceback operations are committed,
// the cursors advance by what those operations consumed, and the next
// window starts there. The final window (<= W remaining pattern
// characters) is solved fully globally so the overall alignment consumes
// both sequences exactly.
//
// This driver is generic over the window solver, so the unimproved
// baseline and the improved algorithm share identical windowing logic —
// the measured differences (E1-E5) come from the solvers alone.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "genasmx/common/cigar.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/core/genasm_improved.hpp"
#include "genasmx/genasm/genasm_baseline.hpp"
#include "genasmx/simd/batch_solver.hpp"
#include "genasmx/util/mem_stats.hpp"

namespace gx::core {

struct WindowConfig {
  int window = 64;    ///< W: pattern characters per window
  int overlap = 24;   ///< O: trailing traceback ops discarded per window
  int max_edits = -1; ///< per-window level cap; -1 = always-solvable cap
  /// Extra text characters per window beyond the pattern window; -1
  /// selects window/2. The slack matters: with equal windows, an indel
  /// skew or a candidate start flank forces the true alignment to pay
  /// both the skew *and* a phantom insertion tail inside each window,
  /// at which point a random-DNA scatter path (~0.47 edits/char) can
  /// win d_min and permanently derail the stitching.
  int lookahead = -1;

  [[nodiscard]] int textWindow() const noexcept {
    return window + (lookahead >= 0 ? lookahead : window / 2);
  }

  void validate() const {
    if (window < 2 || window > 512) {
      throw std::invalid_argument("WindowConfig: window must be in [2,512]");
    }
    if (overlap < 1 || overlap >= window) {
      throw std::invalid_argument(
          "WindowConfig: overlap must be in [1, window)");
    }
    if (lookahead > 4 * window) {
      throw std::invalid_argument(
          "WindowConfig: lookahead must be <= 4*window");
    }
  }
};

/// Reusable per-worker state for the windowed drivers: the two reversal
/// buffers and the per-window result (cigar capacity included). Owned by
/// the caller (the engine's aligner instances keep one each), so a long
/// read — and every read after it — runs the window loop with zero
/// steady-state allocations.
struct WindowBuffers {
  std::string t_rev, q_rev;
  genasm::WindowResult wr;
};

/// Align query against target using `solver` for each window.
/// Solver must provide solve(text_rev, pattern_rev, spec, out, counter)
/// handling patterns up to cfg.window characters.
template <class Solver, class Counter = util::NullMemCounter>
common::AlignmentResult alignWindowed(Solver& solver, std::string_view target,
                                      std::string_view query,
                                      const WindowConfig& cfg,
                                      WindowBuffers& bufs,
                                      Counter counter = Counter{}) {
  cfg.validate();
  common::AlignmentResult out;
  const std::size_t W = static_cast<std::size_t>(cfg.window);
  std::size_t ti = 0;
  std::size_t qi = 0;

  std::string& t_rev = bufs.t_rev;
  std::string& q_rev = bufs.q_rev;
  genasm::WindowResult& wr = bufs.wr;

  // Window specs are loop-invariant; build them once.
  genasm::WindowSpec mid_spec;
  mid_spec.anchor = genasm::Anchor::StartOnly;
  mid_spec.max_edits = cfg.max_edits;
  mid_spec.tb_op_limit = cfg.window - cfg.overlap;
  genasm::WindowSpec final_spec;
  final_spec.anchor = genasm::Anchor::StartOnly;
  final_spec.max_edits = cfg.max_edits;

  while (true) {
    const std::size_t rem_t = target.size() - ti;
    const std::size_t rem_q = query.size() - qi;
    if (rem_q == 0) {
      if (rem_t > 0) {
        out.cigar.push(common::EditOp::Deletion,
                       static_cast<std::uint32_t>(rem_t));
      }
      break;
    }
    if (rem_t == 0) {
      out.cigar.push(common::EditOp::Insertion,
                     static_cast<std::uint32_t>(rem_q));
      break;
    }

    if (rem_q <= W) {
      // Final window: the remaining pattern against a text tail, solved
      // in the same free-text-end mode as mid-read windows so the DP
      // working set stays steady-state sized (k <= W levels; a fully
      // global final solve would need k up to n+m). The pattern is fully
      // consumed; whatever text the traceback leaves unconsumed becomes
      // trailing deletions, which is also where a global alignment would
      // spend them on well-sized candidates.
      const std::size_t tw_len =
          std::min(rem_t, rem_q + static_cast<std::size_t>(
                                      cfg.textWindow() - cfg.window));
      common::reverseInto(t_rev, target.substr(ti, tw_len));
      common::reverseInto(q_rev, query.substr(qi, rem_q));
      solver.solve(t_rev, q_rev, final_spec, wr, counter);
      if (!wr.ok) return out;  // out.ok == false
      out.cigar.append(wr.cigar);
      const std::uint64_t consumed = wr.cigar.targetLength();
      if (consumed < rem_t) {
        out.cigar.push(common::EditOp::Deletion,
                       static_cast<std::uint32_t>(rem_t - consumed));
      }
      break;
    }

    // Mid-read window.
    const std::size_t tw_len =
        std::min(rem_t, static_cast<std::size_t>(cfg.textWindow()));
    common::reverseInto(t_rev, target.substr(ti, tw_len));
    common::reverseInto(q_rev, query.substr(qi, W));
    solver.solve(t_rev, q_rev, mid_spec, wr, counter);
    if (!wr.ok) return out;
    const std::uint64_t tc = wr.cigar.targetLength();
    const std::uint64_t qc = wr.cigar.queryLength();
    if (tc == 0 && qc == 0) return out;  // defensive: no progress
    out.cigar.append(wr.cigar);
    ti += tc;
    qi += qc;
  }

  out.ok = true;
  out.edit_distance = static_cast<int>(out.cigar.editDistance());
  out.score = -out.edit_distance;
  return out;
}

/// Convenience overload with driver-local buffers (tests, one-shot use).
template <class Solver, class Counter = util::NullMemCounter>
common::AlignmentResult alignWindowed(Solver& solver, std::string_view target,
                                      std::string_view query,
                                      const WindowConfig& cfg,
                                      Counter counter = Counter{}) {
  WindowBuffers bufs;
  return alignWindowed(solver, target, query, cfg, bufs, counter);
}

/// Windowed edit distance with an exact result cap. Mirrors
/// alignWindowed() window for window — the per-window solves and their
/// tracebacks are identical (the windowing heuristic needs each window's
/// committed operations to advance its cursors), only the output cigar is
/// never accumulated. `cap` makes candidate scoring cheap: edits only
/// accumulate, so the march aborts as soon as the committed total
/// provably exceeds the cap. Returns the distance alignWindowed()'s
/// result would report when it is <= cap (or cap < 0), else -1; also -1
/// whenever alignWindowed() would fail (ok == false).
template <class Solver, class Counter = util::NullMemCounter>
int distanceWindowed(Solver& solver, std::string_view target,
                     std::string_view query, const WindowConfig& cfg,
                     int cap, WindowBuffers& bufs,
                     Counter counter = Counter{}) {
  cfg.validate();
  const std::size_t W = static_cast<std::size_t>(cfg.window);
  std::size_t ti = 0;
  std::size_t qi = 0;
  std::uint64_t acc = 0;  // committed edits so far; only ever grows
  const std::uint64_t budget =
      cap < 0 ? ~0ULL : static_cast<std::uint64_t>(cap);

  std::string& t_rev = bufs.t_rev;
  std::string& q_rev = bufs.q_rev;
  genasm::WindowResult& wr = bufs.wr;

  genasm::WindowSpec mid_spec;
  mid_spec.anchor = genasm::Anchor::StartOnly;
  mid_spec.max_edits = cfg.max_edits;
  mid_spec.tb_op_limit = cfg.window - cfg.overlap;
  genasm::WindowSpec final_spec;
  final_spec.anchor = genasm::Anchor::StartOnly;
  final_spec.max_edits = cfg.max_edits;

  while (true) {
    const std::size_t rem_t = target.size() - ti;
    const std::size_t rem_q = query.size() - qi;
    if (rem_q == 0) {
      acc += rem_t;  // trailing deletions
      break;
    }
    if (rem_t == 0) {
      acc += rem_q;  // trailing insertions
      break;
    }

    if (rem_q <= W) {
      const std::size_t tw_len =
          std::min(rem_t, rem_q + static_cast<std::size_t>(
                                      cfg.textWindow() - cfg.window));
      common::reverseInto(t_rev, target.substr(ti, tw_len));
      common::reverseInto(q_rev, query.substr(qi, rem_q));
      solver.solve(t_rev, q_rev, final_spec, wr, counter);
      if (!wr.ok) return -1;
      acc += wr.cigar.editDistance();
      const std::uint64_t consumed = wr.cigar.targetLength();
      if (consumed < rem_t) acc += rem_t - consumed;
      break;
    }

    const std::size_t tw_len =
        std::min(rem_t, static_cast<std::size_t>(cfg.textWindow()));
    common::reverseInto(t_rev, target.substr(ti, tw_len));
    common::reverseInto(q_rev, query.substr(qi, W));
    solver.solve(t_rev, q_rev, mid_spec, wr, counter);
    if (!wr.ok) return -1;
    const std::uint64_t tc = wr.cigar.targetLength();
    const std::uint64_t qc = wr.cigar.queryLength();
    if (tc == 0 && qc == 0) return -1;  // defensive: no progress
    acc += wr.cigar.editDistance();
    if (acc > budget) return -1;  // total >= acc, so the cap is blown
    ti += tc;
    qi += qc;
  }
  if (acc > budget) return -1;
  return static_cast<int>(acc);
}

/// One capped windowed-distance problem for the batched march (original
/// orientation, same semantics as distanceWindowed's arguments).
struct BatchedDistanceRequest {
  std::string_view target;
  std::string_view query;
  int cap = -1;  ///< exact result cap; -1 = uncapped
};

/// One windowed-alignment problem for the batched march (original
/// orientation, same semantics as alignWindowed's arguments).
struct BatchedAlignRequest {
  std::string_view target;
  std::string_view query;
};

/// Reusable arenas for the batched window marches. Owned by the caller
/// (the engine's aligners keep one per worker); a steady-state march
/// over stable batch sizes grows nothing — allocs() counts growth
/// events, mirroring SimdBatchSolver::scratchAllocs(), and the bench
/// asserts both stay flat at steady state.
struct WindowedBatchScratch {
  /// distanceWindowed()/alignWindowed()'s loop locals, one per request.
  struct March {
    std::size_t ti = 0;
    std::size_t qi = 0;
    std::uint64_t acc = 0;
    std::uint64_t budget = ~0ULL;
    bool done = false;
    bool is_final = false;  ///< current window is the final window
    int prev_dmin = -1;     ///< last window's d_min: the packing hint
  };

  std::vector<March> st;
  std::vector<simd::WindowProblem> probs;
  std::vector<simd::WindowOutcome> outs;
  std::vector<genasm::WindowResult> wrs;  ///< cigar capacity persists
  std::vector<std::size_t> lane_req;

  /// Arena growth events since construction.
  [[nodiscard]] std::uint64_t allocs() const noexcept { return grow_events_; }

  /// Grow-only resize with alloc-event accounting (elements beyond a
  /// smaller later batch keep stale state; the marches reset what they
  /// index).
  template <class T>
  void ensure(std::vector<T>& buf, std::size_t n) {
    if (buf.capacity() < n) ++grow_events_;
    if (buf.size() < n) buf.resize(n);
  }

 private:
  std::uint64_t grow_events_ = 0;
};

/// Batched counterpart of distanceWindowed(): marches every request's
/// window chain concurrently, packing the current windows of all live
/// requests into SIMD lanes (the paper's inter-window parallelism —
/// windows of *different* problems run in lock-step lanes; each
/// problem's own windows stay sequential, as the stitching requires).
/// results[i] equals distanceWindowed(solver, target, query, cfg, cap)
/// for both GenASM window solvers: per-window solves are bit-identical
/// (see SimdBatchSolver) and the march logic is the same, so capped
/// kills and no-progress aborts fire at exactly the same windows.
void distanceWindowedBatch(simd::SimdBatchSolver& solver,
                           const WindowConfig& cfg,
                           const BatchedDistanceRequest* requests,
                           std::size_t count, int* results,
                           WindowedBatchScratch& scratch);

/// Convenience overload with march-local scratch (tests, one-shot use).
void distanceWindowedBatch(simd::SimdBatchSolver& solver,
                           const WindowConfig& cfg,
                           const BatchedDistanceRequest* requests,
                           std::size_t count, int* results);

/// Batched counterpart of alignWindowed(): the same lock-step march as
/// distanceWindowedBatch, but each lane's committed window cigars are
/// accumulated, so results[i] — ok, cigar, edit_distance, score — is
/// bit-identical to alignWindowed(solver, target, query, cfg) with the
/// matching scalar solver. Results are reset in place (cigar capacity
/// preserved), so reusing a results arena allocates nothing at steady
/// state.
void alignWindowedBatch(simd::SimdBatchSolver& solver,
                        const WindowConfig& cfg,
                        const BatchedAlignRequest* requests,
                        std::size_t count, common::AlignmentResult* results,
                        WindowedBatchScratch& scratch);

/// Convenience overload with march-local scratch (tests, one-shot use).
void alignWindowedBatch(simd::SimdBatchSolver& solver,
                        const WindowConfig& cfg,
                        const BatchedAlignRequest* requests,
                        std::size_t count, common::AlignmentResult* results);

/// Windowed alignment with the unimproved baseline solver.
[[nodiscard]] common::AlignmentResult alignWindowedBaseline(
    std::string_view target, std::string_view query,
    const WindowConfig& cfg = {}, util::MemStats* stats = nullptr);

/// Windowed alignment with the improved solver (the paper's system).
[[nodiscard]] common::AlignmentResult alignWindowedImproved(
    std::string_view target, std::string_view query,
    const WindowConfig& cfg = {}, const ImprovedOptions& opts = {},
    util::MemStats* stats = nullptr);

/// Capped windowed distance with the baseline solver.
[[nodiscard]] int distanceWindowedBaseline(std::string_view target,
                                           std::string_view query,
                                           const WindowConfig& cfg = {},
                                           int cap = -1,
                                           util::MemStats* stats = nullptr);

/// Capped windowed distance with the improved solver.
[[nodiscard]] int distanceWindowedImproved(std::string_view target,
                                           std::string_view query,
                                           const WindowConfig& cfg = {},
                                           const ImprovedOptions& opts = {},
                                           int cap = -1,
                                           util::MemStats* stats = nullptr);

}  // namespace gx::core
