#pragma once
// GenASM windowed (tiled) alignment of arbitrarily long sequences.
//
// Long reads are aligned in windows of W pattern characters against
// W + lookahead text characters. Each window is solved with a free
// original-text end; only the first W-O traceback operations are
// committed, the cursors advance by what those operations consumed, and
// the next window starts there. The final window (<= W remaining pattern
// characters) commits everything; the text it leaves unconsumed becomes
// trailing deletions.
//
// One march, two drivers. WindowMarch<Out> holds these rules for one
// request: next() maps its cursors to the next window, commit() applies
// a solved one. The output policy is CigarOut (accumulate the committed
// CIGAR) or CappedEdits (count edits; kill the march once they exceed a
// cap). The march sees each solved window as a simd::WindowOutcome, so
// it cannot tell which solver produced it:
//
//   * the scalar driver (alignWindowed, distanceWindowed) solves one
//     request's windows in turn with a scalar window solver — the
//     unimproved baseline or the improved algorithm, which is what the
//     paper-reproduction code, MemStats and the GPU model measure; both
//     share this windowing, so their measured differences (E1-E5) come
//     from the solvers alone;
//   * the batched driver (alignWindowedBatch, distanceWindowedBatch)
//     advances many requests in lock-step, one window each per sweep,
//     packed into SimdBatchSolver lanes — the serving path.
//
// Per-window solves are bit-identical across all three solvers, so every
// driver gives the same result for the same request.

#include <algorithm>
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

/// Output policy: the committed window CIGARs accumulate into an
/// AlignmentResult, reset in place on construction (cigar capacity kept).
/// A failed march leaves ok == false with the partial cigar standing.
class CigarOut {
 public:
  static constexpr bool kCigar = true;

  CigarOut() = default;
  explicit CigarOut(common::AlignmentResult& res) noexcept : res_(&res) {
    genasm::resetAlignment(res);
  }

  bool commit(const simd::WindowOutcome&, const common::Cigar* cigar) {
    res_->cigar.append(*cigar);
    return true;
  }
  void tail(common::EditOp op, std::uint64_t n) {
    if (n > 0) res_->cigar.push(op, static_cast<std::uint32_t>(n));
  }
  void finish(bool ok) noexcept {
    if (!ok) return;
    res_->ok = true;
    res_->edit_distance = static_cast<int>(res_->cigar.editDistance());
    res_->score = -res_->edit_distance;
  }

 private:
  common::AlignmentResult* res_ = nullptr;
};

/// Output policy: committed edits accumulate and only ever grow, so the
/// march is killed as soon as they exceed `cap` (-1 = uncapped). The
/// result is the total, or -1 when it exceeds the cap or the march fails.
class CappedEdits {
 public:
  static constexpr bool kCigar = false;

  CappedEdits() = default;
  CappedEdits(int cap, int& result) noexcept
      : budget_(cap < 0 ? ~0ULL : static_cast<std::uint64_t>(cap)),
        res_(&result) {}

  bool commit(const simd::WindowOutcome& o, const common::Cigar*) noexcept {
    acc_ += o.edits;
    return acc_ <= budget_;
  }
  void tail(common::EditOp, std::uint64_t n) noexcept { acc_ += n; }
  void finish(bool ok) noexcept {
    *res_ = ok && acc_ <= budget_ ? static_cast<int>(acc_) : -1;
  }

 private:
  std::uint64_t acc_ = 0;
  std::uint64_t budget_ = ~0ULL;
  int* res_ = nullptr;
};

/// A solved window as the march consumes it: the WindowOutcome fields
/// read off a solver's WindowResult.
[[nodiscard]] inline simd::WindowOutcome windowOutcome(
    const genasm::WindowResult& wr) noexcept {
  return {wr.ok, wr.distance, wr.cigar.editDistance(),
          wr.cigar.targetLength(), wr.cigar.queryLength()};
}

/// One request's windowed march: every windowing rule, driver-neutral.
/// A driver alternates next() (solve the window it describes) and
/// commit() (hand back the outcome) until next() returns false; the
/// output policy then holds the result. `cfg` must outlive the march.
template <class Out>
class WindowMarch {
 public:
  WindowMarch() = default;
  WindowMarch(const WindowConfig& cfg, std::string_view target,
              std::string_view query, Out out) noexcept
      : cfg_(&cfg), target_(target), query_(query), out_(out) {}

  /// Describe the next window (original orientation) in `p`; false once
  /// the march is over. An exhausted query ends it with trailing
  /// deletions, an exhausted target with trailing insertions.
  bool next(simd::WindowProblem& p) {
    if (done_) return false;
    const std::size_t rem_t = target_.size() - ti_;
    const std::size_t rem_q = query_.size() - qi_;
    if (rem_q == 0) {
      out_.tail(common::EditOp::Deletion, rem_t);
      stop(true);
      return false;
    }
    if (rem_t == 0) {
      out_.tail(common::EditOp::Insertion, rem_q);
      stop(true);
      return false;
    }
    // The final window takes the rest of the pattern and commits its
    // whole traceback; a mid-read window commits the first W-O ops. Both
    // see the pattern plus the lookahead slack of text, with the text end
    // free: that keeps the final solve at k <= W levels, where a fully
    // global one would need up to n + m.
    const std::size_t W = static_cast<std::size_t>(cfg_->window);
    final_ = rem_q <= W;
    const std::size_t pat = final_ ? rem_q : W;
    const std::size_t slack =
        static_cast<std::size_t>(cfg_->textWindow() - cfg_->window);
    p.text = target_.substr(ti_, std::min(rem_t, pat + slack));
    p.pattern = query_.substr(qi_, pat);
    p.max_edits = cfg_->max_edits;
    p.tb_op_limit = final_ ? -1 : cfg_->window - cfg_->overlap;
    // Neighbouring windows of a read see similar error, so the previous
    // d_min is the lane-packing hint.
    p.level_hint = prev_dmin_;
    return true;
  }

  /// Apply the solved window next() described. `cigar` is its committed
  /// CIGAR (read by CigarOut only).
  void commit(const simd::WindowOutcome& o, const common::Cigar* cigar) {
    if (!o.ok) return stop(false);
    prev_dmin_ = o.distance;
    if (!final_ && o.text_consumed == 0 && o.pattern_consumed == 0) {
      return stop(false);  // defensive: no progress
    }
    if (!out_.commit(o, cigar)) return stop(false);  // cap exceeded
    if (final_) {
      const std::size_t rem_t = target_.size() - ti_;
      out_.tail(common::EditOp::Deletion,
                rem_t - std::min<std::uint64_t>(rem_t, o.text_consumed));
      return stop(true);
    }
    ti_ += o.text_consumed;
    qi_ += o.pattern_consumed;
  }

 private:
  void stop(bool ok) {
    done_ = true;
    out_.finish(ok);
  }

  const WindowConfig* cfg_ = nullptr;
  std::string_view target_;
  std::string_view query_;
  Out out_;
  std::size_t ti_ = 0;
  std::size_t qi_ = 0;
  int prev_dmin_ = -1;
  bool final_ = false;
  bool done_ = false;
};

/// Reusable per-worker state for the scalar driver: the two reversal
/// buffers and the per-window result (cigar capacity included). Owned by
/// the caller (the engine's aligner instances keep one each), so a long
/// read — and every read after it — runs the window loop with zero
/// steady-state allocations.
struct WindowBuffers {
  std::string t_rev, q_rev;
  genasm::WindowResult wr;
};

/// The scalar driver: `march`'s windows in turn, each reversed into
/// `bufs` and solved by `solver`, which provides solve(text_rev,
/// pattern_rev, spec, out, counter) for patterns up to cfg.window
/// characters.
template <class Out, class Solver, class Counter>
void marchScalar(Solver& solver, WindowMarch<Out> march, WindowBuffers& bufs,
                 Counter counter) {
  simd::WindowProblem p;
  genasm::WindowSpec spec;  // StartOnly: the free text end is the lookahead
  while (march.next(p)) {
    common::reverseInto(bufs.t_rev, p.text);
    common::reverseInto(bufs.q_rev, p.pattern);
    spec.max_edits = p.max_edits;
    spec.tb_op_limit = p.tb_op_limit;
    solver.solve(bufs.t_rev, bufs.q_rev, spec, bufs.wr, counter);
    march.commit(windowOutcome(bufs.wr), &bufs.wr.cigar);
  }
}

/// Windowed alignment of query against target (scalar driver, CigarOut).
template <class Solver, class Counter = util::NullMemCounter>
common::AlignmentResult alignWindowed(Solver& solver, std::string_view target,
                                      std::string_view query,
                                      const WindowConfig& cfg,
                                      WindowBuffers& bufs,
                                      Counter counter = Counter{}) {
  cfg.validate();
  common::AlignmentResult out;
  marchScalar(solver, WindowMarch(cfg, target, query, CigarOut(out)), bufs,
              counter);
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

/// Windowed edit distance with an exact result cap (scalar driver,
/// CappedEdits): alignWindowed()'s edit distance when it is <= cap (or
/// cap < 0), else -1; also -1 whenever alignWindowed() fails. The window
/// solves and commits are alignWindowed()'s — the cursors advance by each
/// window's committed traceback — but no cigar is accumulated, and the
/// march stops as soon as the committed edits exceed the cap.
template <class Solver, class Counter = util::NullMemCounter>
int distanceWindowed(Solver& solver, std::string_view target,
                     std::string_view query, const WindowConfig& cfg,
                     int cap, WindowBuffers& bufs,
                     Counter counter = Counter{}) {
  cfg.validate();
  int out = -1;
  marchScalar(solver, WindowMarch(cfg, target, query, CappedEdits(cap, out)),
              bufs, counter);
  return out;
}

/// A capped distance problem (original orientation): views into storage
/// the caller keeps alive for the call, and an exact result cap —
/// distances above `cap` report -1 (see engine::Aligner::distance). The
/// batched march and the engine's batch calls take the same type.
struct DistanceTask {
  std::string_view target;
  std::string_view query;
  int cap = -1;  ///< exact result cap; -1 = uncapped
};

/// A full-alignment problem (original orientation), as DistanceTask
/// without the cap. The mapping pipeline aligns candidate windows as
/// views into the reference genome, so a batch never copies reference
/// text.
struct AlignmentTask {
  std::string_view target;  ///< reference window
  std::string_view query;   ///< read, oriented to the mapping strand
};

/// The batched marches' earlier names for the two task types.
using BatchedDistanceRequest = DistanceTask;
using BatchedAlignRequest = AlignmentTask;

/// Reusable arenas for the batched driver. Owned by the caller (the
/// engine's aligners keep one per worker); a steady-state march over
/// stable batch sizes grows nothing — allocs() counts growth events,
/// like SimdBatchSolver::scratchAllocs(), and the bench asserts both stay
/// flat at steady state.
struct WindowedBatchScratch {
  std::vector<WindowMarch<CappedEdits>> distance_marches;
  std::vector<WindowMarch<CigarOut>> align_marches;
  std::vector<simd::WindowProblem> probs;
  std::vector<simd::WindowOutcome> outs;
  std::vector<genasm::WindowResult> wrs;  ///< cigar capacity persists
  std::vector<std::size_t> lane_req;

  /// Arena growth events since construction.
  [[nodiscard]] std::uint64_t allocs() const noexcept { return grow_events_; }

  /// Grow-only resize with alloc-event accounting (elements beyond a
  /// smaller later batch keep stale state; the driver resets what it
  /// indexes).
  template <class T>
  void ensure(std::vector<T>& buf, std::size_t n) {
    if (buf.capacity() < n) ++grow_events_;
    if (buf.size() < n) buf.resize(n);
  }

 private:
  std::uint64_t grow_events_ = 0;
};

/// Batched driver, CappedEdits: results[i] == distanceWindowed(solver,
/// target, query, cfg, cap) for either scalar GenASM solver. Each sweep
/// packs the current window of every live request into SIMD lanes (the
/// paper's inter-window parallelism: windows of *different* problems run
/// in lock-step lanes; each problem's own windows stay sequential, as
/// the stitching requires) and solves them with solveWindowBatch.
void distanceWindowedBatch(simd::SimdBatchSolver& solver,
                           const WindowConfig& cfg,
                           const DistanceTask* requests,
                           std::size_t count, int* results,
                           WindowedBatchScratch& scratch);

/// Convenience overload with march-local scratch (tests, one-shot use).
void distanceWindowedBatch(simd::SimdBatchSolver& solver,
                           const WindowConfig& cfg,
                           const DistanceTask* requests,
                           std::size_t count, int* results);

/// Batched driver, CigarOut: the same sweep, solved with alignBatch, so
/// results[i] — ok, cigar, edit_distance, score — equals
/// alignWindowed(solver, target, query, cfg) for either scalar GenASM
/// solver. Results are reset in place (cigar capacity preserved), so
/// reusing a results arena allocates nothing at steady state.
void alignWindowedBatch(simd::SimdBatchSolver& solver,
                        const WindowConfig& cfg,
                        const AlignmentTask* requests,
                        std::size_t count, common::AlignmentResult* results,
                        WindowedBatchScratch& scratch);

/// Convenience overload with march-local scratch (tests, one-shot use).
void alignWindowedBatch(simd::SimdBatchSolver& solver,
                        const WindowConfig& cfg,
                        const AlignmentTask* requests,
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
