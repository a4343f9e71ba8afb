#pragma once
// SimdBatchSolver — lane-parallel batched GenASM kernels.
//
// The paper's central observation is that windowed alignment is a pile
// of small independent bitvector DPs; per-window cost is low, so real
// throughput comes from running many windows at once. This solver packs
// L independent window problems into structure-of-arrays SIMD lanes
// (AVX-512 8x64, AVX2 4x64, SSE2 2x64, scalar 1x64 — see dispatch.hpp)
// and advances every lane through the shared level-major DP loop,
// masking lanes off as they converge or exceed their per-lane edit cap.
//
// Per group, two kernels picked from (ISA, nw) tables do the work that
// precedes the traceback; each is one template instantiated per
// instruction set and per bitvector word count 1..8 (kernels.hpp):
//
//   * The pack (pack_kernel.hpp) turns the lanes' bytes into the
//     per-column pattern-mask words. Vector byte compares classify 64
//     pattern or text bytes at a time ((b | 0x20) equal to 'c', 'g' or
//     't'; every other byte is A, as in common::baseCode). A reversed
//     classification of the pattern gives each lane's four mask words
//     at once, and each column's L words per mask word are one vector
//     select on the lanes' text bitmaps. Padding is all ones: past a
//     lane's own text, and in empty or invalid slots.
//   * The level loop (fill_kernel.hpp, fillLevels) runs the levels
//     until every lane has converged or reached its cap. Each level
//     writes column 0 with broadcast stores, runs the fill kernel over
//     the live lanes' widest text, and probes every lane's convergence
//     bit with one gather; scalar code runs only at the levels where a
//     lane finishes. The fill kernel keeps the left-neighbour column,
//     the previous level's terms and the cross-word shift carries in
//     registers from one column to the next, writes each column once
//     and reads back nothing it wrote. Every level's row is persisted
//     for the walk; the solver grows that arena between level-loop
//     calls, so a warm arena runs a group's levels in one call.
//
// Tracebacks run lane-parallel too. After the fill, one walk kernel
// (walk_kernel.hpp, one template per ISA) advances every lane's
// traceback a committed op per round, gathering the three stored words
// and the match bit each step needs; a group with at most L/4 lanes to
// walk (a vector round costs as much for one lane as for L) runs the
// kernel's 1-lane instance on each of them instead. A lane that reaches
// an edge of the table (i == 0, pl <= 1, its op limit) or finds no
// usable transition resumes from its cursor in the shared
// genasm::walkTraceback, which alone implements those edges. Emitted
// operations therefore equal the scalar solvers' op for op.
//
// One group loop, three outputs. Every entry point orders its problems
// (see packing order below), then per group of up to L lanes packs the
// lanes, runs the level loop, optionally the walk, and finishes each
// lane into its output — all with a hard bit-identical guarantee:
//
//   * solveDistanceBatch — the level loop only: every lane result
//     equals BaselineWindowSolver/ImprovedWindowSolver::solveDistance
//     on the same (reversed) inputs.
//   * solveWindowBatch — fill with per-level row persistence, then the
//     walk with no op output: distance, edit total, and text/pattern
//     consumption are the walk's cursor deltas and match the scalar
//     WindowResult field for field. The windowed *distance* march runs
//     on it.
//   * alignBatch — the same fill and walk, but the walk records each
//     round's op codes and every problem's cigar is built from them as
//     runs appended in bulk (common::Cigar::appendRuns, one merge check
//     and one totals update per window), so outs[i] mirrors the scalar
//     solver's solve() (WindowResult) exactly. The batched *alignment*
//     march runs on it.
//
// Every problem is a StartOnly window (original text start anchored, end
// free), the one mode the windowed march solves; the entry points keep
// an Anchor parameter and throw std::invalid_argument for any other.
// Inputs are taken in ORIGINAL orientation; the solver indexes them
// reversed internally (text_rev[i-1] == text[n-i]), so callers skip the
// per-problem reversal copies the scalar path pays.
//
// Packing order (on by default, setShapeSort): a group's geometry pads
// every lane to the widest member's pattern words and text length, and
// its level loop runs until the slowest lane finishes. The solver
// therefore packs lanes in a deterministic index sort by (pattern words,
// text length, level hint, edit budget) — the level hint being the
// caller's guess of the lane's d_min, see WindowProblem — and scatters
// results back to input positions. Per-lane results are unchanged by
// construction: a lane's DP columns and traceback reads never touch
// another lane's words, and group geometry only pads. Occupancy and
// level divergence are tracked in stats() so the perf harness can
// report them with and without the sort.
//
// Instances own monotone scratch arenas and are not thread-safe: keep
// one per worker (the engine's aligners each hold one). scratchAllocs()
// counts arena growth events — steady-state batches over a stable
// geometry must not advance it (the bench asserts this).

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "genasmx/genasm/genasm_common.hpp"
#include "genasmx/simd/dispatch.hpp"
#include "genasmx/simd/kernels.hpp"

namespace gx::simd {

/// One window problem, original orientation. max_edits is the per-lane
/// level cap (-1 = the always-solvable autoEditCap); tb_op_limit bounds
/// the traceback (ignored by solveDistanceBatch). level_hint is a
/// packing hint only — an expected d_min, -1 when unknown; the windowed
/// marches pass the request's previous window's d_min. It orders lanes
/// and never changes a result.
struct WindowProblem {
  std::string_view text;
  std::string_view pattern;
  int max_edits = -1;
  int tb_op_limit = -1;
  int level_hint = -1;
};

/// solveWindowBatch outcome: the WindowResult-derived values the
/// windowed distance march consumes. `edits`/`text_consumed`/
/// `pattern_consumed` are the committed cigar's editDistance(),
/// targetLength(), and queryLength() (post tb_op_limit truncation).
struct WindowOutcome {
  bool ok = false;
  int distance = -1;
  std::uint64_t edits = 0;
  std::uint64_t text_consumed = 0;
  std::uint64_t pattern_consumed = 0;
};

/// Accumulated lane-packing occupancy. Slot counts say how many lane
/// positions carried a real problem; word counts say how much of the
/// issued per-level fill work was useful (a lane's own pattern words x
/// its own text length) versus the group geometry it was padded to —
/// the figure shape sorting improves on ragged batches. Level counts
/// say the same for the level loop, over valid lanes only: a group runs
/// until its slowest lane converges or fails, so lanes that finish early
/// idle through the rest. useful / issued is the level-divergence
/// efficiency; empty and invalid slots are lanes_filled / lane_slots.
struct BatchStats {
  std::uint64_t groups = 0;
  std::uint64_t lane_slots = 0;    ///< L per group, summed
  std::uint64_t lanes_filled = 0;  ///< slots holding a valid problem
  std::uint64_t packed_words = 0;  ///< group geometry: L x nw x n_max
  std::uint64_t useful_words = 0;  ///< per valid lane: own nw x own n
  /// valid lanes x levels run, per group
  std::uint64_t lane_levels_issued = 0;
  /// per valid lane: its own dmin + 1 (k + 1 when it fails)
  std::uint64_t lane_levels_useful = 0;
};

class SimdBatchSolver {
 public:
  /// Unsupported levels are clamped downward (Avx512 -> Avx2 -> Sse2 ->
  /// Scalar).
  explicit SimdBatchSolver(IsaLevel isa = activeIsa());

  [[nodiscard]] IsaLevel isa() const noexcept { return isa_; }
  [[nodiscard]] int lanes() const noexcept { return lanes_; }

  /// Packing-order knob (default on; see the header comment). Results
  /// are bit-identical either way; off exists for the occupancy and
  /// level-divergence A/B in the perf harness and tests.
  void setShapeSort(bool on) noexcept { shape_sort_ = on; }
  [[nodiscard]] bool shapeSort() const noexcept { return shape_sort_; }

  [[nodiscard]] const BatchStats& stats() const noexcept { return stats_; }
  void resetStats() noexcept { stats_ = BatchStats{}; }

  /// Scratch arena growth events since construction; a steady-state
  /// batch over a stable geometry must leave this unchanged.
  [[nodiscard]] std::uint64_t scratchAllocs() const noexcept {
    return scratch_grows_;
  }

  /// results[i] = d_min of problems[i], or -1 when unsolvable within the
  /// cap (or the pattern is empty / beyond 512 characters) — exactly the
  /// scalar solveDistance contract. Any count; lanes are grouped
  /// internally. Each entry point throws std::invalid_argument unless
  /// `anchor` is Anchor::StartOnly.
  void solveDistanceBatch(genasm::Anchor anchor, const WindowProblem* problems,
                          std::size_t count, int* results);

  /// outs[i] mirrors the scalar window solve of problems[i] (see
  /// WindowOutcome). Any count.
  void solveWindowBatch(genasm::Anchor anchor, const WindowProblem* problems,
                        std::size_t count, WindowOutcome* outs);

  /// outs[i] mirrors the scalar solver's solve() of problems[i]: ok,
  /// distance, cigar (truncated to tb_op_limit), traceback_complete.
  /// Each out is reset in place, preserving its cigar capacity, so
  /// callers reusing an outs arena across batches allocate nothing at
  /// steady state. Any count.
  void alignBatch(genasm::Anchor anchor, const WindowProblem* problems,
                  std::size_t count, genasm::WindowResult* outs);

 private:
  struct Lane {
    int n = 0;
    int m = 0;
    int k = 0;
    int dmin = -1;
    bool valid = false;
    std::uint64_t tb_budget = 0;  ///< walk kernel op budget (see runWalk)
    const WindowProblem* prob = nullptr;
  };

  /// Packing-order sort entry: the precomputed shape key and the input
  /// position that breaks ties.
  struct OrderKey {
    std::uint64_t key = 0;
    std::size_t idx = 0;
  };

  /// Arena growth with the instance's alloc-event accounting.
  template <class T>
  void ensureScratch(std::vector<T>& buf, std::size_t n) {
    if (buf.capacity() < n) ++scratch_grows_;
    if (buf.size() < n) buf.resize(n);
  }

  /// Fill order_[0..count): identity, or the deterministic packing sort
  /// (descending pattern words / text length / level hint / edit budget,
  /// input order breaking ties — equivalent to a stable sort, without
  /// its per-call temporary buffer).
  void prepareOrder(const WindowProblem* problems, std::size_t count);

  /// Decode a group of <= lanes_ problems (problems[order[0..group)]),
  /// pick the group geometry (nw = words covering the widest pattern,
  /// n_max), run the pack kernel for the per-column pattern-mask words,
  /// and record occupancy. Returns the number of valid lanes.
  int packGroup(const WindowProblem* problems, const std::size_t* order,
                std::size_t group, int& nw, int& n_max);

  /// Level-major lane-parallel fill of one packed group through the
  /// level-loop kernel, masking lanes off as they converge or reach
  /// their cap. Every level's row is kept in rows_ for the walk.
  void runFill(int nw, int n_max, int valid);

  /// The walk kernel over one filled group: every solved lane's interior
  /// traceback, its end cursor left in walk_. With `record_ops`, each
  /// round's op codes land in tb_ops_ (round-major, L per round) and
  /// tb_runs_ is sized for one lane's run-length encoding of them.
  void runWalk(int nw, int n_max, bool record_ops);

  /// Append lane `lane_idx`'s first `ops` recorded op codes to `cigar`
  /// as runs of equal codes, in one bulk append.
  void pushLaneOps(int lane_idx, std::uint64_t ops, common::Cigar& cigar);

  /// The group loop behind all three entry points: prepareOrder, then
  /// per group of <= L lanes packGroup, runFill, runWalk (when `walk`,
  /// recording op codes when `record_ops`), and finish(out_index, lane, lane_idx, nw, n_max) on
  /// each of the group's lanes, valid or not.
  template <class Finish>
  void runGroups(const WindowProblem* problems, std::size_t count, bool walk,
                 bool record_ops, Finish&& finish);

  /// Lane `lane_idx`'s cursor after runWalk.
  [[nodiscard]] genasm::TbCursor walkCursor(const Lane& lane,
                                            int lane_idx) const noexcept;

  /// The edge finisher: genasm::walkTraceback resumed from `cur` with
  /// the lane probe (stored-bit reads of the persisted SoA rows). Emit
  /// receives the committed operations past the kernel's.
  template <class Emit>
  [[nodiscard]] genasm::TbStatus finishLane(const Lane& lane, int lane_idx,
                                            genasm::TbCursor& cur, int nw,
                                            int n_max, Emit&& emit) const;

  IsaLevel isa_;
  int lanes_;
  const detail::IsaKernels* kernels_;  ///< this ISA's kernels
  bool shape_sort_ = true;
  BatchStats stats_;
  std::uint64_t scratch_grows_ = 0;
  std::vector<Lane> lane_state_;
  std::vector<OrderKey> keys_;        ///< packing-sort scratch
  std::vector<std::size_t> order_;    ///< packing order (see prepareOrder)
  std::vector<std::uint64_t> pm_;     ///< n_max x nw x L mask words
  std::vector<std::uint64_t> rows_;   ///< per-level persisted rows
  std::vector<std::uint64_t> tb_ops_;     ///< walk op codes, round-major
  std::vector<common::CigarUnit> tb_runs_;  ///< one lane's op runs
  std::array<detail::PackLane, detail::kMaxLanes> pack_{};  ///< pack inputs
  detail::LevelLanes level_{};        ///< level-loop lane state
  detail::WalkLanes walk_{};          ///< walk kernel cursors
};

}  // namespace gx::simd
