#pragma once
// Internal contract between SimdBatchSolver and the per-ISA kernels.
// Two kernels run every lane of a group at once: the fill advances one
// level of the GenASM-DC recurrence, and the walk advances the lanes'
// tracebacks through the interior of the DP table. Pattern-mask
// packing, lane bookkeeping, convergence checks and the traceback's
// edge steps (genasm::walkTraceback) are ISA-independent scalar code in
// batch_solver.cpp.
//
// Memory layout is structure-of-arrays with the lane index innermost:
// word w of column i of lane l lives at row[(i * nw + w) * L + l], so a
// single vector load picks up the same word of all L lanes.
//
// Every kernel is one template (fill_kernel.hpp) instantiated per ISA
// and per word count nw = 1..kMaxFillWords. The left neighbour column
// cur[i-1], the previous level's prev[i-1] term, and the cross-word
// shift carries all stay in registers from one column to the next, so a
// column never reloads what the column before it just stored.

#include <array>
#include <cstdint>

namespace gx::simd::detail {

/// Widest group geometry: 8 x 64 = 512 pattern bits.
inline constexpr int kMaxFillWords = 8;

/// One DP level over columns 1..n_max for all L lanes of a group.
/// Computes, per lane (active-low bitvectors, see genasm_common.hpp):
///   cur[i] = shl1(cur[i-1], s(i-1, d)) | pm[i-1]            (d == 0)
///   cur[i] = (shl1(cur[i-1], s(i-1, d)) | pm[i-1])
///            & shl1(prev[i-1], s(i-1, d-1)) & prev[i-1]
///            & shl1(prev[i], s(i, d-1))                     (d > 0)
/// where s(i, d) = shiftInOne(anchor, i, d) is lane-uniform. cur[0] is
/// initialised by the caller (onesAbove(d), also lane-uniform). Columns
/// past n_max are neither read from cur nor written.
struct FillArgs {
  std::uint64_t* cur;         ///< (n_max + 1) x nw x L words
  const std::uint64_t* prev;  ///< same layout; unread when d == 0
  const std::uint64_t* pm;    ///< n_max x nw x L pattern-mask words
  int n_max;                  ///< columns 1..n_max are computed
  int d;                      ///< current level
  bool both_ends;             ///< Anchor::BothEnds (s() non-zero)
};

using FillFn = void (*)(const FillArgs&);

/// One ISA's kernels, entry nw - 1 specialised for nw bitvector words.
using FillTable = std::array<FillFn, kMaxFillWords>;

/// Widest register: 8 x 64-bit lanes (AVX-512).
inline constexpr int kMaxLanes = 8;

/// Per-lane traceback cursors for the walk kernel, lane index innermost
/// (entries past the group's L are unused). `col` and `lvl` are running
/// word offsets — (i - 1) * nw * L + lane and d * row_words — so the
/// kernel never multiplies.
struct alignas(64) WalkLanes {
  std::uint64_t i[kMaxLanes];    ///< text columns left
  std::uint64_t pl[kMaxLanes];   ///< matched pattern prefix length
  std::uint64_t d[kMaxLanes];    ///< current level
  std::uint64_t rem[kMaxLanes];  ///< op budget left; 0 = not walking
  std::uint64_t col[kMaxLanes];
  std::uint64_t lvl[kMaxLanes];
};

/// The lane-parallel traceback over a filled, persisted group. Each
/// round commits one operation on every lane still in the interior —
/// i >= 1, pl >= 2, rem > 0 — reading R[i-1][d], R[i-1][d-1] and
/// R[i][d-1] from `rows` and the match bit from `pm`, and applying
/// walkTraceback's match > del > ins > sub priority. A lane leaves the
/// interior for good; one with no usable transition stops where it is
/// (walkTraceback reports it Bad). On return i, pl, d and rem hold
/// where each lane stopped. With `ops` set, round r's op codes go to
/// ops[r * L] onwards, one per walked lane: i-step | pl-step << 1 |
/// d-step << 2, i.e. 3 match, 5 deletion, 6 insertion, 7 mismatch.
/// A kernel walks its register width of lanes from `lane0`, so the
/// 1-lane instance can walk a single lane of a wider group.
struct WalkArgs {
  const std::uint64_t* rows;  ///< levels 0..max dmin, row_words apart
  const std::uint64_t* pm;    ///< n_max x nw x L pattern-mask words
  std::uint64_t* ops;         ///< lane lane0 of max rem x L codes, or null
  WalkLanes* lanes;           ///< in/out
  std::uint64_t row_words;    ///< (n_max + 1) x nw x L
  std::uint64_t col_words;    ///< nw x L
  int lane_shift;             ///< log2 L of the group's layout
  int lane0;                  ///< first lane walked
};

using WalkFn = void (*)(const WalkArgs&);

/// Scalar single-lane kernels (always available, L = 1): the portable
/// dispatch target and the reference the vector kernels are checked
/// against.
extern const FillTable kFillScalar;
extern const WalkFn kWalkScalar;
/// Vector kernels; nullptr where the build lacks the instruction set.
extern const FillTable kFillSse2;
extern const FillTable kFillAvx2;
extern const FillTable kFillAvx512;
extern const WalkFn kWalkSse2;
extern const WalkFn kWalkAvx2;
extern const WalkFn kWalkAvx512;

}  // namespace gx::simd::detail
