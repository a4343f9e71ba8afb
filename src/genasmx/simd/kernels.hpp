#pragma once
// Internal contract between SimdBatchSolver and the per-ISA fill
// kernels. One level of the GenASM-DC recurrence is advanced for every
// lane of a group at once; everything else (pattern-mask packing, lane
// bookkeeping, convergence checks, traceback) is ISA-independent scalar
// code in batch_solver.cpp.
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

/// Scalar single-lane kernels (always available, L = 1): the portable
/// dispatch target and the reference the vector kernels are checked
/// against.
extern const FillTable kFillScalar;
/// Vector kernels; all entries nullptr where the build lacks the
/// instruction set.
extern const FillTable kFillSse2;
extern const FillTable kFillAvx2;
extern const FillTable kFillAvx512;

}  // namespace gx::simd::detail
