#pragma once
// Internal contract between SimdBatchSolver and the per-ISA kernels.
// Four kernels run every lane of a group at once: the pack builds the
// group's pattern-mask words from the lanes' bytes, the level loop runs
// the GenASM-DC recurrence one level at a time (each level one fill)
// until every lane has converged or reached its cap, and the walk
// advances the lanes' tracebacks through the interior of the DP table.
// Lane setup, the arena growth between level-loop calls and the
// traceback's edge steps (genasm::walkTraceback) are ISA-independent
// scalar code in batch_solver.cpp.
//
// Memory layout is structure-of-arrays with the lane index innermost:
// word w of column i of lane l lives at row[(i * nw + w) * L + l], so a
// single vector load picks up the same word of all L lanes.
//
// Every kernel is one template (fill_kernel.hpp, pack_kernel.hpp,
// walk_kernel.hpp) instantiated per ISA and, where the word count sets
// the register use, per nw = 1..kMaxFillWords. The left neighbour column
// cur[i-1], the previous level's prev[i-1] term, and the cross-word
// shift carries all stay in registers from one column to the next, so a
// column never reloads what the column before it just stored.

#include <array>
#include <cstdint>

#include "genasmx/simd/dispatch.hpp"

namespace gx::simd::detail {

/// Widest group geometry: 8 x 64 = 512 pattern bits.
inline constexpr int kMaxFillWords = 8;

/// One DP level over columns 1..n_max for all L lanes of a group.
/// Computes, per lane (active-low bitvectors, see genasm_common.hpp):
///   cur[i] = shl1(cur[i-1]) | pm[i-1]                         (d == 0)
///   cur[i] = (shl1(cur[i-1]) | pm[i-1])
///            & shl1(prev[i-1]) & prev[i-1] & shl1(prev[i])   (d > 0)
/// where shl1 shifts in a 0: the StartOnly window, whose empty-prefix
/// state is free at every column (genasm::shiftInOne is false). cur[0]
/// is initialised by the caller (onesAbove(d), lane-uniform). Columns
/// past n_max are neither read from cur nor written.
struct FillArgs {
  std::uint64_t* cur;         ///< (n_max + 1) x nw x L words
  const std::uint64_t* prev;  ///< same layout; unread when d == 0
  const std::uint64_t* pm;    ///< n_max x nw x L pattern-mask words
  int n_max;                  ///< columns 1..n_max are computed
  int d;                      ///< current level
};

using FillFn = void (*)(const FillArgs&);

/// Entry nw - 1 specialised for nw bitvector words.
using FillTable = std::array<FillFn, kMaxFillWords>;

/// Widest register: 8 x 64-bit lanes (AVX-512).
inline constexpr int kMaxLanes = 8;

/// Per-lane state of the level loop, lane index innermost (entries past
/// the group's L are unused). A lane converges at level d when bit m - 1
/// of its column n is 0 (the probe), and fails when it reaches its cap k
/// unconverged.
struct alignas(64) LevelLanes {
  /// In-row offset of the column-n word that holds bit m - 1:
  /// (n * nw + (m - 1) / 64) * L + l (0 for an empty slot).
  std::uint64_t probe[kMaxLanes];
  std::uint64_t bit[kMaxLanes];    ///< (m - 1) & 63
  std::uint64_t k[kMaxLanes];      ///< level cap
  std::uint64_t n[kMaxLanes];      ///< text length (the active width)
  std::uint64_t live[kMaxLanes];   ///< 1 while filling; in/out
  int dmin[kMaxLanes];             ///< out: converged level, -1 at the cap
  int remaining = 0;               ///< live lanes; in/out
};

/// The level loop over one packed group: for d = `d`, d + 1, ... it
/// writes column 0 of level d's row (onesAbove(d), lane-uniform), fills
/// columns 1..n_act (the widest live lane's n) as fillLevel does, and
/// probes every live lane. A lane that converges or reaches its cap
/// leaves `live` with its dmin set; the active width is recomputed only
/// then. The loop returns the next level to fill once no lane is live or
/// the arena's `levels` rows are used up; the caller grows the arena and
/// calls again from there.
struct LevelArgs {
  std::uint64_t* rows;        ///< level d's row at rows + d * row_words
  const std::uint64_t* pm;    ///< n_max x nw x L pattern-mask words
  LevelLanes* lanes;          ///< in/out
  std::uint64_t row_words;    ///< (n_max + 1) x nw x L
  int d;                      ///< first level to fill
  int levels;                 ///< rows the arena holds
};

using LevelFn = int (*)(const LevelArgs&);
using LevelTable = std::array<LevelFn, kMaxFillWords>;

/// One lane's inputs to the pack, original orientation. m == 0 marks an
/// empty or invalid slot: its words are all ones.
struct PackLane {
  const std::uint8_t* text = nullptr;
  const std::uint8_t* pattern = nullptr;
  int n = 0;
  int m = 0;
};

/// The pack: pm[(i-1) x nw x L + w x L + l] = word w of lane l's
/// reversed-pattern mask for the base text[n-i] (active-low: bit j is 0
/// iff pattern[m-1-j] has that base's code), for columns i = 1..n_max.
/// Words of columns past a lane's n, and of pattern words past its m,
/// are all ones. Bytes are coded as common::baseCode does: (b | 0x20)
/// equal to 'c', 'g' or 't' is C, G or T, anything else is A.
struct PackArgs {
  std::uint64_t* pm;          ///< n_max x nw x L words, out
  const PackLane* lanes;      ///< L entries
  int n_max;
};

using PackFn = void (*)(const PackArgs&);
using PackTable = std::array<PackFn, kMaxFillWords>;

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

/// One ISA's kernels. The scalar single-lane set (L = 1) is always
/// built: the portable dispatch target and the reference the vector
/// kernels are checked against. The vector sets are null where the
/// build lacks the instruction set.
struct IsaKernels {
  FillTable fill;
  LevelTable levels;
  PackTable pack;
  WalkFn walk;
};

extern const IsaKernels kScalarKernels;
extern const IsaKernels kSse2Kernels;
extern const IsaKernels kAvx2Kernels;
extern const IsaKernels kAvx512Kernels;

[[nodiscard]] inline const IsaKernels& kernelsFor(IsaLevel isa) noexcept {
  switch (isa) {
    case IsaLevel::Avx512: return kAvx512Kernels;
    case IsaLevel::Avx2: return kAvx2Kernels;
    case IsaLevel::Sse2: return kSse2Kernels;
    default: return kScalarKernels;
  }
}

}  // namespace gx::simd::detail
