#pragma once
// The one fill-kernel body behind every ISA level (see kernels.hpp for
// the recurrence and layout), and the level loop around it. Each
// kernels_<isa>.cpp defines a file-local ops trait and builds its tables
// with makeFillTable<Ops> and makeLevelTable<Ops>:
//
//   struct Ops {
//     using V = <register type>;
//     static constexpr int kLanes = <64-bit lanes per register>;
//     static V load(const std::uint64_t*);       // unaligned
//     static void store(std::uint64_t*, V);      // unaligned
//     static V or_(V, V);
//     static V orAnd(V x, V y, V z);  // (x | y) & z
//     static V shl1(V);     // each 64-bit lane << 1 (x + x is fine)
//     static V top(V);      // each 64-bit lane >> 63
//     static V set1(std::uint64_t);
//   };
//
// The trait lives in an anonymous namespace, so every instantiation has
// internal linkage and stays inside the TU compiled with its ISA flags.
//
// Register carrying: with NW a compile-time constant the word loops
// unroll, and c[] (cur[i-1]) and q[] (the previous level's term for
// column i) live in registers across columns, as do the cross-word
// shift carries. With sp_i = shl1(prev[i]) word by word and c_x the
// carry into a word (the next-lower word's top bit of x; 0 into word 0,
// where the shift-in bit is 0), the d > 0 recurrence factors as
//   q_i    = (sp_{i-1} | c_prev[i-1]) & prev[i-1]
//   cur[i] = (shl1(cur[i-1]) | c_cur[i-1] | pm[i-1])
//            & ((sp_i | c_prev[i]) & q_i)
// so each column loads prev[i] once, each step is one (x | y) & z, and
// the only loop-carried chain is cur[i-1] -> shl1 -> orAnd -> cur[i].
//
// The level loop (fillLevels) adds no per-level scalar work: column 0 is
// nw broadcast stores, and the convergence probe is one gather of every
// lane's probe word with the walk kernel's ops (see walk_kernel.hpp for
// the 0/1 lane-flag idiom). Only a level at which some lane finishes
// drops to scalar code, to record the lane and narrow the active width.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "genasmx/simd/kernels.hpp"

namespace gx::simd::detail {

template <class Ops, int NW>
void fillLevel(const FillArgs& a) {
  using V = typename Ops::V;
  constexpr int L = Ops::kLanes;
  constexpr std::size_t kCol = static_cast<std::size_t>(NW) * L;
  // Locals, not a.*: vector stores may alias anything, so fields read
  // through `a` would be reloaded after every store.
  const int n_max = a.n_max;
  const int d = a.d;
  const V zero = Ops::set1(0);

  V c[NW];  // cur[i-1], word by word
  for (int w = 0; w < NW; ++w) c[w] = Ops::load(a.cur + w * L);
  std::uint64_t* out = a.cur + kCol;
  const std::uint64_t* pm = a.pm;

  if (d == 0) {
    for (int i = 1; i <= n_max; ++i, out += kCol, pm += kCol) {
      V carry = zero;
      for (int w = 0; w < NW; ++w) {
        const V r = Ops::or_(Ops::shl1(c[w]),
                             Ops::or_(carry, Ops::load(pm + w * L)));
        carry = Ops::top(c[w]);
        c[w] = r;
        Ops::store(out + w * L, r);
      }
    }
    return;
  }

  V q[NW];  // shl1(prev[i-1]) & prev[i-1]
  const std::uint64_t* prev = a.prev;
  {
    V carry = zero;
    for (int w = 0; w < NW; ++w) {
      const V p = Ops::load(prev + w * L);
      q[w] = Ops::orAnd(Ops::shl1(p), carry, p);
      carry = Ops::top(p);
    }
  }
  prev += kCol;
  for (int i = 1; i <= n_max; ++i, out += kCol, pm += kCol, prev += kCol) {
    V carry_c = zero;
    V carry_p = zero;
    for (int w = 0; w < NW; ++w) {
      const V p = Ops::load(prev + w * L);  // prev[i]
      const V sp = Ops::shl1(p);
      const V t = Ops::orAnd(sp, carry_p, q[w]);
      // Everything but shl1(c[w]) is off the loop-carried chain.
      const V r = Ops::orAnd(Ops::shl1(c[w]),
                             Ops::or_(carry_c, Ops::load(pm + w * L)), t);
      q[w] = Ops::orAnd(sp, carry_p, p);
      carry_c = Ops::top(c[w]);
      carry_p = Ops::top(p);
      c[w] = r;
      Ops::store(out + w * L, r);
    }
  }
}

/// Word w of BitVec::onesAbove(d): bits [0, d) cleared, the rest set.
constexpr std::uint64_t onesAboveWord(int d, int w) noexcept {
  const int lo = w * 64;
  if (d <= lo) return ~0ULL;
  if (d >= lo + 64) return 0;
  return ~0ULL << (d - lo);
}

template <class Ops, int NW>
int fillLevels(const LevelArgs& a) {
  using V = typename Ops::V;
  constexpr int L = Ops::kLanes;
  LevelLanes& s = *a.lanes;
  const std::uint64_t row_words = a.row_words;
  const V probe = Ops::load(s.probe);
  const V bit = Ops::load(s.bit);
  const V k = Ops::load(s.k);
  V live = Ops::load(s.live);
  int remaining = s.remaining;
  const auto activeWidth = [&s] {
    std::uint64_t n = 0;
    for (int l = 0; l < L; ++l) {
      if (s.live[l] != 0) n = std::max(n, s.n[l]);
    }
    return static_cast<int>(n);
  };
  int n_act = activeWidth();
  int d = a.d;
  for (; remaining > 0 && d < a.levels; ++d) {
    std::uint64_t* cur = a.rows + static_cast<std::size_t>(d) * row_words;
    for (int w = 0; w < NW; ++w) {
      Ops::store(cur + w * L, Ops::set1(onesAboveWord(d, w)));
    }
    fillLevel<Ops, NW>(
        FillArgs{cur, d > 0 ? cur - row_words : nullptr, a.pm, n_act, d});
    // A live lane stays while bit m - 1 of its column n is set (not
    // converged) and d < k; every probe offset lies inside the row.
    const V unconverged = Ops::srlv(Ops::gather(cur, probe), bit);
    const V below_cap =
        Ops::top(Ops::sub(Ops::set1(static_cast<std::uint64_t>(d)), k));
    const V stay = Ops::and_(Ops::and_(unconverged, below_cap), live);
    const V done = Ops::andnot(stay, live);
    if (!Ops::any(done)) continue;
    alignas(64) std::uint64_t fin[L];
    alignas(64) std::uint64_t unconv[L];
    Ops::store(fin, done);
    Ops::store(unconv, unconverged);
    for (int l = 0; l < L; ++l) {
      if (fin[l] == 0) continue;
      s.live[l] = 0;
      s.dmin[l] = (unconv[l] & 1) != 0 ? -1 : d;
      --remaining;
    }
    live = Ops::load(s.live);
    n_act = activeWidth();
  }
  s.remaining = remaining;
  return d;
}

template <class Ops, std::size_t... I>
constexpr FillTable makeFillTable(std::index_sequence<I...>) {
  return FillTable{&fillLevel<Ops, static_cast<int>(I) + 1>...};
}

/// Entry nw - 1 is fillLevel<Ops, nw>.
template <class Ops>
constexpr FillTable makeFillTable() {
  return makeFillTable<Ops>(std::make_index_sequence<kMaxFillWords>{});
}

template <class Ops, std::size_t... I>
constexpr LevelTable makeLevelTable(std::index_sequence<I...>) {
  return LevelTable{&fillLevels<Ops, static_cast<int>(I) + 1>...};
}

/// Entry nw - 1 is fillLevels<Ops, nw>.
template <class Ops>
constexpr LevelTable makeLevelTable() {
  return makeLevelTable<Ops>(std::make_index_sequence<kMaxFillWords>{});
}

}  // namespace gx::simd::detail
