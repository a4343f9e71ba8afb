#pragma once
// The one pack-kernel body behind every ISA level (see kernels.hpp for
// the contract). Each kernels_<isa>.cpp builds its PackTable with
// makePackTable<Ops> over the same file-local ops trait as its fill and
// walk kernels, which for the pack also provides:
//
//   using B = <64 bytes>;
//   static B loadBytes(const std::uint8_t* p, int count);
//       // p[0..count), 1 <= count <= 64; bytes past count unspecified
//       // and never read from memory
//   static B reverseBytes(B);                 // byte b <-> byte 63 - b
//   static std::uint64_t foldedEq(B, char c); // bit b: (byte b | 0x20) == c
//   using M = <lane predicate>;
//   static M topSet(V);                       // lanes with bit 63 set
//   static V select(M m, V a, V b);           // per lane: m ? b : a
//
// (b | 0x20) == 'c', 'g' or 't' holds exactly for the bytes that
// common::baseCode maps to C, G or T, so three folded byte compares
// classify 64 bytes and every other byte value is A.
//
// The pattern side: word w of a lane's reversed-pattern mask covers
// pattern[m-1-64w-j] at bit j, i.e. a byte run taken last to first, so
// one reversed classification yields that word for all four bases at
// once (C, G, T are the complements of their compare bitmaps; A is set
// wherever one of them is, and past m). The text side is classified
// forward, 64 columns at a time, shifted so that the next column's base
// sits at bit 63 of the lane's three bitmaps: per column, three topSet
// tests pick each lane's mask word with a chain of selects, one vector
// store per word.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "genasmx/simd/kernels.hpp"

namespace gx::simd::detail {

/// Bitmaps of the bytes coded C, G and T.
struct ByteClasses {
  std::uint64_t c;
  std::uint64_t g;
  std::uint64_t t;
};

/// Classify p[0..count): bit b looks at byte b, or with `Reversed` at
/// byte 63 - b (so p[count-1-j] lands on bit j + 64 - count).
template <class Ops, bool Reversed>
ByteClasses classifyBytes(const std::uint8_t* p, int count) {
  typename Ops::B b = Ops::loadBytes(p, count);
  if constexpr (Reversed) b = Ops::reverseBytes(b);
  return {Ops::foldedEq(b, 'c'), Ops::foldedEq(b, 'g'),
          Ops::foldedEq(b, 't')};
}

template <class Ops, int NW>
void packLanes(const PackArgs& a) {
  using V = typename Ops::V;
  constexpr int L = Ops::kLanes;
  constexpr std::size_t kCol = static_cast<std::size_t>(NW) * L;
  const PackLane* lanes = a.lanes;
  const int n_max = a.n_max;

  // Every lane's mask words by base code (A C G T) and word, SoA.
  alignas(64) std::uint64_t table[4][NW][L];
  for (int l = 0; l < L; ++l) {
    const PackLane& p = lanes[l];
    for (int w = 0; w < NW; ++w) {
      const int count = std::min(64, p.m - 64 * w);
      if (count <= 0) {
        for (auto& code : table) code[w][l] = ~0ULL;
        continue;
      }
      const ByteClasses k = classifyBytes<Ops, true>(
          p.pattern + (p.m - 64 * w - count), count);
      const int drop = 64 - count;
      const std::uint64_t c = k.c >> drop;
      const std::uint64_t g = k.g >> drop;
      const std::uint64_t t = k.t >> drop;
      table[0][w][l] = c | g | t | (count == 64 ? 0 : ~0ULL << count);
      table[1][w][l] = ~c;
      table[2][w][l] = ~g;
      table[3][w][l] = ~t;
    }
  }
  V mask[4][NW];
  for (int code = 0; code < 4; ++code) {
    for (int w = 0; w < NW; ++w) mask[code][w] = Ops::load(table[code][w]);
  }

  std::uint64_t* out = a.pm;
  for (int base = 0; base < n_max; base += 64) {
    // Columns base+1..base+64: column base+1+q reads text[n-base-1-q],
    // byte count-1-q of the run below, moved to bit 63-q.
    alignas(64) std::uint64_t bits[3][L];
    for (int l = 0; l < L; ++l) {
      const PackLane& p = lanes[l];
      const int count = std::min(64, p.n - base);
      if (p.m == 0 || count <= 0) {
        bits[0][l] = bits[1][l] = bits[2][l] = 0;
        continue;
      }
      const ByteClasses k =
          classifyBytes<Ops, false>(p.text + (p.n - base - count), count);
      const int lift = 64 - count;
      bits[0][l] = k.c << lift;
      bits[1][l] = k.g << lift;
      bits[2][l] = k.t << lift;
    }
    V c = Ops::load(bits[0]);
    V g = Ops::load(bits[1]);
    V t = Ops::load(bits[2]);
    const int cols = std::min(64, n_max - base);
    for (int q = 0; q < cols; ++q, out += kCol) {
      const auto is_c = Ops::topSet(c);
      const auto is_g = Ops::topSet(g);
      const auto is_t = Ops::topSet(t);
      c = Ops::shl1(c);
      g = Ops::shl1(g);
      t = Ops::shl1(t);
      for (int w = 0; w < NW; ++w) {
        const V ac = Ops::select(is_c, mask[0][w], mask[1][w]);
        const V acg = Ops::select(is_g, ac, mask[2][w]);
        Ops::store(out + w * L, Ops::select(is_t, acg, mask[3][w]));
      }
    }
  }

  // A ragged group's lanes read as A past their own text: all ones there.
  for (int l = 0; l < L; ++l) {
    const PackLane& p = lanes[l];
    if (p.m == 0) continue;  // every word is already all ones
    for (int i = p.n + 1; i <= n_max; ++i) {
      std::uint64_t* col = a.pm + static_cast<std::size_t>(i - 1) * kCol + l;
      for (int w = 0; w < NW; ++w) col[w * L] = ~0ULL;
    }
  }
}

template <class Ops, std::size_t... I>
constexpr PackTable makePackTable(std::index_sequence<I...>) {
  return PackTable{&packLanes<Ops, static_cast<int>(I) + 1>...};
}

/// Entry nw - 1 is packLanes<Ops, nw>.
template <class Ops>
constexpr PackTable makePackTable() {
  return makePackTable<Ops>(std::make_index_sequence<kMaxFillWords>{});
}

}  // namespace gx::simd::detail
