#pragma once
// Multi-word bitvector engine underpinning both GenASM variants.
//
// GenASM's status bitvectors are *active-low*: bit j == 0 means "the
// pattern prefix of length j+1 is matchable". Merging alternative
// transitions is therefore a bitwise AND, and the pattern masks PM[c]
// carry a 0 exactly where the pattern character equals c.
//
// BitVec<NW> is a fixed-size little-endian array of NW 64-bit words
// (bit j lives in word j/64). NW=1 covers GenASM's default W=64 window;
// larger NW instantiations power the window-size design-space sweep.

#include <array>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "genasmx/common/sequence.hpp"

namespace gx::bitvector {

template <int NW>
struct BitVec {
  static_assert(NW >= 1 && NW <= 8, "supported widths: 64..512 bits");
  static constexpr int kWords = NW;
  static constexpr int kBits = NW * 64;

  std::array<std::uint64_t, NW> w{};  // w[0] holds bits 0..63

  [[nodiscard]] static constexpr BitVec zeros() noexcept { return BitVec{}; }

  [[nodiscard]] static constexpr BitVec allOnes() noexcept {
    BitVec v;
    for (auto& x : v.w) x = ~0ULL;
    return v;
  }

  /// Bits [0, n) cleared, bits [n, kBits) set — the GenASM column-0
  /// initialisation R[0][d] = ~0 << d (n = d zeros at the bottom).
  [[nodiscard]] static constexpr BitVec onesAbove(int n) noexcept {
    BitVec v = allOnes();
    if (n <= 0) return v;
    if (n >= kBits) return zeros();
    const int full = n / 64;
    for (int i = 0; i < full; ++i) v.w[i] = 0;
    const int rem = n % 64;
    if (rem != 0) v.w[full] &= ~0ULL << rem;
    return v;
  }

  [[nodiscard]] constexpr bool bit(int j) const noexcept {
    return (w[j >> 6] >> (j & 63)) & 1ULL;
  }
  constexpr void setBit(int j) noexcept { w[j >> 6] |= 1ULL << (j & 63); }
  constexpr void clearBit(int j) noexcept { w[j >> 6] &= ~(1ULL << (j & 63)); }

  /// Shift left by one, shifting `insert_one ? 1 : 0` into bit 0.
  /// Active-low semantics: inserting 0 models a free empty-prefix state
  /// (semi-global text start); inserting 1 blocks it (global alignment).
  [[nodiscard]] constexpr BitVec shl1(bool insert_one) const noexcept {
    BitVec r;
    std::uint64_t carry = insert_one ? 1ULL : 0ULL;
    for (int i = 0; i < NW; ++i) {
      r.w[i] = (w[i] << 1) | carry;
      carry = w[i] >> 63;
    }
    return r;
  }

  friend constexpr BitVec operator&(const BitVec& a, const BitVec& b) noexcept {
    BitVec r;
    for (int i = 0; i < NW; ++i) r.w[i] = a.w[i] & b.w[i];
    return r;
  }
  friend constexpr BitVec operator|(const BitVec& a, const BitVec& b) noexcept {
    BitVec r;
    for (int i = 0; i < NW; ++i) r.w[i] = a.w[i] | b.w[i];
    return r;
  }
  friend constexpr BitVec operator~(const BitVec& a) noexcept {
    BitVec r;
    for (int i = 0; i < NW; ++i) r.w[i] = ~a.w[i];
    return r;
  }
  friend constexpr bool operator==(const BitVec&, const BitVec&) = default;
};

/// Per-character pattern masks. PM[c] bit j == 0 iff pattern[j] == c.
/// The pattern is taken exactly as passed: GenASM callers pass the
/// *reversed* window so traceback emits operations front-to-back.
template <int NW>
struct PatternMasks {
  std::array<BitVec<NW>, common::kAlphabetSize> pm;

  PatternMasks() {
    for (auto& v : pm) v = BitVec<NW>::allOnes();
  }

  explicit PatternMasks(std::string_view pattern) { assign(pattern); }

  /// Rebuild the masks for a new pattern in place. Solvers keep a
  /// PatternMasks member and call this per window, so the mask table is
  /// constructed into long-lived storage instead of a fresh object.
  void assign(std::string_view pattern) {
    for (auto& v : pm) v = BitVec<NW>::allOnes();
    for (std::size_t j = 0; j < pattern.size() && j < BitVec<NW>::kBits; ++j) {
      pm[common::baseCode(pattern[j])].clearBit(static_cast<int>(j));
    }
  }

  [[nodiscard]] const BitVec<NW>& forChar(char c) const noexcept {
    return pm[common::baseCode(c)];
  }
};

/// Number of 64-bit words needed for a pattern of `len` characters.
[[nodiscard]] int wordsNeeded(int len) noexcept;

/// Run fn with the word count as a std::integral_constant, so a runtime
/// wordsNeeded() value selects the matching solver instantiation. nw is
/// 1..8 (patterns up to 512 characters); anything larger runs NW = 8.
template <class Fn>
decltype(auto) withWidth(int nw, Fn&& fn) {
  switch (nw) {
    case 1: return fn(std::integral_constant<int, 1>{});
    case 2: return fn(std::integral_constant<int, 2>{});
    case 3: return fn(std::integral_constant<int, 3>{});
    case 4: return fn(std::integral_constant<int, 4>{});
    case 5: return fn(std::integral_constant<int, 5>{});
    case 6: return fn(std::integral_constant<int, 6>{});
    case 7: return fn(std::integral_constant<int, 7>{});
    default: return fn(std::integral_constant<int, 8>{});
  }
}

}  // namespace gx::bitvector
