#pragma once
// Nucleotide sequence utilities shared by every subsystem: the ACGT
// alphabet, 2-bit encoding/packing, reverse/complement, and random
// sequence helpers used in tests.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "genasmx/util/prng.hpp"

namespace gx::common {

inline constexpr int kAlphabetSize = 4;
inline constexpr char kBases[kAlphabetSize + 1] = "ACGT";

namespace detail {
/// baseCode's lookup table, indexed by the unsigned byte value. A table
/// rather than a switch: callers decode random DNA, where a switch's
/// branches mispredict on almost every base.
inline constexpr std::array<std::uint8_t, 256> kBaseCodeTable = [] {
  std::array<std::uint8_t, 256> t{};  // everything else folds to 0
  t['C'] = t['c'] = 1;
  t['G'] = t['g'] = 2;
  t['T'] = t['t'] = 3;
  return t;
}();
}  // namespace detail

/// Map ACGT (case-insensitive) to 0..3. Any other byte (incl. N, NUL and
/// bytes >= 0x80) maps to 0; alignment semantics treat it as 'A'.
/// Branch-free: one load from a 256-entry constexpr table.
[[nodiscard]] constexpr std::uint8_t baseCode(char c) noexcept {
  return detail::kBaseCodeTable[static_cast<unsigned char>(c)];
}

[[nodiscard]] constexpr char codeBase(std::uint8_t code) noexcept {
  return kBases[code & 3u];
}

[[nodiscard]] constexpr char complement(char c) noexcept {
  switch (c) {
    case 'A': case 'a': return 'T';
    case 'C': case 'c': return 'G';
    case 'G': case 'g': return 'C';
    case 'T': case 't': return 'A';
    default: return 'A';
  }
}

/// Reverse a sequence (no complement). GenASM runs its automaton on
/// reversed windows so traceback emits operations front-to-back.
[[nodiscard]] std::string reversed(std::string_view s);

/// Reverse `src` into `dst` with a single reverse-copy pass, reusing
/// dst's capacity. The windowed hot loop reverses two buffers per window;
/// steady state this allocates nothing.
inline void reverseInto(std::string& dst, std::string_view src) {
  dst.resize(src.size());
  for (std::size_t j = 0; j < src.size(); ++j) {
    dst[j] = src[src.size() - 1 - j];
  }
}

/// Reverse complement (for minus-strand mapping): complement() of every
/// byte, in reverse order. One table load per base into an output sized
/// once.
[[nodiscard]] std::string reverseComplement(std::string_view s);

/// Uniform random ACGT string.
[[nodiscard]] std::string randomSequence(util::Xoshiro256& rng, std::size_t len);

/// Apply `edits` random single-character edits (sub/ins/del mix) to `s`.
/// Used heavily by property tests to build pairs with a known error bound.
[[nodiscard]] std::string mutateSequence(util::Xoshiro256& rng,
                                         std::string_view s, std::size_t edits);

/// 2-bit packed immutable sequence; 32 bases per 64-bit word. The mapper
/// indexes multi-megabase genomes through this to stay cache-friendly.
class PackedSequence {
 public:
  PackedSequence() = default;
  explicit PackedSequence(std::string_view s);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] std::uint8_t code(std::size_t i) const noexcept {
    return static_cast<std::uint8_t>((words_[i >> 5] >> ((i & 31) * 2)) & 3u);
  }
  [[nodiscard]] char at(std::size_t i) const noexcept {
    return codeBase(code(i));
  }

  /// Decode [pos, pos+len) back to an ACGT string (clamped to size()).
  [[nodiscard]] std::string decode(std::size_t pos, std::size_t len) const;

  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace gx::common
