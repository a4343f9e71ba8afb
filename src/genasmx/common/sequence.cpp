#include "genasmx/common/sequence.hpp"

#include <algorithm>
#include <array>

namespace gx::common {
namespace {

/// complement() of every byte value, so reverseComplement is one load
/// per base instead of a switch.
constexpr std::array<char, 256> kComplementTable = [] {
  std::array<char, 256> t{};
  for (int c = 0; c < 256; ++c) t[c] = complement(static_cast<char>(c));
  return t;
}();

}  // namespace

std::string reversed(std::string_view s) {
  return std::string(s.rbegin(), s.rend());
}

std::string reverseComplement(std::string_view s) {
  const std::size_t n = s.size();
  std::string out(n, '\0');
  const char* const src = s.data();
  char* const dst = out.data();
  for (std::size_t j = 0; j < n; ++j) {
    dst[j] = kComplementTable[static_cast<unsigned char>(src[n - 1 - j])];
  }
  return out;
}

std::string randomSequence(util::Xoshiro256& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) c = kBases[rng.below(4)];
  return s;
}

std::string mutateSequence(util::Xoshiro256& rng, std::string_view s,
                           std::size_t edits) {
  std::string out(s);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::uint64_t kind = rng.below(3);
    if (out.empty() || kind == 1) {  // insertion
      const std::size_t pos = rng.below(out.size() + 1);
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                 kBases[rng.below(4)]);
    } else if (kind == 0) {  // substitution (force a different base)
      const std::size_t pos = rng.below(out.size());
      const char old = out[pos];
      char next = old;
      while (next == old) next = kBases[rng.below(4)];
      out[pos] = next;
    } else {  // deletion
      const std::size_t pos = rng.below(out.size());
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }
  return out;
}

PackedSequence::PackedSequence(std::string_view s) : size_(s.size()) {
  words_.assign((size_ + 31) / 32, 0);
  for (std::size_t i = 0; i < size_; ++i) {
    words_[i >> 5] |= static_cast<std::uint64_t>(baseCode(s[i]))
                      << ((i & 31) * 2);
  }
}

std::string PackedSequence::decode(std::size_t pos, std::size_t len) const {
  std::string out;
  if (pos >= size_) return out;
  len = std::min(len, size_ - pos);
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) out.push_back(at(pos + i));
  return out;
}

}  // namespace gx::common
