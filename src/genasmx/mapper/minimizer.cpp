#include "genasmx/mapper/minimizer.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "genasmx/common/sequence.hpp"

namespace gx::mapper {
namespace {

/// The current k-mer's 2-bit encodings on both strands, rolled one base
/// at a time. `fwd` keeps the bits shifted out above the k-mer and is
/// masked where it is read, so its update is a single shift-or on the
/// loop's dependency chain; `rev` takes the shifted complement code from a
/// table instead of shifting by a variable.
struct KmerRoll {
  explicit KmerRoll(int k) : mask((1ULL << (2 * k)) - 1) {
    for (std::uint64_t c = 0; c < 4; ++c) comp[c] = (3 - c) << (2 * (k - 1));
  }
  void push(char base) {
    const std::uint8_t code = common::baseCode(base);
    fwd = (fwd << 2) | code;
    rev = (rev >> 2) | comp[code];
  }
  /// The hashed canonical key; `reverse` says the reverse strand gave it.
  [[nodiscard]] std::uint64_t key(bool& reverse) const {
    const std::uint64_t f = fwd & mask;
    reverse = rev < f;
    return hash64(reverse ? rev : f);
  }

  std::uint64_t fwd = 0, rev = 0;
  std::uint64_t mask;
  std::array<std::uint64_t, 4> comp{};
};

}  // namespace

std::vector<Minimizer> extractMinimizers(std::string_view seq, int k, int w,
                                         std::size_t emit_from) {
  std::vector<Minimizer> out;
  MinimizerScratch scratch;
  extractMinimizers(seq, k, w, emit_from, out, scratch);
  return out;
}

void extractMinimizers(std::string_view seq, int k, int w,
                       std::size_t emit_from, std::vector<Minimizer>& out,
                       MinimizerScratch& scratch) {
  if (k < 4 || k > 31) throw std::invalid_argument("minimizer: k in [4,31]");
  if (w < 1) throw std::invalid_argument("minimizer: w >= 1");
  out.clear();
  const std::size_t out_cap = out.capacity();
  const std::size_t kz = static_cast<std::size_t>(k);
  const std::size_t wz = static_cast<std::size_t>(w);
  if (seq.size() < kz + wz - 1) return;  // not one full window
  const std::size_t m = seq.size() - kz + 1;  // k-mer count

  if (scratch.slots_ < m) {
    ++scratch.grow_events_;
    scratch.slots_ = m;
    scratch.keys_ = std::make_unique_for_overwrite<std::uint64_t[]>(m);
    scratch.reverse_ = std::make_unique_for_overwrite<std::uint8_t[]>(m);
    scratch.picks_ = std::make_unique_for_overwrite<std::uint32_t[]>(m);
  }
  std::uint64_t* const keys = scratch.keys_.get();
  std::uint8_t* const reverse = scratch.reverse_.get();
  std::uint32_t* const picks = scratch.picks_.get();

  KmerRoll roll(k);
  for (std::size_t i = 0; i + 1 < kz; ++i) roll.push(seq[i]);
  const char* const next = seq.data() + kz - 1;  // completes k-mer `pos`

  // Sliding-window minimum as one running pick (minimap2's scheme): a new
  // k-mer that ranks <= the pick replaces it, and only when the pick
  // slides out of the window is the window rescanned. `<=` in both places
  // makes the pick the *newest* occurrence of the window's minimal key —
  // exactly the pick of the plain O(w) window rescan, which keeps every
  // downstream byte (index, seeding, PAF) identical. On random keys the
  // replacement is a coin flip, so it is a select rather than a branch;
  // only the rarer expiry branches.
  std::uint64_t best_key = ~0ULL;
  std::uint32_t best = 0;
  const auto offer = [&](std::size_t pos) {
    bool rev;
    const std::uint64_t key = roll.key(rev);
    keys[pos] = key;
    reverse[pos] = rev;
    const bool take = key <= best_key;
    best_key = take ? key : best_key;
    best = take ? static_cast<std::uint32_t>(pos) : best;
  };
  std::size_t pos = 0;
  for (; pos + 1 < wz; ++pos) {  // before the first full window
    roll.push(next[pos]);
    offer(pos);
  }
  // A window whose last k-mer starts before `emit_from` is a warm-up
  // window of a block-split extraction: it sets the duplicate-suppression
  // state exactly as the monolithic pass does (after any window, `last`
  // is that window's pick) but emits nothing. Picks are collected without
  // a branch: each is written, and kept only if it is new.
  std::size_t count = 0;
  std::uint32_t last = ~0u;
  for (; pos < m; ++pos) {
    roll.push(next[pos]);
    offer(pos);
    if (best + wz <= pos) {  // the pick expired: rescan oldest first
      std::size_t p = pos + 1 - wz;
      best_key = keys[p];
      best = static_cast<std::uint32_t>(p);
      for (++p; p <= pos; ++p) {
        const bool take = keys[p] <= best_key;
        best_key = take ? keys[p] : best_key;
        best = take ? static_cast<std::uint32_t>(p) : best;
      }
    }
    picks[count] = best;
    count += (best != last) & (pos >= emit_from);
    last = best;
  }

  out.resize(count);
  Minimizer* const dst = out.data();
  for (std::size_t t = 0; t < count; ++t) {
    const std::uint32_t pos = picks[t];
    dst[t] = Minimizer{keys[pos], pos, reverse[pos] != 0};
  }
  if (out.capacity() != out_cap) ++scratch.grow_events_;
}

}  // namespace gx::mapper
