#include "genasmx/mapper/minimizer.hpp"

#include <bit>
#include <stdexcept>

#include "genasmx/common/sequence.hpp"

namespace gx::mapper {

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
  const std::size_t n = seq.size();
  if (n < static_cast<std::size_t>(k)) return;

  const std::uint64_t mask = (k == 32) ? ~0ULL : ((1ULL << (2 * k)) - 1);
  const int shift = 2 * (k - 1);
  std::uint64_t fwd = 0, rev = 0;

  // Sliding-window minimum over the last w k-mer ranks, kept as one
  // running pick over a ring of the window's k-mers (minimap2's scheme):
  // a new k-mer that ranks <= the pick replaces it, and only when the
  // pick slides out of the window is the ring rescanned. `<=` in both
  // places makes the pick the *newest* occurrence of the window's
  // minimal key — exactly the pick of the original O(w) window rescan
  // (min key, then max pos), which keeps every downstream byte (index,
  // seeding, PAF) identical. Most positions take neither branch, so the
  // scan stays cheap enough to sketch candidate windows with. The ring is
  // a power of two >= w, so slots are masked, not divided.
  using Entry = MinimizerScratch::Entry;
  const std::size_t wz = static_cast<std::size_t>(w);
  const std::size_t ring_size = std::bit_ceil(wz);
  if (scratch.ring_.capacity() < ring_size) ++scratch.grow_events_;
  scratch.ring_.resize(ring_size);
  Entry* const ring = scratch.ring_.data();
  const std::size_t slot = ring_size - 1;
  Entry best{~0ULL, 0, false};
  std::uint32_t last_pos = ~0u;

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t code = common::baseCode(seq[i]);
    fwd = ((fwd << 2) | code) & mask;
    rev = (rev >> 2) | ((3ULL ^ code) << shift);
    if (i + 1 < static_cast<std::size_t>(k)) continue;
    const std::uint32_t pos = static_cast<std::uint32_t>(i + 1 - k);
    const bool use_rev = rev < fwd;
    const Entry e{hash64(use_rev ? rev : fwd), pos, use_rev};
    ring[pos & slot] = e;
    if (e.key <= best.key) {
      best = e;
    } else if (best.pos + wz <= pos) {
      // The pick expired: rescan the window [pos-w+1, pos] oldest first.
      best = ring[(pos + 1 - wz) & slot];
      for (std::size_t p = pos + 2 - wz; p <= pos; ++p) {
        if (ring[p & slot].key <= best.key) best = ring[p & slot];
      }
    }

    const std::size_t kmers_seen = pos + 1;
    if (kmers_seen < static_cast<std::size_t>(w)) continue;
    if (pos < emit_from) {
      // Warm-up window of a block-split extraction: seed the suppression
      // state exactly as the monolithic pass would have left it (after
      // any window, last_pos equals that window's pick) without emitting.
      last_pos = best.pos;
      continue;
    }
    if (best.pos != last_pos) {
      out.push_back(Minimizer{best.key, best.pos, best.reverse});
      last_pos = best.pos;
    }
  }
  if (out.capacity() != out_cap) ++scratch.grow_events_;
}

}  // namespace gx::mapper
