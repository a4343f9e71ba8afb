#pragma once
// (w,k)-minimizer extraction (Roberts et al. 2004; minimap2's seeding
// primitive). Canonical k-mers (min of forward and reverse-complement
// encodings) make seeding strand-symmetric.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace gx::mapper {

struct Minimizer {
  std::uint64_t key;   ///< hashed canonical k-mer
  std::uint32_t pos;   ///< start position of the k-mer
  bool reverse;        ///< canonical form came from the reverse strand
};

/// Invertible 64-bit mix (splitmix64 finalizer) used to de-bias k-mer
/// ranking, as minimap2 does.
[[nodiscard]] constexpr std::uint64_t hash64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Reusable working state for extractMinimizers: one slot per k-mer for
/// its hashed key, its strand and (at most) one picked position. The
/// arrays only grow, so repeated extractions allocate nothing once the
/// scratch has served its longest sequence; growth is counted so callers
/// can assert the steady-state contract.
class MinimizerScratch {
 public:
  /// Number of times any internal buffer (or the caller's output vector)
  /// had to grow. Constant across calls once the scratch has seen the
  /// longest sequence it will serve.
  [[nodiscard]] std::uint64_t growEvents() const noexcept {
    return grow_events_;
  }

 private:
  friend void extractMinimizers(std::string_view, int, int, std::size_t,
                                std::vector<Minimizer>&, MinimizerScratch&);
  // Left uninitialized when allocated: every slot is written before it
  // is read, and a throwaway scratch (Mapper::map(read)) should not pay
  // for zeroing a long read's worth of slots.
  std::size_t slots_ = 0;                    ///< k-mers each array holds
  std::unique_ptr<std::uint64_t[]> keys_;    ///< hashed canonical key
  std::unique_ptr<std::uint8_t[]> reverse_;  ///< canonical form's strand
  std::unique_ptr<std::uint32_t[]> picks_;   ///< emitted positions, in order
  std::uint64_t grow_events_ = 0;
};

/// Extract the minimizers of `seq` for k-mer size k (<= 31) and window w.
/// Consecutive duplicate (key, pos) picks are emitted once.
///
/// `emit_from` supports block-split extraction of one long sequence:
/// windows whose last k-mer starts before `emit_from` are processed as
/// warm-up only — they seed the duplicate-suppression state but emit
/// nothing. Splitting a sequence into blocks that overlap by w + k - 1
/// characters and emitting each block from its first owned window
/// reproduces the monolithic extraction exactly: the pick of window p
/// depends only on the k-mers [p-w+1, p], and the suppression
/// state entering window p is always the pick of window p-1 (whether or
/// not it was emitted), which one warm-up window reconstructs.
[[nodiscard]] std::vector<Minimizer> extractMinimizers(
    std::string_view seq, int k, int w, std::size_t emit_from = 0);

/// Allocation-free variant: clears `out` and appends the minimizers,
/// reusing both `out`'s capacity and the per-k-mer arrays in `scratch`.
void extractMinimizers(std::string_view seq, int k, int w,
                       std::size_t emit_from, std::vector<Minimizer>& out,
                       MinimizerScratch& scratch);

}  // namespace gx::mapper
