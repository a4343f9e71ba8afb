#pragma once
// IndexView — the non-owning query surface of a minimizer index. The
// mapper, chainer, and pipeline consume this instead of MinimizerIndex
// directly, so they are agnostic to where the index lives: a freshly
// built MinimizerIndex (MinimizerIndex::view()) and a mmap'd index file
// (MappedIndex::view()) present the identical surface, and because both
// expose the very same sorted key/value arrays (each owner builds its
// KeyDirectory over them with the same code), the two paths are
// byte-identical all the way to PAF output.
//
// An IndexView is a handful of pointers — copy it freely, but the owner
// (the MinimizerIndex + Reference, or the MappedIndex) must outlive
// every copy, and every span lookup() returns.

#include <cstddef>
#include <cstdint>
#include <span>

#include "genasmx/mapper/index.hpp"
#include "genasmx/refmodel/reference.hpp"

namespace gx::mapper {

class IndexView {
 public:
  IndexView() = default;

  /// Wrap raw index sections. `keys`/`values` are the sorted arrays
  /// (length `n`), `directory` was built over `keys`, `per_contig_kept`
  /// is index-aligned with `ref`'s contig table. All borrowed.
  IndexView(const refmodel::Reference* ref, const std::uint64_t* keys,
            const std::uint64_t* values, std::size_t n,
            const KeyDirectory& directory,
            const std::uint64_t* per_contig_kept, int k, int w, int max_occ)
      : ref_(ref),
        keys_(keys),
        values_(values),
        n_(n),
        dir_(directory.offsets()),
        dir_shift_(64 - directory.bits()),
        per_contig_kept_(per_contig_kept),
        k_(k),
        w_(w),
        max_occ_(max_occ) {}

  [[nodiscard]] bool valid() const noexcept { return ref_ != nullptr; }
  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] int w() const noexcept { return w_; }
  [[nodiscard]] int maxOcc() const noexcept { return max_occ_; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  /// The contig table + sequence the index was built over.
  [[nodiscard]] const refmodel::Reference& reference() const noexcept {
    return *ref_;
  }

  /// Kept (post-cap) minimizers of one contig.
  [[nodiscard]] std::uint64_t perContigKept(std::uint32_t contig) const {
    return per_contig_kept_[contig];
  }

  /// Raw sorted sections, for serialization and equality checks.
  [[nodiscard]] const std::uint64_t* keysData() const noexcept {
    return keys_;
  }
  [[nodiscard]] const std::uint64_t* valuesData() const noexcept {
    return values_;
  }
  [[nodiscard]] const std::uint64_t* perContigKeptData() const noexcept {
    return per_contig_kept_;
  }

  [[nodiscard]] std::size_t distinctKeys() const noexcept {
    std::size_t n = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      n += i == 0 || keys_[i] != keys_[i - 1];
    }
    return n;
  }

  /// The packed values (pos << 1 | strand, see IndexHit::unpack) of
  /// every reference hit of `key` — empty if unknown or masked — in
  /// ascending global position order. One directory load plus a scan of
  /// the key's bucket; the span points into the index's value section.
  [[nodiscard]] std::span<const std::uint64_t> lookup(
      std::uint64_t key) const noexcept {
    const std::size_t b = bucket(key);
    std::size_t lo = dir_[b];
    const std::size_t end = dir_[b + 1];
    while (lo < end && keys_[lo] < key) ++lo;
    std::size_t hi = lo;
    while (hi < end && keys_[hi] == key) ++hi;
    return {values_ + lo, hi - lo};
  }

  /// Start loading the key bucket lookup(key) will scan. The directory
  /// (4 bytes per entry) stays in cache; the key array does not, so a
  /// caller with many keys prefetches a few lookups ahead and each
  /// lookup finds its bucket already loaded.
  void prefetch(std::uint64_t key) const noexcept {
    __builtin_prefetch(keys_ + dir_[bucket(key)]);
  }

 private:
  [[nodiscard]] std::size_t bucket(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(key >> dir_shift_);
  }

  const refmodel::Reference* ref_ = nullptr;
  const std::uint64_t* keys_ = nullptr;
  const std::uint64_t* values_ = nullptr;
  std::size_t n_ = 0;
  const std::uint32_t* dir_ = nullptr;  ///< KeyDirectory offsets
  int dir_shift_ = 63;                  ///< 64 - directory bits
  const std::uint64_t* per_contig_kept_ = nullptr;
  int k_ = 0;
  int w_ = 0;
  int max_occ_ = 0;
};

}  // namespace gx::mapper
