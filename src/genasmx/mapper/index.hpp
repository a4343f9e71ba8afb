#pragma once
// Sorted-array minimizer index over a multi-contig reference (minimap2-
// style): build once, then O(1) lookups — a key directory over the top
// bits of the hashed key narrows each query to a bucket of ~4 entries —
// returning all reference positions of a minimizer as a span of packed
// values. Positions are global (contig-table)
// coordinates; extraction runs per contig so no seed ever spans a contig
// boundary. Over-represented minimizers (repeats) are masked with an
// occurrence cap, like minimap2's -f filtering.
//
// Build is shard-then-merge: each contig's minimizers are extracted and
// sorted as an independent shard, then shards are pairwise-merged and
// the occurrence cap applied in one final pass. Handing a ThreadPool to
// build() fans the shard and merge stages out across workers; the
// algorithm is identical either way, so the parallel build produces a
// bit-identical index to the serial one (asserted by tests).

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "genasmx/refmodel/reference.hpp"

namespace gx::util {
class ThreadPool;
}

namespace gx::mapper {

class IndexView;

/// One reference hit, unpacked from a stored value (pos << 1 | strand).
struct IndexHit {
  std::uint32_t pos;  ///< global (contig-table) coordinate
  bool reverse;

  [[nodiscard]] static constexpr IndexHit unpack(std::uint64_t v) noexcept {
    return IndexHit{static_cast<std::uint32_t>(v >> 1), (v & 1) != 0};
  }
};

/// Directory over a sorted key array. Keys are uniformly hashed, so their
/// top `bits()` bits spread entries evenly over 2^bits buckets:
/// offsets()[b] is the first entry whose key's top bits are >= b, and the
/// entries of any key lie in [offsets()[b], offsets()[b + 1]). A lookup is
/// then one directory load plus a scan of a few keys instead of a binary
/// search over the whole array. bits = bit_width(n) - 3 (at least 1), so a
/// bucket holds 4-8 entries on average and the directory costs at most one
/// uint32 per entry. Derived data: never serialized, rebuilt by each index
/// owner (MinimizerIndex::build, the MappedIndex loader).
class KeyDirectory {
 public:
  /// Index `keys[0, n)` in one pass. Returns false if the keys are not in
  /// ascending order — a directory (or binary search) would silently
  /// answer wrongly on them. Throws std::length_error past 2^32 - 1
  /// entries (offsets are 32-bit; positions already are).
  [[nodiscard]] bool build(const std::uint64_t* keys, std::size_t n);

  [[nodiscard]] const std::uint32_t* offsets() const noexcept {
    return offsets_.data();
  }
  [[nodiscard]] int bits() const noexcept { return bits_; }

 private:
  /// 2^bits + 1 entries; the default is the directory of an empty array.
  std::vector<std::uint32_t> offsets_ = std::vector<std::uint32_t>(3, 0);
  int bits_ = 1;
};

/// Extraction block size for large contigs: contigs longer than this are
/// split into overlapping blocks so a single-chromosome reference still
/// fans its index build out across workers. Block extraction is
/// bit-identical to monolithic extraction (see extractMinimizers'
/// emit_from contract), so the block size is a pure scheduling knob.
inline constexpr std::size_t kIndexBlockBp = 1u << 18;

class MinimizerIndex {
 public:
  MinimizerIndex() = default;

  /// Build over `ref` with minimizer parameters (k, w). Each contig is
  /// extracted as one shard — or, past `block_bp` characters, as several
  /// overlapping blocks with warm-up windows, so large contigs
  /// parallelize too. Minimizers occurring more than max_occ times are
  /// dropped. A non-null `pool` parallelizes shard extraction/sort and
  /// the merge tree. Neither the pool nor the block size changes the
  /// result: every schedule yields a bit-identical index (asserted by
  /// tests and the tracked bench). Throws std::invalid_argument for a
  /// reference past 4 Gbp (positions are stored in 32 bits throughout
  /// the mapper stack).
  void build(const refmodel::Reference& ref, int k, int w, int max_occ,
             util::ThreadPool* pool = nullptr,
             std::size_t block_bp = kIndexBlockBp);

  /// Flat-genome convenience: one anonymous contig, serial build.
  void build(std::string_view genome, int k, int w, int max_occ);

  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] int w() const noexcept { return w_; }
  [[nodiscard]] int maxOcc() const noexcept { return max_occ_; }
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] std::size_t distinctKeys() const noexcept;

  /// Kept (post-cap) minimizers per contig, index-aligned with the
  /// Reference's contig table. One entry for the flat-genome build.
  /// uint64 rather than size_t: these counts are serialized verbatim
  /// into the on-disk contig table (see index_io.hpp).
  [[nodiscard]] const std::vector<std::uint64_t>& perContigKept()
      const noexcept {
    return per_contig_kept_;
  }

  /// The raw sorted sections, shared with IndexView and the on-disk
  /// writer.
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const noexcept {
    return keys_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& values() const noexcept {
    return values_;
  }

  /// The non-owning query surface over this index and the reference it
  /// was built from. `ref` and this index must outlive the view.
  [[nodiscard]] IndexView view(const refmodel::Reference& ref) const;

  /// Bit-identical comparison over the full sorted arrays — the build-
  /// determinism contract (parallel == serial) is asserted with this.
  friend bool operator==(const MinimizerIndex& a,
                         const MinimizerIndex& b) noexcept {
    return a.k_ == b.k_ && a.w_ == b.w_ && a.max_occ_ == b.max_occ_ &&
           a.keys_ == b.keys_ && a.values_ == b.values_ &&
           a.per_contig_kept_ == b.per_contig_kept_;
  }

 private:
  struct Shard {
    std::uint32_t contig;   ///< owning contig (per-contig stats)
    std::size_t offset;     ///< global coordinate of the shard text start
    std::string_view text;  ///< block text, including warm-up overlap
    std::size_t emit_from;  ///< first owned window, text-relative
  };
  void buildShards(const std::vector<Shard>& shards, std::size_t contig_count,
                   int k, int w, int max_occ, util::ThreadPool* pool,
                   const refmodel::Reference* ref_for_stats);

  int k_ = 0;
  int w_ = 0;
  int max_occ_ = 0;
  std::vector<std::uint64_t> keys_;    ///< sorted
  std::vector<std::uint64_t> values_;  ///< pos << 1 | strand, same order
  std::vector<std::uint64_t> per_contig_kept_;
  KeyDirectory directory_;  ///< over keys_, rebuilt by every build
};

}  // namespace gx::mapper
