#pragma once
// On-disk minimizer index: a versioned, checksummed, flat-POD file
// format written once by `genasmx_index` and reopened zero-copy via
// mmap, so mapping a genome-scale reference cold-starts in milliseconds
// instead of paying a full FASTA parse + index build per invocation
// (shasta's MemoryMapped::Vector idiom: container-shaped views over
// flat sections, built multithreaded, reopened read-only, one physical
// copy shared by N processes through the page cache).
//
// Layout (all integers little-endian host order, every section 64-byte
// aligned, zero padding between sections):
//
//   [0, 128)   IndexFileHeader   magic, version, endianness marker,
//                                k/w/max_occ, section offsets, sizes,
//                                payload + header checksums
//   contigs    IndexContigRecord[n_contigs]   per-contig section
//                                offsets: name-pool slice and sequence-
//                                section slice (the natural shard
//                                boundaries for future per-contig index
//                                files)
//   kept       uint64[n_contigs]  kept minimizers per contig
//   names      contig name pool (bytes, not NUL-terminated)
//   seq        reference backing buffer (contigs concatenated)
//   keys       uint64[n_entries]  sorted minimizer keys
//   values     uint64[n_entries]  pos << 1 | strand, same order
//
// The loader (MappedIndex) validates magic, endianness, version, both
// checksums, the declared file size, every section bound and the key
// order before exposing anything, and rejects mismatches with actionable
// errors (IndexIoError). Because keys/values are mapped verbatim and the
// KeyDirectory is rebuilt over them at load (derived data, not part of
// the format), an index served from disk answers every lookup
// identically to the MinimizerIndex it was written from — the
// byte-identical-PAF contract.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "genasmx/common/error.hpp"
#include "genasmx/io/mmap_file.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/index_view.hpp"
#include "genasmx/refmodel/reference.hpp"

namespace gx::mapper {

inline constexpr char kIndexMagic[8] = {'G', 'X', 'M', 'I',
                                        'N', 'I', 'D', 'X'};
inline constexpr std::uint32_t kIndexFormatVersion = 1;
inline constexpr std::uint32_t kIndexEndianMarker = 0x01020304u;
inline constexpr std::size_t kIndexSectionAlign = 64;

/// Fixed 128-byte file header. POD on purpose: it is memcpy'd straight
/// out of the mapping.
struct IndexFileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian;  ///< kIndexEndianMarker as written by the host
  std::uint32_t k;
  std::uint32_t w;
  std::uint32_t max_occ;
  std::uint32_t reserved32;
  std::uint64_t n_entries;
  std::uint64_t n_contigs;
  // The contig record section always starts at byte 128 (right after
  // this header); the remaining sections carry explicit offsets.
  std::uint64_t kept_off;
  std::uint64_t names_off;
  std::uint64_t names_bytes;
  std::uint64_t seq_off;
  std::uint64_t seq_bytes;
  std::uint64_t keys_off;
  std::uint64_t values_off;
  std::uint64_t file_bytes;     ///< total expected file size
  std::uint64_t payload_hash;   ///< FNV-1a64 over [128, file_bytes)
  std::uint64_t header_hash;    ///< FNV-1a64 over header, hash fields 0
};
static_assert(sizeof(IndexFileHeader) == 128,
              "IndexFileHeader must stay exactly 128 bytes (format v1)");

/// One contig's slice of the name pool and sequence section — the
/// per-contig section offsets that make future index sharding a matter
/// of slicing, not reformatting.
struct IndexContigRecord {
  std::uint64_t name_off;  ///< into the name pool
  std::uint64_t name_len;
  std::uint64_t seq_off;   ///< into the sequence section (== global coord)
  std::uint64_t seq_len;
  std::uint64_t reserved[4];
};
static_assert(sizeof(IndexContigRecord) == 64,
              "IndexContigRecord must stay exactly 64 bytes (format v1)");

/// Thrown for every malformed-file condition (bad magic, version or
/// endianness mismatch, truncation, checksum failure, inconsistent
/// section table) and for write failures. The message always says what
/// was wrong and what to do about it. Part of the structured error
/// taxonomy: malformed files carry kMalformedInput, write/environment
/// failures kIoFatal, so a server can refuse a bad index upload without
/// treating it like a dying disk.
class IndexIoError : public common::Error {
 public:
  explicit IndexIoError(
      const std::string& message,
      common::ErrorCode code = common::ErrorCode::kMalformedInput,
      common::ErrorContext ctx = {})
      : common::Error(code, message, std::move(ctx)) {}
};

/// Serialize `index` (built over `ref`) to `path`. Overwrites an
/// existing file. Throws IndexIoError on I/O failure or if the index
/// and reference disagree on contig count.
void writeIndexFile(const std::string& path, const MinimizerIndex& index,
                    const refmodel::Reference& ref);

struct MappedIndexOptions {
  /// Verify the payload checksum at open. The scan runs at memory
  /// bandwidth — still orders of magnitude cheaper than a rebuild —
  /// but it faults in every page, so genuinely lazy cold starts on
  /// huge indexes may opt out (the header checksum is always checked).
  bool verify_payload = true;
};

/// A minimizer index served zero-copy from a mmap'd file. Owns the
/// mapping and the (externally backed) Reference over its sequence
/// section; view() is the same IndexView surface MinimizerIndex::view()
/// returns, so Mapper/MappingPipeline cannot tell the two apart.
///
/// Not movable: the view points into the object. Hold it directly or
/// behind a unique_ptr, and keep it alive as long as any view copy.
class MappedIndex {
 public:
  using Options = MappedIndexOptions;

  /// Open and validate `path`. Throws IndexIoError with an actionable
  /// message on any mismatch (see class comment on the format).
  explicit MappedIndex(const std::string& path, Options opt = {});

  /// Validate and serve an already-opened mapping (or an in-memory
  /// buffer via MappedFile::fromBytes). `name` stands in for the path in
  /// diagnostics. This is the seam the fuzz harnesses and the fault
  /// matrix drive: arbitrary bytes go through the exact validation path
  /// the mmap loader uses, no filesystem required.
  explicit MappedIndex(io::MappedFile file, Options opt = {},
                       std::string name = "<memory>");

  MappedIndex(const MappedIndex&) = delete;
  MappedIndex& operator=(const MappedIndex&) = delete;
  MappedIndex(MappedIndex&&) = delete;
  MappedIndex& operator=(MappedIndex&&) = delete;

  [[nodiscard]] const IndexView& view() const noexcept { return view_; }
  [[nodiscard]] const refmodel::Reference& reference() const noexcept {
    return ref_;
  }
  [[nodiscard]] std::size_t fileBytes() const noexcept {
    return file_.size();
  }

 private:
  io::MappedFile file_;
  refmodel::Reference ref_;  ///< external backing over the seq section
  KeyDirectory directory_;   ///< over the mapped keys, built at load
  IndexView view_;
};

/// FNV-1a over 64-bit words (n must be a multiple of 8 — every hashed
/// region in the format is). Exposed for tests.
[[nodiscard]] std::uint64_t indexFileHash(const void* data, std::size_t n,
                                          std::uint64_t seed =
                                              1469598103934665603ULL);

}  // namespace gx::mapper
