#pragma once
// PAF (Pairwise mApping Format) records — minimap2's output format —
// with the cg:Z: CIGAR extension tag.

#include <cstdint>
#include <iosfwd>
#include <string>

#include "genasmx/common/cigar.hpp"
#include "genasmx/common/error.hpp"

namespace gx::io {

struct PafRecord {
  std::string query_name;
  std::size_t query_len = 0;
  std::size_t query_begin = 0;
  std::size_t query_end = 0;
  bool reverse = false;
  std::string target_name;
  std::size_t target_len = 0;
  std::size_t target_begin = 0;
  std::size_t target_end = 0;
  std::size_t matches = 0;        ///< residue matches
  std::size_t alignment_len = 0;  ///< alignment block length
  int mapq = 255;
  common::Cigar cigar;  ///< optional; emitted as cg:Z: when non-empty
};

/// Build the aggregate fields (matches, alignment_len) from the cigar.
void finalizeFromCigar(PafRecord& rec);

/// Append one record's PAF line (no trailing newline) to `out`, writing
/// the text straight into the buffer. Throws std::invalid_argument for an
/// inconsistent record (matches > alignment_len) before appending
/// anything — a malformed line must never reach the output.
void appendPafLine(std::string& out, const PafRecord& rec);

/// appendPafLine() into a fresh string.
[[nodiscard]] std::string toPafLine(const PafRecord& rec);

void writePaf(std::ostream& out, const PafRecord& rec);

/// Batched PAF writer: serializes records into an internal buffer and
/// flushes it to the stream in large writes, so per-record ostream
/// overhead stays off the pipeline's emission path. Records appear in
/// write() order; flush happens at the threshold, on flush()/close(),
/// and on destruction.
///
/// Failure model: every flush checks the stream afterwards — a failed
/// stream raises common::Error (kIoFatal, "disk full?") instead of
/// silently producing a truncated PAF with exit 0. Transient faults
/// (EINTR/EAGAIN-class interruptions, short writes — observable through
/// the fault-injection seam; ostreams hide the real errno) are retried
/// with bounded backoff before escalating to kIoTransient. Call close()
/// explicitly to surface the final flush's errors; the destructor
/// flushes best-effort but must not throw.
class PafWriter {
 public:
  explicit PafWriter(std::ostream& out, std::size_t flush_threshold = 1 << 20);
  ~PafWriter();

  PafWriter(const PafWriter&) = delete;
  PafWriter& operator=(const PafWriter&) = delete;

  void write(const PafRecord& rec);

  /// Flush buffered records to the stream. Throws common::Error
  /// (kIoFatal) if the stream has failed, (kIoTransient) if transient
  /// faults persisted past the retry budget.
  void flush();

  /// Final flush + stream check; idempotent. After close() the writer
  /// accepts no further records (write() asserts via kInternal).
  void close();

  /// Records accepted so far.
  [[nodiscard]] std::size_t written() const noexcept { return written_; }
  /// Flush-to-stream write operations performed so far (the ordinal the
  /// fault-injection `*@out:N` clauses address).
  [[nodiscard]] std::uint64_t flushes() const noexcept { return flushes_; }
  /// Transient write faults absorbed by the retry loop so far.
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }

 private:
  void sinkWrite(const char* data, std::size_t n);

  std::ostream& out_;
  std::string buf_;
  std::size_t flush_threshold_;
  std::size_t written_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t retries_ = 0;
  bool closed_ = false;
};

}  // namespace gx::io
