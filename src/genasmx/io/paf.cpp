#include "genasmx/io/paf.hpp"

#include <chrono>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "genasmx/io/fault.hpp"

namespace gx::io {

void finalizeFromCigar(PafRecord& rec) {
  rec.matches = rec.cigar.count(common::EditOp::Match);
  rec.alignment_len = rec.cigar.opCount();
}

std::string toPafLine(const PafRecord& rec) {
  if (rec.matches > rec.alignment_len) {
    throw std::invalid_argument(
        "paf: record '" + rec.query_name + "' has matches (" +
        std::to_string(rec.matches) + ") > alignment_len (" +
        std::to_string(rec.alignment_len) + ")");
  }
  std::ostringstream os;
  os << rec.query_name << '\t' << rec.query_len << '\t' << rec.query_begin
     << '\t' << rec.query_end << '\t' << (rec.reverse ? '-' : '+') << '\t'
     << rec.target_name << '\t' << rec.target_len << '\t' << rec.target_begin
     << '\t' << rec.target_end << '\t' << rec.matches << '\t'
     << rec.alignment_len << '\t' << rec.mapq;
  if (!rec.cigar.empty()) {
    os << "\tcg:Z:" << rec.cigar.str();
  }
  return os.str();
}

void writePaf(std::ostream& out, const PafRecord& rec) {
  out << toPafLine(rec) << '\n';
}

PafWriter::PafWriter(std::ostream& out, std::size_t flush_threshold)
    : out_(out), flush_threshold_(flush_threshold) {
  buf_.reserve(flush_threshold_);
}

PafWriter::~PafWriter() {
  // Best-effort: a destructor must not throw. Errors here leave the
  // stream failed, so a caller that cares (every tool does) calls
  // close() first and gets the exception there.
  try {
    if (!closed_) flush();
  } catch (...) {
  }
}

void PafWriter::write(const PafRecord& rec) {
  if (closed_) {
    throw common::Error(common::ErrorCode::kInternal,
                        "paf: write() after close()");
  }
  buf_ += toPafLine(rec);
  buf_ += '\n';
  ++written_;
  if (buf_.size() >= flush_threshold_) flush();
}

void PafWriter::sinkWrite(const char* data, std::size_t n) {
  // One logical write op = one fault-plan ordinal, however many retries
  // it takes. Transient faults (interrupted / would-block / short
  // writes) retry with bounded exponential backoff; persistent ones
  // surface as a clean one-line fatal error.
  constexpr int kMaxTransientRetries = 4;
  const std::uint64_t write_index = flushes_++;
  const FaultPlan* plan = activeFaultPlan();
  std::size_t done = 0;
  int transient = 0;
  for (std::uint64_t attempt = 0;; ++attempt) {
    if (plan != nullptr) {
      switch (plan->outputFault(write_index, attempt)) {
        case FaultKind::kNone:
          break;
        case FaultKind::kEnospc:
          throw common::Error(
              common::ErrorCode::kIoFatal,
              "paf: write failed: no space left on device (ENOSPC) — free "
              "disk space and re-run; output is incomplete");
        case FaultKind::kEio:
          throw common::Error(
              common::ErrorCode::kIoFatal,
              "paf: write failed: I/O error (EIO) — output device failing; "
              "output is incomplete");
        case FaultKind::kEintr:
        case FaultKind::kEagain:
          if (++transient > kMaxTransientRetries) {
            throw common::Error(
                common::ErrorCode::kIoTransient,
                "paf: write kept failing transiently after " +
                    std::to_string(kMaxTransientRetries) + " retries");
          }
          ++retries_;
          std::this_thread::sleep_for(
              std::chrono::microseconds(50u << transient));
          continue;
        case FaultKind::kShortWrite: {
          // Deliver half now; the loop picks up the remainder (attempt
          // > 0, so the clause no longer fires).
          const std::size_t half = (n - done + 1) / 2;
          out_.write(data + done, static_cast<std::streamsize>(half));
          if (!out_) break;  // fall through to the stream check below
          done += half;
          ++retries_;
          continue;
        }
        case FaultKind::kTruncate:
        case FaultKind::kClose:
        case FaultKind::kStall:
        case FaultKind::kTorn:
          break;  // not output faults; unreachable (parser rejects them)
      }
    }
    if (done < n && out_) {
      out_.write(data + done, static_cast<std::streamsize>(n - done));
    }
    if (!out_) {
      throw common::Error(
          common::ErrorCode::kIoFatal,
          "paf: output stream write failed (disk full or closed pipe?) — "
          "output is incomplete");
    }
    return;
  }
}

void PafWriter::flush() {
  if (!buf_.empty()) {
    sinkWrite(buf_.data(), buf_.size());
    buf_.clear();
  }
  out_.flush();
  if (!out_) {
    throw common::Error(
        common::ErrorCode::kIoFatal,
        "paf: output flush failed (disk full?) — output is incomplete");
  }
}

void PafWriter::close() {
  if (closed_) return;
  flush();
  closed_ = true;
}

}  // namespace gx::io
