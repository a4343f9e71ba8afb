#include "genasmx/io/paf.hpp"

#include <charconv>
#include <chrono>
#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <type_traits>

#include "genasmx/io/fault.hpp"

namespace gx::io {

void finalizeFromCigar(PafRecord& rec) {
  rec.matches = rec.cigar.count(common::EditOp::Match);
  rec.alignment_len = rec.cigar.opCount();
}

namespace {

/// Widest decimal text of any T value, sign included.
template <class T>
constexpr std::size_t kMaxChars =
    std::numeric_limits<T>::digits10 + 1 + std::is_signed_v<T>;

/// Write `v` at `p` (which has kMaxChars<T> bytes of room); return the end.
template <class T>
char* putNumber(char* p, T v) {
  return std::to_chars(p, p + kMaxChars<T>, v).ptr;
}

char* putText(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

}  // namespace

void appendPafLine(std::string& out, const PafRecord& rec) {
  if (rec.matches > rec.alignment_len) {
    throw std::invalid_argument(
        "paf: record '" + rec.query_name + "' has matches (" +
        std::to_string(rec.matches) + ") > alignment_len (" +
        std::to_string(rec.alignment_len) + ")");
  }
  // Size for the widest line (11 tabs, the strand, eight size_t columns
  // and the mapq), write the twelve columns, then cut to fit.
  constexpr std::size_t kMaxFixed =
      11 + 1 + 8 * kMaxChars<std::size_t> + kMaxChars<int>;
  const std::size_t base = out.size();
  out.resize(base + rec.query_name.size() + rec.target_name.size() +
             kMaxFixed);
  char* p = out.data() + base;
  p = putText(p, rec.query_name);
  for (const std::size_t v : {rec.query_len, rec.query_begin, rec.query_end}) {
    *p++ = '\t';
    p = putNumber(p, v);
  }
  *p++ = '\t';
  *p++ = rec.reverse ? '-' : '+';
  *p++ = '\t';
  p = putText(p, rec.target_name);
  for (const std::size_t v : {rec.target_len, rec.target_begin, rec.target_end,
                              rec.matches, rec.alignment_len}) {
    *p++ = '\t';
    p = putNumber(p, v);
  }
  *p++ = '\t';
  p = putNumber(p, rec.mapq);
  out.resize(static_cast<std::size_t>(p - out.data()));
  if (!rec.cigar.empty()) {
    out += "\tcg:Z:";
    rec.cigar.appendTo(out);
  }
}

std::string toPafLine(const PafRecord& rec) {
  std::string line;
  appendPafLine(line, rec);
  return line;
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
  appendPafLine(buf_, rec);
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
