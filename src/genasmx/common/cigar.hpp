#pragma once
// CIGAR representation of pairwise alignments.
//
// Conventions used across the library:
//   query  = the read / pattern,
//   target = the reference / text,
//   '='  match        (consumes one query and one target character)
//   'X'  mismatch     (consumes one of each)
//   'I'  insertion    (consumes one query character only)
//   'D'  deletion     (consumes one target character only)
// Edit distance of an alignment = #X + #I + #D.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gx::common {

enum class EditOp : std::uint8_t { Match, Mismatch, Insertion, Deletion };

[[nodiscard]] constexpr char opChar(EditOp op) noexcept {
  switch (op) {
    case EditOp::Match: return '=';
    case EditOp::Mismatch: return 'X';
    case EditOp::Insertion: return 'I';
    case EditOp::Deletion: return 'D';
  }
  return '?';
}

[[nodiscard]] constexpr bool opConsumesQuery(EditOp op) noexcept {
  return op != EditOp::Deletion;
}
[[nodiscard]] constexpr bool opConsumesTarget(EditOp op) noexcept {
  return op != EditOp::Insertion;
}
[[nodiscard]] constexpr bool opIsError(EditOp op) noexcept {
  return op != EditOp::Match;
}

struct CigarUnit {
  EditOp op;
  std::uint32_t len;
  friend bool operator==(const CigarUnit&, const CigarUnit&) = default;
};

struct CigarTrim;

/// Run-length encoded list of edit operations. push() merges adjacent
/// identical operations so the representation is always canonical.
/// Every mutator also maintains per-op unit totals, so the length and
/// distance queries below are O(1) arithmetic, never a walk of the units.
class Cigar {
 public:
  Cigar() = default;
  Cigar(const Cigar&) = default;
  Cigar& operator=(const Cigar&) = default;
  /// Moves leave the source empty, totals included.
  Cigar(Cigar&& other) noexcept
      : units_(std::move(other.units_)),
        totals_(std::exchange(other.totals_, {})) {}
  Cigar& operator=(Cigar&& other) noexcept {
    units_ = std::move(other.units_);
    other.units_.clear();
    totals_ = std::exchange(other.totals_, {});
    return *this;
  }

  /// Throws std::invalid_argument if merging into the previous run would
  /// take its length past UINT32_MAX.
  void push(EditOp op, std::uint32_t len = 1);
  void append(const Cigar& other);
  /// Append canonical runs (non-empty, no two neighbours sharing an op)
  /// in bulk: equal to pushing them one by one, with one merge check
  /// against the last unit and one totals update. Throws as push() does.
  void appendRuns(std::span<const CigarUnit> runs);
  void clear() noexcept {
    units_.clear();
    totals_ = {};
  }

  [[nodiscard]] bool empty() const noexcept { return units_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return units_.size(); }
  [[nodiscard]] const std::vector<CigarUnit>& units() const noexcept {
    return units_;
  }

  /// Total number of edit operations (= alignment columns).
  [[nodiscard]] std::uint64_t opCount() const noexcept {
    return matchLike() + total(EditOp::Insertion) + total(EditOp::Deletion);
  }
  /// Query characters consumed (= read length for a full alignment).
  [[nodiscard]] std::uint64_t queryLength() const noexcept {
    return matchLike() + total(EditOp::Insertion);
  }
  /// Target characters consumed.
  [[nodiscard]] std::uint64_t targetLength() const noexcept {
    return matchLike() + total(EditOp::Deletion);
  }
  /// Unit-cost edit distance: #X + #I + #D.
  [[nodiscard]] std::uint64_t editDistance() const noexcept {
    return opCount() - total(EditOp::Match);
  }
  /// Count of a specific operation.
  [[nodiscard]] std::uint64_t count(EditOp op) const noexcept {
    return total(op);
  }

  /// Keep only the first n operations (splitting a run if needed).
  /// Used by GenASM windowing, which commits W-O ops per window.
  [[nodiscard]] Cigar prefix(std::uint64_t n) const;

  /// Render as e.g. "32=1X4I7=" ; parse the same format back. parse()
  /// throws std::invalid_argument on malformed text and on a run length
  /// past UINT32_MAX (a CigarUnit's range).
  [[nodiscard]] std::string str() const;
  [[nodiscard]] static Cigar parse(std::string_view text);
  /// Append the str() text to `out` (the one CIGAR text writer).
  void appendTo(std::string& out) const;

  friend bool operator==(const Cigar&, const Cigar&) = default;
  friend CigarTrim trimIndelEnds(Cigar&& cigar);

 private:
  [[nodiscard]] std::uint64_t total(EditOp op) const noexcept {
    return totals_[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] std::uint64_t matchLike() const noexcept {
    return total(EditOp::Match) + total(EditOp::Mismatch);
  }

  std::vector<CigarUnit> units_;
  std::array<std::uint64_t, 4> totals_{};  ///< unit lengths summed per op
};

/// A cigar with its flanking indel runs stripped, plus how many query /
/// target characters each stripped flank consumed. Mapping pipelines use
/// this to turn a window-global alignment (which pays the candidate
/// window's slack as boundary indels) into tight PAF coordinates.
struct CigarTrim {
  Cigar cigar;
  std::uint64_t query_lead = 0;    ///< query chars in the leading trim
  std::uint64_t query_trail = 0;   ///< query chars in the trailing trim
  std::uint64_t target_lead = 0;   ///< target chars in the leading trim
  std::uint64_t target_trail = 0;  ///< target chars in the trailing trim
};

/// Strip leading and trailing insertion/deletion runs so the alignment
/// starts and ends on a match/mismatch column. Works in place on the
/// moved-in cigar: only the dropped flanks are walked.
[[nodiscard]] CigarTrim trimIndelEnds(Cigar&& cigar);

/// A finished pairwise alignment.
struct AlignmentResult {
  bool ok = false;         ///< false => no alignment within the threshold
  int edit_distance = -1;  ///< unit-cost distance (or -1)
  int score = 0;           ///< affine score, where applicable (ksw)
  Cigar cigar;
};

}  // namespace gx::common
