#include "genasmx/common/cigar.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <stdexcept>

namespace gx::common {
namespace {

constexpr std::uint32_t kMaxRun = std::numeric_limits<std::uint32_t>::max();
constexpr const char* kRunOutOfRange = "cigar: run length out of range";

constexpr std::size_t opIndex(EditOp op) noexcept {
  return static_cast<std::size_t>(op);
}

}  // namespace

void Cigar::push(EditOp op, std::uint32_t len) {
  if (len == 0) return;
  if (!units_.empty() && units_.back().op == op) {
    std::uint32_t& run = units_.back().len;
    if (len > kMaxRun - run) throw std::invalid_argument(kRunOutOfRange);
    run += len;
  } else {
    units_.push_back({op, len});
  }
  totals_[opIndex(op)] += len;
}

void Cigar::append(const Cigar& other) {
  if (other.units_.empty()) return;
  // `other` is canonical, so only its first run can merge into ours; the
  // rest is copied in bulk and its totals added wholesale.
  const CigarUnit head = other.units_.front();
  push(head.op, head.len);
  units_.insert(units_.end(), other.units_.begin() + 1, other.units_.end());
  for (std::size_t k = 0; k < totals_.size(); ++k) {
    totals_[k] += other.totals_[k];
  }
  totals_[opIndex(head.op)] -= head.len;
}

void Cigar::appendRuns(std::span<const CigarUnit> runs) {
  if (runs.empty()) return;
  std::array<std::uint64_t, 4> added{};
  for (const CigarUnit& u : runs) added[opIndex(u.op)] += u.len;
  // Canonical runs: only the first can merge into our last unit.
  auto rest = runs.begin();
  if (!units_.empty() && units_.back().op == rest->op) {
    std::uint32_t& run = units_.back().len;
    if (rest->len > kMaxRun - run) throw std::invalid_argument(kRunOutOfRange);
    run += rest->len;
    ++rest;
  }
  units_.insert(units_.end(), rest, runs.end());
  for (std::size_t k = 0; k < totals_.size(); ++k) totals_[k] += added[k];
}

Cigar Cigar::prefix(std::uint64_t n) const {
  Cigar out;
  for (const auto& u : units_) {
    if (n == 0) break;
    const std::uint32_t take =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(u.len, n));
    out.push(u.op, take);
    n -= take;
  }
  return out;
}

void Cigar::appendTo(std::string& out) const {
  // Size for the widest run (UINT32_MAX's 10 digits + the op), write,
  // then cut to fit.
  constexpr std::size_t kMaxUnitChars = 11;
  const std::size_t base = out.size();
  out.resize(base + units_.size() * kMaxUnitChars);
  char* p = out.data() + base;
  char* const end = out.data() + out.size();
  for (const auto& u : units_) {
    p = std::to_chars(p, end, u.len).ptr;
    *p++ = opChar(u.op);
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
}

std::string Cigar::str() const {
  std::string out;
  appendTo(out);
  return out;
}

Cigar Cigar::parse(std::string_view text) {
  Cigar out;
  std::uint64_t len = 0;
  bool have_len = false;
  for (char c : text) {
    if (c >= '0' && c <= '9') {
      // Bounded before the next digit can wrap the accumulator.
      len = len * 10 + static_cast<std::uint64_t>(c - '0');
      if (len > kMaxRun) throw std::invalid_argument(kRunOutOfRange);
      have_len = true;
      continue;
    }
    if (!have_len) throw std::invalid_argument("cigar: op without length");
    EditOp op;
    switch (c) {
      case '=': case 'M': op = EditOp::Match; break;
      case 'X': op = EditOp::Mismatch; break;
      case 'I': op = EditOp::Insertion; break;
      case 'D': op = EditOp::Deletion; break;
      default: throw std::invalid_argument("cigar: unknown op");
    }
    out.push(op, static_cast<std::uint32_t>(len));
    len = 0;
    have_len = false;
  }
  if (have_len) throw std::invalid_argument("cigar: trailing length");
  return out;
}

CigarTrim trimIndelEnds(Cigar&& cigar) {
  CigarTrim out;
  out.cigar = std::move(cigar);
  auto& units = out.cigar.units_;
  auto& totals = out.cigar.totals_;
  const auto is_indel = [](EditOp op) {
    return op == EditOp::Insertion || op == EditOp::Deletion;
  };
  const auto drop = [&](const CigarUnit& u, std::uint64_t& query,
                        std::uint64_t& target) {
    (u.op == EditOp::Insertion ? query : target) += u.len;
    totals[opIndex(u.op)] -= u.len;
  };
  std::size_t lead = 0;
  for (; lead < units.size() && is_indel(units[lead].op); ++lead) {
    drop(units[lead], out.query_lead, out.target_lead);
  }
  for (; units.size() > lead && is_indel(units.back().op); units.pop_back()) {
    drop(units.back(), out.query_trail, out.target_trail);
  }
  units.erase(units.begin(),
              units.begin() + static_cast<std::ptrdiff_t>(lead));
  return out;
}

}  // namespace gx::common
