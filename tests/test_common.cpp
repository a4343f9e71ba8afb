#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "genasmx/common/cigar.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/common/verify.hpp"
#include "genasmx/refdp/edit_dp.hpp"
#include "genasmx/util/prng.hpp"

namespace gx::common {
namespace {

// ---------------------------------------------------------------- sequence

TEST(Sequence, BaseCodeRoundTrip) {
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(baseCode(codeBase(static_cast<std::uint8_t>(c))), c);
  }
  EXPECT_EQ(baseCode('a'), baseCode('A'));
  EXPECT_EQ(baseCode('N'), 0);  // N folds to A by convention
}

TEST(Sequence, BaseCodeEveryByteMatchesTheDocumentedMapping) {
  static_assert(baseCode('A') == 0 && baseCode('c') == 1);
  static_assert(baseCode('G') == 2 && baseCode('t') == 3);
  static_assert(baseCode('N') == 0 && baseCode('\0') == 0);
  static_assert(baseCode(static_cast<char>(0xC3)) == 0);
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    int want = 0;  // everything outside ACGT/acgt folds to A
    switch (b) {
      case 'C': case 'c': want = 1; break;
      case 'G': case 'g': want = 2; break;
      case 'T': case 't': want = 3; break;
      default: break;
    }
    EXPECT_EQ(baseCode(c), want) << "byte " << b;
  }
}

TEST(Sequence, Complement) {
  EXPECT_EQ(complement('A'), 'T');
  EXPECT_EQ(complement('T'), 'A');
  EXPECT_EQ(complement('C'), 'G');
  EXPECT_EQ(complement('G'), 'C');
}

TEST(Sequence, ReversedAndReverseComplement) {
  EXPECT_EQ(reversed("ACGT"), "TGCA");
  EXPECT_EQ(reversed(""), "");
  EXPECT_EQ(reverseComplement("ACGT"), "ACGT");  // palindrome
  EXPECT_EQ(reverseComplement("AAAC"), "GTTT");
}

TEST(Sequence, ReverseComplementEveryByte) {
  // Lengths 0..67; across the 256 strings of one length every position
  // holds every byte value once. Position j of the result must be the
  // complement of byte n-1-j.
  for (std::size_t n = 0; n <= 67; ++n) {
    for (std::size_t first = 0; first < 256; ++first) {
      std::string s(n, '\0');
      for (std::size_t i = 0; i < n; ++i) {
        s[i] = static_cast<char>((first + i) & 0xff);
      }
      const std::string rc = reverseComplement(s);
      ASSERT_EQ(rc.size(), n);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(rc[j], complement(s[n - 1 - j]))
            << "n=" << n << " j=" << j << " byte="
            << static_cast<int>(static_cast<unsigned char>(s[n - 1 - j]));
      }
    }
  }
}

TEST(Sequence, RandomSequenceAlphabetAndLength) {
  util::Xoshiro256 rng(1);
  const auto s = randomSequence(rng, 5000);
  EXPECT_EQ(s.size(), 5000u);
  int counts[4] = {0, 0, 0, 0};
  for (char c : s) {
    ASSERT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T');
    counts[baseCode(c)]++;
  }
  for (int c : counts) EXPECT_GT(c, 1000);  // roughly uniform
}

TEST(Sequence, MutateRespectsEditBudget) {
  util::Xoshiro256 rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    const auto s = randomSequence(rng, 80);
    const std::size_t edits = rng.below(10);
    const auto t = mutateSequence(rng, s, edits);
    EXPECT_LE(refdp::editDistance(s, t), static_cast<int>(edits));
  }
}

TEST(Sequence, MutateZeroEditsIsIdentity) {
  util::Xoshiro256 rng(3);
  const auto s = randomSequence(rng, 50);
  EXPECT_EQ(mutateSequence(rng, s, 0), s);
}

TEST(PackedSequence, RoundTrip) {
  util::Xoshiro256 rng(4);
  for (std::size_t len : {0u, 1u, 31u, 32u, 33u, 64u, 100u, 1000u}) {
    const auto s = randomSequence(rng, len);
    PackedSequence p(s);
    EXPECT_EQ(p.size(), len);
    EXPECT_EQ(p.decode(0, len), s);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(p.at(i), s[i]);
      EXPECT_EQ(p.code(i), baseCode(s[i]));
    }
  }
}

TEST(PackedSequence, DecodeClampsAtEnd) {
  PackedSequence p(std::string_view("ACGTACGT"));
  EXPECT_EQ(p.decode(6, 100), "GT");
  EXPECT_EQ(p.decode(8, 10), "");
  EXPECT_EQ(p.decode(100, 1), "");
}

// ------------------------------------------------------------------- cigar

TEST(Cigar, PushMergesAdjacentRuns) {
  Cigar c;
  c.push(EditOp::Match, 3);
  c.push(EditOp::Match, 2);
  c.push(EditOp::Mismatch);
  c.push(EditOp::Match, 1);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.str(), "5=1X1=");
}

TEST(Cigar, PushZeroIsNoop) {
  Cigar c;
  c.push(EditOp::Match, 0);
  EXPECT_TRUE(c.empty());
}

TEST(Cigar, Lengths) {
  const Cigar c = Cigar::parse("10=2X3I4D");
  EXPECT_EQ(c.opCount(), 19u);
  EXPECT_EQ(c.queryLength(), 15u);   // = + X + I
  EXPECT_EQ(c.targetLength(), 16u);  // = + X + D
  EXPECT_EQ(c.editDistance(), 9u);   // X + I + D
  EXPECT_EQ(c.count(EditOp::Match), 10u);
  EXPECT_EQ(c.count(EditOp::Insertion), 3u);
}

TEST(Cigar, ParseStrRoundTrip) {
  for (const char* s : {"", "1=", "100=25X3I4D7=", "12D", "999I1D"}) {
    EXPECT_EQ(Cigar::parse(s).str(), s);
  }
}

TEST(Cigar, ParseAcceptsMAsMatch) {
  EXPECT_EQ(Cigar::parse("5M").str(), "5=");
}

TEST(Cigar, ParseRejectsGarbage) {
  EXPECT_THROW(Cigar::parse("=="), std::invalid_argument);
  EXPECT_THROW(Cigar::parse("5"), std::invalid_argument);
  EXPECT_THROW(Cigar::parse("3Q"), std::invalid_argument);
}

TEST(Cigar, PrefixSplitsRuns) {
  const Cigar c = Cigar::parse("5=2X3=");
  EXPECT_EQ(c.prefix(0).str(), "");
  EXPECT_EQ(c.prefix(5).str(), "5=");
  EXPECT_EQ(c.prefix(6).str(), "5=1X");
  EXPECT_EQ(c.prefix(100).str(), "5=2X3=");
}

TEST(Cigar, AppendMergesAcrossBoundary) {
  Cigar a = Cigar::parse("3=");
  a.append(Cigar::parse("2=1X"));
  EXPECT_EQ(a.str(), "5=1X");
}

TEST(Cigar, AppendRunsEqualsRunByRunPush) {
  const std::vector<CigarUnit> runs = {{EditOp::Match, 4},
                                       {EditOp::Mismatch, 1},
                                       {EditOp::Insertion, 2},
                                       {EditOp::Match, 7},
                                       {EditOp::Deletion, 3}};
  // From empty, and onto a cigar whose last unit the first run merges
  // into (and one it does not).
  for (const char* start : {"", "2X5=", "2X5D"}) {
    Cigar bulk = Cigar::parse(start);
    Cigar pushed = Cigar::parse(start);
    bulk.appendRuns(runs);
    for (const CigarUnit& u : runs) pushed.push(u.op, u.len);
    EXPECT_EQ(bulk, pushed) << start;
    EXPECT_EQ(bulk.str(), pushed.str()) << start;
    EXPECT_EQ(bulk.editDistance(), pushed.editDistance()) << start;
    EXPECT_EQ(bulk.queryLength(), pushed.queryLength()) << start;
    EXPECT_EQ(bulk.targetLength(), pushed.targetLength()) << start;
  }
  Cigar merged = Cigar::parse("2X5=");
  merged.appendRuns(runs);
  EXPECT_EQ(merged.str(), "2X9=1X2I7=3D");
  Cigar empty_runs = Cigar::parse("3=");
  empty_runs.appendRuns({});
  EXPECT_EQ(empty_runs.str(), "3=");
  // A merge past UINT32_MAX throws, as push does.
  Cigar full;
  full.push(EditOp::Match, std::numeric_limits<std::uint32_t>::max());
  const std::vector<CigarUnit> one = {{EditOp::Match, 1}};
  EXPECT_THROW(full.appendRuns(one), std::invalid_argument);
}

TEST(Cigar, TrimIndelEndsStripsFlankingRuns) {
  const auto trim = trimIndelEnds(Cigar::parse("3D2I10=1D5=4I2D"));
  EXPECT_EQ(trim.cigar.str(), "10=1D5=");
  EXPECT_EQ(trim.target_lead, 3u);
  EXPECT_EQ(trim.query_lead, 2u);
  EXPECT_EQ(trim.query_trail, 4u);
  EXPECT_EQ(trim.target_trail, 2u);
}

TEST(Cigar, TrimIndelEndsKeepsInteriorAndMismatchFlanks) {
  // Mismatches are consuming columns: nothing to trim.
  const auto trim = trimIndelEnds(Cigar::parse("1X3=2I3=1X"));
  EXPECT_EQ(trim.cigar.str(), "1X3=2I3=1X");
  EXPECT_EQ(trim.query_lead + trim.query_trail + trim.target_lead +
                trim.target_trail,
            0u);
}

TEST(Cigar, TrimIndelEndsAllIndelCigar) {
  const auto trim = trimIndelEnds(Cigar::parse("5D3I"));
  EXPECT_TRUE(trim.cigar.empty());
  EXPECT_EQ(trim.target_lead, 5u);
  EXPECT_EQ(trim.query_lead, 3u);
  EXPECT_TRUE(trimIndelEnds(Cigar{}).cigar.empty());
}

// Message of the std::invalid_argument `f` throws ("" if it does not).
template <class F>
std::string invalidArgumentMessage(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

constexpr const char* kRunOutOfRange = "cigar: run length out of range";

TEST(Cigar, ParseRejectsRunPastUint32) {
  EXPECT_EQ(Cigar::parse("4294967295=").count(EditOp::Match), 4294967295u);
  // 5000000000 would truncate to 705032704 in a 32-bit run.
  EXPECT_EQ(invalidArgumentMessage([] { (void)Cigar::parse("5000000000="); }),
            kRunOutOfRange);
}

TEST(Cigar, ParseRejectsRunThatWouldWrapTheAccumulator) {
  // 2^64 + 1: twenty digits that wrap a 64-bit accumulator to 1.
  EXPECT_EQ(invalidArgumentMessage(
                [] { (void)Cigar::parse("18446744073709551617="); }),
            kRunOutOfRange);
}

TEST(Cigar, PushRejectsMergePastUint32) {
  Cigar c;
  c.push(EditOp::Match, 4294967294u);
  c.push(EditOp::Match, 1);  // exactly UINT32_MAX still fits
  EXPECT_EQ(invalidArgumentMessage([&] { c.push(EditOp::Match, 1); }),
            kRunOutOfRange);
  EXPECT_EQ(c.size(), 1u);  // the failed merge changed nothing
  EXPECT_EQ(c.count(EditOp::Match), 4294967295u);
  EXPECT_EQ(invalidArgumentMessage(
                [] { (void)Cigar::parse("4294967295=1="); }),
            kRunOutOfRange);
}

// Every O(1) query against a recount over units().
::testing::AssertionResult totalsMatchUnits(const Cigar& c) {
  std::uint64_t per_op[4] = {0, 0, 0, 0};
  for (const CigarUnit& u : c.units()) {
    per_op[static_cast<std::size_t>(u.op)] += u.len;
  }
  const std::uint64_t m = per_op[0], x = per_op[1], ins = per_op[2],
                      del = per_op[3];
  const bool ok = c.count(EditOp::Match) == m &&
                  c.count(EditOp::Mismatch) == x &&
                  c.count(EditOp::Insertion) == ins &&
                  c.count(EditOp::Deletion) == del &&
                  c.opCount() == m + x + ins + del &&
                  c.queryLength() == m + x + ins &&
                  c.targetLength() == m + x + del &&
                  c.editDistance() == x + ins + del;
  if (ok) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "totals disagree with units of '"
                                       << c.str() << "'";
}

// Runs of random ops, lengths 0-5 (zero pushes and merges are common);
// `indels_only` draws from I and D alone.
Cigar pushRandom(util::Xoshiro256& rng, std::size_t pushes, bool indels_only) {
  Cigar c;
  for (std::size_t k = 0; k < pushes; ++k) {
    const auto op = static_cast<EditOp>(indels_only ? 2 + rng.below(2)
                                                    : rng.below(4));
    c.push(op, static_cast<std::uint32_t>(rng.below(6)));
    EXPECT_TRUE(totalsMatchUnits(c));
  }
  return c;
}

TEST(Cigar, TotalsMatchUnitsAfterEveryMutation) {
  util::Xoshiro256 rng(18);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    const bool indels_only = trial % 10 == 0;
    const Cigar a = pushRandom(rng, rng.below(24), indels_only);
    const Cigar b = pushRandom(rng, rng.below(24), indels_only);

    // append vs. pushing the same units one by one.
    Cigar joined = a;
    joined.append(b);
    ASSERT_TRUE(totalsMatchUnits(joined));
    Cigar pushed;
    for (const Cigar* part : {&a, &b}) {
      for (const CigarUnit& u : part->units()) {
        for (std::uint32_t k = 0; k < u.len; ++k) pushed.push(u.op);
      }
    }
    EXPECT_EQ(pushed, joined);

    // prefix at every unit boundary (and past the end).
    for (std::uint64_t n = 0; n <= joined.opCount() + 1; ++n) {
      const Cigar p = joined.prefix(n);
      ASSERT_TRUE(totalsMatchUnits(p)) << "prefix " << n;
      EXPECT_EQ(p.opCount(), std::min(n, joined.opCount()));
    }
    EXPECT_EQ(joined.prefix(joined.opCount()), joined);

    // parse(str()) round trip.
    const Cigar reparsed = Cigar::parse(joined.str());
    ASSERT_TRUE(totalsMatchUnits(reparsed));
    EXPECT_EQ(reparsed, joined);

    // Moves leave the source empty, totals included.
    Cigar source = joined;
    const Cigar moved(std::move(source));
    EXPECT_EQ(moved, joined);
    ASSERT_TRUE(totalsMatchUnits(source));
    EXPECT_EQ(source, Cigar{});

    // In-place trim: the kept core plus the dropped flanks account for
    // every character, and the moved-from source is left empty.
    Cigar spent = joined;
    const CigarTrim trim = trimIndelEnds(std::move(spent));
    ASSERT_TRUE(totalsMatchUnits(trim.cigar));
    ASSERT_TRUE(totalsMatchUnits(spent));
    EXPECT_TRUE(spent.empty());
    EXPECT_EQ(trim.cigar.queryLength() + trim.query_lead + trim.query_trail,
              joined.queryLength());
    EXPECT_EQ(trim.cigar.targetLength() + trim.target_lead +
                  trim.target_trail,
              joined.targetLength());
    EXPECT_EQ(trim.cigar.count(EditOp::Match), joined.count(EditOp::Match));
    EXPECT_EQ(trim.cigar.count(EditOp::Mismatch),
              joined.count(EditOp::Mismatch));
    if (indels_only) {
      EXPECT_TRUE(trim.cigar.empty());
    }
    if (!trim.cigar.empty()) {
      for (const EditOp op : {trim.cigar.units().front().op,
                              trim.cigar.units().back().op}) {
        EXPECT_TRUE(op == EditOp::Match || op == EditOp::Mismatch);
      }
    }

    joined.clear();
    ASSERT_TRUE(totalsMatchUnits(joined));
    EXPECT_EQ(joined, Cigar{});
  }
}

// ------------------------------------------------------------------ verify

TEST(Verify, AcceptsCorrectAlignment) {
  //   T: AC-GT
  //   Q: ACTGA
  const auto r = verifyAlignment("ACGT", "ACTGA", Cigar::parse("2=1I1=1X"));
  EXPECT_TRUE(r.valid) << r.error;
  EXPECT_EQ(r.cost, 2u);
}

TEST(Verify, RejectsWrongMatch) {
  const auto r = verifyAlignment("AAAA", "AAAT", Cigar::parse("4="));
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.error.find("disagrees"), std::string::npos);
}

TEST(Verify, RejectsMismatchOnEqualChars) {
  const auto r = verifyAlignment("AAAA", "AAAA", Cigar::parse("3=1X"));
  EXPECT_FALSE(r.valid);
}

TEST(Verify, RejectsUnderConsumption) {
  EXPECT_FALSE(verifyAlignment("ACGT", "ACGT", Cigar::parse("3=")).valid);
  EXPECT_FALSE(verifyAlignment("ACGT", "ACG", Cigar::parse("3=")).valid);
}

TEST(Verify, RejectsOverConsumption) {
  EXPECT_FALSE(verifyAlignment("AC", "AC", Cigar::parse("3=")).valid);
  EXPECT_FALSE(verifyAlignment("AC", "AC", Cigar::parse("2=1I")).valid);
  EXPECT_FALSE(verifyAlignment("AC", "AC", Cigar::parse("2=1D")).valid);
}

TEST(Verify, EmptyPair) {
  EXPECT_TRUE(verifyAlignment("", "", Cigar()).valid);
  EXPECT_FALSE(verifyAlignment("A", "", Cigar()).valid);
}

TEST(Verify, PureIndelAlignments) {
  EXPECT_TRUE(verifyAlignment("", "ACG", Cigar::parse("3I")).valid);
  EXPECT_TRUE(verifyAlignment("ACG", "", Cigar::parse("3D")).valid);
}

TEST(Render, ProducesThreeLines) {
  const auto text =
      renderAlignment("ACGT", "ACTGA", Cigar::parse("2=1I1=1X"));
  EXPECT_NE(text.find("T: AC-GT"), std::string::npos);
  EXPECT_NE(text.find("Q: ACTGA"), std::string::npos);
}

}  // namespace
}  // namespace gx::common
