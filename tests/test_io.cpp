#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "genasmx/io/fastx.hpp"
#include "genasmx/io/paf.hpp"

namespace gx::io {
namespace {

TEST(Fastx, ParsesFasta) {
  std::istringstream in(">r1 a comment\nACGT\nACGT\n>r2\nTTTT\n");
  const auto recs = readFastx(in);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].name, "r1");
  EXPECT_EQ(recs[0].comment, "a comment");
  EXPECT_EQ(recs[0].seq, "ACGTACGT");
  EXPECT_TRUE(recs[0].qual.empty());
  EXPECT_EQ(recs[1].name, "r2");
  EXPECT_EQ(recs[1].seq, "TTTT");
}

TEST(Fastx, ParsesFastq) {
  std::istringstream in("@q1\nACGT\n+\nIIII\n@q2 c\nTT\n+\n##\n");
  const auto recs = readFastx(in);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].name, "q1");
  EXPECT_EQ(recs[0].seq, "ACGT");
  EXPECT_EQ(recs[0].qual, "IIII");
  EXPECT_EQ(recs[1].comment, "c");
}

TEST(Fastx, RoundTripFasta) {
  std::vector<FastxRecord> recs;
  recs.push_back({"a", "", std::string(200, 'A'), ""});
  recs.push_back({"b", "note", "ACGT", ""});
  std::ostringstream out;
  writeFastx(out, recs);
  std::istringstream in(out.str());
  const auto back = readFastx(in);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].seq, recs[0].seq);
  EXPECT_EQ(back[1].name, "b");
  EXPECT_EQ(back[1].comment, "note");
}

TEST(Fastx, RoundTripFastq) {
  std::vector<FastxRecord> recs;
  recs.push_back({"q", "", "ACGTACGT", "IIIIIIII"});
  std::ostringstream out;
  writeFastx(out, recs);
  std::istringstream in(out.str());
  const auto back = readFastx(in);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].seq, recs[0].seq);
  EXPECT_EQ(back[0].qual, recs[0].qual);
}

TEST(Fastx, RejectsMalformed) {
  std::istringstream bad1("ACGT\n");
  EXPECT_THROW(readFastx(bad1), std::runtime_error);
  std::istringstream bad2("@q\nACGT\nIIII\n");  // missing '+'
  EXPECT_THROW(readFastx(bad2), std::runtime_error);
  std::istringstream bad3("@q\nACGT\n+\nII\n");  // length mismatch
  EXPECT_THROW(readFastx(bad3), std::runtime_error);
}

TEST(Fastx, MissingFileThrows) {
  EXPECT_THROW(readFastxFile("/nonexistent/path.fa"), std::runtime_error);
}

TEST(Fastx, EmptyStream) {
  std::istringstream in("");
  EXPECT_TRUE(readFastx(in).empty());
}

TEST(Paf, SerializesAllFields) {
  PafRecord rec;
  rec.query_name = "read_1";
  rec.query_len = 100;
  rec.query_begin = 0;
  rec.query_end = 100;
  rec.reverse = true;
  rec.target_name = "chr";
  rec.target_len = 1'000'000;
  rec.target_begin = 500;
  rec.target_end = 602;
  rec.cigar = common::Cigar::parse("98=2X2D");
  finalizeFromCigar(rec);
  EXPECT_EQ(rec.matches, 98u);
  EXPECT_EQ(rec.alignment_len, 102u);
  const auto line = toPafLine(rec);
  EXPECT_EQ(line,
            "read_1\t100\t0\t100\t-\tchr\t1000000\t500\t602\t98\t102\t255"
            "\tcg:Z:98=2X2D");
}

TEST(Paf, OmitsCigarWhenEmpty) {
  PafRecord rec;
  // std::string("r") sidesteps GCC 12's -Wrestrict false positive
  // (PR105651) on the const char* assignment path.
  rec.query_name = std::string("r");
  rec.target_name = std::string("t");
  const auto line = toPafLine(rec);
  EXPECT_EQ(line.find("cg:Z:"), std::string::npos);
}

TEST(Paf, WriteAppendsNewline) {
  PafRecord rec;
  rec.query_name = std::string("r");
  rec.target_name = std::string("t");
  std::ostringstream out;
  writePaf(out, rec);
  EXPECT_EQ(out.str().back(), '\n');
}

TEST(Paf, RejectsMatchesExceedingAlignmentLen) {
  PafRecord rec;
  rec.query_name = std::string("r");
  rec.target_name = std::string("t");
  rec.matches = 10;
  rec.alignment_len = 9;  // inconsistent: must never be serialized
  EXPECT_THROW((void)toPafLine(rec), std::invalid_argument);
  std::ostringstream out;
  EXPECT_THROW(writePaf(out, rec), std::invalid_argument);
  rec.alignment_len = 10;
  EXPECT_NO_THROW((void)toPafLine(rec));
}

TEST(Paf, FinalizeFromCigarIsAlwaysConsistent) {
  PafRecord rec;
  rec.query_name = std::string("r");
  rec.target_name = std::string("t");
  rec.cigar = common::Cigar::parse("10=2X3I1D7=");
  finalizeFromCigar(rec);
  EXPECT_LE(rec.matches, rec.alignment_len);
  EXPECT_EQ(rec.matches, 17u);
  EXPECT_EQ(rec.alignment_len, 23u);
  EXPECT_NO_THROW((void)toPafLine(rec));
}

TEST(Paf, EmptyCigarFinalizesToZerosAndOmitsTag) {
  PafRecord rec;
  rec.query_name = std::string("r");
  rec.target_name = std::string("t");
  rec.matches = 42;  // stale aggregates must be reset, not serialized
  rec.alignment_len = 7;
  finalizeFromCigar(rec);
  EXPECT_EQ(rec.matches, 0u);
  EXPECT_EQ(rec.alignment_len, 0u);
  const auto line = toPafLine(rec);
  EXPECT_EQ(line.find("cg:Z:"), std::string::npos);
}

// The stream formatter appendPafLine() replaced, kept as its oracle.
std::string oraclePafLine(const PafRecord& rec) {
  std::ostringstream os;
  os << rec.query_name << '\t' << rec.query_len << '\t' << rec.query_begin
     << '\t' << rec.query_end << '\t' << (rec.reverse ? '-' : '+') << '\t'
     << rec.target_name << '\t' << rec.target_len << '\t' << rec.target_begin
     << '\t' << rec.target_end << '\t' << rec.matches << '\t'
     << rec.alignment_len << '\t' << rec.mapq;
  if (!rec.cigar.empty()) {
    os << "\tcg:Z:";
    for (const common::CigarUnit& u : rec.cigar.units()) {
      os << u.len << common::opChar(u.op);
    }
  }
  return os.str();
}

PafRecord recordWithFields(std::size_t v) {
  PafRecord rec;
  rec.query_name = std::string("q");
  rec.target_name = std::string("chr1");
  rec.query_len = rec.query_begin = rec.query_end = v;
  rec.target_len = rec.target_begin = rec.target_end = v;
  rec.matches = rec.alignment_len = v;
  return rec;
}

TEST(Paf, DirectFormatterMatchesStreamOracle) {
  std::vector<PafRecord> cases;
  for (const std::size_t v : {std::size_t{0}, std::size_t{7},
                              std::size_t{1'000'000},
                              std::numeric_limits<std::size_t>::max()}) {
    for (const int mapq : {0, 60, 255}) {
      for (const bool reverse : {false, true}) {
        PafRecord rec = recordWithFields(v);
        rec.mapq = mapq;
        rec.reverse = reverse;
        cases.push_back(rec);  // empty cigar: no cg:Z:
      }
    }
  }
  // Unit lengths of 1 to 10 digits, ending at UINT32_MAX.
  common::Cigar wide;
  std::uint32_t len = 1;
  for (int digits = 1; digits <= 10; ++digits) {
    wide.push(digits % 2 ? common::EditOp::Match : common::EditOp::Deletion,
              len);
    len = digits < 9 ? len * 10 + 3 : 4294967295u;
  }
  wide.push(common::EditOp::Mismatch, 4294967295u);
  wide.push(common::EditOp::Insertion, 9);
  PafRecord rec = recordWithFields(12);
  rec.cigar = wide;
  finalizeFromCigar(rec);
  cases.push_back(rec);
  rec.query_name = std::string("");  // degenerate names format as-is
  rec.target_name = std::string("");
  cases.push_back(rec);

  std::string buf = "prefix\n";
  std::string expect = buf;
  for (const PafRecord& c : cases) {
    EXPECT_EQ(toPafLine(c), oraclePafLine(c));
    appendPafLine(buf, c);
    expect += oraclePafLine(c);
    EXPECT_EQ(buf, expect);
  }
  EXPECT_NE(expect.find("4294967295X"), std::string::npos);
  EXPECT_NE(expect.find("\t18446744073709551615\t"), std::string::npos);
}

TEST(Paf, InconsistentRecordLeavesBufferUnchanged) {
  PafRecord rec = recordWithFields(5);
  rec.matches = 6;
  std::string buf = "earlier line\n";
  EXPECT_THROW(appendPafLine(buf, rec), std::invalid_argument);
  EXPECT_EQ(buf, "earlier line\n");
}

TEST(PafWriter, InconsistentRecordNeverReachesTheStream) {
  PafRecord bad = recordWithFields(5);
  bad.matches = 6;
  std::ostringstream out;
  {
    PafWriter writer(out, 1);  // flush after every record
    writer.write(recordWithFields(3));
    EXPECT_THROW(writer.write(bad), std::invalid_argument);
    EXPECT_EQ(writer.written(), 1u);
    writer.write(recordWithFields(4));
    writer.close();
  }
  EXPECT_EQ(out.str(), oraclePafLine(recordWithFields(3)) + "\n" +
                           oraclePafLine(recordWithFields(4)) + "\n");
}

// --------------------------------------------------------------- PafWriter

PafRecord sampleRecord(int i) {
  PafRecord rec;
  rec.query_name = "q" + std::to_string(i);
  rec.query_len = 100;
  rec.query_end = 100;
  rec.target_name = std::string("t");
  rec.target_len = 1'000;
  rec.target_begin = static_cast<std::size_t>(i);
  rec.target_end = static_cast<std::size_t>(i) + 100;
  rec.cigar = common::Cigar::parse("100=");
  finalizeFromCigar(rec);
  return rec;
}

TEST(PafWriter, MatchesUnbufferedOutput) {
  std::ostringstream buffered, direct;
  {
    PafWriter writer(buffered);
    for (int i = 0; i < 50; ++i) {
      writer.write(sampleRecord(i));
      writePaf(direct, sampleRecord(i));
    }
    EXPECT_EQ(writer.written(), 50u);
  }  // destructor flushes
  EXPECT_EQ(buffered.str(), direct.str());
}

TEST(PafWriter, FlushThresholdPreservesOrderAndContent) {
  std::ostringstream small_buf, big_buf;
  {
    PafWriter a(small_buf, 64);  // forces many intermediate flushes
    PafWriter b(big_buf, 1 << 20);
    for (int i = 0; i < 200; ++i) {
      a.write(sampleRecord(i));
      b.write(sampleRecord(i));
    }
  }
  EXPECT_EQ(small_buf.str(), big_buf.str());
}

// ------------------------------------------------------------- FastxReader

TEST(FastxReader, StreamsSameRecordsAsBulkRead) {
  const std::string text =
      ">a c1\nACGT\nACGT\n@q1\nACGTACGT\n+\nIIIIIIII\n>b\nTTTT\n@q2 c\nGG\n+\n##\n";
  std::istringstream bulk_in(text);
  const auto bulk = readFastx(bulk_in);
  std::istringstream stream_in(text);
  FastxReader reader(stream_in);
  std::vector<FastxRecord> streamed;
  FastxRecord rec;
  while (reader.next(rec)) streamed.push_back(rec);
  ASSERT_EQ(streamed.size(), bulk.size());
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    EXPECT_EQ(streamed[i].name, bulk[i].name) << i;
    EXPECT_EQ(streamed[i].comment, bulk[i].comment) << i;
    EXPECT_EQ(streamed[i].seq, bulk[i].seq) << i;
    EXPECT_EQ(streamed[i].qual, bulk[i].qual) << i;
  }
}

TEST(FastxReader, NextBatchHonorsLimitAndDrains) {
  std::string text;
  for (int i = 0; i < 10; ++i) {
    text += "@r" + std::to_string(i) + "\nACGT\n+\nIIII\n";
  }
  std::istringstream in(text);
  FastxReader reader(in);
  const auto b1 = reader.nextBatch(4);
  ASSERT_EQ(b1.size(), 4u);
  EXPECT_EQ(b1[0].name, "r0");
  const auto b2 = reader.nextBatch(4);
  ASSERT_EQ(b2.size(), 4u);
  EXPECT_EQ(b2[0].name, "r4");
  const auto b3 = reader.nextBatch(4);
  ASSERT_EQ(b3.size(), 2u);  // tail batch
  EXPECT_EQ(b3[1].name, "r9");
  EXPECT_TRUE(reader.nextBatch(4).empty());  // EOF
}

TEST(FastxReader, PropagatesMalformedInput) {
  std::istringstream bad("@q\nACGT\nIIII\n");  // missing '+'
  FastxReader reader(bad);
  FastxRecord rec;
  EXPECT_THROW(reader.next(rec), std::runtime_error);
}

}  // namespace
}  // namespace gx::io
