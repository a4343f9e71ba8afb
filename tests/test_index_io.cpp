// On-disk minimizer index (index_io): build -> save -> mmap load
// round-trips on single- and multi-contig repeat-rich references, the
// IndexView query-parity contract between both index sources (the
// substrate of byte-identical PAF from `genasmx_map --index=`), and
// rejection of every malformed-file class — wrong magic, bumped
// version, endianness mismatch, truncation, corrupt payload, corrupt
// header — with IndexIoError, never a crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "genasmx/io/paf.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/mapper/index_view.hpp"
#include "genasmx/mapper/mapper.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/refmodel/reference.hpp"

namespace gx::mapper {
namespace {

refmodel::Reference repeatRichRef(std::size_t contigs, std::uint64_t seed) {
  refmodel::Reference ref;
  readsim::GenomeConfig cfg;
  cfg.repeat_fraction = 0.30;  // force capped (masked) minimizers
  cfg.repeat_unit = 800;
  cfg.repeat_divergence = 0.02;
  for (std::size_t c = 0; c < contigs; ++c) {
    cfg.length = 40'000 + 25'000 * c;
    cfg.seed = seed + c;
    ref.addContig("ctg" + std::to_string(c + 1),
                  readsim::generateGenome(cfg));
  }
  return ref;
}

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Every field the format stores, compared via the IndexView surfaces of
/// the in-memory build and the mapped file.
void expectSameIndex(const MinimizerIndex& built,
                     const refmodel::Reference& ref,
                     const MappedIndex& mapped) {
  const IndexView a = built.view(ref);
  const IndexView& b = mapped.view();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.k(), b.k());
  EXPECT_EQ(a.w(), b.w());
  EXPECT_EQ(a.maxOcc(), b.maxOcc());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.keysData()[i], b.keysData()[i]) << "key " << i;
    ASSERT_EQ(a.valuesData()[i], b.valuesData()[i]) << "value " << i;
  }
  const refmodel::Reference& rref = mapped.reference();
  ASSERT_EQ(ref.contigCount(), rref.contigCount());
  EXPECT_TRUE(rref.externallyBacked());
  EXPECT_EQ(ref.view(), rref.view());
  for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
    EXPECT_EQ(ref.name(c), rref.name(c));
    EXPECT_EQ(ref.contig(c).offset, rref.contig(c).offset);
    EXPECT_EQ(ref.contig(c).length, rref.contig(c).length);
    EXPECT_EQ(a.perContigKept(c), b.perContigKept(c));
  }
  EXPECT_EQ(a.distinctKeys(), b.distinctKeys());
}

TEST(IndexIo, RoundTripSingleContig) {
  const auto ref = repeatRichRef(1, 5);
  MinimizerIndex index;
  index.build(ref, 15, 10, 64);
  const std::string path = tempPath("single.gxi");
  writeIndexFile(path, index, ref);
  const MappedIndex mapped(path);
  expectSameIndex(index, ref, mapped);
}

TEST(IndexIo, RoundTripMultiContigRepeatRich) {
  const auto ref = repeatRichRef(4, 17);
  MinimizerIndex index;
  index.build(ref, 15, 10, 8);  // tight cap: repeats actually mask
  const std::string path = tempPath("multi.gxi");
  writeIndexFile(path, index, ref);
  const MappedIndex mapped(path);
  expectSameIndex(index, ref, mapped);
  // The masked-repeat accounting survives the round-trip: at least one
  // contig kept fewer minimizers than it extracted.
  std::uint64_t kept = 0;
  for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
    kept += mapped.view().perContigKept(c);
  }
  EXPECT_EQ(kept, mapped.view().size());
}

/// A directory lookup must answer exactly what std::equal_range over the
/// sorted key array answers: the same entries, at the same offset.
void expectLookupEqualsEqualRange(const IndexView& view, std::uint64_t key) {
  const std::uint64_t* keys = view.keysData();
  const auto [lo, hi] = std::equal_range(keys, keys + view.size(), key);
  const auto hits = view.lookup(key);
  EXPECT_EQ(hits.data(), view.valuesData() + (lo - keys)) << "key " << key;
  EXPECT_EQ(hits.size(), static_cast<std::size_t>(hi - lo)) << "key " << key;
}

/// Every stored key, plus the absent extremes 0 and ~0.
void expectDirectoryEqualsEqualRange(const IndexView& view) {
  for (std::size_t i = 0; i < view.size(); ++i) {
    expectLookupEqualsEqualRange(view, view.keysData()[i]);
  }
  expectLookupEqualsEqualRange(view, 0);
  expectLookupEqualsEqualRange(view, ~std::uint64_t(0));
}

TEST(IndexIo, LookupParityBetweenSources) {
  const auto ref = repeatRichRef(3, 29);
  MinimizerIndex index;
  index.build(ref, 15, 10, 16);
  const std::string path = tempPath("parity.gxi");
  writeIndexFile(path, index, ref);
  const MappedIndex mapped(path);
  // Every stored key — including capped-adjacent ones — answers
  // identically from the built index and from the mmap'd file, and both
  // agree with a binary search over the keys.
  const IndexView memory = index.view(ref);
  const IndexView& disk = mapped.view();
  expectDirectoryEqualsEqualRange(memory);
  expectDirectoryEqualsEqualRange(disk);
  for (std::size_t i = 0; i < index.size(); i += 97) {
    const std::uint64_t key = index.keys()[i];
    const auto a = memory.lookup(key);
    const auto b = disk.lookup(key);
    ASSERT_EQ(a.size(), b.size()) << "key " << key;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "key " << key;
  }
  EXPECT_TRUE(disk.lookup(~std::uint64_t(0)).empty());
}

TEST(IndexIo, LookupAtDirectoryBucketBoundaries) {
  // Synthetic sorted keys straddling bucket boundaries: the last key of
  // one bucket, the first of the next, runs of equal keys on either
  // side, and absent keys in between.
  constexpr std::size_t kEntries = 64;
  std::vector<std::uint64_t> keys(kEntries, 0);
  KeyDirectory sizing;  // bits depend on the entry count only
  ASSERT_TRUE(sizing.build(keys.data(), keys.size()));
  const int shift = 64 - sizing.bits();
  const std::uint64_t buckets = std::uint64_t{1} << sizing.bits();
  std::vector<std::uint64_t> probes;
  keys.clear();
  for (const std::uint64_t b : {std::uint64_t{1}, std::uint64_t{2},
                                buckets / 2, buckets - 1}) {
    const std::uint64_t edge = b << shift;
    keys.insert(keys.end(), {edge - 3, edge - 1, edge - 1, edge, edge,
                             edge + 2});
    probes.insert(probes.end(),
                  {edge - 3, edge - 2, edge - 1, edge, edge + 1, edge + 2});
  }
  keys.push_back(((buckets - 1) << shift) | 0xffff);
  while (keys.size() < kEntries) keys.push_back(~std::uint64_t(0) - 1);
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint64_t> values(keys.size());
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = i << 1;
  KeyDirectory dir;
  ASSERT_TRUE(dir.build(keys.data(), keys.size()));
  ASSERT_EQ(dir.bits(), sizing.bits());
  const refmodel::Reference ref("ref", "ACGT");
  const std::uint64_t kept = keys.size();
  const IndexView view(&ref, keys.data(), values.data(), keys.size(), dir,
                       &kept, 15, 10, 64);
  expectDirectoryEqualsEqualRange(view);
  for (const std::uint64_t key : probes) {
    expectLookupEqualsEqualRange(view, key);
  }
  EXPECT_EQ(view.lookup(~std::uint64_t(0) - 1).size(),
            static_cast<std::size_t>(
                std::count(keys.begin(), keys.end(), ~std::uint64_t(0) - 1)));
}

TEST(IndexIo, LookupOnEmptyAndSingleEntryIndexes) {
  // n = 0: a contig shorter than k holds no minimizer; n = 1: one
  // contig of exactly one (w, k) window holds exactly one.
  const std::string one_window = "ACGTTGCAAGGCTTACGATCCATG";  // k + w - 1
  for (const std::string& seq : {std::string("ACGTACGT"), one_window}) {
    refmodel::Reference ref;
    ref.addContig("tiny", seq);
    MinimizerIndex index;
    index.build(ref, 15, 10, 64);
    ASSERT_EQ(index.size(), seq == one_window ? 1u : 0u);
    const std::string path = tempPath("tiny.gxi");
    writeIndexFile(path, index, ref);
    const MappedIndex mapped(path);
    ASSERT_EQ(mapped.view().size(), index.size());
    expectDirectoryEqualsEqualRange(index.view(ref));
    expectDirectoryEqualsEqualRange(mapped.view());
    if (index.size() == 1) {
      const auto hits = mapped.view().lookup(index.keys()[0]);
      ASSERT_EQ(hits.size(), 1u);
      EXPECT_EQ(hits[0], index.values()[0]);
    }
  }
}

TEST(IndexIo, MapperEmitsSameCandidatesFromBothSources) {
  const auto ref = repeatRichRef(3, 41);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(25, 1'500);
  rcfg.seed = 43;
  const auto reads = readsim::simulateReads(ref, rcfg);

  const std::string path = tempPath("mapper.gxi");
  {
    MinimizerIndex index;
    index.build(ref, 15, 10, 64);
    writeIndexFile(path, index, ref);
  }
  const Mapper built(ref);  // builds its own index with the same params
  const MappedIndex mapped(path);
  const Mapper served(mapped.view());
  EXPECT_EQ(served.config().k, built.config().k);
  EXPECT_EQ(served.config().w, built.config().w);

  for (const auto& r : reads) {
    const auto a = built.map(r.seq);
    const auto b = served.map(r.seq);
    ASSERT_EQ(a.size(), b.size()) << r.name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].contig, b[i].contig) << r.name;
      EXPECT_EQ(a[i].ref_begin, b[i].ref_begin) << r.name;
      EXPECT_EQ(a[i].ref_end, b[i].ref_end) << r.name;
      EXPECT_EQ(a[i].reverse, b[i].reverse) << r.name;
      EXPECT_EQ(a[i].score, b[i].score) << r.name;
    }
  }
}

TEST(IndexIo, PipelinePafByteIdenticalFromBothSources) {
  const auto ref = repeatRichRef(3, 53);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(20, 1'200);
  rcfg.seed = 59;
  const auto reads = readsim::simulateReads(ref, rcfg);
  std::ostringstream fq;
  {
    std::vector<io::FastxRecord> fastx;
    for (const auto& r : reads) {
      io::FastxRecord rec;
      rec.name = r.name;
      rec.seq = r.seq;
      rec.qual.assign(r.seq.size(), 'I');
      fastx.push_back(std::move(rec));
    }
    io::writeFastx(fq, fastx);
  }
  const std::string path = tempPath("pipeline.gxi");
  {
    MinimizerIndex index;
    index.build(ref, 15, 10, 64);
    writeIndexFile(path, index, ref);
  }

  auto run = [&](bool from_disk, std::size_t threads) {
    pipeline::PipelineConfig cfg;
    cfg.engine.threads = threads;
    cfg.batch_reads = 7;
    std::istringstream in(fq.str());
    std::ostringstream out;
    io::PafWriter writer(out);
    if (from_disk) {
      const MappedIndex mapped(path);
      pipeline::MappingPipeline pipe(mapped.view(), cfg);
      (void)pipe.run(in, writer);
    } else {
      pipeline::MappingPipeline pipe(ref, cfg);
      (void)pipe.run(in, writer);
    }
    return out.str();
  };

  const std::string memory1 = run(false, 1);
  ASSERT_FALSE(memory1.empty());
  EXPECT_EQ(memory1, run(true, 1));
  EXPECT_EQ(memory1, run(true, 8));
}

// ------------------------------------------------------------ rejection

struct Prepared {
  std::string path;
  std::string bytes;
};

Prepared preparedIndex(const std::string& name) {
  const auto ref = repeatRichRef(2, 71);
  MinimizerIndex index;
  index.build(ref, 15, 10, 64);
  Prepared p;
  p.path = tempPath(name);
  writeIndexFile(p.path, index, ref);
  p.bytes = slurp(p.path);
  return p;
}

void expectRejected(const std::string& path, const std::string& needle) {
  try {
    const MappedIndex mapped(path);
    FAIL() << "expected IndexIoError mentioning '" << needle << "'";
  } catch (const IndexIoError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(IndexIo, RejectsWrongMagic) {
  auto p = preparedIndex("magic.gxi");
  p.bytes[0] = 'X';
  spill(p.path, p.bytes);
  expectRejected(p.path, "not a genasmx minimizer index");
}

TEST(IndexIo, RejectsVersionBump) {
  auto p = preparedIndex("version.gxi");
  p.bytes[8] = static_cast<char>(kIndexFormatVersion + 1);  // version field
  spill(p.path, p.bytes);
  expectRejected(p.path, "unsupported format version");
}

TEST(IndexIo, RejectsForeignEndianness) {
  auto p = preparedIndex("endian.gxi");
  // Byte-swap the endianness marker, as a file written on an opposite-
  // endian host would present it.
  std::swap(p.bytes[12], p.bytes[15]);
  std::swap(p.bytes[13], p.bytes[14]);
  spill(p.path, p.bytes);
  expectRejected(p.path, "endianness");
}

TEST(IndexIo, RejectsTruncation) {
  auto p = preparedIndex("trunc.gxi");
  spill(p.path, p.bytes.substr(0, 64));  // shorter than the header
  expectRejected(p.path, "truncated");
  spill(p.path, p.bytes.substr(0, p.bytes.size() - 128));  // lost tail
  expectRejected(p.path, "does not match the file");
}

TEST(IndexIo, RejectsCorruptPayload) {
  auto p = preparedIndex("payload.gxi");
  p.bytes[p.bytes.size() / 2] ^= 0x20;  // one bit deep in a section
  spill(p.path, p.bytes);
  expectRejected(p.path, "payload checksum");
  // Opting out of payload verification accepts the file (the corruption
  // is invisible to the header) — the knob exists for lazy cold starts.
  MappedIndex::Options opt;
  opt.verify_payload = false;
  EXPECT_NO_THROW(MappedIndex(p.path, opt));
}

TEST(IndexIo, RejectsCorruptHeader) {
  auto p = preparedIndex("header.gxi");
  p.bytes[40] ^= 0x01;  // a section offset: header checksum must catch it
  spill(p.path, p.bytes);
  expectRejected(p.path, "checksum");
}

TEST(IndexIo, RejectsUnsortedKeys) {
  // Swap two distinct keys and re-seal the payload checksum: the file is
  // intact as far as the hashes can tell, but lookups would answer
  // wrongly, so the load-time directory pass must refuse it.
  auto p = preparedIndex("unsorted.gxi");
  IndexFileHeader h{};
  std::memcpy(&h, p.bytes.data(), sizeof(h));
  ASSERT_GE(h.n_entries, 2u);
  char* keys = p.bytes.data() + h.keys_off;
  std::size_t i = 0;
  while (std::memcmp(keys + 8 * i, keys + 8 * (i + 1), 8) == 0) ++i;
  ASSERT_LT(i + 1, h.n_entries);
  std::swap_ranges(keys + 8 * i, keys + 8 * (i + 1), keys + 8 * (i + 1));
  h.payload_hash = indexFileHash(p.bytes.data() + sizeof(h),
                                 p.bytes.size() - sizeof(h));
  std::memcpy(p.bytes.data(), &h, sizeof(h));
  spill(p.path, p.bytes);
  expectRejected(p.path, "keys not sorted");
}

TEST(IndexIo, RejectsEntryCountPastTheFile) {
  // n_entries = 2^61 makes n_entries * 8 wrap to 0, so a header whose
  // sections end at keys_off passes the layout check; without the size
  // bound the view would claim 2^61 keys past the end of the mapping.
  auto p = preparedIndex("wrap.gxi");
  IndexFileHeader h{};
  std::memcpy(&h, p.bytes.data(), sizeof(h));
  h.n_entries = std::uint64_t{1} << 61;
  h.values_off = h.keys_off;
  h.file_bytes = h.keys_off;
  p.bytes.resize(h.keys_off);
  h.payload_hash = indexFileHash(p.bytes.data() + sizeof(h),
                                 p.bytes.size() - sizeof(h));
  h.header_hash = 0;
  const std::uint64_t payload = h.payload_hash;
  h.payload_hash = 0;
  h.header_hash = indexFileHash(&h, sizeof(h));
  h.payload_hash = payload;
  std::memcpy(p.bytes.data(), &h, sizeof(h));
  spill(p.path, p.bytes);
  expectRejected(p.path, "section sizes exceed the file");
}

TEST(IndexIo, RejectsMissingFile) {
  EXPECT_THROW(MappedIndex(tempPath("does-not-exist.gxi")),
               std::runtime_error);
}

TEST(IndexIo, WriterRejectsForeignReference) {
  const auto ref = repeatRichRef(2, 83);
  const auto other = repeatRichRef(3, 89);
  MinimizerIndex index;
  index.build(ref, 15, 10, 64);
  EXPECT_THROW(writeIndexFile(tempPath("foreign.gxi"), index, other),
               IndexIoError);
}

// --------------------------------------------- external-backing model

TEST(Reference, FromExternalValidatesTiling) {
  const std::string backing = "ACGTACGTACGT";
  using refmodel::Contig;
  using refmodel::Reference;
  EXPECT_NO_THROW(Reference::fromExternal(
      backing, {Contig{"a", 0, 4}, Contig{"b", 4, 8}}));
  EXPECT_THROW(Reference::fromExternal(backing, {Contig{"a", 0, 4}}),
               std::invalid_argument);  // lengths don't cover the buffer
  EXPECT_THROW(Reference::fromExternal(
                   backing, {Contig{"a", 0, 4}, Contig{"b", 5, 7}}),
               std::invalid_argument);  // gap after contig a
  EXPECT_THROW(Reference::fromExternal(backing, {}),
               std::invalid_argument);
}

TEST(Reference, ExternalBackingIsImmutable) {
  const std::string backing = "ACGTACGT";
  auto ref = refmodel::Reference::fromExternal(
      backing, {refmodel::Contig{"a", 0, 8}});
  EXPECT_TRUE(ref.externallyBacked());
  EXPECT_EQ(ref.view(), backing);
  EXPECT_THROW(ref.addContig("b", "ACGT"), std::logic_error);
}

}  // namespace
}  // namespace gx::mapper
