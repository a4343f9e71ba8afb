// Pipeline layer: end-to-end simulated-genome round-trip, deterministic
// PAF output across thread counts, reverse-strand correctness, and PAF
// well-formedness of every emitted record.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "genasmx/io/fastx.hpp"
#include "genasmx/io/paf.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/simd/dispatch.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/refmodel/reference.hpp"

namespace gx::pipeline {
namespace {

std::string testGenome(std::size_t len = 250'000, std::uint64_t seed = 11) {
  readsim::GenomeConfig cfg;
  cfg.length = len;
  cfg.seed = seed;
  cfg.repeat_fraction = 0.05;
  return readsim::generateGenome(cfg);
}

std::vector<io::FastxRecord> toFastx(
    const std::vector<readsim::SimulatedRead>& reads) {
  std::vector<io::FastxRecord> out;
  out.reserve(reads.size());
  for (const auto& r : reads) {
    io::FastxRecord rec;
    rec.name = r.name;
    rec.seq = r.seq;
    rec.qual.assign(r.seq.size(), 'I');
    out.push_back(std::move(rec));
  }
  return out;
}

/// First (= primary) record of each read, keyed by query name.
std::map<std::string, io::PafRecord> primaries(
    const std::vector<io::PafRecord>& records) {
  std::map<std::string, io::PafRecord> out;
  for (const auto& rec : records) {
    out.emplace(rec.query_name, rec);  // emplace keeps the first
  }
  return out;
}

TEST(MappingPipeline, RoundTripRecoversTrueOrigins) {
  const auto genome = testGenome();
  auto rcfg = readsim::ReadSimConfig::pacbioClr(60, 2'500);
  rcfg.seed = 3;
  const auto reads = readsim::simulateReads(genome, rcfg);
  MappingPipeline pipe(refmodel::Reference("ref", std::string(genome)),
                       PipelineConfig{});
  const auto records = pipe.mapBatch(toFastx(reads));
  const auto primary = primaries(records);

  int recovered = 0;
  for (const auto& r : reads) {
    const auto it = primary.find(r.name);
    if (it == primary.end()) continue;
    const auto& rec = it->second;
    const bool overlaps = rec.target_begin < r.origin_pos + r.origin_len &&
                          r.origin_pos < rec.target_end;
    if (overlaps && rec.reverse == r.reverse_strand) ++recovered;
  }
  // >= 95% of simulated reads map back to their true origin.
  EXPECT_GE(recovered * 100, static_cast<int>(reads.size()) * 95)
      << recovered << " of " << reads.size();
  EXPECT_EQ(pipe.stats().reads, reads.size());
  EXPECT_EQ(pipe.stats().mapped_reads + pipe.stats().unmapped_reads,
            reads.size());
}

TEST(MappingPipeline, PafIsByteIdenticalAcrossThreadCounts) {
  const auto genome = testGenome(180'000, 21);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(30, 1'800);
  rcfg.seed = 9;
  const auto fastx = toFastx(readsim::simulateReads(genome, rcfg));
  std::ostringstream fq;
  io::writeFastx(fq, fastx);

  auto run_with_threads = [&](std::size_t threads) {
    PipelineConfig cfg;
    cfg.engine.threads = threads;
    cfg.batch_reads = 7;  // several batches, boundaries thread-independent
    MappingPipeline pipe(refmodel::Reference("ref", std::string(genome)), cfg);
    std::istringstream in(fq.str());
    std::ostringstream out;
    io::PafWriter writer(out);
    const auto stats = pipe.run(in, writer);
    EXPECT_EQ(stats.reads, fastx.size());
    return out.str();
  };
  const std::string paf1 = run_with_threads(1);
  EXPECT_FALSE(paf1.empty());
  EXPECT_EQ(paf1, run_with_threads(4));
  EXPECT_EQ(paf1, run_with_threads(8));
}

TEST(MappingPipeline, ReverseStrandReadsMapBackCorrectly) {
  const auto genome = testGenome(200'000, 31);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(30, 2'000);
  rcfg.seed = 17;  // both_strands defaults to true
  const auto reads = readsim::simulateReads(genome, rcfg);
  MappingPipeline pipe(refmodel::Reference("ref", std::string(genome)),
                       PipelineConfig{});
  const auto primary = primaries(pipe.mapBatch(toFastx(reads)));

  int reverse_reads = 0, reverse_recovered = 0;
  for (const auto& r : reads) {
    if (!r.reverse_strand) continue;
    ++reverse_reads;
    const auto it = primary.find(r.name);
    if (it == primary.end()) continue;
    const auto& rec = it->second;
    const bool overlaps = rec.target_begin < r.origin_pos + r.origin_len &&
                          r.origin_pos < rec.target_end;
    if (rec.reverse && overlaps) ++reverse_recovered;
  }
  ASSERT_GT(reverse_reads, 5);  // the simulation must exercise '-' reads
  EXPECT_GE(reverse_recovered * 100, reverse_reads * 95)
      << reverse_recovered << " of " << reverse_reads;
}

TEST(MappingPipeline, EveryRecordIsWellFormed) {
  const auto genome = testGenome(150'000, 41);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(25, 1'500);
  rcfg.seed = 23;
  MappingPipeline pipe(refmodel::Reference("ref", std::string(genome)),
                       PipelineConfig{});
  const auto records =
      pipe.mapBatch(toFastx(readsim::simulateReads(genome, rcfg)));
  ASSERT_FALSE(records.empty());
  for (const auto& rec : records) {
    EXPECT_LE(rec.query_begin, rec.query_end) << rec.query_name;
    EXPECT_LE(rec.query_end, rec.query_len) << rec.query_name;
    EXPECT_LE(rec.target_begin, rec.target_end) << rec.query_name;
    EXPECT_LE(rec.target_end, rec.target_len) << rec.query_name;
    EXPECT_LE(rec.matches, rec.alignment_len) << rec.query_name;
    EXPECT_GE(rec.mapq, 0) << rec.query_name;
    EXPECT_LE(rec.mapq, 60) << rec.query_name;
    if (!rec.cigar.empty()) {
      // Coordinates are exactly what the cg:Z: CIGAR consumes.
      EXPECT_EQ(rec.cigar.queryLength(), rec.query_end - rec.query_begin)
          << rec.query_name;
      EXPECT_EQ(rec.cigar.targetLength(), rec.target_end - rec.target_begin)
          << rec.query_name;
    }
    const auto line = toPafLine(rec);  // must not throw
    const auto tabs = std::count(line.begin(), line.end(), '\t');
    EXPECT_GE(tabs, 11) << line;  // 12 mandatory fields
  }
}

TEST(MappingPipeline, PrimaryOnlyEmitsAtMostOneRecordPerRead) {
  const auto genome = testGenome(150'000, 51);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(20, 1'500);
  rcfg.seed = 29;
  const auto fastx = toFastx(readsim::simulateReads(genome, rcfg));
  PipelineConfig cfg;
  cfg.emit_secondary = false;
  MappingPipeline pipe(refmodel::Reference("ref", std::string(genome)), cfg);
  const auto records = pipe.mapBatch(fastx);
  std::map<std::string, int> per_read;
  for (const auto& rec : records) ++per_read[rec.query_name];
  for (const auto& [name, count] : per_read) {
    EXPECT_EQ(count, 1) << name;
  }
  EXPECT_EQ(records.size(), pipe.stats().mapped_reads);
}

// The primary-only flow (distance-score, then one traceback per winner)
// must not depend on the thread count or on how reads are cut into
// batches — one read per batch is the server's small-request shape —
// over a repeat-rich genome so reads carry competing candidates. Its
// bytes themselves are pinned by the golden fixtures (test_golden).
TEST(MappingPipeline, PrimaryOnlyPafIsByteIdenticalAcrossThreadsAndBatchSizes) {
  readsim::GenomeConfig gcfg;
  gcfg.length = 200'000;
  gcfg.seed = 67;
  gcfg.repeat_fraction = 0.30;  // force multi-candidate reads
  gcfg.repeat_unit = 1'500;
  gcfg.repeat_divergence = 0.02;
  const auto genome = readsim::generateGenome(gcfg);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(40, 2'000);
  rcfg.seed = 71;
  const auto fastx = toFastx(readsim::simulateReads(genome, rcfg));
  std::ostringstream fq;
  io::writeFastx(fq, fastx);

  auto run = [&](std::size_t threads, std::size_t batch_reads) {
    PipelineConfig cfg;
    cfg.emit_secondary = false;
    cfg.engine.threads = threads;
    cfg.batch_reads = batch_reads;
    MappingPipeline pipe(refmodel::Reference("ref", std::string(genome)), cfg);
    std::istringstream in(fq.str());
    std::ostringstream out;
    io::PafWriter writer(out);
    const auto stats = pipe.run(in, writer);
    EXPECT_EQ(stats.reads, fastx.size());
    return out.str();
  };

  const std::string base = run(1, 11);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(base, run(8, 11));
  EXPECT_EQ(base, run(1, 1));
  EXPECT_EQ(base, run(8, 1));
  EXPECT_EQ(base, run(8, 256));
}

// The emitted PAF must not depend on which SIMD ISA the lane kernels run
// at: every supported level — scalar lanes, SSE2, AVX2, AVX-512 where the
// host has it — emits byte-identical records for the full/secondary and
// primary-only flows.
TEST(MappingPipeline, PafIsByteIdenticalAcrossIsaLevels) {
  const auto genome = testGenome(120'000, 77);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(20, 1'600);
  rcfg.seed = 83;
  const auto fastx = toFastx(readsim::simulateReads(genome, rcfg));
  std::ostringstream fq;
  io::writeFastx(fq, fastx);

  auto run = [&](bool emit_secondary) {
    PipelineConfig cfg;
    cfg.emit_secondary = emit_secondary;
    cfg.engine.threads = 2;
    cfg.batch_reads = 9;
    MappingPipeline pipe(refmodel::Reference("ref", std::string(genome)), cfg);
    std::istringstream in(fq.str());
    std::ostringstream out;
    io::PafWriter writer(out);
    (void)pipe.run(in, writer);
    return out.str();
  };

  const auto active = simd::activeIsa();
  // Reference PAF per flow at whatever level the host dispatched.
  const std::string full = run(true);
  const std::string primary = run(false);
  ASSERT_FALSE(full.empty());
  for (const auto level :
       {simd::IsaLevel::Scalar, simd::IsaLevel::Sse2, simd::IsaLevel::Avx2,
        simd::IsaLevel::Avx512}) {
    if (!simd::isaSupported(level)) continue;
    simd::forceIsa(level);
    EXPECT_EQ(full, run(true)) << simd::isaName(level);
    EXPECT_EQ(primary, run(false)) << simd::isaName(level);
  }
  simd::forceIsa(active);
}

// ------------------------------------------------------- multi-contig

refmodel::Reference multiContigRef(std::uint64_t seed = 81) {
  refmodel::Reference ref;
  readsim::GenomeConfig cfg;
  cfg.repeat_fraction = 0.05;
  const std::size_t lens[] = {50'000, 120'000, 80'000};
  for (std::size_t c = 0; c < 3; ++c) {
    cfg.length = lens[c];
    cfg.seed = seed + c;
    ref.addContig("chr" + std::to_string(c + 1),
                  readsim::generateGenome(cfg));
  }
  return ref;
}

TEST(MappingPipeline, MultiContigRoundTripRecoversOriginContigs) {
  const auto ref = multiContigRef();
  auto rcfg = readsim::ReadSimConfig::pacbioClr(60, 2'000);
  rcfg.seed = 13;
  const auto reads = readsim::simulateReads(ref, rcfg);
  MappingPipeline pipe(ref, PipelineConfig{});
  const auto records = pipe.mapBatch(toFastx(reads));
  const auto primary = primaries(records);

  int recovered = 0;
  for (const auto& r : reads) {
    const auto it = primary.find(r.name);
    if (it == primary.end()) continue;
    const auto& rec = it->second;
    // Correct contig by name AND overlapping contig-local coordinates.
    if (rec.target_name != ref.name(r.origin_contig)) continue;
    const bool overlaps = rec.target_begin < r.origin_pos + r.origin_len &&
                          r.origin_pos < rec.target_end;
    if (overlaps && rec.reverse == r.reverse_strand) ++recovered;
  }
  // >= 95% of simulated reads map back to their origin contig+span,
  // matching the single-contig round-trip bar.
  EXPECT_GE(recovered * 100, static_cast<int>(reads.size()) * 95)
      << recovered << " of " << reads.size();
}

// Regression for the concatenation bug: target_len must be the contig's
// own length (and coordinates inside it), never the summed reference
// size the old flat model reported for every record.
TEST(MappingPipeline, TargetLenIsPerContigNotConcatenated) {
  const auto ref = multiContigRef(91);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(40, 1'800);
  rcfg.seed = 7;
  MappingPipeline pipe(ref, PipelineConfig{});
  const auto records = pipe.mapBatch(toFastx(readsim::simulateReads(ref, rcfg)));
  ASSERT_FALSE(records.empty());
  std::map<std::string, std::size_t> contig_len;
  for (const auto& c : ref.contigs()) contig_len[c.name] = c.length;
  std::map<std::string, int> per_contig;
  for (const auto& rec : records) {
    ASSERT_TRUE(contig_len.count(rec.target_name))
        << "unknown target " << rec.target_name;
    EXPECT_EQ(rec.target_len, contig_len[rec.target_name]) << rec.query_name;
    EXPECT_LT(rec.target_len, ref.size());  // never the concatenation
    EXPECT_LE(rec.target_end, rec.target_len) << rec.query_name;
    ++per_contig[rec.target_name];
  }
  EXPECT_GE(per_contig.size(), 2u);  // records actually span contigs
}

TEST(MappingPipeline, BoundaryReadsStayInBoundsOnTheirContig) {
  // Error-free reads flush against both ends of every contig: each maps
  // primary to its own contig with coordinates inside that contig.
  const auto ref = multiContigRef(101);
  MappingPipeline pipe(ref, PipelineConfig{});
  std::vector<io::FastxRecord> reads;
  const std::size_t rl = 1'500;
  for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
    const auto text = ref.contigView(c);
    io::FastxRecord head, tail;
    head.name = "head_" + ref.name(c);
    head.seq = std::string(text.substr(0, rl));
    tail.name = "tail_" + ref.name(c);
    tail.seq = std::string(text.substr(text.size() - rl));
    reads.push_back(std::move(head));
    reads.push_back(std::move(tail));
  }
  const auto primary = primaries(pipe.mapBatch(reads));
  ASSERT_EQ(primary.size(), reads.size());
  for (const auto& read : reads) {
    const auto& rec = primary.at(read.name);
    const std::string contig = read.name.substr(5);  // strip head_/tail_
    EXPECT_EQ(rec.target_name, contig) << read.name;
    EXPECT_LE(rec.target_end, rec.target_len) << read.name;
    if (read.name.rfind("head_", 0) == 0) {
      EXPECT_EQ(rec.target_begin, 0u) << read.name;
    } else {
      EXPECT_EQ(rec.target_end, rec.target_len) << read.name;
    }
  }
}

TEST(MappingPipeline, MultiContigPafByteIdenticalAcrossThreads) {
  const auto ref = multiContigRef(111);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(30, 1'500);
  rcfg.seed = 19;
  const auto fastx = toFastx(readsim::simulateReads(ref, rcfg));
  std::ostringstream fq;
  io::writeFastx(fq, fastx);

  auto run = [&](std::size_t threads, bool emit_secondary) {
    PipelineConfig cfg;
    cfg.engine.threads = threads;
    cfg.batch_reads = 7;
    cfg.emit_secondary = emit_secondary;
    MappingPipeline pipe(ref, cfg);
    std::istringstream in(fq.str());
    std::ostringstream out;
    io::PafWriter writer(out);
    (void)pipe.run(in, writer);
    return out.str();
  };

  const std::string full1 = run(1, true);
  ASSERT_FALSE(full1.empty());
  EXPECT_EQ(full1, run(8, true));
  const std::string primary1 = run(1, false);
  ASSERT_FALSE(primary1.empty());
  EXPECT_EQ(primary1, run(8, false));
}

// The seeding twin of the window hot path's zero steady-state allocations:
// once a batch has warmed the leased SeedScratch, mapping the same reads
// again grows none of its buffers, in both flows.
TEST(MappingPipeline, SteadyStateBatchesGrowNoSeedScratch) {
  readsim::GenomeConfig gcfg;
  gcfg.length = 200'000;
  gcfg.seed = 67;
  gcfg.repeat_fraction = 0.30;  // multi-candidate reads
  gcfg.repeat_unit = 1'500;
  gcfg.repeat_divergence = 0.02;
  const auto genome = readsim::generateGenome(gcfg);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(30, 2'500);
  rcfg.seed = 5;
  const auto fastx = toFastx(readsim::simulateReads(genome, rcfg));

  for (const bool emit_secondary : {true, false}) {
    PipelineConfig cfg;
    cfg.emit_secondary = emit_secondary;
    cfg.engine.threads = 1;
    MappingPipeline pipe(refmodel::Reference("ref", std::string(genome)), cfg);
    const auto warm_records = pipe.mapBatch(fastx);
    const std::uint64_t warm = pipe.seedGrowEvents();
    EXPECT_GT(warm, 0u) << "emit_secondary=" << emit_secondary;
    const auto records = pipe.mapBatch(fastx);
    EXPECT_EQ(records.size(), warm_records.size());
    EXPECT_EQ(pipe.seedGrowEvents(), warm)
        << "steady-state seed/chain grew, emit_secondary=" << emit_secondary;
  }
}

TEST(MappingPipeline, UnknownBackendThrows) {
  PipelineConfig cfg;
  cfg.engine.backend = "no-such-backend";
  EXPECT_THROW(MappingPipeline(refmodel::Reference("ref", testGenome(50'000)),
                               cfg),
               std::invalid_argument);
}

TEST(MappingPipeline, EmptyBatchAndJunkReads) {
  const auto genome = testGenome(100'000, 61);
  MappingPipeline pipe(refmodel::Reference("ref", std::string(genome)),
                       PipelineConfig{});
  EXPECT_TRUE(pipe.mapBatch({}).empty());
  // A read with no minimizer hits maps nowhere and emits nothing.
  io::FastxRecord junk;
  junk.name = "junk";
  junk.seq = std::string(500, 'A');
  const auto records = pipe.mapBatch({junk});
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(pipe.stats().unmapped_reads, 1u);
}

}  // namespace
}  // namespace gx::pipeline
