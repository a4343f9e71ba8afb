// Sketch layer + candidate prefilter: pinned weighted-minhash estimator
// behaviour (identical / disjoint / shifted-repeat / multiplicity),
// zero-allocation steady state, monotone-deque extraction equivalence
// against a reference window rescan, and the pipeline-level prefilter
// contracts — recall within tolerance of the unfiltered flow, byte-
// identical PAF across thread counts and scoring modes, keep_ratio=0
// equivalence with the filter off, and single-scan minimizer reuse.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "genasmx/common/sequence.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/io/paf.hpp"
#include "genasmx/mapper/minimizer.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/sketch/sketch.hpp"

namespace gx::sketch {
namespace {

std::string randomSeq(std::size_t n, std::uint64_t seed) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::mt19937_64 rng(seed);
  std::string s(n, 'A');
  for (auto& c : s) c = kBases[rng() & 3];
  return s;
}

SequenceSketch sketchOf(std::string_view seq, const SketchParams& p = {}) {
  SketchScratch scratch;
  SequenceSketch out;
  sketchWindow(seq, 15, 10, p, scratch, out);
  return out;
}

TEST(Sketch, IdenticalSequencesEstimateOne) {
  const auto seq = randomSeq(5'000, 1);
  const auto a = sketchOf(seq);
  const auto b = sketchOf(seq);
  EXPECT_FALSE(a.empty());
  EXPECT_DOUBLE_EQ(estimateSimilarity(a, b), 1.0);
}

TEST(Sketch, DisjointSequencesEstimateNearZero) {
  const auto a = sketchOf(randomSeq(5'000, 2));
  const auto b = sketchOf(randomSeq(5'000, 3));
  // Two independent random sequences share essentially no 15-mers; the
  // estimator's noise floor is ~1/sqrt(slots) ~= 0.09, so stay below 0.15.
  EXPECT_LT(estimateSimilarity(a, b), 0.15);
}

TEST(Sketch, ShiftedRepeatKeepsHighSimilarity) {
  // A window placed 300 bp off the true origin still shares most of its
  // minimizers with the read — exactly the near-miss candidate the
  // prefilter must NOT drop relative to the best window.
  const auto seq = randomSeq(5'300, 4);
  const auto a = sketchOf(std::string_view(seq).substr(0, 5'000));
  const auto b = sketchOf(std::string_view(seq).substr(300, 5'000));
  EXPECT_GT(estimateSimilarity(a, b), 0.5);
}

TEST(Sketch, MultiplicityDistinguishesCopyNumber) {
  // Collapsed-set MinHash would score 10 copies vs 2 copies of the same
  // unit as identical (same k-mer *set*); the weighted sketch must not.
  const auto unit = randomSeq(600, 5);
  std::string ten, two;
  for (int i = 0; i < 10; ++i) ten += unit;
  for (int i = 0; i < 2; ++i) two += unit;
  const auto a = sketchOf(ten);
  const auto b = sketchOf(two);
  const double cross = estimateSimilarity(a, b);
  EXPECT_DOUBLE_EQ(estimateSimilarity(a, sketchOf(ten)), 1.0);
  EXPECT_LT(cross, 0.9);
  EXPECT_GT(cross, 0.0);
}

TEST(Sketch, EmptySketchComparesAsZeroAndErrorsThrow) {
  const auto a = sketchOf(randomSeq(5'000, 6));
  const auto empty = sketchOf("ACGTACGT");  // shorter than k: no minimizers
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(estimateSimilarity(a, empty), 0.0);
  EXPECT_DOUBLE_EQ(estimateSimilarity(empty, empty), 0.0);

  SketchParams p64;
  p64.slots = 64;
  const auto c = sketchOf(randomSeq(5'000, 6), p64);
  EXPECT_THROW((void)estimateSimilarity(a, c), std::invalid_argument);

  SketchParams bad;
  bad.slots = 100;  // not a power of two
  SketchScratch scratch;
  SequenceSketch out;
  EXPECT_THROW(sketchWindow("ACGT", 15, 10, bad, scratch, out),
               std::invalid_argument);
}

TEST(Sketch, SketchKeysMatchesSketchMinimizers) {
  const auto seq = randomSeq(4'000, 7);
  const auto mins = mapper::extractMinimizers(seq, 15, 10);
  ASSERT_FALSE(mins.empty());
  std::vector<std::uint64_t> keys;
  for (const auto& m : mins) keys.push_back(m.key);

  SketchParams p;
  SketchScratch scratch;
  SequenceSketch from_mins, from_keys;
  sketchMinimizers(mins.data(), mins.size(), p, scratch, from_mins);
  sketchKeys(keys.data(), keys.size(), p, scratch, from_keys);
  EXPECT_EQ(from_mins.signature(), from_keys.signature());
  EXPECT_EQ(from_mins.elements(), from_keys.elements());
}

TEST(Sketch, SteadyStateAllocatesNothing) {
  SketchParams p;
  SketchScratch scratch;
  SequenceSketch out;
  // Warm pass over the full workload, then the same workload again must
  // not grow any internal buffer.
  std::vector<std::string> seqs;
  for (int i = 0; i < 8; ++i) seqs.push_back(randomSeq(3'000, 100 + i));
  for (const auto& s : seqs) sketchWindow(s, 15, 10, p, scratch, out);
  const std::uint64_t warm = scratch.growEvents();
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& s : seqs) sketchWindow(s, 15, 10, p, scratch, out);
  }
  EXPECT_EQ(scratch.growEvents(), warm);
}

/// The pre-deque extraction semantics, kept as the test oracle: rescan
/// each w-wide window for its minimal key (ties to the newest position),
/// suppressing consecutive duplicate picks.
std::vector<mapper::Minimizer> referenceExtract(std::string_view seq, int k,
                                                int w) {
  std::vector<mapper::Minimizer> out;
  const std::size_t n = seq.size();
  if (n < static_cast<std::size_t>(k)) return out;
  const std::uint64_t mask = (1ULL << (2 * k)) - 1;
  const int shift = 2 * (k - 1);
  std::uint64_t fwd = 0, rev = 0;
  struct E {
    std::uint64_t key;
    std::uint32_t pos;
    bool reverse;
  };
  std::vector<E> kmers;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t code = common::baseCode(seq[i]);
    fwd = ((fwd << 2) | code) & mask;
    rev = (rev >> 2) | ((3ULL ^ code) << shift);
    if (i + 1 < static_cast<std::size_t>(k)) continue;
    const bool use_rev = rev < fwd;
    kmers.push_back(E{mapper::hash64(use_rev ? rev : fwd),
                      static_cast<std::uint32_t>(i + 1 - k), use_rev});
  }
  std::uint32_t last_pos = ~0u;
  for (std::size_t end = static_cast<std::size_t>(w); end <= kmers.size();
       ++end) {
    const E* best = &kmers[end - w];
    for (std::size_t j = end - w + 1; j < end; ++j) {
      if (kmers[j].key <= best->key) best = &kmers[j];  // newest of equals
    }
    if (best->pos != last_pos) {
      out.push_back(mapper::Minimizer{best->key, best->pos, best->reverse});
      last_pos = best->pos;
    }
  }
  return out;
}

TEST(Sketch, DequeExtractionMatchesReferenceRescan) {
  for (const int k : {5, 15, 21}) {
    for (const int w : {1, 5, 10, 32}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const auto seq = randomSeq(2'000, 200 + seed);
        const auto fast = mapper::extractMinimizers(seq, k, w);
        const auto slow = referenceExtract(seq, k, w);
        ASSERT_EQ(fast.size(), slow.size()) << "k=" << k << " w=" << w;
        for (std::size_t i = 0; i < fast.size(); ++i) {
          EXPECT_EQ(fast[i].key, slow[i].key);
          EXPECT_EQ(fast[i].pos, slow[i].pos);
          EXPECT_EQ(fast[i].reverse, slow[i].reverse);
        }
      }
    }
  }
}

}  // namespace
}  // namespace gx::sketch

namespace gx::pipeline {
namespace {

/// Repeat-rich workload: the divergent repeat copies spawn the plausible
/// wrong-locus candidates the prefilter exists to drop.
std::string repeatGenome() {
  readsim::GenomeConfig cfg;
  cfg.length = 300'000;
  cfg.seed = 1234;
  cfg.repeat_fraction = 0.25;
  cfg.repeat_unit = 2'000;
  cfg.repeat_divergence = 0.02;
  return readsim::generateGenome(cfg);
}

std::vector<io::FastxRecord> toFastx(
    const std::vector<readsim::SimulatedRead>& reads) {
  std::vector<io::FastxRecord> out;
  for (const auto& r : reads) {
    io::FastxRecord rec;
    rec.name = r.name;
    rec.seq = r.seq;
    rec.qual.assign(r.seq.size(), 'I');
    out.push_back(std::move(rec));
  }
  return out;
}

PipelineConfig primaryOnlyConfig(PrefilterMode mode,
                                 std::size_t threads = 1) {
  PipelineConfig cfg;
  cfg.emit_secondary = false;
  cfg.engine.threads = threads;
  cfg.prefilter.mode = mode;
  return cfg;
}

std::string runPaf(const std::string& genome,
                   const std::vector<io::FastxRecord>& fastx,
                   const PipelineConfig& cfg,
                   MappingPipeline** out_pipe = nullptr) {
  static std::vector<std::unique_ptr<MappingPipeline>> keep_alive;
  auto pipe = std::make_unique<MappingPipeline>(
      refmodel::Reference("ref", std::string(genome)), cfg);
  std::ostringstream fq;
  io::writeFastx(fq, fastx);
  std::istringstream in(fq.str());
  std::ostringstream out;
  io::PafWriter writer(out);
  (void)pipe->run(in, writer);
  if (out_pipe != nullptr) {
    *out_pipe = pipe.get();
    keep_alive.push_back(std::move(pipe));
  }
  return out.str();
}

/// Fraction of reads whose primary record overlaps the simulated origin
/// on the correct strand (the recall harness of ISSUE PR-9).
double recallOf(const std::vector<readsim::SimulatedRead>& reads,
                const std::string& paf) {
  std::istringstream in(paf);
  std::string line;
  // First record per read is the primary.
  std::map<std::string, std::pair<std::size_t, std::size_t>> span;
  std::map<std::string, bool> strand;
  for (const auto& r : reads) {
    span[r.name] = {r.origin_pos, r.origin_pos + r.origin_len};
    strand[r.name] = r.reverse_strand;
  }
  std::set<std::string> seen;
  int recovered = 0;
  while (std::getline(in, line)) {
    std::istringstream f(line);
    std::string qname, rel, tname;
    std::size_t qlen, qb, qe, tlen, tb, te;
    f >> qname >> qlen >> qb >> qe >> rel >> tname >> tlen >> tb >> te;
    if (!seen.insert(qname).second) continue;  // primary only
    const auto it = span.find(qname);
    if (it == span.end()) continue;
    const bool overlaps = tb < it->second.second && it->second.first < te;
    if (overlaps && (rel == "-") == strand[qname]) ++recovered;
  }
  return static_cast<double>(recovered) / static_cast<double>(reads.size());
}

TEST(SketchPrefilter, RecallWithinToleranceAndFiltersCandidates) {
  const auto genome = repeatGenome();
  auto rcfg = readsim::ReadSimConfig::pacbioClr(100, 2'500);
  rcfg.seed = 5;
  const auto reads = readsim::simulateReads(genome, rcfg);
  const auto fastx = toFastx(reads);

  MappingPipeline* on_pipe = nullptr;
  const auto paf_off =
      runPaf(genome, fastx, primaryOnlyConfig(PrefilterMode::kOff));
  const auto paf_on =
      runPaf(genome, fastx, primaryOnlyConfig(PrefilterMode::kSketch),
             &on_pipe);

  const double recall_off = recallOf(reads, paf_off);
  const double recall_on = recallOf(reads, paf_on);
  EXPECT_GE(recall_on, recall_off - 0.001);
  EXPECT_GT(recall_off, 0.9);

  ASSERT_NE(on_pipe, nullptr);
  const auto& pf = on_pipe->prefilterStats();
  EXPECT_GT(pf.candidates_seen, 0u);
  EXPECT_GT(pf.candidates_filtered, 0u);
  // The acceptance bar: >= 30% of non-chain-best candidates dropped on
  // the repeat-rich workload.
  EXPECT_GE(pf.candidates_filtered * 10, pf.candidates_seen * 3);
}

// Thread count and batch cut leave the filtered PAF unchanged; the bytes
// themselves are pinned by the golden fixtures (test_golden).
TEST(SketchPrefilter, ByteIdenticalAcrossThreadsAndBatchSizes) {
  const auto genome = repeatGenome();
  auto rcfg = readsim::ReadSimConfig::pacbioClr(40, 2'000);
  rcfg.seed = 6;
  const auto fastx = toFastx(readsim::simulateReads(genome, rcfg));

  const auto paf_t1 =
      runPaf(genome, fastx, primaryOnlyConfig(PrefilterMode::kSketch, 1));
  EXPECT_FALSE(paf_t1.empty());
  EXPECT_EQ(paf_t1,
            runPaf(genome, fastx, primaryOnlyConfig(PrefilterMode::kSketch, 8)));
  auto one_read_batches = primaryOnlyConfig(PrefilterMode::kSketch, 8);
  one_read_batches.batch_reads = 1;
  EXPECT_EQ(paf_t1, runPaf(genome, fastx, one_read_batches));
}

TEST(SketchPrefilter, KeepRatioZeroMatchesFilterOff) {
  // keep_ratio 0 keeps every candidate, so the whole sketch path must be
  // behaviour-free: byte-identical PAF to mode=off proves the wiring
  // never perturbs scoring, only (when tuned) candidate sets.
  const auto genome = repeatGenome();
  auto rcfg = readsim::ReadSimConfig::pacbioClr(40, 2'000);
  rcfg.seed = 7;
  const auto fastx = toFastx(readsim::simulateReads(genome, rcfg));

  auto keep_all = primaryOnlyConfig(PrefilterMode::kSketch);
  keep_all.prefilter.keep_ratio = 0.0;
  MappingPipeline* pipe = nullptr;
  const auto paf_keep_all = runPaf(genome, fastx, keep_all, &pipe);
  const auto paf_off =
      runPaf(genome, fastx, primaryOnlyConfig(PrefilterMode::kOff));
  EXPECT_EQ(paf_keep_all, paf_off);
  ASSERT_NE(pipe, nullptr);
  EXPECT_GT(pipe->prefilterStats().windows_sketched, 0u);
  EXPECT_EQ(pipe->prefilterStats().candidates_filtered, 0u);
}

TEST(SketchPrefilter, SingleScanReuseAndWarmScratch) {
  const auto genome = repeatGenome();
  auto rcfg = readsim::ReadSimConfig::pacbioClr(40, 2'000);
  rcfg.seed = 8;
  const auto fastx = toFastx(readsim::simulateReads(genome, rcfg));

  MappingPipeline pipe(refmodel::Reference("ref", std::string(genome)),
                       primaryOnlyConfig(PrefilterMode::kSketch));
  (void)pipe.mapBatch(fastx);
  const auto& pf = pipe.prefilterStats();
  EXPECT_GT(pf.reads_sketched, 0u);
  EXPECT_GT(pf.windows_sketched, 0u);
  // Reads reuse the seeding scan's minimizers and windows sketch from the
  // index table: the sketch layer never scans a sequence in the pipeline.
  EXPECT_EQ(pf.sequence_scans, 0u);

  // Steady state: a second pass over the same batch grows nothing.
  const std::uint64_t warm_grow = pf.scratch_grow_events;
  (void)pipe.mapBatch(fastx);
  EXPECT_EQ(pipe.prefilterStats().scratch_grow_events, warm_grow);
}

TEST(SketchPrefilter, OffByDefaultAndStatsStayZero) {
  PipelineConfig cfg;
  EXPECT_EQ(cfg.prefilter.mode, PrefilterMode::kOff);
  const auto genome = repeatGenome();
  auto rcfg = readsim::ReadSimConfig::pacbioClr(10, 2'000);
  rcfg.seed = 9;
  MappingPipeline pipe(refmodel::Reference("ref", std::string(genome)),
                       primaryOnlyConfig(PrefilterMode::kOff));
  (void)pipe.mapBatch(toFastx(readsim::simulateReads(genome, rcfg)));
  const auto& pf = pipe.prefilterStats();
  EXPECT_EQ(pf.reads_sketched, 0u);
  EXPECT_EQ(pf.windows_sketched, 0u);
  EXPECT_EQ(pf.candidates_seen, 0u);
  EXPECT_EQ(pf.candidates_filtered, 0u);
}

}  // namespace
}  // namespace gx::pipeline
