#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <string>

#include "genasmx/common/sequence.hpp"
#include "genasmx/mapper/chain.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/index_view.hpp"
#include "genasmx/mapper/mapper.hpp"
#include "genasmx/mapper/minimizer.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/util/prng.hpp"
#include "genasmx/util/thread_pool.hpp"

namespace gx::mapper {
namespace {

std::string testGenome(std::size_t len = 300'000, std::uint64_t seed = 11) {
  readsim::GenomeConfig cfg;
  cfg.length = len;
  cfg.seed = seed;
  cfg.repeat_fraction = 0.05;
  return readsim::generateGenome(cfg);
}

// -------------------------------------------------------------- minimizers

TEST(Minimizer, BasicProperties) {
  util::Xoshiro256 rng(1);
  const auto seq = common::randomSequence(rng, 10'000);
  const auto mins = extractMinimizers(seq, 15, 10);
  ASSERT_FALSE(mins.empty());
  // Density: roughly 2/(w+1) of positions.
  const double density =
      static_cast<double>(mins.size()) / static_cast<double>(seq.size());
  EXPECT_GT(density, 0.10);
  EXPECT_LT(density, 0.30);
  // Positions strictly increasing, in range.
  for (std::size_t i = 1; i < mins.size(); ++i) {
    EXPECT_LT(mins[i - 1].pos, mins[i].pos);
  }
  EXPECT_LE(mins.back().pos + 15, seq.size());
}

TEST(Minimizer, DeterministicAndSubstringConsistent) {
  util::Xoshiro256 rng(2);
  const auto seq = common::randomSequence(rng, 5'000);
  const auto a = extractMinimizers(seq, 15, 10);
  const auto b = extractMinimizers(seq, 15, 10);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].pos, b[i].pos);
  }
}

TEST(Minimizer, StrandSymmetry) {
  // Canonical k-mers: a sequence and its reverse complement share keys.
  util::Xoshiro256 rng(3);
  const auto seq = common::randomSequence(rng, 2'000);
  const auto rc = common::reverseComplement(seq);
  auto keys_f = extractMinimizers(seq, 15, 10);
  auto keys_r = extractMinimizers(rc, 15, 10);
  std::vector<std::uint64_t> kf, kr;
  for (const auto& m : keys_f) kf.push_back(m.key);
  for (const auto& m : keys_r) kr.push_back(m.key);
  std::sort(kf.begin(), kf.end());
  std::sort(kr.begin(), kr.end());
  // The two sets are (near-)identical: window boundaries can differ
  // slightly at the ends, but the overwhelming majority must agree.
  std::vector<std::uint64_t> common_keys;
  std::set_intersection(kf.begin(), kf.end(), kr.begin(), kr.end(),
                        std::back_inserter(common_keys));
  EXPECT_GT(common_keys.size() * 10, kf.size() * 9);
}

/// The (w,k)-minimizer definition, computed by rescanning every window
/// from scratch: the minimal canonical key, the newest position among
/// equal keys, one emission per run of identical picks.
std::vector<Minimizer> bruteForceMinimizers(std::string_view seq, int k,
                                            int w) {
  std::vector<Minimizer> kmers;
  for (std::size_t pos = 0; pos + k <= seq.size(); ++pos) {
    std::uint64_t fwd = 0, rev = 0;
    for (int j = 0; j < k; ++j) {
      const std::uint64_t code = common::baseCode(seq[pos + j]);
      fwd = (fwd << 2) | code;
      rev |= (3 ^ code) << (2 * j);
    }
    const bool use_rev = rev < fwd;
    kmers.push_back(Minimizer{hash64(use_rev ? rev : fwd),
                              static_cast<std::uint32_t>(pos), use_rev});
  }
  std::vector<Minimizer> out;
  const auto wz = static_cast<std::size_t>(w);
  for (std::size_t last = wz - 1; last < kmers.size(); ++last) {
    Minimizer best = kmers[last + 1 - wz];
    for (std::size_t p = last + 2 - wz; p <= last; ++p) {
      if (kmers[p].key <= best.key) best = kmers[p];
    }
    if (out.empty() || out.back().pos != best.pos) out.push_back(best);
  }
  return out;
}

/// Whether extractMinimizers(seq, k, w) equals the brute-force scan.
void expectBruteForcePicks(std::string_view seq, int k, int w,
                           const std::string& what) {
  const auto fast = extractMinimizers(seq, k, w);
  const auto ref = bruteForceMinimizers(seq, k, w);
  ASSERT_EQ(fast.size(), ref.size()) << what << " k=" << k << " w=" << w;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(fast[i].key, ref[i].key) << what << " k=" << k << " w=" << w;
    ASSERT_EQ(fast[i].pos, ref[i].pos) << what << " k=" << k << " w=" << w;
    ASSERT_EQ(fast[i].reverse, ref[i].reverse)
        << what << " k=" << k << " w=" << w;
  }
}

TEST(Minimizer, MatchesBruteForceWindowScan) {
  // Tandem repeats shorter than the window put equal keys in one window,
  // so the newest-of-equal tie rule is exercised, not just the minimum.
  util::Xoshiro256 rng(8);
  std::string mixed = common::randomSequence(rng, 1'500);
  mixed += std::string(300, 'A');
  for (int i = 0; i < 60; ++i) mixed += "ACGTTG";
  for (int i = 0; i < 80; ++i) mixed += "AC";
  mixed += std::string(40, 'N') + common::randomSequence(rng, 500);

  // Lowercase bases (whole runs and mixed case), then every byte value
  // that is not one of ACGTacgt, each between random bases.
  std::string odd = common::randomSequence(rng, 400);
  for (char& c : odd) c = static_cast<char>(c - 'A' + 'a');
  std::string mixed_case = common::randomSequence(rng, 400);
  for (std::size_t i = 0; i < mixed_case.size(); i += 3) {
    mixed_case[i] = static_cast<char>(mixed_case[i] - 'A' + 'a');
  }
  odd += mixed_case;
  for (int b = 0; b < 256; ++b) {
    if (std::string_view("ACGTacgt").find(static_cast<char>(b)) !=
        std::string_view::npos) {
      continue;
    }
    odd += static_cast<char>(b);
    odd += common::randomSequence(rng, 1 + rng.below(4));
  }

  // A 10 kb read at ~10% error (PacBio-CLR-like mix).
  const refmodel::Reference genome("ref", testGenome(50'000, 19));
  auto rcfg = readsim::ReadSimConfig::pacbioClr(1, 10'000);
  rcfg.seed = 23;
  const std::string read = readsim::simulateReads(genome, rcfg).at(0).seq;

  for (const auto& [k, w] : {std::pair{15, 10}, std::pair{5, 3},
                             std::pair{11, 16}, std::pair{4, 1},
                             std::pair{21, 7}}) {
    expectBruteForcePicks(mixed, k, w, "mixed");
    expectBruteForcePicks(odd, k, w, "odd bytes");
    expectBruteForcePicks(read, k, w, "10 kb read");
  }
  for (const auto& [k, w] : {std::pair{31, 2}, std::pair{19, 25},
                             std::pair{8, 5}, std::pair{27, 12}}) {
    expectBruteForcePicks(read, k, w, "10 kb read");
    expectBruteForcePicks(odd, k, w, "odd bytes");
  }
}

TEST(Minimizer, ShortSequenceAndValidation) {
  EXPECT_TRUE(extractMinimizers("ACGT", 15, 10).empty());
  EXPECT_THROW(extractMinimizers("ACGT", 2, 10), std::invalid_argument);
  EXPECT_THROW(extractMinimizers("ACGT", 40, 10), std::invalid_argument);
  EXPECT_THROW(extractMinimizers("ACGT", 15, 0), std::invalid_argument);
}

// -------------------------------------------------------------------- index

/// Whether `hits` (packed lookup values) hold position `pos`.
bool hitsContain(std::span<const std::uint64_t> hits, std::size_t pos) {
  return std::any_of(hits.begin(), hits.end(), [&](std::uint64_t packed) {
    return IndexHit::unpack(packed).pos == pos;
  });
}

TEST(Index, LookupFindsIndexedPositions) {
  const refmodel::Reference ref("ref", testGenome(100'000));
  MinimizerIndex index;
  index.build(ref, 15, 10, 1'000);
  const IndexView view = index.view(ref);
  const auto mins = extractMinimizers(ref.view(), 15, 10);
  ASSERT_FALSE(mins.empty());
  // Every indexed minimizer must be findable at its own position.
  for (std::size_t i = 0; i < mins.size(); i += 97) {
    EXPECT_TRUE(hitsContain(view.lookup(mins[i].key), mins[i].pos))
        << "minimizer " << i;
  }
}

TEST(Index, UnknownKeyReturnsEmpty) {
  const refmodel::Reference ref("ref", testGenome(50'000));
  MinimizerIndex index;
  index.build(ref, 15, 10, 64);
  EXPECT_TRUE(index.view(ref).lookup(0xdeadbeefcafef00dULL).empty());
}

TEST(Index, OccurrenceCapMasksRepeats) {
  // A genome that is one repeated unit: high-occurrence minimizers.
  std::string unit;
  util::Xoshiro256 rng(4);
  unit = common::randomSequence(rng, 500);
  std::string genome;
  for (int i = 0; i < 100; ++i) genome += unit;
  MinimizerIndex capped, uncapped;
  capped.build(genome, 15, 10, 8);
  uncapped.build(genome, 15, 10, 1'000'000);
  EXPECT_LT(capped.size(), uncapped.size() / 4);
}

// -------------------------------------------------------------------- chain

TEST(Chain, PerfectColinearAnchorsFormOneChain) {
  std::vector<Anchor> anchors;
  for (std::uint32_t i = 0; i < 20; ++i) {
    anchors.push_back(Anchor{i * 40, 5'000 + i * 40});
  }
  ChainParams params;
  const auto chains = chainAnchors(anchors, params);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].anchors, 20);
  EXPECT_EQ(chains[0].ref_begin, 5'000u);
  EXPECT_EQ(chains[0].read_begin, 0u);
}

TEST(Chain, TwoLociFormTwoChains) {
  std::vector<Anchor> anchors;
  for (std::uint32_t i = 0; i < 10; ++i) {
    anchors.push_back(Anchor{i * 40, 5'000 + i * 40});
    anchors.push_back(Anchor{i * 40, 150'000 + i * 40});
  }
  ChainParams params;
  const auto chains = chainAnchors(anchors, params);
  ASSERT_EQ(chains.size(), 2u);  // -P behaviour: both loci reported
  EXPECT_EQ(chains[0].anchors, 10);
  EXPECT_EQ(chains[1].anchors, 10);
}

TEST(Chain, MinAnchorsFiltersNoise) {
  std::vector<Anchor> anchors = {{100, 900}, {50'000, 200'000}};
  ChainParams params;
  params.min_anchors = 3;
  EXPECT_TRUE(chainAnchors(anchors, params).empty());
}

TEST(Chain, EmptyInput) {
  EXPECT_TRUE(chainAnchors({}, ChainParams{}).empty());
}

/// The chaining DP as a full scan: every predecessor in the lookback
/// window is visited (out-of-reach ones are skipped with `continue`),
/// and the gain is computed in integers and converted per pair. The
/// reference chainAnchors must reproduce bit for bit.
std::vector<Chain> fullScanChains(std::vector<Anchor> anchors,
                                  const ChainParams& params) {
  std::vector<Chain> chains;
  const std::size_t n = anchors.size();
  if (n == 0) return chains;
  std::sort(anchors.begin(), anchors.end(), [](const Anchor& a, const Anchor& b) {
    return a.ref_pos != b.ref_pos ? a.ref_pos < b.ref_pos
                                  : a.read_pos < b.read_pos;
  });

  std::vector<double> f(n);
  std::vector<std::int64_t> parent(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = params.kmer;  // chain of just this anchor
    const std::size_t j0 =
        i > static_cast<std::size_t>(params.lookback)
            ? i - static_cast<std::size_t>(params.lookback)
            : 0;
    for (std::size_t j = i; j-- > j0;) {
      const std::int64_t dr = static_cast<std::int64_t>(anchors[i].ref_pos) -
                              anchors[j].ref_pos;
      const std::int64_t dq = static_cast<std::int64_t>(anchors[i].read_pos) -
                              anchors[j].read_pos;
      if (anchors[i].contig != anchors[j].contig) continue;
      if (dr <= 0 || dq <= 0) continue;
      if (dr > params.max_gap || dq > params.max_gap) continue;
      const double gap_cost =
          params.gap_scale * static_cast<double>(std::llabs(dr - dq));
      const double gain =
          static_cast<double>(std::min<std::int64_t>(
              {dr, dq, static_cast<std::int64_t>(params.kmer)})) -
          gap_cost;
      const double cand = f[j] + gain;
      if (cand > f[i]) {
        f[i] = cand;
        parent[i] = static_cast<std::int64_t>(j);
      }
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return f[a] > f[b]; });
  std::vector<bool> used(n, false);
  std::vector<std::size_t> members;
  for (std::size_t oi : order) {
    if (used[oi]) continue;
    members.clear();
    std::int64_t cur = static_cast<std::int64_t>(oi);
    while (cur >= 0) {
      if (used[static_cast<std::size_t>(cur)]) break;
      members.push_back(static_cast<std::size_t>(cur));
      cur = parent[static_cast<std::size_t>(cur)];
    }
    for (std::size_t m : members) used[m] = true;
    if (members.size() < static_cast<std::size_t>(params.min_anchors)) continue;
    Chain c;
    c.score = f[oi];
    c.anchors = static_cast<int>(members.size());
    const Anchor& first = anchors[members.back()];
    const Anchor& last = anchors[members.front()];
    c.read_begin = first.read_pos;
    c.read_end = last.read_pos + static_cast<std::uint32_t>(params.kmer);
    c.ref_begin = first.ref_pos;
    c.ref_end = last.ref_pos + static_cast<std::uint32_t>(params.kmer);
    c.contig = first.contig;
    chains.push_back(c);
  }
  return chains;
}

/// Anchor sets for the chaining oracle, over three contigs tiling the
/// global coordinates [0, 100k), [100k, 250k), [250k, 400k); every
/// anchor's contig follows from its ref_pos, as the mapper's do.
class AnchorSets {
 public:
  explicit AnchorSets(std::uint64_t seed) : rng_(seed) {}

  std::uint32_t contigOf(std::uint32_t ref) const {
    return ref < 100'000 ? 0 : ref < 250'000 ? 1 : 2;
  }
  void add(std::vector<Anchor>& out, std::uint32_t read, std::uint32_t ref) {
    out.push_back(Anchor{read, ref, contigOf(ref)});
  }
  /// `count` anchors from (read, ref) on, each gap `step` +- 10% jitter,
  /// drawn independently on the read and on the reference.
  void run(std::vector<Anchor>& out, std::uint32_t read, std::uint32_t ref,
           int count, int step) {
    for (int a = 0; a < count; ++a) {
      add(out, read, ref);
      read += jittered(step);
      ref += jittered(step);
    }
  }
  std::uint32_t jittered(int step) {
    const int spread = std::max(1, step / 10);
    return static_cast<std::uint32_t>(
        step - spread + static_cast<int>(rng_.below(2 * spread + 1)));
  }
  util::Xoshiro256& rng() { return rng_; }

 private:
  util::Xoshiro256 rng_;
};

void expectSameChains(const std::vector<Anchor>& anchors,
                      const ChainParams& params, const std::string& what) {
  std::vector<Anchor> sorted = anchors;
  ChainScratch scratch;
  std::vector<Chain> got;
  chainAnchors(sorted, params, scratch, got);
  const std::vector<Chain> want = fullScanChains(anchors, params);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[c].score),
              std::bit_cast<std::uint64_t>(want[c].score))
        << what << " chain " << c;
    EXPECT_EQ(got[c].read_begin, want[c].read_begin) << what << " chain " << c;
    EXPECT_EQ(got[c].read_end, want[c].read_end) << what << " chain " << c;
    EXPECT_EQ(got[c].ref_begin, want[c].ref_begin) << what << " chain " << c;
    EXPECT_EQ(got[c].ref_end, want[c].ref_end) << what << " chain " << c;
    EXPECT_EQ(got[c].contig, want[c].contig) << what << " chain " << c;
    EXPECT_EQ(got[c].anchors, want[c].anchors) << what << " chain " << c;
  }
}

TEST(Chain, MatchesFullScanReference) {
  AnchorSets sets(2024);
  util::Xoshiro256& rng = sets.rng();
  std::vector<std::pair<std::string, std::vector<Anchor>>> inputs;

  std::vector<Anchor> sparse;
  for (int a = 0; a < 600; ++a) {
    sets.add(sparse, static_cast<std::uint32_t>(rng.below(10'000)),
             static_cast<std::uint32_t>(rng.below(400'000)));
  }
  inputs.emplace_back("sparse", sparse);

  std::vector<Anchor> dense;
  for (int r = 0; r < 12; ++r) {
    sets.run(dense, static_cast<std::uint32_t>(rng.below(2'000)),
             static_cast<std::uint32_t>(rng.below(390'000)),
             40 + static_cast<int>(rng.below(160)),
             10 + static_cast<int>(rng.below(60)));
  }
  for (int a = 0; a < 200; ++a) {  // noise between the runs
    sets.add(dense, static_cast<std::uint32_t>(rng.below(10'000)),
             static_cast<std::uint32_t>(rng.below(400'000)));
  }
  inputs.emplace_back("dense runs", dense);

  // Runs stepping near kmer: with gap_scale 0 every score is an integer
  // and many predecessors tie within one unit of the score bound.
  std::vector<Anchor> tight;
  for (int r = 0; r < 8; ++r) {
    sets.run(tight, static_cast<std::uint32_t>(rng.below(500)),
             40'000 + static_cast<std::uint32_t>(rng.below(3'000)),
             60 + static_cast<int>(rng.below(60)),
             5 + static_cast<int>(rng.below(20)));
  }
  inputs.emplace_back("tight runs", tight);

  // A cloud: anchors scattered over a small read x reference box, so
  // predecessors lie on many diagonals (large |dr - dq|).
  std::vector<Anchor> cloud;
  for (int a = 0; a < 400; ++a) {
    sets.add(cloud, static_cast<std::uint32_t>(rng.below(3'000)),
             300'000 + static_cast<std::uint32_t>(rng.below(3'000)));
  }
  inputs.emplace_back("cloud", cloud);

  // Tandem duplicates: repeated ref_pos with shifted read positions (a
  // short tandem repeat in the read), plus exact duplicate anchors.
  std::vector<Anchor> tandem;
  for (std::uint32_t a = 0; a < 120; ++a) {
    const std::uint32_t ref = 20'000 + 25 * a;
    sets.add(tandem, 40 * a, ref);
    sets.add(tandem, 40 * a + 12, ref);
    if (a % 3 == 0) sets.add(tandem, 40 * a, ref);
  }
  inputs.emplace_back("tandem duplicates", tandem);

  // Neighbours exactly max_gap and max_gap + 1 apart, on the reference,
  // on the read, and on both.
  const std::uint32_t g = ChainParams{}.max_gap;
  std::vector<Anchor> gaps;
  for (std::uint32_t a = 0; a < 5; ++a) {
    sets.add(gaps, a * g, 30'000 + a * g);                     // both at g
    sets.add(gaps, 100 + a * (g + 1), 60'000 + a * (g + 1));   // both at g+1
    sets.add(gaps, 200 + a * 40, 110'000 + a * g);             // ref at g
    sets.add(gaps, 300 + a * 40, 140'000 + a * (g + 1));       // ref at g+1
    sets.add(gaps, 400 + a * g, 170'000 + a * 40);             // read at g
    sets.add(gaps, 500 + a * (g + 1), 200'000 + a * 40);       // read at g+1
  }
  inputs.emplace_back("max_gap boundary", gaps);

  // Co-linear runs straddling both contig boundaries.
  std::vector<Anchor> cross;
  sets.run(cross, 0, 100'000 - 600, 60, 20);
  sets.run(cross, 5'000, 250'000 - 300, 40, 15);
  inputs.emplace_back("cross-contig", cross);

  // Equal-score ties: one spacing pattern copied to four loci.
  std::vector<Anchor> ties;
  std::vector<std::uint32_t> steps;
  for (int a = 0; a < 30; ++a) steps.push_back(sets.jittered(30));
  for (const std::uint32_t base : {15'000u, 120'000u, 260'000u, 330'000u}) {
    std::uint32_t read = 0, ref = base;
    for (const std::uint32_t step : steps) {
      sets.add(ties, read, ref);
      read += step;
      ref += step;
    }
  }
  inputs.emplace_back("equal-score ties", ties);

  std::vector<std::pair<std::string, ChainParams>> param_sets;
  param_sets.emplace_back("default", ChainParams{});
  ChainParams p;
  p.lookback = 5;
  param_sets.emplace_back("lookback 5", p);
  p = ChainParams{};
  p.lookback = 400;
  param_sets.emplace_back("lookback 400", p);
  p = ChainParams{};
  p.max_gap = 60;
  param_sets.emplace_back("max_gap 60", p);
  p = ChainParams{};
  p.gap_scale = 0;
  param_sets.emplace_back("gap_scale 0", p);
  p = ChainParams{};
  p.gap_scale = -0.02;  // gains above kmer: no score bound applies
  param_sets.emplace_back("gap_scale -0.02", p);
  p = ChainParams{};
  p.min_anchors = 1;
  p.kmer = 11;
  param_sets.emplace_back("min_anchors 1, kmer 11", p);

  for (const auto& [input_name, anchors] : inputs) {
    for (const auto& [param_name, params] : param_sets) {
      expectSameChains(anchors, params, input_name + " / " + param_name);
    }
  }
}

// ------------------------------------------------------------------- mapper

TEST(Mapper, FindsTrueOriginOfSimulatedReads) {
  const auto genome = testGenome(300'000);
  Mapper mapper{std::string(genome)};
  auto rcfg = readsim::ReadSimConfig::pacbioClr(25, 3'000);
  const auto reads = readsim::simulateReads(genome, rcfg);
  int located = 0;
  for (const auto& r : reads) {
    const auto candidates = mapper.map(r.seq);
    for (const auto& c : candidates) {
      const bool overlaps = c.ref_begin < r.origin_pos + r.origin_len &&
                            r.origin_pos < c.ref_end;
      if (overlaps && c.reverse == r.reverse_strand) {
        ++located;
        break;
      }
    }
  }
  // 10%-error long reads must map reliably.
  EXPECT_GE(located, 23) << "of " << reads.size();
}

TEST(Mapper, BestCandidateCoversMostOfTheRead) {
  const auto genome = testGenome(200'000, 13);
  Mapper mapper{std::string(genome)};
  auto rcfg = readsim::ReadSimConfig::pacbioClr(10, 2'000);
  rcfg.both_strands = false;
  const auto reads = readsim::simulateReads(genome, rcfg);
  for (const auto& r : reads) {
    const auto candidates = mapper.map(r.seq);
    ASSERT_FALSE(candidates.empty());
    const auto& best = candidates.front();
    const std::size_t span = best.ref_end - best.ref_begin;
    EXPECT_GT(span, r.seq.size() / 2);
    EXPECT_LT(span, r.seq.size() * 2);
  }
}

TEST(Mapper, RepeatsYieldMultipleCandidates) {
  // Heavy repeats: reads from a repeat land in several places (-P shape).
  readsim::GenomeConfig gcfg;
  gcfg.length = 200'000;
  gcfg.repeat_fraction = 0.5;
  gcfg.repeat_unit = 5'000;
  gcfg.repeat_divergence = 0.01;
  gcfg.seed = 17;
  const auto genome = readsim::generateGenome(gcfg);
  Mapper mapper{std::string(genome)};
  auto rcfg = readsim::ReadSimConfig::pacbioClr(20, 2'000);
  rcfg.seed = 5;
  const auto reads = readsim::simulateReads(genome, rcfg);
  std::size_t total_candidates = 0;
  for (const auto& r : reads) {
    total_candidates += mapper.map(r.seq).size();
  }
  EXPECT_GT(total_candidates, reads.size());  // secondaries exist
}

TEST(Mapper, BuildAlignmentPairsOrientsQueries) {
  const auto genome = testGenome(150'000, 19);
  Mapper mapper{std::string(genome)};
  auto rcfg = readsim::ReadSimConfig::pacbioClr(6, 1'500);
  const auto reads = readsim::simulateReads(genome, rcfg);
  for (const auto& r : reads) {
    const auto pairs = buildAlignmentPairs(mapper, r.seq, 3);
    for (const auto& p : pairs) {
      EXPECT_FALSE(p.target.empty());
      EXPECT_EQ(p.query.size(), r.seq.size());
    }
  }
}

// ------------------------------------------------------- multi-contig

refmodel::Reference multiContigRef(std::uint64_t seed = 71) {
  refmodel::Reference ref;
  readsim::GenomeConfig gcfg;
  gcfg.repeat_fraction = 0.05;
  const std::size_t lens[] = {60'000, 140'000, 90'000};
  for (std::size_t c = 0; c < 3; ++c) {
    gcfg.length = lens[c];
    gcfg.seed = seed + c;
    ref.addContig("chr" + std::to_string(c + 1),
                  readsim::generateGenome(gcfg));
  }
  return ref;
}

TEST(Index, ParallelBuildIsIdenticalToSerial) {
  const auto ref = multiContigRef();
  MinimizerIndex serial, parallel;
  serial.build(ref, 15, 10, 64, nullptr);
  util::ThreadPool pool(4);
  parallel.build(ref, 15, 10, 64, &pool);
  EXPECT_TRUE(serial == parallel);
  EXPECT_GT(serial.size(), 0u);
  // Shard stats line up with the contig table.
  ASSERT_EQ(serial.perContigKept().size(), 3u);
  std::size_t total = 0;
  for (const std::size_t n : serial.perContigKept()) total += n;
  EXPECT_EQ(total, serial.size());
}

TEST(Index, BlockSplitExtractionIsIdenticalToMonolithic) {
  // Block-split extraction of one sequence reproduces the monolithic
  // pick sequence exactly: the warm-up window reconstructs the
  // duplicate-suppression state across every block boundary.
  readsim::GenomeConfig gcfg;
  gcfg.length = 50'000;
  gcfg.seed = 99;
  gcfg.repeat_fraction = 0.3;  // repeats stress the suppression state
  const auto genome = readsim::generateGenome(gcfg);
  const auto whole = extractMinimizers(genome, 15, 10);
  for (const std::size_t block : {1'000UL, 4'096UL, 49'999UL}) {
    std::vector<Minimizer> stitched;
    for (std::size_t start = 0; start < genome.size(); start += block) {
      const std::size_t end = std::min(genome.size(), start + block);
      const std::size_t tstart = start >= 10 ? start - 10 : 0;
      const std::size_t tend = std::min(genome.size(), end + 14);
      const auto part =
          extractMinimizers(std::string_view(genome).substr(tstart,
                                                            tend - tstart),
                            15, 10, start - tstart);
      for (Minimizer m : part) {
        m.pos += static_cast<std::uint32_t>(tstart);
        stitched.push_back(m);
      }
    }
    ASSERT_EQ(stitched.size(), whole.size()) << "block=" << block;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(stitched[i].key, whole[i].key) << i;
      EXPECT_EQ(stitched[i].pos, whole[i].pos) << i;
      EXPECT_EQ(stitched[i].reverse, whole[i].reverse) << i;
    }
  }
}

TEST(Index, LargeContigBlockBuildIsIdenticalAcrossBlockSizesAndPools) {
  // A single-contig reference: the build must fan out over blocks and
  // still produce a bit-identical index for every (block size, pool)
  // schedule, including the no-split monolithic build.
  readsim::GenomeConfig gcfg;
  gcfg.length = 120'000;
  gcfg.seed = 123;
  gcfg.repeat_fraction = 0.25;
  refmodel::Reference ref;
  ref.addContig("chrOnly", readsim::generateGenome(gcfg));

  MinimizerIndex mono;
  mono.build(ref, 15, 10, 64, nullptr, /*block_bp=*/0);
  EXPECT_GT(mono.size(), 0u);
  util::ThreadPool pool(4);
  for (const std::size_t block : {3'000UL, 10'000UL, 1UL << 18}) {
    MinimizerIndex serial, parallel;
    serial.build(ref, 15, 10, 64, nullptr, block);
    parallel.build(ref, 15, 10, 64, &pool, block);
    EXPECT_TRUE(mono == serial) << "block=" << block;
    EXPECT_TRUE(serial == parallel) << "block=" << block;
  }
  // Per-contig stats still line up after block accumulation.
  ASSERT_EQ(mono.perContigKept().size(), 1u);
  EXPECT_EQ(mono.perContigKept()[0], mono.size());
}

TEST(Index, MultiContigBuildNeverEmitsCrossBoundarySeeds) {
  // Contig-sharded extraction vs flat extraction over the concatenation:
  // the only missing minimizers must be boundary-window artifacts, and
  // every kept position must lie >= k inside its own contig's end.
  const auto ref = multiContigRef(5);
  MinimizerIndex index;
  index.build(ref, 15, 10, 1'000'000);
  const IndexView view = index.view(ref);
  for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
    const auto mins = extractMinimizers(ref.contigView(c), 15, 10);
    for (std::size_t i = 0; i < mins.size(); i += 101) {
      const std::size_t global = ref.contig(c).offset + mins[i].pos;
      EXPECT_TRUE(hitsContain(view.lookup(mins[i].key), global))
          << "contig " << c << " minimizer " << i;
    }
  }
}

TEST(Chain, CrossContigAnchorsNeverChainTogether) {
  // Perfectly co-linear anchors in global coordinates, but the second
  // half belongs to another contig: one chain per contig, never one
  // spanning both.
  std::vector<Anchor> anchors;
  for (std::uint32_t i = 0; i < 10; ++i) {
    anchors.push_back(Anchor{i * 40, 5'000 + i * 40, 0});
    anchors.push_back(Anchor{(i + 10) * 40, 5'400 + i * 40, 1});
  }
  const auto chains = chainAnchors(anchors, ChainParams{});
  ASSERT_EQ(chains.size(), 2u);
  for (const auto& c : chains) {
    EXPECT_EQ(c.anchors, 10);
    EXPECT_TRUE(c.contig == 0 || c.contig == 1);
  }
  EXPECT_NE(chains[0].contig, chains[1].contig);
}

TEST(Mapper, MultiContigCandidatesStayInBoundsAndFindOrigins) {
  const auto ref = multiContigRef();
  Mapper mapper{ref};
  auto rcfg = readsim::ReadSimConfig::pacbioClr(40, 2'500);
  rcfg.seed = 3;
  const auto reads = readsim::simulateReads(ref, rcfg);
  int located = 0;
  for (const auto& r : reads) {
    const auto candidates = mapper.map(r.seq);
    for (const auto& c : candidates) {
      // No candidate window ever leaves its contig.
      ASSERT_LT(c.contig, ref.contigCount());
      EXPECT_LE(c.ref_end, ref.contig(c.contig).length);
      EXPECT_LE(c.ref_begin, c.ref_end);
      EXPECT_EQ(mapper.candidateText(c).size(), c.ref_end - c.ref_begin);
    }
    const bool hit = std::any_of(
        candidates.begin(), candidates.end(), [&](const Candidate& c) {
          return c.contig == r.origin_contig &&
                 c.ref_begin < r.origin_pos + r.origin_len &&
                 r.origin_pos < c.ref_end && c.reverse == r.reverse_strand;
        });
    located += hit;
  }
  EXPECT_GE(located * 100, static_cast<int>(reads.size()) * 90)
      << located << " of " << reads.size();
}

TEST(Mapper, BoundaryReadsMapToTheirOwnContig) {
  // Exact-copy reads taken flush against every contig boundary: each
  // must come back as a candidate on its own contig, in bounds.
  const auto ref = multiContigRef(29);
  Mapper mapper{ref};
  const std::size_t rl = 1'200;
  for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
    const auto text = ref.contigView(c);
    const std::string suffix(text.substr(text.size() - rl));
    const std::string prefix(text.substr(0, rl));
    for (const auto& [read, where] :
         {std::pair{suffix, text.size() - rl}, std::pair{prefix, 0ul}}) {
      const auto candidates = mapper.map(read);
      ASSERT_FALSE(candidates.empty()) << "contig " << c;
      const auto& best = candidates.front();
      EXPECT_EQ(best.contig, c);
      EXPECT_FALSE(best.reverse);
      EXPECT_LE(best.ref_end, ref.contig(c).length);
      // The window overlaps the true span.
      EXPECT_LT(best.ref_begin, where + rl);
      EXPECT_LT(where, best.ref_end);
    }
  }
}

TEST(Mapper, WarmSeedScratchMapsWithoutGrowingAndMatchesFreshScratch) {
  const auto ref = multiContigRef(37);
  const Mapper mapper{ref};
  auto rcfg = readsim::ReadSimConfig::pacbioClr(30, 2'500);
  rcfg.seed = 41;
  const auto reads = readsim::simulateReads(ref, rcfg);
  SeedScratch scratch;
  const auto pass = [&] {
    std::size_t candidates = 0;
    for (const auto& r : reads) {
      const auto reused = mapper.map(r.seq, scratch);
      // A reused scratch seeds exactly like a fresh one.
      const auto fresh = mapper.map(r.seq);
      EXPECT_EQ(scratch.minimizers().size(),
                extractMinimizers(r.seq, 15, 10).size());
      EXPECT_EQ(reused.size(), fresh.size()) << r.name;
      for (std::size_t i = 0; i < std::min(reused.size(), fresh.size());
           ++i) {
        EXPECT_EQ(reused[i].contig, fresh[i].contig) << r.name;
        EXPECT_EQ(reused[i].ref_begin, fresh[i].ref_begin) << r.name;
        EXPECT_EQ(reused[i].ref_end, fresh[i].ref_end) << r.name;
        EXPECT_EQ(reused[i].reverse, fresh[i].reverse) << r.name;
        EXPECT_EQ(reused[i].score, fresh[i].score) << r.name;
      }
      candidates += reused.size();
    }
    return candidates;
  };
  const std::size_t first = pass();
  EXPECT_GT(first, reads.size() / 2);
  const std::uint64_t warm = scratch.growEvents();
  EXPECT_GT(warm, 0u);  // the first pass did have to size the buffers
  EXPECT_EQ(pass(), first);
  EXPECT_EQ(scratch.growEvents(), warm) << "steady-state seed/chain grew";
}

TEST(Mapper, RandomReadYieldsNoConfidentCandidate) {
  const auto genome = testGenome(100'000, 23);
  Mapper mapper{std::string(genome)};
  util::Xoshiro256 rng(99);
  const auto junk = common::randomSequence(rng, 2'000);
  const auto candidates = mapper.map(junk);
  // A random 2 kb sequence should produce at most incidental hits.
  EXPECT_LE(candidates.size(), 2u);
}

}  // namespace
}  // namespace gx::mapper
