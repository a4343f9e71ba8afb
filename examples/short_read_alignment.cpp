// Short-read batch alignment: Illumina-class reads aligned with the
// unified AlignmentEngine and cross-checked against other registered
// backends — demonstrating the paper's claim that the implementations
// handle "both short and long reads", plus multi-threaded batching.
//
//   ./build/examples/short_read_alignment [reads] [threads]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "genasmx/common/verify.hpp"
#include "genasmx/engine/engine.hpp"
#include "genasmx/mapper/mapper.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace gx;
  const std::size_t n_reads =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 500;
  const std::size_t n_threads =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 0;

  readsim::GenomeConfig gcfg;
  gcfg.length = 400'000;
  const auto genome = readsim::generateGenome(gcfg);
  const auto reads = readsim::simulateReads(
      genome, readsim::ReadSimConfig::illumina(n_reads, 150));
  mapper::Mapper mapper{std::string(genome)};

  // Build (target, query) pairs from the best candidate of each read.
  std::vector<mapper::AlignmentPair> pairs;
  for (const auto& r : reads) {
    auto rp = mapper::buildAlignmentPairs(mapper, r.seq, 1);
    for (auto& p : rp) pairs.push_back(std::move(p));
  }
  std::printf("aligning %zu short-read pairs (150 bp, ~0.3%% error)\n",
              pairs.size());

  // Windowed improved GenASM across the engine's thread pool. 150 bp
  // reads march through overlapping windows like long reads do; each
  // worker packs the current windows of its pairs into SIMD lanes.
  engine::EngineConfig ec;
  ec.backend = "windowed-improved";
  ec.threads = n_threads;
  engine::AlignmentEngine eng(ec);
  util::Timer timer;
  const auto results = eng.alignBatch(pairs);
  const double genasm_s = timer.seconds();

  // Cross-check against the Edlib-class backend and verify every CIGAR.
  const auto myers_aligner = engine::makeAligner("myers");
  std::size_t verified = 0, optimal = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (!results[i].ok) continue;
    const auto v = common::verifyAlignment(pairs[i].target, pairs[i].query,
                                           results[i].cigar);
    verified += v.valid;
    optimal += results[i].edit_distance ==
               myers_aligner->distance(pairs[i].target, pairs[i].query);
  }
  std::printf("windowed GenASM (x%zu threads): %.3fs (%.0f pairs/s)\n",
              eng.threads(), genasm_s,
              static_cast<double>(pairs.size()) / genasm_s);
  std::printf("verified CIGARs : %zu/%zu\n", verified, pairs.size());
  std::printf("optimal cost    : %zu/%zu (equal to the exact myers cost)\n",
              optimal, pairs.size());

  // Affine scoring view of the same pairs (KSW2-class backend).
  const auto ksw_aligner = engine::makeAligner("ksw");
  timer.reset();
  long long total_score = 0;
  for (const auto& p : pairs) {
    total_score += ksw_aligner->align(p.target, p.query).score;
  }
  std::printf("KSW2-class affine pass: %.3fs, mean score %.1f\n",
              timer.seconds(),
              static_cast<double>(total_score) /
                  static_cast<double>(pairs.size()));
  return 0;
}
