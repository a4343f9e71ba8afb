// E8 — Read-length / error-rate series (supporting experiment).
//
// Paper: the implementations are "capable of aligning both short and
// long reads". This series runs every aligner across read lengths and
// error rates and prints the per-configuration throughput, showing where
// each aligner wins. KSW2- and Edlib-class come from the
// engine::AlignerRegistry; the GenASM columns time the paper's scalar
// windowed march with the baseline and the improved window solver.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "genasmx/engine/registry.hpp"

int main(int argc, char** argv) {
  using namespace gx;
  auto base_cfg = bench::WorkloadConfig::fromArgs(argc, argv);
  bench::printHeader("E8: read length / error rate series (bench_read_length)",
                     "improved GenASM serves both short and long reads");

  struct Point {
    std::size_t length;
    double error;
  };
  const std::vector<Point> points = {
      {100, 0.01}, {100, 0.05}, {250, 0.01}, {250, 0.05},
      {1'000, 0.05}, {1'000, 0.10}, {5'000, 0.10}, {5'000, 0.15},
  };
  std::printf("%-8s %-6s %8s | %12s %12s %12s %12s   (alignments/s)\n",
              "length", "err", "pairs", "KSW2-class", "Edlib-class",
              "GenASM-base", "GenASM-impr");
  for (const auto& pt : points) {
    bench::WorkloadConfig cfg = base_cfg;
    cfg.read_length = pt.length;
    cfg.error_rate = pt.error;
    cfg.read_count = pt.length >= 1'000 ? 10 : 60;
    cfg.genome_len = std::max<std::size_t>(200'000, pt.length * 40);
    const auto w = bench::buildWorkload(cfg);
    if (w.pairs.empty()) continue;
    const double n = static_cast<double>(w.pairs.size());

    engine::AlignerConfig acfg;
    acfg.ksw.band = pt.length >= 1'000 ? 751 : -1;

    const auto ksw = engine::makeAligner("ksw", acfg);
    const auto myers = engine::makeAligner("myers", acfg);
    genasm::BaselineWindowSolver<1> baseline;
    core::ImprovedWindowSolver<1> improved;
    const double rate[4] = {
        n / bench::timeIt([&] { (void)bench::alignAll(*ksw, w.pairs); }),
        n / bench::timeIt([&] { (void)bench::alignAll(*myers, w.pairs); }),
        n / bench::timeIt([&] { (void)bench::marchAll(baseline, w.pairs); }),
        n / bench::timeIt([&] { (void)bench::marchAll(improved, w.pairs); }),
    };
    std::printf("%-8zu %-6.2f %8zu | %12.1f %12.1f %12.1f %12.1f\n",
                pt.length, pt.error, w.pairs.size(), rate[0], rate[1],
                rate[2], rate[3]);
  }
  std::printf(
      "\nExpected shape: GenASM-improved leads at long lengths; at very "
      "short lengths all aligners are fast and differences compress.\n");
  return 0;
}
