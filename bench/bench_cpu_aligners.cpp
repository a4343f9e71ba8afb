// E1 — CPU aligner comparison (the paper's first results group).
//
// Paper: "Our CPU implementation achieves a 15.2x, 1.7x, and 1.9x speedup
// over KSW2, Edlib, and a CPU implementation of GenASM without our
// improvements, respectively."
//
// This harness aligns the same candidate pairs with all four CPU
// aligners and prints measured throughput plus the three speedup rows in
// the paper's order. KSW2- and Edlib-class come from the
// engine::AlignerRegistry; the two GenASM rows time the paper's scalar
// windowed march (the baseline and the improved window solver) directly,
// so their ratio is the paper's baseline-vs-improved comparison. Absolute
// throughput depends on the host; the rows to compare are the ratios.

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.hpp"
#include "genasmx/engine/registry.hpp"

namespace {

struct Row {
  const char* label;
  const char* key;  ///< JSON key
  std::function<std::uint64_t()> run;  ///< aligns every pair; total cost
  double seconds = 0;
  std::uint64_t total_cost = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gx;
  auto cfg = bench::WorkloadConfig::fromArgs(argc, argv);
  if (!cfg.json_path.empty() && !cfg.quick) {
    // Same rule as bench_pipeline: the tracked JSON is only meaningful
    // on the fixed quick workload.
    std::fprintf(stderr,
                 "error: --json requires --quick (the tracked workload)\n");
    return 2;
  }
  if (cfg.quick) {
    // Fixed deterministic tracked workload (see tools/run_bench.sh);
    // sized so the scalar KSW2-class row still finishes in seconds.
    cfg.genome_len = 200'000;
    cfg.read_count = 20;
    cfg.read_length = 1'500;
    cfg.error_rate = 0.10;
    cfg.seed = 1234;
  }
  bench::printHeader("E1: CPU aligner throughput (bench_cpu_aligners)",
                     "improved GenASM CPU vs KSW2 15.2x, vs Edlib 1.7x, "
                     "vs unimproved GenASM 1.9x");
  const auto w = bench::buildWorkload(cfg);
  bench::printWorkload(cfg, w);

  engine::AlignerConfig acfg;
  acfg.ksw.band = 751;  // minimap2's long-read bandwidth regime

  const auto ksw = engine::makeAligner("ksw", acfg);
  const auto myers = engine::makeAligner("myers", acfg);
  genasm::BaselineWindowSolver<1> baseline;
  core::ImprovedWindowSolver<1> improved_solver;
  std::vector<Row> rows = {
      {"KSW2-class (banded affine)", "ksw",
       [&] { return bench::alignAll(*ksw, w.pairs); }},
      {"Edlib-class (Myers bitvector)", "myers",
       [&] { return bench::alignAll(*myers, w.pairs); }},
      {"GenASM baseline (MICRO'20)", "windowed-baseline",
       [&] { return bench::marchAll(baseline, w.pairs); }},
      {"GenASM improved (this paper)", "windowed-improved",
       [&] { return bench::marchAll(improved_solver, w.pairs); }},
  };
  for (auto& r : rows) {
    r.seconds = bench::timeIt([&] { r.total_cost = r.run(); });
  }

  std::printf("%-32s %12s %14s %12s\n", "aligner", "seconds",
              "alignments/s", "total cost");
  for (const auto& r : rows) {
    std::printf("%-32s %12.3f %14.1f %12llu\n", r.label, r.seconds,
                static_cast<double>(w.pairs.size()) / r.seconds,
                static_cast<unsigned long long>(r.total_cost));
  }

  const double improved = rows[3].seconds;
  std::printf("\n%-44s %10s %10s\n", "speedup of improved GenASM (CPU) over",
              "measured", "paper");
  std::printf("%-44s %9.1fx %9.1fx\n", "KSW2-class", rows[0].seconds / improved,
              15.2);
  std::printf("%-44s %9.1fx %9.1fx\n", "Edlib-class",
              rows[1].seconds / improved, 1.7);
  std::printf("%-44s %9.1fx %9.1fx\n", "GenASM baseline",
              rows[2].seconds / improved, 1.9);
  std::printf(
      "\nNote: single-thread measurements; alignment pairs are independent, "
      "so the paper's 48-thread ratios are preserved under thread scaling.\n");
  std::printf(
      "Note: the KSW2-class kernel is scalar (no SIMD striping), so the "
      "KSW2-class speedup exceeds one over KSW2 by that constant factor.\n");

  if (!cfg.json_path.empty()) {
    bench::JsonObject root;
    root.str("bench", "cpu_aligners")
        .str("mode", "quick")
        .num("pairs", static_cast<std::uint64_t>(w.pairs.size()))
        .num("aligned_bases", w.aligned_bases);
    for (const auto& r : rows) {
      bench::JsonObject o;
      o.num("seconds", r.seconds)
          .num("alignments_per_sec",
               r.seconds > 0
                   ? static_cast<double>(w.pairs.size()) / r.seconds
                   : 0.0)
          .num("total_cost", r.total_cost);
      root.obj(r.key, o);
    }
    root.num("speedup_vs_ksw", rows[0].seconds / improved)
        .num("speedup_vs_myers", rows[1].seconds / improved)
        .num("speedup_vs_baseline", rows[2].seconds / improved)
        .num("peak_rss_bytes", bench::peakRssBytes());
    if (!root.writeFile(cfg.json_path)) {
      std::fprintf(stderr, "error: cannot write %s\n", cfg.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", cfg.json_path.c_str());
  }
  return 0;
}
