// E7 — Window-geometry design space (supporting experiment).
//
// GenASM's windowing makes three choices: window size W, overlap O, and
// text lookahead (core::WindowConfig). This sweep quantifies the
// accuracy/speed trade-off of each against the optimal (Edlib-class)
// cost, justifying the defaults W=64, O=24, lookahead=W/2.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "genasmx/engine/registry.hpp"

int main(int argc, char** argv) {
  using namespace gx;
  auto cfg = bench::WorkloadConfig::fromArgs(argc, argv);
  bench::printHeader("E7: window parameter sweep (bench_window_params)",
                     "design-space justification for W=64, O=24 defaults");
  const auto w = bench::buildWorkload(cfg);
  bench::printWorkload(cfg, w);

  // Optimal costs as the accuracy reference.
  const auto oracle = engine::makeAligner("myers");
  double optimal_total = 0;
  for (const auto& p : w.pairs) {
    optimal_total += oracle->align(p.target, p.query).edit_distance;
  }

  struct Geometry {
    int window;
    int overlap;
    int lookahead;  // -1 = default (W/2)
  };
  const std::vector<Geometry> sweep = {
      {32, 8, -1},   {32, 16, -1},  {48, 16, -1},  {64, 16, -1},
      {64, 24, -1},  {64, 24, 0},   {64, 24, 16},  {64, 24, 64},
      {64, 32, -1},  {64, 48, -1},  {96, 32, -1},  {128, 48, -1},
      {256, 96, -1},
  };

  std::printf("%-8s %-8s %-10s %10s %12s %14s\n", "W", "O", "lookahead",
              "seconds", "cost ratio", "alignments/s");
  for (const auto& g : sweep) {
    engine::AlignerConfig acfg;
    acfg.window.window = g.window;
    acfg.window.overlap = g.overlap;
    acfg.window.lookahead = g.lookahead;
    const auto aligner = engine::makeAligner("windowed-improved", acfg);
    double total_cost = 0;
    const double s = bench::timeIt([&] {
      for (const auto& p : w.pairs) {
        total_cost += aligner->align(p.target, p.query).edit_distance;
      }
    });
    std::printf("%-8d %-8d %-10d %10.3f %12.4f %14.1f\n", g.window, g.overlap,
                g.lookahead >= 0 ? g.lookahead : g.window / 2, s,
                total_cost / optimal_total,
                static_cast<double>(w.pairs.size()) / s);
  }
  std::printf(
      "\n'cost ratio' = windowed GenASM total edit cost / optimal cost "
      "(1.0 = exact).\nLookahead 0 reproduces the equal-window pathology "
      "(an indel skew costs a phantom insertion tail in every window, and "
      "a scatter path can derail the march); larger windows trade "
      "throughput for accuracy margin.\n");
  return 0;
}
