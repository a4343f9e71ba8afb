// E5 — Ablation of the three improvements, CPU and simulated GPU.
//
// Paper observation: "the CPU and GPU implementations of GenASM provide
// speedups over Edlib only if our algorithmic improvements are applied."
// This harness toggles each improvement and checks exactly that claim,
// plus each idea's individual contribution to runtime.

#include <cstdio>

#include "bench_common.hpp"
#include "genasmx/engine/registry.hpp"
#include "genasmx/gpukernels/genasm_kernels.hpp"

int main(int argc, char** argv) {
  using namespace gx;
  auto cfg = bench::WorkloadConfig::fromArgs(argc, argv);
  bench::printHeader("E5: improvement ablation (bench_ablation)",
                     "GenASM beats Edlib only with the improvements applied");
  const auto w = bench::buildWorkload(cfg);
  bench::printWorkload(cfg, w);

  // Edlib-class reference.
  const auto myers_aligner = engine::makeAligner("myers");
  const double edlib_s =
      bench::timeIt([&] { (void)bench::alignAll(*myers_aligner, w.pairs); });
  std::printf("%-40s %10.3fs (reference)\n\n", "Edlib-class CPU", edlib_s);

  struct Variant {
    const char* name;
    bool baseline;  // use the true column-major baseline
    core::ImprovedOptions opts;
  };
  core::ImprovedOptions no_compress = core::ImprovedOptions::all();
  no_compress.compress_entries = false;
  core::ImprovedOptions no_et = core::ImprovedOptions::all();
  no_et.early_termination = false;
  core::ImprovedOptions no_trp = core::ImprovedOptions::all();
  no_trp.traceback_pruning = false;
  const Variant variants[] = {
      {"GenASM baseline (none)", true, {}},
      {"all except entry compression", false, no_compress},
      {"all except early termination", false, no_et},
      {"all except traceback pruning", false, no_trp},
      {"all three improvements", false, core::ImprovedOptions::all()},
  };

  gpusim::Device device;
  std::printf("%-36s %10s %12s %14s %10s\n", "CPU variant", "seconds",
              "vs Edlib", "GPU align/s", "GPU spill");
  for (const auto& v : variants) {
    // The CPU rows time the paper's scalar windowed march, one reused
    // window solver per variant.
    genasm::BaselineWindowSolver<1> baseline;
    core::ImprovedWindowSolver<1> improved(v.opts);
    const double s = bench::timeIt([&] {
      (void)(v.baseline ? bench::marchAll(baseline, w.pairs)
                        : bench::marchAll(improved, w.pairs));
    });
    const auto gpu =
        v.baseline
            ? gpukernels::alignBatchBaseline(device, w.pairs)
            : gpukernels::alignBatchImproved(device, w.pairs,
                                             core::WindowConfig{}, v.opts);
    std::printf("%-36s %10.3f %11.2fx %14.0f %9llu\n", v.name, s,
                edlib_s / s, gpu.alignments_per_second,
                static_cast<unsigned long long>(gpu.spilled_blocks));
  }

  std::printf(
      "\nReading: 'vs Edlib' > 1.0 means GenASM wins. The paper's claim is\n"
      "that the full-improvement row is the one that beats Edlib, while\n"
      "the baseline row does not. 'GPU spill' counts blocks whose DP\n"
      "working set did not fit in shared memory.\n");
  return 0;
}
