// E2 — GPU comparison (the paper's second results group).
//
// Paper: "Our GPU implementation achieves a 4.1x, 62x, 7.2x, and 5.9x
// speedup over our CPU implementation, KSW2, Edlib, and a GPU
// implementation of GenASM without our improvements, respectively."
//
// The GPU is the simulated A6000 (src/genasmx/gpusim); kernels execute
// functionally (results are bit-exact with the CPU path) and time comes
// from the documented analytical model. CPU baselines are measured
// single-thread and scaled to the paper's 48 threads (alignment pairs
// are embarrassingly parallel). The GPU times are model output: they
// scale with gpukernels::KernelCostModel's constants.

#include <cstdio>

#include "bench_common.hpp"
#include "genasmx/engine/registry.hpp"
#include "genasmx/gpukernels/genasm_kernels.hpp"

int main(int argc, char** argv) {
  using namespace gx;
  auto cfg = bench::WorkloadConfig::fromArgs(argc, argv);
  bench::printHeader("E2: GPU comparison (bench_gpu_aligners)",
                     "improved GenASM GPU vs own CPU 4.1x, vs KSW2 62x, "
                     "vs Edlib 7.2x, vs unimproved GPU GenASM 5.9x");
  const auto w = bench::buildWorkload(cfg);
  bench::printWorkload(cfg, w);
  constexpr double kPaperThreads = 48.0;
  const double n_pairs = static_cast<double>(w.pairs.size());

  // --- measured CPU baselines (single thread), scaled to 48 threads.
  engine::AlignerConfig acfg;
  acfg.ksw.band = 751;
  auto timeBackend = [&](const char* backend) {
    const auto aligner = engine::makeAligner(backend, acfg);
    return bench::timeIt([&] {
      for (const auto& p : w.pairs) {
        (void)aligner->align(p.target, p.query);
      }
    });
  };
  const double ksw_s = timeBackend("ksw");
  const double myers_s = timeBackend("myers");
  const double cpu_improved_s = timeBackend("windowed-improved");

  // --- simulated GPU kernels.
  gpusim::Device device;
  const auto gpu_improved = gpukernels::alignBatchImproved(device, w.pairs);
  const auto gpu_baseline = gpukernels::alignBatchBaseline(device, w.pairs);

  auto rate48 = [&](double single_thread_s) {
    return n_pairs / single_thread_s * kPaperThreads;
  };
  const double r_ksw = rate48(ksw_s);
  const double r_edlib = rate48(myers_s);
  const double r_cpu = rate48(cpu_improved_s);
  const double r_gpu = gpu_improved.alignments_per_second;
  const double r_gpu_base = gpu_baseline.alignments_per_second;

  std::printf("%-40s %16s\n", "implementation", "alignments/s");
  std::printf("%-40s %16.0f\n", "KSW2-class CPU (48t modeled)", r_ksw);
  std::printf("%-40s %16.0f\n", "Edlib-class CPU (48t modeled)", r_edlib);
  std::printf("%-40s %16.0f\n", "GenASM improved CPU (48t modeled)", r_cpu);
  std::printf("%-40s %16.0f\n", "GenASM baseline GPU (sim A6000)", r_gpu_base);
  std::printf("%-40s %16.0f\n", "GenASM improved GPU (sim A6000)", r_gpu);

  std::printf("\nGPU kernel diagnostics (improved | baseline):\n");
  std::printf("  shared bytes/block     %8zu | %8zu (limit %zu)\n",
              gpu_improved.launch.shared_per_block,
              gpu_baseline.launch.shared_per_block,
              device.spec().shared_mem_per_block);
  std::printf("  blocks spilled to DRAM %8llu | %8llu of %zu\n",
              static_cast<unsigned long long>(gpu_improved.spilled_blocks),
              static_cast<unsigned long long>(gpu_baseline.spilled_blocks),
              w.pairs.size());
  std::printf("  DRAM traffic (MB)      %8.1f | %8.1f\n",
              gpu_improved.launch.global_bytes / 1e6,
              gpu_baseline.launch.global_bytes / 1e6);
  std::printf("  time bound (model)     %8s | %8s\n",
              gpu_improved.time.total_s == gpu_improved.time.dram_s
                  ? "DRAM"
                  : (gpu_improved.time.total_s == gpu_improved.time.compute_s
                         ? "compute"
                         : "latency/shared"),
              gpu_baseline.time.total_s == gpu_baseline.time.dram_s
                  ? "DRAM"
                  : (gpu_baseline.time.total_s == gpu_baseline.time.compute_s
                         ? "compute"
                         : "latency/shared"));

  std::printf("\n%-44s %10s %10s\n", "speedup of improved GenASM (GPU) over",
              "modeled", "paper");
  std::printf("%-44s %9.1fx %9.1fx\n", "improved GenASM CPU (48t)",
              r_gpu / r_cpu, 4.1);
  std::printf("%-44s %9.1fx %9.1fx\n", "KSW2-class CPU (48t)", r_gpu / r_ksw,
              62.0);
  std::printf("%-44s %9.1fx %9.1fx\n", "Edlib-class CPU (48t)",
              r_gpu / r_edlib, 7.2);
  std::printf("%-44s %9.1fx %9.1fx\n", "GenASM baseline GPU",
              r_gpu / r_gpu_base, 5.9);
  return 0;
}
