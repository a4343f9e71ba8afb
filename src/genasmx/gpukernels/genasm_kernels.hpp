#pragma once
// GenASM kernels for the simulated GPU: one alignment pair per thread
// block (the decomposition the paper's GPU implementation uses — each
// block owns one (read, candidate) pair and its windows stream through
// the block's working set).
//
// The improved kernel asks the device for its per-window DP working set
// in *shared memory*; thanks to the paper's three improvements it fits
// (a few KiB), so its DP traffic never leaves the SM. The baseline
// kernel asks for the unimproved working set (hundreds of KiB), is
// refused by the capacity check, and spills every DP access to DRAM —
// mechanically reproducing the bottleneck the paper identifies.

#include <vector>

#include "genasmx/common/cigar.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/gpusim/device.hpp"
#include "genasmx/gpusim/perf_model.hpp"
#include "genasmx/mapper/mapper.hpp"
#include "genasmx/util/mem_stats.hpp"

namespace gx::gpukernels {

/// Cost constants turning counted DP work into GPU cycles. They are model
/// parameters, not measurements: the time the model reports scales with
/// them, while the counted work and the results do not.
struct KernelCostModel {
  double ops_per_entry = 64;            ///< scalar ops per DP entry
  double cycles_per_wavefront_step = 24;  ///< dependency-chain step cost
  double cycles_per_tb_op = 24;         ///< serial traceback step cost
  double ops_per_tb_op = 24;
  double window_overhead_cycles = 200;  ///< per-window setup/sync
};

struct GpuBatchOutput {
  std::vector<common::AlignmentResult> results;  ///< bit-exact with CPU
  gpusim::LaunchStats launch;
  gpusim::TimeBreakdown time;
  util::MemStats mem;                  ///< aggregated DP instrumentation
  std::uint64_t spilled_blocks = 0;    ///< blocks whose table went to DRAM
  double alignments_per_second = 0;    ///< modeled throughput
};

/// Improved-GenASM kernel (the paper's GPU implementation).
[[nodiscard]] GpuBatchOutput alignBatchImproved(
    gpusim::Device& device, const std::vector<mapper::AlignmentPair>& pairs,
    const core::WindowConfig& wcfg = {}, const core::ImprovedOptions& opts = {},
    int block_threads = 64, const KernelCostModel& cost = {});

/// Unimproved-GenASM kernel (the paper's "GPU implementation of GenASM
/// without our improvements" comparator).
[[nodiscard]] GpuBatchOutput alignBatchBaseline(
    gpusim::Device& device, const std::vector<mapper::AlignmentPair>& pairs,
    const core::WindowConfig& wcfg = {}, int block_threads = 64,
    const KernelCostModel& cost = {});

}  // namespace gx::gpukernels
