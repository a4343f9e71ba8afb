#pragma once
// SIMT GPU execution simulator — the substitute for the paper's NVIDIA
// A6000, so the GPU experiments run without a CUDA device.
//
// Kernels are written as *block programs*: a callable invoked once per
// thread block that (a) performs the real computation functionally — the
// simulator's results are bit-exact with the CPU implementation — and
// (b) declares its memory traffic and work shape through the
// BlockContext. Shared-memory capacity is enforced: a block program asks
// for its DP working set in shared memory and is refused when it does
// not fit, exactly the capacity cliff the paper's improvements target.
// An analytical roofline model (perf_model.hpp) turns the collected
// counters into time.

#include <cstdint>
#include <functional>
#include <string>

namespace gx::gpusim {

struct DeviceSpec {
  std::string name = "sim-A6000";
  int num_sms = 84;
  int warp_size = 32;
  int max_threads_per_sm = 1536;
  int max_blocks_per_sm = 16;
  /// CUDA's opt-in per-block shared memory limit on GA102 (A6000).
  std::size_t shared_mem_per_block = 100 * 1024;
  std::size_t shared_mem_per_sm = 128 * 1024;
  double core_clock_ghz = 1.41;
  double dram_bandwidth_gbps = 768.0;  ///< GDDR6 peak
  /// Modeled aggregate shared-memory bandwidth per SM (bytes/cycle).
  double shared_bytes_per_cycle_per_sm = 128.0;
  /// Effective scalar-op issue rate per SM per cycle. Set to one warp's
  /// width: dependency-chained bit-vector code sustains roughly one warp
  /// instruction per cycle per SM.
  double issue_ops_per_cycle_per_sm = 32.0;

  [[nodiscard]] static DeviceSpec a6000() { return DeviceSpec{}; }
};

/// Per-block instrumentation facade handed to block programs.
class BlockContext {
 public:
  BlockContext(int block_id, int threads, std::size_t shared_capacity)
      : block_id_(block_id), threads_(threads), shared_capacity_(shared_capacity) {}

  [[nodiscard]] int blockId() const noexcept { return block_id_; }
  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Reserve shared memory; returns false (and records the refusal) when
  /// the block's shared arena would exceed the device's per-block limit.
  [[nodiscard]] bool sharedAlloc(std::size_t bytes) noexcept {
    if (shared_used_ + bytes > shared_capacity_) {
      ++failed_shared_allocs_;
      return false;
    }
    shared_used_ += bytes;
    if (shared_used_ > shared_high_) shared_high_ = shared_used_;
    return true;
  }
  void sharedFree(std::size_t bytes) noexcept {
    shared_used_ = bytes > shared_used_ ? 0 : shared_used_ - bytes;
  }
  [[nodiscard]] std::size_t sharedCapacity() const noexcept {
    return shared_capacity_;
  }
  [[nodiscard]] std::size_t sharedHighWater() const noexcept {
    return shared_high_;
  }

  void sharedLoad(std::uint64_t bytes) noexcept { shared_bytes_ += bytes; }
  void sharedStore(std::uint64_t bytes) noexcept { shared_bytes_ += bytes; }
  void globalLoad(std::uint64_t bytes) noexcept { global_bytes_ += bytes; }
  void globalStore(std::uint64_t bytes) noexcept { global_bytes_ += bytes; }

  /// Declare computational work: `ops` total scalar operations across the
  /// block's threads and `critical_cycles` of unavoidable dependency
  /// chain (wavefront depth x per-step cost).
  void work(double ops, double critical_cycles) noexcept {
    ops_ += ops;
    critical_cycles_ += critical_cycles;
  }

  [[nodiscard]] double ops() const noexcept { return ops_; }
  [[nodiscard]] double criticalCycles() const noexcept {
    return critical_cycles_;
  }
  [[nodiscard]] std::uint64_t globalBytes() const noexcept {
    return global_bytes_;
  }
  [[nodiscard]] std::uint64_t sharedBytes() const noexcept {
    return shared_bytes_;
  }
  [[nodiscard]] std::uint64_t failedSharedAllocs() const noexcept {
    return failed_shared_allocs_;
  }

 private:
  int block_id_;
  int threads_;
  std::size_t shared_capacity_;
  std::size_t shared_used_ = 0;
  std::size_t shared_high_ = 0;
  double ops_ = 0;
  double critical_cycles_ = 0;
  std::uint64_t global_bytes_ = 0;
  std::uint64_t shared_bytes_ = 0;
  std::uint64_t failed_shared_allocs_ = 0;
};

/// Aggregated counters of one kernel launch.
struct LaunchStats {
  int grid = 0;
  int block_threads = 0;
  std::size_t shared_per_block = 0;  ///< max shared high-water over blocks
  double total_ops = 0;
  double critical_cycles_total = 0;  ///< summed per-block dependency chains
  std::uint64_t global_bytes = 0;
  std::uint64_t shared_bytes = 0;
  std::uint64_t failed_shared_allocs = 0;
};

class Device {
 public:
  explicit Device(DeviceSpec spec = DeviceSpec::a6000()) : spec_(spec) {}

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }

  /// Execute `block_program` for every block id in [0, grid), collecting
  /// counters. Execution is functional and deterministic.
  LaunchStats launch(int grid, int block_threads,
                     const std::function<void(BlockContext&)>& block_program);

 private:
  DeviceSpec spec_;
};

}  // namespace gx::gpusim
