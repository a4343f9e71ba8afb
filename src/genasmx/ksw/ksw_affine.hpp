#pragma once
// KSW2-class aligner: banded global alignment with affine gap costs
// (Gotoh three-state recurrence), the algorithm minimap2 uses for base-
// level alignment of chained candidates (Suzuki & Kasahara 2018, Li 2018).
//
// This reimplements the published algorithm's semantics — global affine
// DP restricted to a diagonal band, with full traceback — with a scalar
// kernel. KSW2 itself adds SIMD striping on top of the same recurrence,
// so GenASM's speedup over this kernel exceeds its speedup over KSW2 by
// that constant factor.

#include <cstdint>
#include <string_view>
#include <vector>

#include "genasmx/common/cigar.hpp"
#include "genasmx/refdp/affine_dp.hpp"

namespace gx::ksw {

struct KswConfig {
  refdp::AffineParams params{};
  /// Band half-width around the main diagonal (after correcting for the
  /// length difference). -1 disables banding (exact full DP).
  int band = -1;
};

/// Global affine score (no traceback). With banding the result is exact
/// whenever the optimal path stays inside the band, otherwise a lower
/// bound — the same contract as ksw2 with a fixed bandwidth.
[[nodiscard]] int kswScore(std::string_view target, std::string_view query,
                           const KswConfig& cfg = {});

/// Global affine alignment with traceback.
[[nodiscard]] common::AlignmentResult kswAlign(std::string_view target,
                                               std::string_view query,
                                               const KswConfig& cfg = {});

/// Reusable-buffer aligner for batch workloads.
class KswAligner {
 public:
  explicit KswAligner(KswConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] int score(std::string_view target, std::string_view query);
  [[nodiscard]] common::AlignmentResult align(std::string_view target,
                                              std::string_view query);

  [[nodiscard]] const KswConfig& config() const noexcept { return cfg_; }

 private:
  /// Direction byte per banded cell:
  ///   bits 0-1: source of H (0 diag, 1 E=vertical gap, 2 F=horizontal gap)
  ///   bit 2: E extends an existing vertical gap
  ///   bit 3: F extends an existing horizontal gap
  KswConfig cfg_;
  std::vector<std::int32_t> h_, e_, hcur_;
  std::vector<std::uint8_t> dir_;
};

}  // namespace gx::ksw
