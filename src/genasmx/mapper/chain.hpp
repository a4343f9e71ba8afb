#pragma once
// Anchor chaining (minimap2's chaining DP, simplified): given co-linear
// seed anchors between a read and the reference, find high-scoring chains
// under a gap-cost model. All chains above the threshold are returned,
// mirroring the paper's use of minimap2 -P (keep all secondary chains).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gx::mapper {

struct Anchor {
  std::uint32_t read_pos;
  std::uint32_t ref_pos;      ///< global (contig-table) coordinate
  std::uint32_t contig = 0;   ///< contig id; pairs never chain across ids
};

struct ChainParams {
  int kmer = 15;            ///< anchor width (score unit)
  int max_gap = 2'000;      ///< max ref/read gap between chained anchors
  /// DP predecessor window: anchor i (sorted by reference position)
  /// considers at most the `lookback` anchors before it. The scan stops
  /// early, with the same result, at the first anchor more than `max_gap`
  /// behind i on the reference (every earlier one is farther still), and,
  /// for gap_scale >= 0, once the best score found reaches f[j] + kmer for
  /// every anchor j left (no gain exceeds kmer).
  int lookback = 64;
  int min_anchors = 3;      ///< minimum anchors per emitted chain
  double gap_scale = 0.05;  ///< per-base penalty for gap-length mismatch
};

struct Chain {
  double score = 0;
  std::uint32_t read_begin = 0, read_end = 0;  ///< [begin, end) read span
  std::uint32_t ref_begin = 0, ref_end = 0;    ///< [begin, end) global ref span
  std::uint32_t contig = 0;  ///< every member anchor's contig
  int anchors = 0;
};

/// Chaining's working arrays, reused across calls so a warm scratch
/// chains without allocating (Mapper's SeedScratch holds one).
struct ChainScratch {
  std::vector<double> f;               ///< best chain score ending here
  std::vector<double> block_max;       ///< best f per block of anchors
  std::vector<std::int64_t> parent;    ///< predecessor anchor, -1 = none
  std::vector<std::size_t> order;      ///< anchors by descending f
  std::vector<bool> used;              ///< claimed by an emitted chain
  std::vector<std::size_t> members;    ///< the chain being walked
};

/// Chain `anchors` (single strand), sorting them in place. A chain never
/// links anchors from different contigs, so each emitted chain lies
/// within one contig (alignments against the nonexistent sequence
/// "between" contigs cannot arise). Clears `out` and fills it with all
/// chains of >= min_anchors anchors, best first.
void chainAnchors(std::vector<Anchor>& anchors, const ChainParams& params,
                  ChainScratch& scratch, std::vector<Chain>& out);

/// Convenience form with its own scratch.
[[nodiscard]] std::vector<Chain> chainAnchors(std::vector<Anchor> anchors,
                                              const ChainParams& params);

}  // namespace gx::mapper
