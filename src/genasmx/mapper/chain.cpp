#include "genasmx/mapper/chain.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace gx::mapper {

std::vector<Chain> chainAnchors(std::vector<Anchor> anchors,
                                const ChainParams& params) {
  ChainScratch scratch;
  std::vector<Chain> chains;
  chainAnchors(anchors, params, scratch, chains);
  return chains;
}

void chainAnchors(std::vector<Anchor>& anchors, const ChainParams& params,
                  ChainScratch& scratch, std::vector<Chain>& chains) {
  chains.clear();
  const std::size_t n = anchors.size();
  if (n == 0) return;
  // One 64-bit compare per step. Anchors with equal keys are identical
  // (a seed's contig follows from its ref_pos), so the unstable sort's
  // tie order cannot show.
  const auto sort_key = [](const Anchor& a) {
    return (static_cast<std::uint64_t>(a.ref_pos) << 32) | a.read_pos;
  };
  std::sort(anchors.begin(), anchors.end(),
            [&](const Anchor& a, const Anchor& b) {
              return sort_key(a) < sort_key(b);
            });

  std::vector<double>& f = scratch.f;
  std::vector<std::int64_t>& parent = scratch.parent;
  f.resize(n);
  parent.resize(n);
  // No gain exceeds kmer (min(dr, dq, kmer) less a gap cost that is >= 0
  // for gap_scale >= 0, and rounding is monotone), so no anchor j can
  // beat a score of f[j] + kmer. block_max[b] holds the best f of the
  // anchors [b * kBlock, (b + 1) * kBlock); entering a block, the scan
  // stops once the best score so far reaches every remaining block's
  // bound: the later anchors cannot change f[i] or its parent.
  constexpr std::size_t kBlock = 8;
  std::vector<double>& block_max = scratch.block_max;
  block_max.assign((n + kBlock - 1) / kBlock,
                   -std::numeric_limits<double>::infinity());
  const bool bounded = params.gap_scale >= 0;
  const double kmer = params.kmer;
  for (std::size_t i = 0; i < n; ++i) {
    double best = kmer;  // chain of just this anchor
    std::int64_t best_j = -1;
    const std::size_t j0 =
        i > static_cast<std::size_t>(params.lookback)
            ? i - static_cast<std::size_t>(params.lookback)
            : 0;
    for (std::size_t j = i; j-- > j0;) {
      if (bounded && j % kBlock == kBlock - 1) {
        double reach = block_max[j / kBlock];
        for (std::size_t b = j0 / kBlock; b < j / kBlock; ++b) {
          reach = std::max(reach, block_max[b]);
        }
        if (best >= reach + kmer) break;
      }
      const std::int64_t dr = static_cast<std::int64_t>(anchors[i].ref_pos) -
                              anchors[j].ref_pos;
      // ref_pos falls as j walks back, so dr only grows: every anchor
      // from here back is out of reach too.
      if (dr > params.max_gap) break;
      const std::int64_t dq = static_cast<std::int64_t>(anchors[i].read_pos) -
                              anchors[j].read_pos;
      if (anchors[i].contig != anchors[j].contig) continue;
      if (dr <= 0 || dq <= 0 || dq > params.max_gap) continue;
      const double gap_cost =
          params.gap_scale * static_cast<double>(std::llabs(dr - dq));
      const double gain =
          static_cast<double>(std::min<std::int64_t>(
              {dr, dq, static_cast<std::int64_t>(params.kmer)})) -
          gap_cost;
      const double cand = f[j] + gain;
      if (cand > best) {
        best = cand;
        best_j = static_cast<std::int64_t>(j);
      }
    }
    f[i] = best;
    parent[i] = best_j;
    block_max[i / kBlock] = std::max(block_max[i / kBlock], best);
  }

  // Emit all chains best-first; each anchor belongs to one chain.
  std::vector<std::size_t>& order = scratch.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return f[a] > f[b]; });
  std::vector<bool>& used = scratch.used;
  used.assign(n, false);
  std::vector<std::size_t>& members = scratch.members;
  for (std::size_t oi : order) {
    if (used[oi]) continue;
    // Walk the chain; stop where it runs into an anchor already claimed
    // by a better chain (that tail was already reported), so the chain
    // keeps only its own anchors.
    members.clear();
    std::int64_t cur = static_cast<std::int64_t>(oi);
    while (cur >= 0 && !used[static_cast<std::size_t>(cur)]) {
      members.push_back(static_cast<std::size_t>(cur));
      cur = parent[static_cast<std::size_t>(cur)];
    }
    for (std::size_t m : members) used[m] = true;
    if (members.size() < static_cast<std::size_t>(params.min_anchors)) continue;
    Chain c;
    c.score = f[oi];
    c.anchors = static_cast<int>(members.size());
    const Anchor& first = anchors[members.back()];
    const Anchor& last = anchors[members.front()];
    c.read_begin = first.read_pos;
    c.read_end = last.read_pos + static_cast<std::uint32_t>(params.kmer);
    c.ref_begin = first.ref_pos;
    c.ref_end = last.ref_pos + static_cast<std::uint32_t>(params.kmer);
    c.contig = first.contig;
    chains.push_back(c);
  }
}

}  // namespace gx::mapper
