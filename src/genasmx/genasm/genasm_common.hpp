#pragma once
// Shared definitions for the GenASM window solvers (baseline and improved).
//
// Orientation convention
// ----------------------
// Window solvers receive the text and pattern windows *reversed*. The
// Bitap automaton naturally allows a match to begin at any text position
// (free text prefix in solver orientation); on reversed inputs this frees
// the *end* of the original window — exactly the lookahead GenASM's
// windowing heuristic needs — while anchoring the original *start* of
// both sequences. Traceback walks from the automaton's end state, so
// operations are emitted front-to-back in original orientation and the
// windowing driver can commit the first W-O of them directly.
//
// Anchoring
// ---------
//   StartOnly : original text start anchored, original text end free
//               (the normal mid-read window mode).
//   BothEnds  : fully global; implemented by feeding a 1 into bit 0 on
//               every shift unless the empty-prefix state is still
//               affordable (i <= d), see BitVec::shl1.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "genasmx/bitvector/bitvector.hpp"
#include "genasmx/common/cigar.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/util/mem_stats.hpp"

namespace gx::genasm {

enum class Anchor {
  StartOnly,  ///< anchored at original start; original text end free
  BothEnds,   ///< global alignment of the two windows
};

/// One window-alignment request (solver orientation, i.e. pre-reversed).
struct WindowSpec {
  Anchor anchor = Anchor::StartOnly;
  int max_edits = -1;    ///< level cap k; -1 selects the always-solvable cap
  int tb_op_limit = -1;  ///< emit at most this many traceback ops; -1 = all
};

/// Window-alignment outcome. The cigar is in original orientation,
/// truncated to tb_op_limit operations when a limit was set.
struct WindowResult {
  bool ok = false;
  int distance = -1;          ///< d_min found by the distance calculation
  common::Cigar cigar;        ///< possibly truncated (see tb_op_limit)
  bool traceback_complete = false;  ///< false iff truncated by the limit
};

/// The always-solvable per-window level cap: with a free text end the
/// worst case is inserting the whole pattern (m); fully global alignment
/// additionally needs to delete all text (max(n, m) edits).
[[nodiscard]] constexpr int autoEditCap(int text_len, int pattern_len,
                                        Anchor anchor) noexcept {
  return anchor == Anchor::StartOnly ? pattern_len
                                     : (text_len > pattern_len ? text_len
                                                               : pattern_len);
}

/// Empty-prefix ("bit -1") availability: in StartOnly mode the automaton
/// may begin matching at any text offset, so the state is always free; in
/// BothEnds mode it costs one deletion per skipped text character and is
/// affordable only while i <= d. Returns the *bit value* shifted into bit
/// 0 (active-low: 0 = state available).
[[nodiscard]] constexpr bool shiftInOne(Anchor anchor, int i, int d) noexcept {
  return anchor == Anchor::BothEnds && i > d;
}

// The single-window rules of the global (BothEnds) solve, which only the
// scalar reproduction solvers run (alignGlobalWith, behind
// alignGlobal{Baseline,Improved}). Serving marches windows instead; its
// CigarOut resets through resetAlignment.

/// Reset `out` to the failed result in place, keeping cigar capacity.
inline void resetAlignment(common::AlignmentResult& out) noexcept {
  out.ok = false;
  out.edit_distance = -1;
  out.score = 0;
  out.cigar.clear();
}

/// The empty query, which the solvers reject (m == 0), aligns as one
/// deletion of the whole target. Written in place, as resetAlignment.
inline void alignEmptyQuery(std::string_view target,
                            common::AlignmentResult& out) {
  out.ok = true;
  out.edit_distance = static_cast<int>(target.size());
  out.score = -out.edit_distance;
  out.cigar.clear();
  if (!target.empty()) {
    out.cigar.push(common::EditOp::Deletion,
                   static_cast<std::uint32_t>(target.size()));
  }
}

/// A global solve's WindowResult as an AlignmentResult, written in place;
/// the cigar is moved from an rvalue `wr` and copied otherwise.
template <class WR>
void toAlignment(WR&& wr, common::AlignmentResult& out) {
  resetAlignment(out);
  if (!wr.ok) return;
  out.ok = true;
  out.edit_distance = wr.distance;
  out.score = -wr.distance;
  out.cigar = std::forward<WR>(wr).cigar;
}

/// Global (BothEnds) alignment of query against target through a scalar
/// window solver, which receives both reversed.
template <class Solver, class Counter>
common::AlignmentResult alignGlobalWith(Solver& solver, std::string_view target,
                                        std::string_view query, int max_edits,
                                        Counter counter) {
  common::AlignmentResult out;
  if (query.empty()) {
    alignEmptyQuery(target, out);
    return out;
  }
  WindowSpec spec;
  spec.anchor = Anchor::BothEnds;
  spec.max_edits = max_edits;
  toAlignment(solver.solve(common::reversed(target), common::reversed(query),
                           spec, counter),
              out);
  return out;
}

/// Run fn(solver, counter) with a fresh S solver of the width
/// `pattern_len`-character patterns need (bitvector::withWidth: past 512
/// characters, BitVec<8>, whose solves reject them), counting into
/// `stats` when given. `args` go to S's constructor.
template <template <int> class S, class Fn, class... Args>
auto withSolver(int pattern_len, util::MemStats* stats, Fn&& fn,
                const Args&... args) {
  const int words = bitvector::wordsNeeded(pattern_len);
  return bitvector::withWidth(words, [&](auto nw) {
    S<nw()> solver(args...);
    if (stats) return fn(solver, util::CountingMemCounter(*stats));
    return fn(solver, util::NullMemCounter{});
  });
}

/// Outcome of walkTraceback: Complete walks emitted every operation,
/// Truncated walks stopped at the op limit (still a usable window
/// result — the windowed driver discards the tail anyway), Bad walks
/// hit a state no stored transition explains (must not happen on a
/// consistent table; callers report ok == false).
enum class TbStatus {
  Complete,
  Truncated,
  Bad,
};

/// Transition availability at one traceback state, as reported by a
/// backend's probe. All flags follow the active-low bitvector convention
/// already resolved to booleans: true = the transition is usable.
struct TbFlags {
  bool match = false;
  bool del = false;
  bool ins = false;
  bool sub = false;
};

/// A traceback position: text columns left (i), matched pattern prefix
/// (pl), current level (d) and operations committed so far (ops).
struct TbCursor {
  int i = 0;
  int pl = 0;
  int d = 0;
  std::uint64_t ops = 0;
};

/// THE GenASM traceback walk — the single implementation of the walk's
/// control flow that every backend runs (baseline solver, improved
/// solver, and the SIMD lane solver all consume it). The walk owns:
///
///   * the op budget (`limit`): hitting it truncates the walk;
///   * the pl == 0 tail in BothEnds mode (unconsumed reversed-text
///     prefix == the original window's trailing characters, emitted as
///     one bulk deletion);
///   * the i == 0 edge (only insertions remain, affordable iff pl <= d);
///   * the match > del > ins > sub priority. Indels commit eagerly (as
///     leftmost as possible): windowed alignment discards each window's
///     tail, so deferring a gap repair into the discarded suffix would
///     leave the window cursors permanently off-diagonal.
///
/// One other loop takes the same steps: the lane solver's vector walk
/// (simd/walk_kernel.hpp) advances all lanes of a group at once, but
/// only through the interior — i >= 1, pl >= 2, ops < limit — where
/// every probe reads stored words and the anchor plays no part. The
/// priority and cursor moves there are the four probe steps below as
/// mask logic; any lane leaving the interior resumes here from its
/// cursor, so the edges, truncation and Bad exist only in this loop.
/// test_simd's SimdLaneWalk suite pins the two against the scalar
/// solvers op for op on every ISA level and nw 1-8 (the lane solver runs
/// StartOnly windows only).
///
/// Backends supply only their storage access (`probe(i, pl, d)` returns
/// the four transition flags for the current state) and their output
/// (`emit(op, count)` — a cigar push or an operation counter). Probes
/// are also where each backend's DP-memory accounting lives, so the
/// MemStats comparison between solvers stays exactly as measured before
/// the walks were unified.
///
/// This overload resumes from `cur` and leaves the final position in it,
/// so consumed lengths and edits are cursor deltas.
template <class Probe, class Emit>
TbStatus walkTraceback(Anchor anchor, TbCursor& cur, std::uint64_t limit,
                       Probe&& probe, Emit&& emit) {
  int& i = cur.i;
  int& pl = cur.pl;  // matched pattern prefix length
  int& d = cur.d;
  std::uint64_t& ops = cur.ops;
  const bool both = anchor == Anchor::BothEnds;

  while (pl > 0 || (both && i > 0)) {
    if (ops >= limit) return TbStatus::Truncated;
    if (pl == 0) {
      // BothEnds tail: the unconsumed reversed-text prefix is the
      // original window's trailing characters — emit deletions.
      const std::uint64_t take =
          std::min<std::uint64_t>(static_cast<std::uint64_t>(i), limit - ops);
      emit(common::EditOp::Deletion, static_cast<std::uint32_t>(take));
      ops += take;
      i -= static_cast<int>(take);
      d -= static_cast<int>(take);
      continue;
    }
    if (i == 0) {
      // Only insertions can remain; affordable iff pl <= d.
      if (d >= 1 && pl <= d) {
        emit(common::EditOp::Insertion, 1);
        --pl;
        --d;
        ++ops;
        continue;
      }
      return TbStatus::Bad;
    }
    const TbFlags f = probe(i, pl, d);
    if (f.match) {
      emit(common::EditOp::Match, 1);
      --i;
      --pl;
    } else if (f.del) {
      emit(common::EditOp::Deletion, 1);
      --i;
      --d;
    } else if (f.ins) {
      emit(common::EditOp::Insertion, 1);
      --pl;
      --d;
    } else if (f.sub) {
      emit(common::EditOp::Mismatch, 1);
      --i;
      --pl;
      --d;
    } else {
      return TbStatus::Bad;  // inconsistent table (must not happen)
    }
    ++ops;
  }
  return TbStatus::Complete;
}

/// The walk from the automaton's end state (i = n, pl = m, d = dmin).
template <class Probe, class Emit>
TbStatus walkTraceback(Anchor anchor, int n, int m, int dmin,
                       std::uint64_t limit, Probe&& probe, Emit&& emit) {
  TbCursor cur{n, m, dmin, 0};
  return walkTraceback(anchor, cur, limit, std::forward<Probe>(probe),
                       std::forward<Emit>(emit));
}

/// spec.tb_op_limit as walkTraceback's op budget (-1 = unbounded).
[[nodiscard]] constexpr std::uint64_t tbOpBudget(int tb_op_limit) noexcept {
  return tb_op_limit < 0 ? ~0ULL : static_cast<std::uint64_t>(tb_op_limit);
}

/// Monotone scratch growth: solver arenas only ever grow, so repeated
/// solves over a stable window geometry perform zero heap allocations.
/// Growth events are recorded in MemStats::scratch_allocs so the perf
/// harness can assert steady-state allocation-freedom.
template <class T, class Counter>
void ensureScratch(std::vector<T>& buf, std::size_t n, Counter& counter) {
  if (buf.size() < n) {
    counter.scratch((n - buf.size()) * sizeof(T));
    buf.resize(n);
  }
}

/// Distance-only GenASM-DC: the level-major two-working-row loop with
/// inherent early termination and *no* row persistence or traceback —
/// the cheapest possible d_min kernel (O(n) space regardless of k).
/// Shared by both window solvers; `masks`/`prev`/`cur` are caller-owned
/// scratch so steady-state calls allocate nothing. Returns d_min, or -1
/// when the problem is unsolvable within the level cap (or m is out of
/// range for the bitvector width).
template <int NW, class Counter>
int solveDistanceTwoRow(std::string_view text_rev, std::string_view pattern_rev,
                        const WindowSpec& spec,
                        bitvector::PatternMasks<NW>& masks,
                        std::vector<bitvector::BitVec<NW>>& prev,
                        std::vector<bitvector::BitVec<NW>>& cur,
                        Counter& counter) {
  using Vec = bitvector::BitVec<NW>;
  const int n = static_cast<int>(text_rev.size());
  const int m = static_cast<int>(pattern_rev.size());
  if (m <= 0 || m > Vec::kBits) return -1;
  const int k =
      spec.max_edits >= 0 ? spec.max_edits : autoEditCap(n, m, spec.anchor);
  const int levels = k + 1;

  masks.assign(pattern_rev);
  ensureScratch(prev, static_cast<std::size_t>(n) + 1, counter);
  ensureScratch(cur, static_cast<std::size_t>(n) + 1, counter);
  const std::uint64_t work_bytes =
      std::uint64_t(2) * (n + 1) * sizeof(Vec);
  counter.alloc(work_bytes);
  counter.problem();

  int dmin = -1;
  int computed_levels = 0;
  for (int d = 0; d < levels && dmin < 0; ++d) {
    computed_levels = d + 1;
    cur[0] = Vec::onesAbove(d);
    counter.store(NW);
    for (int i = 1; i <= n; ++i) {
      const Vec& pm = masks.forChar(text_rev[i - 1]);
      Vec r = cur[i - 1].shl1(shiftInOne(spec.anchor, i - 1, d)) | pm;
      if (d > 0) {
        counter.load(NW);  // prev[i]; the rest is register-carried
        r = r & prev[i - 1].shl1(shiftInOne(spec.anchor, i - 1, d - 1)) &
            prev[i - 1] &
            prev[i].shl1(shiftInOne(spec.anchor, i, d - 1));
      }
      cur[i] = r;
      counter.store(NW);
      counter.entry();
    }
    counter.load(NW);
    if (!cur[n].bit(m - 1)) {
      dmin = d;
    } else {
      std::swap(prev, cur);
    }
  }
  counter.wavefront(static_cast<std::uint64_t>(n) + computed_levels);
  counter.free(work_bytes);
  return dmin;
}

}  // namespace gx::genasm
