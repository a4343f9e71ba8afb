#include "genasmx/simd/batch_solver.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <utility>

#include "genasmx/bitvector/bitvector.hpp"
#include "genasmx/common/sequence.hpp"

namespace gx::simd {
namespace {

/// Patterns past this length never reach the lane kernels: the widest
/// scalar solver instantiation (BitVec<8>) rejects them too, and the
/// windowed drivers cap windows at 512.
constexpr int kMaxPatternBits = bitvector::BitVec<8>::kBits;

/// The walk kernel's op codes (see detail::WalkArgs) as cigar ops;
/// codes 0-2 and 4 never occur.
constexpr common::EditOp kOpOfCode[8] = {
    common::EditOp::Mismatch, common::EditOp::Mismatch,
    common::EditOp::Mismatch, common::EditOp::Match,
    common::EditOp::Mismatch, common::EditOp::Deletion,
    common::EditOp::Insertion, common::EditOp::Mismatch};

/// A group walks its lanes one at a time while it has at most
/// L / kLanesPerLoneWalk lanes to walk (see runWalk).
constexpr int kLanesPerLoneWalk = 4;

/// The one window mode the lane kernels solve: the march's StartOnly
/// window (original text end free).
constexpr genasm::Anchor kStartOnly = genasm::Anchor::StartOnly;

void requireStartOnly(genasm::Anchor anchor) {
  if (anchor != kStartOnly) {
    throw std::invalid_argument(
        "SimdBatchSolver solves Anchor::StartOnly windows only");
  }
}

/// `v` clamped into a `bits`-wide unsigned key field.
std::uint64_t keyField(long long v, int bits) noexcept {
  const long long top = (1LL << bits) - 1;
  return static_cast<std::uint64_t>(std::clamp(v, 0LL, top));
}

}  // namespace

SimdBatchSolver::SimdBatchSolver(IsaLevel isa)
    : isa_(clampIsa(isa)),
      lanes_(isaLanes(isa_)),
      kernels_(&detail::kernelsFor(isa_)) {
  lane_state_.resize(static_cast<std::size_t>(lanes_));
}

void SimdBatchSolver::prepareOrder(const WindowProblem* problems,
                                   std::size_t count) {
  ensureScratch(order_, count);
  order_.resize(count);
  if (!shape_sort_ || count <= static_cast<std::size_t>(lanes_)) {
    for (std::size_t r = 0; r < count; ++r) order_[r] = r;
    return;
  }

  // Deterministic packing key, descending: problems sharing pattern
  // width and text length pack into groups with no padding at all, and
  // within a shape similar expected d_min (then edit budget) keeps a
  // group's lanes converging at similar levels. The key is precomputed
  // into one 64-bit word (4 | 28 | 16 | 16 bits; clamping a field only
  // merges groups, never changes a result). An in-place sort with the
  // input position as the final tiebreak is exactly a stable sort, minus
  // stable_sort's per-call temporary buffer (which would break
  // steady-state allocation-freedom).
  ensureScratch(keys_, count);
  for (std::size_t r = 0; r < count; ++r) {
    const WindowProblem& p = problems[r];
    const int m = static_cast<int>(p.pattern.size());
    const int n = static_cast<int>(p.text.size());
    std::uint64_t key = 0;
    if (m > 0 && m <= kMaxPatternBits) {
      const int k = p.max_edits >= 0 ? p.max_edits
                                     : genasm::autoEditCap(n, m, kStartOnly);
      key = static_cast<std::uint64_t>(bitvector::wordsNeeded(m)) << 60 |
            keyField(n, 28) << 32 | keyField(p.level_hint + 1LL, 16) << 16 |
            keyField(k, 16);
    }
    keys_[r] = OrderKey{key, r};
  }
  std::sort(keys_.begin(), keys_.begin() + static_cast<std::ptrdiff_t>(count),
            [](const OrderKey& a, const OrderKey& b) {
              if (a.key != b.key) return a.key > b.key;
              return a.idx < b.idx;
            });
  for (std::size_t r = 0; r < count; ++r) order_[r] = keys_[r].idx;
}

int SimdBatchSolver::packGroup(const WindowProblem* problems,
                               const std::size_t* order, std::size_t group,
                               int& nw, int& n_max) {
  nw = 1;
  n_max = 0;
  int valid = 0;
  std::uint64_t useful = 0;
  for (int l = 0; l < lanes_; ++l) {
    Lane& lane = lane_state_[static_cast<std::size_t>(l)];
    detail::PackLane& pack = pack_[static_cast<std::size_t>(l)];
    lane = Lane{};
    pack = detail::PackLane{};
    if (static_cast<std::size_t>(l) >= group) continue;
    const WindowProblem& p = problems[order[static_cast<std::size_t>(l)]];
    lane.prob = &p;
    lane.n = static_cast<int>(p.text.size());
    lane.m = static_cast<int>(p.pattern.size());
    if (lane.m <= 0 || lane.m > kMaxPatternBits) continue;  // invalid lane
    lane.k = p.max_edits >= 0
                 ? p.max_edits
                 : genasm::autoEditCap(lane.n, lane.m, kStartOnly);
    lane.valid = true;
    ++valid;
    pack = detail::PackLane{
        reinterpret_cast<const std::uint8_t*>(p.text.data()),
        reinterpret_cast<const std::uint8_t*>(p.pattern.data()), lane.n,
        lane.m};
    const int lw = bitvector::wordsNeeded(lane.m);
    useful += static_cast<std::uint64_t>(lw) *
              static_cast<std::uint64_t>(lane.n);
    nw = std::max(nw, lw);
    n_max = std::max(n_max, lane.n);
  }
  ++stats_.groups;
  stats_.lane_slots += static_cast<std::uint64_t>(lanes_);
  stats_.lanes_filled += static_cast<std::uint64_t>(valid);
  stats_.packed_words += static_cast<std::uint64_t>(lanes_) *
                         static_cast<std::uint64_t>(nw) *
                         static_cast<std::uint64_t>(n_max);
  stats_.useful_words += useful;
  if (valid == 0) return 0;

  ensureScratch(pm_, static_cast<std::size_t>(n_max) *
                         static_cast<std::size_t>(nw) *
                         static_cast<std::size_t>(lanes_));
  kernels_->pack[static_cast<std::size_t>(nw - 1)](
      detail::PackArgs{pm_.data(), pack_.data(), n_max});
  return valid;
}

void SimdBatchSolver::runFill(int nw, int n_max, int valid) {
  const std::size_t colstride =
      static_cast<std::size_t>(nw) * static_cast<std::size_t>(lanes_);
  const std::size_t row_words =
      static_cast<std::size_t>(n_max + 1) * colstride;
  for (int l = 0; l < lanes_; ++l) {
    const Lane& lane = lane_state_[static_cast<std::size_t>(l)];
    const auto ul = static_cast<std::size_t>(l);
    level_.live[ul] = lane.valid ? 1 : 0;
    level_.dmin[ul] = -1;
    level_.k[ul] = static_cast<std::uint64_t>(lane.k);
    level_.n[ul] = static_cast<std::uint64_t>(lane.n);
    const int mb = lane.valid ? lane.m - 1 : 0;
    level_.bit[ul] = static_cast<std::uint64_t>(mb & 63);
    level_.probe[ul] =
        lane.valid ? (static_cast<std::size_t>(lane.n) * nw +
                      static_cast<std::size_t>(mb >> 6)) *
                             static_cast<std::size_t>(lanes_) +
                         ul
                   : 0;
  }
  level_.remaining = valid;

  // Persisted rows grow the arena one level at a time (monotonically
  // across groups), so lanes that converge early never claim deeper
  // levels; once the arena is warm the level loop runs in one call.
  const detail::LevelFn fill = kernels_->levels[static_cast<std::size_t>(nw - 1)];
  int d = 0;
  for (;;) {
    d = fill(detail::LevelArgs{rows_.data(), pm_.data(), &level_, row_words, d,
                               static_cast<int>(rows_.size() / row_words)});
    if (level_.remaining == 0) break;
    ensureScratch(rows_, static_cast<std::size_t>(d + 1) * row_words);
  }
  for (int l = 0; l < lanes_; ++l) {
    Lane& lane = lane_state_[static_cast<std::size_t>(l)];
    if (!lane.valid) continue;
    lane.dmin = level_.dmin[static_cast<std::size_t>(l)];
    // The lane's own level count: dmin + 1, or k + 1 when it fails.
    stats_.lane_levels_useful +=
        static_cast<std::uint64_t>(lane.dmin >= 0 ? lane.dmin : lane.k) + 1;
  }
  stats_.lane_levels_issued +=
      static_cast<std::uint64_t>(d) * static_cast<std::uint64_t>(valid);
}

void SimdBatchSolver::runWalk(int nw, int n_max, bool record_ops) {
  const std::uint64_t col_words = static_cast<std::uint64_t>(nw) *
                                  static_cast<std::uint64_t>(lanes_);
  const std::uint64_t row_words =
      static_cast<std::uint64_t>(n_max + 1) * col_words;
  std::uint64_t rounds = 0;
  int walking = 0;
  for (int l = 0; l < lanes_; ++l) {
    Lane& lane = lane_state_[static_cast<std::size_t>(l)];
    const auto ul = static_cast<std::size_t>(l);
    if (!lane.valid || lane.dmin < 0) {
      lane.tb_budget = 0;
      walk_.i[ul] = walk_.pl[ul] = walk_.d[ul] = 0;
      walk_.rem[ul] = walk_.col[ul] = walk_.lvl[ul] = 0;
      continue;
    }
    // Every interior step consumes text or pattern, so n + m bounds the
    // rounds; a larger limit cannot bind inside the kernel.
    lane.tb_budget =
        std::min(genasm::tbOpBudget(lane.prob->tb_op_limit),
                 static_cast<std::uint64_t>(lane.n) +
                     static_cast<std::uint64_t>(lane.m));
    rounds = std::max(rounds, lane.tb_budget);
    walking += lane.tb_budget > 0 ? 1 : 0;
    walk_.i[ul] = static_cast<std::uint64_t>(lane.n);
    walk_.pl[ul] = static_cast<std::uint64_t>(lane.m);
    walk_.d[ul] = static_cast<std::uint64_t>(lane.dmin);
    walk_.rem[ul] = lane.tb_budget;
    walk_.col[ul] =
        lane.n > 0 ? static_cast<std::uint64_t>(lane.n - 1) * col_words + ul
                   : 0;
    walk_.lvl[ul] = static_cast<std::uint64_t>(lane.dmin) * row_words;
  }
  if (rounds == 0) return;
  std::uint64_t* ops = nullptr;
  if (record_ops) {
    ensureScratch(tb_ops_, static_cast<std::size_t>(rounds) *
                               static_cast<std::size_t>(lanes_));
    ensureScratch(tb_runs_, static_cast<std::size_t>(rounds));
    ops = tb_ops_.data();
  }
  const int lane_shift = std::countr_zero(static_cast<unsigned>(lanes_));
  detail::WalkArgs args{rows_.data(), pm_.data(), ops,        &walk_,
                        row_words,    col_words,   lane_shift, 0};
  if (walking * kLanesPerLoneWalk > lanes_) {
    kernels_->walk(args);
    return;
  }
  // A vector round costs as much for one lane as for L, so a group with
  // few lanes to walk (single-read requests, a march's last live
  // windows) walks them one at a time with the 1-lane instance.
  for (int l = 0; l < lanes_; ++l) {
    if (lane_state_[static_cast<std::size_t>(l)].tb_budget == 0) continue;
    args.lane0 = l;
    args.ops = ops != nullptr ? ops + l : nullptr;
    detail::kScalarKernels.walk(args);
  }
}

genasm::TbCursor SimdBatchSolver::walkCursor(const Lane& lane,
                                             int lane_idx) const noexcept {
  const auto ul = static_cast<std::size_t>(lane_idx);
  return genasm::TbCursor{static_cast<int>(walk_.i[ul]),
                          static_cast<int>(walk_.pl[ul]),
                          static_cast<int>(walk_.d[ul]),
                          lane.tb_budget - walk_.rem[ul]};
}

void SimdBatchSolver::pushLaneOps(int lane_idx, std::uint64_t ops,
                                  common::Cigar& cigar) {
  if (ops == 0) return;
  // Runs average about two ops at 10% error, so the encoding takes no
  // data-dependent branch: run k is rewritten in place until the code
  // changes. Distinct codes are distinct ops, so the runs are canonical.
  const std::uint64_t* code =
      tb_ops_.data() + static_cast<std::size_t>(lane_idx);
  const std::size_t stride = static_cast<std::size_t>(lanes_);
  common::CigarUnit* run = tb_runs_.data();
  std::size_t k = 0;
  std::uint64_t prev = code[0];
  std::uint32_t len = 0;
  for (std::uint64_t r = 0; r < ops; ++r) {
    const std::uint64_t c = code[r * stride];
    const std::uint32_t same = c == prev ? 1 : 0;
    k += 1 - same;
    len = (len & (0 - same)) + 1;
    run[k] = common::CigarUnit{kOpOfCode[c], len};
    prev = c;
  }
  cigar.appendRuns(std::span<const common::CigarUnit>(run, k + 1));
}

/// Per-lane probe for the shared genasm::walkTraceback: the improved
/// solver's compressed-entry derivation (recompute transition bits from
/// stored R values), reading the persisted SoA rows. It runs only where
/// the walk kernel stops — the edges, truncation and Bad — so those
/// rules keep their one implementation in genasm_common.hpp.
template <class Emit>
genasm::TbStatus SimdBatchSolver::finishLane(const Lane& lane, int lane_idx,
                                             genasm::TbCursor& cur, int nw,
                                             int n_max, Emit&& emit) const {
  const std::size_t colstride =
      static_cast<std::size_t>(nw) * static_cast<std::size_t>(lanes_);
  const std::size_t row_words =
      static_cast<std::size_t>(n_max + 1) * colstride;
  const std::string_view text = lane.prob->text;
  const std::string_view pattern = lane.prob->pattern;
  const int n = lane.n;
  const int m = lane.m;

  // Stored R[col][lvl] bit, active-low (see ImprovedWindowSolver::
  // rBitIsOne): bitidx -1 is the empty-prefix state, free at every column
  // of a StartOnly window; column 0 is analytic (onesAbove(lvl)).
  const auto rBitIsOne = [&](int col, int lvl, int bitidx) -> bool {
    if (bitidx < 0) return false;
    if (col == 0) return bitidx >= lvl;
    const std::uint64_t v =
        rows_[static_cast<std::size_t>(lvl) * row_words +
              (static_cast<std::size_t>(col) * nw +
               static_cast<std::size_t>(bitidx >> 6)) *
                  lanes_ +
              static_cast<std::size_t>(lane_idx)];
    return ((v >> (bitidx & 63)) & 1) != 0;
  };

  return genasm::walkTraceback(
      kStartOnly, cur, genasm::tbOpBudget(lane.prob->tb_op_limit),
      [&](int i, int pl, int d) {
        // text_rev[i-1] == text[n-i]; pattern_rev[pl-1] == pattern[m-pl].
        genasm::TbFlags f;
        f.match =
            common::baseCode(pattern[static_cast<std::size_t>(m - pl)]) ==
                common::baseCode(text[static_cast<std::size_t>(n - i)]) &&
            !rBitIsOne(i - 1, d, pl - 2);
        f.del = d >= 1 && !rBitIsOne(i - 1, d - 1, pl - 1);
        f.ins = d >= 1 && !rBitIsOne(i, d - 1, pl - 2);
        f.sub = d >= 1 && !rBitIsOne(i - 1, d - 1, pl - 2);
        return f;
      },
      std::forward<Emit>(emit));
}

template <class Finish>
void SimdBatchSolver::runGroups(const WindowProblem* problems,
                                std::size_t count, bool walk, bool record_ops,
                                Finish&& finish) {
  prepareOrder(problems, count);
  for (std::size_t base = 0; base < count;
       base += static_cast<std::size_t>(lanes_)) {
    const std::size_t group =
        std::min<std::size_t>(static_cast<std::size_t>(lanes_), count - base);
    const std::size_t* order = order_.data() + base;
    int nw = 1;
    int n_max = 0;
    const int valid = packGroup(problems, order, group, nw, n_max);
    if (valid > 0) {
      runFill(nw, n_max, valid);
      if (walk) runWalk(nw, n_max, record_ops);
    }
    for (std::size_t l = 0; l < group; ++l) {
      finish(order[l], lane_state_[l], static_cast<int>(l), nw, n_max);
    }
  }
}

void SimdBatchSolver::solveDistanceBatch(genasm::Anchor anchor,
                                         const WindowProblem* problems,
                                         std::size_t count, int* results) {
  requireStartOnly(anchor);
  runGroups(problems, count, /*walk=*/false, /*record_ops=*/false,
            [&](std::size_t idx, const Lane& lane, int, int, int) {
              results[idx] = lane.valid ? lane.dmin : -1;
            });
}

void SimdBatchSolver::solveWindowBatch(genasm::Anchor anchor,
                                       const WindowProblem* problems,
                                       std::size_t count, WindowOutcome* outs) {
  requireStartOnly(anchor);
  runGroups(
      problems, count, /*walk=*/true, /*record_ops=*/false,
      [&](std::size_t idx, const Lane& lane, int l, int nw, int n_max) {
        WindowOutcome& out = outs[idx];
        out = WindowOutcome{};
        if (!lane.valid || lane.dmin < 0) return;  // ok stays false
        out.distance = lane.dmin;
        // Every op moves the cursor, so the counts are its deltas.
        genasm::TbCursor cur = walkCursor(lane, l);
        const genasm::TbStatus status =
            finishLane(lane, l, cur, nw, n_max,
                       [](common::EditOp, std::uint32_t) {});
        out.ok = status != genasm::TbStatus::Bad;
        out.edits = static_cast<std::uint64_t>(lane.dmin - cur.d);
        out.text_consumed = static_cast<std::uint64_t>(lane.n - cur.i);
        out.pattern_consumed = static_cast<std::uint64_t>(lane.m - cur.pl);
      });
}

void SimdBatchSolver::alignBatch(genasm::Anchor anchor,
                                 const WindowProblem* problems,
                                 std::size_t count,
                                 genasm::WindowResult* outs) {
  requireStartOnly(anchor);
  runGroups(
      problems, count, /*walk=*/true, /*record_ops=*/true,
      [&](std::size_t idx, const Lane& lane, int l, int nw, int n_max) {
        // In-place reset, as the scalar solvers' in-place solve() does:
        // the cigar keeps its capacity across batches.
        genasm::WindowResult& out = outs[idx];
        out.ok = false;
        out.distance = -1;
        out.traceback_complete = false;
        out.cigar.clear();
        if (!lane.valid || lane.dmin < 0) return;  // ok stays false
        out.distance = lane.dmin;
        genasm::TbCursor cur = walkCursor(lane, l);
        pushLaneOps(l, cur.ops, out.cigar);
        const genasm::TbStatus status = finishLane(
            lane, l, cur, nw, n_max,
            [&](common::EditOp op, std::uint32_t cnt) {
              out.cigar.push(op, cnt);
            });
        out.ok = status != genasm::TbStatus::Bad;
        out.traceback_complete = status == genasm::TbStatus::Complete;
      });
}

}  // namespace gx::simd
