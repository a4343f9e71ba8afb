#pragma once
// The one walk-kernel body behind every ISA level (see kernels.hpp for
// the contract). Each kernels_<isa>.cpp instantiates walkLanes<Ops> with
// the same file-local ops trait as its fill kernels, which for the walk
// also provides:
//
//   static V add(V, V);  static V sub(V, V);   // per 64-bit lane
//   static V and_(V, V);
//   static V andnot(V x, V y);                 // ~x & y
//   template <int S> static V srli(V);         // >> by a constant
//   static V sll(V x, int s);                  // x << s, every lane
//   static V srlv(V x, V s);                   // x >> s, per lane
//   static V gather(const std::uint64_t* base, V idx);  // base[idx]
//   static bool any(V);                        // some lane non-zero
//
// Lane conditions are 0/1 values, not compare masks: a stored bit comes
// out of srlv as bit 0, "x != 0" is (0 - x) >> 63 for the small cursor
// values, and 0 - flag widens a flag to an all-ones mask where a cursor
// offset must drop by a word stride. Masked-off lanes gather from index
// 0 (in range of both arenas), so no load needs a lane mask.
//
// The register width need not match the group's layout: the 1-lane
// instance can walk any one lane of an L-lane group (WalkArgs::lane0,
// lane_shift), which SimdBatchSolver does when a group holds too few
// solved lanes to fill a vector round.
//
// The step is genasm::walkTraceback's probe step with the flags of the
// SIMD solver's probe (SimdBatchSolver::finishLane): per lane, for state
// (i, pl, d) with bit a = pl-1 and bit b = pl-2,
//   match = pm[i-1] bit a == 0 && R[i-1][d] bit b == 0
//   del   = d >= 1 && R[i-1][d-1] bit a == 0
//   ins   = d >= 1 && R[i][d-1]   bit b == 0
//   sub   = d >= 1 && R[i-1][d-1] bit b == 0
// (pm bit a is 0 exactly when the two bases' codes are equal). In the
// interior bit b >= 0 and column i-1 >= 0 is stored (column 0 holds
// onesAbove(d), the analytic value), so neither the anchor's shift-in
// bit nor column 0 needs a branch.

#include <cstddef>
#include <cstdint>

#include "genasmx/simd/kernels.hpp"

namespace gx::simd::detail {

template <class Ops>
void walkLanes(const WalkArgs& a) {
  using V = typename Ops::V;
  const int shift = a.lane_shift;
  const std::size_t stride = std::size_t{1} << shift;  // layout lanes
  const std::uint64_t* rows = a.rows;
  const std::uint64_t* pm = a.pm;
  std::uint64_t* ops = a.ops;
  WalkLanes& s = *a.lanes;
  const std::size_t l0 = static_cast<std::size_t>(a.lane0);
  const V zero = Ops::set1(0);
  const V one = Ops::set1(1);
  const V two = Ops::set1(2);
  const V low6 = Ops::set1(63);
  const V row_words = Ops::set1(a.row_words);
  const V col_words = Ops::set1(a.col_words);
  const auto nonzero = [&](V x) { return Ops::top(Ops::sub(zero, x)); };
  const auto widen = [&](V flag) { return Ops::sub(zero, flag); };

  V i = Ops::load(s.i + l0);
  V pl = Ops::load(s.pl + l0);
  V d = Ops::load(s.d + l0);
  V rem = Ops::load(s.rem + l0);
  V col = Ops::load(s.col + l0);
  V lvl = Ops::load(s.lvl + l0);
  V live = one;
  for (;;) {
    live = Ops::and_(
        live, Ops::and_(Ops::and_(nonzero(i), nonzero(rem)),
                        nonzero(Ops::template srli<1>(pl))));
    if (!Ops::any(live)) break;
    const V keep = widen(live);
    const V dkeep = Ops::and_(keep, widen(nonzero(d)));

    const V pa = Ops::sub(pl, one);  // bit a = pl - 1
    const V pb = Ops::sub(pl, two);  // bit b = pl - 2
    const V wa = Ops::sll(Ops::template srli<6>(pa), shift);
    const V wb = Ops::sll(Ops::template srli<6>(pb), shift);
    const V ba = Ops::and_(pa, low6);
    const V bb = Ops::and_(pb, low6);
    const V at_b = Ops::add(lvl, Ops::add(col, wb));  // R[i-1][d], word b
    const V up_b = Ops::sub(at_b, row_words);         // R[i-1][d-1], word b
    const V up_a =  // R[i-1][d-1], word a
        Ops::add(Ops::sub(lvl, row_words), Ops::add(col, wa));

    const V pm_w = Ops::gather(pm, Ops::and_(Ops::add(col, wa), keep));
    const V m_w = Ops::gather(rows, Ops::and_(at_b, keep));
    const V del_w = Ops::gather(rows, Ops::and_(up_a, dkeep));
    const V ins_w =  // R[i][d-1], word b
        Ops::gather(rows, Ops::and_(Ops::add(up_b, col_words), dkeep));
    const V sub_w = Ops::gather(rows, Ops::and_(up_b, dkeep));

    const V dpos = Ops::and_(dkeep, one);
    const V fm = Ops::andnot(
        Ops::or_(Ops::srlv(pm_w, ba), Ops::srlv(m_w, bb)), live);
    const V fd = Ops::andnot(Ops::srlv(del_w, ba), dpos);
    const V fi = Ops::andnot(Ops::srlv(ins_w, bb), dpos);
    const V fs = Ops::andnot(Ops::srlv(sub_w, bb), dpos);

    // A lane with no usable transition stops here, uncounted.
    const V edit = Ops::or_(Ops::or_(fd, fi), fs);
    live = Ops::or_(fm, edit);
    const V step_i = Ops::or_(Ops::or_(fm, fd), Ops::andnot(fi, fs));
    const V step_pl = Ops::or_(fm, Ops::andnot(fd, Ops::or_(fi, fs)));
    const V step_d = Ops::andnot(fm, edit);
    if (ops != nullptr) {
      Ops::store(ops, Ops::or_(Ops::or_(step_i, Ops::add(step_pl, step_pl)),
                               Ops::sll(step_d, 2)));
      ops += stride;
    }
    i = Ops::sub(i, step_i);
    col = Ops::sub(col, Ops::and_(widen(step_i), col_words));
    pl = Ops::sub(pl, step_pl);
    d = Ops::sub(d, step_d);
    lvl = Ops::sub(lvl, Ops::and_(widen(step_d), row_words));
    rem = Ops::sub(rem, live);
  }
  Ops::store(s.i + l0, i);
  Ops::store(s.pl + l0, pl);
  Ops::store(s.d + l0, d);
  Ops::store(s.rem + l0, rem);
}

}  // namespace gx::simd::detail
