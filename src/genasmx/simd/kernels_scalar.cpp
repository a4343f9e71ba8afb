// Portable scalar-lane fill kernels: the bit-identical reference the
// vector kernels are checked against, and the dispatch target on
// non-x86 hosts or under GENASMX_FORCE_SCALAR. L = 1, so the SoA layout
// degenerates to one contiguous bitvector per column.

#include "genasmx/simd/fill_kernel.hpp"

namespace gx::simd::detail {
namespace {

struct ScalarOps {
  using V = std::uint64_t;
  static constexpr int kLanes = 1;
  static V load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, V v) { *p = v; }
  static V or_(V x, V y) { return x | y; }
  static V orAnd(V x, V y, V z) {
    return (x | y) & z;
  }
  static V shl1(V x) { return x << 1; }
  static V top(V x) { return x >> 63; }
  static V set1(std::uint64_t v) { return v; }
};

}  // namespace

constinit const FillTable kFillScalar = makeFillTable<ScalarOps>();

}  // namespace gx::simd::detail
