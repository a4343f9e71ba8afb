// Portable scalar-lane kernels: the bit-identical
// reference the vector kernels are checked against, and the dispatch
// target on non-x86 hosts or under GENASMX_FORCE_SCALAR. L = 1, so the
// SoA layout degenerates to one contiguous bitvector per column.

#include <algorithm>
#include <array>
#include <cstring>

#include "genasmx/simd/fill_kernel.hpp"
#include "genasmx/simd/pack_kernel.hpp"
#include "genasmx/simd/walk_kernel.hpp"

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
  static V add(V x, V y) { return x + y; }
  static V sub(V x, V y) { return x - y; }
  static V and_(V x, V y) { return x & y; }
  static V andnot(V x, V y) { return ~x & y; }
  template <int S>
  static V srli(V x) { return x >> S; }
  static V sll(V x, int s) { return x << s; }
  static V srlv(V x, V s) { return x >> s; }
  static V gather(const std::uint64_t* base, V idx) { return base[idx]; }
  static bool any(V x) { return x != 0; }

  using B = std::array<std::uint8_t, 64>;
  static B loadBytes(const std::uint8_t* p, int count) {
    B b{};
    std::memcpy(b.data(), p, static_cast<std::size_t>(count));
    return b;
  }
  static B reverseBytes(B b) {
    std::reverse(b.begin(), b.end());
    return b;
  }
  static std::uint64_t foldedEq(const B& b, char c) {
    std::uint64_t out = 0;
    for (int i = 0; i < 64; ++i) {
      const bool eq = (b[static_cast<std::size_t>(i)] | 0x20) ==
                      static_cast<unsigned char>(c);
      out |= static_cast<std::uint64_t>(eq) << i;
    }
    return out;
  }
  using M = V;  // all ones or zero
  static M topSet(V x) { return 0 - (x >> 63); }
  static V select(M m, V a, V b) { return (a & ~m) | (b & m); }
};

}  // namespace

constinit const IsaKernels kScalarKernels = {
    makeFillTable<ScalarOps>(), makeLevelTable<ScalarOps>(),
    makePackTable<ScalarOps>(), &walkLanes<ScalarOps>};

}  // namespace gx::simd::detail
