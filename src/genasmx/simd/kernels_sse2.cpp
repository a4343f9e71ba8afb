// SSE2 fill kernels: 2 x 64-bit lanes per vector op. SSE2 is part of the
// x86-64 baseline, so this TU needs no special flags there; elsewhere it
// compiles to null kernels and dispatch falls back to scalar lanes.

#include "genasmx/simd/kernels.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>

#include "genasmx/simd/fill_kernel.hpp"

namespace gx::simd::detail {
namespace {

struct Sse2Ops {
  using V = __m128i;
  static constexpr int kLanes = 2;
  static V load(const std::uint64_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(std::uint64_t* p, V v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static V or_(V x, V y) { return _mm_or_si128(x, y); }
  static V orAnd(V x, V y, V z) {
    return _mm_and_si128(_mm_or_si128(x, y), z);
  }
  static V shl1(V x) { return _mm_add_epi64(x, x); }
  static V top(V x) { return _mm_srli_epi64(x, 63); }
  static V set1(std::uint64_t v) {
    return _mm_set1_epi64x(static_cast<long long>(v));
  }
};

}  // namespace

constinit const FillTable kFillSse2 = makeFillTable<Sse2Ops>();

}  // namespace gx::simd::detail

#else  // !__SSE2__

namespace gx::simd::detail {
constinit const FillTable kFillSse2 = {};
}  // namespace gx::simd::detail

#endif
