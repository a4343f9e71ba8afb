// SSE2 fill and walk kernels: 2 x 64-bit lanes per vector op. SSE2 is
// part of the x86-64 baseline, so this TU needs no special flags there;
// elsewhere it compiles to null kernels and dispatch falls back to
// scalar lanes.

#include "genasmx/simd/kernels.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>

#include "genasmx/simd/fill_kernel.hpp"
#include "genasmx/simd/walk_kernel.hpp"

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
  static V add(V x, V y) { return _mm_add_epi64(x, y); }
  static V sub(V x, V y) { return _mm_sub_epi64(x, y); }
  static V and_(V x, V y) { return _mm_and_si128(x, y); }
  static V andnot(V x, V y) { return _mm_andnot_si128(x, y); }
  template <int S>
  static V srli(V x) { return _mm_srli_epi64(x, S); }
  static V sll(V x, int s) {
    return _mm_sll_epi64(x, _mm_cvtsi32_si128(s));
  }
  static V srlv(V x, V s) {
    // No per-lane shift before AVX2: shift twice, keep one lane of each.
    const V lo = _mm_srl_epi64(x, s);
    const V hi = _mm_srl_epi64(x, _mm_unpackhi_epi64(s, s));
    return _mm_castpd_si128(
        _mm_move_sd(_mm_castsi128_pd(hi), _mm_castsi128_pd(lo)));
  }
  static V gather(const std::uint64_t* base, V idx) {
    const auto i0 = static_cast<std::uint64_t>(_mm_cvtsi128_si64(idx));
    const auto i1 = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm_unpackhi_epi64(idx, idx)));
    return _mm_set_epi64x(static_cast<long long>(base[i1]),
                          static_cast<long long>(base[i0]));
  }
  static bool any(V x) {
    return _mm_movemask_epi8(_mm_cmpeq_epi32(x, _mm_setzero_si128())) !=
           0xFFFF;
  }
};

}  // namespace

constinit const FillTable kFillSse2 = makeFillTable<Sse2Ops>();
constinit const WalkFn kWalkSse2 = &walkLanes<Sse2Ops>;

}  // namespace gx::simd::detail

#else  // !__SSE2__

namespace gx::simd::detail {
constinit const FillTable kFillSse2 = {};
constinit const WalkFn kWalkSse2 = nullptr;
}  // namespace gx::simd::detail

#endif
