// AVX-512 fill and walk kernels: 8 x 64-bit lanes per vector op. This
// TU is the only one compiled with -mavx512f -mavx512bw (see
// CMakeLists); it must contain no code that runs before dispatch
// confirms CPU support. Without the flags the kernels are null and
// dispatch settles on AVX2, SSE2, or scalar.

#include "genasmx/simd/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)
#include <immintrin.h>

#include "genasmx/simd/fill_kernel.hpp"
#include "genasmx/simd/walk_kernel.hpp"

namespace gx::simd::detail {
namespace {

struct Avx512Ops {
  using V = __m512i;
  static constexpr int kLanes = 8;
  static constexpr __mmask8 kAll = 0xFF;
  static V load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
  static void store(std::uint64_t* p, V v) { _mm512_storeu_si512(p, v); }
  static V or_(V x, V y) { return _mm512_or_si512(x, y); }
  static V orAnd(V x, V y, V z) {
    // One vpternlogq: 0xA8 is (a | b) & c over the truth-table bytes
    // a = 0xF0, b = 0xCC, c = 0xAA.
    return _mm512_ternarylogic_epi64(x, y, z, 0xA8);
  }
  static V shl1(V x) { return _mm512_add_epi64(x, x); }
  // Shifts go through the zero-masking forms with every lane selected:
  // the plain forms pass _mm512_undefined_epi32() through, which GCC's
  // own header then flags as uninitialized inside the walk loop. The
  // all-lanes mask compiles to the same unmasked instruction.
  static V top(V x) { return _mm512_maskz_srli_epi64(kAll, x, 63); }
  static V set1(std::uint64_t v) {
    return _mm512_set1_epi64(static_cast<long long>(v));
  }
  static V add(V x, V y) { return _mm512_add_epi64(x, y); }
  static V sub(V x, V y) { return _mm512_sub_epi64(x, y); }
  static V and_(V x, V y) { return _mm512_and_si512(x, y); }
  static V andnot(V x, V y) { return _mm512_andnot_si512(x, y); }
  template <int S>
  static V srli(V x) { return _mm512_maskz_srli_epi64(kAll, x, S); }
  static V sll(V x, int s) {
    return _mm512_maskz_sll_epi64(kAll, x, _mm_cvtsi32_si128(s));
  }
  static V srlv(V x, V s) { return _mm512_maskz_srlv_epi64(kAll, x, s); }
  static V gather(const std::uint64_t* base, V idx) {
    return _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), kAll, idx,
                                       base, 8);
  }
  static bool any(V x) { return _mm512_test_epi64_mask(x, x) != 0; }
};

}  // namespace

constinit const FillTable kFillAvx512 = makeFillTable<Avx512Ops>();
constinit const WalkFn kWalkAvx512 = &walkLanes<Avx512Ops>;

}  // namespace gx::simd::detail

#else  // !(__AVX512F__ && __AVX512BW__)

namespace gx::simd::detail {
constinit const FillTable kFillAvx512 = {};
constinit const WalkFn kWalkAvx512 = nullptr;
}  // namespace gx::simd::detail

#endif
