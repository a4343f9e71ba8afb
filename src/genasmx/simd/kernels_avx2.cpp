// AVX2 fill and walk kernels: 4 x 64-bit lanes per vector op. This TU
// is the only one compiled with -mavx2 (see CMakeLists); it must contain
// no code that runs before dispatch confirms CPU support. Without the
// flag the kernels are null and dispatch settles on SSE2 or scalar.

#include "genasmx/simd/kernels.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include "genasmx/simd/fill_kernel.hpp"
#include "genasmx/simd/walk_kernel.hpp"

namespace gx::simd::detail {
namespace {

struct Avx2Ops {
  using V = __m256i;
  static constexpr int kLanes = 4;
  static V load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V or_(V x, V y) { return _mm256_or_si256(x, y); }
  static V orAnd(V x, V y, V z) {
    return _mm256_and_si256(_mm256_or_si256(x, y), z);
  }
  static V shl1(V x) { return _mm256_add_epi64(x, x); }
  static V top(V x) { return _mm256_srli_epi64(x, 63); }
  static V set1(std::uint64_t v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  }
  static V add(V x, V y) { return _mm256_add_epi64(x, y); }
  static V sub(V x, V y) { return _mm256_sub_epi64(x, y); }
  static V and_(V x, V y) { return _mm256_and_si256(x, y); }
  static V andnot(V x, V y) { return _mm256_andnot_si256(x, y); }
  template <int S>
  static V srli(V x) { return _mm256_srli_epi64(x, S); }
  static V sll(V x, int s) {
    return _mm256_sll_epi64(x, _mm_cvtsi32_si128(s));
  }
  static V srlv(V x, V s) { return _mm256_srlv_epi64(x, s); }
  static V gather(const std::uint64_t* base, V idx) {
    return _mm256_i64gather_epi64(reinterpret_cast<const long long*>(base),
                                  idx, 8);
  }
  static bool any(V x) { return _mm256_testz_si256(x, x) == 0; }
};

}  // namespace

constinit const FillTable kFillAvx2 = makeFillTable<Avx2Ops>();
constinit const WalkFn kWalkAvx2 = &walkLanes<Avx2Ops>;

}  // namespace gx::simd::detail

#else  // !__AVX2__

namespace gx::simd::detail {
constinit const FillTable kFillAvx2 = {};
constinit const WalkFn kWalkAvx2 = nullptr;
}  // namespace gx::simd::detail

#endif
