// AVX2 fill kernels: 4 x 64-bit lanes per vector op. This TU is the only
// one compiled with -mavx2 (see CMakeLists); it must contain no code
// that runs before dispatch confirms CPU support. Without the flag the
// kernels are null and dispatch settles on SSE2 or scalar.

#include "genasmx/simd/kernels.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include "genasmx/simd/fill_kernel.hpp"

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
};

}  // namespace

constinit const FillTable kFillAvx2 = makeFillTable<Avx2Ops>();

}  // namespace gx::simd::detail

#else  // !__AVX2__

namespace gx::simd::detail {
constinit const FillTable kFillAvx2 = {};
}  // namespace gx::simd::detail

#endif
