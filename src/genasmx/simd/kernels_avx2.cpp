// AVX2 kernels: 4 x 64-bit lanes per vector op. This TU
// is the only one compiled with -mavx2 (see CMakeLists); it must contain
// no code that runs before dispatch confirms CPU support. Without the
// flag the kernels are null and dispatch settles on SSE2 or scalar.

#include "genasmx/simd/kernels.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include <cstring>

#include "genasmx/simd/fill_kernel.hpp"
#include "genasmx/simd/pack_kernel.hpp"
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

  struct B {
    V lo, hi;  // bytes 0-31, 32-63
  };
  static B loadBytes(const std::uint8_t* p, int count) {
    if (count < 64) {
      alignas(32) std::uint8_t buf[64] = {};
      std::memcpy(buf, p, static_cast<std::size_t>(count));
      return loadBytes(buf, 64);
    }
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32))};
  }
  static V reverse32(V x) {
    const V in_lane = _mm256_broadcastsi128_si256(
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
    return _mm256_permute4x64_epi64(_mm256_shuffle_epi8(x, in_lane), 0x4E);
  }
  static B reverseBytes(B b) { return {reverse32(b.hi), reverse32(b.lo)}; }
  static std::uint64_t foldedEq(B b, char c) {
    const V fold = _mm256_set1_epi8(0x20);
    const V want = _mm256_set1_epi8(c);
    const auto bits = [&](V x) {
      return static_cast<std::uint32_t>(_mm256_movemask_epi8(
          _mm256_cmpeq_epi8(_mm256_or_si256(x, fold), want)));
    };
    return bits(b.lo) | static_cast<std::uint64_t>(bits(b.hi)) << 32;
  }
  // blendv_pd selects on each 64-bit lane's sign bit: the lane word
  // itself is the predicate.
  using M = V;
  static M topSet(V x) { return x; }
  static V select(M m, V a, V b) {
    return _mm256_castpd_si256(_mm256_blendv_pd(
        _mm256_castsi256_pd(a), _mm256_castsi256_pd(b),
        _mm256_castsi256_pd(m)));
  }
};

}  // namespace

constinit const IsaKernels kAvx2Kernels = {
    makeFillTable<Avx2Ops>(), makeLevelTable<Avx2Ops>(),
    makePackTable<Avx2Ops>(), &walkLanes<Avx2Ops>};

}  // namespace gx::simd::detail

#else  // !__AVX2__

namespace gx::simd::detail {
constinit const IsaKernels kAvx2Kernels = {};
}  // namespace gx::simd::detail

#endif
