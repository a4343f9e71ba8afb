#include "genasmx/simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>

#include "genasmx/simd/kernels.hpp"

namespace gx::simd {
namespace {

bool cpuSupports(IsaLevel level) noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  switch (level) {
    case IsaLevel::Avx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
    case IsaLevel::Avx2: return __builtin_cpu_supports("avx2") != 0;
    case IsaLevel::Sse2: return __builtin_cpu_supports("sse2") != 0;
    default: return true;
  }
#else
  return level == IsaLevel::Scalar;
#endif
}

bool envForcesScalar() noexcept {
  const char* v = std::getenv("GENASMX_FORCE_SCALAR");
  if (v == nullptr || v[0] == '\0') return false;
  return !(v[0] == '0' && v[1] == '\0');
}

IsaLevel detect() noexcept {
#if defined(GENASMX_FORCE_SCALAR)
  return IsaLevel::Scalar;
#else
  if (envForcesScalar()) return IsaLevel::Scalar;
  if (isaSupported(IsaLevel::Avx512)) return IsaLevel::Avx512;
  if (isaSupported(IsaLevel::Avx2)) return IsaLevel::Avx2;
  if (isaSupported(IsaLevel::Sse2)) return IsaLevel::Sse2;
  return IsaLevel::Scalar;
#endif
}

/// Next level down the clamp chain Avx512 -> Avx2 -> Sse2 -> Scalar.
IsaLevel lowerLevel(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::Avx512: return IsaLevel::Avx2;
    case IsaLevel::Avx2: return IsaLevel::Sse2;
    default: return IsaLevel::Scalar;
  }
}

std::atomic<int>& activeSlot() noexcept {
  // -1 = not yet detected. Plain int so the atomic stays lock-free.
  static std::atomic<int> slot{-1};
  return slot;
}

}  // namespace

std::string_view isaName(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::Avx512: return "avx512";
    case IsaLevel::Avx2: return "avx2";
    case IsaLevel::Sse2: return "sse2";
    default: return "scalar";
  }
}

bool isaSupported(IsaLevel level) noexcept {
  return level == IsaLevel::Scalar ||
         (detail::kernelsFor(level).fill[0] != nullptr && cpuSupports(level));
}

IsaLevel activeIsa() noexcept {
  int v = activeSlot().load(std::memory_order_acquire);
  if (v < 0) {
    v = static_cast<int>(detect());
    activeSlot().store(v, std::memory_order_release);
  }
  return static_cast<IsaLevel>(v);
}

IsaLevel clampIsa(IsaLevel level) noexcept {
  while (level != IsaLevel::Scalar && !isaSupported(level)) {
    level = lowerLevel(level);
  }
  return level;
}

IsaLevel forceIsa(IsaLevel level) noexcept {
  level = clampIsa(level);
  activeSlot().store(static_cast<int>(level), std::memory_order_release);
  return level;
}

}  // namespace gx::simd
