#include "util/cpu.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>

// PCW_HAVE_AVX2 / PCW_HAVE_AVX512 mirror which kernel TUs the build
// actually compiled (set per-file from src/CMakeLists.txt). Detection is
// clamped to that: advertising a level with no kernels behind it would
// make the dispatch layer promise code that was never built.
#ifndef PCW_HAVE_AVX2
#define PCW_HAVE_AVX2 0
#endif
#ifndef PCW_HAVE_AVX512
#define PCW_HAVE_AVX512 0
#endif

namespace pcw::util {
namespace {

Simd detect() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  // Both vector levels' TUs are built with BMI1/BMI2 too (the Huffman
  // pack loop's shifts), which every AVX2 CPU the levels target has.
  const bool bmi = __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2");
  if (PCW_HAVE_AVX512 && bmi && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return Simd::kAvx512;
  }
  if (PCW_HAVE_AVX2 && bmi && __builtin_cpu_supports("avx2")) {
    return Simd::kAvx2;
  }
#endif
  return Simd::kScalar;
}

Simd clamp(Simd level, Simd ceiling) {
  return static_cast<int>(level) < static_cast<int>(ceiling) ? level : ceiling;
}

Simd from_env(Simd detected) {
  const char* env = std::getenv("PCW_SIMD");
  if (env == nullptr || *env == '\0') return detected;
  if (std::strcmp(env, "avx512") == 0) return clamp(Simd::kAvx512, detected);
  if (std::strcmp(env, "avx2") == 0) return clamp(Simd::kAvx2, detected);
  // "off", "scalar", and anything unrecognized all mean the safe level.
  return Simd::kScalar;
}

// -1 = not yet resolved; otherwise the cached Simd value.
std::atomic<int> g_active{-1};

}  // namespace

Simd simd_detected() {
  static const Simd detected = detect();
  return detected;
}

Simd simd_active() {
  const int cached = g_active.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<Simd>(cached);
  const Simd resolved = from_env(simd_detected());
  g_active.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

void simd_set_active(Simd level) {
  g_active.store(static_cast<int>(clamp(level, simd_detected())),
                 std::memory_order_relaxed);
}

const char* simd_name(Simd level) {
  switch (level) {
    case Simd::kAvx512:
      return "avx512";
    case Simd::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace pcw::util
