// SIMD dispatch helpers shared by the suites that pin level invariance:
// the levels this host can run, and a guard that restores the active one.
#pragma once

#include <vector>

#include "util/cpu.h"

namespace pcw::testsupport {

/// Dispatch levels this host can actually run (scalar always; vector
/// levels only when detected, since simd_set_active clamps).
inline std::vector<util::Simd> available_levels() {
  std::vector<util::Simd> levels{util::Simd::kScalar};
  if (util::simd_detected() >= util::Simd::kAvx2) levels.push_back(util::Simd::kAvx2);
  if (util::simd_detected() >= util::Simd::kAvx512) levels.push_back(util::Simd::kAvx512);
  return levels;
}

/// Restores the process-wide active level however a test exits.
struct ActiveGuard {
  util::Simd saved = util::simd_active();
  ~ActiveGuard() { util::simd_set_active(saved); }
};

}  // namespace pcw::testsupport
