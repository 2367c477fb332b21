#ifndef XJOIN_COMMON_SIMD_H_
#define XJOIN_COMMON_SIMD_H_

// The host CPU's vector ISA, probed once per process. Nothing in the
// engine dispatches on it: the intersection kernel
// (relational/intersect_kernels.h) is portable scalar code. It is
// reported only in the benchmark harness's host fingerprint.

namespace xjoin {

enum class SimdLevel : int {
  kScalar = 0,
  kSse42 = 1,
  kAvx2 = 2,
};

inline const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse42:
      return "sse42";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "scalar";
}

/// The highest level this CPU supports, probed once per process.
inline SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected = [] {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
    if (__builtin_cpu_supports("sse4.2")) return SimdLevel::kSse42;
#endif
    return SimdLevel::kScalar;
  }();
  return detected;
}

}  // namespace xjoin

#endif  // XJOIN_COMMON_SIMD_H_
