// AVX2 lane kernels: 256 lanes per operation on one ymm register. Built
// with -mavx2 when the compiler supports it (see the top-level
// CMakeLists.txt per-file flags); otherwise this TU degrades to a stub
// registry returning null and the dispatcher uses the portable
// LaneWord<256> path instead. Nothing here executes unless
// resolve_lane_kernels checked __builtin_cpu_supports("avx2") first.

#include "apsim/lane_word.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "apsim/lane_kernels_impl.hpp"

namespace apss::apsim::detail {
namespace {

/// Vector policy over one unaligned 256-bit integer register; the same
/// bitwise contract as LaneWord<256>.
struct Avx2Word {
  static constexpr std::size_t kWords = 4;
  __m256i v;

  static Avx2Word load(const std::uint64_t* p) noexcept {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::uint64_t* p) const noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Avx2Word zero() noexcept { return {_mm256_setzero_si256()}; }
  friend Avx2Word operator|(Avx2Word a, Avx2Word b) noexcept {
    return {_mm256_or_si256(a.v, b.v)};
  }
  friend Avx2Word operator&(Avx2Word a, Avx2Word b) noexcept {
    return {_mm256_and_si256(a.v, b.v)};
  }
  friend Avx2Word operator^(Avx2Word a, Avx2Word b) noexcept {
    return {_mm256_xor_si256(a.v, b.v)};
  }
  Avx2Word andnot(Avx2Word mask) const noexcept {
    return {_mm256_andnot_si256(mask.v, v)};  // intrinsic is ~a & b
  }
  bool any() const noexcept { return _mm256_testz_si256(v, v) == 0; }
};

constexpr LaneKernels make_kernels() {
  LaneKernels k;
  k.width = LaneWidth::k256;
  k.simd = true;
  k.isa = "avx2";
  k.or_rows = or_rows_impl<Avx2Word>;
  k.counter_update = counter_update_impl<Avx2Word>;
  k.count_rows = count_rows_impl<Avx2Word>;
  return k;
}

const LaneKernels kAvx2Kernels = make_kernels();

}  // namespace

const LaneKernels* avx2_lane_kernels() noexcept { return &kAvx2Kernels; }

}  // namespace apss::apsim::detail

#else  // !defined(__AVX2__)

namespace apss::apsim::detail {
const LaneKernels* avx2_lane_kernels() noexcept { return nullptr; }
}  // namespace apss::apsim::detail

#endif
