#pragma once
// Shared kernel bodies for every lane-word backend. Each translation unit
// (portable, AVX2, AVX-512) instantiates these templates with its own
// vector policy type V — LaneWord<W> for the portable builds, an intrinsic
// wrapper for the SIMD ones. The dataflow is identical everywhere, which is
// what makes the widths bit-identical by construction: only the number of
// 64-bit words touched per iteration changes.
//
// V must provide: kWords, load/store/zero, operator| & ^, andnot(mask)
// (= *this & ~mask), and any(). Callers guarantee ctx.words (and the
// `words` of or_rows and count_rows) is a multiple of V::kWords and that
// every array is zero-padded past the live lanes, so no tail handling
// exists here.

#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "apsim/lane_word.hpp"

namespace apss::apsim::detail {

template <class V>
inline void or_rows_impl(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t words) {
  for (std::size_t w = 0; w < words; w += V::kWords) {
    (V::load(dst + w) | V::load(src + w)).store(dst + w);
  }
}

/// One cycle of the bit-sliced counter bank, W lanes per iteration — the
/// exact per-word dataflow of the original 64-bit loop (see
/// BatchSimulator::step, step 5):
///   roots   = ring (the L-cycle collector delay line output)
///   ring    = scratch (this cycle's packed match word enters the line)
///   inc     = (roots | sort_enable) & ~reset
///   planes += inc (ripple carry; saturate past the top plane)
///   reset  -> reload the bias
///   pulse   = rising edge of (count >= threshold)
/// The only difference at W > 64: the ripple-carry early exit triggers per
/// BLOCK (all W lanes' carries zero) instead of per word — more work in
/// rare carry-skewed blocks, identical bits always.
template <class V>
inline void counter_update_impl(const LaneCounterCtx& ctx) {
  const std::size_t stride = ctx.words;
  for (std::size_t w = 0; w < ctx.words; w += V::kWords) {
    const V roots = V::load(ctx.ring + w);
    V::load(ctx.scratch + w).store(ctx.ring + w);
    const V valid = V::load(ctx.valid + w);
    const V reset = ctx.eof_now ? valid : V::zero();
    V inc = roots;
    if (ctx.sort_now) {
      inc = inc | valid;
    }
    inc = inc.andnot(reset);

    V add = inc;
    std::uint32_t q = 0;
    for (; q < ctx.plane_count && add.any(); ++q) {
      std::uint64_t* pw = ctx.planes + q * stride + w;
      const V plane = V::load(pw);
      (plane ^ add).store(pw);
      add = add & plane;  // carry out of plane q
    }
    if (add.any()) {  // overflow: pin the count at its (>= threshold) max
      for (std::uint32_t r = 0; r < ctx.plane_count; ++r) {
        std::uint64_t* pw = ctx.planes + r * stride + w;
        (V::load(pw) | add).store(pw);
      }
    }
    if (ctx.eof_now) {
      for (std::uint32_t r = 0; r < ctx.plane_count; ++r) {
        std::uint64_t* pw = ctx.planes + r * stride + w;
        V plane = V::load(pw).andnot(reset);
        if ((ctx.bias >> r) & 1) {
          plane = plane | reset;
        }
        plane.store(pw);
      }
    }
    const V cond = V::load(ctx.planes + ctx.cond_plane * stride + w) |
                   V::load(ctx.planes + (ctx.cond_plane + 1) * stride + w);
    const V prev = V::load(ctx.cond_prev + w);
    cond.andnot(prev).store(ctx.pulse + w);  // rising edge -> pulse
    cond.store(ctx.cond_prev + w);
  }
}

/// Carry-save adder: per bit, sum + b + c -> (returned carry, new sum).
template <class V>
inline V carry_save(V& sum, const V& b, const V& c) {
  const V u = sum ^ b;
  const V carry = (sum & b) | (u & c);
  sum = u ^ c;
  return carry;
}

/// Adds the one-bit-per-lane `add` into the bit-sliced counter `planes`
/// (ripple carry; stops once no lane carries).
template <class V>
inline void ripple_add(V* planes, std::size_t plane_count, V add) {
  for (std::size_t q = 0; q < plane_count && add.any(); ++q) {
    const V plane = planes[q];
    planes[q] = plane ^ add;
    add = add & plane;
  }
}

/// Per-lane popcount of `n_rows` lane-mask rows, bit-sliced (see
/// LaneKernels::count_rows). A Harley-Seal carry-save tree folds eight rows
/// at a time into the ones/twos/fours registers and hands each eights
/// carry to a ripple add on the planes above; the tail rows go through the
/// same registers one at a time. All of it stays in registers per lane
/// block, and every lane's count is exact (count <= n_rows <
/// 2^count_row_planes(n_rows), so nothing saturates).
template <class V>
inline void count_rows_impl(const std::uint64_t* const* rows,
                            std::size_t n_rows, std::size_t words,
                            std::uint64_t* planes) {
  const std::size_t plane_count = count_row_planes(n_rows);
  const std::size_t high_count = plane_count - 3;
  for (std::size_t w = 0; w < words; w += V::kWords) {
    V ones = V::zero();
    V twos = V::zero();
    V fours = V::zero();
    V high[64 - 3];  // planes 3.. of the count (bit_width(size_t) <= 64)
    for (std::size_t q = 0; q < high_count; ++q) {
      high[q] = V::zero();
    }
    std::size_t r = 0;
    for (; r + 8 <= n_rows; r += 8) {
      const V twos_a =
          carry_save(ones, V::load(rows[r] + w), V::load(rows[r + 1] + w));
      const V twos_b = carry_save(ones, V::load(rows[r + 2] + w),
                                  V::load(rows[r + 3] + w));
      const V fours_a = carry_save(twos, twos_a, twos_b);
      const V twos_c = carry_save(ones, V::load(rows[r + 4] + w),
                                  V::load(rows[r + 5] + w));
      const V twos_d = carry_save(ones, V::load(rows[r + 6] + w),
                                  V::load(rows[r + 7] + w));
      const V fours_b = carry_save(twos, twos_c, twos_d);
      ripple_add(high, high_count, carry_save(fours, fours_a, fours_b));
    }
    for (; r < n_rows; ++r) {  // the < 8 tail rows: a half-adder chain
      V carry = V::load(rows[r] + w);
      for (V* plane : {&ones, &twos, &fours}) {
        const V next = *plane & carry;
        *plane = *plane ^ carry;
        carry = next;
      }
      ripple_add(high, high_count, carry);
    }
    ones.store(planes + w);
    twos.store(planes + words + w);
    fours.store(planes + 2 * words + w);
    for (std::size_t q = 0; q < high_count; ++q) {
      high[q].store(planes + (q + 3) * words + w);
    }
  }
}

}  // namespace apss::apsim::detail
