#pragma once
// Wide-lane words for the bit-parallel batch backend (ROADMAP item 1: widen
// the word). A BatchProgram packs one macro per BIT; the interpreter's state
// vectors are flat arrays of 64-bit words, and every per-cycle operation is
// a pure bitwise map over them — so the execution width is a free parameter:
// stepping 256 or 512 lanes per operation instead of 64 changes wall-clock
// only, never a single ReportEvent.
//
// Three layers keep that guarantee checkable:
//
//  * LaneWord<W> — the PORTABLE W-bit lane word: an array of W/64 uint64_t
//    with bitwise ops written as fixed-trip loops any compiler can unroll
//    (and, with vector flags, auto-vectorize). It defines the semantics;
//    it is always available, on every architecture.
//  * LaneKernels — the hot loops (packed-row OR and the bit-sliced counter
//    update per stepped cycle, the per-lane row count per closed-form
//    frame) behind function pointers, so AVX2 / AVX-512 translation units
//    compiled with their own target flags can supply intrinsic versions of
//    the SAME bitwise dataflow.
//  * resolve_lane_kernels() — runtime dispatch: an explicit width is always
//    honored (the SIMD variant when the CPU + build support it, the
//    portable LaneWord variant otherwise); kAuto picks the widest
//    SIMD-backed width, falling back to the classic 64-bit scalar path.
//    APSS_DISABLE_SIMD=1 in the environment forces the portable variants
//    everywhere — the knob CI uses to keep the non-x86 code paths green.
//
// Lane layout is width-agnostic: lane l always lives at 64-bit word l/64,
// bit l%64. A wider word just processes W/64 consecutive words per
// operation, so programs (and their on-disk artifacts, docs/ARTIFACTS.md)
// never depend on the width they will run at.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace apss::apsim {

/// 64-bit words per 512-bit block — the alignment quantum BatchProgram pads
/// its packed row table to, so every resolved width divides the storage.
inline constexpr std::size_t kLaneBlockWords = 8;

/// Allocates on a block (64-byte) boundary, so a kernel's block loads of
/// lane words are aligned whatever the heap did before. It over-allocates
/// one block from the plain heap and keeps the raw pointer in the word
/// just below the aligned address, rather than using the aligned operator
/// new: search() allocates these buffers on every call, and memalign's
/// split chunks grew a small-batch server's peak resident memory by ~3 MB.
template <class T>
struct BlockAlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign =
      kLaneBlockWords * sizeof(std::uint64_t);

  BlockAlignedAllocator() = default;
  template <class U>
  BlockAlignedAllocator(const BlockAlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    // operator new aligns to at least 16 bytes, so the aligned address
    // lies 16..64 bytes in: room for the raw pointer below it.
    void* raw = ::operator new(n * sizeof(T) + kAlign);
    const std::uintptr_t aligned =
        (reinterpret_cast<std::uintptr_t>(raw) + kAlign) & ~(kAlign - 1);
    reinterpret_cast<void**>(aligned)[-1] = raw;
    return reinterpret_cast<T*>(aligned);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }

  template <class U>
  bool operator==(const BlockAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// Lane-word storage the kernels sweep: block-aligned 64-bit words.
using LaneWords =
    std::vector<std::uint64_t, BlockAlignedAllocator<std::uint64_t>>;

/// Requested lane-word width for BatchSimulator execution.
enum class LaneWidth : std::uint16_t {
  kAuto = 0,  ///< widest SIMD-backed width; 64-bit scalar when none
  k64 = 64,   ///< the classic one-word scalar path
  k256 = 256,  ///< four words per step (AVX2 when available)
  k512 = 512,  ///< eight words per step (AVX-512 when available)
};

const char* to_string(LaneWidth width) noexcept;

/// Parses "auto" / "64" / "256" / "512"; returns false on anything else.
bool parse_lane_width(std::string_view text, LaneWidth* out) noexcept;

/// The portable W-bit lane word: W/64 little-endian 64-bit limbs, lane
/// (w * 64 + b) at limb w bit b — the same layout BatchProgram packs its
/// rows in, so loads are plain memcpy-like reads. All ops are bitwise and
/// lane-local; the fixed-size loops vectorize under -O2 on any target.
template <std::size_t W>
struct LaneWord {
  static_assert(W == 64 || W == 256 || W == 512, "unsupported lane width");
  static constexpr std::size_t kWords = W / 64;

  std::uint64_t limb[kWords];

  static LaneWord load(const std::uint64_t* p) noexcept {
    LaneWord v;
    for (std::size_t i = 0; i < kWords; ++i) {
      v.limb[i] = p[i];
    }
    return v;
  }
  void store(std::uint64_t* p) const noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      p[i] = limb[i];
    }
  }
  static LaneWord zero() noexcept {
    LaneWord v;
    for (std::size_t i = 0; i < kWords; ++i) {
      v.limb[i] = 0;
    }
    return v;
  }
  friend LaneWord operator|(LaneWord a, const LaneWord& b) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      a.limb[i] |= b.limb[i];
    }
    return a;
  }
  friend LaneWord operator&(LaneWord a, const LaneWord& b) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      a.limb[i] &= b.limb[i];
    }
    return a;
  }
  friend LaneWord operator^(LaneWord a, const LaneWord& b) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      a.limb[i] ^= b.limb[i];
    }
    return a;
  }
  /// *this & ~mask (the counter reset / pulse edge op).
  LaneWord andnot(const LaneWord& mask) const noexcept {
    LaneWord v;
    for (std::size_t i = 0; i < kWords; ++i) {
      v.limb[i] = limb[i] & ~mask.limb[i];
    }
    return v;
  }
  bool any() const noexcept {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kWords; ++i) {
      acc |= limb[i];
    }
    return acc != 0;
  }
};

/// Everything one bit-sliced counter update needs (one call per cycle):
/// the per-lane arrays all hold `words` 64-bit words (a multiple of the
/// kernel's block size, zero-padded past the live lanes), and `planes`
/// holds plane_count rows of `words` words each (plane q at planes + q *
/// words). See BatchSimulator::step for the dataflow this implements.
struct LaneCounterCtx {
  std::uint64_t* ring = nullptr;     ///< in: collector roots; out: match word
  const std::uint64_t* scratch = nullptr;  ///< this cycle's packed match word
  std::uint64_t* planes = nullptr;         ///< bit-sliced counts
  std::uint64_t* cond_prev = nullptr;  ///< >= threshold condition last cycle
  std::uint64_t* pulse = nullptr;      ///< out: counter pulse next cycle
  const std::uint64_t* valid = nullptr;  ///< live-lane masks (0 in padding)
  std::size_t words = 0;
  std::uint32_t plane_count = 0;
  std::uint32_t cond_plane = 0;
  std::uint64_t bias = 0;  ///< counter reload value (2^P - threshold)
  bool sort_now = false;   ///< uniform count enable this cycle
  bool eof_now = false;    ///< uniform counter reset this cycle
};

/// Bit planes LaneKernels::count_rows writes for `rows` rows: enough to hold
/// the count `rows`, and at least the three its carry-save stages keep.
constexpr std::size_t count_row_planes(std::size_t rows) noexcept {
  return std::max<std::size_t>(
      3, static_cast<std::size_t>(std::bit_width(rows)));
}

/// The resolved execution strategy: a width plus the hot-loop kernels.
/// Value-semantic and immutable after resolution; share freely.
struct LaneKernels {
  LaneWidth width = LaneWidth::k64;  ///< resolved width, never kAuto
  bool simd = false;                 ///< vector-ISA backed (vs portable)
  const char* isa = "scalar";        ///< scalar | portable | avx2 | avx512
  /// dst |= src over `words` words (both block-aligned and padded).
  void (*or_rows)(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t words) = nullptr;
  void (*counter_update)(const LaneCounterCtx& ctx) = nullptr;
  /// Per-lane count of the set bits among `n_rows` lane-mask rows (each
  /// `words` words, block-aligned and zero-padded), written bit-sliced:
  /// plane q of every lane's count at planes + q * words, for q <
  /// count_row_planes(n_rows).
  void (*count_rows)(const std::uint64_t* const* rows, std::size_t n_rows,
                     std::size_t words, std::uint64_t* planes) = nullptr;

  std::size_t width_bits() const noexcept {
    return static_cast<std::size_t>(width);
  }
  std::size_t block_words() const noexcept { return width_bits() / 64; }
};

/// True when the environment variable APSS_DISABLE_SIMD is set to anything
/// but "" or "0" — the portable-fallback override (read on every resolve,
/// so tests can flip it between simulator constructions).
bool lane_simd_disabled_by_env() noexcept;

/// Runtime CPU feature checks (false on non-x86 builds).
bool cpu_supports_avx2() noexcept;
bool cpu_supports_avx512() noexcept;

/// Resolves `requested` to concrete kernels. Explicit widths are always
/// honored: the SIMD variant when compiled in AND supported by this CPU
/// AND not disabled by APSS_DISABLE_SIMD, else the portable LaneWord
/// variant of the same width (bit-identical, just slower). kAuto returns
/// the widest SIMD-backed width, or the 64-bit scalar path when none.
LaneKernels resolve_lane_kernels(LaneWidth requested = LaneWidth::kAuto);

namespace detail {
/// SIMD kernel registries, defined in lane_kernels_{avx2,avx512}.cpp.
/// Null when the translation unit was built without its target flags
/// (non-x86, or a compiler without -mavx2 / -mavx512f).
const LaneKernels* avx2_lane_kernels() noexcept;
const LaneKernels* avx512_lane_kernels() noexcept;
}  // namespace detail

}  // namespace apss::apsim
