// Software implementations of the reduced-precision storage types used by the
// attention engine: IEEE binary16 (`half_t`), bfloat16 (`bf16_t`) and the two
// OCP FP8 formats (`fp8_e4m3_t`, `fp8_e5m2_t`, per Micikevicius et al. 2022),
// and the one list of storage formats (`DType`, `VisitDType`).
//
// All types are pure storage formats: arithmetic always happens in float
// (mirroring fp32 accumulation on tensor cores). Every conversion is exact
// integer arithmetic on the float's bits, with no libm call and no
// tolerance: encoding rounds to nearest-even, decoding is exact.
//
// binary16, e4m3 and e5m2 are three instantiations of one codec,
// `detail::MiniFloat<exponent bits, mantissa bits, no-inf, sat-finite>`:
//   * kNoInf: the top exponent holds finite values and only the all-ones
//     magnitude is NaN (OCP e4m3); infinity encodes to the max finite value.
//   * kSatFinite: a finite input beyond the max finite value encodes to it
//     instead of to infinity (CUDA __NV_SATFINITE, the fp8 KV-cache
//     conversion). binary16 overflows to infinity.
// NaN keeps its sign and encodes to the all-ones magnitude under kSatFinite
// (fp8) and to the canonical quiet NaN (0x7E00) otherwise; NaN codes decode
// to a NaN. bfloat16 is float's top half: round-to-nearest-even on the low
// 16 bits, NaN quieted.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>

#include "util/check.h"

namespace flashinfer {

namespace detail {

// Conversion implementations are inline so JIT-compiled kernels need
// no library linkage (and so they inline into hot loops).

/// x >> s rounded to nearest, ties to even (s in [1, 31]).
constexpr uint32_t RoundShiftRne(uint32_t x, uint32_t s) noexcept {
  return (x + (1u << (s - 1)) - 1 + ((x >> s) & 1)) >> s;
}

/// Round-to-nearest-even codec between float and a sign / kExp-bit exponent
/// (bias 2^(kExp-1) - 1, subnormals at exponent 0) / kMan-bit mantissa
/// format. See the file comment for the policy flags.
template <int kExp, int kMan, bool kNoInf, bool kSatFinite>
struct MiniFloat {
  static_assert(kSatFinite || !kNoInf, "a format without infinity must saturate");
  using Bits = std::conditional_t<(1 + kExp + kMan > 8), uint16_t, uint8_t>;

  static constexpr int kShift = 23 - kMan;               // Float mantissa bits dropped.
  static constexpr int kSignShift = 31 - kExp - kMan;    // Float sign bit -> format's.
  static constexpr uint32_t kSign = 1u << (kExp + kMan);
  static constexpr uint32_t kInf = ((1u << kExp) - 1) << kMan;
  static constexpr uint32_t kMaxFiniteBits = kNoInf ? kSign - 2 : kInf - 1;
  static constexpr uint32_t kNaN = kSatFinite ? kSign - 1 : kInf | (1u << (kMan - 1));
  // Float exponent bias minus the format's, in float exponent position.
  static constexpr uint32_t kRebias = (127u - ((1u << (kExp - 1)) - 1)) << 23;
  // Least subnormal, 2^(1 - bias - kMan), as a float.
  static constexpr float kSubnormalUnit = std::bit_cast<float>(((kRebias >> 23) + 1 - kMan) << 23);

  static constexpr Bits Encode(float f) noexcept {
    const uint32_t x = std::bit_cast<uint32_t>(f);
    const uint32_t sign = (x >> kSignShift) & kSign;
    const uint32_t a = x & 0x7FFFFFFFu;
    if (a > 0x7F800000u) return static_cast<Bits>(sign | kNaN);
    if (a < kRebias + (1u << 23)) {
      // Subnormal (or zero) in the format: round the full significand by
      // the exponent deficit; below half the least subnormal is zero.
      const uint32_t s = kShift + 1 + (kRebias >> 23) - (a >> 23);
      if (s > 24) return static_cast<Bits>(sign);
      return static_cast<Bits>(sign | RoundShiftRne((a & 0x7FFFFFu) | 0x800000u, s));
    }
    // Normal: rebias the exponent in place; a mantissa carry rounds into it.
    const uint32_t mag = RoundShiftRne(a - kRebias, kShift);
    if (mag <= kMaxFiniteBits) return static_cast<Bits>(sign | mag);
    const bool saturate = kNoInf || (kSatFinite && a != 0x7F800000u);
    return static_cast<Bits>(sign | (saturate ? kMaxFiniteBits : kInf));
  }

  static constexpr float Decode(Bits b) noexcept {
    const uint32_t sign = static_cast<uint32_t>(b & kSign) << kSignShift;
    const uint32_t mag = b & (kSign - 1);
    if (mag < (1u << kMan)) {  // Zero or subnormal: an exact float product.
      return std::bit_cast<float>(
          sign | std::bit_cast<uint32_t>(static_cast<float>(mag) * kSubnormalUnit));
    }
    if (kNoInf ? mag == kNaN : mag >= kInf) {  // Inf or NaN, payload kept.
      return std::bit_cast<float>(sign | 0x7F800000u | (mag & ((1u << kMan) - 1)) << kShift);
    }
    return std::bit_cast<float>(sign | ((mag << kShift) + kRebias));
  }
};

/// bfloat16: float's top 16 bits.
struct Bf16 {
  using Bits = uint16_t;
  static constexpr uint32_t kMaxFiniteBits = 0x7F7Fu;

  static constexpr Bits Encode(float f) noexcept {
    const uint32_t x = std::bit_cast<uint32_t>(f);
    if ((x & 0x7FFFFFFFu) > 0x7F800000u) return static_cast<Bits>((x >> 16) | 0x40u);
    return static_cast<Bits>((x + 0x7FFFu + ((x >> 16) & 1)) >> 16);
  }
  static constexpr float Decode(Bits b) noexcept {
    return std::bit_cast<float>(static_cast<uint32_t>(b) << 16);
  }
};

/// A storage type over `Codec`: the raw bits, an explicit rounding
/// conversion from float and an exact one back.
template <typename Codec>
struct StorageFloat {
  using Bits = typename Codec::Bits;
  /// Largest finite value.
  static constexpr float kMaxFinite = Codec::Decode(Codec::kMaxFiniteBits);

  Bits bits = 0;

  StorageFloat() = default;
  explicit constexpr StorageFloat(float f) noexcept : bits(Codec::Encode(f)) {}
  explicit constexpr operator float() const noexcept { return Codec::Decode(bits); }
  static constexpr StorageFloat FromBits(Bits b) noexcept {
    StorageFloat s;
    s.bits = b;
    return s;
  }
};

}  // namespace detail

/// IEEE 754 binary16 storage type (max finite 65504, overflows to inf).
using half_t = detail::StorageFloat<detail::MiniFloat<5, 10, false, false>>;
/// bfloat16 storage type (truncated-exponent-range float32).
using bf16_t = detail::StorageFloat<detail::Bf16>;
/// OCP FP8 E4M3 storage type (no inf, max finite 448, saturating).
using fp8_e4m3_t = detail::StorageFloat<detail::MiniFloat<4, 3, true, true>>;
/// OCP FP8 E5M2 storage type (IEEE-like, max finite 57344, saturating).
using fp8_e5m2_t = detail::StorageFloat<detail::MiniFloat<5, 2, false, true>>;

/// Runtime tag for the storage precision of a tensor.
enum class DType : uint8_t {
  kF32,
  kF16,
  kBF16,
  kFP8_E4M3,
  kFP8_E5M2,
};

/// What VisitDType hands its callback: the storage type `T` of one DType,
/// the tag's short name and `T`'s fully qualified C++ spelling (what
/// generated kernel sources name).
template <typename T>
struct StorageFormat {
  std::string_view name;
  std::string_view cpp_type;
};

/// The one list of storage formats: calls `f(StorageFormat<T>{...})` for the
/// storage type `T` that `dt` tags and returns its result. Element size,
/// names, DTypeOf, element load/store and every per-dtype kernel
/// instantiation derive from this switch.
template <typename F>
constexpr decltype(auto) VisitDType(DType dt, F&& f) {
  switch (dt) {
    case DType::kF32:
      return f(StorageFormat<float>{"f32", "float"});
    case DType::kF16:
      return f(StorageFormat<half_t>{"f16", "::flashinfer::half_t"});
    case DType::kBF16:
      return f(StorageFormat<bf16_t>{"bf16", "::flashinfer::bf16_t"});
    case DType::kFP8_E4M3:
      return f(StorageFormat<fp8_e4m3_t>{"e4m3", "::flashinfer::fp8_e4m3_t"});
    case DType::kFP8_E5M2:
      return f(StorageFormat<fp8_e5m2_t>{"e5m2", "::flashinfer::fp8_e5m2_t"});
  }
  detail::CheckFail(__FILE__, __LINE__, "not a DType");
}

/// Size in bytes of one element of `dt`.
constexpr int DTypeBytes(DType dt) noexcept {
  return VisitDType(dt, []<typename T>(StorageFormat<T>) {
    return static_cast<int>(sizeof(T));
  });
}

/// Short name of `dt` ("f16", "e4m3", ...).
constexpr std::string_view DTypeName(DType dt) noexcept {
  return VisitDType(dt, []<typename T>(StorageFormat<T> fmt) { return fmt.name; });
}

/// Largest finite value of `dt`.
constexpr float MaxFinite(DType dt) noexcept {
  return VisitDType(dt, []<typename T>(StorageFormat<T>) {
    if constexpr (std::is_same_v<T, float>) {
      return std::numeric_limits<float>::max();
    } else {
      return T::kMaxFinite;
    }
  });
}

/// Maps a storage type to its DType tag.
template <typename T>
struct DTypeOf {
  static constexpr DType value = [] {
    uint8_t i = 0;
    const auto is_t = []<typename U>(StorageFormat<U>) { return std::is_same_v<U, T>; };
    while (!VisitDType(DType{i}, is_t)) ++i;
    return DType{i};
  }();
};

/// Lossless-from-storage load: converts any storage type to float.
template <typename T>
inline float ToFloat(T v) noexcept {
  return static_cast<float>(v);
}

/// Element `i` of a `dt` array at `base`, converted to float.
inline float LoadElem(DType dt, const std::byte* base, size_t i) noexcept {
  return VisitDType(dt, [&]<typename T>(StorageFormat<T>) {
    T v;
    std::memcpy(&v, base + i * sizeof(T), sizeof(T));
    return static_cast<float>(v);
  });
}

/// Rounds `v` into element `i` of a `dt` array at `base`.
inline void StoreElem(DType dt, std::byte* base, size_t i, float v) noexcept {
  VisitDType(dt, [&]<typename T>(StorageFormat<T>) {
    const T e(v);
    std::memcpy(base + i * sizeof(T), &e, sizeof(T));
  });
}

}  // namespace flashinfer
