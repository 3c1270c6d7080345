#include "util/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"

namespace flashinfer::util {
namespace {

constexpr size_t kMinMatch = 4;
// Matches stop short of the block end so the final sequence always carries
// literals (the classic lz4 end-of-block shape; also guarantees decode
// terminates on a literals-only sequence).
constexpr size_t kLastLiterals = 5;
constexpr int kHashBits = 13;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Hash4(uint32_t v) { return (v * 2654435761u) >> (32 - kHashBits); }

}  // namespace

size_t Lz4CompressBound(size_t n) { return n + n / 255 + 16; }

size_t Lz4Compress(const uint8_t* src, size_t n, uint8_t* dst, size_t dst_cap) {
  if (n == 0) return 0;
  size_t op = 0;
  auto put = [&](uint8_t b) {
    if (op >= dst_cap) return false;
    dst[op++] = b;
    return true;
  };
  // Extension bytes for a nibble that saturated at 15: 255-continuations.
  auto put_ext = [&](size_t rest) {
    while (rest >= 255) {
      if (!put(255)) return false;
      rest -= 255;
    }
    return put(static_cast<uint8_t>(rest));
  };
  // One sequence: literals [lit..lit+lit_len) then a back-reference of
  // match_len bytes at `offset` (match_len == 0 -> final, literals only).
  auto emit = [&](size_t lit, size_t lit_len, size_t match_len, size_t offset) {
    const uint8_t lit_nib = lit_len >= 15 ? 15 : static_cast<uint8_t>(lit_len);
    const size_t mcode = match_len == 0 ? 0 : match_len - kMinMatch;
    const uint8_t mat_nib = mcode >= 15 ? 15 : static_cast<uint8_t>(mcode);
    if (!put(static_cast<uint8_t>((lit_nib << 4) | mat_nib))) return false;
    if (lit_nib == 15 && !put_ext(lit_len - 15)) return false;
    if (op + lit_len > dst_cap) return false;
    std::memcpy(dst + op, src + lit, lit_len);
    op += lit_len;
    if (match_len == 0) return true;
    if (!put(static_cast<uint8_t>(offset & 0xFF))) return false;
    if (!put(static_cast<uint8_t>(offset >> 8))) return false;
    if (mat_nib == 15 && !put_ext(mcode - 15)) return false;
    return true;
  };

  int32_t table[1 << kHashBits];
  std::fill(std::begin(table), std::end(table), -1);
  size_t ip = 0, anchor = 0;
  if (n > kMinMatch + kLastLiterals) {
    const size_t match_end = n - kLastLiterals;   // Matches may extend to here.
    const size_t mflimit = match_end - kMinMatch;  // ...and must start by here.
    while (ip <= mflimit) {
      const uint32_t seq = Load32(src + ip);
      const uint32_t h = Hash4(seq);
      const int32_t cand = table[h];
      table[h] = static_cast<int32_t>(ip);
      if (cand >= 0 && ip - static_cast<size_t>(cand) <= 65535 &&
          Load32(src + cand) == seq) {
        size_t mlen = kMinMatch;
        while (ip + mlen < match_end && src[cand + mlen] == src[ip + mlen]) ++mlen;
        if (!emit(anchor, ip - anchor, mlen, ip - static_cast<size_t>(cand))) return 0;
        ip += mlen;
        anchor = ip;
      } else {
        ++ip;
      }
    }
  }
  if (!emit(anchor, n - anchor, 0, 0)) return 0;
  return op;
}

size_t Lz4Decompress(const uint8_t* src, size_t n, uint8_t* dst, size_t dst_cap) {
  size_t ip = 0, op = 0;
  auto read_len = [&](size_t nibble) {
    size_t len = nibble;
    if (nibble == 15) {
      uint8_t b;
      do {
        FI_CHECK_LT(ip, n);
        b = src[ip++];
        len += b;
      } while (b == 255);
    }
    return len;
  };
  while (ip < n) {
    const uint8_t token = src[ip++];
    const size_t lit_len = read_len(token >> 4);
    FI_CHECK_LE(ip + lit_len, n);
    FI_CHECK_LE(op + lit_len, dst_cap);
    std::memcpy(dst + op, src + ip, lit_len);
    ip += lit_len;
    op += lit_len;
    if (ip >= n) break;  // Final, literals-only sequence.
    FI_CHECK_LE(ip + 2, n);
    const size_t offset = src[ip] | (static_cast<size_t>(src[ip + 1]) << 8);
    ip += 2;
    FI_CHECK_GE(offset, 1u);
    FI_CHECK_LE(offset, op);
    const size_t match_len = read_len(token & 0xF) + kMinMatch;
    FI_CHECK_LE(op + match_len, dst_cap);
    // Byte-by-byte: offsets < match_len replicate (overlapping copy).
    for (size_t i = 0; i < match_len; ++i, ++op) dst[op] = dst[op - offset];
  }
  return op;
}

// --- Page codec -------------------------------------------------------------

namespace {

// Defined non-finite handling (see header): NaN -> 0, and values clamp to
// binary16's max finite, so +/-inf saturates.
inline float Sanitize(float v) {
  constexpr float kSaturate = MaxFinite(DType::kF16);
  if (std::isnan(v)) return 0.0f;
  return std::min(kSaturate, std::max(-kSaturate, v));
}

// The storage format an fp8 KvQuantFormat quantizes to.
constexpr DType Fp8Of(KvQuantFormat f) {
  return f == KvQuantFormat::kFp8E4M3 ? DType::kFP8_E4M3 : DType::kFP8_E5M2;
}

// Blob header (little-endian):
//   [0]      quant format (KvQuantFormat)
//   [1]      1 when the payload is Lz4-compressed
//   [2..3]   reserved (0)
//   [4..7]   stored payload bytes (u32)
//   [8..11]  page scale (f32 bits)
//   [12..15] page zero-point (f32 bits)
inline void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline void PutF32(uint8_t* p, float v) { std::memcpy(p, &v, 4); }
inline float GetF32(const uint8_t* p) {
  float v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

size_t EncodedPageBound(size_t elems, DType dtype, const KvCodecConfig& cfg) {
  const size_t payload =
      cfg.quant == KvQuantFormat::kNone ? elems * DTypeBytes(dtype) : elems;
  return kPageCodecHeaderBytes + payload;
}

std::vector<uint8_t> EncodePage(const std::byte* page, size_t elems, DType dtype,
                                const KvCodecConfig& cfg, PageCodecStats* stats) {
  const size_t logical = elems * static_cast<size_t>(DTypeBytes(dtype));
  std::vector<uint8_t> payload;
  float scale = 0.0f, zero = 0.0f;
  double mse = 0.0;
  if (cfg.quant == KvQuantFormat::kNone) {
    payload.resize(logical);
    std::memcpy(payload.data(), page, logical);
  } else {
    payload.resize(elems);
    std::vector<float> vals(elems);
    for (size_t i = 0; i < elems; ++i) vals[i] = Sanitize(LoadElem(dtype, page, i));
    if (cfg.quant == KvQuantFormat::kInt8) {
      float lo = 0.0f, hi = 0.0f;
      for (size_t i = 0; i < elems; ++i) {
        lo = i == 0 ? vals[i] : std::min(lo, vals[i]);
        hi = i == 0 ? vals[i] : std::max(hi, vals[i]);
      }
      scale = (hi - lo) / 255.0f;
      zero = lo;
      for (size_t i = 0; i < elems; ++i) {
        const float v = vals[i];
        const float q = scale > 0.0f ? std::round((v - zero) / scale) : 0.0f;
        const uint8_t u =
            static_cast<uint8_t>(std::min(255.0f, std::max(0.0f, q)));
        payload[i] = u;
        const double err = static_cast<double>(v) - (zero + u * scale);
        mse += err * err;
      }
    } else {
      const DType fp8 = Fp8Of(cfg.quant);
      auto* out = reinterpret_cast<std::byte*>(payload.data());
      float amax = 0.0f;
      for (const float v : vals) amax = std::max(amax, std::abs(v));
      scale = amax > 0.0f ? amax / MaxFinite(fp8) : 1.0f;
      for (size_t i = 0; i < elems; ++i) {
        StoreElem(fp8, out, i, vals[i] / scale);
        const double err = static_cast<double>(vals[i]) - LoadElem(fp8, out, i) * scale;
        mse += err * err;
      }
    }
    if (elems > 0) mse /= static_cast<double>(elems);
  }

  bool compressed = false;
  if (cfg.compress && !payload.empty()) {
    std::vector<uint8_t> packed(Lz4CompressBound(payload.size()));
    const size_t csize =
        Lz4Compress(payload.data(), payload.size(), packed.data(), packed.size());
    if (csize > 0 && csize < payload.size()) {
      packed.resize(csize);
      payload.swap(packed);
      compressed = true;
    }
  }

  std::vector<uint8_t> blob(kPageCodecHeaderBytes + payload.size());
  blob[0] = static_cast<uint8_t>(cfg.quant);
  blob[1] = compressed ? 1 : 0;
  blob[2] = blob[3] = 0;
  PutU32(blob.data() + 4, static_cast<uint32_t>(payload.size()));
  PutF32(blob.data() + 8, scale);
  PutF32(blob.data() + 12, zero);
  std::memcpy(blob.data() + kPageCodecHeaderBytes, payload.data(), payload.size());
  if (stats != nullptr) {
    stats->logical_bytes = static_cast<int64_t>(logical);
    stats->stored_bytes = static_cast<int64_t>(blob.size());
    stats->mse = mse;
  }
  return blob;
}

void DecodePage(const uint8_t* blob, size_t blob_size, std::byte* page, size_t elems,
                DType dtype) {
  FI_CHECK_GE(blob_size, kPageCodecHeaderBytes);
  const auto quant = static_cast<KvQuantFormat>(blob[0]);
  const bool compressed = blob[1] != 0;
  const size_t stored = GetU32(blob + 4);
  const float scale = GetF32(blob + 8);
  const float zero = GetF32(blob + 12);
  FI_CHECK_EQ(kPageCodecHeaderBytes + stored, blob_size);
  const size_t raw_size =
      quant == KvQuantFormat::kNone ? elems * DTypeBytes(dtype) : elems;

  const uint8_t* payload = blob + kPageCodecHeaderBytes;
  std::vector<uint8_t> unpacked;
  if (compressed) {
    unpacked.resize(raw_size);
    const size_t got = Lz4Decompress(payload, stored, unpacked.data(), raw_size);
    FI_CHECK_EQ(got, raw_size);
    payload = unpacked.data();
  } else {
    FI_CHECK_EQ(stored, raw_size);
  }

  switch (quant) {
    case KvQuantFormat::kNone:
      std::memcpy(page, payload, raw_size);
      return;
    case KvQuantFormat::kInt8:
      for (size_t i = 0; i < elems; ++i) StoreElem(dtype, page, i, zero + payload[i] * scale);
      return;
    case KvQuantFormat::kFp8E4M3:
    case KvQuantFormat::kFp8E5M2:
      for (size_t i = 0; i < elems; ++i) {
        StoreElem(dtype, page, i,
                  LoadElem(Fp8Of(quant), reinterpret_cast<const std::byte*>(payload), i) * scale);
      }
      return;
  }
  FI_CHECK(false);  // Unknown format byte: not one of ours.
}

}  // namespace flashinfer::util
