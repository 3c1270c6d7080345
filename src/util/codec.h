// Host KV-tier page codec: per-page quantization (INT8 / FP8, per-page
// scale + zero-point) and an LZ4-style byte compressor, so the host tier
// stores *encoded* bytes instead of raw pages and its effective capacity
// multiplies (INT-FlashAttention, arXiv:2409.16997, shows INT8 attention
// viable; "LLM in a flash", arXiv:2312.11514, is the hierarchy playbook).
//
// Design points:
//   * The quantized path is lossy but *bounded*: per-page asymmetric INT8
//     (scale = range/255, zero = min) or per-page amax-scaled FP8, and the
//     codec reports the per-page MSE it introduced — the accuracy proxy the
//     serving metrics track as a first-class series.
//   * The compress-only path (quant = kNone, compress = true) is lossless:
//     decode is bit-exact. Incompressible payloads fall back to raw storage,
//     so an encoded page never exceeds EncodedPageBound() — worst-case
//     admission gating stays sound.
//   * Non-finite inputs have defined behavior: before quantization NaN maps
//     to 0 and values clamp to binary16's max finite (MaxFinite(kF16),
//     65504), so +/-inf saturates and a poisoned page cannot blow up the
//     page scale or the MSE series. FP8 pages scale amax to the target
//     format's max finite (MaxFinite of its DType: 448 for e4m3, 57344 for
//     e5m2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/float_types.h"

namespace flashinfer {

/// Quantization applied to host-tier pages on eviction.
enum class KvQuantFormat : uint8_t {
  kNone = 0,     ///< Keep the storage dtype (lossless path).
  kInt8 = 1,     ///< Asymmetric per-page uint8: scale = range/255, zero = min.
  kFp8E4M3 = 2,  ///< Per-page amax-scaled fp8 e4m3 (max 448).
  kFp8E5M2 = 3,  ///< Per-page amax-scaled fp8 e5m2 (max 57344).
};

/// Host KV-tier codec selection. Default-constructed = disabled: the host
/// tier stores raw pages, byte-for-byte identical to the pre-codec cache.
struct KvCodecConfig {
  KvQuantFormat quant = KvQuantFormat::kNone;
  /// LZ4-style byte compression of the (possibly quantized) payload.
  bool compress = false;
  bool enabled() const { return quant != KvQuantFormat::kNone || compress; }
};

namespace util {

// --- LZ4-style block compressor --------------------------------------------
// Greedy hash-chain-free LZ4 block format: sequences of
//   [token: literal-nibble | matchlen-nibble] [len ext bytes] [literals]
//   [2-byte LE offset] [matchlen ext bytes]
// with a literals-only final sequence. Self-contained (not interoperable
// with the reference lz4 tool — no container deps allowed here), but the
// same asymptotics: O(n) encode via a 4-byte hash table, byte-exact decode.

/// Worst-case compressed size for `n` input bytes (all-literals encoding).
size_t Lz4CompressBound(size_t n);

/// Compresses src[0..n) into dst (capacity dst_cap). Returns the compressed
/// size, or 0 when the output would not fit (callers size dst with
/// Lz4CompressBound, where it always fits). n == 0 compresses to 0 bytes.
size_t Lz4Compress(const uint8_t* src, size_t n, uint8_t* dst, size_t dst_cap);

/// Decompresses src[0..n) into dst (capacity dst_cap); returns the number of
/// bytes written. Aborts (FI_CHECK) on malformed input — blobs only ever come
/// from Lz4Compress.
size_t Lz4Decompress(const uint8_t* src, size_t n, uint8_t* dst, size_t dst_cap);

// --- Page codec -------------------------------------------------------------

/// Per-page encode accounting: what the tier charges (stored), what the page
/// logically holds, and the quantization error the encode introduced.
struct PageCodecStats {
  int64_t logical_bytes = 0;  ///< elems * DTypeBytes(dtype).
  int64_t stored_bytes = 0;   ///< Encoded blob size (header + payload).
  double mse = 0.0;           ///< Mean squared quantization error (0 when lossless).
};

/// Fixed encoded-blob header size.
constexpr size_t kPageCodecHeaderBytes = 16;

/// Worst-case encoded size of a page of `elems` elements: header + the
/// quantized (or raw) payload — compression can only shrink it (raw
/// fallback otherwise). The admission gate prices this.
size_t EncodedPageBound(size_t elems, DType dtype, const KvCodecConfig& cfg);

/// Encodes one page (raw storage-dtype bytes, `elems` elements) into a
/// self-describing blob. Fills `stats` when non-null.
std::vector<uint8_t> EncodePage(const std::byte* page, size_t elems, DType dtype,
                                const KvCodecConfig& cfg, PageCodecStats* stats);

/// Decodes a blob produced by EncodePage back into `page` (raw storage-dtype
/// bytes, `elems` elements). Lossless blobs restore bit-exactly; quantized
/// blobs restore the dequantized values re-converted to the storage dtype.
void DecodePage(const uint8_t* blob, size_t blob_size, std::byte* page, size_t elems,
                DType dtype);

}  // namespace util
}  // namespace flashinfer
