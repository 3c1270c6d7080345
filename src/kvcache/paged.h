// Paged KV-cache (PagedAttention-style storage, Kwon et al. 2023) backing
// the unified BSR view of Sec. 3.1.1.
//
// Storage is a pool of fixed-size pages; each page holds `page_size` tokens
// of K and V for all KV heads: layout [2 (K/V)][H_kv][page_size][D], with the
// head dimension contiguous (mirrors the coalesced 128B loads of Sec. 3.2.1).
// Pages are reference-counted so radix-tree prefix sharing (kvcache/radix.h)
// and parallel generation can alias pages across sequences without copies.
//
// Two-tier operation (KV pressure / preemption, cf. "LLM in a flash"): the
// cache optionally owns a second, host-memory page pool. EvictSequence moves
// a sequence's *exclusively owned* pages (refcount 1) to the host tier and
// frees their device pages; pages shared with another live holder stay
// resident under the evicted sequence's refcount — eviction never breaks
// sharing, and a shared page could not have been freed anyway. An evicted
// sequence is frozen (no append/fork/truncate/export) until RestoreSequence
// swaps its host pages back into freshly allocated device pages. Restore by
// *recompute* needs no cache support: the owner drops the sequence outright
// and rebuilds it through the prefill path.
//
// Codec tier (KvCodecConfig): with the codec enabled, host-tier pages are
// stored *encoded* — optionally INT8/FP8-quantized (per-page scale/zero) and
// optionally LZ4-compressed — in a variable-size blob store accounted in
// BYTES against `max_host_pages * page bytes`. `max_host_pages` thus measures
// stored bytes, and the tier's effective page capacity multiplies by the
// compression ratio. Callers gate swap-outs with HostCanHold() (worst-case
// encoded size, so admission never overshoots) and read the realized ratio /
// accuracy proxy from the CodecStats that Evict/RestoreSequenceEx return.
// With the codec disabled the host tier is byte-for-byte the raw page pool
// it always was.
//
// Table metering (PageCodecTableFor): a simulator that tracks pages but not
// values meters its host tier per page instead. The table holds, for each
// fill level 1..page_size, the logical bytes, stored bytes and MSE of
// EncodePage on the filled slots of a SyntheticKv page of the model's
// per-shard geometry. On 8 KV heads x 128 dims, f16, 16-token pages a full
// page stores at 0.49 of its bytes with int8+lz4, 0.50 with int8, ~1.0 with
// lz4 alone and 0.34 with fp8+lz4.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/bsr.h"
#include "util/check.h"
#include "util/codec.h"
#include "util/float_types.h"
#include "util/rng.h"

namespace flashinfer {

class PagedKVCache {
 public:
  /// Per-call codec accounting for evict/restore: page count moved, stored
  /// (encoded) vs logical bytes, and the summed per-page quantization MSE
  /// (the accuracy proxy; mse_pages counts the pages it sums over).
  struct CodecStats {
    int64_t pages = 0;
    int64_t stored_bytes = 0;
    int64_t logical_bytes = 0;
    double mse_sum = 0.0;
    int64_t mse_pages = 0;
  };

  /// `max_host_pages` sizes the host (offload) tier; 0 disables eviction.
  /// `codec` selects the host-tier encoding (default: disabled = raw pages).
  PagedKVCache(DType dtype, int num_kv_heads, int head_dim, int page_size, int64_t max_pages,
               int64_t max_host_pages = 0, KvCodecConfig codec = {});

  DType dtype() const noexcept { return dtype_; }
  int num_kv_heads() const noexcept { return num_kv_heads_; }
  int head_dim() const noexcept { return head_dim_; }
  int page_size() const noexcept { return page_size_; }
  int64_t max_pages() const noexcept { return max_pages_; }
  int64_t num_free_pages() const noexcept { return static_cast<int64_t>(free_list_.size()); }
  int64_t num_live_pages() const noexcept { return max_pages_ - num_free_pages(); }
  int64_t max_host_pages() const noexcept { return max_host_pages_; }
  /// Codec off: free raw host pages. Codec on: a conservative page count —
  /// remaining host bytes divided by the worst-case encoded page size.
  int64_t num_free_host_pages() const noexcept {
    if (!codec_.enabled()) return static_cast<int64_t>(host_free_list_.size());
    const int64_t bound = static_cast<int64_t>(
        util::EncodedPageBound(static_cast<size_t>(elems_per_page_), dtype_, codec_));
    return (host_byte_capacity() - host_bytes_in_use_) / bound;
  }
  int64_t num_live_host_pages() const noexcept {
    if (!codec_.enabled()) return max_host_pages_ - static_cast<int64_t>(host_free_list_.size());
    return live_host_pages_;
  }

  const KvCodecConfig& codec() const noexcept { return codec_; }
  int64_t PageBytes() const noexcept { return elems_per_page_ * DTypeBytes(dtype_); }
  /// The host tier's byte budget: `max_host_pages` raw-page-sized slots.
  int64_t host_byte_capacity() const noexcept { return max_host_pages_ * PageBytes(); }
  /// Bytes the host tier currently charges (encoded bytes with the codec on,
  /// raw page bytes off).
  int64_t host_bytes_in_use() const noexcept {
    if (!codec_.enabled()) return num_live_host_pages() * PageBytes();
    return host_bytes_in_use_;
  }
  /// True when the host tier can take `pages` more evicted pages right now:
  /// free raw pages (codec off) or worst-case encoded bytes (codec on) — the
  /// swap-out admission gate.
  bool HostCanHold(int64_t pages) const noexcept;
  /// Cumulative stored/logical ratio over every page this cache has encoded;
  /// before any eviction, the worst-case encode ratio (1.0 with the codec
  /// off). Restore-policy cost models price swap bytes with this.
  double ObservedStoredRatio() const noexcept;

  /// Allocates a page with refcount 1. Aborts when the pool is exhausted
  /// (serving engines must check num_free_pages and evict first).
  int64_t AllocPage();
  /// Increments a page's refcount (prefix sharing).
  void RetainPage(int64_t page);
  /// Decrements; the page returns to the free list at refcount 0.
  void ReleasePage(int64_t page);
  int RefCount(int64_t page) const;

  // --- Sequence API -------------------------------------------------------
  /// Creates an empty sequence and returns its id.
  int CreateSequence();
  /// Appends `count` tokens; k and v are row-major [count, H_kv, D] floats
  /// (converted to the storage dtype). Allocates pages as needed.
  void AppendTokens(int seq, const float* k, const float* v, int64_t count);
  /// Prepends shared pages (e.g. a radix-tree cached prefix); the pages are
  /// retained. Only valid on a sequence with no tokens yet. `token_count`
  /// gives how many tokens those pages hold.
  void AdoptPrefix(int seq, const std::vector<int64_t>& pages, int64_t token_count);
  /// Releases all pages of a sequence and deletes it.
  void DropSequence(int seq);

  // --- Fork / rollback (speculative decoding) -----------------------------
  /// Appends `count` token slots without writing K/V data (structural use:
  /// serving simulation tracks page accounting, not values). Allocates pages
  /// exactly as AppendTokens would.
  void ExtendSequence(int seq, int64_t count);
  /// Creates a new sequence sharing `seq`'s committed KV: full pages are
  /// retained (refcounted aliasing), a partially-filled last page is
  /// copy-on-write cloned so both sides can append independently. Returns the
  /// fork's sequence id.
  int ForkSequence(int seq);
  /// Rolls a sequence back to `new_len` tokens (<= current length), releasing
  /// every page past the new end. Rejected speculative branches unwind with
  /// this; shared pages survive under their other holders' refcounts.
  void TruncateSequence(int seq, int64_t new_len);

  // --- Two-tier eviction / restore (preemption under KV pressure) ---------
  /// Moves the sequence's exclusively owned pages (refcount 1) to the host
  /// tier (encoding them when the codec is on) and frees their device pages;
  /// pages shared with another holder stay resident under this sequence's
  /// refcount (sharing survives). The sequence is frozen until
  /// RestoreSequence. Returns the number of pages offloaded to host. Aborts
  /// if the host pool cannot hold them — callers gate on
  /// ExclusivePages()/HostCanHold() (or drop + recompute).
  int64_t EvictSequence(int seq);
  /// EvictSequence plus the codec accounting of this swap-out: stored vs
  /// logical bytes actually written to the host tier and the quantization-MSE
  /// accuracy proxy.
  CodecStats EvictSequenceEx(int seq);
  /// Swaps an evicted sequence's host pages back into freshly allocated
  /// device pages (decoding them when the codec is on) and unfreezes it.
  /// Returns the number of pages swapped in. Transactional on device-pool
  /// shortfall: when fewer than the needed free device pages exist, returns
  /// -1 and mutates NOTHING — host pages stay held, the sequence stays
  /// frozen, and the caller may retry after freeing device pages.
  int64_t RestoreSequence(int seq);
  /// RestoreSequence plus the codec accounting captured at evict time
  /// (pages == -1 on the shortfall path, all other fields zero).
  CodecStats RestoreSequenceEx(int seq);
  bool IsEvicted(int seq) const;
  /// Pages EvictSequence would offload right now (refcount-1 pages): the
  /// host-tier space a swap-out needs and the device pages it would free.
  int64_t ExclusivePages(int seq) const;
  /// Host pages currently holding this (evicted) sequence's KV.
  int64_t HostPagesHeld(int seq) const;

  int64_t SequenceLength(int seq) const;
  const std::vector<int64_t>& SequencePages(int seq) const;
  int LastPageLen(int seq) const;

  /// Exports a sequence's page list in the BSR builder's format.
  sparse::RequestKv ExportKv(int seq, int64_t pos_offset = 0) const;

  // --- Raw access (kernels) ----------------------------------------------
  /// Typed pointer to the K row of (page, head, slot): `head_dim` elements.
  template <typename T>
  const T* KRow(int64_t page, int head, int slot) const noexcept {
    return reinterpret_cast<const T*>(data_.data()) + KOffset(page, head, slot);
  }
  template <typename T>
  const T* VRow(int64_t page, int head, int slot) const noexcept {
    return reinterpret_cast<const T*>(data_.data()) + VOffset(page, head, slot);
  }

  /// Converting accessors for reference code and tests (slow path).
  float KAt(int64_t page, int head, int slot, int d) const noexcept;
  float VAt(int64_t page, int head, int slot, int d) const noexcept;
  /// Writes one token's K/V rows ([H_kv, D] floats each) at (page, slot).
  void SetToken(int64_t page, int slot, const float* k, const float* v);

  /// Bytes of KV data held by one token (both K and V, all heads).
  int64_t BytesPerToken() const noexcept {
    return 2LL * num_kv_heads_ * head_dim_ * DTypeBytes(dtype_);
  }

 private:
  struct Sequence {
    std::vector<int64_t> pages;
    int64_t length = 0;
    bool live = false;
    bool evicted = false;
    /// Parallel to `pages` while evicted: host page (codec off) or blob slot
    /// (codec on) holding slot i's KV, or -1 when the device page stayed
    /// resident (shared with another holder; `pages[i]` keeps the refcounted
    /// device page in that case, and is -1 where the KV moved to host).
    std::vector<int64_t> host_slots;
    /// Codec accounting of the bytes this sequence holds in the host tier
    /// (accumulated at evict, returned + cleared at restore/drop).
    CodecStats host_stats;
  };

  int64_t KOffset(int64_t page, int head, int slot) const noexcept {
    return ((page * 2 + 0) * num_kv_heads_ + head) * static_cast<int64_t>(page_size_) *
               head_dim_ +
           static_cast<int64_t>(slot) * head_dim_;
  }
  int64_t VOffset(int64_t page, int head, int slot) const noexcept {
    return ((page * 2 + 1) * num_kv_heads_ + head) * static_cast<int64_t>(page_size_) *
               head_dim_ +
           static_cast<int64_t>(slot) * head_dim_;
  }
  float LoadElem(int64_t elem_offset) const noexcept;
  void StoreElem(int64_t elem_offset, float v) noexcept;
  int64_t AllocHostPage();
  int64_t AllocBlobSlot();
  void FreeBlobSlot(int64_t slot);

  DType dtype_;
  int num_kv_heads_;
  int head_dim_;
  int page_size_;
  int64_t max_pages_;
  int64_t max_host_pages_ = 0;
  KvCodecConfig codec_;
  int64_t elems_per_page_;
  std::vector<std::byte> data_;
  std::vector<std::byte> host_data_;
  std::vector<int64_t> free_list_;
  std::vector<int64_t> host_free_list_;
  std::vector<int32_t> ref_;
  std::vector<Sequence> seqs_;
  // Codec-tier blob store: encoded pages, accounted in bytes.
  std::vector<std::vector<uint8_t>> host_blobs_;
  std::vector<int64_t> host_blob_free_;
  int64_t host_bytes_in_use_ = 0;
  int64_t live_host_pages_ = 0;
  // Cumulative encode totals backing ObservedStoredRatio().
  int64_t cum_stored_bytes_ = 0;
  int64_t cum_logical_bytes_ = 0;
};

/// Channel-structured synthetic KV, the only synthetic KV source: every
/// (head, dim) channel carries a smooth per-head activation (V at half K's
/// amplitude) plus uniform noise of +/-0.05 from `rng`. Nearby channels are
/// similar, the structure real KV compresses on; white noise would not.
/// Writes `tokens` tokens of K and V, row-major [tokens, heads, dim] floats
/// (AppendTokens' input layout).
void SyntheticKv(Rng& rng, int64_t tokens, int heads, int dim, float* k, float* v);

/// Seed of the SyntheticKv page that PageCodecTableFor encodes.
inline constexpr uint64_t kSyntheticKvSeed = 0x5EED;

/// What the host tier takes in and stores for one page of a given geometry
/// and codec, by fill level. Codec on, level `fill` is EncodePage of the page
/// holding the first `fill` tokens of SyntheticKv(Rng(kSyntheticKvSeed)),
/// encoded without its empty slots: the encoder skips them, as a swap moves
/// only the filled tokens. Codec off, every level holds the raw page.
struct PageCodecTable {
  int64_t bound_bytes = 0;  ///< Worst case a page can store (EncodedPageBound).
  /// Per level, index fill - 1 for fill in [1, page_size].
  std::vector<int64_t> logical_bytes;
  std::vector<int64_t> stored_bytes;
  std::vector<double> mse;  ///< 0 unless quantized.

  int page_size() const noexcept { return static_cast<int>(stored_bytes.size()); }
  /// Logical bytes of one full page.
  int64_t page_bytes() const noexcept { return logical_bytes.back(); }
  /// Sums over the pages `tokens` tokens fill: every full page at the top
  /// level, a partial last page at its fill.
  int64_t LogicalBytes(int64_t tokens) const noexcept;
  int64_t StoredBytes(int64_t tokens) const noexcept;
  double MseSum(int64_t tokens) const noexcept;
};

/// The table for one (dtype, KV heads, head_dim, page_size, codec). Built on
/// first use and kept for the process; thread-safe, and every later lookup
/// of the same key returns the same table.
const PageCodecTable& PageCodecTableFor(DType dtype, int num_kv_heads, int head_dim,
                                        int page_size, const KvCodecConfig& codec);

}  // namespace flashinfer
