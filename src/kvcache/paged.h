// Paged KV-cache (PagedAttention-style storage, Kwon et al. 2023) backing
// the unified BSR view of Sec. 3.1.1.
//
// Storage is a pool of fixed-size pages; each page holds `page_size` tokens
// of K and V for all KV heads: layout [2 (K/V)][H_kv][page_size][D], with the
// head dimension contiguous (mirrors the coalesced 128B loads of Sec. 3.2.1).
// Pages are reference-counted so radix-tree prefix sharing (kvcache/radix.h)
// and parallel generation can alias pages across sequences without copies.
//
// The cache has one tier. Offloading a sequence to host memory is the
// owner's business: a serving engine that preempts a sequence drops it here
// and rebuilds it on restore, and meters the host copy per page
// (PageCodecTableFor, cf. "LLM in a flash"). The table holds, for each
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
  PagedKVCache(DType dtype, int num_kv_heads, int head_dim, int page_size, int64_t max_pages);

  DType dtype() const noexcept { return dtype_; }
  int num_kv_heads() const noexcept { return num_kv_heads_; }
  int head_dim() const noexcept { return head_dim_; }
  int page_size() const noexcept { return page_size_; }
  int64_t max_pages() const noexcept { return max_pages_; }
  int64_t num_free_pages() const noexcept { return static_cast<int64_t>(free_list_.size()); }
  int64_t num_live_pages() const noexcept { return max_pages_ - num_free_pages(); }
  int64_t PageElems() const noexcept { return elems_per_page_; }
  int64_t PageBytes() const noexcept { return elems_per_page_ * DTypeBytes(dtype_); }

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

  int64_t SequenceLength(int seq) const;
  const std::vector<int64_t>& SequencePages(int seq) const;
  int LastPageLen(int seq) const;

  /// Exports a sequence's page list in the BSR builder's format.
  sparse::RequestKv ExportKv(int seq, int64_t pos_offset = 0) const;

  // --- Raw access (kernels) ----------------------------------------------
  /// One page's storage, PageBytes() long in the [K/V][head][slot][dim]
  /// layout: what a host tier would encode (util::EncodePage).
  const std::byte* PageData(int64_t page) const noexcept {
    return data_.data() + page * PageBytes();
  }
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

  DType dtype_;
  int num_kv_heads_;
  int head_dim_;
  int page_size_;
  int64_t max_pages_;
  int64_t elems_per_page_;
  std::vector<std::byte> data_;
  std::vector<int64_t> free_list_;
  std::vector<int32_t> ref_;
  std::vector<Sequence> seqs_;
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
