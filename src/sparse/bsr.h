// Block-Sparse Row (BSR) matrix — the unified KV-cache format (Sec. 3.1.1).
//
// The logical matrix has one row per (query, head-group) pair and one column
// per KV-cache slot. A non-zero block (Br x Bc) means "this query tile
// attends to this physical KV block". Page tables, radix trees, tree-attention
// masks and importance masks all lower to this structure: `indices[]` holds
// *physical* block ids (page numbers), so no KV data ever moves — only index
// arrays are built.
//
// Because position-dependent variants (causal, RoPE, ALiBi, sliding window)
// need the logical position of every KV token, each non-zero block also
// carries the logical KV position of its first column (`block_pos`) and the
// number of valid columns (`block_valid`, for ragged last pages and pruned
// pages).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flashinfer::sparse {

struct BsrMatrix {
  /// Total query rows covered (after GQA head-group fusion, Appendix A).
  int64_t num_rows = 0;
  /// Physical KV block capacity referenced by `indices` (page count).
  int64_t num_col_blocks = 0;
  /// Block row size = query tile size Tq (Sec. 3.2.3: Br aligned with Tq).
  int br = 1;
  /// Block column size = KV block granularity (page size; 1 = vector-sparse).
  int bc = 1;

  /// Per block-row extents into `indices`; size NumBlockRows()+1.
  std::vector<int64_t> indptr;
  /// Physical block id of each non-zero block.
  std::vector<int64_t> indices;
  /// Logical KV position (within the row's sequence coordinate system) of
  /// each non-zero block's first column; size == indices.size().
  std::vector<int64_t> block_pos;
  /// Valid columns in each non-zero block (<= bc); size == indices.size().
  std::vector<int32_t> block_valid;
  /// First logical query row of each block row; size NumBlockRows()+1 (last
  /// entry == num_rows). Block rows may be ragged when requests don't fill a
  /// full tile.
  std::vector<int64_t> row_start;

  int64_t NumBlockRows() const noexcept {
    return static_cast<int64_t>(row_start.empty() ? 0 : row_start.size() - 1);
  }
  int64_t Nnz() const noexcept { return static_cast<int64_t>(indices.size()); }

  /// Rows actually present in block row `i` (tail tiles may be short).
  int RowsInBlock(int64_t i) const noexcept {
    return static_cast<int>(row_start[static_cast<size_t>(i) + 1] -
                            row_start[static_cast<size_t>(i)]);
  }

  /// Total valid KV tokens attended by block row `i`.
  int64_t RowKvLen(int64_t i) const;

  /// Checks structural invariants; aborts on violation.
  void Validate() const;
};

/// One request's KV pages for batch BSR construction.
struct RequestKv {
  /// Physical page ids, in sequence order.
  std::vector<int64_t> pages;
  /// Valid tokens in the last page (1..page_size).
  int last_page_len = 0;
  /// Logical position of the first token held in `pages` (non-zero when the
  /// visible window does not start at position 0, e.g. StreamingLLM).
  int64_t pos_offset = 0;
};

/// Builds the batch BSR for paged attention: request `r` owns query rows
/// [qo_indptr[r], qo_indptr[r+1]) (already head-group fused), tiled at Br =
/// `tile_q`; every tile of request `r` attends to all of the request's pages.
BsrMatrix BuildBatchBsr(const std::vector<int64_t>& qo_indptr,
                        const std::vector<RequestKv>& kv, int page_size, int tile_q);

/// Builds a BSR from an explicit dense boolean mask (rows x cols), with block
/// size (br, bc); used for tree-attention masks and tests. Column block `j`
/// gets physical id `j` and position `j*bc`.
BsrMatrix BsrFromDenseMask(const std::vector<std::vector<bool>>& mask, int br, int bc);

/// Builds the BSR for pruned sparse attention (Quest-style, Sec. 4 / Tab. 9):
/// each request keeps only `selected_pages[r]` (indices into its page list).
BsrMatrix BuildPrunedBsr(const std::vector<int64_t>& qo_indptr,
                         const std::vector<RequestKv>& kv,
                         const std::vector<std::vector<int>>& selected_pages,
                         int page_size, int tile_q);

/// Repeats every mask row `group` times (consecutively), producing the
/// fused-row mask under GQA head-group fusion: fused row i*group+j carries
/// token i's mask. Used to lower per-token masks (tree attention) into the
/// fused-row space BsrFromDenseMask tiles over.
std::vector<std::vector<bool>> ExpandMaskRows(const std::vector<std::vector<bool>>& mask,
                                              int group);

}  // namespace flashinfer::sparse
