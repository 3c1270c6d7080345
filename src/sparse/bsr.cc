#include "sparse/bsr.h"

#include <algorithm>

#include "util/check.h"

namespace flashinfer::sparse {

int64_t BsrMatrix::RowKvLen(int64_t i) const {
  int64_t total = 0;
  for (int64_t e = indptr[static_cast<size_t>(i)]; e < indptr[static_cast<size_t>(i) + 1]; ++e) {
    total += block_valid[static_cast<size_t>(e)];
  }
  return total;
}

void BsrMatrix::Validate() const {
  FI_CHECK_GE(br, 1);
  FI_CHECK_GE(bc, 1);
  FI_CHECK_EQ(static_cast<int64_t>(indptr.size()), NumBlockRows() + 1);
  FI_CHECK_EQ(indptr.front(), 0);
  FI_CHECK_EQ(indptr.back(), Nnz());
  FI_CHECK_EQ(static_cast<int64_t>(block_pos.size()), Nnz());
  FI_CHECK_EQ(static_cast<int64_t>(block_valid.size()), Nnz());
  FI_CHECK(!row_start.empty());
  FI_CHECK_EQ(row_start.front(), 0);
  FI_CHECK_EQ(row_start.back(), num_rows);
  for (size_t i = 0; i + 1 < indptr.size(); ++i) {
    FI_CHECK_LE(indptr[i], indptr[i + 1]);
  }
  for (size_t i = 0; i + 1 < row_start.size(); ++i) {
    FI_CHECK_LT(row_start[i], row_start[i + 1]);
    FI_CHECK_LE(row_start[i + 1] - row_start[i], br);
  }
  for (int64_t e = 0; e < Nnz(); ++e) {
    FI_CHECK_GE(indices[static_cast<size_t>(e)], 0);
    FI_CHECK_LT(indices[static_cast<size_t>(e)], num_col_blocks);
    FI_CHECK_GE(block_valid[static_cast<size_t>(e)], 1);
    FI_CHECK_LE(block_valid[static_cast<size_t>(e)], bc);
    FI_CHECK_GE(block_pos[static_cast<size_t>(e)], 0);
  }
}

BsrMatrix BuildBatchBsr(const std::vector<int64_t>& qo_indptr, const std::vector<RequestKv>& kv,
                        int page_size, int tile_q) {
  FI_CHECK_GE(qo_indptr.size(), 2u);
  FI_CHECK_EQ(qo_indptr.size() - 1, kv.size());
  FI_CHECK_GE(tile_q, 1);
  FI_CHECK_GE(page_size, 1);

  BsrMatrix bsr;
  bsr.br = tile_q;
  bsr.bc = page_size;
  bsr.num_rows = qo_indptr.back();
  int64_t max_page = -1;

  bsr.indptr.push_back(0);
  bsr.row_start.push_back(0);
  const size_t num_reqs = kv.size();
  for (size_t r = 0; r < num_reqs; ++r) {
    const int64_t rows = qo_indptr[r + 1] - qo_indptr[r];
    FI_CHECK_GE(rows, 0);
    const auto& req = kv[r];
    if (!req.pages.empty()) {
      FI_CHECK_GE(req.last_page_len, 1);
      FI_CHECK_LE(req.last_page_len, page_size);
    }
    const int64_t num_tiles = (rows + tile_q - 1) / tile_q;
    for (int64_t t = 0; t < num_tiles; ++t) {
      int64_t pos = req.pos_offset;
      for (size_t p = 0; p < req.pages.size(); ++p) {
        const int valid =
            (p + 1 == req.pages.size()) ? req.last_page_len : page_size;
        bsr.indices.push_back(req.pages[p]);
        bsr.block_pos.push_back(pos);
        bsr.block_valid.push_back(valid);
        max_page = std::max(max_page, req.pages[p]);
        pos += valid;
      }
      bsr.indptr.push_back(static_cast<int64_t>(bsr.indices.size()));
      const int64_t row_hi = std::min(rows, (t + 1) * tile_q);
      bsr.row_start.push_back(qo_indptr[r] + row_hi);
    }
  }
  bsr.num_col_blocks = max_page + 1;
  bsr.Validate();
  return bsr;
}

BsrMatrix BsrFromDenseMask(const std::vector<std::vector<bool>>& mask, int br, int bc) {
  FI_CHECK(!mask.empty());
  const int64_t rows = static_cast<int64_t>(mask.size());
  const int64_t cols = static_cast<int64_t>(mask[0].size());
  for (const auto& row : mask) FI_CHECK_EQ(static_cast<int64_t>(row.size()), cols);

  BsrMatrix bsr;
  bsr.br = br;
  bsr.bc = bc;
  bsr.num_rows = rows;
  bsr.num_col_blocks = (cols + bc - 1) / bc;
  bsr.indptr.push_back(0);
  bsr.row_start.push_back(0);
  for (int64_t r0 = 0; r0 < rows; r0 += br) {
    const int64_t r1 = std::min(rows, r0 + br);
    for (int64_t cb = 0; cb < bsr.num_col_blocks; ++cb) {
      const int64_t c0 = cb * bc;
      const int64_t c1 = std::min(cols, c0 + bc);
      bool any = false;
      for (int64_t r = r0; r < r1 && !any; ++r) {
        for (int64_t c = c0; c < c1 && !any; ++c) {
          any = mask[static_cast<size_t>(r)][static_cast<size_t>(c)];
        }
      }
      if (any) {
        bsr.indices.push_back(cb);
        bsr.block_pos.push_back(c0);
        bsr.block_valid.push_back(static_cast<int32_t>(c1 - c0));
      }
    }
    bsr.indptr.push_back(static_cast<int64_t>(bsr.indices.size()));
    bsr.row_start.push_back(r1);
  }
  bsr.Validate();
  return bsr;
}

BsrMatrix BuildPrunedBsr(const std::vector<int64_t>& qo_indptr, const std::vector<RequestKv>& kv,
                         const std::vector<std::vector<int>>& selected_pages, int page_size,
                         int tile_q) {
  FI_CHECK_EQ(kv.size(), selected_pages.size());
  // Build a filtered view of each request's pages, preserving each kept
  // page's original logical position (required for RoPE/causal correctness
  // with pruned caches).
  BsrMatrix bsr;
  bsr.br = tile_q;
  bsr.bc = page_size;
  bsr.num_rows = qo_indptr.back();
  int64_t max_page = -1;
  bsr.indptr.push_back(0);
  bsr.row_start.push_back(0);
  for (size_t r = 0; r < kv.size(); ++r) {
    const auto& req = kv[r];
    const int64_t rows = qo_indptr[r + 1] - qo_indptr[r];
    auto sel = selected_pages[r];
    std::sort(sel.begin(), sel.end());
    const int64_t num_tiles = (rows + tile_q - 1) / tile_q;
    for (int64_t t = 0; t < num_tiles; ++t) {
      for (int page_idx : sel) {
        FI_CHECK_GE(page_idx, 0);
        FI_CHECK_LT(static_cast<size_t>(page_idx), req.pages.size());
        const bool is_last = static_cast<size_t>(page_idx) + 1 == req.pages.size();
        const int valid = is_last ? req.last_page_len : page_size;
        bsr.indices.push_back(req.pages[static_cast<size_t>(page_idx)]);
        bsr.block_pos.push_back(req.pos_offset +
                                static_cast<int64_t>(page_idx) * page_size);
        bsr.block_valid.push_back(valid);
        max_page = std::max(max_page, req.pages[static_cast<size_t>(page_idx)]);
      }
      bsr.indptr.push_back(static_cast<int64_t>(bsr.indices.size()));
      const int64_t row_hi = std::min(rows, (t + 1) * tile_q);
      bsr.row_start.push_back(qo_indptr[r] + row_hi);
    }
  }
  bsr.num_col_blocks = max_page + 1;
  bsr.Validate();
  return bsr;
}

std::vector<std::vector<bool>> ExpandMaskRows(const std::vector<std::vector<bool>>& mask,
                                              int group) {
  FI_CHECK_GE(group, 1);
  if (group == 1) return mask;
  std::vector<std::vector<bool>> out;
  out.reserve(mask.size() * static_cast<size_t>(group));
  for (const auto& row : mask) {
    for (int j = 0; j < group; ++j) out.push_back(row);
  }
  return out;
}

}  // namespace flashinfer::sparse
