#include <gtest/gtest.h>

#include <utility>

#include "sparse/bsr.h"
#include "spec/tree.h"
#include "test_util.h"

namespace flashinfer::sparse {
namespace {

TEST(BuildBatchBsr, SingleRequestStructure) {
  // One request, 5 query rows, 10 kv tokens in pages of 4 -> 3 pages, last
  // page holds 2 tokens.
  RequestKv kv;
  kv.pages = {7, 3, 9};
  kv.last_page_len = 2;
  const auto bsr = BuildBatchBsr({0, 5}, {kv}, /*page_size=*/4, /*tile_q=*/4);

  EXPECT_EQ(bsr.num_rows, 5);
  EXPECT_EQ(bsr.br, 4);
  EXPECT_EQ(bsr.bc, 4);
  EXPECT_EQ(bsr.NumBlockRows(), 2);  // ceil(5/4).
  EXPECT_EQ(bsr.RowsInBlock(0), 4);
  EXPECT_EQ(bsr.RowsInBlock(1), 1);
  // Every tile attends to all three pages.
  EXPECT_EQ(bsr.Nnz(), 6);
  EXPECT_EQ(bsr.indices[0], 7);
  EXPECT_EQ(bsr.indices[1], 3);
  EXPECT_EQ(bsr.indices[2], 9);
  EXPECT_EQ(bsr.block_valid[0], 4);
  EXPECT_EQ(bsr.block_valid[2], 2);  // Ragged last page.
  EXPECT_EQ(bsr.block_pos[0], 0);
  EXPECT_EQ(bsr.block_pos[1], 4);
  EXPECT_EQ(bsr.block_pos[2], 8);
  EXPECT_EQ(bsr.RowKvLen(0), 10);
  EXPECT_EQ(bsr.RowKvLen(1), 10);
}

TEST(BuildBatchBsr, PositionOffsetPropagates) {
  RequestKv kv;
  kv.pages = {0, 1};
  kv.last_page_len = 4;
  kv.pos_offset = 100;  // StreamingLLM-style shifted window.
  const auto bsr = BuildBatchBsr({0, 1}, {kv}, 4, 1);
  EXPECT_EQ(bsr.block_pos[0], 100);
  EXPECT_EQ(bsr.block_pos[1], 104);
}

TEST(BuildBatchBsr, MultiRequestRowStarts) {
  RequestKv a, b;
  a.pages = {0};
  a.last_page_len = 3;
  b.pages = {1, 2};
  b.last_page_len = 1;
  const auto bsr = BuildBatchBsr({0, 3, 5}, {a, b}, 4, 2);
  // Request 0: rows [0,3) -> tiles [0,2),[2,3); request 1: rows [3,5) -> [3,5).
  EXPECT_EQ(bsr.NumBlockRows(), 3);
  EXPECT_EQ(bsr.row_start[0], 0);
  EXPECT_EQ(bsr.row_start[1], 2);
  EXPECT_EQ(bsr.row_start[2], 3);
  EXPECT_EQ(bsr.row_start[3], 5);
  EXPECT_EQ(bsr.RowKvLen(0), 3);
  EXPECT_EQ(bsr.RowKvLen(2), 5);
}

TEST(BuildBatchBsr, EmptyKvRequest) {
  RequestKv empty;  // No pages yet.
  const auto bsr = BuildBatchBsr({0, 2}, {empty}, 4, 2);
  EXPECT_EQ(bsr.Nnz(), 0);
  EXPECT_EQ(bsr.RowKvLen(0), 0);
}

TEST(BsrFromDenseMask, CausalPattern) {
  // 4x4 causal mask with (2,2) blocks: block (0,1) is empty.
  std::vector<std::vector<bool>> mask(4, std::vector<bool>(4, false));
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j <= i; ++j) mask[static_cast<size_t>(i)][static_cast<size_t>(j)] = true;
  }
  const auto bsr = BsrFromDenseMask(mask, 2, 2);
  EXPECT_EQ(bsr.NumBlockRows(), 2);
  EXPECT_EQ(bsr.Nnz(), 3);  // (0,0), (1,0), (1,1).
  EXPECT_EQ(bsr.indices[0], 0);
  EXPECT_EQ(bsr.indices[1], 0);
  EXPECT_EQ(bsr.indices[2], 1);
}

TEST(BsrFromDenseMask, TreeAttentionMask) {
  // Speculative tree: two branches sharing a trunk (cols 0-1), tokens 2,3
  // branch A, 4,5 branch B.
  std::vector<std::vector<bool>> mask = {
      {true, true, true, false, false, false},
      {true, true, true, true, false, false},
      {true, true, false, false, true, false},
      {true, true, false, false, true, true},
  };
  const auto bsr = BsrFromDenseMask(mask, 1, 1);
  EXPECT_EQ(bsr.num_col_blocks, 6);
  EXPECT_EQ(bsr.Nnz(), 3 + 4 + 3 + 4);
  bsr.Validate();
}

TEST(BuildPrunedBsr, QuestStyleSelection) {
  // 32-token request in pages of 4; keep pages {0, 3, 7}.
  RequestKv kv;
  for (int i = 0; i < 8; ++i) kv.pages.push_back(i + 10);
  kv.last_page_len = 4;
  const auto bsr = BuildPrunedBsr({0, 1}, {kv}, {{3, 0, 7}}, 4, 1);
  EXPECT_EQ(bsr.Nnz(), 3);
  // Pages sorted by position; physical ids offset by 10.
  EXPECT_EQ(bsr.indices[0], 10);
  EXPECT_EQ(bsr.indices[1], 13);
  EXPECT_EQ(bsr.indices[2], 17);
  // Logical positions preserved for RoPE/causal.
  EXPECT_EQ(bsr.block_pos[0], 0);
  EXPECT_EQ(bsr.block_pos[1], 12);
  EXPECT_EQ(bsr.block_pos[2], 28);
  EXPECT_EQ(bsr.RowKvLen(0), 12);
}

class BsrTileSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BsrTileSweep, CoverageInvariants) {
  const auto [page_size, tile_q] = GetParam();
  std::vector<RequestKv> kv(3);
  std::vector<int64_t> qo_indptr{0};
  int64_t next_page = 0;
  const int64_t kv_tokens[3] = {1, 17, 64};
  const int64_t qo_rows[3] = {9, 2, 33};
  for (int r = 0; r < 3; ++r) {
    const int64_t pages = (kv_tokens[r] + page_size - 1) / page_size;
    for (int64_t p = 0; p < pages; ++p) kv[static_cast<size_t>(r)].pages.push_back(next_page++);
    kv[static_cast<size_t>(r)].last_page_len =
        static_cast<int>(kv_tokens[r] - (pages - 1) * page_size);
    qo_indptr.push_back(qo_indptr.back() + qo_rows[r]);
  }
  const auto bsr = BuildBatchBsr(qo_indptr, kv, page_size, tile_q);
  bsr.Validate();
  // Row coverage: block rows partition [0, num_rows).
  EXPECT_EQ(bsr.row_start.back(), qo_indptr.back());
  // Every tile of request r sees exactly kv_tokens[r] valid tokens.
  int64_t br = 0;
  for (int r = 0; r < 3; ++r) {
    const int64_t tiles = (qo_rows[r] + tile_q - 1) / tile_q;
    for (int64_t t = 0; t < tiles; ++t, ++br) {
      EXPECT_EQ(bsr.RowKvLen(br), kv_tokens[r]);
    }
  }
  EXPECT_EQ(br, bsr.NumBlockRows());
}

INSTANTIATE_TEST_SUITE_P(PageAndTile, BsrTileSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 16),
                                            ::testing::Values(1, 4, 16, 128)));

TEST(MaskHelpers, ExpandMaskRowsRepeatsPerGroup) {
  const std::vector<std::vector<bool>> mask = {{true, false}, {false, true}};
  const auto expanded = ExpandMaskRows(mask, 3);
  ASSERT_EQ(expanded.size(), 6u);
  for (int j = 0; j < 3; ++j) {
    EXPECT_TRUE(expanded[static_cast<size_t>(j)][0]);
    EXPECT_FALSE(expanded[static_cast<size_t>(j)][1]);
    EXPECT_FALSE(expanded[static_cast<size_t>(3 + j)][0]);
    EXPECT_TRUE(expanded[static_cast<size_t>(3 + j)][1]);
  }
  // group == 1 is the identity.
  EXPECT_EQ(ExpandMaskRows(mask, 1).size(), 2u);
}

TEST(MaskHelpers, TileBsrDiagonalRepeatsUnitPerCopy) {
  // Lower a small mask and a draft tree's mask, replicate each, and check
  // each copy's blocks and block rows are the unit's, modulo the column and
  // row offsets, with logical positions restarting per copy.
  const std::vector<std::vector<bool>> mask = {
      {true, false, false}, {true, true, false}, {false, true, true}};
  const std::pair<BsrMatrix, int> cases[] = {
      {BsrFromDenseMask(mask, /*br=*/2, /*bc=*/1), 4},
      {spec::TreeMaskBsr(spec::DraftTree(spec::TreeConfig{2, 2}), 1, 1), 3}};
  for (const auto& [unit, copies] : cases) {
    const auto tiled = test::TileBsrDiagonal(unit, copies);
    tiled.Validate();
    EXPECT_EQ(tiled.NumBlockRows(), unit.NumBlockRows() * copies);
    EXPECT_EQ(tiled.num_rows, unit.num_rows * copies);
    EXPECT_EQ(tiled.num_col_blocks, unit.num_col_blocks * copies);
    EXPECT_EQ(tiled.Nnz(), unit.Nnz() * copies);
    for (int c = 0; c < copies; ++c) {
      for (int64_t e = 0; e < unit.Nnz(); ++e) {
        const size_t te = static_cast<size_t>(c * unit.Nnz() + e);
        EXPECT_EQ(tiled.indices[te],
                  unit.indices[static_cast<size_t>(e)] + c * unit.num_col_blocks);
        EXPECT_EQ(tiled.block_pos[te], unit.block_pos[static_cast<size_t>(e)]);
        EXPECT_EQ(tiled.block_valid[te], unit.block_valid[static_cast<size_t>(e)]);
      }
      for (int64_t b = 0; b < unit.NumBlockRows(); ++b) {
        const size_t tb = static_cast<size_t>(c * unit.NumBlockRows() + b + 1);
        EXPECT_EQ(tiled.row_start[tb],
                  unit.row_start[static_cast<size_t>(b + 1)] + c * unit.num_rows);
        EXPECT_EQ(tiled.indptr[tb], unit.indptr[static_cast<size_t>(b + 1)] + c * unit.Nnz());
      }
    }
  }
}

}  // namespace
}  // namespace flashinfer::sparse
