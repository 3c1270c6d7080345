#include <gtest/gtest.h>

#include <cmath>

#include "kvcache/paged.h"
#include "kvcache/ragged.h"
#include "util/rng.h"

namespace flashinfer {
namespace {

TEST(Ragged, BuildIndptrAndZeros) {
  const auto indptr = BuildIndptr({3, 0, 2});
  EXPECT_EQ(indptr, (std::vector<int64_t>{0, 3, 3, 5}));
  auto t = RaggedTensor::Zeros(indptr, 4);
  EXPECT_EQ(t.NumRows(), 5);
  EXPECT_EQ(t.NumRequests(), 3);
  EXPECT_EQ(t.data.size(), 20u);
  t.Row(2)[1] = 7.0f;
  EXPECT_EQ(t.data[9], 7.0f);
}

TEST(Paged, AllocFreeAccounting) {
  PagedKVCache kv(DType::kF32, 2, 4, 4, 8);
  EXPECT_EQ(kv.num_free_pages(), 8);
  const int64_t p0 = kv.AllocPage();
  const int64_t p1 = kv.AllocPage();
  EXPECT_NE(p0, p1);
  EXPECT_EQ(kv.num_live_pages(), 2);
  kv.ReleasePage(p0);
  EXPECT_EQ(kv.num_free_pages(), 7);
  kv.ReleasePage(p1);
  EXPECT_EQ(kv.num_free_pages(), 8);
}

TEST(Paged, RefCountingSharedPages) {
  PagedKVCache kv(DType::kF32, 1, 4, 4, 4);
  const int64_t p = kv.AllocPage();
  kv.RetainPage(p);
  EXPECT_EQ(kv.RefCount(p), 2);
  kv.ReleasePage(p);
  EXPECT_EQ(kv.num_free_pages(), 3);  // Still held.
  kv.ReleasePage(p);
  EXPECT_EQ(kv.num_free_pages(), 4);
}

TEST(Paged, AppendAllocatesOnPageBoundaries) {
  PagedKVCache kv(DType::kF32, 1, 2, 4, 8);
  const int seq = kv.CreateSequence();
  std::vector<float> k(2, 1.0f), v(2, 2.0f);
  for (int t = 0; t < 9; ++t) kv.AppendTokens(seq, k.data(), v.data(), 1);
  EXPECT_EQ(kv.SequenceLength(seq), 9);
  EXPECT_EQ(kv.SequencePages(seq).size(), 3u);  // ceil(9/4).
  EXPECT_EQ(kv.LastPageLen(seq), 1);
  const auto exported = kv.ExportKv(seq);
  EXPECT_EQ(exported.pages.size(), 3u);
  EXPECT_EQ(exported.last_page_len, 1);
}

TEST(Paged, StorageRoundTripF32) {
  PagedKVCache kv(DType::kF32, 2, 3, 2, 4);
  const int seq = kv.CreateSequence();
  // Token 0: K = [h0: 1,2,3; h1: 4,5,6], V = negatives.
  std::vector<float> k{1, 2, 3, 4, 5, 6}, v{-1, -2, -3, -4, -5, -6};
  kv.AppendTokens(seq, k.data(), v.data(), 1);
  const int64_t page = kv.SequencePages(seq)[0];
  EXPECT_EQ(kv.KAt(page, 0, 0, 0), 1.0f);
  EXPECT_EQ(kv.KAt(page, 1, 0, 2), 6.0f);
  EXPECT_EQ(kv.VAt(page, 0, 0, 1), -2.0f);
  EXPECT_EQ(kv.VAt(page, 1, 0, 0), -4.0f);
  // Typed pointer view agrees with the accessor.
  const float* krow = kv.KRow<float>(page, 1, 0);
  EXPECT_EQ(krow[1], 5.0f);
}

class PagedDtypeSweep : public ::testing::TestWithParam<DType> {};

TEST_P(PagedDtypeSweep, QuantizedRoundTripWithinTolerance) {
  const DType dt = GetParam();
  PagedKVCache kv(dt, 2, 8, 4, 4);
  const int seq = kv.CreateSequence();
  Rng rng(3);
  std::vector<float> k(16), v(16);
  for (auto& x : k) x = static_cast<float>(rng.Normal(0.0, 1.0));
  for (auto& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  kv.AppendTokens(seq, k.data(), v.data(), 1);
  const int64_t page = kv.SequencePages(seq)[0];
  double tol = 0.0;
  switch (dt) {
    case DType::kF32:
      tol = 0.0;
      break;
    case DType::kF16:
      tol = 2e-3;
      break;
    case DType::kBF16:
      tol = 2e-2;
      break;
    default:
      tol = 0.25;  // fp8.
  }
  for (int h = 0; h < 2; ++h) {
    for (int d = 0; d < 8; ++d) {
      EXPECT_NEAR(kv.KAt(page, h, 0, d), k[static_cast<size_t>(h * 8 + d)], tol);
      EXPECT_NEAR(kv.VAt(page, h, 0, d), v[static_cast<size_t>(h * 8 + d)], tol);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDtypes, PagedDtypeSweep,
                         ::testing::Values(DType::kF32, DType::kF16, DType::kBF16,
                                           DType::kFP8_E4M3, DType::kFP8_E5M2));

TEST(Paged, AdoptPrefixSharesPages) {
  PagedKVCache kv(DType::kF32, 1, 2, 4, 8);
  const int parent = kv.CreateSequence();
  // AppendTokens reads [count, H_kv, D]: size the buffers for all 8 tokens.
  std::vector<float> k(8 * 2, 1.0f), v(8 * 2, 1.0f);
  kv.AppendTokens(parent, k.data(), v.data(), 8);  // Two full pages.
  const auto parent_pages = kv.SequencePages(parent);

  const int child = kv.CreateSequence();
  kv.AdoptPrefix(child, parent_pages, 8);
  EXPECT_EQ(kv.RefCount(parent_pages[0]), 2);
  EXPECT_EQ(kv.SequenceLength(child), 8);
  // Child appends its own suffix into a fresh page.
  kv.AppendTokens(child, k.data(), v.data(), 1);
  EXPECT_EQ(kv.SequencePages(child).size(), 3u);
  EXPECT_NE(kv.SequencePages(child)[2], parent_pages[1]);

  kv.DropSequence(parent);
  EXPECT_EQ(kv.RefCount(parent_pages[0]), 1);  // Child still holds them.
  kv.DropSequence(child);
  EXPECT_EQ(kv.num_free_pages(), 8);  // No leaks.
}

TEST(Paged, DropSequenceFreesExactlyItsPages) {
  PagedKVCache kv(DType::kF16, 1, 2, 2, 16);
  // AppendTokens reads [count, H_kv, D]: size for the largest append.
  std::vector<float> k(5 * 2, 0.5f), v(5 * 2, 0.5f);
  const int a = kv.CreateSequence();
  const int b = kv.CreateSequence();
  kv.AppendTokens(a, k.data(), v.data(), 5);
  kv.AppendTokens(b, k.data(), v.data(), 3);
  const auto live = kv.num_live_pages();
  EXPECT_EQ(live, 3 + 2);
  kv.DropSequence(a);
  EXPECT_EQ(kv.num_live_pages(), 2);
  kv.DropSequence(b);
  EXPECT_EQ(kv.num_live_pages(), 0);
}

TEST(Paged, SequenceSlotReuse) {
  PagedKVCache kv(DType::kF32, 1, 2, 2, 4);
  const int a = kv.CreateSequence();
  kv.DropSequence(a);
  const int b = kv.CreateSequence();
  EXPECT_EQ(a, b);  // Dead slot reused.
}

TEST(Paged, BytesPerToken) {
  PagedKVCache kv(DType::kFP8_E4M3, 8, 128, 16, 4);
  EXPECT_EQ(kv.BytesPerToken(), 2 * 8 * 128 * 1);
}

// --- Fork / truncate / extend (speculative decoding) ------------------------

TEST(Paged, ExtendAllocatesLikeAppend) {
  PagedKVCache kv(DType::kF16, 1, 2, 4, 8);
  const int seq = kv.CreateSequence();
  kv.ExtendSequence(seq, 9);
  EXPECT_EQ(kv.SequenceLength(seq), 9);
  EXPECT_EQ(kv.SequencePages(seq).size(), 3u);  // ceil(9/4).
  EXPECT_EQ(kv.LastPageLen(seq), 1);
  kv.ExtendSequence(seq, 3);  // Fills the partial page exactly.
  EXPECT_EQ(kv.SequencePages(seq).size(), 3u);
  kv.DropSequence(seq);
  EXPECT_EQ(kv.num_live_pages(), 0);
}

TEST(Paged, ForkSharesFullPagesAndCopiesPartialTail) {
  PagedKVCache kv(DType::kF32, 1, 2, 4, 16);
  std::vector<float> k(2), v(2);
  const int seq = kv.CreateSequence();
  for (int t = 0; t < 6; ++t) {  // 1 full page + 2 tokens on the tail page.
    k.assign(2, static_cast<float>(t));
    v.assign(2, static_cast<float>(10 + t));
    kv.AppendTokens(seq, k.data(), v.data(), 1);
  }
  const int fork = kv.ForkSequence(seq);
  EXPECT_EQ(kv.SequenceLength(fork), 6);
  EXPECT_EQ(kv.num_live_pages(), 3);  // The parent's 2 pages + the CoW tail.
  const auto& sp = kv.SequencePages(seq);
  const auto& fp = kv.SequencePages(fork);
  EXPECT_EQ(fp[0], sp[0]);      // Full page aliased...
  EXPECT_EQ(kv.RefCount(sp[0]), 2);
  EXPECT_NE(fp[1], sp[1]);      // ...partial tail copied (CoW).
  // The copied tail holds the same data.
  EXPECT_EQ(kv.KAt(fp[1], 0, 1, 0), 5.0f);
  EXPECT_EQ(kv.VAt(fp[1], 0, 0, 1), 14.0f);
  // Divergent appends stay isolated.
  k.assign(2, 100.0f);
  v.assign(2, 200.0f);
  kv.AppendTokens(fork, k.data(), v.data(), 1);
  EXPECT_EQ(kv.SequenceLength(seq), 6);
  EXPECT_EQ(kv.KAt(sp[1], 0, 2, 0), 0.0f);  // Parent's slot untouched.
  // The parent appends into its own tail; the fork's copy keeps its token.
  k.assign(2, 300.0f);
  kv.AppendTokens(seq, k.data(), v.data(), 1);
  EXPECT_EQ(kv.KAt(sp[1], 0, 2, 0), 300.0f);
  EXPECT_EQ(kv.KAt(fp[1], 0, 2, 0), 100.0f);
  kv.DropSequence(fork);
  EXPECT_EQ(kv.RefCount(sp[0]), 1);
  kv.DropSequence(seq);
  EXPECT_EQ(kv.num_live_pages(), 0);
}

TEST(Paged, TruncateReleasesExactlyTheTailPages) {
  PagedKVCache kv(DType::kF16, 1, 2, 4, 8);
  const int seq = kv.CreateSequence();
  kv.ExtendSequence(seq, 15);  // 4 pages.
  EXPECT_EQ(kv.num_live_pages(), 4);
  kv.TruncateSequence(seq, 9);  // Keep ceil(9/4) = 3 pages.
  EXPECT_EQ(kv.SequenceLength(seq), 9);
  EXPECT_EQ(kv.num_live_pages(), 3);
  kv.TruncateSequence(seq, 8);  // Page-aligned: drops the ragged tail page.
  EXPECT_EQ(kv.num_live_pages(), 2);
  kv.TruncateSequence(seq, 0);
  EXPECT_EQ(kv.num_live_pages(), 0);
  kv.ExtendSequence(seq, 2);  // Still usable after a full rollback.
  EXPECT_EQ(kv.num_live_pages(), 1);
  kv.DropSequence(seq);
  EXPECT_EQ(kv.num_live_pages(), 0);
}

TEST(Paged, ForkRollbackRefcountStress) {
  // Speculative-decoding pattern under stress: a shared committed prefix is
  // forked into many speculative branches per round, each extends, losers
  // roll back (drop), the winner is truncated to the accepted length and
  // becomes the next round's parent — with extra RetainPage/ReleasePage
  // churn interleaved across the shared prefix. After every round the
  // accounting must be exact: no leaked pages, no double frees.
  const int page_size = 4;
  PagedKVCache kv(DType::kF16, 1, 1, page_size, 512);
  Rng rng(2026);

  int parent = kv.CreateSequence();
  kv.ExtendSequence(parent, 21);  // Committed prefix, ragged tail.

  for (int round = 0; round < 50; ++round) {
    const int num_branches = static_cast<int>(rng.UniformInt(2, 5));
    std::vector<int> branches;
    for (int b = 0; b < num_branches; ++b) {
      const int f = kv.ForkSequence(parent);
      kv.ExtendSequence(f, rng.UniformInt(1, 11));
      branches.push_back(f);
    }
    // Interleaved retain/release churn on the parent's shared pages (a
    // router-side mirror grabbing and dropping references mid-flight).
    const auto parent_pages = kv.SequencePages(parent);
    for (int64_t p : parent_pages) kv.RetainPage(p);
    // Every branch's full pages are shared with the parent.
    for (int f : branches) {
      const int64_t shared = kv.SequenceLength(parent) / page_size;
      for (int64_t i = 0; i < shared; ++i) {
        EXPECT_GE(kv.RefCount(kv.SequencePages(f)[static_cast<size_t>(i)]), 2);
      }
    }
    for (int64_t p : parent_pages) kv.ReleasePage(p);

    // Rejection sampling: one winner (possibly none), losers roll back.
    const int winner = static_cast<int>(rng.UniformInt(0, num_branches));  // == n -> none.
    for (int b = 0; b < num_branches; ++b) {
      if (b == winner) continue;
      kv.DropSequence(branches[static_cast<size_t>(b)]);
    }
    if (winner < num_branches) {
      const int w = branches[static_cast<size_t>(winner)];
      const int64_t accepted = rng.UniformInt(kv.SequenceLength(parent),
                                              kv.SequenceLength(w));
      kv.TruncateSequence(w, accepted);
      kv.DropSequence(parent);
      parent = w;
    }
    // Exact accounting: live pages == the pages the surviving sequence
    // needs, and every live page has refcount exactly 1 (no aliasing leaks
    // survive a round).
    const int64_t expect_pages =
        (kv.SequenceLength(parent) + page_size - 1) / page_size;
    ASSERT_EQ(kv.num_live_pages(), expect_pages) << "round " << round;
    for (int64_t p : kv.SequencePages(parent)) ASSERT_EQ(kv.RefCount(p), 1);
  }
  kv.DropSequence(parent);
  EXPECT_EQ(kv.num_live_pages(), 0);
}

}  // namespace
}  // namespace flashinfer
