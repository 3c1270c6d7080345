#include <gtest/gtest.h>

#include <numeric>

#include "kvcache/radix.h"
#include "test_util.h"

namespace flashinfer {
namespace {

std::vector<int32_t> Tokens(std::initializer_list<int32_t> t) { return t; }

TEST(Radix, MatchEmptyTree) {
  RadixTree tree(2);
  const auto m = tree.MatchPrefix(Tokens({1, 2, 3, 4}));
  EXPECT_EQ(m.matched_tokens, 0);
  EXPECT_TRUE(m.pages.empty());
}

TEST(Radix, InsertAndMatchFullPrefix) {
  RadixTree tree(2);
  EXPECT_EQ(tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{10, 11}), 2);
  const auto m = tree.MatchPrefix(Tokens({1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(m.matched_tokens, 4);
  EXPECT_EQ(m.pages, (std::vector<int64_t>{10, 11}));
}

TEST(Radix, PartialPageNeverShared) {
  RadixTree tree(4);
  // Only 1 full page of 4 tokens; the trailing 2 tokens are not cacheable.
  EXPECT_EQ(tree.Insert(Tokens({1, 2, 3, 4, 5, 6}), std::vector<int64_t>{7, 8}), 1);
  EXPECT_EQ(tree.TotalCachedPages(), 1);
  const auto m = tree.MatchPrefix(Tokens({1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(m.matched_tokens, 4);
}

TEST(Radix, DivergingBranches) {
  RadixTree tree(2);
  tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{1, 2});
  tree.Insert(Tokens({1, 2, 9, 9}), std::vector<int64_t>{1, 3});  // Shares page 1.
  EXPECT_EQ(tree.TotalCachedPages(), 3);  // {1,2} node + two children.
  const auto a = tree.MatchPrefix(Tokens({1, 2, 3, 4}));
  EXPECT_EQ(a.pages, (std::vector<int64_t>{1, 2}));
  const auto b = tree.MatchPrefix(Tokens({1, 2, 9, 9}));
  EXPECT_EQ(b.pages, (std::vector<int64_t>{1, 3}));
  const auto c = tree.MatchPrefix(Tokens({1, 2, 5, 5}));
  EXPECT_EQ(c.matched_tokens, 2);  // Only the shared trunk.
}

TEST(Radix, InsertExistingReturnsZeroNew) {
  RadixTree tree(2);
  tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{1, 2});
  EXPECT_EQ(tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{5, 6}), 0);
  // Original pages kept.
  EXPECT_EQ(tree.MatchPrefix(Tokens({1, 2, 3, 4})).pages, (std::vector<int64_t>{1, 2}));
}

TEST(Radix, EvictLruFreesLeafFirst) {
  RadixTree tree(2);
  tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{1, 2});
  tree.Insert(Tokens({5, 6}), std::vector<int64_t>{3});
  // Touch the {1,2,...} path so {5,6} becomes LRU.
  tree.MatchPrefix(Tokens({1, 2, 3, 4}));
  const auto freed = tree.EvictLru(1);
  EXPECT_EQ(freed, (std::vector<int64_t>{3}));
  EXPECT_EQ(tree.TotalCachedPages(), 2);
  // Evicting more removes the deepest leaf of the remaining path first.
  const auto freed2 = tree.EvictLru(2);
  EXPECT_EQ(freed2.size(), 2u);
  EXPECT_EQ(tree.TotalCachedPages(), 0);
}

TEST(Radix, LockPreventsEviction) {
  RadixTree tree(2);
  tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{1, 2});
  auto m = tree.MatchPrefix(Tokens({1, 2, 3, 4}));
  tree.Lock(m.node);
  EXPECT_TRUE(tree.EvictLru(10).empty());
  tree.Unlock(m.node);
  EXPECT_EQ(tree.EvictLru(10).size(), 2u);
}

TEST(Radix, ParentBecomesLruLeafAfterChildEvicted) {
  RadixTree tree(2);
  tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{1, 2});
  tree.Insert(Tokens({5, 6}), std::vector<int64_t>{3});
  // The {1,2} page is older than {5,6}, but only joins the leaves once its
  // child is gone — within the same call.
  EXPECT_EQ(tree.EvictLru(3), (std::vector<int64_t>{2, 1, 3}));
  EXPECT_EQ(tree.TotalCachedPages(), 0);
}

TEST(Radix, UnlockMakesOldLeafEvictableAgain) {
  RadixTree tree(2);
  tree.Insert(Tokens({1, 2}), std::vector<int64_t>{1});
  const auto m = tree.MatchPrefix(Tokens({1, 2}));
  tree.Lock(m.node);
  tree.Insert(Tokens({3, 4}), std::vector<int64_t>{2});
  tree.Insert(Tokens({5, 6}), std::vector<int64_t>{3});
  EXPECT_EQ(tree.EvictLru(1), (std::vector<int64_t>{2}));  // {1,2} is pinned.
  tree.Unlock(m.node);
  // Unpinned, {1,2} keeps its stamp from the match and is older than {5,6}.
  EXPECT_EQ(tree.EvictLru(1), (std::vector<int64_t>{1}));
  EXPECT_EQ(tree.EvictLru(1), (std::vector<int64_t>{3}));
}

TEST(Radix, MatchesScanningReferenceOnRandomOps) {
  // Same freed pages in the same order, matches, peeks and page counts as
  // the tree that scans every leaf per evicted page.
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    ASSERT_EQ(test::RadixOpsDiff(seed, 200), "");
  }
}

TEST(Radix, MatchesScanningReferenceOnLongPrompts) {
  // Prompts that add up to 16 pages at once: most inserts hang multi-page
  // runs, and matches, diverging inserts and capacity evictions split or
  // shorten them.
  for (uint64_t seed = 0; seed < 200; ++seed) {
    ASSERT_EQ(test::RadixOpsDiff(seed, 200, /*extra_pages=*/16), "");
  }
}

// A RadixTree and the page-per-node reference, driven by the same calls;
// every result must agree.
struct TreeAndReference {
  explicit TreeAndReference(int page) : page(page), tree(page), ref(page) {}

  int64_t Insert(const std::vector<int32_t>& t, int64_t first_page) {
    std::vector<int64_t> pages(t.size() / static_cast<size_t>(page));
    std::iota(pages.begin(), pages.end(), first_page);
    const int64_t inserted = tree.Insert(t, pages);
    EXPECT_EQ(inserted, ref.Insert(t, pages));
    return inserted;
  }
  // Returns the matched pages; `locked` (when given) takes both handles.
  std::vector<int64_t> Match(const std::vector<int32_t>& t,
                             std::pair<void*, void*>* locked = nullptr) {
    const auto a = tree.MatchPrefix(t);
    const auto b = ref.MatchPrefix(t);
    EXPECT_EQ(a.pages, b.pages);
    EXPECT_EQ(a.matched_tokens, b.matched_tokens);
    EXPECT_EQ(a.node == nullptr, b.node == nullptr);
    if (locked != nullptr) {
      tree.Lock(a.node);
      ref.Lock(b.node);
      *locked = {a.node, b.node};
    }
    return a.pages;
  }
  std::vector<int64_t> Evict(int64_t max_pages) {
    const auto freed = tree.EvictLru(max_pages);
    EXPECT_EQ(freed, ref.EvictLru(max_pages));
    EXPECT_EQ(tree.TotalCachedPages(), ref.TotalCachedPages());
    return freed;
  }

  int page;
  RadixTree tree;
  test::ReferenceRadixTree ref;
};

TEST(Radix, LockedRunSplitAboveByDivergingInsert) {
  TreeAndReference t(2);
  t.Insert(Tokens({1, 2, 3, 4, 5, 6, 7, 8}), 0);  // One run of pages 0-3.
  std::pair<void*, void*> held;
  EXPECT_EQ(t.Match(Tokens({1, 2, 3, 4, 5, 6, 7, 8}), &held),
            (std::vector<int64_t>{0, 1, 2, 3}));
  // Diverges after two pages: pages 0-1 move to a new node above the locked
  // one, which keeps pages 2-3 and the handle.
  EXPECT_EQ(t.Insert(Tokens({1, 2, 3, 4, 9, 9}), 10), 1);
  t.Insert(Tokens({7, 7}), 20);
  EXPECT_EQ(t.Evict(1), (std::vector<int64_t>{12}));  // Pages 0-3 stay pinned.
  t.tree.Unlock(held.first);
  t.ref.Unlock(held.second);
  // Pages 2-3 kept the locking match's stamp, the oldest; pages 0-1 took the
  // diverging insert's, older than page 20's.
  EXPECT_EQ(t.Evict(INT64_MAX), (std::vector<int64_t>{3, 2, 1, 0, 20}));
}

TEST(Radix, EvictionStopsInsideARun) {
  TreeAndReference t(2);
  const auto a = Tokens({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  t.Insert(a, 0);  // One run of pages 0-5.
  t.Insert(Tokens({50, 51, 52, 53}), 10);
  EXPECT_EQ(t.Evict(2), (std::vector<int64_t>{5, 4}));  // The run keeps 0-3.
  EXPECT_EQ(t.Match(a), (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(t.Insert(a, 20), 2);  // Pages 24-25 hang below the shortened run.
  EXPECT_EQ(t.Evict(INT64_MAX), (std::vector<int64_t>{11, 10, 25, 24, 3, 2, 1, 0}));
}

TEST(Radix, PartialMatchLeavesTheRunTailOlder) {
  TreeAndReference t(2);
  t.Insert(Tokens({1, 2, 3, 4, 5, 6, 7, 8}), 0);  // One run of pages 0-3.
  t.Insert(Tokens({90, 91, 92, 93}), 10);
  // Touches pages 0-1 only: pages 2-3 keep the oldest stamp.
  EXPECT_EQ(t.Match(Tokens({1, 2, 3, 4, 6, 6})), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(t.Evict(2), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(t.Evict(INT64_MAX), (std::vector<int64_t>{11, 10, 1, 0}));
}

TEST(Radix, DeepSharedPrefixAcrossManyRequests) {
  RadixTree tree(4);
  std::vector<int32_t> base(64);
  std::iota(base.begin(), base.end(), 0);
  std::vector<int64_t> pages(16);
  std::iota(pages.begin(), pages.end(), 100);
  tree.Insert(base, pages);
  // 50 requests share the 64-token prefix then diverge.
  for (int r = 0; r < 50; ++r) {
    auto tokens = base;
    for (int i = 0; i < 8; ++i) tokens.push_back(1000 + r * 8 + i);
    const auto m = tree.MatchPrefix(tokens);
    EXPECT_EQ(m.matched_tokens, 64);
    std::vector<int64_t> new_pages = m.pages;
    new_pages.push_back(500 + r * 2);
    new_pages.push_back(501 + r * 2);
    tree.Insert(tokens, new_pages);
  }
  EXPECT_EQ(tree.TotalCachedPages(), 16 + 50 * 2);
}

}  // namespace
}  // namespace flashinfer
