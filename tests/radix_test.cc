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

TEST(Radix, ParentBecomesLruLeafAfterChildEvicted) {
  RadixTree tree(2);
  tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{1, 2});
  tree.Insert(Tokens({5, 6}), std::vector<int64_t>{3});
  // The {1,2} page is older than {5,6}, but only joins the leaves once its
  // child is gone — within the same call.
  EXPECT_EQ(tree.EvictLru(3), (std::vector<int64_t>{2, 1, 3}));
  EXPECT_EQ(tree.TotalCachedPages(), 0);
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

// Drives two trees with one seeded prompt stream, as ClusterEngine::Run
// updates the mirror it routes to: one matches, inserts and evicts back to
// capacity; the other only inserts and evicts, reading the cached prefix off
// Insert's return. Empty when every prefix and freed page agreed; otherwise
// names the first prompt that differed.
std::string InsertAloneDiff(uint64_t seed, int num_prompts, int extra_pages) {
  Rng rng(seed);
  const int page = static_cast<int>(rng.UniformInt(1, 4));
  const int vocab = static_cast<int>(rng.UniformInt(2, 4));
  const int64_t cap = rng.UniformInt(4, 48);
  test::RadixPromptStream prompts(rng, page, vocab, extra_pages);
  RadixTree matched(page);
  RadixTree inserted(page);
  int64_t next_page = 0;
  auto evict = [&](int64_t k) { return matched.EvictLru(k) == inserted.EvictLru(k); };
  for (int i = 0; i < num_prompts; ++i) {
    const std::string at = "seed " + std::to_string(seed) + " prompt " + std::to_string(i);
    const auto t = prompts.Next();
    const int64_t full_pages = static_cast<int64_t>(t.size()) / page;
    std::vector<int64_t> pages(static_cast<size_t>(full_pages));
    std::iota(pages.begin(), pages.end(), next_page);
    next_page += full_pages;
    const int64_t expected = matched.MatchPrefix(t).matched_tokens;
    const int64_t added = matched.Insert(t, pages);
    if (inserted.Insert(t, pages) != added) return at + ": Insert count differs";
    if ((full_pages - added) * page != expected) return at + ": cached prefix differs";
    if (matched.TotalCachedPages() > cap && !evict(matched.TotalCachedPages() - cap)) {
      return at + ": capacity EvictLru differs";
    }
    if (matched.TotalCachedPages() != inserted.TotalCachedPages()) {
      return at + ": TotalCachedPages differs";
    }
  }
  if (!evict(INT64_MAX) || inserted.TotalCachedPages() != 0) {
    return "seed " + std::to_string(seed) + ": final drain differs";
  }
  return {};
}

TEST(Radix, InsertAloneRoutesAndEvictsLikeMatchThenInsert) {
  // RadixOpsDiff's short and long prompt shapes.
  for (uint64_t seed = 0; seed < 500; ++seed) ASSERT_EQ(InsertAloneDiff(seed, 200, 4), "");
  for (uint64_t seed = 0; seed < 100; ++seed) ASSERT_EQ(InsertAloneDiff(seed, 200, 16), "");
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
  // Returns the matched pages.
  std::vector<int64_t> Match(const std::vector<int32_t>& t) {
    const auto a = tree.MatchPrefix(t);
    const auto b = ref.MatchPrefix(t);
    EXPECT_EQ(a.pages, b.pages);
    EXPECT_EQ(a.matched_tokens, b.matched_tokens);
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

TEST(Radix, RunSplitAboveByDivergingInsert) {
  TreeAndReference t(2);
  t.Insert(Tokens({1, 2, 3, 4, 5, 6, 7, 8}), 0);  // One run of pages 0-3.
  EXPECT_EQ(t.Match(Tokens({1, 2, 3, 4, 5, 6, 7, 8})), (std::vector<int64_t>{0, 1, 2, 3}));
  // Diverges after two pages: pages 0-1 move to a new node above the run,
  // which keeps pages 2-3.
  EXPECT_EQ(t.Insert(Tokens({1, 2, 3, 4, 9, 9}), 10), 1);
  t.Insert(Tokens({7, 7}), 20);
  // Pages 2-3 kept the match's stamp, the oldest; pages 0-1 took the
  // diverging insert's, as its new page 12 did, older than page 20's.
  EXPECT_EQ(t.Evict(2), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(t.Evict(INT64_MAX), (std::vector<int64_t>{12, 1, 0, 20}));
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
