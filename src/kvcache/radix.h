// Radix-tree prefix cache (RadixAttention, Zheng et al. 2023 / SGLang).
//
// Maps token-id prefixes to cached KV pages so that requests sharing a
// prefix reuse pages instead of recomputing them, and so the serving engine
// can discover shared-prefix groups for composable formats (Sec. 3.1.2).
// Sharing granularity is one page: only full pages of tokens are cached.
// The tree takes no locks. Pages are reference-counted in PagedKVCache: the
// tree's owner holds one reference per cached page and each request that
// adopts a cached prefix holds its own, so evicting a page releases only the
// tree's reference and a page a request still reads stays live.
//
// Run layout. The tree is path-compressed, as SGLang's RadixCache is: a node
// holds a run of one or more pages (their tokens back to back, and their
// page ids) that share one access stamp, and a child is keyed by the first
// page of its run. A walk compares the prompt against a whole run at once;
// the keys view node-owned tokens, so a lookup by a span of the prompt
// allocates nothing. Every page inside a run but the last has exactly one
// child, the next page of the run.
//
// Split rule. When the range an operation touches (the path MatchPrefix or
// Insert walks) ends inside a run, the run splits there: a new node takes
// the upper pages and goes between the run and its parent; the existing
// node keeps the lower pages, its children, its LRU entry and its stamp.
// Only the upper node takes the operation's fresh stamp, so pages with
// different stamps are never in one run. Insert hangs the whole new tail as
// one node.
//
// Eviction is LRU over evictable leaves: non-root nodes with no children.
// Every operation that changes the tree or its stamps keeps an index of
// exactly those leaves, keyed by access stamp, so EvictLru pops the minimum
// in O(log n); when a victim's parent becomes a leaf it joins the index.
//
// Why this evicts exactly the pages a tree of one node per page would, in
// the same order. MatchPrefix and Insert give every page they touch one
// fresh stamp, and all those pages lie on one root path. Two leaves are
// never ancestor and descendant, so no two leaves ever share a stamp and
// the per-page victim order is the strict stamp order (the index checks
// this on every insertion). EvictLru takes pages tail-first from the least
// leaf run and stops mid-run once it has evicted `max_pages`: the run's
// pages share its stamp, which no other leaf holds, so after each evicted
// page the run's next page up is again the least leaf.
//
// Insert stamps and splits the same path MatchPrefix does, so a caller that
// mirrors every prompt (ClusterEngine::Run) reads the cached prefix off
// Insert's return, (full pages - inserted) * page_size, in one walk.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

namespace flashinfer {

class RadixTree {
 public:
  explicit RadixTree(int page_size);
  // Nodes point at the root member, so a tree never moves.
  RadixTree(const RadixTree&) = delete;
  RadixTree& operator=(const RadixTree&) = delete;

  struct MatchResult {
    /// Cached pages covering the matched prefix, in order.
    std::vector<int64_t> pages;
    /// Matched token count (always a multiple of page_size).
    int64_t matched_tokens = 0;
  };

  /// Finds the longest cached prefix of `tokens` (page-aligned) and bumps
  /// the LRU stamp of every page on the path.
  MatchResult MatchPrefix(std::span<const int32_t> tokens);

  /// Length of the longest cached prefix of `tokens` without touching LRU
  /// stamps — a read-only probe (e.g. a router scoring replicas it may not
  /// pick must not refresh their caches).
  int64_t PeekPrefixTokens(std::span<const int32_t> tokens) const;

  /// Inserts the page-aligned prefix of `tokens` into the tree, reusing any
  /// existing path; `pages[i]` backs tokens [i*page_size, (i+1)*page_size).
  /// Returns how many of `pages` were newly inserted (the tail); previously
  /// present pages are NOT adopted (caller keeps or frees its duplicates).
  int64_t Insert(std::span<const int32_t> tokens, std::span<const int64_t> pages);

  /// Evicts up to `max_pages` LRU leaf pages; returns the freed pages
  /// (caller releases them from the PagedKVCache).
  std::vector<int64_t> EvictLru(int64_t max_pages);

  int64_t TotalCachedPages() const noexcept { return total_pages_; }

 private:
  using Chunk = std::span<const int32_t>;
  struct ChunkLess {
    bool operator()(Chunk a, Chunk b) const {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
    }
  };
  struct Node;
  // Each key views the first page of the run of the node its own entry
  // owns. A run only shrinks in place or hands its buffer to the upper half
  // of a split, so the viewed tokens never move.
  using Children = std::map<Chunk, std::unique_ptr<Node>, ChunkLess>;
  struct Node {
    std::vector<int32_t> tokens;  // pages.size() * page_size tokens.
    std::vector<int64_t> pages;
    uint64_t last_access = 0;
    Node* parent = nullptr;
    Children children;
  };

  Chunk PageChunk(std::span<const int32_t> tokens, int64_t p) const {
    return tokens.subspan(static_cast<size_t>(p * page_size_), static_cast<size_t>(page_size_));
  }
  /// Stamps the longest cached prefix of `tokens` with a fresh clock,
  /// splitting the run it ends inside. Returns the deepest touched node
  /// (the root when nothing matched) and sets `matched` to its page count;
  /// appends the matched page ids to `out` when it is not null.
  Node* TouchPrefix(std::span<const int32_t> tokens, int64_t& matched, std::vector<int64_t>* out);
  /// Moves the first `m` pages of the run `it` owns into a new node between
  /// it and its parent; returns the new node.
  Node* SplitAbove(Children::iterator it, int64_t m);
  bool Evictable(const Node* n) const { return n != &root_ && n->children.empty(); }
  // lru_ holds exactly the evictable nodes, keyed by stamp. Call Unlist
  // before a change to a node's children or stamp, and List after.
  void Unlist(Node* n);
  void List(Node* n);
  void Touch(Node* n);

  int page_size_;
  uint64_t clock_ = 0;
  int64_t total_pages_ = 0;
  Node root_;
  std::map<uint64_t, Node*> lru_;
};

}  // namespace flashinfer
