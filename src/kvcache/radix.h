// Radix-tree prefix cache (RadixAttention, Zheng et al. 2023 / SGLang).
//
// Maps token-id prefixes to cached KV pages so that requests sharing a
// prefix reuse pages instead of recomputing them, and so the serving engine
// can discover shared-prefix groups for composable formats (Sec. 3.1.2).
// Sharing granularity is one page: the tree stores one node per full page of
// tokens. Nodes are reference-counted by in-flight requests.
//
// Eviction is LRU over evictable leaves: non-root nodes with no children and
// no lock. Every operation that changes the tree or its stamps keeps an index
// of exactly those leaves, keyed by access stamp, so EvictLru pops the
// minimum in O(log n) instead of walking the tree per page; when a victim's
// parent becomes an evictable leaf it joins the index.
//
// Keying by stamp alone is exact. MatchPrefix and Insert give every node
// they touch one fresh stamp, and all those nodes lie on one root path. Two
// leaves are never ancestor and descendant, so no two leaves ever share a
// stamp: the victim order is the strict stamp order, the same order the
// earlier full-tree scan produced (its position tie-break could never fire).
// The index checks this on every insertion.
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
    /// Opaque handle for Lock/Unlock; empty when nothing matched.
    std::vector<void*> node_path;
  };

  /// Finds the longest cached prefix of `tokens` (page-aligned) and bumps
  /// the LRU stamp of every node on the path.
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

  /// Pins every node on `path` (from MatchPrefix/Insert) against eviction.
  void Lock(const std::vector<void*>& path);
  void Unlock(const std::vector<void*>& path);

  /// Evicts up to `max_pages` unlocked LRU leaves; returns the freed pages
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
  struct Node {
    std::vector<int32_t> chunk;  // Exactly page_size tokens.
    int64_t page = -1;
    int lock_count = 0;
    uint64_t last_access = 0;
    Node* parent = nullptr;
    // Each key views the chunk of the node its own entry owns, so lookups
    // by a span of the prompt allocate nothing.
    std::map<Chunk, std::unique_ptr<Node>, ChunkLess> children;
  };

  Chunk PageChunk(std::span<const int32_t> tokens, int64_t p) const {
    return tokens.subspan(static_cast<size_t>(p * page_size_), static_cast<size_t>(page_size_));
  }
  bool Evictable(const Node* n) const {
    return n != &root_ && n->children.empty() && n->lock_count == 0;
  }
  // lru_ holds exactly the evictable nodes, keyed by stamp. Call Unlist
  // before a change to a node's children, lock or stamp, and List after.
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
