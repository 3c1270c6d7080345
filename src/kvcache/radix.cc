#include "kvcache/radix.h"

#include "util/check.h"

namespace flashinfer {

RadixTree::RadixTree(int page_size) : page_size_(page_size) {
  FI_CHECK_GE(page_size, 1);
}

void RadixTree::Unlist(Node* n) {
  if (Evictable(n)) lru_.erase(n->last_access);
}

void RadixTree::List(Node* n) {
  // A stamp shared by two leaves would make the victim order ambiguous.
  if (Evictable(n)) FI_CHECK(lru_.emplace(n->last_access, n).second);
}

void RadixTree::Touch(Node* n) {
  Unlist(n);
  n->last_access = clock_;
  List(n);
}

RadixTree::MatchResult RadixTree::MatchPrefix(std::span<const int32_t> tokens) {
  MatchResult result;
  Node* node = &root_;
  const int64_t full_pages = static_cast<int64_t>(tokens.size()) / page_size_;
  ++clock_;
  for (int64_t p = 0; p < full_pages; ++p) {
    const auto it = node->children.find(PageChunk(tokens, p));
    if (it == node->children.end()) break;
    node = it->second.get();
    Touch(node);
    result.pages.push_back(node->page);
    result.matched_tokens += page_size_;
    result.node_path.push_back(node);
  }
  return result;
}

int64_t RadixTree::PeekPrefixTokens(std::span<const int32_t> tokens) const {
  const Node* node = &root_;
  const int64_t full_pages = static_cast<int64_t>(tokens.size()) / page_size_;
  int64_t matched = 0;
  for (int64_t p = 0; p < full_pages; ++p) {
    const auto it = node->children.find(PageChunk(tokens, p));
    if (it == node->children.end()) break;
    node = it->second.get();
    matched += page_size_;
  }
  return matched;
}

int64_t RadixTree::Insert(std::span<const int32_t> tokens, std::span<const int64_t> pages) {
  const int64_t full_pages = static_cast<int64_t>(tokens.size()) / page_size_;
  FI_CHECK_LE(full_pages, static_cast<int64_t>(pages.size()));
  Node* node = &root_;
  ++clock_;
  int64_t p = 0;
  for (; p < full_pages; ++p) {
    const auto it = node->children.find(PageChunk(tokens, p));
    if (it == node->children.end()) break;
    node = it->second.get();
    Touch(node);
  }
  const int64_t inserted = full_pages - p;
  if (inserted == 0) return 0;
  Unlist(node);  // Gains a child below, so it is no longer a leaf.
  for (; p < full_pages; ++p) {
    const Chunk chunk = PageChunk(tokens, p);
    auto child = std::make_unique<Node>();
    child->chunk.assign(chunk.begin(), chunk.end());
    child->page = pages[static_cast<size_t>(p)];
    child->parent = node;
    child->last_access = clock_;
    Node* next = child.get();
    node->children.emplace(Chunk(next->chunk), std::move(child));
    node = next;
  }
  List(node);  // Only the deepest new node is a leaf.
  total_pages_ += inserted;
  return inserted;
}

void RadixTree::Lock(const std::vector<void*>& path) {
  for (void* p : path) {
    auto* node = static_cast<Node*>(p);
    Unlist(node);
    ++node->lock_count;
  }
}

void RadixTree::Unlock(const std::vector<void*>& path) {
  for (void* p : path) {
    auto* node = static_cast<Node*>(p);
    FI_CHECK_GT(node->lock_count, 0);
    --node->lock_count;
    List(node);
  }
}

std::vector<int64_t> RadixTree::EvictLru(int64_t max_pages) {
  std::vector<int64_t> freed;
  while (static_cast<int64_t>(freed.size()) < max_pages && !lru_.empty()) {
    Node* victim = lru_.begin()->second;
    lru_.erase(lru_.begin());
    freed.push_back(victim->page);
    --total_pages_;
    Node* parent = victim->parent;
    // Find first: the key views the chunk that the erase destroys.
    parent->children.erase(parent->children.find(Chunk(victim->chunk)));
    List(parent);  // May have just become an evictable leaf.
  }
  return freed;
}

}  // namespace flashinfer
