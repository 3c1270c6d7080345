#include "kvcache/radix.h"

#include "util/check.h"

namespace flashinfer {
namespace {

/// Whole pages at the front of `run` that equal the prompt's from page `p`
/// on, the first of which is known to match: at least 1, at most the
/// prompt's full pages from `p`.
int64_t EqualPages(std::span<const int32_t> run, std::span<const int32_t> tokens, int64_t p,
                   int page) {
  const auto prompt = tokens.subspan(static_cast<size_t>(p * page));
  const size_t len = std::min(run.size(), prompt.size() / page * page);
  const auto equal = std::mismatch(run.begin() + page, run.begin() + len, prompt.begin() + page);
  return (equal.first - run.begin()) / page;
}

}  // namespace

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

RadixTree::Node* RadixTree::TouchPrefix(std::span<const int32_t> tokens, int64_t& matched,
                                        std::vector<int64_t>* out) {
  const int64_t full_pages = static_cast<int64_t>(tokens.size()) / page_size_;
  ++clock_;
  Node* node = &root_;
  matched = 0;
  while (matched < full_pages) {
    const auto it = node->children.find(PageChunk(tokens, matched));
    if (it == node->children.end()) break;
    const int64_t m = EqualPages(it->second->tokens, tokens, matched, page_size_);
    const bool inside = m < static_cast<int64_t>(it->second->pages.size());
    node = inside ? SplitAbove(it, m) : it->second.get();
    Touch(node);
    if (out != nullptr) out->insert(out->end(), node->pages.begin(), node->pages.end());
    matched += m;
    if (inside) break;
  }
  return node;
}

RadixTree::Node* RadixTree::SplitAbove(Children::iterator it, int64_t m) {
  Node* lower = it->second.get();
  auto upper = std::make_unique<Node>();
  const auto cut = static_cast<std::ptrdiff_t>(m * page_size_);
  // The upper node takes the run's buffers, so the parent's key keeps
  // viewing live tokens; the lower node copies what is left.
  upper->tokens = std::move(lower->tokens);
  lower->tokens.assign(upper->tokens.begin() + cut, upper->tokens.end());
  upper->tokens.resize(static_cast<size_t>(cut));
  upper->pages = std::move(lower->pages);
  lower->pages.assign(upper->pages.begin() + m, upper->pages.end());
  upper->pages.resize(static_cast<size_t>(m));
  upper->last_access = lower->last_access;
  upper->parent = lower->parent;
  lower->parent = upper.get();
  Node* node = upper.get();
  std::swap(it->second, upper);  // The parent's entry now owns the new node.
  node->children.emplace(Chunk(lower->tokens.data(), static_cast<size_t>(page_size_)),
                         std::move(upper));
  return node;
}

RadixTree::MatchResult RadixTree::MatchPrefix(std::span<const int32_t> tokens) {
  MatchResult result;
  int64_t matched = 0;
  TouchPrefix(tokens, matched, &result.pages);
  result.matched_tokens = matched * page_size_;
  return result;
}

int64_t RadixTree::PeekPrefixTokens(std::span<const int32_t> tokens) const {
  const Node* node = &root_;
  const int64_t full_pages = static_cast<int64_t>(tokens.size()) / page_size_;
  int64_t pages = 0;
  while (pages < full_pages) {
    const auto it = node->children.find(PageChunk(tokens, pages));
    if (it == node->children.end()) break;
    node = it->second.get();
    const int64_t m = EqualPages(node->tokens, tokens, pages, page_size_);
    pages += m;
    if (m < static_cast<int64_t>(node->pages.size())) break;
  }
  return pages * page_size_;
}

int64_t RadixTree::Insert(std::span<const int32_t> tokens, std::span<const int64_t> pages) {
  const int64_t full_pages = static_cast<int64_t>(tokens.size()) / page_size_;
  FI_CHECK_LE(full_pages, static_cast<int64_t>(pages.size()));
  int64_t p = 0;  // Pages already cached.
  Node* node = TouchPrefix(tokens, p, nullptr);
  const int64_t inserted = full_pages - p;
  if (inserted == 0) return 0;
  Unlist(node);  // Gains a child below, so it is no longer a leaf.
  auto tail = std::make_unique<Node>();
  tail->tokens.assign(tokens.begin() + p * page_size_, tokens.begin() + full_pages * page_size_);
  tail->pages.assign(pages.begin() + p, pages.begin() + full_pages);
  tail->parent = node;
  tail->last_access = clock_;
  Node* leaf = tail.get();
  node->children.emplace(Chunk(leaf->tokens.data(), static_cast<size_t>(page_size_)),
                         std::move(tail));
  List(leaf);
  total_pages_ += inserted;
  return inserted;
}

std::vector<int64_t> RadixTree::EvictLru(int64_t max_pages) {
  std::vector<int64_t> freed;
  while (static_cast<int64_t>(freed.size()) < max_pages && !lru_.empty()) {
    Node* victim = lru_.begin()->second;
    // Tail-first: each page after the first is again the least leaf.
    const int64_t run = static_cast<int64_t>(victim->pages.size());
    const int64_t take = std::min(run, max_pages - static_cast<int64_t>(freed.size()));
    freed.insert(freed.end(), victim->pages.rbegin(), victim->pages.rbegin() + take);
    total_pages_ -= take;
    if (take < run) {  // max_pages reached: the leaf keeps its upper pages.
      victim->pages.resize(static_cast<size_t>(run - take));
      victim->tokens.resize(static_cast<size_t>((run - take) * page_size_));
      break;
    }
    lru_.erase(lru_.begin());
    Node* parent = victim->parent;
    // Find first: the key views the run that the erase destroys.
    parent->children.erase(parent->children.find(PageChunk(victim->tokens, 0)));
    List(parent);  // May have just become an evictable leaf.
  }
  return freed;
}

}  // namespace flashinfer
