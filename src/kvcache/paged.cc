#include "kvcache/paged.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

namespace flashinfer {

PagedKVCache::PagedKVCache(DType dtype, int num_kv_heads, int head_dim, int page_size,
                           int64_t max_pages)
    : dtype_(dtype),
      num_kv_heads_(num_kv_heads),
      head_dim_(head_dim),
      page_size_(page_size),
      max_pages_(max_pages) {
  FI_CHECK_GE(num_kv_heads, 1);
  FI_CHECK_GE(head_dim, 1);
  FI_CHECK_GE(page_size, 1);
  FI_CHECK_GE(max_pages, 1);
  elems_per_page_ = 2LL * num_kv_heads_ * page_size_ * head_dim_;
  data_.resize(static_cast<size_t>(elems_per_page_ * max_pages_ * DTypeBytes(dtype_)));
  ref_.assign(static_cast<size_t>(max_pages_), 0);
  free_list_.reserve(static_cast<size_t>(max_pages_));
  for (int64_t p = max_pages_ - 1; p >= 0; --p) free_list_.push_back(p);
}

int64_t PagedKVCache::AllocPage() {
  FI_CHECK(!free_list_.empty());
  const int64_t page = free_list_.back();
  free_list_.pop_back();
  ref_[static_cast<size_t>(page)] = 1;
  return page;
}

void PagedKVCache::RetainPage(int64_t page) {
  FI_CHECK_GT(ref_[static_cast<size_t>(page)], 0);
  ++ref_[static_cast<size_t>(page)];
}

void PagedKVCache::ReleasePage(int64_t page) {
  auto& r = ref_[static_cast<size_t>(page)];
  FI_CHECK_GT(r, 0);
  if (--r == 0) free_list_.push_back(page);
}

int PagedKVCache::RefCount(int64_t page) const {
  return ref_[static_cast<size_t>(page)];
}

int PagedKVCache::CreateSequence() {
  // Reuse a dead slot if any.
  for (size_t i = 0; i < seqs_.size(); ++i) {
    if (!seqs_[i].live) {
      seqs_[i] = Sequence{{}, 0, true};
      return static_cast<int>(i);
    }
  }
  seqs_.push_back(Sequence{{}, 0, true});
  return static_cast<int>(seqs_.size() - 1);
}

void PagedKVCache::AppendTokens(int seq, const float* k, const float* v, int64_t count) {
  auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  for (int64_t t = 0; t < count; ++t) {
    const int slot = static_cast<int>(s.length % page_size_);
    if (slot == 0) {
      s.pages.push_back(AllocPage());
    } else {
      // Appending into a partially-filled page requires exclusive ownership:
      // writing a shared page would corrupt every other holder's KV. Shared
      // tails come from AdoptPrefix misuse or truncating a fork below its
      // copy-on-write point — both API-contract violations; fail loudly.
      FI_CHECK_EQ(ref_[static_cast<size_t>(s.pages.back())], 1);
    }
    const int64_t page = s.pages.back();
    SetToken(page, slot, k + t * num_kv_heads_ * head_dim_, v + t * num_kv_heads_ * head_dim_);
    ++s.length;
  }
}

void PagedKVCache::AdoptPrefix(int seq, const std::vector<int64_t>& pages, int64_t token_count) {
  auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  FI_CHECK_EQ(s.length, 0);
  FI_CHECK_LE(token_count, static_cast<int64_t>(pages.size()) * page_size_);
  // Shared prefixes must end on a page boundary: a partially-filled shared
  // page cannot be appended to by two sequences.
  FI_CHECK_EQ(token_count % page_size_, 0);
  for (int64_t p : pages) RetainPage(p);
  s.pages = pages;
  s.length = token_count;
}

void PagedKVCache::ExtendSequence(int seq, int64_t count) {
  auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  FI_CHECK_GE(count, 0);
  if (count > 0 && s.length % page_size_ != 0) {
    // Same exclusivity contract as AppendTokens: growing into a shared
    // partial page would collide with the other holder's slots.
    FI_CHECK_EQ(ref_[static_cast<size_t>(s.pages.back())], 1);
  }
  // The pages AppendTokens would open, one per new token that starts a page.
  const auto pages_to = [this](int64_t len) { return (len + page_size_ - 1) / page_size_; };
  for (int64_t p = pages_to(s.length); p < pages_to(s.length + count); ++p) {
    s.pages.push_back(AllocPage());
  }
  s.length += count;
}

int PagedKVCache::ForkSequence(int seq) {
  // Read the parent's state up front: CreateSequence() may grow seqs_ and
  // invalidate references into it.
  const std::vector<int64_t> parent_pages = seqs_.at(static_cast<size_t>(seq)).pages;
  const int64_t parent_len = seqs_.at(static_cast<size_t>(seq)).length;
  FI_CHECK(seqs_.at(static_cast<size_t>(seq)).live);

  const int64_t full_pages = parent_len / page_size_;
  const int tail_len = static_cast<int>(parent_len % page_size_);
  const int fork = CreateSequence();
  auto& f = seqs_.at(static_cast<size_t>(fork));
  f.pages.reserve(parent_pages.size());
  for (int64_t p = 0; p < full_pages; ++p) {
    RetainPage(parent_pages[static_cast<size_t>(p)]);
    f.pages.push_back(parent_pages[static_cast<size_t>(p)]);
  }
  if (tail_len > 0) {
    // Copy-on-write: both sides append into their own tail page.
    const int64_t src = parent_pages[static_cast<size_t>(full_pages)];
    const int64_t dst = AllocPage();
    const int64_t bytes_per_elem = DTypeBytes(dtype_);
    std::copy_n(data_.begin() + src * elems_per_page_ * bytes_per_elem,
                elems_per_page_ * bytes_per_elem,
                data_.begin() + dst * elems_per_page_ * bytes_per_elem);
    f.pages.push_back(dst);
  }
  f.length = parent_len;
  return fork;
}

void PagedKVCache::TruncateSequence(int seq, int64_t new_len) {
  auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  FI_CHECK_GE(new_len, 0);
  FI_CHECK_LE(new_len, s.length);
  const int64_t keep_pages = (new_len + page_size_ - 1) / page_size_;
  while (static_cast<int64_t>(s.pages.size()) > keep_pages) {
    ReleasePage(s.pages.back());
    s.pages.pop_back();
  }
  s.length = new_len;
}

void PagedKVCache::DropSequence(int seq) {
  auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  for (int64_t p : s.pages) ReleasePage(p);
  s = Sequence{};
}

int64_t PagedKVCache::SequenceLength(int seq) const {
  return seqs_.at(static_cast<size_t>(seq)).length;
}

const std::vector<int64_t>& PagedKVCache::SequencePages(int seq) const {
  return seqs_.at(static_cast<size_t>(seq)).pages;
}

int PagedKVCache::LastPageLen(int seq) const {
  const auto& s = seqs_.at(static_cast<size_t>(seq));
  if (s.length == 0) return 0;
  const int rem = static_cast<int>(s.length % page_size_);
  return rem == 0 ? page_size_ : rem;
}

sparse::RequestKv PagedKVCache::ExportKv(int seq, int64_t pos_offset) const {
  const auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  sparse::RequestKv kv;
  kv.pages = s.pages;
  kv.last_page_len = LastPageLen(seq);
  kv.pos_offset = pos_offset;
  return kv;
}

float PagedKVCache::KAt(int64_t page, int head, int slot, int d) const noexcept {
  return LoadElem(dtype_, data_.data(), static_cast<size_t>(KOffset(page, head, slot) + d));
}

float PagedKVCache::VAt(int64_t page, int head, int slot, int d) const noexcept {
  return LoadElem(dtype_, data_.data(), static_cast<size_t>(VOffset(page, head, slot) + d));
}

void PagedKVCache::SetToken(int64_t page, int slot, const float* k, const float* v) {
  FI_CHECK_GE(page, 0);
  FI_CHECK_LT(page, max_pages_);
  FI_CHECK_GE(slot, 0);
  FI_CHECK_LT(slot, page_size_);
  for (int h = 0; h < num_kv_heads_; ++h) {
    const int64_t koff = KOffset(page, h, slot);
    const int64_t voff = VOffset(page, h, slot);
    for (int d = 0; d < head_dim_; ++d) {
      StoreElem(dtype_, data_.data(), static_cast<size_t>(koff + d), k[h * head_dim_ + d]);
      StoreElem(dtype_, data_.data(), static_cast<size_t>(voff + d), v[h * head_dim_ + d]);
    }
  }
}

void SyntheticKv(Rng& rng, int64_t tokens, int heads, int dim, float* k, float* v) {
  for (int64_t t = 0; t < tokens; ++t) {
    for (int h = 0; h < heads; ++h) {
      for (int d = 0; d < dim; ++d) {
        const int64_t i = (t * heads + h) * dim + d;
        const float base = std::sin(0.02f * static_cast<float>(d) +
                                    0.7f * static_cast<float>(h)) *
                           2.0f;
        const float noise = static_cast<float>(rng.Uniform(-0.05, 0.05));
        k[i] = base + noise;
        v[i] = 0.5f * base + noise;
      }
    }
  }
}

namespace {

template <typename T>
T SumOverPages(const std::vector<T>& levels, int64_t tokens) {
  const int64_t page = static_cast<int64_t>(levels.size());
  const int64_t tail = tokens % page;
  return static_cast<T>(tokens / page) * levels.back() +
         (tail > 0 ? levels[static_cast<size_t>(tail - 1)] : T{});
}

PageCodecTable BuildPageCodecTable(DType dtype, int heads, int dim, int page_size,
                                   const KvCodecConfig& codec) {
  PageCodecTable t;
  const int64_t elems = 2LL * heads * page_size * dim;
  if (!codec.enabled()) {
    t.bound_bytes = elems * DTypeBytes(dtype);
    t.logical_bytes.assign(static_cast<size_t>(page_size), t.bound_bytes);
    t.stored_bytes = t.logical_bytes;
    t.mse.assign(static_cast<size_t>(page_size), 0.0);
    return t;
  }
  t.bound_bytes =
      static_cast<int64_t>(util::EncodedPageBound(static_cast<size_t>(elems), dtype, codec));
  Rng rng(kSyntheticKvSeed);
  std::vector<float> k(static_cast<size_t>(page_size) * heads * dim), v(k.size());
  SyntheticKv(rng, page_size, heads, dim, k.data(), v.data());
  // Level `fill` encodes the page of a cache of `fill`-token pages holding
  // those tokens: EncodePage runs on exactly the bytes the cache lays out.
  for (int fill = 1; fill <= page_size; ++fill) {
    PagedKVCache one(dtype, heads, dim, fill, 1);
    const int seq = one.CreateSequence();
    one.AppendTokens(seq, k.data(), v.data(), fill);
    util::PageCodecStats st;
    util::EncodePage(one.PageData(one.SequencePages(seq)[0]),
                     static_cast<size_t>(one.PageElems()), dtype, codec, &st);
    t.logical_bytes.push_back(st.logical_bytes);
    t.stored_bytes.push_back(st.stored_bytes);
    t.mse.push_back(st.mse);
  }
  return t;
}

}  // namespace

int64_t PageCodecTable::LogicalBytes(int64_t tokens) const noexcept {
  return SumOverPages(logical_bytes, tokens);
}

int64_t PageCodecTable::StoredBytes(int64_t tokens) const noexcept {
  return SumOverPages(stored_bytes, tokens);
}

double PageCodecTable::MseSum(int64_t tokens) const noexcept {
  return SumOverPages(mse, tokens);
}

const PageCodecTable& PageCodecTableFor(DType dtype, int num_kv_heads, int head_dim,
                                        int page_size, const KvCodecConfig& codec) {
  using Key = std::tuple<DType, int, int, int, KvQuantFormat, bool>;
  static std::mutex mu;
  static std::map<Key, std::unique_ptr<const PageCodecTable>> tables;
  const Key key{dtype, num_kv_heads, head_dim, page_size, codec.quant, codec.compress};
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = tables[key];
  if (!slot) {
    slot = std::make_unique<const PageCodecTable>(
        BuildPageCodecTable(dtype, num_kv_heads, head_dim, page_size, codec));
  }
  return *slot;
}

}  // namespace flashinfer
