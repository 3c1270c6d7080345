#include "serving/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "spec/verify.h"
#include "util/check.h"

namespace flashinfer::serving {

namespace {

/// Prompt tokens the replica's prefix cache already holds, clamped so every
/// request prefill computes at least one token (it must emit a first token).
int64_t CachedTokens(const Request& r) {
  const int64_t max_cached = std::max<int64_t>(r.input_len - 1, 0);
  return std::min(std::max<int64_t>(r.cached_prefix_len, 0), max_cached);
}

/// The trace counter of each occupancy value PublishStepEnd samples, in the
/// order it computes them. Each also goes to the registry gauge "fi_" + the
/// counter's display name.
constexpr obs::TraceName kOccupancy[] = {
    obs::TraceName::kCtrKvDevice,        obs::TraceName::kCtrKvHost,
    obs::TraceName::kCtrHostStoredBytes, obs::TraceName::kCtrQueueDepth,
    obs::TraceName::kCtrRunning,         obs::TraceName::kCtrPreempted,
};
constexpr size_t kDeviceKvSeries = 0;  // fi_kv_device_tokens.

/// Share of the HBM left after the weights that holds KV; the rest is
/// activation slack.
constexpr double kKvShareOfFreeHbm = 0.9;
/// NVLink all-reduce bandwidth per GPU, GB/s (tensor parallel).
constexpr double kNvlinkGbps = 450.0;
/// Device<->host swap bandwidth, GB/s (PCIe-class link).
constexpr double kSwapGbps = 24.0;
/// Fixed per-transfer swap latency, microseconds (DMA setup, pinning).
constexpr double kSwapLatencyUs = 100.0;
/// Per-page swap overhead, microseconds: paged KV is scattered, so a
/// transfer is block-granular gather/scatter copies (vLLM's swap_blocks),
/// not one contiguous DMA. This is what makes short contexts cheaper to
/// recompute than to swap.
constexpr double kSwapPageOverheadUs = 20.0;
/// Host-codec throughput pricing encode (evict) / decode (restore) time, GB/s
/// over the page's *logical* bytes. Decode is cheaper than encode (no
/// min/max scan, no match search).
constexpr double kCodecEncodeGbps = 32.0;
constexpr double kCodecDecodeGbps = 48.0;

}  // namespace

double HbmGbForKvBudget(const EngineConfig& cfg, int64_t kv_tokens) {
  const double kv_bytes = static_cast<double>(kv_tokens) *
                          cfg.model.KvBytesPerToken(cfg.backend.kv_dtype) / kKvShareOfFreeHbm;
  return (cfg.model.WeightBytesPerGpu() + kv_bytes) / 1e9;
}

ClassSeries ClassSeries::Register(obs::MetricsRegistry& reg, int tenant, int priority) {
  return {reg.GetClass<obs::Counter>("fi_tokens_total", tenant, priority),
          reg.GetClass<obs::Sketch>("fi_ttft_ms", tenant, priority),
          reg.GetClass<obs::Sketch>("fi_itl_ms", tenant, priority)};
}

ServingEngine::ServingEngine(EngineConfig cfg)
    : cfg_(std::move(cfg)), rng_(kAcceptSeed) {
  FI_CHECK_GE(cfg_.prefill_chunk_tokens, 1);
  FI_CHECK_GE(cfg_.max_running, 1);
  const double hbm_bytes = cfg_.hbm_capacity_gb * 1e9;
  const double weights = cfg_.model.WeightBytesPerGpu();
  const double kv_budget_bytes = (hbm_bytes - weights) * kKvShareOfFreeHbm;
  FI_CHECK_GT(kv_budget_bytes, 0.0);
  kv_token_budget_ = static_cast<int64_t>(
      kv_budget_bytes / cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype));
  if (cfg_.preemption.enabled) {
    host_kv_token_budget_ = static_cast<int64_t>(
        cfg_.preemption.host_capacity_gb * 1e9 /
        cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype));
    const AttnSimInput g = HeadGeometry();
    host_table_ = &PageCodecTableFor(cfg_.backend.kv_dtype, g.num_kv_heads, g.head_dim,
                                     cfg_.page_size, cfg_.preemption.host_codec);
    // The token budget in pages, plus two pages of rounding per running
    // branch and 64 spare. Codec off, the capacity gate counts free pages
    // of this pool.
    const int64_t host_pages = host_kv_token_budget_ / cfg_.page_size +
                               static_cast<int64_t>(cfg_.max_running) * 2 + 64;
    host_byte_capacity_ = host_pages * host_table_->page_bytes();
  }
  if (cfg_.spec.enabled) {
    tree_ = std::make_unique<spec::DraftTree>(cfg_.spec.tree);
    // Reserve one tree of transient verify KV per branch on top of the
    // decode slack, so a verify step can never blow the budget mid-flight.
    slack_tokens_ = kDecodeSlackTokens + tree_->Size();
    verify_mask_ = spec::LowerVerifyMask(*tree_, cfg_.backend, HeadGeometry());
  }
  step_in_ = HeadGeometry();
  Reset();
}

double ServingEngine::CommStepUs(int64_t tokens) const {
  const int tp = cfg_.model.tensor_parallel;
  if (tp <= 1) return 0.0;
  // Two ring all-reduces per layer over the hidden activations.
  const double bytes_per_layer =
      2.0 * static_cast<double>(tokens) * cfg_.model.d_model * 2.0;
  const double ring = 2.0 * (tp - 1) / tp;
  return cfg_.model.num_layers * bytes_per_layer * ring / (kNvlinkGbps * 1e3) +
         cfg_.model.num_layers * 4.0;  // Per-layer collective launch latency.
}

AttnSimInput ServingEngine::HeadGeometry() const {
  AttnSimInput in;
  in.num_qo_heads = cfg_.model.num_qo_heads / cfg_.model.tensor_parallel;
  in.num_kv_heads =
      std::max(1, cfg_.model.num_kv_heads / cfg_.model.tensor_parallel);
  in.head_dim = cfg_.model.head_dim;
  in.page_size = cfg_.page_size;
  return in;
}

double ServingEngine::UnfusedRopeUs(int64_t tokens) const {
  if (cfg_.backend.fused_rope) return 0.0;
  // Over this step's Q and K rows, at the engine's head geometry.
  const AttnSimInput& g = step_in_;
  const double bytes = 2.0 *  // Read + write.
                       static_cast<double>(tokens) *
                       (g.num_qo_heads + g.num_kv_heads) * g.head_dim * 2.0;
  return cfg_.model.num_layers * ElementwiseKernelUs(cfg_.device, bytes);
}

double ServingEngine::AttnLaunchUs(const AttnSimInput& in) const {
  // Plan reuse across layers: one scheduler pass, num_layers launches.
  int64_t tokens = 0;
  for (int64_t q : in.qo_lens) tokens += q;
  return BatchAttentionTimeUs(cfg_.device, cfg_.backend, in) * cfg_.model.num_layers +
         UnfusedRopeUs(tokens);
}

double ServingEngine::SpecVerifyAttnUs() {
  std::vector<int64_t>& context_lens = verify_ctx_lens_;
  context_lens.clear();
  for (const auto& b : running_) context_lens.push_back(b.kv_len);
  // Plan reuse across layers, exactly like AttnLaunchUs.
  return VerifyAttentionTimeUs(cfg_.device, cfg_.backend, HeadGeometry(), verify_mask_,
                               context_lens) *
             cfg_.model.num_layers +
         UnfusedRopeUs(static_cast<int64_t>(running_.size()) * tree_->Size());
}

void ServingEngine::TraceSpan(obs::TraceName n, double begin_s, double end_s,
                              int32_t req, int64_t a, int64_t b,
                              int64_t c) noexcept {
  if (!trace_) return;
  obs::TraceEvent e;
  e.ts_us = begin_s * 1e6;
  e.dur_us = (end_s - begin_s) * 1e6;
  e.name = n;
  e.req = req;
  e.a = a;
  e.b = b;
  e.c = c;
  trace_->Record(e);
}

void ServingEngine::TraceInstant(obs::TraceName n, int32_t req, int64_t a,
                                 int64_t b, int64_t c) noexcept {
  if (!trace_) return;
  obs::TraceEvent e;
  e.ts_us = now_s_ * 1e6;
  e.name = n;
  e.req = req;
  e.a = a;
  e.b = b;
  e.c = c;
  trace_->Record(e);
}

void ServingEngine::TraceCounter(obs::TraceName n, double v) noexcept {
  if (!trace_) return;
  obs::TraceEvent e;
  e.ts_us = now_s_ * 1e6;
  e.name = n;
  e.v = v;
  trace_->Record(e);
}

int ServingEngine::SeriesFor(int tenant, int priority) {
  auto [it, inserted] = class_index_.try_emplace(obs::ClassId(tenant, priority),
                                                 static_cast<int>(class_series_.size()));
  if (inserted) class_series_.push_back(ClassSeries::Register(*telemetry_, tenant, priority));
  return it->second;
}

void ServingEngine::ObserveTtft(int tenant, int priority, double ms) {
  if (!telemetry_) return;
  const ClassSeries& s = class_series_[static_cast<size_t>(SeriesFor(tenant, priority))];
  const obs::WindowPos at = telemetry_->PosAt(now_s_);
  s.ttft->Observe(at, ms);
  s.tokens->Inc(at);  // The request's first token.
  if (slo_) slo_->Observe(obs::SloSignal::kTtft, tenant, priority, ms, now_s_);
}

void ServingEngine::FlushTelemetry() {
  if (!telemetry_) return;
  if (field_counters_.empty()) {
    for (const MetricField& f : kMetricFields) {
      if (f.family) field_counters_.emplace_back(&f, telemetry_->GetCounter(f.family));
    }
    for (size_t i = 0; i < kOccupancySeries; ++i) {
      gauges_[i] = telemetry_->GetGauge(std::string("fi_") + obs::TraceNameStr(kOccupancy[i]));
    }
  }
  const obs::WindowPos at = telemetry_->PosAt(now_s_);
  for (const auto& [field, counter] : field_counters_) {
    const double v = field->Value(metrics_);
    if (v != counter->total()) counter->SetTotal(at, v);
  }
}

void ServingEngine::PublishStepEnd(double tok_per_s) {
  if (!trace_ && !telemetry_) return;
  const double occupancy[] = {
      static_cast<double>(kv_tokens_in_use_),
      static_cast<double>(host_kv_tokens_in_use_),
      // Estimated bytes the host tier actually stores for the resident
      // logical tokens (logical KV bytes scaled by the cache's observed codec
      // ratio; exactly the logical bytes with the codec off).
      static_cast<double>(host_kv_tokens_in_use_) *
          cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype) * CodecRatioEstimate(),
      static_cast<double>(pending_.size()),
      static_cast<double>(running_.size()),
      static_cast<double>(preempted_.size())};
  static_assert(std::size(occupancy) == kOccupancySeries);
  static_assert(std::size(kOccupancy) == kOccupancySeries);
  const obs::WindowPos at = telemetry_ ? telemetry_->PosAt(now_s_) : obs::WindowPos{};
  for (size_t i = 0; i < kOccupancySeries; ++i) {
    TraceCounter(kOccupancy[i], occupancy[i]);
    if (telemetry_) gauges_[i]->Set(at, occupancy[i]);
  }
  TraceCounter(obs::TraceName::kCtrTokPerS, tok_per_s);
  if (slo_) slo_->Evaluate(now_s_);
}

void ServingEngine::Reset() {
  pending_.clear();
  prefilling_.clear();
  running_.clear();
  preempted_.clear();
  group_refs_.clear();
  ResetMetrics();
  now_s_ = 0.0;
  kv_tokens_in_use_ = 0;
  host_kv_tokens_in_use_ = 0;
  host_stored_bytes_ = 0;
  copy_d2h_.Reset();
  copy_h2d_.Reset();
  copy_migrate_.Reset();
  exportable_.clear();
  next_group_ = 0;
  rng_ = Rng(kAcceptSeed);
  if (cfg_.trace.enabled) {
    if (trace_ && trace_->capacity() == cfg_.trace.capacity) {
      trace_->Clear();
    } else {
      trace_ = std::make_unique<obs::TraceRecorder>(cfg_.trace.capacity);
    }
  } else {
    trace_.reset();
  }
  class_series_.clear();
  class_index_.clear();
  field_counters_.clear();
  gauges_ = {};
  if (cfg_.telemetry.enabled) {
    telemetry_ = std::make_unique<obs::MetricsRegistry>(cfg_.telemetry.window);
    slo_ = cfg_.telemetry.slos.empty()
               ? nullptr
               : std::make_unique<obs::SloMonitor>(cfg_.telemetry.slos, trace_.get());
  } else {
    telemetry_.reset();
    slo_.reset();
  }
  if (cfg_.spec.enabled || cfg_.preemption.enabled) {
    // Structural cache: 1 head x 1 dim (page accounting, not values). Sized
    // for the token budget plus page-rounding and transient-fork headroom.
    const int64_t branching = cfg_.spec.enabled ? cfg_.spec.tree.branching : 0;
    const int64_t pages = kv_token_budget_ / cfg_.page_size +
                          static_cast<int64_t>(cfg_.max_running) * (2 + branching) + 64;
    structural_kv_ = std::make_unique<PagedKVCache>(DType::kF16, /*num_kv_heads=*/1,
                                                    /*head_dim=*/1, cfg_.page_size, pages);
  }
}

void ServingEngine::ResetMetrics() {
  metrics_ = ServingMetrics{};
  metrics_.bounded_itl = cfg_.telemetry.enabled && cfg_.telemetry.bounded_itl;
  if (cfg_.spec.enabled) {
    metrics_.accepted_len_hist.assign(static_cast<size_t>(tree_->Depth()) + 1, 0);
  }
}

void ServingEngine::Admit(Request r) {
  FI_CHECK_GE(r.parallel_n, 1);
  // Keep the queue sorted by (arrival, id) so the admission loop below never
  // stalls behind a later arrival. The id tie-break makes simultaneous
  // arrivals (bursts) order-independent of the Admit() call order: an
  // unsorted admission sequence yields the exact same schedule as a sorted
  // one.
  auto it = std::upper_bound(
      pending_.begin(), pending_.end(), r, [](const Request& a, const Request& b) {
        return a.arrival_s != b.arrival_s ? a.arrival_s < b.arrival_s : a.id < b.id;
      });
  pending_.insert(it, std::move(r));
}

double ServingEngine::SwapGateEnd() const noexcept {
  return cfg_.preemption.overlap_swap
             ? 0.0
             : std::max(copy_d2h_.busy_until_s(), copy_h2d_.busy_until_s());
}

double ServingEngine::NextEventTime() const noexcept {
  const double gate_s = SwapGateEnd();
  if (gate_s > now_s_) return gate_s;
  if (!running_.empty()) return now_s_;
  // Prefilling entries are runnable now — except transfers whose KV is
  // still on a link (ready_s in the future).
  double ready_min = std::numeric_limits<double>::infinity();
  for (const auto& p : prefilling_) {
    if (p.ready_s <= now_s_) return now_s_;
    ready_min = std::min(ready_min, p.ready_s);
  }
  // Admission at `now` is an event exactly when the predicates that drive it
  // would restore, reject or admit: a missed wake lets StepTo sleep past
  // work Run() does at now, and a wake for a blocked head makes
  // StepTo(NextEventTime()) spin. Otherwise the only events are a transfer
  // completion (ready_min), a later arrival or, in disaggregated mode, the
  // cluster driver shipping an exportable unit (external: +inf here).
  if (CanRestoreHead() || PendingHeadAction() != HeadAction::kWait) return now_s_;
  // A blocked restore with no transfer in flight waits for parked units to
  // free its KV, which only the cluster driver can do.
  const bool driver_bound =
      prefilling_.empty() && !preempted_.empty() && !exportable_.empty();
  if (pending_.empty() || driver_bound || pending_.front().arrival_s <= now_s_) {
    return ready_min;  // +inf when fully drained.
  }
  return std::min(ready_min, pending_.front().arrival_s);
}

int64_t ServingEngine::StepTo(double deadline_s) {
  int64_t work_steps = 0;
  while (!Finished() && NextEventTime() <= deadline_s) {
    const StepKind kind = StepOnce(deadline_s);
    if (kind == StepKind::kNone) break;
    if (kind == StepKind::kWork) ++work_steps;
  }
  FlushTelemetry();
  return work_steps;
}

void ServingEngine::Drain() { StepTo(std::numeric_limits<double>::infinity()); }

int64_t ServingEngine::QueuedTokens() const noexcept {
  int64_t total = 0;
  for (const auto& r : pending_) total += r.input_len + r.output_len * r.parallel_n;
  // Partially prefilled requests still owe their un-prefilled remainder and
  // their whole output — a router must see that backlog, not just pending_.
  // (Restore entries count the same way: their synthetic req carries the
  // context left to rebuild and the branch's remaining output.)
  for (const auto& p : prefilling_) {
    total += (p.to_compute - p.computed) + p.req.output_len * p.req.parallel_n;
  }
  // Preempted branches owe their remaining output plus, for recompute
  // restores, the whole context rebuild.
  for (const auto& p : preempted_) {
    total += p.branch.remaining + (p.swapped ? 0 : p.branch.kv_len);
  }
  return total;
}

int64_t ServingEngine::RunningTokens() const noexcept {
  int64_t total = 0;
  for (const auto& b : running_) total += b.remaining;
  return total;
}

void ServingEngine::FinishBranch(const Branch& b) {
  TraceSpan(obs::TraceName::kReqDecode, b.seg_start_s, now_s_, b.request_id,
            b.kv_len);
  TraceInstant(obs::TraceName::kReqFinish, b.request_id);
  ReleaseKv(b);
  metrics_.branch_stalls.push_back(b.stall_steps);
}

void ServingEngine::ReleaseKv(const Branch& b) {
  // A grouped branch releases its unique suffix; the shared prefix goes with
  // the last sibling.
  kv_tokens_in_use_ -= BranchKvCharge(b, b.group >= 0);
  if (b.group >= 0) {
    auto& [refs, prefix] = group_refs_[b.group];
    if (--refs == 0) {
      kv_tokens_in_use_ -= prefix;
      group_refs_.erase(b.group);
    }
  }
  if (b.kv_seq >= 0) structural_kv_->DropSequence(b.kv_seq);
}

int64_t ServingEngine::KvNeed(const Request& r) const noexcept {
  // Spec decode and preemption reserve every branch's full output KV at
  // admission: verify steps commit several tokens at once with no per-token
  // budget gate, and the preemption invariant (device budget never violated)
  // cannot tolerate decode-time over-commit. Reserving up front trades
  // admission aggressiveness for a guarantee that the structural page pool
  // can never run out mid-run.
  const int64_t full_out =
      FullKvReserve() ? r.parallel_n * std::max<int64_t>(r.output_len, 1) : 0;
  return r.input_len + r.parallel_n * slack_tokens_ + full_out;
}

int64_t ServingEngine::BranchKvCharge(const MigratedBranch& b, bool grouped) const noexcept {
  // The slack was charged as parallel_n * slack_tokens_ at admission;
  // leaking it would shrink effective capacity forever.
  return b.kv_len - (grouped ? b.prefix_len : 0) + slack_tokens_ +
         (FullKvReserve() ? b.remaining : 0);
}

int64_t ServingEngine::UnitKvCharge(const MigrationUnit& u) const noexcept {
  // Shipping releases exactly what the branches hold; admission on the
  // destination re-acquires it.
  int64_t total = u.grouped ? u.prefix_tokens : 0;
  for (const auto& b : u.branches) total += BranchKvCharge(b, u.grouped);
  return total;
}

MigrationUnit ServingEngine::BuildUnitView(const Exportable& u) const {
  MigrationUnit m;
  // Siblings of one parallel-n group share the prompt as their prefix.
  m.grouped = u.branches.front().group >= 0;
  m.prefix_tokens = m.grouped ? u.branches.front().prefix_len : 0;
  m.export_s = u.export_s;
  m.kv_tokens = m.prefix_tokens;
  for (const Branch& b : u.branches) {
    m.kv_tokens += b.kv_len - b.prefix_len;
    m.branches.emplace_back(b);
  }
  if (structural_kv_) {
    // Real page lists via ExportKv: sibling branches share prefix pages, so
    // the union is what crosses the wire.
    std::vector<int64_t> pages;
    for (const Branch& b : u.branches) {
      const sparse::RequestKv kv = structural_kv_->ExportKv(b.kv_seq);
      pages.insert(pages.end(), kv.pages.begin(), kv.pages.end());
    }
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    m.pages = static_cast<int64_t>(pages.size());
  } else {
    m.pages = (m.kv_tokens + cfg_.page_size - 1) / cfg_.page_size;
  }
  m.kv_charge = UnitKvCharge(m);
  return m;
}

void ServingEngine::HandOffExportable(
    const std::function<bool(const MigrationUnit&)>& ship) {
  for (; !exportable_.empty(); exportable_.pop_front()) {
    const Exportable& u = exportable_.front();
    const MigrationUnit m = BuildUnitView(u);
    if (ship(m)) {
      for (const Branch& b : u.branches) ReleaseKv(b);
      ++metrics_.num_migrations_out;
      metrics_.migrated_kv_tokens += m.kv_tokens;
      TraceInstant(obs::TraceName::kReqMigrateOut, m.branches.front().request_id,
                   m.kv_tokens, m.pages, static_cast<int64_t>(m.branches.size()));
      FlushTelemetry();
      // Shipping frees KV outside any step; without this the device-KV gauge
      // stays stale at the pre-export value until the next executed step — on
      // a fully-exported prefill replica, forever.
      if (telemetry_) gauges_[kDeviceKvSeries]->Set(now_s_, static_cast<double>(kv_tokens_in_use_));
    } else {
      // Fallback: the branches re-enter the local decode loop. Their KV
      // charge and structural sequences never left, and seg_start_s still
      // points at the first token, so the decode span absorbs the parked time.
      running_.insert(running_.end(), u.branches.begin(), u.branches.end());
      ++metrics_.num_migrations_retained;
      FlushTelemetry();
    }
  }
}

bool ServingEngine::CanAcceptMigration(const MigrationUnit& u) const noexcept {
  return HasRunSlots(static_cast<int64_t>(u.branches.size())) &&
         kv_tokens_in_use_ + UnitKvCharge(u) <= kv_token_budget_;
}

void ServingEngine::AdmitMigratedUnit(const MigrationUnit& u,
                                      const gpusim::CopyStream::Transfer& xfer) {
  FI_CHECK(!u.branches.empty());
  FI_CHECK(CanAcceptMigration(u));
  kv_tokens_in_use_ += UnitKvCharge(u);
  int group = -1;
  if (u.grouped) {
    group = next_group_++;
    group_refs_[group] = {static_cast<int>(u.branches.size()), u.prefix_tokens};
  }
  std::vector<Branch> branches(u.branches.size());
  for (size_t i = 0; i < branches.size(); ++i) {
    static_cast<MigratedBranch&>(branches[i]) = u.branches[i];
    branches[i].group = group;
  }
  ++metrics_.num_migrations_in;
  metrics_.total_migration_ms += (xfer.end_s - xfer.begin_s) * 1e3;
  copy_migrate_.Record(xfer);
  TraceSpan(obs::TraceName::kCopyMigrate, xfer.begin_s, xfer.end_s,
            u.branches.front().request_id, u.kv_tokens, u.pages,
            static_cast<int64_t>((xfer.begin_s - u.export_s) * 1e6));
  FlushTelemetry();
  // Admission charges KV outside any step — keep the gauge current.
  if (telemetry_) gauges_[kDeviceKvSeries]->Set(now_s_, static_cast<double>(kv_tokens_in_use_));
  // The unit resumes once the link transfer lands (which may already have,
  // if this replica's clock ran ahead of the transfer end).
  QueueResume(Resume::kMigrateIn, std::move(branches), xfer.end_s);
}

double ServingEngine::SwapUs(int64_t tokens, double stored_ratio, double codec_gbps) const {
  // PCIe time for the bytes that actually cross the link: with the host
  // codec on, that is the *stored* (quantized/compressed) byte count, i.e.
  // the logical KV bytes scaled by stored_ratio. Latency and per-page
  // overhead are unaffected by the codec.
  const double bytes = static_cast<double>(tokens) *
                       cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype) *
                       stored_ratio;
  const double pages = std::ceil(static_cast<double>(tokens) / cfg_.page_size);
  return kSwapLatencyUs + pages * kSwapPageOverheadUs + bytes / (kSwapGbps * 1e3) +
         CodecUs(tokens, codec_gbps);
}

double ServingEngine::CodecUs(int64_t tokens, double gbps) const {
  // Encode/decode touches every logical byte regardless of how small the
  // stored blob ends up. Zero with the codec off, so codec-off swap pricing
  // is bit-identical to the raw host tier.
  if (!cfg_.preemption.host_codec.enabled()) return 0.0;
  const double bytes = static_cast<double>(tokens) *
                       cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype);
  return bytes / (gbps * 1e3);
}

double ServingEngine::CodecRatioEstimate() const {
  // Prospective stored/logical ratio for branches not yet evicted. Codec off,
  // both branches are exactly 1.0: every page stores its own bytes.
  if (metrics_.evicted_logical_bytes > 0.0) return metrics_.HostStoredRatio();
  if (host_table_ == nullptr) return 1.0;
  return static_cast<double>(host_table_->bound_bytes) /
         static_cast<double>(host_table_->page_bytes());
}

double ServingEngine::RecomputeEstimateUs(int64_t kv_len) const {
  // Marginal GEMM: the chunks ride along steps that stream the weights
  // anyway, so each chunk's free allowance is the weight-streaming floor
  // (GemmUs(0) tokens) it shares. Above that, prefill is compute-bound.
  // Prefill-alone rebuilds the whole context as one chunk.
  const int64_t chunk = cfg_.batch_policy == BatchPolicy::kPrefillAlone
                            ? kv_len
                            : std::min(cfg_.prefill_chunk_tokens, cfg_.max_prefill_tokens);
  const int64_t nchunks = std::max<int64_t>(1, (kv_len + chunk - 1) / std::max<int64_t>(chunk, 1));
  const double compute_us = GemmComputeUs(cfg_.device, cfg_.model, kv_len);
  const double floor_us = GemmUs(cfg_.device, cfg_.model, 0) * static_cast<double>(nchunks);
  // One pass over the rebuilt KV for the chunks' attention reads.
  const double attn_us =
      static_cast<double>(kv_len) * cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype) /
      (cfg_.device.hbm_gbps * 0.85 * 1e3);
  return std::max(0.0, compute_us - floor_us) + attn_us;
}

bool ServingEngine::CanRestoreHead() const noexcept {
  return !preempted_.empty() && HasRunSlots(1) &&
         kv_tokens_in_use_ + BranchKvCharge(preempted_.front().branch, false) <=
             kv_token_budget_;
}

ServingEngine::HeadAction ServingEngine::PendingHeadAction() const noexcept {
  if (pending_.empty() || pending_.front().arrival_s > now_s_ || !HasRunSlots(1)) {
    return HeadAction::kWait;
  }
  const Request& r = pending_.front();
  const int64_t need = KvNeed(r);
  // A request that could never run, even on an empty engine, would wedge
  // the queue forever.
  if (need > kv_token_budget_) return HeadAction::kReject;
  // Anti-starvation: admitting arrivals into every freed increment would
  // starve an evicted branch that outranks or ties them, so freed capacity
  // drains to the restore queue first; only a strictly higher-priority
  // arrival may jump it (and preempt for room).
  if (!preempted_.empty() && r.priority <= preempted_.front().branch.priority) {
    return HeadAction::kWait;
  }
  int64_t short_by = kv_tokens_in_use_ + need - kv_token_budget_;
  if (short_by > 0 && cfg_.preemption.enabled) {
    // Preempt-or-queue: count the KV that evicting every eligible victim
    // would reclaim. Parallel-n siblings share prefix KV and are never
    // evicted.
    for (const Branch& b : running_) {
      if (b.priority < r.priority && b.group < 0) short_by -= BranchKvCharge(b, false);
    }
  }
  return short_by <= 0 ? HeadAction::kAdmit : HeadAction::kWait;
}

void ServingEngine::AdmitArrived() {
  RestorePreempted();
  // An admitted request waits in prefilling_ with its KV reserved; pacing
  // its prompt is FormStepPlan's job.
  for (HeadAction action; (action = PendingHeadAction()) != HeadAction::kWait;) {
    const Request& r = pending_.front();
    const int64_t need = KvNeed(r);
    if (action == HeadAction::kReject) {
      ++metrics_.rejected_requests;
      TraceInstant(obs::TraceName::kReqReject, r.id, need, kv_token_budget_);
    } else {
      PreemptFor(r.priority, need);
      kv_tokens_in_use_ += need;
      const int64_t new_tokens = r.input_len - CachedTokens(r);
      TraceSpan(obs::TraceName::kReqQueued, r.arrival_s, now_s_, r.id);
      TraceInstant(obs::TraceName::kReqAdmit, r.id, new_tokens, need);
      PrefillProgress p;
      p.req = std::move(pending_.front());  // `r` is not read past here.
      p.to_compute = new_tokens;
      p.phase_start_s = now_s_;
      prefilling_.push_back(std::move(p));
    }
    pending_.pop_front();
  }
}

void ServingEngine::RestorePreempted() {
  // preempted_ is kept sorted by (priority desc, eviction order): the most
  // important victim re-enters first. Head-blocking within the deque is
  // deliberate — restoring a cheaper, lower-priority victim over a blocked
  // higher-priority one would invert the policy the evictions enforced.
  while (CanRestoreHead()) {
    Preempted& p = preempted_.front();
    Branch b = p.branch;
    kv_tokens_in_use_ += BranchKvCharge(b, false);
    TraceSpan(obs::TraceName::kReqPreempted, p.evicted_s, now_s_, b.request_id,
              b.kv_len, p.swapped ? 1 : 0);
    TraceInstant(p.swapped ? obs::TraceName::kKvRestoreSwap
                           : obs::TraceName::kKvRestoreRecompute,
                 b.request_id, b.kv_len);
    double ready_s = 0.0;
    if (p.swapped) {
      // Swap-in: the branch rides a step as a zero-token transfer chunk once
      // its KV has landed on the H2D stream, which cannot start before the
      // host copy fully exists. The host copy frees, and the structural
      // sequence is rebuilt, when the transfer completes.
      host_kv_tokens_in_use_ -= b.kv_len;
      // Swap-in moves the branch's *stored* bytes (realized ratio captured
      // at eviction) and pays the decode pass to re-materialize the pages.
      const double t_us = SwapUs(b.kv_len, p.stored_ratio, kCodecDecodeGbps);
      const double decode_ms = CodecUs(b.kv_len, kCodecDecodeGbps) * 1e-3;
      metrics_.codec_decode_ms += decode_ms;
      if (cfg_.preemption.host_codec.enabled()) {
        TraceInstant(obs::TraceName::kKvDecode, b.request_id, b.kv_len,
                     static_cast<int64_t>(decode_ms * 1e3));
      }
      const auto xfer = copy_h2d_.Enqueue(std::max(now_s_, p.swapout_done_s), t_us);
      ready_s = xfer.end_s;
      TraceSpan(obs::TraceName::kCopyH2D, xfer.begin_s, xfer.end_s, b.request_id,
                b.kv_len, (b.kv_len + cfg_.page_size - 1) / cfg_.page_size,
                static_cast<int64_t>((xfer.begin_s - now_s_) * 1e6));
      metrics_.total_swap_ms += t_us * 1e-3;
      ++metrics_.num_swap_restores;
    } else {
      // Recompute: the whole context (prompt + generated tokens) re-enters
      // the chunked-prefill path; the branch resumes once the last chunk
      // lands.
      ++metrics_.num_recompute_restores;
    }
    QueueResume(p.swapped ? Resume::kSwapIn : Resume::kRecompute, {b}, ready_s);
    preempted_.pop_front();
  }
}

void ServingEngine::QueueResume(Resume kind, std::vector<Branch> branches, double ready_s) {
  PrefillProgress p;
  p.resume = kind;
  p.phase_start_s = now_s_;
  p.ready_s = ready_s;
  p.req.id = branches.front().request_id;
  // A recompute re-prefills the branch's context; transfers carry no tokens.
  p.to_compute = kind == Resume::kRecompute ? branches.front().kv_len : 0;
  for (const Branch& b : branches) p.req.output_len += b.remaining;
  p.branches = std::move(branches);
  prefilling_.push_back(std::move(p));
}

void ServingEngine::PreemptFor(int priority, int64_t need) {
  while (kv_tokens_in_use_ + need > kv_token_budget_) {
    // Victim: lowest priority, then youngest (latest arrival, then highest
    // id — the branch that has the least sunk service time to protect).
    int victim = -1;
    for (size_t i = 0; i < running_.size(); ++i) {
      const Branch& b = running_[i];
      if (b.priority >= priority || b.group >= 0) continue;
      if (victim < 0) {
        victim = static_cast<int>(i);
        continue;
      }
      const Branch& v = running_[static_cast<size_t>(victim)];
      if (b.priority != v.priority ? b.priority < v.priority
          : b.arrival_s != v.arrival_s ? b.arrival_s > v.arrival_s
                                       : b.request_id > v.request_id) {
        victim = static_cast<int>(i);
      }
    }
    FI_CHECK_GE(victim, 0);  // PendingHeadAction counted enough reclaimable KV.
    PreemptBranch(static_cast<size_t>(victim));
  }
}

void ServingEngine::PreemptBranch(size_t running_idx) {
  Branch b = running_[running_idx];
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(running_idx));
  kv_tokens_in_use_ -= BranchKvCharge(b, /*grouped=*/false);  // Victims never are.
  ++metrics_.num_preemptions;
  const int64_t evicted_pages = (b.kv_len + cfg_.page_size - 1) / cfg_.page_size;
  metrics_.evicted_pages += evicted_pages;
  // The eviction closes the branch's current decode segment.
  TraceSpan(obs::TraceName::kReqDecode, b.seg_start_s, now_s_, b.request_id,
            b.kv_len);

  // Swap vs recompute, decided at eviction time (the host copy either exists
  // later or it does not): swap pays two transfers + latency; recompute pays
  // marginal prefill. Host-tier exhaustion forces recompute.
  bool swap = false;
  switch (cfg_.preemption.restore) {
    case RestorePolicy::kSwap: swap = true; break;
    case RestorePolicy::kRecompute: swap = false; break;
    case RestorePolicy::kAuto: {
      // Price the round trip on the bytes that will actually move: stored
      // bytes for both transfers (via the cache's observed ratio) plus the
      // encode/decode passes over the logical bytes.
      const double est = CodecRatioEstimate();
      swap = SwapUs(b.kv_len, est, kCodecEncodeGbps) + SwapUs(b.kv_len, est, kCodecDecodeGbps) <
             RecomputeEstimateUs(b.kv_len);
      break;
    }
  }
  // Logical-token budget gate: with the codec on, host capacity is metered
  // in stored bytes (the capacity gate below), so the logical token count may
  // legitimately exceed the nominal budget by the compression factor.
  if (swap && !cfg_.preemption.host_codec.enabled() &&
      host_kv_tokens_in_use_ + b.kv_len > host_kv_token_budget_) {
    swap = false;
  }
  // Capacity gate: many short evicted branches can exhaust the host tier
  // (a page each) long before the token budget. Each page is admitted at
  // its worst-case stored size, so a swap never overshoots the capacity.
  // Codec off this is the free-host-page check.
  if (swap && evicted_pages * host_table_->bound_bytes >
                  host_byte_capacity_ - host_stored_bytes_) {
    swap = false;
  }

  TraceInstant(swap ? obs::TraceName::kKvEvictSwap : obs::TraceName::kKvEvictDrop,
               b.request_id, b.kv_len, evicted_pages);

  Preempted p;
  p.swapped = swap;
  p.evicted_s = now_s_;
  if (swap) {
    host_kv_tokens_in_use_ += b.kv_len;
    // Meter the branch's pages first: its transfers are priced on its own
    // stored/logical ratio; the running estimate only steers kAuto above.
    const int64_t stored = host_table_->StoredBytes(b.kv_len);
    host_stored_bytes_ += stored;
    FI_CHECK_LE(host_stored_bytes_, host_byte_capacity_);
    const double stored_ratio =
        static_cast<double>(stored) / static_cast<double>(host_table_->LogicalBytes(b.kv_len));
    const double logical_bytes =
        static_cast<double>(b.kv_len) * cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype);
    const double stored_bytes = logical_bytes * stored_ratio;
    metrics_.evicted_logical_bytes += logical_bytes;
    metrics_.evicted_stored_bytes += stored_bytes;
    metrics_.codec_encode_ms += CodecUs(b.kv_len, kCodecEncodeGbps) * 1e-3;
    if (cfg_.preemption.host_codec.quant != KvQuantFormat::kNone) {
      metrics_.quant_mse_sum += host_table_->MseSum(b.kv_len);
      metrics_.quant_mse_pages += evicted_pages;
    }
    if (cfg_.preemption.host_codec.enabled()) {
      TraceInstant(obs::TraceName::kKvEncode, b.request_id,
                   static_cast<int64_t>(logical_bytes), static_cast<int64_t>(stored_bytes));
    }
    p.stored_ratio = stored_ratio;
    // The freed budget is usable at once (the victim's pages are a snapshot
    // in flight); only a swap-in of this branch waits for the host copy.
    const double t_us = SwapUs(b.kv_len, stored_ratio, kCodecEncodeGbps);
    const auto xfer = copy_d2h_.Enqueue(now_s_, t_us);
    p.swapout_done_s = xfer.end_s;
    TraceSpan(obs::TraceName::kCopyD2H, xfer.begin_s, xfer.end_s, b.request_id, b.kv_len,
              evicted_pages, static_cast<int64_t>((xfer.begin_s - now_s_) * 1e6));
    metrics_.total_swap_ms += t_us * 1e-3;
  }
  // Either way the structural pages free now; the restore rebuilds them.
  structural_kv_->DropSequence(b.kv_seq);
  b.kv_seq = -1;
  p.branch = b;
  // Keep preempted_ sorted by priority desc: inserting after every entry of
  // equal priority keeps each level in eviction order.
  auto it = std::upper_bound(preempted_.begin(), preempted_.end(), p,
                             [](const Preempted& a, const Preempted& x) {
                               return a.branch.priority > x.branch.priority;
                             });
  preempted_.insert(it, std::move(p));
}

ServingEngine::StepPlan ServingEngine::FormStepPlan() const {
  StepPlan plan;
  if (SwapGateEnd() > now_s_) return plan;  // Serialized swaps stall the batch.
  // Decode-priority spends at most one chunk's worth of prefill per step;
  // throughput-priority packs chunks, and prefill-alone whole prompts, up to
  // the per-step budget. The max(1, ...) guarantees the head request always
  // advances even under a degenerate budget.
  const bool alone = cfg_.batch_policy == BatchPolicy::kPrefillAlone;
  int64_t budget = std::max<int64_t>(
      1, cfg_.batch_policy == BatchPolicy::kDecodePriority
             ? std::min(cfg_.prefill_chunk_tokens, cfg_.max_prefill_tokens)
             : cfg_.max_prefill_tokens);
  for (size_t i = 0; i < prefilling_.size() && budget > 0; ++i) {
    if (prefilling_[i].ready_s > now_s_) continue;  // Transfer in flight.
    const int64_t remaining = prefilling_[i].to_compute - prefilling_[i].computed;
    // A whole prompt over the budget runs only as the step's first prompt.
    if (alone && remaining > budget && plan.prefill_tokens > 0) break;
    const int64_t take =
        alone ? remaining : std::min({remaining, cfg_.prefill_chunk_tokens, budget});
    plan.chunks.push_back({i, take, take == remaining});
    plan.prefill_tokens += take;
    budget -= take;
  }
  // Prefill-alone decodes only in steps whose chunks carry no prompt tokens:
  // running branches stall behind a prefill (the head-of-line blocking mixed
  // batching removes), never behind a landed transfer.
  plan.decode = !running_.empty() && !(alone && plan.prefill_tokens > 0);
  return plan;
}

ServingEngine::StepKind ServingEngine::StepOnce(double deadline_s) {
  if (Finished()) return StepKind::kNone;

  // Serialized swaps stall admission too: admitting again at this instant
  // could restore a victim whose swap-out has not landed.
  if (SwapGateEnd() <= now_s_) AdmitArrived();
  // Admission may have *rejected* the only remaining work (a request whose
  // KV need exceeds the total budget): the engine can finish right here.
  if (Finished()) return StepKind::kNone;
  const StepPlan plan = FormStepPlan();
  if (!plan.chunks.empty() || plan.decode) {
    ExecuteStepPlan(plan);
    return StepKind::kWork;
  }

  // Idle: jump to the next event of the post-admission state. It can lie
  // past the deadline StepTo admitted us under (this admission may have
  // started transfers that land later), and a request the caller admits at
  // the deadline may need us sooner: then hand control back.
  const double wake_s = NextEventTime();
  if (std::isinf(wake_s)) {
    // Parked units hold the KV that everything else waits for: only the
    // cluster driver's hand-off can unblock this engine.
    FI_CHECK(!exportable_.empty());
    return StepKind::kNone;
  }
  FI_CHECK_GT(wake_s, now_s_);
  const bool gated = SwapGateEnd() > now_s_;
  if (!gated && prefilling_.empty() && exportable_.empty()) {
    // With no transfer in flight and no parked unit holding KV, the budget
    // is free for every victim, so none can still be waiting.
    FI_CHECK(preempted_.empty());
  }
  if (wake_s > deadline_s) return StepKind::kNone;
  const double skip_s = wake_s - now_s_;
  // The skip stalls on a link when the wake is a transfer landing: the swap
  // gate lifting, or else an in-flight entry (the earliest one when several
  // land at once).
  const auto landing =
      std::find_if(prefilling_.begin(), prefilling_.end(),
                   [wake_s](const PrefillProgress& p) { return p.ready_s == wake_s; });
  if (gated) {
    metrics_.swap_stall_ms += skip_s * 1e3;
  } else if (landing != prefilling_.end()) {
    (landing->resume == Resume::kMigrateIn ? metrics_.migration_stall_ms
                                           : metrics_.swap_stall_ms) += skip_s * 1e3;
  }
  FlushTelemetry();  // Stamp this instant's increments before the jump.
  now_s_ = wake_s;
  metrics_.total_idle_s += skip_s;
  ++metrics_.num_idle_skips;
  metrics_.makespan_s = std::max(metrics_.makespan_s, now_s_);
  return StepKind::kIdle;
}

void ServingEngine::ExecuteStepPlan(const StepPlan& plan) {
  const double t0_s = now_s_;
  const int64_t toks_before = metrics_.total_output_tokens;
  const bool spec_step = plan.decode && cfg_.spec.enabled;
  const size_t decode_branches = plan.decode ? running_.size() : 0;
  const int64_t decode_tokens =
      spec_step ? static_cast<int64_t>(decode_branches) * tree_->Size()
                : static_cast<int64_t>(decode_branches);

  // --- Attention: ONE simulated launch over the step's mixed qo_lens
  // (decode rows first, then prefill-chunk rows), reused across layers.
  // Spec verify tokens are the exception: their ancestor-masked attention is
  // priced through the tree-kernel path (SpecVerifyAttnUs) and added here.
  // The input's buffers persist across steps.
  AttnSimInput& in = step_in_;
  in.qo_lens.clear();
  in.kv_lens.clear();
  size_t num_groups = 0;
  if (plan.decode && !spec_step) {
    for (const auto& b : running_) {
      in.qo_lens.push_back(1);
      in.kv_lens.push_back(b.kv_len);
    }
    // Parallel-generation sibling groups of at least a page of shared
    // prompt, in ascending group id, members in row order (members index
    // the decode rows, which come first); a group's prefix_len is its last
    // member's. Branches join running_ at the back in group-id order, so
    // the (group id, row) pairs arrive sorted, except on a decode replica
    // whose migrated units land out of admission order: sort them only
    // then. Without composable-format support the engine materializes each
    // branch's prompt KV separately (Sec. 5.1: prior shared-prefix systems
    // need separate prefix/suffix cache management), so sibling reads hit
    // distinct HBM addresses — no groups and no L2 dedup credit for the
    // single format.
    if (cfg_.backend.composable) {
      auto& rows = group_rows_;
      rows.clear();
      bool sorted = true;
      for (size_t i = 0; i < running_.size(); ++i) {
        const int group = running_[i].group;
        if (group < 0) continue;
        sorted = sorted && (rows.empty() || rows.back().first <= group);
        rows.emplace_back(group, static_cast<int>(i));
      }
      if (!sorted) std::sort(rows.begin(), rows.end());
      for (size_t a = 0, b; a < rows.size(); a = b) {
        for (b = a + 1; b < rows.size() && rows[b].first == rows[a].first;) ++b;
        const int64_t prefix_len = running_[static_cast<size_t>(rows[b - 1].second)].prefix_len;
        if (b - a < 2 || prefix_len < cfg_.page_size) continue;
        if (num_groups == in.groups.size()) in.groups.emplace_back();
        auto& grp = in.groups[num_groups++];
        grp.prefix_len = prefix_len;
        grp.members.clear();
        for (size_t j = a; j < b; ++j) grp.members.push_back(rows[j].second);
      }
    }
  }
  in.groups.resize(num_groups);
  for (const auto& c : plan.chunks) {
    if (c.tokens == 0) continue;  // Transfer chunk: no attention rows.
    const auto& p = prefilling_[c.prefill_idx];
    // A chunk's query covers its new prompt tokens while KV spans everything
    // prefilled so far (cached prefix + earlier chunks + this chunk) —
    // exactly the incremental "append" kernel shape. KV memory was charged
    // for the full prompt at admission (no cross-request page dedup).
    in.qo_lens.push_back(c.tokens);
    in.kv_lens.push_back(CachedTokens(p.req) + p.computed + c.tokens);
  }
  double attn_us = in.qo_lens.empty() ? 0.0 : AttnLaunchUs(in);
  if (spec_step) attn_us += SpecVerifyAttnUs();

  // --- Draft phase (spec only): `depth` sequential forward passes of the
  // draft model, level l proposing branching^l candidates per branch. The
  // draft's own attention/KV cost is folded into the per-pass launch
  // overhead (the draft is ~100x smaller than the target).
  double draft_us = 0.0;
  if (spec_step) {
    static const ModelSpec kDraft = spec::DraftLlama68M();
    const spec::DraftTree& tree = *tree_;
    for (int level = 1; level <= tree.Depth(); ++level) {
      draft_us += GemmUs(cfg_.device, kDraft,
                         static_cast<int64_t>(decode_branches) * tree.LevelWidth(level));
    }
    draft_us += tree.Depth() * ForwardLaunchUs(kDraft, /*graph=*/true);
  }

  // --- GEMM, comm, host: charged once over the whole mixed step. Steps with
  // prefill chunks never replay graphs (their shapes change every step).
  const int64_t step_tokens = plan.prefill_tokens + decode_tokens;
  const double host_us =
      cfg_.backend.host_us_per_step +
      cfg_.backend.host_us_per_req *
          static_cast<double>(decode_branches + plan.chunks.size()) +
      ForwardLaunchUs(cfg_.model, /*graph=*/plan.chunks.empty());
  const double gemm_us = GemmUs(cfg_.device, cfg_.model, step_tokens);
  const double comm_us = CommStepUs(step_tokens);
  const double step_s = (draft_us + host_us + gemm_us + attn_us + comm_us) * 1e-6;
  FlushTelemetry();  // Stamp this instant's increments before the clock moves.
  now_s_ += step_s;
  // Copy-stream busy time inside this step's window was hidden under compute
  // (none with serialized swaps: no step starts while a stream is busy).
  const double hidden_s =
      copy_d2h_.BusyWithin(t0_s, now_s_) + copy_h2d_.BusyWithin(t0_s, now_s_);
  if (hidden_s > 0.0) metrics_.swap_hidden_ms += hidden_s * 1e3;
  // Inbound-migration transfer time inside this step's window was hidden
  // under compute the destination ran anyway (conservative: link time before
  // the first post-admission step is neither hidden nor stalled here).
  if (copy_migrate_.num_transfers() > 0) {
    const double mig_hidden_s = copy_migrate_.BusyWithin(t0_s, now_s_);
    if (mig_hidden_s > 0.0) metrics_.migration_hidden_ms += mig_hidden_s * 1e3;
  }

  metrics_.total_draft_ms += draft_us * 1e-3;
  metrics_.total_gemm_ms += gemm_us * 1e-3;
  metrics_.total_attention_ms += attn_us * 1e-3;
  metrics_.total_host_ms += host_us * 1e-3;
  metrics_.total_comm_ms += comm_us * 1e-3;
  ++metrics_.num_steps;
  if (spec_step) ++metrics_.spec_steps;
  if (!plan.chunks.empty() && plan.decode) {
    ++metrics_.mixed_steps;
  } else if (!plan.chunks.empty()) {
    ++metrics_.prefill_only_steps;
  } else {
    ++metrics_.decode_only_steps;
  }
  for (const auto& c : plan.chunks) {
    if (c.tokens > 0) ++metrics_.prefill_chunks;  // Transfer chunks excluded.
  }

  // --- Stall accounting: running branches shut out of a prefill-alone step
  // emitted nothing — the head-of-line blocking chunked batching removes.
  if (!plan.decode && !running_.empty()) {
    for (auto& b : running_) ++b.stall_steps;
    metrics_.itl_stall_steps += static_cast<int64_t>(running_.size());
    ++metrics_.steps_with_stalls;
  }
  // Preempted branches sat this work step out entirely.
  metrics_.preempt_stall_steps += static_cast<int64_t>(preempted_.size());

  if (trace_) {
    const int64_t stalled = (!plan.decode && !running_.empty())
                                ? static_cast<int64_t>(running_.size())
                                : 0;
    obs::TraceEvent step;
    step.ts_us = t0_s * 1e6;
    step.dur_us = step_s * 1e6;
    step.name = obs::TraceName::kStep;
    step.flags = spec_step ? obs::kStepFlagSpec : 0;
    step.a = plan.prefill_tokens;
    step.b = static_cast<int64_t>(decode_branches);
    step.c = stalled;
    step.d = static_cast<int64_t>(preempted_.size());
    trace_->Record(step);
    // Phase spans laid end-to-end inside the step: step_s is exactly their
    // sum, so they tile [t0, t1] (zero-cost phases are skipped).
    double t_us = t0_s * 1e6;
    auto phase = [this, &t_us](obs::TraceName n, double us) {
      if (us > 0.0) {
        obs::TraceEvent e;
        e.ts_us = t_us;
        e.dur_us = us;
        e.name = n;
        trace_->Record(e);
      }
      t_us += us;
    };
    phase(obs::TraceName::kPhaseDraft, draft_us);
    phase(obs::TraceName::kPhaseAttn, attn_us);
    phase(obs::TraceName::kPhaseGemm, gemm_us);
    phase(obs::TraceName::kPhaseComm, comm_us);
    phase(obs::TraceName::kPhaseHost, host_us);
    for (const auto& c : plan.chunks) {
      const auto& p = prefilling_[c.prefill_idx];
      TraceInstant(obs::TraceName::kChunk, p.req.id, c.tokens, c.completes ? 1 : 0,
                   static_cast<int64_t>(p.resume));
    }
  }

  if (plan.decode) CommitDecode();

  // --- Prefill progress and completions (FIFO order). ----------------------
  for (const auto& c : plan.chunks) {
    auto& p = prefilling_[c.prefill_idx];
    p.computed += c.tokens;
    ++p.chunks_used;
    if (p.resume == Resume::kNone) {
      metrics_.total_prefill_tokens += c.tokens;
    } else {
      metrics_.recompute_tokens += c.tokens;  // Transfer chunks carry none.
    }
  }
  std::vector<size_t> done;
  for (const auto& c : plan.chunks) {
    if (!c.completes) continue;
    auto& p = prefilling_[c.prefill_idx];
    FI_CHECK_EQ(p.computed, p.to_compute);
    if (p.resume != Resume::kNone) {
      CompleteResume(p);
    } else {
      if (p.chunks_used > 1) ++metrics_.chunked_requests;
      TraceSpan(obs::TraceName::kReqPrefill, p.phase_start_s, now_s_, p.req.id,
                p.computed, CachedTokens(p.req), p.chunks_used);
      TraceInstant(obs::TraceName::kReqFirstToken, p.req.id);
      CompletePrefill(p.req);
    }
    done.push_back(c.prefill_idx);
  }
  // Completed entries are not necessarily a prefix of prefilling_ (a huge
  // head prompt can stay in flight while a short one behind it finishes);
  // erase back-to-front so indices stay valid.
  for (auto it = done.rbegin(); it != done.rend(); ++it) {
    prefilling_.erase(prefilling_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  metrics_.makespan_s = now_s_;
  // Post-step state snapshot, one sample per series per executed step.
  PublishStepEnd(step_s > 0.0 ? static_cast<double>(metrics_.total_output_tokens -
                                                    toks_before) /
                                    step_s
                              : 0.0);
}

void ServingEngine::CompleteResume(PrefillProgress& p) {
  // No first token: the request's TTFT was paid long ago (or, for a
  // migrated unit, on the prefill replica; last_emit_s carried over, so the
  // migration latency surfaces as one inter-token gap here).
  int64_t kv_tokens = 0;
  for (const Branch& b : p.branches) {
    kv_tokens += b.kv_len;
    if (p.resume == Resume::kSwapIn) {
      // The host copy frees now that its transfer landed.
      host_stored_bytes_ -= host_table_->StoredBytes(b.kv_len);
      metrics_.restored_pages += (b.kv_len + cfg_.page_size - 1) / cfg_.page_size;
    }
  }
  // The engine re-reserved the branches' full budget before queueing the
  // resume, so the structural device pool cannot come up short.
  const int64_t resumed = static_cast<int64_t>(p.branches.size());
  AttachKv(p.branches);
  running_.insert(running_.end(), p.branches.begin(), p.branches.end());
  const obs::TraceName span = p.resume == Resume::kSwapIn      ? obs::TraceName::kReqSwapIn
                              : p.resume == Resume::kRecompute ? obs::TraceName::kReqRecompute
                                                               : obs::TraceName::kReqMigrateIn;
  TraceSpan(span, p.phase_start_s, now_s_, p.req.id, kv_tokens,
            p.resume == Resume::kMigrateIn ? resumed : 0);
}

void ServingEngine::CompletePrefill(const Request& r) {
  // The request's first token is produced by its last chunk.
  metrics_.AddTtft((now_s_ - r.arrival_s) * 1e3, r.priority);
  ObserveTtft(r.tenant, r.priority, (now_s_ - r.arrival_s) * 1e3);
  ++metrics_.total_output_tokens;
  metrics_.cached_prefix_tokens += CachedTokens(r);
  const int group = r.parallel_n > 1 ? next_group_++ : -1;
  if (group >= 0) group_refs_[group] = {r.parallel_n, r.input_len};
  std::vector<Branch> branches(static_cast<size_t>(r.parallel_n));
  for (Branch& b : branches) {
    b.request_id = r.id;
    b.group = group;
    b.prefix_len = group >= 0 ? r.input_len : 0;
    b.kv_len = r.input_len + 1;
    b.remaining = std::max<int64_t>(r.output_len - 1, 0);
    b.last_emit_s = now_s_;
    b.priority = r.priority;
    b.tenant = r.tenant;
    b.arrival_s = r.arrival_s;
    if (structural_kv_) {
      b.accept_prob = r.accept_prob >= 0.0 ? r.accept_prob : cfg_.spec.default_accept_prob;
    }
  }
  // Full-reserve engines (spec, preemption) charged the whole output at
  // admission; vanilla charges tokens as they are emitted.
  if (!FullKvReserve()) kv_tokens_in_use_ += static_cast<int64_t>(branches.size());
  // Parallel branches fork the prompt KV (retained pages) instead of
  // re-owning it.
  AttachKv(branches);
  if (branches.empty()) return;
  if (cfg_.export_at_first_token) {
    // Disaggregated prefill pool: the finished prefill's branches do not
    // decode here — they park as one exportable unit (KV charge and
    // structural sequences intact) for the cluster driver to migrate to a
    // decode replica.
    exportable_.push_back({std::move(branches), now_s_});
  } else {
    running_.insert(running_.end(), branches.begin(), branches.end());
  }
}

void ServingEngine::AttachKv(std::vector<Branch>& branches) {
  PagedKVCache* kv = structural_kv_.get();
  int prefix_seq = -1;
  if (kv != nullptr && !branches.empty() && branches.front().group >= 0) {
    prefix_seq = kv->CreateSequence();
    kv->ExtendSequence(prefix_seq, branches.front().prefix_len);
  }
  size_t keep = 0;  // Survivors compact to the front in order.
  for (Branch& b : branches) {
    if (kv != nullptr) {
      if (prefix_seq >= 0) {
        b.kv_seq = kv->ForkSequence(prefix_seq);
        kv->ExtendSequence(b.kv_seq, b.kv_len - b.prefix_len);
      } else {
        b.kv_seq = kv->CreateSequence();
        kv->ExtendSequence(b.kv_seq, b.kv_len);
      }
    }
    b.seg_start_s = now_s_;  // The branch's decode segment opens here.
    if (b.remaining > 0) {
      branches[keep++] = b;
    } else {
      FinishBranch(b);  // Its first token was its last.
    }
  }
  branches.resize(keep);
  if (prefix_seq >= 0) kv->DropSequence(prefix_seq);
}

void ServingEngine::CommitDecode() {
  const bool spec = cfg_.spec.enabled;
  // Every commit of the step lands at one instant: one ring position.
  const obs::WindowPos at = telemetry_ ? telemetry_->PosAt(now_s_) : obs::WindowPos{};
  // Every branch that emitted in the previous step closes that step's gap,
  // so consecutive branches mostly share one: bucket a gap only when it
  // differs from the previous branch's.
  double bucketed_ms = std::numeric_limits<double>::quiet_NaN();
  int64_t gap_bucket = 0;
  // Survivors compact to the front in order, written back only when they
  // move; FinishBranch never touches running_.
  size_t keep = 0;
  for (size_t i = 0; i < running_.size(); ++i) {
    Branch& b = running_[i];
    int64_t commit = 1;
    if (spec) {
      const int accepted = spec::SampleAcceptedLen(rng_, *tree_, b.accept_prob);
      ++metrics_.accepted_len_hist[static_cast<size_t>(accepted)];
      // Accepted draft prefix + the target's bonus/correction token, capped
      // by the branch's output budget.
      commit = std::min<int64_t>(accepted + 1, b.remaining);
      SpecCommitKv(b, accepted, commit);
      metrics_.spec_committed_tokens += commit;
    } else if (b.kv_seq >= 0) {
      // Preemption-enabled engines track the decode structurally too, so the
      // structural pool holds exactly the pages every branch's KV occupies.
      structural_kv_->ExtendSequence(b.kv_seq, 1);
    }
    // Tokens of one verify step surface together: the first closes the gap
    // since the last emission, the rest arrive at (simulated) zero ITL —
    // exactly the burst delivery real spec decoding produces.
    const double gap_ms = (now_s_ - b.last_emit_s) * 1e3;
    if (gap_ms != bucketed_ms) {
      bucketed_ms = gap_ms;
      gap_bucket = metrics_.itl_sketch.IndexOf(gap_ms);
    }
    metrics_.AddItlAt(gap_bucket, gap_ms);
    for (int64_t t = 1; t < commit; ++t) metrics_.AddItl(0.0);
    if (telemetry_) {
      if (b.series < 0) b.series = SeriesFor(b.tenant, b.priority);
      class_series_[static_cast<size_t>(b.series)].ObserveTokens(at, commit, gap_bucket, gap_ms);
      if (slo_) {
        for (int64_t t = 0; t < commit; ++t) {
          slo_->Observe(obs::SloSignal::kItl, b.tenant, b.priority, t == 0 ? gap_ms : 0.0, now_s_);
        }
      }
    }
    b.last_emit_s = now_s_;
    b.kv_len += commit;
    if (!FullKvReserve()) kv_tokens_in_use_ += commit;  // Else reserved at admission.
    metrics_.total_output_tokens += commit;
    b.remaining -= commit;
    if (b.remaining > 0) {
      if (keep != i) running_[keep] = b;
      ++keep;
    } else {
      FinishBranch(b);
    }
  }
  running_.resize(keep);
}

void ServingEngine::SpecCommitKv(Branch& b, int accepted, int64_t commit) {
  PagedKVCache& kv = *structural_kv_;
  const spec::DraftTree& tree = *tree_;
  const int64_t len0 = kv.SequenceLength(b.kv_seq);
  FI_CHECK_EQ(len0, b.kv_len);

  if (tree.Branching() == 1) {
    // Chain draft: the speculative tail extends the branch in place; the
    // rejected suffix rolls back by truncation.
    kv.ExtendSequence(b.kv_seq, tree.Size());
    kv.TruncateSequence(b.kv_seq, len0 + std::min<int64_t>(commit, tree.Size()));
  } else {
    // Tree draft: each top-level subtree speculates on its own fork of the
    // committed KV (full pages shared via refcount, partial tail page CoW).
    // The winning subtree replaces the branch's sequence; every loser — and
    // the winner's own rejected suffix — unwinds through ReleasePage.
    std::vector<int> forks(static_cast<size_t>(tree.Branching()));
    for (auto& f : forks) {
      f = kv.ForkSequence(b.kv_seq);
      kv.ExtendSequence(f, tree.SubtreeSize());
    }
    if (accepted > 0) {
      kv.DropSequence(b.kv_seq);
      // Which subtree won is structurally irrelevant; take the first.
      b.kv_seq = forks[0];
      for (size_t j = 1; j < forks.size(); ++j) kv.DropSequence(forks[j]);
      kv.TruncateSequence(b.kv_seq,
                          len0 + std::min<int64_t>(commit, tree.SubtreeSize()));
    } else {
      for (int f : forks) kv.DropSequence(f);
    }
  }
  // Bonus/correction token (and chain full-acceptance overflow): append the
  // remainder the rollback could not cover.
  const int64_t target = len0 + commit;
  const int64_t have = kv.SequenceLength(b.kv_seq);
  if (have < target) kv.ExtendSequence(b.kv_seq, target - have);
  FI_CHECK_EQ(kv.SequenceLength(b.kv_seq), target);
}

ServingMetrics ServingEngine::Run(const std::vector<Request>& workload) {
  Reset();
  // One TTFT per request and one ITL per later token of every branch: sized
  // once, so the samples never regrow (exactly, when nothing is rejected).
  int64_t itl_samples = 0;
  for (const auto& r : workload) {
    Admit(r);
    itl_samples += r.parallel_n * std::max<int64_t>(r.output_len - 1, 0);
  }
  metrics_.ttft_ms.reserve(workload.size());
  metrics_.ttft_priority.reserve(workload.size());
  if (!metrics_.bounded_itl) metrics_.itl_ms.reserve(static_cast<size_t>(itl_samples));
  Drain();
  ServingMetrics out = std::move(metrics_);
  ResetMetrics();
  return out;
}

}  // namespace flashinfer::serving
