// Continuous-batching LLM serving engine over simulated time (Sec. 4.1).
//
// Every engine iteration is a *StepPlan*: admission reserves KV for arrived
// requests, then one batch former (FormStepPlan, driven by BatchPolicy)
// assembles one unified batch — each running branch contributes its decode
// token (or, with spec decode enabled, its draft-tree verify tokens) and each
// in-flight prefill contributes a prompt *chunk* of at most
// EngineConfig::prefill_chunk_tokens — and an executor prices that plan as a
// single step. The resulting heterogeneous qo_lens go through ONE
// BatchAttentionTimeUs call per step (the balanced scheduler absorbs the
// mixed query tiles; naive/fixed-split backends pay for them — Tables 6/7
// extended to serving), GEMM time (roofline over the model's dense layers),
// tensor-parallel all-reduce time, and host overhead are charged once per
// mixed step, and the one plan is reused across layers exactly as the
// paper's plan cache allows. A chunked request keeps partial-prefill
// progress in per-request state across steps and emits its first token only
// when its last chunk lands, so a long prompt never head-of-line-blocks the
// running decodes. Chunking defaults on; BatchPolicy::kPrefillAlone runs
// whole prompts in steps that decode nothing (as in early SGLang), the
// baseline the chunked-prefill bench ablates against.
//
// Parallel generation (the OpenAI "n" parameter, Sec. 4.4) forks n branches
// sharing the prompt KV through the paged cache; composable backends decode
// those groups with the two-level shared-prefix format.
//
// Speculative decoding (src/spec/): with SpecDecodeConfig enabled, the
// decode half of each plan becomes draft + verify — the draft model proposes
// a token tree per branch, the target verifies every tree token in the same
// step, accepted prefixes commit, and rejected tree branches roll their KV
// back through PagedKVCache refcounts. Verify attention goes through the
// real tree-attention kernel path: the ancestor mask is lowered to one
// branch's block rows once, at construction (spec/verify.h), and every step
// repeats them per branch into the one scheduler + cost model pricer
// (VerifyAttentionTimeUs). Verify tokens coexist with in-flight prefill
// chunks in one mixed step instead of alternating exclusively.
//
// KV pressure: with PreemptionConfig enabled, an arrived request that does
// not fit the device KV budget preempts running branches of strictly lower
// priority (lowest first, then youngest) instead of queuing behind them. A
// victim's KV either swaps to a host-memory tier (a transfer on one of the
// two PCIe copy streams) or is dropped and later *recomputed*
// through the chunked-prefill path — chosen per victim by a cost estimate
// whose crossover the kv-pressure bench sweeps: short contexts recompute
// nearly free under the weight-streaming floor, long contexts are
// compute-bound and swap wins. Admission reserves each branch's full output
// KV up front under preemption, so the device budget is never violated; a
// request whose KV need exceeds the *total* budget is rejected with a metric
// instead of wedging the arrival queue. The engine meters the host tier
// itself, per page of the model's real head layout: table bytes
// (kvcache/paged.h PageCodecTableFor) with the host codec on, raw page bytes
// with it off.
//
// The engine is *steppable*: a cluster driver (src/cluster/) owns N replicas
// and interleaves event-driven time across them with Admit()/StepTo(), so
// routing decisions can observe each replica's live load — including the
// un-prefilled remainder of partially chunked requests (QueuedTokens()).
// Run() is a thin Reset+Admit+Drain wrapper, step-for-step identical on
// arrival-sorted workloads (every in-repo generator); Admit() keeps the
// queue sorted by arrival, so unsorted admission orders behave identically.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gpusim/copystream.h"
#include "kvcache/paged.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serving/backends.h"
#include "serving/metrics.h"
#include "serving/model.h"
#include "serving/workload.h"
#include "spec/spec.h"
#include "util/rng.h"

namespace flashinfer::serving {

/// KV tokens admission reserves per branch beyond its prompt and output, so
/// a decode step never finds its next token's page missing. Routers size a
/// request's KV need with the same value.
inline constexpr int64_t kDecodeSlackTokens = 8;

/// How the batch former spends each step's prefill budget.
enum class BatchPolicy {
  /// Cap each step's total prefill work at one chunk's worth
  /// (min(prefill_chunk_tokens, max_prefill_tokens)): every mixed step stays
  /// short, so running decodes see a bounded ITL hit. Default.
  kDecodePriority,
  /// Pack chunks from as many queued prefills as fit under
  /// max_prefill_tokens per step: faster TTFT drain under prefill backlogs
  /// at the cost of longer mixed steps (worse ITL tail).
  kThroughputPriority,
  /// No chunking: whole prompts in queue order while they fit
  /// max_prefill_tokens (the head prompt always runs, alone when it is
  /// larger), and a step with prompt tokens decodes nothing, so running
  /// branches stall behind every prefill.
  kPrefillAlone,
};

/// How a preempted branch's KV context is rebuilt when it re-enters.
enum class RestorePolicy {
  /// Always swap the host copy back over the simulated PCIe link.
  kSwap,
  /// Always drop the KV at eviction and re-prefill the whole context
  /// (prompt + generated tokens) through the chunked-prefill path.
  kRecompute,
  /// Per victim, pick whichever the cost model estimates cheaper: swap time
  /// (two transfers + fixed latency) vs the *marginal* recompute time —
  /// chunk GEMM rides under the weight-streaming floor the step pays
  /// anyway, so short contexts recompute nearly for free while long ones
  /// are compute-bound and swap wins.
  kAuto,
};

/// Priority preemption over the device KV budget and a host-memory tier.
/// When an arrived request does not fit the device KV budget, the engine
/// evicts running branches of strictly lower priority (lowest first, then
/// youngest) instead of letting the arrival queue wedge. Victims either swap
/// their KV to the host tier or drop it for later recompute; they re-enter
/// through AdmitArrived as swap transfers or prompt chunks, re-reserving
/// their KV charge, so the device budget is never violated.
struct PreemptionConfig {
  bool enabled = false;
  /// Host (offload tier) KV capacity, GB.
  double host_capacity_gb = 16.0;
  RestorePolicy restore = RestorePolicy::kAuto;
  /// Every swap rides a per-direction copy stream (gpusim::CopyStream): a
  /// swap-out on D2H, a swap-in on H2D. With overlap_swap, a swap-out blocks
  /// nothing and a swap-in gates only its own branch, which re-enters once
  /// the H2D transfer completes while other work keeps stepping — the DMA
  /// time overlaps compute and is metered by ServingMetrics::swap_hidden_ms /
  /// SwapOverlapEfficiency(). Off by default (the serialized ablation): no
  /// admission and no step while either stream is busy, so every transfer
  /// is stall and only the two directions overlap each other.
  bool overlap_swap = false;
  /// Host-tier page codec: quantize (INT8/FP8, per-page scale/zero) and/or
  /// LZ4-compress pages on eviction so `host_capacity_gb` measures *stored*
  /// bytes and the tier's effective capacity multiplies. Restores decode the
  /// pages; decode time is priced into the restore transfer (CopyStream path
  /// included) and the per-page quantization MSE lands in ServingMetrics as
  /// the accuracy proxy. Default-disabled: the host tier stores raw pages.
  KvCodecConfig host_codec;
};

struct EngineConfig {
  ModelSpec model;
  gpusim::DeviceSpec device;
  BackendConfig backend;
  int page_size = 16;
  /// HBM per GPU, GB (weights + KV must fit).
  double hbm_capacity_gb = 80.0;
  /// Max concurrently running branches (>= 1).
  int max_running = 512;
  /// Per-step prefill token budget.
  int64_t max_prefill_tokens = 8192;
  /// Max prompt tokens one request contributes to a single step (>= 1). A
  /// longer prompt is split into chunks that ride along with running decodes
  /// in mixed batches. kPrefillAlone ignores it.
  int64_t prefill_chunk_tokens = 2048;
  /// Batch formation policy.
  BatchPolicy batch_policy = BatchPolicy::kDecodePriority;
  /// Speculative decoding (off by default: vanilla one-token decode steps).
  spec::SpecDecodeConfig spec;
  /// Priority preemption + host KV tier (off by default).
  PreemptionConfig preemption;
  /// Disaggregated prefill/decode serving (off by default: zero behavior
  /// change). When set, a branch that finishes prefill does NOT enter the
  /// local decode loop: it parks in an exportable pool that a cluster driver
  /// drains with HandOffExportable(), shipping its KV to a decode-pool
  /// replica over a per-replica-pair CopyStream. The first token (TTFT) is
  /// still paid here — migration moves the *decode* phase only.
  bool export_at_first_token = false;
  /// Event tracing (off by default: zero events, zero behavior change — the
  /// enabled/disabled metric equivalence is pinned by tests). When enabled,
  /// the engine records request/step/KV events into a bounded ring buffer in
  /// simulated time; export via obs::WritePerfettoFile(TraceEvents()).
  obs::TraceConfig trace;
  /// Live telemetry plane (off by default: no registry, no SLO monitor, zero
  /// behavior change — pinned by the same bit-identical-metrics test
  /// pattern). When enabled, the engine publishes windowed counters, gauges,
  /// and (tenant, priority)-labeled latency sketches into a MetricsRegistry
  /// every step, and evaluates telemetry.slos as burn-rate monitors whose
  /// alerts land in the trace (when tracing is also on).
  obs::TelemetryConfig telemetry;
};

/// One decode branch's scheduler state: what a decode-pool replica needs to
/// resume it mid-stream when it crosses a replica boundary in a migration
/// unit. `last_emit_s` carries over, so the migration latency surfaces as
/// exactly one inter-token gap on the destination's ITL distribution.
struct MigratedBranch {
  int request_id = 0;
  int64_t prefix_len = 0;    // Shared prompt tokens (parallel-n groups).
  int64_t kv_len = 0;        // Current KV length (incl. shared prefix).
  int64_t remaining = 0;     // Output tokens still to emit.
  double accept_prob = 0.0;  // Spec decode: draft acceptance probability.
  int priority = 0;          // Preemption: request priority.
  int tenant = -1;           // Telemetry: owning tenant (-1 = unassigned).
  double arrival_s = 0.0;    // Preemption: victim tie-break (youngest).
  double last_emit_s = 0.0;  // Last token's time (the first token on export).
  int64_t stall_steps = 0;   // Work steps survived without emitting.
};

/// A finished-prefill request (all sibling branches of one parallel-n group)
/// ready to migrate prefill-replica -> decode-replica. The unit is the
/// migration granule: siblings share prefix KV pages, so they ship together
/// and the shared prefix crosses the link once.
struct MigrationUnit {
  std::vector<MigratedBranch> branches;
  bool grouped = false;        // Parallel-n: branches share prefix KV.
  int64_t prefix_tokens = 0;   // Shared prompt tokens (grouped only).
  int64_t kv_tokens = 0;       // Unique KV tokens on the wire (prefix once).
  int64_t pages = 0;           // KV pages on the wire (ExportKv page lists).
  /// Device KV reservation the unit holds on its source / requires on its
  /// destination (suffixes + slack + remaining-output reserve + prefix once).
  int64_t kv_charge = 0;
  double export_s = 0.0;       // When the unit became exportable (source clock).
};

/// hbm_capacity_gb that leaves exactly `kv_tokens` of device KV budget after
/// the weights and the engine's activation slack: the inverse of the budget
/// formula in ServingEngine's constructor.
double HbmGbForKvBudget(const EngineConfig& cfg, int64_t kv_tokens);

/// One (tenant, priority) class's telemetry instruments, resolved once per
/// class: its output tokens, TTFT and ITL. The registry keys them by the
/// class's integer id (MetricsRegistry::GetClass), so registering a class
/// builds no label string.
struct ClassSeries {
  obs::Counter* tokens = nullptr;  // fi_tokens_total
  obs::Sketch* ttft = nullptr;     // fi_ttft_ms
  obs::Sketch* itl = nullptr;      // fi_itl_ms

  /// The class's series in `reg`, registered on first use.
  static ClassSeries Register(obs::MetricsRegistry& reg, int tenant, int priority);
  /// One branch's commit of `tokens` tokens at `at`: one ITL sample per
  /// token, mirroring ServingMetrics::AddItl — the first closes the gap
  /// since the last emission (`itl_ms`, in sketch bucket `itl_bucket`), the
  /// rest (spec-decode burst delivery) land at zero — so the registry's
  /// sample count reconciles exactly with the run-final metrics.
  void ObserveTokens(const obs::WindowPos& at, int64_t tokens, int64_t itl_bucket,
                     double itl_ms) const {
    this->tokens->Inc(at, static_cast<double>(tokens));
    itl->ObserveAt(at, itl_bucket, itl_ms);
    for (int64_t t = 1; t < tokens; ++t) itl->Observe(at, 0.0);
  }
};

class ServingEngine {
 public:
  explicit ServingEngine(EngineConfig cfg);

  /// Simulates the full workload and returns its metrics: Reset(), Admit()
  /// of every request, Drain(). The sample vectors are sized once, up front:
  /// ttft_ms and ttft_priority to the request count, itl_ms (unless
  /// bounded_itl) to the later tokens of every branch, sum of parallel_n *
  /// (output_len - 1). With nothing rejected, each one's capacity is its
  /// size. The metrics move out to the caller, so afterwards Metrics() reads
  /// as a freshly Reset() engine's; the trace, registry and clock keep the
  /// run's. Start the next run with Run() or Reset().
  ServingMetrics Run(const std::vector<Request>& workload);

  // --- Incremental (steppable) API -----------------------------------------
  //
  // A step is atomic: once started it runs to completion even if it crosses
  // the caller's deadline, exactly like a launched GPU iteration that a
  // router cannot preempt. A chunked prefill is NOT atomic across steps: its
  // progress state persists, so a StepTo deadline can land between chunks.

  /// Clears all queues, clocks, and accumulated metrics.
  void Reset();

  /// Enqueues a request. `r.arrival_s` is honored: the request is not
  /// admitted into a batch before its arrival time. Requests may be admitted
  /// in any order; the queue is kept sorted by (arrival, id), so even
  /// simultaneous arrivals schedule independently of the Admit() call order.
  void Admit(Request r);

  /// Simulated time at which the next step would change state: while
  /// serialized swaps are in flight, the time they land; else the current
  /// clock if work is runnable (running branches or resident prefilling
  /// entries) or admission would restore, admit or reject a request now;
  /// otherwise the earliest in-flight transfer completion or pending
  /// arrival; +infinity when fully drained or blocked on the cluster driver.
  /// StepTo(NextEventTime()) therefore always makes progress when finite,
  /// and an idle step wakes exactly here.
  double NextEventTime() const noexcept;

  /// Executes every step whose start time is <= `deadline_s`; returns the
  /// number of *work* steps executed (any step with prefill chunks, decode,
  /// or spec-verify tokens). Idle skips — jumping the clock to the next
  /// arrival — advance time but are NOT counted; they are reported via
  /// ServingMetrics::num_idle_skips / total_idle_s so tokens-per-step
  /// statistics are not diluted by waiting.
  int64_t StepTo(double deadline_s);

  /// Runs until all admitted work has completed.
  void Drain();

  /// True when no pending, prefilling, running, preempted, or exportable
  /// work remains. Exportable units count as work: a prefill-pool replica is
  /// not drained until the cluster driver has migrated (or retained) them.
  bool Finished() const noexcept {
    return pending_.empty() && prefilling_.empty() && running_.empty() &&
           preempted_.empty() && exportable_.empty();
  }

  /// Metrics accumulated since the last Reset(): what an Admit()/StepTo()
  /// driver reads. Run() returns its metrics instead and leaves these as
  /// Reset() does.
  const ServingMetrics& Metrics() const noexcept { return metrics_; }

  /// Current simulated time, seconds.
  double Now() const noexcept { return now_s_; }

  // --- Load introspection (router signals) ---------------------------------

  /// Prompt+output tokens not yet prefilled: whole pending requests plus the
  /// un-prefilled remainder (and full output) of partially chunked requests,
  /// so a router sees the true backlog of a replica mid-chunk.
  int64_t QueuedTokens() const noexcept;

  /// Output tokens still to be decoded by running branches.
  int64_t RunningTokens() const noexcept;

  /// KV tokens currently charged against the budget. Vanilla engines charge
  /// tokens as they are emitted (and can therefore soft-over-commit); spec
  /// engines reserve each branch's full output at admission so multi-token
  /// verify commits can never exhaust the fork/rollback page pool. Chunked
  /// requests charge their full prompt at admission (the pages are committed
  /// to the request even while chunks are in flight).
  int64_t KvTokensInUse() const noexcept { return kv_tokens_in_use_; }

  /// KV token capacity implied by the memory budget.
  int64_t KvTokenBudget() const noexcept { return kv_token_budget_; }

  /// Host-tier KV tokens held by swapped-out (preempted) branches.
  int64_t HostKvTokensInUse() const noexcept { return host_kv_tokens_in_use_; }
  /// Bytes the host tier holds for swapped-out branches, metered per page of
  /// one layer's per-shard KV from the host page table. A branch's bytes stay
  /// held until its swap-in transfer lands.
  int64_t HostStoredBytes() const noexcept { return host_stored_bytes_; }
  /// The host tier's byte capacity in the same units (0 without preemption).
  int64_t HostByteCapacity() const noexcept { return host_byte_capacity_; }
  /// Branches currently evicted and awaiting restore.
  int64_t PreemptedBranches() const noexcept {
    return static_cast<int64_t>(preempted_.size());
  }

  /// Live pages in the structural KV cache (active under spec decode and/or
  /// preemption; 0 otherwise, and 0 after Drain() when nothing leaked
  /// through the fork/rollback/evict paths). Device pages only: an evicted
  /// branch drops its structural sequence.
  int64_t SpecKvLivePages() const noexcept {
    return structural_kv_ ? structural_kv_->num_live_pages() : 0;
  }

  // --- Disaggregated migration (export_at_first_token mode) -----------------
  //
  // Source side (prefill replica): the cluster driver calls
  // HandOffExportable() once, which offers every parked unit to `ship` in
  // park order and empties the pool. A shipped unit leaves this engine (KV
  // charge and structural pages released, accounting exact); a declined one
  // (no decode-pool replica can take it) falls back into the local decode
  // loop, charge untouched. Destination side: CanAcceptMigration() gates on
  // KV headroom + run slots; AdmitMigratedUnit() charges the KV and queues
  // the unit as a resume entry that becomes runnable at the link transfer's
  // end time, exactly like a swap-in restore.

  /// Units parked in the exportable pool.
  int64_t MigratableUnitCount() const noexcept {
    return static_cast<int64_t>(exportable_.size());
  }
  /// Offers each parked unit, in park order, to `ship` as the view that
  /// crosses the wire (page count measured through PagedKVCache::ExportKv).
  /// When `ship` returns true the unit leaves this engine, releasing its
  /// device KV charge and structural pages; when false its branches re-enter
  /// the local running set. Leaves the pool empty.
  void HandOffExportable(const std::function<bool(const MigrationUnit&)>& ship);
  /// Whether this engine can admit the unit right now (device KV headroom
  /// for the unit's full reservation + run slots for all its branches).
  bool CanAcceptMigration(const MigrationUnit& u) const noexcept;
  /// Admits a migrated unit. `xfer` is the unit's transfer on the
  /// inter-replica link (timed by the cluster's per-pair CopyStream): the
  /// branches resume decoding only once now >= xfer.end_s, and the transfer
  /// interval is metered against this replica's step windows into
  /// migration_hidden_ms (overlapped) vs migration_stall_ms (exposed).
  void AdmitMigratedUnit(const MigrationUnit& u,
                         const gpusim::CopyStream::Transfer& xfer);

  // --- Tracing --------------------------------------------------------------

  /// The recorder, or nullptr when EngineConfig::trace is disabled.
  const obs::TraceRecorder* Trace() const noexcept { return trace_.get(); }

  /// Copy of the recorded events since the last Reset(), oldest first (empty
  /// when tracing is disabled).
  std::vector<obs::TraceEvent> TraceEvents() const {
    return trace_ ? trace_->Events() : std::vector<obs::TraceEvent>{};
  }

  // --- Telemetry ------------------------------------------------------------

  /// The live metrics registry, or nullptr when EngineConfig::telemetry is
  /// disabled. Snapshot it with JsonSnapshot(Now()).
  const obs::MetricsRegistry* Telemetry() const noexcept { return telemetry_.get(); }

  /// The SLO burn-rate monitor, or nullptr when telemetry is disabled or no
  /// specs were configured.
  const obs::SloMonitor* Slo() const noexcept { return slo_.get(); }

 private:
  /// A decoding branch: its migratable scheduler state plus what stays on
  /// this replica.
  struct Branch : MigratedBranch {
    int group = -1;            // Parallel-generation group id, -1 if alone.
    int kv_seq = -1;           // Its sequence in structural_kv_.
    int series = -1;           // Telemetry: its class_series_ index, -1 until first used.
    double seg_start_s = 0.0;  // Trace: start of the current decode segment.
  };

  /// How a prefilling entry completes. The value is its kChunk trace code.
  enum class Resume : uint8_t {
    kNone = 0,       ///< A new request: its last chunk emits the first token.
    kRecompute = 1,  ///< A preempted branch re-prefills its whole context.
    kSwapIn = 2,     ///< A preempted branch whose KV swaps back in.
    kMigrateIn = 3,  ///< A migrated unit whose KV crosses the replica link.
  };

  /// Admitted request whose prompt is (possibly partially) prefilled; lives
  /// in prefilling_ until its last chunk lands. A resume entry puts
  /// `branches` back into the decode batch instead of emitting a first
  /// token: a recompute re-prefills their context (to_compute = its length),
  /// a swap-in or a migrated unit rides a step as a zero-token transfer
  /// chunk. Its synthetic req carries the branches' remaining output so
  /// QueuedTokens sees the backlog.
  struct PrefillProgress {
    Request req;
    int64_t computed = 0;    // Uncached prompt tokens already prefilled.
    int64_t to_compute = 0;  // Total uncached prompt tokens.
    int chunks_used = 0;     // Chunks scheduled so far (metrics).
    Resume resume = Resume::kNone;
    std::vector<Branch> branches;  // What a resume puts back.
    double phase_start_s = 0.0;    // Trace: admission / resume-start time.
    /// Completion time of the entry's in-flight transfer (swap-in H2D or
    /// migration link). The entry is ineligible for the step plan until
    /// now >= ready_s (its KV is still on the link); 0 for everything else.
    double ready_s = 0.0;
  };

  /// A branch evicted under KV pressure, waiting to re-enter. It re-acquires
  /// its ungrouped BranchKvCharge on restore (victims are never grouped).
  struct Preempted {
    Branch branch;
    bool swapped = false;   // Host copy exists: restore = swap-in transfer.
    double evicted_s = 0.0;  // Trace: eviction time (preempted-span begin).
    /// When the D2H swap-out finishes on its copy stream: a swap-in of this
    /// branch cannot be issued before its host copy exists (0 for a drop).
    double swapout_done_s = 0.0;
    /// Realized stored/logical byte ratio of this branch's encoded host
    /// pages, captured at evict time — the swap-in prices the *stored*
    /// bytes it will actually move (1.0 with the codec off).
    double stored_ratio = 1.0;
  };

  /// One step's assembled work: which prefill chunks run and whether the
  /// running branches decode (or spec-verify) alongside them.
  struct StepPlan {
    struct Chunk {
      size_t prefill_idx = 0;  // Index into prefilling_.
      int64_t tokens = 0;      // Uncached prompt tokens this step.
      bool completes = false;  // Last chunk: emits the request's first token.
    };
    std::vector<Chunk> chunks;
    bool decode = false;        // Running branches contribute tokens.
    int64_t prefill_tokens = 0; // Sum of chunk tokens.
  };

  /// What one engine iteration did.
  enum class StepKind { kNone, kIdle, kWork };

  /// Sets metrics_ to a fresh run's: empty, with bounded_itl and the spec
  /// accepted-length histogram's size taken from the config.
  void ResetMetrics();

  /// Executes one engine iteration: admission, plan formation, execution —
  /// or, with nothing to run, an idle skip to the post-admission
  /// NextEventTime() when that is no later than `deadline_s`. kNone when
  /// there is nothing left to do before the deadline.
  StepKind StepOnce(double deadline_s);

  /// Restores preempted branches first, then moves arrived pending requests
  /// into prefilling_ (reserving their KV) while PendingHeadAction() rejects
  /// or admits the head. The per-step prefill token budget is
  /// FormStepPlan's alone.
  void AdmitArrived();

  /// Restores preempted branches (priority desc, then eviction order) while
  /// CanRestoreHead(). Both kinds queue a resume entry in prefilling_: a
  /// swap-in rides a step as a zero-token transfer chunk once its transfer
  /// on the H2D stream lands; a recompute rebuilds the context as prompt
  /// chunks.
  void RestorePreempted();

  /// Whether the preempted head can be restored now: a run slot is free and
  /// its KV charge fits the device budget.
  bool CanRestoreHead() const noexcept;

  /// Whether `branches` more branches fit beside the running and prefilling
  /// entries under max_running.
  bool HasRunSlots(int64_t branches) const noexcept {
    return static_cast<int64_t>(running_.size() + prefilling_.size()) + branches <=
           cfg_.max_running;
  }

  /// What admission at now_s_ does with the pending head.
  enum class HeadAction { kWait, kReject, kAdmit };
  /// kWait without a free run slot or before the head's arrival. Else
  /// kReject when its KV need exceeds the total budget (it could never run);
  /// kWait behind a blocked restore it does not outrank (anti-starvation);
  /// kAdmit when it fits, or when evicting running branches of strictly
  /// lower priority that are not grouped makes room; kWait otherwise.
  HeadAction PendingHeadAction() const noexcept;

  /// Queues an entry in prefilling_ that resumes `branches` when it
  /// completes (see PrefillProgress), runnable from `ready_s` on.
  void QueueResume(Resume kind, std::vector<Branch> branches, double ready_s);

  /// A completed resume entry: a swap-in's host bytes free, the branches get
  /// their structural KV back and rejoin the decode batch.
  void CompleteResume(PrefillProgress& p);

  /// Evicts lowest-priority-then-youngest running branches of priority
  /// strictly below `priority` until `need` fits the device budget, for a
  /// head PendingHeadAction() admitted. Grouped (parallel-n) branches share
  /// prefix KV across siblings and are never chosen.
  void PreemptFor(int priority, int64_t need);

  /// Evicts one running branch: releases its device KV charge and either
  /// swaps its KV to the host tier or drops it for recompute, per the
  /// restore policy's cost estimate.
  void PreemptBranch(size_t running_idx);

  /// Price of one swap of `tokens` of KV, microseconds: the PCIe transfer of
  /// `stored_ratio` of its logical bytes (the codec tier moves encoded
  /// bytes) plus the codec pass at `codec_gbps` (encode on a swap-out,
  /// decode on a swap-in).
  double SwapUs(int64_t tokens, double stored_ratio, double codec_gbps) const;
  /// Codec time over `tokens`' logical KV bytes at `gbps`, microseconds
  /// (0 with the codec off).
  double CodecUs(int64_t tokens, double gbps) const;
  /// Stored/logical ratio estimate for pricing decisions made *before* the
  /// encode happens (kAuto crossover): the ratio evictions realized so far,
  /// the worst-case page bound before any eviction, 1.0 with the codec off.
  double CodecRatioEstimate() const;

  /// Estimated marginal cost of rebuilding `kv_len` context tokens via
  /// chunked prefill (GEMM above the weight-streaming floor the ride-along
  /// steps already pay, plus one attention pass over the rebuilt KV).
  double RecomputeEstimateUs(int64_t kv_len) const;

  /// When serialized swaps stop stalling the engine: the later of the two
  /// copy streams' ends. With overlap_swap off nothing is admitted and no
  /// step starts before it; 0 with overlap_swap on, where a transfer gates
  /// only its own branch. The one reader of overlap_swap.
  double SwapGateEnd() const noexcept;

  /// Whether admission reserves each branch's full output KV up front (spec
  /// decode and preemption both require it: neither multi-token verify
  /// commits nor the preemption invariant tolerate decode over-commit).
  bool FullKvReserve() const noexcept {
    return cfg_.spec.enabled || cfg_.preemption.enabled;
  }

  /// Admission KV charge for `r` under the active reservation policy.
  int64_t KvNeed(const Request& r) const noexcept;

  /// Device KV charge one decoding branch holds: its own KV (less the shared
  /// prefix when `grouped`), decode slack and, on full-reserve engines, its
  /// remaining output.
  int64_t BranchKvCharge(const MigratedBranch& b, bool grouped) const noexcept;

  /// Device KV charge a migration unit holds (source) or requires
  /// (destination): each branch's BranchKvCharge plus the shared prefix once.
  int64_t UnitKvCharge(const MigrationUnit& u) const noexcept;

  // --- Trace emission (no-ops when tracing is disabled: one branch each). ---
  void TraceSpan(obs::TraceName n, double begin_s, double end_s, int32_t req,
                 int64_t a = 0, int64_t b = 0, int64_t c = 0) noexcept;
  void TraceInstant(obs::TraceName n, int32_t req, int64_t a = 0,
                    int64_t b = 0, int64_t c = 0) noexcept;
  void TraceCounter(obs::TraceName n, double v) noexcept;

  // --- Telemetry (no-ops when disabled). The engine writes counters into
  // metrics_ only and FlushTelemetry mirrors them into the registry; the
  // per-class series and the SLO monitor are fed directly. ------------------

  /// Index of the class's series in class_series_, registered on first use.
  int SeriesFor(int tenant, int priority);
  /// Records one TTFT sample: per-class sketch + SLO monitor.
  void ObserveTtft(int tenant, int priority, double ms);
  /// Moves each named field's counter that changed to the field's value,
  /// stamped at now_s_. Runs right before every clock change and before
  /// returning to the caller, so each increment lands in the window slot of
  /// the instant it was made. The first flush after Reset resolves handles.
  void FlushTelemetry();
  /// After an executed step: samples the occupancy (device/host KV tokens,
  /// host stored bytes, queue depth, running/preempted branches) into both
  /// the trace counters and the gauges, adds the trace-only step
  /// throughput, and advances SLO alerting.
  void PublishStepEnd(double tok_per_s);
  static constexpr size_t kOccupancySeries = 6;

  /// Assembles the next step's unified batch from prefilling_ and running_.
  StepPlan FormStepPlan() const;

  /// Prices the plan as one step (single BatchAttentionTimeUs over the
  /// mixed qo_lens; GEMM/comm/host charged once), advances the clock, then
  /// commits decode tokens, chunk progress, and prefill completions.
  void ExecuteStepPlan(const StepPlan& plan);

  /// A completed prefill emits the request's first token and materializes
  /// its branch(es).
  void CompletePrefill(const Request& r);

  /// Gives each branch a structural sequence of its kv_len tokens (a
  /// group's siblings fork one shared prefix, so the pages mirror their
  /// sharing) and opens its decode segment; finishes and removes every
  /// branch with nothing left to emit.
  void AttachKv(std::vector<Branch>& branches);

  /// Commits one step's decode for every running branch: one token each, or
  /// under spec decode its sampled accepted prefix plus the bonus token,
  /// with the rejected KV rolled back.
  void CommitDecode();
  /// KV fork/extend/rollback for one branch's verification outcome.
  void SpecCommitKv(Branch& b, int accepted, int64_t commit);
  /// Releases a finished branch's KV and records its stall count.
  void FinishBranch(const Branch& b);
  /// Releases a branch's device KV charge (its BranchKvCharge; the group's
  /// shared prefix with the last sibling) and its structural sequence.
  void ReleaseKv(const Branch& b);

  double CommStepUs(int64_t tokens) const;
  /// Prices `in` through the backend's scheduler + cost model, one plan
  /// reused across layers, plus the unfused-RoPE pass when configured.
  double AttnLaunchUs(const AttnSimInput& in) const;
  double SpecVerifyAttnUs();
  /// The separate RoPE kernel an unfused backend launches per layer over
  /// `tokens` query rows (bandwidth-bound, small-kernel efficiency); 0 with
  /// fused RoPE.
  double UnfusedRopeUs(int64_t tokens) const;
  AttnSimInput HeadGeometry() const;

  EngineConfig cfg_;
  int64_t kv_token_budget_ = 0;
  int64_t host_kv_token_budget_ = 0;
  /// The host tier per page of one layer's per-shard KV, for the configured
  /// codec (null without preemption). Victims are never grouped, so a
  /// swapped branch of kv_len tokens holds StoredBytes(kv_len).
  const PageCodecTable* host_table_ = nullptr;
  int64_t host_byte_capacity_ = 0;
  /// Per-branch admission reserve: decode slack plus, under spec decode, one
  /// tree of transient verification KV.
  int64_t slack_tokens_ = kDecodeSlackTokens;
  std::unique_ptr<spec::DraftTree> tree_;  // Null when spec decode is off.
  /// The tree's ancestor mask as one branch's block rows at the heuristic's
  /// tile, lowered once at construction (tree shape and head geometry never
  /// change); SpecVerifyAttnUs repeats it per branch every verify step.
  MaskRows verify_mask_;
  /// The step's attention input at the engine's head geometry;
  /// ExecuteStepPlan rebuilds its lengths and groups in place every step.
  AttnSimInput step_in_;
  /// ExecuteStepPlan's (group id, decode row) pairs, kept for their buffer;
  /// sorted only when running_ holds groups out of group-id order.
  std::vector<std::pair<int, int>> group_rows_;
  /// SpecVerifyAttnUs's context lengths, one per running branch, kept for
  /// their buffer.
  std::vector<int64_t> verify_ctx_lens_;

  // Steppable state (reset by Reset()).
  std::deque<Request> pending_;
  std::deque<PrefillProgress> prefilling_;
  std::vector<Branch> running_;
  /// Evicted branches awaiting restore, sorted by priority desc, then
  /// eviction order.
  std::deque<Preempted> preempted_;
  /// Finished-prefill units parked for migration (export_at_first_token
  /// mode). Branches here keep their KV charge and structural sequences
  /// alive — shipping releases both exactly; declining re-runs them.
  /// A unit is grouped when its branches are siblings of a parallel-n group.
  struct Exportable {
    std::vector<Branch> branches;
    double export_s = 0.0;
  };
  std::deque<Exportable> exportable_;
  /// Wire-format view of one exportable unit: unique KV tokens (shared
  /// prefix once) and the page count measured through ExportKv's real page
  /// lists when the structural cache exists (page-rounded arithmetic
  /// otherwise).
  MigrationUnit BuildUnitView(const Exportable& u) const;
  std::map<int, std::pair<int, int64_t>> group_refs_;
  ServingMetrics metrics_;
  double now_s_ = 0.0;
  int64_t kv_tokens_in_use_ = 0;
  int64_t host_kv_tokens_in_use_ = 0;
  int64_t host_stored_bytes_ = 0;  // Metered by host_table_.
  /// The PCIe DMA engines every swap rides, one per direction.
  gpusim::CopyStream copy_d2h_;
  gpusim::CopyStream copy_h2d_;
  /// Inbound-migration accounting stream: externally-timed inter-replica
  /// transfer intervals recorded at AdmitMigratedUnit, metered against step
  /// windows for migration_hidden_ms. Empty outside disaggregated runs.
  gpusim::CopyStream copy_migrate_;
  int next_group_ = 0;
  /// The spec-decode acceptance sampler's seed. Reset() reseeds rng_ with it,
  /// so Run() stays equivalent to an external Admit/StepTo loop.
  static constexpr uint64_t kAcceptSeed = 0x5eedf00d;
  Rng rng_;
  /// Structural paged KV (1 head x 1 dim: page accounting, not values).
  /// Spec decode forks/extends/truncates it, so rollback exercises the real
  /// refcount machinery; preemption drops a victim's sequence and rebuilds
  /// it on restore; migration counts a unit's pages from it. Null when both
  /// spec decode and preemption are off.
  std::unique_ptr<PagedKVCache> structural_kv_;
  /// Event recorder; null when EngineConfig::trace is disabled (every
  /// emission site is gated on this pointer).
  std::unique_ptr<obs::TraceRecorder> trace_;
  /// Live metrics registry + SLO monitor; null when telemetry is disabled.
  std::unique_ptr<obs::MetricsRegistry> telemetry_;
  std::unique_ptr<obs::SloMonitor> slo_;
  /// Cached instrument handles per (tenant, priority) class, in first-use
  /// order, and each packed class id's index into them.
  std::vector<ClassSeries> class_series_;
  std::unordered_map<int64_t, int> class_index_;  // By obs::ClassId.
  /// Handles resolved by the first FlushTelemetry after Reset: one counter
  /// per named kMetricFields entry, one gauge per occupancy series.
  std::vector<std::pair<const MetricField*, obs::Counter*>> field_counters_;
  std::array<obs::Gauge*, kOccupancySeries> gauges_{};
};

}  // namespace flashinfer::serving
