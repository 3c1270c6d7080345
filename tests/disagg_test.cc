// Disaggregated prefill/decode serving tests: engine-side export/import
// exactness (KV charges and structural pages balance to zero across a
// migration), the NextEventTime/StepTo idle-wake contract when all pending
// work is transfer-gated or blocked on parked units, retain-fallback
// equivalence to the unified engine, the cluster driver's pool routing,
// rejection fallback, and run-to-run determinism, and trace attribution of
// every migration wait.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cluster/cluster.h"
#include "obs/query.h"
#include "serving/engine.h"

namespace flashinfer {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterEngine;
using cluster::ClusterMetrics;
using gpusim::CopyStream;
using serving::EngineConfig;
using serving::MigrationUnit;
using serving::Request;
using serving::ServingEngine;
using serving::ServingMetrics;

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
  return cfg;
}

/// Steps an export-mode engine until at least one unit parks in the
/// exportable pool (or it runs out of internal events).
void StepUntilExportable(ServingEngine& e) {
  while (e.MigratableUnitCount() == 0 && std::isfinite(e.NextEventTime())) {
    e.StepTo(e.NextEventTime());
  }
}

/// Ships every parked unit; returns the views that crossed the wire.
std::vector<MigrationUnit> ShipAll(ServingEngine& e) {
  std::vector<MigrationUnit> shipped;
  e.HandOffExportable([&shipped](const MigrationUnit& u) {
    shipped.push_back(u);
    return true;
  });
  return shipped;
}

/// Declines every parked unit: its branches decode where they prefilled.
void RetainAll(ServingEngine& e) {
  e.HandOffExportable([](const MigrationUnit&) { return false; });
}

// A vanilla (no spec, no preemption) export engine: the unit carries the
// prompt + first token, shipping it zeroes the source's KV charge, and
// the destination decodes exactly the remaining tokens.
TEST(DisaggEngine, VanillaExportExtractImportExact) {
  EngineConfig scfg = BaseConfig();
  scfg.export_at_first_token = true;
  ServingEngine src(scfg);
  src.Reset();
  Request r;
  r.id = 7;
  r.arrival_s = 0.0;
  r.input_len = 512;
  r.output_len = 32;
  src.Admit(r);
  StepUntilExportable(src);
  ASSERT_EQ(src.MigratableUnitCount(), 1);
  EXPECT_FALSE(src.Finished());  // The parked unit keeps the engine alive.
  // TTFT was paid on the prefill replica; only the first token was emitted.
  EXPECT_EQ(src.Metrics().ttft_ms.size(), 1u);
  EXPECT_EQ(src.Metrics().total_output_tokens, 1);

  const auto units = ShipAll(src);
  ASSERT_EQ(units.size(), 1u);
  const MigrationUnit& u = units[0];
  EXPECT_FALSE(u.grouped);
  ASSERT_EQ(u.branches.size(), 1u);
  EXPECT_EQ(u.branches[0].request_id, 7);
  EXPECT_EQ(u.branches[0].kv_len, 513);     // Prompt + the first token.
  EXPECT_EQ(u.branches[0].remaining, 31);   // Decode phase ships out.
  EXPECT_EQ(u.kv_tokens, 513);
  // No structural cache on a vanilla engine: page count is arithmetic.
  EXPECT_EQ(u.pages, (513 + scfg.page_size - 1) / scfg.page_size);
  EXPECT_GT(u.export_s, 0.0);
  EXPECT_EQ(src.KvTokensInUse(), 0);  // Charge released exactly.
  EXPECT_TRUE(src.Finished());
  EXPECT_EQ(src.Metrics().num_migrations_out, 1);
  EXPECT_EQ(src.Metrics().migrated_kv_tokens, 513);

  EngineConfig dcfg = BaseConfig();
  ServingEngine dst(dcfg);
  dst.Reset();
  CopyStream::Transfer xfer;
  xfer.begin_s = u.export_s;
  xfer.end_s = u.export_s + 0.002;
  ASSERT_TRUE(dst.CanAcceptMigration(u));
  dst.AdmitMigratedUnit(u, xfer);
  // Idle-wake contract: with only the in-flight import, the next event is
  // the transfer completion — never "now" (that would busy-spin StepTo).
  EXPECT_DOUBLE_EQ(dst.NextEventTime(), xfer.end_s);
  EXPECT_EQ(dst.StepTo(xfer.end_s - 1e-6), 0);
  dst.Drain();
  EXPECT_TRUE(dst.Finished());
  const ServingMetrics& dm = dst.Metrics();
  EXPECT_EQ(dm.total_output_tokens, 31);
  EXPECT_EQ(dm.ttft_ms.size(), 0u);  // No second first-token.
  EXPECT_EQ(static_cast<int64_t>(dm.itl_ms.size()), 31);
  EXPECT_EQ(dst.KvTokensInUse(), 0);
  EXPECT_EQ(dm.num_migrations_in, 1);
  EXPECT_NEAR(dm.total_migration_ms, 2.0, 1e-9);
  EXPECT_LE(dm.migration_hidden_ms, dm.total_migration_ms + 1e-9);
  EXPECT_GE(dm.migration_stall_ms, 0.0);
}

// One hand-off offers every parked unit once, in park order, and ships or
// retains each by the callback's answer. Three prompts finish prefill in one
// step and park; the middle unit is declined. Source KV drops by exactly the
// shipped units' charges, the declined unit decodes locally, and the engine
// drains with no structural page left.
TEST(DisaggEngine, HandOffShipsAcceptedAndRetainsDeclinedInParkOrder) {
  EngineConfig cfg = BaseConfig();
  cfg.export_at_first_token = true;
  cfg.preemption.enabled = true;  // Structural KV: real page lists.
  ServingEngine src(cfg);
  src.Reset();
  for (int id = 0; id < 3; ++id) {
    Request r;
    r.id = id;
    r.input_len = 200 + 100 * id;
    r.output_len = 16 + 8 * id;
    src.Admit(r);
  }
  StepUntilExportable(src);
  ASSERT_EQ(src.MigratableUnitCount(), 3);  // All three prompts fit one step.
  const int64_t kv_before = src.KvTokensInUse();

  std::vector<int> offered;
  int64_t shipped_charge = 0;
  MigrationUnit declined;
  src.HandOffExportable([&](const MigrationUnit& u) {
    offered.push_back(u.branches.front().request_id);
    if (offered.size() == 2) {
      declined = u;
      return false;
    }
    shipped_charge += u.kv_charge;
    return true;
  });
  EXPECT_EQ(offered, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(src.MigratableUnitCount(), 0);
  EXPECT_EQ(src.KvTokensInUse(), kv_before - shipped_charge);
  EXPECT_EQ(src.KvTokensInUse(), declined.kv_charge);
  EXPECT_EQ(src.Metrics().num_migrations_out, 2);
  EXPECT_EQ(src.Metrics().num_migrations_retained, 1);
  ASSERT_EQ(declined.branches.size(), 1u);
  EXPECT_EQ(src.RunningTokens(), declined.branches[0].remaining);

  src.Drain();
  EXPECT_TRUE(src.Finished());
  // Three first tokens plus the declined unit's whole decode.
  EXPECT_EQ(src.Metrics().total_output_tokens, 3 + declined.branches[0].remaining);
  EXPECT_EQ(src.KvTokensInUse(), 0);
  EXPECT_EQ(src.SpecKvLivePages(), 0);
}

// Satellite bugfix regression: NextEventTime when every in-flight entry is
// transfer-gated. An arrived admissible head must wake the engine NOW (the
// missed-wake half); an arrived head blocked on the in-flight unit's
// reserve must NOT return now (the busy-spin half) — the wake is the
// transfer completion.
TEST(DisaggEngine, NextEventTimeTransferGatedIdleWake) {
  // Produce a real unit to import.
  EngineConfig scfg = BaseConfig();
  scfg.export_at_first_token = true;
  ServingEngine src(scfg);
  src.Reset();
  Request big;
  big.id = 0;
  big.arrival_s = 0.0;
  big.input_len = 1024;
  big.output_len = 64;
  src.Admit(big);
  StepUntilExportable(src);
  ASSERT_EQ(src.MigratableUnitCount(), 1);
  const MigrationUnit m = ShipAll(src)[0];

  // Destination with a budget that fits the import plus a small request but
  // not the import plus a big one.
  EngineConfig dcfg = BaseConfig();
  const int64_t budget = m.kv_charge + 300;
  dcfg.hbm_capacity_gb = serving::HbmGbForKvBudget(dcfg, budget);
  ServingEngine dst(dcfg);
  dst.Reset();
  ASSERT_GE(dst.KvTokenBudget(), m.kv_charge);
  CopyStream::Transfer xfer;
  xfer.begin_s = 4.9;
  xfer.end_s = 5.0;  // Far-future landing: the engine idles until then.
  dst.AdmitMigratedUnit(m, xfer);
  EXPECT_DOUBLE_EQ(dst.NextEventTime(), 5.0);

  // Missed-wake half: a small arrived request fits beside the in-flight
  // reserve, so the engine must report work at its arrival, not sleep to
  // the transfer.
  Request small;
  small.id = 1;
  small.arrival_s = 0.5;
  small.input_len = 64;
  small.output_len = 4;
  dst.Admit(small);
  EXPECT_DOUBLE_EQ(dst.NextEventTime(), 0.5);
  EXPECT_GE(dst.StepTo(0.5), 1);  // Admission + prefill start immediately.

  dst.Drain();
  EXPECT_TRUE(dst.Finished());
  EXPECT_EQ(dst.KvTokensInUse(), 0);
  EXPECT_EQ(dst.Metrics().total_output_tokens, /*import*/ 63 + /*small*/ 4);

  // Busy-spin half: a big arrived head that cannot fit beside the in-flight
  // reserve must NOT wake the engine now (StepTo would spin) — the only
  // wake is the transfer completion, and stepping short of it does nothing.
  ServingEngine dst2(dcfg);
  dst2.Reset();
  dst2.AdmitMigratedUnit(m, xfer);
  Request blocked;
  blocked.id = 2;
  blocked.arrival_s = 1.0;
  blocked.input_len = 512;  // Need 520 > the 300 tokens of free headroom.
  blocked.output_len = 8;
  dst2.Admit(blocked);
  dst2.StepTo(2.0);  // Past the arrival: the head is arrived but blocked.
  EXPECT_DOUBLE_EQ(dst2.NextEventTime(), 5.0);
  EXPECT_EQ(dst2.StepTo(4.5), 0);
  dst2.Drain();
  EXPECT_TRUE(dst2.Finished());
  EXPECT_EQ(dst2.KvTokensInUse(), 0);
  EXPECT_EQ(dst2.Metrics().total_output_tokens, /*import*/ 63 + /*blocked*/ 8);
}

// A parked unit that holds the KV a blocked restore needs leaves only the
// cluster driver able to unblock the engine: B evicts A and parks at its
// first token, and A's reserve does not fit beside B's. With nothing in
// flight, the next event is +inf, not C's later arrival, and stepping past
// that arrival does nothing until the driver extracts B.
TEST(DisaggEngine, ParkedUnitBlockingARestoreWaitsForTheDriver) {
  EngineConfig cfg = BaseConfig();
  cfg.export_at_first_token = true;
  cfg.preemption.enabled = true;
  cfg.preemption.restore = serving::RestorePolicy::kSwap;
  cfg.preemption.overlap_swap = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 10000);
  const auto req = [](int id, double arrival, int64_t in, int64_t out, int priority) {
    Request r;
    r.id = id;
    r.arrival_s = arrival;
    r.input_len = in;
    r.output_len = out;
    r.priority = priority;
    return r;
  };
  ServingEngine e(cfg);
  e.Reset();
  e.Admit(req(0, 0.0, 6000, 400, 0));  // A
  StepUntilExportable(e);
  ASSERT_EQ(e.MigratableUnitCount(), 1);
  RetainAll(e);
  e.Admit(req(1, 1.0, 5000, 100, 1));  // B: evicts A, then parks.
  e.Admit(req(2, 5.0, 100, 4, 2));     // C
  StepUntilExportable(e);
  ASSERT_EQ(e.MigratableUnitCount(), 1);
  ASSERT_EQ(e.PreemptedBranches(), 1);
  ASSERT_LT(e.Now(), 5.0);

  EXPECT_EQ(e.NextEventTime(), std::numeric_limits<double>::infinity());
  const double parked_s = e.Now();
  EXPECT_EQ(e.StepTo(10.0), 0);
  EXPECT_EQ(e.Now(), parked_s);

  ShipAll(e);
  EXPECT_EQ(e.NextEventTime(), parked_s);  // A restores now.
  for (int i = 0; i < 10000 && !e.Finished(); ++i) {
    RetainAll(e);
    e.StepTo(e.NextEventTime());
  }
  ASSERT_TRUE(e.Finished());
  EXPECT_EQ(e.Metrics().num_swap_restores, 1);
  EXPECT_EQ(e.KvTokensInUse(), 0);
  EXPECT_EQ(e.HostKvTokensInUse(), 0);
}

// Parallel-n fork mid-migration: the group ships as one unit, the shared
// prefix crosses the wire once, and structural pages on both sides balance
// to zero. Spec-KV engines measure pages through real ExportKv page lists.
TEST(DisaggEngine, GroupedUnitSharesPrefixOnceAndBalances) {
  EngineConfig scfg = BaseConfig();
  scfg.export_at_first_token = true;
  scfg.preemption.enabled = true;  // Structural spec_kv on: real page lists.
  ServingEngine src(scfg);
  src.Reset();
  Request r;
  r.id = 3;
  r.arrival_s = 0.0;
  r.input_len = 256;
  r.output_len = 8;
  r.parallel_n = 3;
  src.Admit(r);
  StepUntilExportable(src);
  ASSERT_EQ(src.MigratableUnitCount(), 1);
  const auto units = ShipAll(src);
  ASSERT_EQ(units.size(), 1u);
  const MigrationUnit& u = units[0];
  EXPECT_TRUE(u.grouped);
  ASSERT_EQ(u.branches.size(), 3u);
  EXPECT_EQ(u.prefix_tokens, 256);
  for (const auto& b : u.branches) {
    EXPECT_EQ(b.prefix_len, 256);
    EXPECT_EQ(b.kv_len, 257);  // Prefix + own first token.
    EXPECT_EQ(b.remaining, 7);
  }
  // Unique wire tokens: prefix once + one suffix token per branch.
  EXPECT_EQ(u.kv_tokens, 256 + 3);
  // Real page union: 16 shared prefix pages + 1 forked page per branch.
  EXPECT_EQ(u.pages, 256 / scfg.page_size + 3);
  EXPECT_EQ(src.KvTokensInUse(), 0);
  EXPECT_EQ(src.SpecKvLivePages(), 0);  // Fork refcounts fully unwound.
  EXPECT_TRUE(src.Finished());

  EngineConfig dcfg = BaseConfig();
  dcfg.preemption.enabled = true;
  ServingEngine dst(dcfg);
  dst.Reset();
  CopyStream::Transfer xfer;
  xfer.begin_s = u.export_s;
  xfer.end_s = u.export_s + 0.001;
  dst.AdmitMigratedUnit(u, xfer);
  dst.Drain();
  EXPECT_TRUE(dst.Finished());
  EXPECT_EQ(dst.Metrics().total_output_tokens, 3 * 7);
  EXPECT_EQ(dst.KvTokensInUse(), 0);
  EXPECT_EQ(dst.SpecKvLivePages(), 0);
  EXPECT_EQ(dst.HostKvTokensInUse(), 0);
}

// Spec-decode branches migrate mid-stream: draft trees are per-step state
// (nothing in-flight parks with the unit), so a spec source exports cleanly
// and a spec destination resumes the branches through its own draft/verify
// loop with exact rollback accounting.
TEST(DisaggEngine, SpecBranchesMigrateAndDrainClean) {
  EngineConfig scfg = BaseConfig();
  scfg.export_at_first_token = true;
  scfg.spec.enabled = true;
  ServingEngine src(scfg);
  src.Reset();
  Request r;
  r.id = 11;
  r.arrival_s = 0.0;
  r.input_len = 300;
  r.output_len = 24;
  r.accept_prob = 0.8;
  src.Admit(r);
  StepUntilExportable(src);
  ASSERT_EQ(src.MigratableUnitCount(), 1);
  const MigrationUnit m = ShipAll(src)[0];
  EXPECT_EQ(src.KvTokensInUse(), 0);
  EXPECT_EQ(src.SpecKvLivePages(), 0);
  EXPECT_TRUE(src.Finished());

  EngineConfig dcfg = BaseConfig();
  dcfg.spec.enabled = true;
  ServingEngine dst(dcfg);
  dst.Reset();
  CopyStream::Transfer xfer;
  xfer.begin_s = m.export_s;
  xfer.end_s = m.export_s + 0.001;
  dst.AdmitMigratedUnit(m, xfer);
  dst.Drain();
  EXPECT_TRUE(dst.Finished());
  EXPECT_EQ(dst.Metrics().total_output_tokens, 23);
  EXPECT_GT(dst.Metrics().spec_steps, 0);  // Resumed through draft/verify.
  EXPECT_EQ(dst.KvTokensInUse(), 0);
  EXPECT_EQ(dst.SpecKvLivePages(), 0);
}

// Migrate-then-preempt: a migrated branch on a preemption-enabled decode
// replica is evictable like any local branch, and the evict/restore cycle
// keeps both KV tiers exact.
TEST(DisaggEngine, MigratedBranchSurvivesPreemption) {
  EngineConfig scfg = BaseConfig();
  scfg.export_at_first_token = true;
  scfg.preemption.enabled = true;
  ServingEngine src(scfg);
  src.Reset();
  Request r;
  r.id = 0;
  r.arrival_s = 0.0;
  r.input_len = 1024;
  r.output_len = 64;
  r.priority = 0;
  src.Admit(r);
  StepUntilExportable(src);
  ASSERT_EQ(src.MigratableUnitCount(), 1);
  const MigrationUnit m = ShipAll(src)[0];

  EngineConfig dcfg = BaseConfig();
  dcfg.preemption.enabled = true;
  // Budget fits the migrated unit, but not the unit plus the VIP request:
  // admission must preempt the (lower-priority) migrated branch.
  dcfg.hbm_capacity_gb = serving::HbmGbForKvBudget(dcfg, m.kv_charge + 300);
  ServingEngine dst(dcfg);
  dst.Reset();
  ASSERT_TRUE(dst.CanAcceptMigration(m));
  CopyStream::Transfer xfer;
  xfer.begin_s = m.export_s;
  xfer.end_s = m.export_s + 0.001;
  dst.AdmitMigratedUnit(m, xfer);
  // Let the import land and decode a few tokens first.
  dst.StepTo(xfer.end_s + 0.05);
  EXPECT_GT(dst.Metrics().total_output_tokens, 0);

  Request vip;
  vip.id = 1;
  vip.arrival_s = xfer.end_s + 0.05;
  vip.input_len = 256;
  vip.output_len = 256;
  vip.priority = 5;
  dst.Admit(vip);
  dst.Drain();
  EXPECT_TRUE(dst.Finished());
  const ServingMetrics& dm = dst.Metrics();
  EXPECT_GT(dm.num_preemptions, 0);  // The migrated branch was evicted.
  EXPECT_EQ(dm.num_swap_restores + dm.num_recompute_restores, dm.num_preemptions);
  EXPECT_EQ(dm.total_output_tokens, 63 + 256);
  EXPECT_EQ(dst.KvTokensInUse(), 0);
  EXPECT_EQ(dst.HostKvTokensInUse(), 0);
  EXPECT_EQ(dst.SpecKvLivePages(), 0);
}

// Retain fallback ≡ unified: when every unit is retained at the step
// boundary it parked on (the cluster driver's cadence), the export-mode
// engine reproduces the vanilla engine token-for-token — parking is pure
// bookkeeping until someone actually extracts.
TEST(DisaggEngine, RetainAllMatchesUnifiedEngine) {
  Rng rng(91);
  const auto workload = serving::ShareGptWorkload(rng, 40, 25.0);

  ServingEngine vanilla(BaseConfig());
  const ServingMetrics vm = vanilla.Run(workload);

  EngineConfig ecfg = BaseConfig();
  ecfg.export_at_first_token = true;
  ServingEngine e(ecfg);
  e.Reset();
  for (const auto& r : workload) e.Admit(r);
  for (int64_t guard = 0; guard < 500000 && !e.Finished(); ++guard) {
    RetainAll(e);
    const double next = e.NextEventTime();
    if (!std::isfinite(next)) break;
    e.StepTo(next);
  }
  ASSERT_TRUE(e.Finished());
  const ServingMetrics& em = e.Metrics();
  EXPECT_DOUBLE_EQ(em.makespan_s, vm.makespan_s);
  EXPECT_EQ(em.num_steps, vm.num_steps);
  EXPECT_EQ(em.total_output_tokens, vm.total_output_tokens);
  ASSERT_EQ(em.ttft_ms.size(), vm.ttft_ms.size());
  for (size_t i = 0; i < em.ttft_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(em.ttft_ms[i], vm.ttft_ms[i]) << "ttft " << i;
  }
  ASSERT_EQ(em.itl_ms.size(), vm.itl_ms.size());
  for (size_t i = 0; i < em.itl_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(em.itl_ms[i], vm.itl_ms[i]) << "itl " << i;
  }
  EXPECT_EQ(em.num_migrations_retained,
            static_cast<int64_t>(workload.size()));
  EXPECT_EQ(e.KvTokensInUse(), 0);
}

ClusterConfig DisaggConfig() {
  ClusterConfig cfg;
  cfg.engine = BaseConfig();
  cfg.num_replicas = 4;
  cfg.disaggregated = true;
  cfg.prefill_replicas = 2;
  cfg.policy = cluster::RouterPolicy::kLeastLoaded;
  return cfg;
}

std::vector<Request> DisaggWorkload(uint64_t seed, int n = 60) {
  Rng rng(seed);
  serving::BurstyPrefillConfig w;
  w.num_steady = n;
  w.steady_rate = 40.0;
  w.steady_output = 96;
  w.num_bursts = 3;
  w.burst_size = 3;
  w.burst_input_lo = 3000;
  w.burst_input_hi = 6000;
  w.burst_output = 48;
  return serving::BurstyLongPrefillWorkload(rng, w);
}

// End-to-end disaggregated cluster: prompts route to the prefill pool only,
// units migrate to the decode pool, conservation holds across pools, both
// pools drain clean, and the trace attributes every migration wait.
TEST(DisaggCluster, MigratesCompletesAndAccountsExactly) {
  const auto workload = DisaggWorkload(17);
  ClusterConfig cfg = DisaggConfig();
  cfg.engine.trace.enabled = true;
  ClusterEngine eng(cfg);
  const ClusterMetrics m = eng.Run(workload);

  // Pool labeling.
  ASSERT_EQ(m.replica_pool.size(), 4u);
  EXPECT_EQ(m.replica_pool[0], 0);
  EXPECT_EQ(m.replica_pool[1], 0);
  EXPECT_EQ(m.replica_pool[2], 1);
  EXPECT_EQ(m.replica_pool[3], 1);
  // Prompts only ever land on the prefill pool.
  EXPECT_EQ(m.replica_requests[2], 0);
  EXPECT_EQ(m.replica_requests[3], 0);

  EXPECT_GT(m.prefill_pool.num_migrations_out, 0);
  // Every extraction was admitted somewhere; retained units stayed local.
  EXPECT_EQ(m.prefill_pool.num_migrations_out, m.decode_pool.num_migrations_in);
  EXPECT_EQ(m.aggregate.num_migrations_out, m.aggregate.num_migrations_in);

  // Conservation: every request completed exactly once, TTFT on the prefill
  // pool, and total output tokens match the workload.
  EXPECT_EQ(m.aggregate.ttft_ms.size() +
                static_cast<size_t>(m.aggregate.rejected_requests),
            workload.size());
  EXPECT_EQ(m.prefill_pool.ttft_ms.size(), m.aggregate.ttft_ms.size());
  EXPECT_EQ(m.decode_pool.ttft_ms.size(), 0u);
  if (m.aggregate.rejected_requests == 0) {
    int64_t expected = 0;
    for (const auto& r : workload) expected += std::max<int64_t>(r.output_len, 1);
    EXPECT_EQ(m.aggregate.total_output_tokens, expected);
  }

  // Migration time decomposition on the decode side.
  EXPECT_GT(m.decode_pool.total_migration_ms, 0.0);
  EXPECT_LE(m.decode_pool.migration_hidden_ms,
            m.decode_pool.total_migration_ms + 1e-9);
  EXPECT_GE(m.decode_pool.MigrationOverlapEfficiency().value_or(0.0), 0.0);
  EXPECT_LE(m.decode_pool.MigrationOverlapEfficiency().value_or(0.0), 1.0 + 1e-9);

  // Each decode replica records one migrate-in span per imported unit, and
  // a same-request link transfer explains every one.
  const auto& tracks = eng.LastTrace();
  ASSERT_EQ(tracks.size(), m.per_replica.size() + 1);  // + the router track.
  for (size_t i = static_cast<size_t>(cfg.prefill_replicas); i < m.per_replica.size(); ++i) {
    SCOPED_TRACE(tracks[i].name);
    // Below capacity, the ring has dropped nothing.
    ASSERT_LT(static_cast<int64_t>(tracks[i].events.size()), cfg.engine.trace.capacity);
    const obs::TraceQuery query(tracks[i].events);
    EXPECT_GT(m.per_replica[i].num_migrations_in, 0);
    EXPECT_EQ(query.CountName(obs::TraceName::kReqMigrateIn),
              m.per_replica[i].num_migrations_in);
    EXPECT_TRUE(query.UnexplainedMigrationWaits().empty());
  }
}

// Decode-pool rejection fallback: when no decode replica has KV headroom
// for a unit, it decodes where it prefilled instead of wedging — and the
// run still completes every request.
TEST(DisaggCluster, RetainsWhenDecodePoolFull) {
  ClusterConfig cfg = DisaggConfig();
  cfg.num_replicas = 2;
  cfg.prefill_replicas = 1;
  // Tiny per-replica KV: long-decode units overflow the single decode
  // replica, forcing retain fallbacks.
  cfg.engine.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg.engine, 6000);
  Rng rng(29);
  auto workload =
      serving::UniformWorkload(rng, 40, 60.0, 512, 2048, /*output_len=*/256);
  const ClusterMetrics m = ClusterEngine(cfg).Run(workload);

  EXPECT_GT(m.prefill_pool.num_migrations_retained, 0);
  EXPECT_EQ(m.decode_pool.num_migrations_retained, 0);
  EXPECT_EQ(m.aggregate.ttft_ms.size() +
                static_cast<size_t>(m.aggregate.rejected_requests),
            workload.size());
  // Retained units emit their decode tokens on the prefill replica.
  if (m.prefill_pool.num_migrations_retained > 0) {
    EXPECT_GT(m.prefill_pool.itl_ms.size() + m.prefill_pool.branch_stalls.size(),
              0u);
  }
}

// The driver steps the prefill pool to its NextEventTime() in an unbounded
// loop, so every such step must make progress. F fills the decode replica
// and every later unit is retained on the prefill replica, where P1 evicts
// A, B (which outranks A) takes A's room and P2 evicts B. When P2 finishes,
// B restores as a swap-in and A stays blocked behind B's reserve with
// nothing running; the prefill replica's next event is B's transfer end.
TEST(DisaggCluster, BlockedRestoreOnPrefillReplicaStillDrains) {
  ClusterConfig cfg = DisaggConfig();
  cfg.num_replicas = 2;
  cfg.prefill_replicas = 1;
  cfg.engine.preemption.enabled = true;
  cfg.engine.preemption.restore = serving::RestorePolicy::kSwap;
  cfg.engine.preemption.overlap_swap = true;
  cfg.engine.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg.engine, 10000);
  const auto req = [](int id, double arrival, int64_t in, int64_t out, int priority) {
    Request r;
    r.id = id;
    r.arrival_s = arrival;
    r.input_len = in;
    r.output_len = out;
    r.priority = priority;
    return r;
  };
  const std::vector<Request> workload = {req(0, 0.0, 8000, 1000, 0),    // F
                                         req(1, 0.5, 8500, 400, 0),     // A
                                         req(2, 1.5, 2000, 20, 2),      // P1
                                         req(3, 1.55, 4500, 300, 1),    // B
                                         req(4, 2.0, 5500, 30, 3)};     // P2
  const ClusterMetrics m = ClusterEngine(cfg).Run(workload);

  EXPECT_EQ(m.aggregate.num_migrations_out, 1);
  EXPECT_EQ(m.aggregate.num_migrations_retained, 4);
  EXPECT_EQ(m.prefill_pool.num_preemptions, 2);
  EXPECT_EQ(m.prefill_pool.num_swap_restores, 2);
  EXPECT_GT(m.prefill_pool.swap_stall_ms, 0.0);  // Idled on B's swap-in.
  EXPECT_EQ(m.aggregate.ttft_ms.size(), workload.size());
  int64_t expected = 0;
  for (const auto& r : workload) expected += r.output_len;
  EXPECT_EQ(m.aggregate.total_output_tokens, expected);
}

// Determinism: back-to-back runs on one ClusterEngine are identical.
TEST(DisaggCluster, BackToBackRunsIdentical) {
  const auto workload = DisaggWorkload(53);
  ClusterConfig cfg = DisaggConfig();
  cfg.engine.telemetry.enabled = true;
  ClusterEngine eng(cfg);
  const ClusterMetrics a = eng.Run(workload);
  const ClusterMetrics b = eng.Run(workload);

  EXPECT_DOUBLE_EQ(b.makespan_s, a.makespan_s);
  EXPECT_EQ(b.aggregate.num_migrations_out, a.aggregate.num_migrations_out);
  EXPECT_EQ(b.aggregate.num_migrations_retained, a.aggregate.num_migrations_retained);
  EXPECT_EQ(b.aggregate.num_steps, a.aggregate.num_steps);
  EXPECT_EQ(b.aggregate.total_output_tokens, a.aggregate.total_output_tokens);
  EXPECT_DOUBLE_EQ(b.aggregate.total_migration_ms, a.aggregate.total_migration_ms);
  EXPECT_DOUBLE_EQ(b.aggregate.migration_hidden_ms, a.aggregate.migration_hidden_ms);
  EXPECT_DOUBLE_EQ(b.aggregate.migration_stall_ms, a.aggregate.migration_stall_ms);
  ASSERT_EQ(b.aggregate.itl_ms.size(), a.aggregate.itl_ms.size());
  for (size_t i = 0; i < a.aggregate.itl_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(b.aggregate.itl_ms[i], a.aggregate.itl_ms[i]);
  }
  EXPECT_EQ(b.replica_requests, a.replica_requests);
}

// Unified mode must be untouched by the disaggregated driver: the refactored
// route/step path with disaggregated=false reproduces a pre-refactor
// invariant (single replica == plain engine) exactly.
TEST(DisaggCluster, UnifiedModeUnchangedBySplitDriver) {
  Rng rng(77);
  const auto workload = serving::ShareGptWorkload(rng, 40, 20.0);
  ServingEngine engine(BaseConfig());
  const ServingMetrics em = engine.Run(workload);

  ClusterConfig cfg;
  cfg.engine = BaseConfig();
  cfg.num_replicas = 1;
  const ClusterMetrics cm = ClusterEngine(cfg).Run(workload);
  EXPECT_DOUBLE_EQ(cm.aggregate.makespan_s, em.makespan_s);
  EXPECT_EQ(cm.aggregate.num_steps, em.num_steps);
  EXPECT_EQ(cm.aggregate.total_output_tokens, em.total_output_tokens);
  EXPECT_TRUE(cm.replica_pool.empty());  // Disagg fields stay zeroed.
  EXPECT_EQ(cm.aggregate.num_migrations_out, 0);
}

}  // namespace
}  // namespace flashinfer
