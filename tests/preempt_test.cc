// Priority preemption under KV pressure: engine-level preempt-or-queue
// behavior, swap and recompute restores, the tight-KV admission-wedge
// regression, and KV-headroom routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "cluster/router.h"
#include "serving/engine.h"

namespace flashinfer {
namespace {

using serving::BatchPolicy;
using serving::EngineConfig;
using serving::Request;
using serving::RestorePolicy;
using serving::ServingEngine;
using serving::ServingMetrics;

// --- Engine preemption -------------------------------------------------------

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
  return cfg;
}

Request MakeReq(int id, double arrival, int64_t in, int64_t out, int priority) {
  Request r;
  r.id = id;
  r.arrival_s = arrival;
  r.input_len = in;
  r.output_len = out;
  r.priority = priority;
  return r;
}

// Regression for the PR 1 tight-KV wedge: a request whose KV need exceeds
// the total budget used to strand the arrival queue until the engine went
// idle and aborted on a loud FI_CHECK (engine.cc idle branch). The exact
// shape that tripped it — tight budget, an oversized request behind normal
// traffic — must now complete, with the oversized request *rejected* (with
// a metric) and KV pressure resolved by preemptions instead of a crash.
TEST(Preemption, TightKvWedgeConfigNowCompletesWithPreemptions) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 6000);
  ServingEngine engine(cfg);
  ASSERT_LT(engine.KvTokenBudget(), 6100);
  ASSERT_GE(engine.KvTokenBudget(), 5900);

  std::vector<Request> reqs;
  reqs.push_back(MakeReq(0, 0.0, 3000, 400, /*priority=*/0));   // Low, long-lived.
  reqs.push_back(MakeReq(1, 0.3, 4000, 64, /*priority=*/1));    // Forces preemption.
  reqs.push_back(MakeReq(2, 0.5, 9000, 16, /*priority=*/1));    // Can NEVER fit.
  const auto m = engine.Run(reqs);

  EXPECT_EQ(m.rejected_requests, 1);
  EXPECT_GE(m.num_preemptions, 1);
  ASSERT_EQ(m.ttft_ms.size(), 2u);  // Both feasible requests completed.
  EXPECT_EQ(m.total_output_tokens, 400 + 64);
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.HostKvTokensInUse(), 0);
  EXPECT_EQ(engine.SpecKvLivePages(), 0);
  EXPECT_TRUE(engine.Finished());
}

// Without preemption the same infeasible request is still rejected (the
// graceful replacement for the FI_CHECK abort) and everything else simply
// queues for capacity.
TEST(Preemption, VanillaEngineRejectsInfeasibleInsteadOfWedging) {
  auto cfg = BaseConfig();
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 6000);
  ServingEngine engine(cfg);
  std::vector<Request> reqs;
  reqs.push_back(MakeReq(0, 0.0, 3000, 64, 0));
  reqs.push_back(MakeReq(1, 0.1, 9000, 16, 0));  // need > total budget.
  reqs.push_back(MakeReq(2, 0.2, 2000, 32, 0));
  const auto m = engine.Run(reqs);
  EXPECT_EQ(m.rejected_requests, 1);
  EXPECT_EQ(m.num_preemptions, 0);
  ASSERT_EQ(m.ttft_ms.size(), 2u);
  EXPECT_EQ(m.total_output_tokens, 64 + 32);
  EXPECT_EQ(engine.KvTokensInUse(), 0);
}

// Victim policy: lowest priority first, then youngest (latest arrival). The
// victims carry distinct context lengths so the recompute-restore token
// count identifies which branch was evicted.
TEST(Preemption, VictimIsLowestPriorityThenYoungest) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kRecompute;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 6000);
  ServingEngine engine(cfg);

  std::vector<Request> reqs;
  reqs.push_back(MakeReq(0, 0.00, 400, 400, 0));   // Oldest low.
  reqs.push_back(MakeReq(1, 0.05, 800, 400, 0));   // Middle low.
  reqs.push_back(MakeReq(2, 0.10, 2000, 400, 0));  // Youngest low -> victim.
  reqs.push_back(MakeReq(3, 0.50, 2500, 100, 1));  // High-priority arrival.
  const auto m = engine.Run(reqs);

  EXPECT_EQ(m.num_preemptions, 1);
  EXPECT_EQ(m.num_recompute_restores, 1);
  // The evicted context was request 2's: >= its 2000-token prompt (plus the
  // tokens it had decoded by eviction time), not the 400/800 prompts.
  EXPECT_GE(m.recompute_tokens, 2000);
  EXPECT_LT(m.recompute_tokens, 2400);
  EXPECT_EQ(m.total_output_tokens, 3 * 400 + 100);
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.SpecKvLivePages(), 0);
}

// Restore order: highest priority first, then eviction order within a
// priority. A priority-2 arrival evicts all four residents, youngest
// priority-0 branch first and the priority-1 branch last; the victims
// restore priority 1 first, then the priority-0 branches in the order they
// were evicted, which is the reverse of their arrival and id order.
TEST(Preemption, RestoresHighestPriorityFirstThenEvictionOrder) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kRecompute;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 6000);
  cfg.trace.enabled = true;
  ServingEngine engine(cfg);

  std::vector<Request> reqs;
  reqs.push_back(MakeReq(0, 0.00, 1000, 400, 0));
  reqs.push_back(MakeReq(1, 0.01, 1000, 400, 0));
  reqs.push_back(MakeReq(2, 0.02, 1000, 400, 0));
  reqs.push_back(MakeReq(3, 0.03, 1000, 400, 1));
  // Needs 5,058 of the 6,000 tokens: only evicting all four residents
  // (1,408 each) makes room.
  reqs.push_back(MakeReq(4, 0.50, 5000, 50, 2));
  const auto m = engine.Run(reqs);

  std::vector<int> evicted;
  std::vector<int> restored;
  for (const auto& e : engine.TraceEvents()) {
    if (e.name == obs::TraceName::kKvEvictSwap || e.name == obs::TraceName::kKvEvictDrop) {
      evicted.push_back(e.req);
    } else if (e.name == obs::TraceName::kKvRestoreSwap ||
               e.name == obs::TraceName::kKvRestoreRecompute) {
      restored.push_back(e.req);
    }
  }
  EXPECT_EQ(evicted, (std::vector<int>{2, 1, 0, 3}));
  EXPECT_EQ(restored, (std::vector<int>{3, 2, 1, 0}));
  EXPECT_EQ(m.num_preemptions, 4);
  EXPECT_EQ(m.total_output_tokens, 4 * 400 + 50);
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.SpecKvLivePages(), 0);
}

TEST(Preemption, SwapRestoreRoundTripsPagesExactly) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 6000);
  ServingEngine engine(cfg);

  std::vector<Request> reqs;
  reqs.push_back(MakeReq(0, 0.0, 3000, 400, 0));
  reqs.push_back(MakeReq(1, 0.5, 4000, 100, 1));
  const auto m = engine.Run(reqs);

  EXPECT_GE(m.num_preemptions, 1);
  EXPECT_EQ(m.num_recompute_restores, 0);
  EXPECT_EQ(m.num_swap_restores, m.num_preemptions);
  EXPECT_GT(m.evicted_pages, 0);
  EXPECT_EQ(m.restored_pages, m.evicted_pages);
  EXPECT_GT(m.total_swap_ms, 0.0);
  EXPECT_EQ(m.recompute_tokens, 0);
  EXPECT_EQ(m.total_output_tokens, 400 + 100);
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.HostKvTokensInUse(), 0);
  EXPECT_EQ(engine.SpecKvLivePages(), 0);
}

// Anti-starvation: freed capacity drains to the waiting victim before any
// equal-or-lower-priority arrival is admitted. The victim below has the
// largest reserve in a pool of small same-priority jobs (and is youngest,
// so it IS the one evicted); without the rule, every small completion's
// freed increment is immediately re-occupied by the next small arrival and
// the victim waits out the whole stream — with it, the victim restores as
// soon as two resident jobs have finished.
TEST(Preemption, RestoreOutranksEqualPriorityArrivals) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 2700);
  ServingEngine engine(cfg);

  std::vector<Request> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(MakeReq(i, 0.1 * i, 200, 150, 0));  // Small residents (358).
  }
  reqs.push_back(MakeReq(4, 0.4, 800, 400, 0));  // Victim: youngest, 1208.
  reqs.push_back(MakeReq(5, 0.5, 300, 190, 1));  // Preemptor (498).
  for (int i = 0; i < 16; ++i) {
    // Equal-priority stream that would otherwise re-occupy every increment.
    reqs.push_back(MakeReq(6 + i, 0.6 + 0.1 * i, 200, 150, 0));
  }
  const auto m = engine.Run(reqs);
  EXPECT_EQ(m.num_preemptions, 1);
  EXPECT_EQ(m.num_swap_restores + m.num_recompute_restores, 1);
  ASSERT_EQ(m.ttft_ms.size(), reqs.size());
  // The victim only waits for two resident completions, not the stream.
  EXPECT_LT(m.preempt_stall_steps, 200);
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.SpecKvLivePages(), 0);
}

TEST(Preemption, PreemptionIdleUnderLooseBudgetMatchesVanilla) {
  Rng rng(77);
  const auto reqs = serving::ShareGptWorkload(rng, 30, 20.0);
  auto cfg = BaseConfig();  // 80 GB: no pressure.
  const auto vanilla = ServingEngine(cfg).Run(reqs);
  cfg.preemption.enabled = true;
  const auto preempt = ServingEngine(cfg).Run(reqs);
  // With headroom, full-output reservation changes nothing observable.
  EXPECT_EQ(preempt.num_preemptions, 0);
  EXPECT_EQ(preempt.rejected_requests, 0);
  EXPECT_DOUBLE_EQ(preempt.makespan_s, vanilla.makespan_s);
  EXPECT_EQ(preempt.num_steps, vanilla.num_steps);
  EXPECT_EQ(preempt.total_output_tokens, vanilla.total_output_tokens);
}

TEST(Preemption, HighPriorityTtftProtectedUnderPressure) {
  Rng rng(11);
  auto reqs = serving::UniformWorkload(rng, 60, 30.0, 512, 1024, 128);
  // Deterministic mix: every 5th request is interactive (priority 1).
  for (size_t i = 0; i < reqs.size(); ++i) reqs[i].priority = i % 5 == 0 ? 1 : 0;
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 8000);
  ServingEngine engine(cfg);
  const auto m = engine.Run(reqs);
  EXPECT_GT(m.num_preemptions, 0);
  EXPECT_EQ(m.ttft_ms.size(), m.ttft_priority.size());
  // Preemption exists to protect the high class: its admission tail must
  // beat the low class's under the same pressure.
  EXPECT_LT(m.TtftPercentileMsForPriority(1, 0.95),
            m.TtftPercentileMsForPriority(0, 0.95));
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.SpecKvLivePages(), 0);
}

TEST(Preemption, RunEqualsStepToUnderPressure) {
  Rng rng(13);
  auto reqs = serving::UniformWorkload(rng, 40, 25.0, 512, 1024, 96);
  serving::AssignPriorities(rng, reqs, {0.7, 0.3});
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 8000);

  ServingEngine reference(cfg);
  const auto run = reference.Run(reqs);
  ASSERT_GT(run.num_preemptions, 0);

  ServingEngine stepped(cfg);
  stepped.Reset();
  for (const auto& r : reqs) stepped.Admit(r);
  while (!stepped.Finished()) {
    stepped.StepTo(stepped.NextEventTime() + 0.02);
  }
  const auto& st = stepped.Metrics();
  EXPECT_DOUBLE_EQ(st.makespan_s, run.makespan_s);
  EXPECT_EQ(st.num_steps, run.num_steps);
  EXPECT_EQ(st.total_output_tokens, run.total_output_tokens);
  EXPECT_EQ(st.num_preemptions, run.num_preemptions);
  EXPECT_EQ(st.num_swap_restores, run.num_swap_restores);
  EXPECT_EQ(st.num_recompute_restores, run.num_recompute_restores);
  EXPECT_DOUBLE_EQ(st.total_swap_ms, run.total_swap_ms);
}

// --- Swap transfers on the copy streams (PreemptionConfig::overlap_swap) ----

// Overlap mode lets steps run while the per-direction copy streams move KV:
// transfer time hides behind compute (swap_hidden_ms), and only genuine
// copy-waits surface as swap_stall_ms.
TEST(Preemption, OverlapSwapHidesTransferTimeAndDrainsClean) {
  Rng rng(13);
  auto reqs = serving::UniformWorkload(rng, 40, 25.0, 512, 1024, 96);
  serving::AssignPriorities(rng, reqs, {0.7, 0.3});
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  cfg.preemption.overlap_swap = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 8000);
  ServingEngine engine(cfg);
  const auto m = engine.Run(reqs);

  ASSERT_GT(m.num_preemptions, 0);
  EXPECT_GT(m.total_swap_ms, 0.0);
  // Under a busy engine, most transfer time overlaps attention.
  EXPECT_GT(m.swap_hidden_ms, 0.0);
  EXPECT_LE(m.swap_hidden_ms, m.total_swap_ms * (1.0 + 1e-9));
  EXPECT_GE(m.SwapOverlapEfficiency().value_or(0.0), 0.0);
  EXPECT_LE(m.SwapOverlapEfficiency().value_or(0.0), 1.0 + 1e-9);
  // All of the two-tier accounting still closes out.
  EXPECT_EQ(m.num_swap_restores, m.num_preemptions);
  EXPECT_EQ(m.restored_pages, m.evicted_pages);
  EXPECT_EQ(m.ttft_ms.size() + static_cast<size_t>(m.rejected_requests),
            reqs.size());
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.HostKvTokensInUse(), 0);
  EXPECT_EQ(engine.SpecKvLivePages(), 0);
  EXPECT_TRUE(engine.Finished());
}

// Serialized swaps stall the engine for every transfer (here one direction
// at a time, so stall == total); overlap mode must stall strictly less on the
// same pressured workload while completing the same tokens.
TEST(Preemption, OverlapSwapStallsLessThanSerialized) {
  Rng rng(13);
  auto reqs = serving::UniformWorkload(rng, 40, 25.0, 512, 1024, 96);
  serving::AssignPriorities(rng, reqs, {0.7, 0.3});
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 8000);

  const auto serial = ServingEngine(cfg).Run(reqs);
  ASSERT_GT(serial.num_preemptions, 0);
  EXPECT_NEAR(serial.swap_stall_ms, serial.total_swap_ms,
              1e-9 * std::max(1.0, serial.total_swap_ms));
  EXPECT_DOUBLE_EQ(serial.swap_hidden_ms, 0.0);

  cfg.preemption.overlap_swap = true;
  const auto overlap = ServingEngine(cfg).Run(reqs);
  ASSERT_GT(overlap.num_preemptions, 0);
  EXPECT_LT(overlap.swap_stall_ms, serial.swap_stall_ms);
  EXPECT_EQ(overlap.total_output_tokens, serial.total_output_tokens);
  EXPECT_LE(overlap.makespan_s, serial.makespan_s * 1.001);
}

// Serialized swaps gate admission, not only the step. Request 2 evicts both
// residents (the younger, smaller one first, which alone does not make room)
// and is admitted in the same admission. The younger victim's reserve then
// fits again, but it must not restore before the gate lifts: a second
// admission at that instant would re-admit a branch whose swap-out is still
// on the D2H stream. Stepping to just past each next event lands a deadline
// inside every gate, and must still match Run().
TEST(Preemption, SerializedSwapGatesAdmissionLikeRun) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 10000);
  const std::vector<Request> reqs = {MakeReq(0, 0.0, 5000, 400, 0),
                                     MakeReq(1, 0.01, 1000, 400, 0),
                                     MakeReq(2, 0.5, 6000, 8, 1)};

  ServingEngine reference(cfg);
  const auto run = reference.Run(reqs);
  ASSERT_EQ(run.num_preemptions, 2);
  ASSERT_EQ(run.num_swap_restores, 2);
  EXPECT_DOUBLE_EQ(run.swap_hidden_ms, 0.0);

  ServingEngine stepped(cfg);
  stepped.Reset();
  for (const auto& r : reqs) stepped.Admit(r);
  for (int64_t i = 0; i < 100000 && !stepped.Finished(); ++i) {
    stepped.StepTo(stepped.NextEventTime() + 1e-6);  // Under any transfer.
  }
  ASSERT_TRUE(stepped.Finished());
  const auto& st = stepped.Metrics();
  EXPECT_DOUBLE_EQ(st.makespan_s, run.makespan_s);
  EXPECT_EQ(st.num_steps, run.num_steps);
  EXPECT_EQ(st.num_idle_skips, run.num_idle_skips);
  EXPECT_DOUBLE_EQ(st.swap_stall_ms, run.swap_stall_ms);
  EXPECT_DOUBLE_EQ(st.total_swap_ms, run.total_swap_ms);
  EXPECT_EQ(st.ttft_ms, run.ttft_ms);
  EXPECT_EQ(st.itl_ms, run.itl_ms);
}

// The two PCIe directions run concurrently even when serialized. When P1
// finishes, one admission restores C (H2D) and evicts A for P2 (D2H): the
// engine stalls for the longer of the two, so the stall is the union of the
// copy-stream spans, strictly below the summed transfer time.
TEST(Preemption, SerializedSwapStallIsTheUnionOfTransfers) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  cfg.trace.enabled = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 10000);
  const std::vector<Request> reqs = {MakeReq(0, 0.0, 3000, 400, 0),    // A
                                     MakeReq(1, 0.0, 2000, 400, 0),    // C
                                     MakeReq(2, 0.3, 6000, 8, 2),      // P1
                                     MakeReq(3, 0.31, 5000, 8, 2)};    // P2
  ServingEngine engine(cfg);
  const auto m = engine.Run(reqs);
  ASSERT_EQ(m.num_preemptions, 2);
  ASSERT_EQ(m.num_swap_restores, 2);

  std::vector<std::pair<double, double>> copies;  // (begin, end), ms.
  double summed_ms = 0.0;
  for (const auto& e : engine.TraceEvents()) {
    if (e.name != obs::TraceName::kCopyD2H && e.name != obs::TraceName::kCopyH2D) continue;
    copies.emplace_back(e.ts_us * 1e-3, (e.ts_us + e.dur_us) * 1e-3);
    summed_ms += e.dur_us * 1e-3;
  }
  ASSERT_EQ(copies.size(), 4u);
  std::sort(copies.begin(), copies.end());
  double union_ms = 0.0, covered_to = 0.0;
  for (const auto& [begin, end] : copies) {
    union_ms += std::max(0.0, end - std::max(begin, covered_to));
    covered_to = std::max(covered_to, end);
  }
  EXPECT_NEAR(summed_ms, m.total_swap_ms, 1e-9 * m.total_swap_ms);
  EXPECT_NEAR(m.swap_stall_ms, union_ms, 1e-9 * union_ms);
  EXPECT_LT(m.swap_stall_ms, m.total_swap_ms * 0.9);  // One pair overlapped.
  EXPECT_DOUBLE_EQ(m.swap_hidden_ms, 0.0);
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.HostKvTokensInUse(), 0);
}

// Run() ≡ StepTo with overlapped transfers in flight: NextEventTime and the
// idle-path wake logic must agree on ready-time candidates, or external
// drivers would diverge from the internal drain loop.
TEST(Preemption, OverlapSwapRunEqualsStepTo) {
  Rng rng(13);
  auto reqs = serving::UniformWorkload(rng, 40, 25.0, 512, 1024, 96);
  serving::AssignPriorities(rng, reqs, {0.7, 0.3});
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  cfg.preemption.overlap_swap = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 8000);

  ServingEngine reference(cfg);
  const auto run = reference.Run(reqs);
  ASSERT_GT(run.num_preemptions, 0);

  ServingEngine stepped(cfg);
  stepped.Reset();
  for (const auto& r : reqs) stepped.Admit(r);
  while (!stepped.Finished()) {
    stepped.StepTo(stepped.NextEventTime() + 0.02);
  }
  const auto& st = stepped.Metrics();
  EXPECT_DOUBLE_EQ(st.makespan_s, run.makespan_s);
  EXPECT_EQ(st.num_steps, run.num_steps);
  EXPECT_EQ(st.total_output_tokens, run.total_output_tokens);
  EXPECT_EQ(st.num_preemptions, run.num_preemptions);
  EXPECT_EQ(st.num_swap_restores, run.num_swap_restores);
  EXPECT_DOUBLE_EQ(st.total_swap_ms, run.total_swap_ms);
  EXPECT_DOUBLE_EQ(st.swap_hidden_ms, run.swap_hidden_ms);
  EXPECT_DOUBLE_EQ(st.swap_stall_ms, run.swap_stall_ms);
}

// Admitting each request at its arrival, as the cluster driver does
// (StepTo(arrival); Admit), must match Run(). Request 2 preempts both
// long requests; when it finishes (0.6549 s) the next step restores them as
// swap-ins that land at 0.6953 s. With nothing runnable the engine idles,
// and that idle skip must stop at request 3's arrival (0.6555 s) instead of
// sleeping to the transfers' end, which delayed request 3's first token
// from 5.7 ms to 45.5 ms.
TEST(Preemption, OverlapSwapIdleStopsAtStepToDeadline) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  cfg.preemption.overlap_swap = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 13000);
  const std::vector<Request> reqs = {MakeReq(0, 0.0, 6000, 400, 0),
                                     MakeReq(1, 0.0, 6000, 400, 0),
                                     MakeReq(2, 0.02, 12400, 4, 1),
                                     MakeReq(3, 0.6555, 100, 20, 2)};
  const auto ttft_of_priority2 = [](const ServingMetrics& m) {
    const auto it = std::find(m.ttft_priority.begin(), m.ttft_priority.end(), 2);
    return it == m.ttft_priority.end() ? -1.0 : m.ttft_ms[it - m.ttft_priority.begin()];
  };

  ServingEngine reference(cfg);
  const auto run = reference.Run(reqs);
  ASSERT_EQ(run.num_preemptions, 2);
  EXPECT_LT(ttft_of_priority2(run), 10.0);

  ServingEngine stepped(cfg);
  stepped.Reset();
  for (const auto& r : reqs) {
    stepped.StepTo(r.arrival_s);
    stepped.Admit(r);
  }
  stepped.Drain();
  const auto& st = stepped.Metrics();
  EXPECT_DOUBLE_EQ(ttft_of_priority2(st), ttft_of_priority2(run));
  EXPECT_DOUBLE_EQ(st.makespan_s, run.makespan_s);
  EXPECT_EQ(st.num_steps, run.num_steps);
  EXPECT_EQ(st.num_swap_restores, run.num_swap_restores);
  EXPECT_DOUBLE_EQ(st.swap_stall_ms, run.swap_stall_ms);
  EXPECT_EQ(st.ttft_ms, run.ttft_ms);
  EXPECT_EQ(st.itl_ms, run.itl_ms);
}

// Stepping to NextEventTime() must always make progress. P1 evicts A; B
// outranks A, so it is admitted into A's room, and P2 evicts B in turn. When
// P2 finishes nothing is running: B restores as an H2D swap-in and A stays
// blocked behind B's reserve (4808 + 8908 > 10,000 tokens). The next event
// is then the swap-in landing, not `now`: reporting `now` made
// StepTo(NextEventTime()) return without moving, forever.
TEST(Preemption, BlockedRestoreHeadWakesAtTransferEnd) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  cfg.preemption.overlap_swap = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 10000);
  const std::vector<Request> reqs = {MakeReq(0, 0.0, 8500, 400, 0),    // A
                                     MakeReq(1, 1.0, 2000, 20, 2),     // P1
                                     MakeReq(2, 1.05, 4500, 300, 1),   // B
                                     MakeReq(3, 1.5, 5500, 30, 3)};    // P2

  ServingEngine reference(cfg);
  const auto run = reference.Run(reqs);
  ASSERT_EQ(run.num_preemptions, 2);
  ASSERT_EQ(run.num_swap_restores, 2);
  EXPECT_GT(run.swap_stall_ms, 0.0);  // The engine idled on B's swap-in.

  // Every round runs a step, an idle skip, an admission or a restore.
  const int64_t max_rounds = run.num_steps + run.num_idle_skips +
                             static_cast<int64_t>(reqs.size()) + run.num_swap_restores;
  ServingEngine stepped(cfg);
  stepped.Reset();
  for (const auto& r : reqs) stepped.Admit(r);
  int64_t rounds = 0;
  for (; rounds < max_rounds && !stepped.Finished(); ++rounds) {
    stepped.StepTo(stepped.NextEventTime());
  }
  ASSERT_TRUE(stepped.Finished()) << "no progress after " << rounds << " rounds";
  const auto& st = stepped.Metrics();
  EXPECT_DOUBLE_EQ(st.makespan_s, run.makespan_s);
  EXPECT_EQ(st.num_steps, run.num_steps);
  EXPECT_EQ(st.num_idle_skips, run.num_idle_skips);
  EXPECT_DOUBLE_EQ(st.swap_stall_ms, run.swap_stall_ms);
  EXPECT_EQ(st.ttft_ms, run.ttft_ms);
  EXPECT_EQ(st.itl_ms, run.itl_ms);
}

// Known divergence, disabled until batch formation changes: a swap-in whose
// transfer has landed should ride the next step, but FormStepPlan stops
// scanning once the step's prefill budget is spent, so a landed swap-in
// queued behind a prompt still being chunked waits for the prompt's last
// chunk, its KV back on the device. P evicts A; when B finishes, A's
// restore fits and queues behind P's 8,000-token prompt (16 chunks of 512),
// and A's transfer lands 11 steps before A resumes. Enable this case when
// zero-token transfer chunks pass a spent budget.
TEST(Preemption, DISABLED_LandedSwapInRidesTheNextStepBehindPrompts) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  cfg.preemption.overlap_swap = true;
  cfg.prefill_chunk_tokens = 512;
  cfg.trace.enabled = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 14000);
  const std::vector<Request> reqs = {MakeReq(0, 0.0, 4000, 100, 0),    // A
                                     MakeReq(1, 0.0, 4000, 3, 1),      // B
                                     MakeReq(2, 0.19, 8000, 20, 2)};   // P
  ServingEngine engine(cfg);
  const auto m = engine.Run(reqs);
  ASSERT_EQ(m.num_preemptions, 1);
  ASSERT_EQ(m.num_swap_restores, 1);
  const auto events = engine.TraceEvents();
  double landed_us = -1.0, resumed_us = -1.0;
  for (const auto& e : events) {
    if (e.req != 0) continue;
    if (e.name == obs::TraceName::kCopyH2D) landed_us = e.ts_us + e.dur_us;
    if (e.name == obs::TraceName::kReqSwapIn) resumed_us = e.ts_us + e.dur_us;
  }
  ASSERT_GT(landed_us, 0.0);
  ASSERT_GT(resumed_us, landed_us);
  // Steps that start once the transfer has landed, up to the one carrying
  // A's chunk, which ends at the resume. Span ends are sums of rounded
  // microseconds: compare to the ns.
  int steps = 0;
  for (const auto& e : events) {
    steps += e.name == obs::TraceName::kStep && e.ts_us > landed_us - 1e-3 &&
             e.ts_us < resumed_us - 1e-3;
  }
  EXPECT_EQ(steps, 1);
}

TEST(Preemption, SpecDecodeCoexistsAndDrainsClean) {
  Rng rng(17);
  auto reqs = serving::UniformWorkload(rng, 40, 40.0, 256, 768, 96);
  serving::AssignPriorities(rng, reqs, {0.7, 0.3});
  serving::AssignAcceptance(rng, reqs, 0.5, 0.9);
  auto cfg = BaseConfig();
  cfg.spec.enabled = true;
  cfg.preemption.enabled = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 4000);
  ServingEngine engine(cfg);
  const auto m = engine.Run(reqs);
  EXPECT_GT(m.num_preemptions, 0);
  EXPECT_GT(m.spec_steps, 0);
  EXPECT_EQ(m.ttft_ms.size() + static_cast<size_t>(m.rejected_requests),
            reqs.size());
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.HostKvTokensInUse(), 0);
  EXPECT_EQ(engine.SpecKvLivePages(), 0);
}

// --- KV-headroom routing -----------------------------------------------------

TEST(RouterHeadroom, LeastLoadedAvoidsPressuredReplica) {
  auto router = cluster::CreateRouter(cluster::RouterPolicy::kLeastLoaded);
  std::vector<cluster::ReplicaView> views(2);
  views[0].replica = 0;
  views[0].queued_tokens = 100;  // Lightest load...
  views[0].kv_tokens_in_use = 9950;
  views[0].kv_token_budget = 10000;  // ...but only 50 tokens of headroom.
  views[1].replica = 1;
  views[1].queued_tokens = 5000;
  views[1].kv_tokens_in_use = 1000;
  views[1].kv_token_budget = 100000;

  Request r = MakeReq(0, 0.0, 512, 128, 0);
  EXPECT_EQ(router->Route(r, views), 1);
  EXPECT_EQ(router->Stats().pressure_fallbacks, 1);
  // With every replica pressured, fall back to plain least-loaded.
  views[1].kv_tokens_in_use = 99990;
  EXPECT_EQ(router->Route(r, views), 0);
}

TEST(RouterHeadroom, PrefixAffinityShedsFromPressuredTarget) {
  RadixTree cache0(16), cache1(16);
  std::vector<int32_t> prompt(64);
  for (int i = 0; i < 64; ++i) prompt[i] = 1000 + i;
  std::vector<int64_t> pages(4);
  for (int i = 0; i < 4; ++i) pages[static_cast<size_t>(i)] = i;
  cache0.Insert(prompt, pages);  // Replica 0 holds the prefix.

  std::vector<cluster::ReplicaView> views(2);
  views[0].replica = 0;
  views[0].prefix_cache = &cache0;
  views[0].kv_token_budget = 10000;
  views[1].replica = 1;
  views[1].prefix_cache = &cache1;
  views[1].kv_token_budget = 10000;

  Request r = MakeReq(0, 0.0, 64, 64, 0);
  r.prompt_tokens = prompt;

  auto router = cluster::CreateRouter(cluster::RouterPolicy::kPrefixAffinity);
  EXPECT_EQ(router->Route(r, views), 0);  // Affinity wins with headroom.
  EXPECT_EQ(router->Stats().affinity_hits, 1);

  views[0].kv_tokens_in_use = 9990;  // Pressure the affinity target.
  EXPECT_EQ(router->Route(r, views), 1);
  EXPECT_EQ(router->Stats().pressure_fallbacks, 1);
}

// The load fallback fires above 1.5 x max(mean load, 2048 tokens). With one
// of two replicas loaded, the mean stays under the floor up to 4,096 tokens,
// so the cap is 3,072 queued tokens.
TEST(RouterHeadroom, PrefixAffinityShedsAboveImbalanceCap) {
  RadixTree cache0(16), cache1(16);
  std::vector<int32_t> prompt(64);
  for (int i = 0; i < 64; ++i) prompt[i] = 1000 + i;
  const std::vector<int64_t> pages = {0, 1, 2, 3};
  cache0.Insert(prompt, pages);  // Replica 0 holds the prefix.

  std::vector<cluster::ReplicaView> views(2);
  views[0].replica = 0;
  views[0].prefix_cache = &cache0;
  views[1].replica = 1;
  views[1].prefix_cache = &cache1;

  Request r = MakeReq(0, 0.0, 64, 64, 0);
  r.prompt_tokens = prompt;

  auto router = cluster::CreateRouter(cluster::RouterPolicy::kPrefixAffinity);
  views[0].queued_tokens = 3072;  // Mean 1,536: at the cap, affinity holds.
  EXPECT_EQ(router->Route(r, views), 0);
  EXPECT_EQ(router->Stats().load_fallbacks, 0);

  views[0].queued_tokens = 3073;  // One token over: shed to the idle replica.
  EXPECT_EQ(router->Route(r, views), 1);
  EXPECT_EQ(router->Stats().load_fallbacks, 1);
}

// --- Overlap-efficiency disambiguation ---------------------------------------

// Regression: the accessors used to return 0.0 both when NO transfer occurred
// and when transfers occurred but nothing was hidden — callers (bench gates,
// report tables) could not tell the cases apart. Pin the optional contract.
TEST(OverlapEfficiency, NoTrafficIsNulloptZeroHiddenIsZero) {
  ServingMetrics m;
  EXPECT_FALSE(m.SwapOverlapEfficiency().has_value());
  EXPECT_FALSE(m.MigrationOverlapEfficiency().has_value());

  m.total_swap_ms = 12.0;  // Traffic, nothing hidden: a real 0.0.
  ASSERT_TRUE(m.SwapOverlapEfficiency().has_value());
  EXPECT_DOUBLE_EQ(*m.SwapOverlapEfficiency(), 0.0);
  m.swap_hidden_ms = 6.0;
  EXPECT_DOUBLE_EQ(*m.SwapOverlapEfficiency(), 0.5);

  m.total_migration_ms = 4.0;
  ASSERT_TRUE(m.MigrationOverlapEfficiency().has_value());
  EXPECT_DOUBLE_EQ(*m.MigrationOverlapEfficiency(), 0.0);
  m.migration_hidden_ms = 4.0;
  EXPECT_DOUBLE_EQ(*m.MigrationOverlapEfficiency(), 1.0);

  // Hidden and total time are summed over different intervals: a rounding
  // overshoot past the total still reads as exactly 1.
  m.swap_hidden_ms = m.total_swap_ms * (1.0 + 1e-15);
  ASSERT_GT(m.swap_hidden_ms, m.total_swap_ms);
  EXPECT_EQ(*m.SwapOverlapEfficiency(), 1.0);
  m.migration_hidden_ms = m.total_migration_ms * (1.0 + 1e-15);
  ASSERT_GT(m.migration_hidden_ms, m.total_migration_ms);
  EXPECT_EQ(*m.MigrationOverlapEfficiency(), 1.0);
}

// --- Host-tier codec (quantized + compressed swap) ---------------------------

std::vector<Request> CodecWorkload() {
  Rng rng(13);
  auto reqs = serving::UniformWorkload(rng, 40, 25.0, 512, 1024, 96);
  serving::AssignPriorities(rng, reqs, {0.7, 0.3});
  return reqs;
}

// Codec-off must stay bit-identical to the pre-codec two-tier engine: no
// codec time is priced and no codec metric accrues beyond logical == stored.
TEST(KvCodec, CodecOffPricesNoCodecTime) {
  const auto reqs = CodecWorkload();
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 8000);
  const auto base = ServingEngine(cfg).Run(reqs);
  ASSERT_GT(base.num_preemptions, 0);

  EXPECT_DOUBLE_EQ(base.codec_encode_ms, 0.0);
  EXPECT_DOUBLE_EQ(base.codec_decode_ms, 0.0);
  EXPECT_EQ(base.quant_mse_pages, 0);
  EXPECT_DOUBLE_EQ(base.evicted_stored_bytes, base.evicted_logical_bytes);
  EXPECT_DOUBLE_EQ(base.HostStoredRatio(), 1.0);
  EXPECT_DOUBLE_EQ(base.MeanPageQuantMse(), 0.0);
}

// Codec on: every invariant the raw tier keeps must still close out after
// drain, and the codec series must be live — stored < logical bytes, encode
// and decode time accrued (decode priced into restores), a nonzero bounded
// accuracy proxy.
TEST(KvCodec, QuantizedSwapConservesTokensAndMetersCodecSeries) {
  const auto reqs = CodecWorkload();
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  cfg.preemption.host_codec = {KvQuantFormat::kInt8, /*compress=*/true};
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 8000);
  ServingEngine engine(cfg);
  const auto m = engine.Run(reqs);

  ASSERT_GT(m.num_preemptions, 0);
  ASSERT_GT(m.num_swap_restores, 0);
  // Conservation: the two-tier token meters drain to zero.
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.HostKvTokensInUse(), 0);
  EXPECT_EQ(engine.SpecKvLivePages(), 0);
  EXPECT_EQ(m.restored_pages, m.evicted_pages);
  // Codec series: encoded pages are strictly smaller than logical, both
  // codec passes are priced, and the accuracy proxy is nonzero but bounded.
  EXPECT_GT(m.evicted_logical_bytes, 0.0);
  EXPECT_LT(m.evicted_stored_bytes, m.evicted_logical_bytes);
  EXPECT_GT(m.HostStoredRatio(), 0.0);
  EXPECT_LT(m.HostStoredRatio(), 1.0);
  EXPECT_GT(m.codec_encode_ms, 0.0);
  EXPECT_GT(m.codec_decode_ms, 0.0);
  EXPECT_GT(m.quant_mse_pages, 0);
  EXPECT_GT(m.MeanPageQuantMse(), 0.0);
  EXPECT_LT(m.MeanPageQuantMse(), 1.0);  // Synthetic fill spans [-1, 1).
}

// Same workload with the same nominal host capacity: the codec tier must
// admit at least as many swap restores as the raw tier (stored bytes shrink,
// so effective capacity can only grow), and total swap_ms reflects the extra
// encode/decode passes priced into each transfer.
TEST(KvCodec, StoredByteMeteringMultipliesEffectiveHostCapacity) {
  const auto reqs = CodecWorkload();
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  // Tight host tier: the raw path must be forced to drop some victims to
  // recompute so codec headroom is observable.
  cfg.preemption.host_capacity_gb = 0.3;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 8000);
  const auto raw = ServingEngine(cfg).Run(reqs);
  ASSERT_GT(raw.num_preemptions, 0);
  ASSERT_GT(raw.num_recompute_restores, 0);  // Host tier actually binds.

  cfg.preemption.host_codec = {KvQuantFormat::kInt8, /*compress=*/true};
  const auto enc = ServingEngine(cfg).Run(reqs);
  ASSERT_GT(enc.num_preemptions, 0);
  EXPECT_GT(enc.num_swap_restores, raw.num_swap_restores);
  EXPECT_LT(enc.num_recompute_restores, raw.num_recompute_restores);
}

/// One forced preemption of a victim with context ~`ctx` under kAuto;
/// returns whether the victim swapped (vs recomputed).
bool AutoVictimSwapsAt(int64_t ctx, KvCodecConfig codec) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kAuto;
  cfg.preemption.host_codec = codec;
  // Budget fits the victim's full reservation (ctx + 400 + slack) with
  // ~1600 free tokens: the 2000-token high-priority arrival cannot admit
  // without evicting the victim first.
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, ctx + 2000);
  std::vector<Request> reqs;
  reqs.push_back(MakeReq(0, 0.0, ctx, 400, /*priority=*/0));  // Victim.
  reqs.push_back(MakeReq(1, 0.4, 2000, 16, /*priority=*/1));  // Forces eviction.
  const auto m = ServingEngine(cfg).Run(reqs);
  EXPECT_GT(m.num_preemptions, 0) << "ctx=" << ctx;
  return m.num_swap_restores > m.num_recompute_restores;
}

// kAuto regression: the crossover must price the actual stored bytes plus the
// encode/decode passes. At default link/codec speeds an int8 page (0.50x
// stored at the model's page geometry) plus two codec passes makes the swap
// round trip strictly more expensive than the raw tier's, so the swap-wins
// crossover shifts to longer contexts when quantization is on (608 -> 752
// tokens); contexts that swapped codec-off must now recompute near the old
// crossover. The 128-token sweep resolves that shift.
TEST(KvCodec, AutoRestoreCrossoverShiftsWhenQuantizationOn) {
  const KvCodecConfig int8{KvQuantFormat::kInt8, /*compress=*/false};
  std::vector<int64_t> ctxs;
  for (int64_t ctx = 512; ctx <= 16384; ctx += 128) ctxs.push_back(ctx);
  int64_t first_swap_off = -1, first_swap_on = -1;
  for (const int64_t ctx : ctxs) {
    if (first_swap_off < 0 && AutoVictimSwapsAt(ctx, {})) first_swap_off = ctx;
    if (first_swap_on < 0 && AutoVictimSwapsAt(ctx, int8)) first_swap_on = ctx;
    if (first_swap_off >= 0 && first_swap_on >= 0) break;
  }
  ASSERT_GT(first_swap_off, 0) << "kAuto never chose swap codec-off";
  // Codec-on either crosses over strictly later or not at all in range.
  if (first_swap_on >= 0) {
    EXPECT_GT(first_swap_on, first_swap_off);
  } else {
    EXPECT_LE(first_swap_off, ctxs.back());
  }
}

}  // namespace
}  // namespace flashinfer
