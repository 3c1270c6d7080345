// Speculative-decoding configuration for the serving engine.
//
// A spec-enabled engine replaces each decode step with: (1) a draft phase —
// `depth` sequential forward passes of the small draft model, proposing a
// token tree per running branch; (2) a verify phase — ONE target-model step
// over every tree token, priced through the real tree-attention kernel path
// (spec/verify.h); (3) commit — per branch, the accepted prefix length is
// sampled from the request's acceptance model, accepted tokens + the
// target's bonus token are committed, and rejected branches' KV unwinds
// through PagedKVCache refcounts (fork/truncate/drop).
#pragma once

#include "serving/model.h"
#include "spec/tree.h"

namespace flashinfer::spec {

struct SpecDecodeConfig {
  bool enabled = false;
  TreeConfig tree;
  /// Acceptance probability for requests that don't carry their own
  /// (Request::accept_prob < 0).
  double default_accept_prob = 0.7;
};

/// The draft model: Llama-68M-class (the usual companion speculator for 7-8B
/// targets), 2 layers, 768 hidden — weights stream in ~tens of microseconds.
/// Priced by its GEMM roofline only; its KV/attention cost is folded into the
/// per-pass host overhead (the draft is orders of magnitude smaller than the
/// target, so its attention time is noise at these scales).
serving::ModelSpec DraftLlama68M();

}  // namespace flashinfer::spec
