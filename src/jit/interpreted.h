// Interpreted variant execution — the FlexAttention-like baseline.
//
// Instead of specializing the micro-kernel per variant at compile time, the
// interpreted path routes every per-element hook through std::function
// indirection (the CPU analog of a generic kernel that cannot inline the
// score-mod/mask-mod callbacks). It shares the exact same micro-kernel
// skeleton, isolating the cost of generic dispatch — the effect behind the
// FlashInfer-vs-FlexAttention gaps of Appendix G.1 (Tables 1-4).
#pragma once

#include <functional>
#include <span>

#include "core/kernel_dispatch.h"

namespace flashinfer::jit {

/// Interpreted hook set; null members fall back to VariantBase behaviour.
struct InterpretedHooks {
  std::function<float(const VariantParams&, float, const LogitsCtx&)> logits_transform;
  std::function<bool(const VariantParams&, const LogitsCtx&)> logits_mask;
  std::function<void(const VariantParams&, std::span<float>, int64_t, int)> query_transform;
  std::function<void(const VariantParams&, std::span<float>, int64_t, int)> key_transform;
  std::function<void(const VariantParams&, std::span<float>, int64_t, int)> output_transform;
  bool use_softmax = true;
  bool has_qk_transform = false;
};

/// Installs the process-wide hook set used by interpreted kernels. Returns
/// the previous hooks. Not thread-safe against concurrently *running*
/// interpreted kernels — set hooks before launching.
InterpretedHooks SetInterpretedHooks(InterpretedHooks hooks);

/// Returns the interpreted kernel matching the hook flags and KV dtype.
WorkItemFn GetInterpretedKernel(bool use_softmax, bool has_qk_transform, DType kv_dtype);

}  // namespace flashinfer::jit
