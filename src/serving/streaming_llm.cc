#include "serving/streaming_llm.h"

namespace flashinfer::serving {

double StreamingLlmItlMs(const StreamingLlmConfig& cfg, StreamingRopeMode mode) {
  const auto& m = cfg.model;
  const auto& dev = cfg.device;
  const int64_t kv_len = cfg.sink_tokens + cfg.recent_window;

  // --- Dense (GEMM) decode cost: weight streaming bound at batch 1. -------
  const double gemm_us = GemmUs(dev, m, 1);

  // --- Attention cost through the real scheduler. --------------------------
  BackendConfig backend = mode == StreamingRopeMode::kFusedFlashInfer
                              ? FlashInferBackend()
                              : FlashAttentionBackend();
  AttnSimInput in;
  in.qo_lens = {1};
  in.kv_lens = {kv_len};
  in.num_qo_heads = m.num_qo_heads;
  in.num_kv_heads = m.num_kv_heads;
  in.head_dim = m.head_dim;
  auto attn = SimulateBatchAttention(dev, backend, in);
  double attn_us = attn.time_us * m.num_layers;

  double rope_us = 0.0;
  double host_us = 120.0;  // Engine step bookkeeping.
  if (mode == StreamingRopeMode::kFusedFlashInfer) {
    // Fused: the kernel rotates Q and K on the fly; only the in-kernel
    // transform flops are extra (already cheap), plus nothing else.
    host_us += ForwardLaunchUs(m, /*graph=*/true);
  } else {
    // Unfused: a separate kernel rewrites every cached key with the new
    // cache-relative positions each step (read + write the K cache), plus
    // the Q rotation.
    const double k_cache_bytes =
        2.0 * static_cast<double>(kv_len) * m.num_kv_heads * m.head_dim * 2.0;
    const double q_bytes = 2.0 * m.num_qo_heads * m.head_dim * 2.0;
    rope_us = m.num_layers * ElementwiseKernelUs(dev, k_cache_bytes + q_bytes);
    host_us += ForwardLaunchUs(m, /*graph=*/false);
  }
  if (mode == StreamingRopeMode::kOriginalImpl) {
    // The reference implementation additionally re-copies the rolling cache
    // and runs Python-side window bookkeeping every step (Sec. 4.3 calls it
    // "sub-optimal with unnecessary overheads").
    const double cache_copy_bytes =
        2.0 * 2.0 * static_cast<double>(kv_len) * m.num_kv_heads * m.head_dim * 2.0;
    rope_us += m.num_layers * ElementwiseKernelUs(dev, cache_copy_bytes);
    host_us += 2500.0;
  }

  return (gemm_us + attn_us + rope_us + host_us) * 1e-3;
}

}  // namespace flashinfer::serving
