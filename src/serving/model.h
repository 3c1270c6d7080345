// Transformer model descriptions for end-to-end serving simulation.
//
// The serving engine charges each step a GEMM cost (projections + MLP +
// lm-head, roofline over the device) and an attention cost (from the real
// scheduler plans); the model spec supplies the shapes. Presets match the
// models used in the paper's evaluation. The dense roofline below prices the
// non-attention work of both the engine and the StreamingLLM loop.
#pragma once

#include <cstdint>
#include <string>

#include "gpusim/device.h"
#include "util/float_types.h"

namespace flashinfer::serving {

struct ModelSpec {
  std::string name;
  int num_layers = 32;
  int num_qo_heads = 32;
  int num_kv_heads = 8;
  int head_dim = 128;
  int64_t d_model = 4096;
  int64_t ffn_dim = 14336;
  int64_t vocab = 128256;
  /// Tensor-parallel degree (number of GPUs; divides weights and KV heads).
  int tensor_parallel = 1;
  DType weight_dtype = DType::kF16;

  /// Dense (non-attention) parameter count: QKV/O projections + gated MLP +
  /// LM head.
  double DenseParams() const noexcept {
    const double qkv = static_cast<double>(d_model) *
                       (static_cast<double>(num_qo_heads) * head_dim +
                        2.0 * num_kv_heads * head_dim);
    const double oproj = static_cast<double>(num_qo_heads) * head_dim * d_model;
    const double mlp = 3.0 * static_cast<double>(d_model) * ffn_dim;
    return num_layers * (qkv + oproj + mlp) + static_cast<double>(d_model) * vocab;
  }

  /// GEMM FLOPs to process one token through all layers.
  double GemmFlopsPerToken() const noexcept { return 2.0 * DenseParams(); }

  /// Weight bytes resident per GPU.
  double WeightBytesPerGpu() const noexcept {
    return DenseParams() * DTypeBytes(weight_dtype) / tensor_parallel;
  }

  /// KV-cache bytes per token per GPU for a given KV dtype.
  double KvBytesPerToken(DType kv_dtype) const noexcept {
    return 2.0 * num_layers * num_kv_heads * head_dim * DTypeBytes(kv_dtype) /
           tensor_parallel;
  }
};

/// Llama 3.1 8B Instruct (1xH100 in the paper).
ModelSpec Llama31_8B();
/// Llama 3.1 70B Instruct (4xH100 in the paper).
ModelSpec Llama31_70B(int tensor_parallel = 4);
/// Vicuna 13B (StreamingLLM experiments, Sec. 4.3).
ModelSpec Vicuna13B();

// --- Dense roofline, microseconds ---------------------------------------
/// GEMM compute of `tokens` rows through `m`'s dense layers at 72% of fp16 peak.
double GemmComputeUs(const gpusim::DeviceSpec& dev, const ModelSpec& m, int64_t tokens);
/// One forward pass: the compute term or streaming the weights once at 90% of
/// HBM bandwidth, whichever is longer (decode is weight-bound, prefill not).
double GemmUs(const gpusim::DeviceSpec& dev, const ModelSpec& m, int64_t tokens);
/// One small elementwise kernel over `bytes` (a RoPE rewrite, a cache copy)
/// at 45% of HBM bandwidth, plus its launch.
double ElementwiseKernelUs(const gpusim::DeviceSpec& dev, double bytes);
/// Host launch cost of one forward pass: a CUDA-graph replay (10 us) when
/// `graph`, else 2 us per layer (passes with prefill chunks change shape).
double ForwardLaunchUs(const ModelSpec& m, bool graph);

}  // namespace flashinfer::serving
