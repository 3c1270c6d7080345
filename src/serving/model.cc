#include "serving/model.h"

#include <algorithm>

namespace flashinfer::serving {

ModelSpec Llama31_8B() {
  ModelSpec m;
  m.name = "Llama 3.1 8B Instruct";
  m.num_layers = 32;
  m.num_qo_heads = 32;
  m.num_kv_heads = 8;
  m.head_dim = 128;
  m.d_model = 4096;
  m.ffn_dim = 14336;
  m.vocab = 128256;
  m.tensor_parallel = 1;
  return m;
}

ModelSpec Llama31_70B(int tensor_parallel) {
  ModelSpec m;
  m.name = "Llama 3.1 70B Instruct";
  m.num_layers = 80;
  m.num_qo_heads = 64;
  m.num_kv_heads = 8;
  m.head_dim = 128;
  m.d_model = 8192;
  m.ffn_dim = 28672;
  m.vocab = 128256;
  m.tensor_parallel = tensor_parallel;
  return m;
}

ModelSpec Vicuna13B() {
  ModelSpec m;
  m.name = "Vicuna 13B";
  m.num_layers = 40;
  m.num_qo_heads = 40;
  m.num_kv_heads = 40;  // MHA.
  m.head_dim = 128;
  m.d_model = 5120;
  m.ffn_dim = 13824;
  m.vocab = 32000;
  m.tensor_parallel = 1;
  return m;
}

double GemmComputeUs(const gpusim::DeviceSpec& dev, const ModelSpec& m, int64_t tokens) {
  const double flops = m.GemmFlopsPerToken() * static_cast<double>(tokens) / m.tensor_parallel;
  return flops / (dev.fp16_tflops * 0.72 * 1e6);
}

double GemmUs(const gpusim::DeviceSpec& dev, const ModelSpec& m, int64_t tokens) {
  const double t_mem = m.WeightBytesPerGpu() / (dev.hbm_gbps * 0.9 * 1e3);
  return std::max(GemmComputeUs(dev, m, tokens), t_mem);
}

double ElementwiseKernelUs(const gpusim::DeviceSpec& dev, double bytes) {
  return bytes / (dev.hbm_gbps * 0.45 * 1e3) + dev.kernel_launch_us;
}

double ForwardLaunchUs(const ModelSpec& m, bool graph) { return graph ? 10.0 : m.num_layers * 2.0; }

}  // namespace flashinfer::serving
