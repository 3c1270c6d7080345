#include "spec/spec.h"

namespace flashinfer::spec {

serving::ModelSpec DraftLlama68M() {
  serving::ModelSpec m;
  m.name = "Llama 68M (draft)";
  m.num_layers = 2;
  m.num_qo_heads = 12;
  m.num_kv_heads = 12;
  m.head_dim = 64;
  m.d_model = 768;
  m.ffn_dim = 3072;
  m.vocab = 32000;
  m.tensor_parallel = 1;
  return m;
}

}  // namespace flashinfer::spec
