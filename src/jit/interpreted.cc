#include "jit/interpreted.h"

#include "core/microkernel.h"
#include "core/variant.h"

namespace flashinfer::jit {

namespace {

InterpretedHooks& GlobalHooks() {
  static InterpretedHooks hooks;
  return hooks;
}

/// The interpreted variant: every hook dispatches through std::function.
template <bool UseSoftmax, bool HasQK>
struct InterpretedVariant {
  static constexpr bool kUseSoftmax = UseSoftmax;
  static constexpr bool kHasQKTransform = HasQK;
  static const char* Name() { return "Interpreted"; }

  float LogitsTransform(const VariantParams& p, float logit, const LogitsCtx& ctx) const {
    const auto& h = GlobalHooks();
    if (h.logits_transform) return h.logits_transform(p, logit, ctx);
    return logit * p.sm_scale;
  }
  bool LogitsMask(const VariantParams& p, const LogitsCtx& ctx) const {
    const auto& h = GlobalHooks();
    if (h.logits_mask) return h.logits_mask(p, ctx);
    return DefaultMask(p, ctx);
  }
  void QueryTransform(const VariantParams& p, std::span<float> q, int64_t q_pos,
                      int qo_head) const {
    const auto& h = GlobalHooks();
    if (h.query_transform) h.query_transform(p, q, q_pos, qo_head);
  }
  void KeyTransform(const VariantParams& p, std::span<float> k, int64_t kv_pos,
                    int kv_head) const {
    const auto& h = GlobalHooks();
    if (h.key_transform) h.key_transform(p, k, kv_pos, kv_head);
  }
  void OutputTransform(const VariantParams& p, std::span<float> o, int64_t q_pos,
                       int qo_head) const {
    const auto& h = GlobalHooks();
    if (h.output_transform) h.output_transform(p, o, q_pos, qo_head);
  }
};

template <bool UseSoftmax, bool HasQK>
WorkItemFn SelectDtype(DType dt) {
  return VisitDType(dt, []<typename T>(StorageFormat<T>) -> WorkItemFn {
    return &RunWorkItem<T, InterpretedVariant<UseSoftmax, HasQK>>;
  });
}

}  // namespace

InterpretedHooks SetInterpretedHooks(InterpretedHooks hooks) {
  InterpretedHooks old = GlobalHooks();
  GlobalHooks() = std::move(hooks);
  return old;
}

WorkItemFn GetInterpretedKernel(bool use_softmax, bool has_qk_transform, DType kv_dtype) {
  if (use_softmax) {
    return has_qk_transform ? SelectDtype<true, true>(kv_dtype)
                            : SelectDtype<true, false>(kv_dtype);
  }
  return has_qk_transform ? SelectDtype<false, true>(kv_dtype)
                          : SelectDtype<false, false>(kv_dtype);
}

}  // namespace flashinfer::jit
