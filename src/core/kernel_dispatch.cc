#include "core/kernel_dispatch.h"

#include "core/microkernel.h"

namespace flashinfer {

namespace {

template <typename Variant>
WorkItemFn SelectForDtype(DType kv_dtype) {
  return VisitDType(kv_dtype, []<typename T>(StorageFormat<T>) -> WorkItemFn {
    return &RunWorkItem<T, Variant>;
  });
}

}  // namespace

WorkItemFn GetBuiltinKernel(VariantKind kind, DType kv_dtype) {
  switch (kind) {
    case VariantKind::kVanilla:
      return SelectForDtype<VanillaVariant>(kv_dtype);
    case VariantKind::kSoftCap:
      return SelectForDtype<SoftCapVariant>(kv_dtype);
    case VariantKind::kAlibi:
      return SelectForDtype<AlibiVariant>(kv_dtype);
    case VariantKind::kSlidingWindow:
      return SelectForDtype<SlidingWindowVariant>(kv_dtype);
    case VariantKind::kStreamingLlm:
      return SelectForDtype<StreamingLlmVariant>(kv_dtype);
    case VariantKind::kSigmoid:
      return SelectForDtype<SigmoidVariant>(kv_dtype);
    case VariantKind::kFusedRope:
      return SelectForDtype<FusedRopeVariant>(kv_dtype);
  }
  FI_CHECK(false);
  return nullptr;
}

}  // namespace flashinfer
