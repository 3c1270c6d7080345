#include "jit/codegen.h"

#include <sstream>

namespace flashinfer::jit {

namespace {

/// Emits `const float <name> = p.extra[i];` bindings for the spec's extra
/// parameters (Fig. 5: generated "additional vars" copied into registers).
std::string ExtraBindings(const AttentionSpecDesc& spec) {
  std::ostringstream os;
  for (size_t i = 0; i < spec.extra_params.size(); ++i) {
    os << "    const float " << spec.extra_params[i].first << " = (p.extra != nullptr && "
       << i << " < static_cast<size_t>(p.num_extra)) ? p.extra[" << i
       << "] : static_cast<float>(" << spec.extra_params[i].second << ");\n"
       << "    (void)" << spec.extra_params[i].first << ";\n";
  }
  return os.str();
}

}  // namespace

std::string GenerateSource(const AttentionSpecDesc& spec) {
  ValidateSpec(spec);
  std::ostringstream os;
  os << "// Generated by flashinfer-sim JIT. Spec: " << spec.name << "\n"
     << "// Hash: " << SpecHash(spec) << "\n"
     << "#include <cmath>\n"
     << "#include <cstdint>\n"
     << "#include <span>\n"
     << "#include \"core/microkernel.h\"\n"
     << "#include \"core/variant.h\"\n\n"
     << "namespace fi = ::flashinfer;\n\n"
     << spec.preamble << "\n"
     << "namespace {\n\n"
     << "struct " << spec.name << " {\n"
     << "  static constexpr bool kUseSoftmax = " << (spec.use_softmax ? "true" : "false")
     << ";\n"
     << "  static constexpr bool kHasQKTransform = "
     << (spec.has_qk_transform ? "true" : "false") << ";\n"
     << "  static const char* Name() { return \"" << spec.name << "\"; }\n\n";

  // LogitsTransform.
  os << "  float LogitsTransform(const fi::VariantParams& p, float logit,\n"
     << "                        const fi::LogitsCtx& ctx) const {\n"
     << ExtraBindings(spec);
  if (spec.logits_transform_body.empty()) {
    os << "    return logit * p.sm_scale;\n";
  } else {
    os << "    " << spec.logits_transform_body << "\n";
  }
  os << "  }\n\n";

  // LogitsMask.
  os << "  bool LogitsMask(const fi::VariantParams& p, const fi::LogitsCtx& ctx) const {\n"
     << ExtraBindings(spec);
  if (spec.logits_mask_body.empty()) {
    os << "    return fi::DefaultMask(p, ctx);\n";
  } else {
    os << "    " << spec.logits_mask_body << "\n";
  }
  os << "  }\n\n";

  // Query/Key/Output transforms.
  os << "  void QueryTransform(const fi::VariantParams& p, std::span<float> q,\n"
     << "                      int64_t q_pos, int qo_head) const {\n"
     << ExtraBindings(spec) << "    " << spec.query_transform_body << "\n  }\n\n";
  os << "  void KeyTransform(const fi::VariantParams& p, std::span<float> k,\n"
     << "                    int64_t kv_pos, int kv_head) const {\n"
     << ExtraBindings(spec) << "    " << spec.key_transform_body << "\n  }\n\n";
  os << "  void OutputTransform(const fi::VariantParams& p, std::span<float> o,\n"
     << "                       int64_t q_pos, int qo_head) const {\n"
     << ExtraBindings(spec) << "    " << spec.output_transform_body << "\n  }\n";
  os << "};\n\n}  // namespace\n\n";

  // Type-erased entry points (the analog of registering a torch custom op).
  os << "extern \"C\" void " << kEntrySymbol
     << "(const fi::AttentionParams& p, const fi::KernelConfig& cfg,\n"
     << "     const fi::WorkItem& item, const fi::PartialSink& sink,\n"
     << "     fi::gpusim::CtaCost* cost, const fi::CostContext* cc) {\n"
     << "  fi::RunWorkItem<"
     << VisitDType(spec.kv_dtype, []<typename T>(StorageFormat<T> fmt) { return fmt.cpp_type; })
     << ", " << spec.name
     << ">(p, cfg, item, sink, cost, cc);\n"
     << "}\n\n"
     << "extern \"C\" uint32_t " << kFlagsSymbol << "() {\n"
     << "  return " << (spec.use_softmax ? 1u : 0u) << "u;\n"
     << "}\n";
  return os.str();
}

}  // namespace flashinfer::jit
