#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "jit/codegen.h"
#include "jit/compiler.h"
#include "jit/interpreted.h"
#include "test_util.h"

namespace flashinfer::jit {
namespace {

using test::MakeProblem;
using test::MaxAbsDiff;
using test::ProblemSpec;
using test::RunSerial;

AttentionSpecDesc SigmoidSpec() {
  // The paper's FlashSigmoid example (Fig. 5), as a JIT spec.
  AttentionSpecDesc spec;
  spec.name = "FlashSigmoid";
  spec.kv_dtype = DType::kF32;
  spec.use_softmax = false;
  spec.extra_params = {{"scale", 1.0f}, {"bias", 0.0f}};
  spec.logits_transform_body =
      "return 1.f / (1.f + std::exp(-(logit * p.sm_scale * scale + bias)));";
  spec.logits_mask_body = "return fi::DefaultMask(p, ctx);";
  return spec;
}

TEST(SpecHash, StableAndSensitive) {
  const auto a = SigmoidSpec();
  auto b = a;
  EXPECT_EQ(SpecHash(a), SpecHash(b));
  b.logits_transform_body += " // changed";
  EXPECT_NE(SpecHash(a), SpecHash(b));
  b = a;
  b.kv_dtype = DType::kF16;
  EXPECT_NE(SpecHash(a), SpecHash(b));
  b = a;
  b.extra_params.push_back({"gamma", 2.0f});
  EXPECT_NE(SpecHash(a), SpecHash(b));
}

TEST(Codegen, EmitsExpectedStructure) {
  const auto src = GenerateSource(SigmoidSpec());
  EXPECT_NE(src.find("struct FlashSigmoid"), std::string::npos);
  EXPECT_NE(src.find("kUseSoftmax = false"), std::string::npos);
  EXPECT_NE(src.find("const float scale"), std::string::npos);
  EXPECT_NE(src.find("const float bias"), std::string::npos);
  EXPECT_NE(src.find("extern \"C\" void fi_variant_run"), std::string::npos);
  EXPECT_NE(src.find("RunWorkItem<float, FlashSigmoid>"), std::string::npos);
}

TEST(Codegen, DtypeSelectsKvType) {
  auto spec = SigmoidSpec();
  spec.kv_dtype = DType::kFP8_E4M3;
  const auto src = GenerateSource(spec);
  EXPECT_NE(src.find("fp8_e4m3_t, FlashSigmoid"), std::string::npos);
}

class JitCompileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CompilerAvailable()) GTEST_SKIP() << "no host compiler";
  }
};

TEST_F(JitCompileTest, CompiledSigmoidMatchesBuiltin) {
  auto kernel = CompileVariant(SigmoidSpec());
  ASSERT_NE(kernel->fn(), nullptr);
  EXPECT_FALSE(kernel->use_softmax());

  ProblemSpec spec;
  spec.qo_lens = {3, 1};
  spec.kv_lens = {21, 9};
  spec.num_qo_heads = 4;
  spec.num_kv_heads = 2;
  spec.tile_q = 4;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  // Bind the JIT extras to match the builtin's sigmoid params.
  const float extras[2] = {1.5f, -0.5f};
  p.variant.extra = extras;
  p.variant.num_extra = 2;
  p.variant.sigmoid_scale = 1.5f;
  p.variant.sigmoid_bias = -0.5f;

  KernelConfig cfg;
  cfg.tile_q = 4;
  RunSerial(p, cfg, kernel->fn());
  const auto jit_out = prob.o.data;

  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kSigmoid, DType::kF32));
  EXPECT_LT(MaxAbsDiff(jit_out, prob.o.data), 1e-5f);
}

TEST_F(JitCompileTest, CustomMaskVariant) {
  // A "every other token" custom mask — something no builtin provides.
  AttentionSpecDesc spec;
  spec.name = "StridedMask";
  spec.kv_dtype = DType::kF32;
  spec.logits_mask_body = "return (ctx.kv_pos % 2 == 0) && fi::DefaultMask(p, ctx);";
  auto kernel = CompileVariant(spec);

  ProblemSpec pspec;
  pspec.qo_lens = {1};
  pspec.kv_lens = {16};
  pspec.num_qo_heads = 1;
  pspec.num_kv_heads = 1;
  pspec.tile_q = 1;
  auto prob = MakeProblem(pspec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  RunSerial(p, cfg, kernel->fn());
  const auto jit_out = prob.o.data;

  // Reference: interpreted hooks with the same mask.
  InterpretedHooks hooks;
  hooks.logits_mask = [](const VariantParams& vp, const LogitsCtx& ctx) {
    return (ctx.kv_pos % 2 == 0) && DefaultMask(vp, ctx);
  };
  SetInterpretedHooks(hooks);
  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  RunSerial(p, cfg, GetInterpretedKernel(true, false, DType::kF32));
  SetInterpretedHooks({});
  EXPECT_LT(MaxAbsDiff(jit_out, prob.o.data), 1e-5f);
}

TEST_F(JitCompileTest, CacheHitsInMemoryAndOnDisk) {
  const JitCacheStats before = GetJitCacheStats();
  AttentionSpecDesc spec;
  spec.name = "CacheProbe";
  spec.kv_dtype = DType::kF32;
  spec.extra_params = {{"probe", 3.25f}};  // Unique-ish spec.
  spec.logits_transform_body = "return logit * p.sm_scale * probe;";
  auto k1 = CompileVariant(spec);
  auto k2 = CompileVariant(spec);
  EXPECT_EQ(k1.get(), k2.get());  // In-process registry hit.
  const JitCacheStats after = GetJitCacheStats();
  EXPECT_GE(after.memory_hits - before.memory_hits, 1);
  EXPECT_LE(after.compilations - before.compilations, 1);  // 0 if a previous run left the .so.
}

TEST_F(JitCompileTest, SpecOnlyCacheNameIsNotLoaded) {
  // A kernel compiles against the headers' layouts (PagedKVCache,
  // AttentionParams). A .so left under the spec-hash-only name, as an older
  // build named it, may hold other layouts: it must be recompiled, never
  // loaded. This one is not even a shared object.
  JitOptions opts;
  opts.cache_dir = ::testing::TempDir() + "fi_jit_stale_cache";
  std::filesystem::remove_all(opts.cache_dir);
  std::filesystem::create_directories(opts.cache_dir);
  AttentionSpecDesc spec;
  spec.name = "StaleProbe";
  spec.kv_dtype = DType::kF32;
  spec.extra_params = {{"probe", 7.5f}};
  spec.logits_transform_body = "return logit * p.sm_scale * probe;";
  std::ostringstream stale;
  stale << opts.cache_dir << "/" << spec.name << "_" << std::hex << SpecHash(spec) << ".so";
  std::ofstream(stale.str()) << "compiled against other headers";

  const JitCacheStats before = GetJitCacheStats();
  const auto kernel = CompileVariant(spec, opts);
  EXPECT_NE(kernel->so_path(), stale.str());
  const JitCacheStats after = GetJitCacheStats();
  EXPECT_EQ(after.compilations - before.compilations, 1);
  EXPECT_EQ(after.disk_hits - before.disk_hits, 0);
  std::filesystem::remove_all(opts.cache_dir);
}

TEST(Interpreted, DefaultHooksMatchVanilla) {
  SetInterpretedHooks({});
  ProblemSpec spec;
  spec.qo_lens = {2};
  spec.kv_lens = {12};
  spec.tile_q = 4;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 4;
  RunSerial(p, cfg, GetInterpretedKernel(true, false, DType::kF32));
  const auto interp = prob.o.data;
  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));
  EXPECT_LT(MaxAbsDiff(interp, prob.o.data), 1e-6f);
}

TEST(Interpreted, HookedSoftCapMatchesBuiltin) {
  InterpretedHooks hooks;
  hooks.logits_transform = [](const VariantParams& vp, float logit, const LogitsCtx&) {
    const float s = logit * vp.sm_scale;
    return vp.logits_soft_cap * std::tanh(s / vp.logits_soft_cap);
  };
  SetInterpretedHooks(hooks);
  ProblemSpec spec;
  spec.qo_lens = {2};
  spec.kv_lens = {12};
  spec.tile_q = 4;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  p.variant.logits_soft_cap = 8.0f;
  KernelConfig cfg;
  cfg.tile_q = 4;
  RunSerial(p, cfg, GetInterpretedKernel(true, false, DType::kF32));
  SetInterpretedHooks({});
  const auto interp = prob.o.data;
  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kSoftCap, DType::kF32));
  EXPECT_LT(test::MaxAbsDiff(interp, prob.o.data), 1e-6f);
}

TEST(Spec, ValidationRejectsBadIdentifiers) {
  AttentionSpecDesc spec;
  spec.name = "ok_name";
  ValidateSpec(spec);  // Fine.
  EXPECT_DEATH(
      {
        AttentionSpecDesc bad;
        bad.name = "bad name; rm -rf /";
        ValidateSpec(bad);
      },
      "FI_CHECK");
}

}  // namespace
}  // namespace flashinfer::jit
