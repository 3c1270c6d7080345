// Quantized + compressed host KV tier: capacity multiplier x accuracy proxy
// x restore latency.
//
// Two parts:
//   1. Page-codec sweep at REAL model geometry (8 KV heads x 128 head_dim,
//      f16, 16-token pages = 64 KiB/page): for each codec config, encode a
//      host tier's worth of channel-structured SyntheticKv pages and measure
//      the effective capacity multiplier (logical/stored bytes), the mean
//      per-page quantization MSE (the accuracy proxy), and bit-exactness of
//      the lossless path. Acceptance: int8+lz4 reaches >= 2x capacity at a
//      bounded proxy; compress-only decodes bit-exactly.
//   2. Engine sweep under KV pressure (Llama 3.1 8B, H100): one run per
//      codec config of part 1, same nominal host capacity. Every run's
//      metered stored/logical ratio must lie within 1% of part 1's for its
//      codec. The int8+lz4 run must price decode time into restores
//      (codec_decode_ms > 0), meter stored bytes below logical, and convert
//      recompute restores into swap restores on a host tier the raw path
//      exhausts. Codec-off must be bit-identical to a default-config run
//      (the bugfix pin).
//
// Usage: bench_kv_quant [--quick] [--json <path>] [--check <baseline>]
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kvcache/paged.h"
#include "serving/engine.h"
#include "serving/workload.h"
#include "util/codec.h"
#include "util/float_types.h"

using namespace flashinfer;
using namespace flashinfer::serving;

namespace {

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  return cfg;
}

// Real per-GPU KV geometry of the engine's model: 8 KV heads (GQA), 128
// head_dim, f16 storage, 16-token pages -> 64 KiB per page.
constexpr int kHeads = 8;
constexpr int kDim = 128;
constexpr int kPage = 16;

struct CodecPoint {
  const char* name;
  KvCodecConfig cfg;
};

struct CodecRow {
  double multiplier = 0.0;  // logical / stored bytes.
  double mean_mse = 0.0;
  double restore_ms = 0.0;  // Engine-priced swap-in of one `ctx`-token branch.
  bool lossless_exact = false;
};

/// Encodes + decodes `pages` real-geometry pages through the codec tier and
/// reports the realized multiplier, accuracy proxy, and bit-exactness. With
/// the codec off the host tier holds raw page copies.
CodecRow MeasureCodec(const KvCodecConfig& codec, int64_t pages, Rng& rng) {
  CodecRow row;
  PagedKVCache kv(DType::kF16, kHeads, kDim, kPage, pages);
  const int seq = kv.CreateSequence();
  std::vector<float> k(static_cast<size_t>(pages * kPage) * kHeads * kDim), v(k.size());
  SyntheticKv(rng, pages * kPage, kHeads, kDim, k.data(), v.data());
  kv.AppendTokens(seq, k.data(), v.data(), pages * kPage);

  int64_t stored = 0, logical = 0, mse_pages = 0;
  double mse_sum = 0.0;
  std::vector<uint8_t> blob0;  // Page 0's host copy, for the round-trip probe.
  for (const int64_t page : kv.SequencePages(seq)) {
    util::PageCodecStats st{kv.PageBytes(), kv.PageBytes(), 0.0};
    std::vector<uint8_t> blob;
    if (codec.enabled()) {
      blob = util::EncodePage(kv.PageData(page), static_cast<size_t>(kv.PageElems()),
                              DType::kF16, codec, &st);
    }
    stored += st.stored_bytes;
    logical += st.logical_bytes;
    if (codec.quant != KvQuantFormat::kNone) {
      mse_sum += st.mse;
      ++mse_pages;
    }
    if (blob0.empty()) blob0 = std::move(blob);
  }
  row.multiplier = stored > 0 ? static_cast<double>(logical) / static_cast<double>(stored) : 0.0;
  row.mean_mse = mse_pages > 0 ? mse_sum / static_cast<double>(mse_pages) : 0.0;

  // Restore page 0 and compare it with the cache's copy: bit-exact for the
  // lossless paths, bounded for quantized configs.
  const int64_t page0 = kv.SequencePages(seq)[0];
  std::vector<half_t> restored(static_cast<size_t>(kv.PageElems()));
  if (codec.enabled()) {
    util::DecodePage(blob0.data(), blob0.size(), reinterpret_cast<std::byte*>(restored.data()),
                     restored.size(), DType::kF16);
  } else {
    std::memcpy(restored.data(), kv.PageData(page0), static_cast<size_t>(kv.PageBytes()));
  }
  // Layout [K/V][head][slot][dim]: K of slot 0 and V of slot 7 per head.
  const auto at = [&restored](int kv_half, int h, int slot, int d) {
    return restored[((static_cast<size_t>(kv_half) * kHeads + h) * kPage + slot) * kDim + d];
  };
  row.lossless_exact = true;
  for (int h = 0; h < kHeads; ++h) {
    for (int d = 0; d < kDim; ++d) {
      const half_t ka = at(0, h, 0, d), va = at(1, h, 7, d);
      const float ke = kv.KAt(page0, h, 0, d);
      const float ve = kv.VAt(page0, h, 7, d);
      if (codec.quant == KvQuantFormat::kNone) {
        if (ka.bits != half_t(ke).bits || va.bits != half_t(ve).bits) {
          row.lossless_exact = false;
        }
      } else if (std::abs(ToFloat(ka) - ke) > 0.25f || std::abs(ToFloat(va) - ve) > 0.25f) {
        row.lossless_exact = false;
      }
    }
  }
  return row;
}

std::vector<Request> PressureWorkload(int n) {
  Rng rng(13);
  auto reqs = UniformWorkload(rng, n, 25.0, 512, 1024, 96);
  AssignPriorities(rng, reqs, {0.7, 0.3});
  return reqs;
}

ServingMetrics RunEngine(const std::vector<Request>& reqs, KvCodecConfig codec,
                         double host_gb) {
  EngineConfig cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kSwap;
  cfg.preemption.host_capacity_gb = host_gb;
  cfg.preemption.host_codec = codec;
  cfg.hbm_capacity_gb = HbmGbForKvBudget(cfg, 8000);
  return ServingEngine(cfg).Run(reqs);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::WallTimer wall_timer;
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const char* json_path = bench::ArgValue(argc, argv, "--json");

  bench::Banner("KV quant",
                "quantized + compressed host KV tier: capacity x accuracy x latency");
  bench::Note("Part 1 encodes real-geometry KV pages (8 KV heads x 128 dim, f16,");
  bench::Note("64 KiB pages) through each codec config; part 2 runs the serving");
  bench::Note("engine under KV pressure with the codec tier on, same nominal host");
  bench::Note("capacity, and meters stored bytes, decode-priced restores, and the");
  bench::Note("quantization-MSE accuracy proxy.");

  bench::JsonResult json;
  json.Add("bench", std::string("kv_quant"));
  json.Add("quick", quick ? 1.0 : 0.0);

  // --- 1. Page-codec sweep at real geometry -------------------------------
  const int64_t pages = quick ? 64 : 256;
  const std::vector<CodecPoint> points = {
      {"none", {KvQuantFormat::kNone, false}},
      {"lz4", {KvQuantFormat::kNone, true}},
      {"int8", {KvQuantFormat::kInt8, false}},
      {"int8+lz4", {KvQuantFormat::kInt8, true}},
      {"fp8e4m3", {KvQuantFormat::kFp8E4M3, false}},
      {"fp8e4m3+lz4", {KvQuantFormat::kFp8E4M3, true}},
  };
  std::printf("\n--- page codec at real geometry (%lld pages, 64 KiB each) ---\n",
              static_cast<long long>(pages));
  AsciiTable ct({"codec", "capacity x", "mean page MSE", "round trip"});
  double none_mult = 0.0, int8lz4_mult = 0.0, int8lz4_mse = 0.0;
  bool lossless_ok = true, quant_bounded = true;
  std::vector<double> page_ratios;
  Rng rng(0x5EED);
  for (const auto& p : points) {
    const auto row = MeasureCodec(p.cfg, pages, rng);
    page_ratios.push_back(1.0 / row.multiplier);
    ct.AddRow({p.name, AsciiTable::Num(row.multiplier, 2),
               p.cfg.quant == KvQuantFormat::kNone
                   ? std::string("0 (lossless)")
                   : AsciiTable::Num(row.mean_mse, 6),
               row.lossless_exact ? "exact/bounded" : "MISMATCH"});
    if (!row.lossless_exact) {
      (p.cfg.quant == KvQuantFormat::kNone ? lossless_ok : quant_bounded) = false;
    }
    if (std::strcmp(p.name, "none") == 0) none_mult = row.multiplier;
    if (std::strcmp(p.name, "int8+lz4") == 0) {
      int8lz4_mult = row.multiplier;
      int8lz4_mse = row.mean_mse;
    }
    json.Add(std::string("capacity_x_") + p.name, row.multiplier);
    if (p.cfg.quant != KvQuantFormat::kNone) {
      json.Add(std::string("mse_") + p.name, row.mean_mse);
    }
  }
  ct.Print();

  // Acceptance: >= 2x effective host capacity at a bounded accuracy proxy;
  // raw storage pays only the per-page header (multiplier ~1).
  const bool gate_capacity = int8lz4_mult >= 2.0;
  const bool gate_proxy = int8lz4_mse > 0.0 && int8lz4_mse < 1e-3;
  std::printf("\nint8+lz4: %.2fx capacity (acceptance: >= 2x), mean page MSE %.2e"
              " (acceptance: < 1e-3): %s\n",
              int8lz4_mult, int8lz4_mse,
              gate_capacity && gate_proxy ? "yes" : "NO");
  std::printf("lossless paths bit-exact: %s; quantized paths bounded: %s\n",
              lossless_ok ? "yes" : "NO", quant_bounded ? "yes" : "NO");
  json.Add("gate_capacity_2x", gate_capacity ? 1.0 : 0.0);
  json.Add("gate_accuracy_proxy_bounded", gate_proxy ? 1.0 : 0.0);
  json.Add("gate_lossless_exact", lossless_ok ? 1.0 : 0.0);
  json.Add("raw_multiplier", none_mult);

  // --- 2. Engine sweep: codec tier under KV pressure ----------------------
  std::printf("\n--- engine under KV pressure (tight host tier, kSwap) ---\n");
  // The workload/host-tier geometry is fixed (quick only scales part 1):
  // this pairing is tuned so the raw tier exhausts its host budget and
  // spills at least one victim to recompute, which the codec tier's stored-
  // byte metering then converts back to a swap.
  const auto reqs = PressureWorkload(40);
  const double host_gb = 0.3;
  std::vector<ServingMetrics> runs;
  AsciiTable et({"tier", "tok/s", "swap restores", "recompute restores",
                 "stored/logical", "decode ms", "mean page MSE"});
  // Part 1 encodes full pages only; the engine also meters each branch's
  // partial last page, whose blob header weighs on fewer tokens.
  bool gate_metered = true;
  for (size_t i = 0; i < points.size(); ++i) {
    const ServingMetrics m = RunEngine(reqs, points[i].cfg, host_gb);
    et.AddRow({points[i].cfg.enabled() ? points[i].name : "raw",
               AsciiTable::Num(m.ThroughputTokS(), 0),
               AsciiTable::Num(static_cast<double>(m.num_swap_restores), 0),
               AsciiTable::Num(static_cast<double>(m.num_recompute_restores), 0),
               AsciiTable::Num(m.HostStoredRatio(), 3),
               AsciiTable::Num(m.codec_decode_ms, 2),
               AsciiTable::Num(m.MeanPageQuantMse(), 6)});
    gate_metered = gate_metered &&
                   std::abs(m.HostStoredRatio() - page_ratios[i]) <= 0.01 * page_ratios[i];
    runs.push_back(m);
  }
  et.Print();
  const ServingMetrics& raw = runs[0];
  const ServingMetrics& enc = runs[3];  // points[3]: int8+lz4.

  // Codec-off must be bit-identical to a default-config run: codec time is
  // priced only once host_codec is enabled (the bugfix pin).
  EngineConfig base_cfg = BaseConfig();
  base_cfg.preemption.enabled = true;
  base_cfg.preemption.restore = RestorePolicy::kSwap;
  base_cfg.preemption.host_capacity_gb = host_gb;
  base_cfg.hbm_capacity_gb = HbmGbForKvBudget(base_cfg, 8000);
  const auto pin = ServingEngine(base_cfg).Run(reqs);
  const bool gate_identical = pin.makespan_s == raw.makespan_s &&
                              pin.total_swap_ms == raw.total_swap_ms &&
                              pin.num_swap_restores == raw.num_swap_restores;

  const bool gate_swaps = enc.num_swap_restores > raw.num_swap_restores &&
                          enc.num_recompute_restores < raw.num_recompute_restores;
  const bool gate_decode = enc.codec_decode_ms > 0.0 && raw.codec_decode_ms == 0.0;
  const bool gate_ratio = enc.HostStoredRatio() < 1.0 && raw.HostStoredRatio() == 1.0;
  std::printf("\nengine stored/logical within 1%% of the page codec's, every codec:"
              " %s\n", gate_metered ? "yes" : "NO");
  std::printf("codec tier converts recompute restores into swaps on the same host"
              " budget: %s\n", gate_swaps ? "yes" : "NO");
  std::printf("decode priced into restores (codec on only): %s; stored < logical"
              " (codec on only): %s; codec-off bit-identical: %s\n",
              gate_decode ? "yes" : "NO", gate_ratio ? "yes" : "NO",
              gate_identical ? "yes" : "NO");
  json.Add("raw_tok_s", raw.ThroughputTokS());
  json.Add("codec_tok_s", enc.ThroughputTokS());
  json.Add("raw_swap_restores", static_cast<double>(raw.num_swap_restores));
  json.Add("codec_swap_restores", static_cast<double>(enc.num_swap_restores));
  json.Add("codec_stored_ratio", enc.HostStoredRatio());
  json.Add("codec_decode_ms", enc.codec_decode_ms);
  json.Add("codec_mean_page_mse", enc.MeanPageQuantMse());
  json.Add("gate_engine_ratio_matches_codec", gate_metered ? 1.0 : 0.0);
  json.Add("gate_codec_converts_recompute", gate_swaps ? 1.0 : 0.0);
  json.Add("gate_decode_priced", gate_decode ? 1.0 : 0.0);
  json.Add("gate_stored_lt_logical", gate_ratio ? 1.0 : 0.0);
  json.Add("gate_codec_off_identical", gate_identical ? 1.0 : 0.0);

  const bool ok = gate_capacity && gate_proxy && lossless_ok && quant_bounded &&
                  gate_metered && gate_swaps && gate_decode && gate_ratio &&
                  gate_identical;
  json.Add("acceptance_passed", ok ? 1.0 : 0.0);
  json.Add("wall_ms", wall_timer.ElapsedMs());
  if (!json.WriteTo(json_path)) return 1;
  if (!ok) {
    std::printf("ACCEPTANCE FAILED\n");
    return 1;
  }
  if (const char* baseline = bench::ArgValue(argc, argv, "--check")) {
    if (!bench::CheckBaseline(baseline, json)) return 1;
  }
  return 0;
}
