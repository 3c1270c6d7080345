#include "serving/workload.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace flashinfer::serving {

namespace {

int64_t ClippedLogNormal(Rng& rng, double mean, double sigma, int64_t lo, int64_t hi) {
  // Choose mu so that the log-normal mean is `mean`: mean = exp(mu+sigma^2/2).
  const double mu = std::log(mean) - sigma * sigma / 2.0;
  const double v = rng.LogNormal(mu, sigma);
  return std::clamp<int64_t>(static_cast<int64_t>(std::llround(v)), lo, hi);
}

}  // namespace

std::vector<Request> ShareGptWorkload(Rng& rng, int num_requests, double request_rate,
                                      int parallel_n) {
  std::vector<Request> reqs;
  reqs.reserve(static_cast<size_t>(num_requests));
  double t = 0.0;
  for (int i = 0; i < num_requests; ++i) {
    t += rng.Exponential(request_rate);
    Request r;
    r.id = i;
    r.arrival_s = t;
    r.input_len = ClippedLogNormal(rng, 220.0, 1.1, 4, 2048);
    r.output_len = ClippedLogNormal(rng, 190.0, 1.0, 4, 1024);
    r.parallel_n = parallel_n;
    reqs.push_back(r);
  }
  return reqs;
}

std::vector<Request> UniformWorkload(Rng& rng, int num_requests, double request_rate,
                                     int64_t lo, int64_t hi, int64_t output_len) {
  FI_CHECK_LE(lo, hi);
  std::vector<Request> reqs;
  reqs.reserve(static_cast<size_t>(num_requests));
  double t = 0.0;
  for (int i = 0; i < num_requests; ++i) {
    t += rng.Exponential(request_rate);
    Request r;
    r.id = i;
    r.arrival_s = t;
    r.input_len = rng.UniformInt(lo, hi);
    r.output_len = output_len;
    reqs.push_back(r);
  }
  return reqs;
}

std::vector<Request> MultiTenantWorkload(Rng& rng, int num_requests, double request_rate,
                                         const TenantPoolConfig& cfg) {
  FI_CHECK_GE(cfg.num_tenants, 1);
  // Tenant t's ids are (t + 1) * 1,000,000 + [0, 99,999]: all must fit in an
  // int32_t.
  FI_CHECK_LE(cfg.num_tenants, (std::numeric_limits<int32_t>::max() - 99'999) / 1'000'000);
  FI_CHECK_GE(cfg.prefix_len_lo, 0);  // A length is a count of draws to skip.
  FI_CHECK_LE(cfg.prefix_len_lo, cfg.prefix_len_hi);

  // A tenant's prompt is one UniformInt draw per token, right after its
  // length, but a window picks only some tenants. The stream is saved there
  // and skips the prompt; the first request that picks the tenant draws the
  // prompt from the saved copy into its own, and later ones copy it from
  // that request. The draws are the same as drawing every prompt up front.
  struct Tenant {
    int64_t len = 0;
    Rng stream;      // At the prompt's first token.
    int first = -1;  // The request holding the prompt; -1 before first use.
  };
  std::vector<Tenant> tenants;
  tenants.reserve(static_cast<size_t>(cfg.num_tenants));
  for (int t = 0; t < cfg.num_tenants; ++t) {
    const int64_t len = rng.UniformInt(cfg.prefix_len_lo, cfg.prefix_len_hi);
    tenants.push_back({len, rng});
    rng.Discard(static_cast<uint64_t>(len));
  }

  ZipfSampler popularity(cfg.num_tenants, cfg.zipf_s);
  std::vector<Request> reqs;
  reqs.reserve(static_cast<size_t>(num_requests));
  double now = 0.0;
  for (int i = 0; i < num_requests; ++i) {
    now += rng.Exponential(request_rate);
    const int tenant = popularity.Sample(rng) - 1;
    Tenant& owner = tenants[static_cast<size_t>(tenant)];
    const int64_t user_len =
        ClippedLogNormal(rng, static_cast<double>(cfg.user_len_mean), 0.8, 4, 512);

    Request r;
    r.id = i;
    r.arrival_s = now;
    r.tenant = tenant;
    r.prompt_tokens.reserve(static_cast<size_t>(owner.len + user_len));
    if (owner.first < 0) {
      // Ids live in disjoint per-tenant ranges so two tenants can never
      // share a page-aligned prefix.
      const int32_t base = (tenant + 1) * 1'000'000;
      for (int64_t k = 0; k < owner.len; ++k) {
        r.prompt_tokens.push_back(base + static_cast<int32_t>(owner.stream.UniformInt(0, 99'999)));
      }
      owner.first = i;
    } else {
      const auto& prefix = reqs[static_cast<size_t>(owner.first)].prompt_tokens;
      r.prompt_tokens.assign(prefix.begin(), prefix.begin() + owner.len);
    }
    for (int64_t u = 0; u < user_len; ++u) {
      // User turns draw from the shared low id range; they are unique per
      // request with overwhelming probability, which is all prefix matching
      // needs (a stray collision only matters if a whole page matches).
      r.prompt_tokens.push_back(static_cast<int32_t>(rng.UniformInt(0, 99'999)));
    }
    r.input_len = static_cast<int64_t>(r.prompt_tokens.size());
    r.output_len =
        ClippedLogNormal(rng, static_cast<double>(cfg.output_len_mean), 0.9, 4, 1024);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

std::vector<Request> BurstyLongPrefillWorkload(Rng& rng, const BurstyPrefillConfig& cfg) {
  FI_CHECK_LE(cfg.steady_input_lo, cfg.steady_input_hi);
  FI_CHECK_LE(cfg.burst_input_lo, cfg.burst_input_hi);
  std::vector<Request> reqs;
  reqs.reserve(static_cast<size_t>(cfg.num_steady) +
               static_cast<size_t>(cfg.num_bursts) * cfg.burst_size);
  double t = 0.0;
  for (int i = 0; i < cfg.num_steady; ++i) {
    t += rng.Exponential(cfg.steady_rate);
    Request r;
    r.arrival_s = t;
    r.input_len = rng.UniformInt(cfg.steady_input_lo, cfg.steady_input_hi);
    r.output_len = cfg.steady_output;
    reqs.push_back(r);
  }
  for (int b = 0; b < cfg.num_bursts; ++b) {
    const double when = cfg.first_burst_s + b * cfg.burst_period_s;
    for (int i = 0; i < cfg.burst_size; ++i) {
      Request r;
      r.arrival_s = when;
      r.input_len = rng.UniformInt(cfg.burst_input_lo, cfg.burst_input_hi);
      r.output_len = cfg.burst_output;
      r.cached_prefix_len =
          std::min(cfg.burst_cached_prefix, std::max<int64_t>(r.input_len - 1, 0));
      reqs.push_back(r);
    }
  }
  std::stable_sort(reqs.begin(), reqs.end(),
                   [](const Request& a, const Request& b) { return a.arrival_s < b.arrival_s; });
  for (size_t i = 0; i < reqs.size(); ++i) reqs[i].id = static_cast<int>(i);
  return reqs;
}

void AssignPriorities(Rng& rng, std::vector<Request>& workload,
                      const std::vector<double>& weights) {
  FI_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    FI_CHECK_GE(w, 0.0);
    total += w;
  }
  FI_CHECK_GT(total, 0.0);
  for (auto& r : workload) {
    double u = rng.NextDouble() * total;
    int level = 0;
    for (size_t i = 0; i < weights.size(); ++i) {
      u -= weights[i];
      if (u < 0.0) {
        level = static_cast<int>(i);
        break;
      }
    }
    r.priority = level;
  }
}

void AssignAcceptance(Rng& rng, std::vector<Request>& workload, double lo, double hi) {
  FI_CHECK_LE(lo, hi);
  for (auto& r : workload) {
    r.accept_prob = lo == hi ? lo : rng.Uniform(lo, hi);
  }
}

std::vector<int64_t> SampleLengths(Rng& rng, LengthDist dist, int batch, int64_t mean_len) {
  std::vector<int64_t> lens(static_cast<size_t>(batch), 0);
  switch (dist) {
    case LengthDist::kConstant:
      for (auto& l : lens) l = mean_len;
      break;
    case LengthDist::kUniform:
      // The paper's uniform setting spans [mean/2, mean].
      for (auto& l : lens) l = rng.UniformInt(mean_len / 2, mean_len);
      break;
    case LengthDist::kSkewed: {
      const auto z = ZipfLengths(rng, batch, static_cast<double>(mean_len), 1.2, 16);
      for (size_t i = 0; i < lens.size(); ++i) lens[i] = z[i];
      break;
    }
  }
  return lens;
}

}  // namespace flashinfer::serving
