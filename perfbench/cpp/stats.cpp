#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Pct Percentile(std::vector<double> values, double q) {
  Pct out;
  out.n = values.size();
  if (values.empty()) return out;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  out.value = values[idx];
  out.ok = q <= 0.5 || out.n >= MinSamplesFor(q);
  return out;
}

std::size_t MinSamplesFor(double q) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

Pct Mean(const std::vector<double>& values) {
  Pct out;
  out.n = values.size();
  if (values.empty()) return out;
  double sum = 0.0;
  for (const double v : values) sum += v;
  out.value = sum / static_cast<double>(values.size());
  out.ok = true;
  return out;
}

Pct TailMean(std::vector<double> values, double q) {
  Pct out;
  out.n = values.size();
  const auto skip = static_cast<std::size_t>(std::floor(q * static_cast<double>(values.size())));
  if (skip >= values.size()) return out;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(skip),
                   values.end());
  double sum = 0.0;
  for (std::size_t i = skip; i < values.size(); ++i) sum += values[i];
  out.value = sum / static_cast<double>(values.size() - skip);
  out.ok = values.size() - skip >= 10;
  return out;
}

bool BacklogGrows(double first_half_mean, double second_half_mean,
                  double allowance) {
  return second_half_mean - first_half_mean > allowance;
}

double MeanInSystem(const std::vector<Outcome>& outcomes, std::int64_t begin_ns,
                    std::int64_t end_ns, int samples) {
  if (end_ns <= begin_ns || samples <= 0) return 0.0;
  double total = 0.0;
  for (int s = 0; s < samples; ++s) {
    const std::int64_t t =
        begin_ns + (end_ns - begin_ns) * s / samples;
    std::size_t in_system = 0;
    for (const Outcome& o : outcomes) {
      if (o.due_ns > t) continue;
      if (!o.answered || o.done_ns > t) ++in_system;
    }
    total += static_cast<double>(in_system);
  }
  return total / samples;
}

StepVerdict JudgeStep(const std::vector<Outcome>& outcomes,
                      std::int64_t step_ns, const Limits& limits) {
  StepVerdict v;
  v.sent = outcomes.size();
  const double limit_ns = limits.latency_ms * 1e6;
  const double itl_limit_ns = limits.itl_ms * 1e6;
  for (const Outcome& o : outcomes) {
    if (!o.sent || !o.answered || !o.ok) {
      ++v.failed;
      continue;
    }
    bool met = static_cast<double>(o.first_ns - o.due_ns) <= limit_ns;
    if (limits.itl_ms > 0.0 && o.itl_ns >= 0) {
      met = met && static_cast<double>(o.itl_ns) <= itl_limit_ns;
    }
    if (met) ++v.met;
  }
  v.met_frac = v.sent == 0 ? 0.0
                           : static_cast<double>(v.met) /
                                 static_cast<double>(v.sent);
  v.backlog_first = MeanInSystem(outcomes, 0, step_ns / 2);
  v.backlog_last = MeanInSystem(outcomes, step_ns / 2, step_ns);
  const double rate_per_ns =
      step_ns > 0 ? static_cast<double>(outcomes.size()) / static_cast<double>(step_ns)
                  : 0.0;
  v.backlog_grows = BacklogGrows(v.backlog_first, v.backlog_last,
                                 std::max(8.0, 0.1 * rate_per_ns * limit_ns));
  v.passes = v.sent > 0 && v.met_frac >= kMetShare && !v.backlog_grows;
  return v;
}

std::uint64_t Fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
