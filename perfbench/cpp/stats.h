// Statistics the benchmark reports: nearest-rank percentiles and means with
// their sample counts, and the limit test of one measured segment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile read from `n` samples.  `ok` is false when fewer than ten
/// samples lie beyond the percentile, i.e. the tail is not resolved.
struct Pct {
  double value = 0.0;
  std::size_t n = 0;
  bool ok = false;
};

/// Nearest-rank percentile (q in (0, 1]) of `values`, which need not be
/// sorted.  `ok` requires n * (1 - q) >= 10; the median is resolved from
/// one sample on.
Pct Percentile(std::vector<double> values, double q);

/// Fewest samples whose q-percentile has ten samples beyond it.
std::size_t MinSamplesFor(double q);

inline Pct P50(const std::vector<double>& v) { return Percentile(v, 0.50); }
inline Pct P90(const std::vector<double>& v) { return Percentile(v, 0.90); }

/// Arithmetic mean (`ok` when non-empty).
Pct Mean(const std::vector<double>& values);

/// Mean of the samples above the q-percentile — the tail's average depth
/// (`ok` with at least ten such samples).  Unlike a percentile it moves
/// continuously where service times take few distinct values.
Pct TailMean(std::vector<double> values, double q);

/// One request as the load generator saw it, in wall ns since the step
/// began.  `answered` is false for a request still open at the drain
/// deadline.  `first_ns` is when the first output arrived (the reply for a
/// one-shot request, the first token for a generative one); `done_ns` when
/// the request finished.  `itl_ns` is the per-request mean inter-token
/// latency (generative requests with two or more output tokens, else < 0).
struct Outcome {
  std::int64_t due_ns = 0;
  bool sent = false;
  bool answered = false;
  bool ok = false;  ///< answered with a success status
  std::int64_t first_ns = 0;
  std::int64_t done_ns = 0;
  std::int64_t itl_ns = -1;
};

/// Latency limits of a workload, in wall ms.  `itl_ms` <= 0 disables the
/// inter-token limit (one-shot workloads).
struct Limits {
  double latency_ms = 0.0;
  double itl_ms = 0.0;
};

/// The verdict on one ladder step.
struct StepVerdict {
  std::size_t sent = 0;
  std::size_t met = 0;        ///< answered ok within every limit
  std::size_t failed = 0;     ///< unsent, unanswered, or not ok
  double met_frac = 0.0;      ///< met / sent (failures count as misses)
  double backlog_first = 0.0; ///< mean in-system over the first half
  double backlog_last = 0.0;  ///< mean in-system over the second half
  bool backlog_grows = false;
  bool passes = false;
};

/// Required share of sent requests that meet the limits.
inline constexpr double kMetShare = 0.99;

/// True when the mean in-system count grew from the first to the second half
/// of a step by more than `allowance` requests.  JudgeStep allows a tenth of
/// what Little's law lets a system that meets its latency limit hold
/// (offered rate x limit), at least eight: bursts averaged over half a step
/// stay below it, a queue that outgrows its server does not.
bool BacklogGrows(double first_half_mean, double second_half_mean,
                  double allowance);

/// Mean number of requests in the system (due but not yet done) over
/// [begin_ns, end_ns), sampled every `step_ns`.  Unanswered requests stay in
/// the system forever.
double MeanInSystem(const std::vector<Outcome>& outcomes, std::int64_t begin_ns,
                    std::int64_t end_ns, int samples = 50);

/// Judges a step of duration `step_ns` against `limits`.
StepVerdict JudgeStep(const std::vector<Outcome>& outcomes,
                      std::int64_t step_ns, const Limits& limits);

/// FNV-1a over raw bytes, chained from `h`.
std::uint64_t Fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// Hex rendering of a 64-bit digest.
std::string Hex64(std::uint64_t v);

}  // namespace perfbench
