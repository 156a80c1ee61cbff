// Shared pieces of the workloads: run options, the result report, the
// open-loop schedules and the ladder runner.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "baselines/scenario.h"
#include "loadgen.h"
#include "stats.h"
#include "trace/twitter.h"

namespace perfbench {

/// The paper's SLO for the model every workload serves (BERT-base, §5).
inline constexpr double kModelSloMs = 150.0;

/// Seed of the inputs that shape a deployment (reference demand, warm-up).
inline constexpr std::uint64_t kDeploymentSeed = 1;

/// Everything a workload needs from the command line.  Rates are wall
/// requests/s offered by the client (simulated req/s for sim-fig10);
/// limits are wall ms.  ladder[0] is the light step, ladder[1] the heavy.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured time of one run
  bool trace = false;     ///< traced run: per-layer metrics only
  std::string bin_dir;    ///< where the program's binaries were built
  std::string out_dir;    ///< where the Chrome trace is written
  std::vector<double> ladder;
  Limits limits;
  double speed = 1.0;     ///< simulated seconds per wall second
  double warmup_s = 0.0;  ///< wall seconds at the heavy rate
  /// Unmeasured lead-in of every segment at its own rate, so each segment
  /// is read in steady state rather than across the rate change.
  double settle_s = 0.0;
  /// Segments the light and heavy steps are each measured in, interleaved
  /// light, heavy, light, heavy ...; their latencies are the median over
  /// segments, so a few seconds of host noise move them little.
  int repeats = 1;
  /// Rate whose steady-state allocation a live node deploys (a deployment
  /// setting, recorded in calibration.json; see SteadyStateScenario).
  double deploy_rps = 0.0;

  double light() const { return ladder[0]; }
  double heavy() const { return ladder[1]; }
};

/// Index of the light and heavy steps in the ladder.
inline constexpr std::size_t kLight = 0;
inline constexpr std::size_t kHeavy = 1;

/// Set-ups timed per untraced run; setup_s is their median.  They are
/// spaced kSetUpGapNs apart, so they sample a few seconds of a noisy host
/// rather than one moment of it.
inline constexpr int kSetups = 9;
inline constexpr std::int64_t kSetUpGapNs = 250'000'000;

/// Segments ladder step `index` is measured in.
int SegmentsOf(const RunOptions& options, std::size_t index);

/// Metrics, correctness checks and request accounting of one run.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::size_t n = 0);
  void AddPct(const std::string& name, const Pct& pct, const std::string& unit);
  /// A failed check fails the run; `detail` says what was compared.
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Info(const std::string& key, const std::string& value);
  /// Takes over `other`'s checks and info, and its metrics whose names
  /// start with one of `prefixes` (replacing same-named ones).
  void Merge(const Report& other, const std::vector<std::string>& prefixes);
  void Count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool AllChecksPass() const;
  /// Human-readable table, then one machine line "PERFBENCH <json>".
  void Print(std::ostream& os) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t n;
  };
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<CheckResult> checks_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Open-loop schedule: Twitter arrivals at `wall_rate` for `wall_s`
/// seconds, synthesized in simulated time at wall_rate / speed and mapped
/// back to wall ns.  `decode_dist` empty = one-shot.
std::vector<LoadItem> MakeSchedule(arlo::trace::TwitterTraceConfig::Pattern pattern,
                                   double wall_rate, double wall_s,
                                   std::uint64_t seed, double speed,
                                   const std::string& decode_dist = "");

/// Seed of segment `repeat` of ladder step `index` in a run seeded `seed`.
std::uint64_t SegmentSeed(std::uint64_t seed, std::size_t index, int repeat);

/// Schedules of every planned segment, [step index][repeat], each covering
/// its settle lead-in and measured part.
using Schedules = std::vector<std::vector<std::vector<LoadItem>>>;
Schedules MakeSchedules(const RunOptions& options,
                        arlo::trace::TwitterTraceConfig::Pattern pattern,
                        const std::string& decode_dist = "");

/// The warm-up schedule: the heavy rate for warmup_s.  It brings the
/// deployment to its steady state, so like the deployment it has a fixed
/// seed: every run seed measures the same deployment.
std::vector<LoadItem> MakeWarmup(const RunOptions& options,
                                 arlo::trace::TwitterTraceConfig::Pattern pattern,
                                 const std::string& decode_dist = "");

/// Arlo scenario of a live node: BERT-base on `gpus` GPUs, the paper's SLO,
/// and an allocation solved once from the demand of a reference schedule
/// at `rate` and then held.  Booting straight into the steady-state
/// allocation, as the paper's steady-state runs do, keeps Arlo's boot
/// transient and periodic re-allocation out of the measured frontend and
/// dispatch path.  The reference schedule has a fixed seed: the deployment
/// is part of the system under test, so every run seed meets the same one.
arlo::baselines::ScenarioConfig SteadyStateScenario(int gpus, double rate,
                                                    double speed,
                                                    const std::string& decode_dist = "");

/// Seconds of one segment: the settle lead-in plus the measured part.
struct StepTiming {
  double settle_s = 0.0;
  double measured_s = 0.0;
  double Total() const { return settle_s + measured_s; }
};

/// Timing of a segment at `rate`.  Measured parts are sized inversely to
/// the rate, so every segment holds about the same number of requests, and
/// all planned segments together fill what the warm-up leaves of the run.
StepTiming SegmentTiming(const RunOptions& options, double rate);

/// One measured segment; `outcomes` and `verdict` cover its measured part.
struct StepRecord {
  double rate = 0.0;
  StepVerdict verdict;
  std::vector<Outcome> outcomes;
  double cpu_s = 0.0;          ///< CPU of the processes under test, whole segment
  std::uint64_t answered = 0;  ///< requests answered, whole segment
};

/// Judges the outcomes of a whole segment (settle lead-in included) on its
/// measured part, re-based to start at 0.
StepRecord MakeStepRecord(const std::vector<Outcome>& all, double rate,
                          const StepTiming& timing, const Limits& limits,
                          double cpu_s);

/// Times the set-up: runs `set_up` kSetups times (once in a traced run),
/// each after an untimed `tear_down` of what the previous one built, and in
/// an untraced run reports the median wall time as setup_s.
void TimeSetUp(const RunOptions& options, const std::function<void()>& tear_down,
               const std::function<void()>& set_up, Report& report);

/// Sends one request to `port` and waits for its reply: what listens there
/// can serve.  Throws when no ok reply comes back.
void ServeOne(std::uint16_t port);

/// The open-loop wire segments of one run against one endpoint, sent by
/// the generator in this process.  Every segment gets the ids after the
/// previous one's, is checked for accounting (sent = ok + rejected +
/// unanswered, at most one reply per id, no reply for an id never sent),
/// and is followed by `quiesce`, so the next starts from an idle system.
class WireSession {
 public:
  /// `cpu_seconds` reads the cumulative CPU of the processes under test;
  /// the generator's own threads are subtracted from it.
  WireSession(const RunOptions& options, std::uint16_t port,
              std::function<double()> cpu_seconds, std::function<void()> quiesce);

  /// Runs `items` at `rate` as the segment called `name` and judges it;
  /// the raw result is moved into `raw`.
  StepRecord Run(const std::string& name, const std::vector<LoadItem>& items,
                 double rate, const StepTiming& timing, bool traced,
                 LoadResult& raw, Report& report);
  /// Segment `repeat` of ladder step `index`.
  StepRecord RunSegment(const Schedules& schedules, std::size_t index, int repeat,
                        bool traced, LoadResult& raw, Report& report);
  /// The warm-up schedule at the heavy rate.
  LoadResult Warmup(const std::vector<LoadItem>& items, Report& report);

  /// Requests sent so far, the set-up probe included.
  std::uint64_t ClientSent() const { return client_sent_; }

 private:
  const RunOptions& options_;
  LoadConfig load_;
  std::function<double()> cpu_seconds_;
  std::function<void()> quiesce_;
  std::uint64_t client_sent_ = 1;
};

/// One ladder rate and the segments measured at it.  It meets its limits
/// when at least half of its segments do — each with 99% of the requests it
/// sent within the limits and no backlog growth — so, like the latency
/// figures, the verdict is the typical segment's, and one host stall in one
/// segment does not decide a run's goodput.
struct LadderStep {
  double rate = 0.0;
  std::vector<StepRecord> segments;
  bool Passes() const;
};

/// Highest rate of the leading run of steps that meet their limits, or 0
/// when the light step misses.
double Goodput(const std::vector<LadderStep>& steps);

/// Runs the ladder: the light and heavy segments interleaved, then the
/// steps above heavy one by one; it stops after the first step that misses
/// its limits.  `run_segment(index, repeat)` runs one segment.
std::vector<LadderStep> RunLadder(
    const RunOptions& options,
    const std::function<StepRecord(std::size_t index, int repeat)>& run_segment);

/// Adds the end-to-end metrics every workload reports — typical and tail
/// latency at the light and heavy steps (`typical` and `tail` compute them
/// from one segment's latencies, in ms; the figure is their median over
/// segments), goodput, and CPU per request (median over light/heavy segment
/// pairs) — plus the sample-count checks,
/// and counts attempted/failed over the light and heavy steps.
void ReportLadder(const std::vector<LadderStep>& steps,
                  const std::function<Pct(const std::vector<double>&)>& typical,
                  const std::function<Pct(const std::vector<double>&)>& tail,
                  Report& report);

/// Due-to-first-output latencies (ms) of the requests answered ok.
std::vector<double> LatenciesMs(const std::vector<Outcome>& outcomes);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

}  // namespace perfbench
