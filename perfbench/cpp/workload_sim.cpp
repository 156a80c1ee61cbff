// sim-fig10: the Fig. 10a fleet in sim::Engine — BERT-base on 90 GPUs under
// Twitter-Bursty arrivals, Arlo scheme, warm-started demand — run as a
// ladder of simulated rates.  Latencies are simulated ms (deterministic in
// the seed); cpu_us_per_req is the simulator's own cost per request.
#include <ctime>
#include <memory>
#include <optional>

#include "baselines/scenario.h"
#include "layers.h"
#include "sim/engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Pattern = arlo::trace::TwitterTraceConfig::Pattern;

constexpr int kGpus = 90;

struct SimStep {
  arlo::trace::Trace trace;
  arlo::baselines::ScenarioConfig config;
};

SimStep PrepareStep(double rate, double sim_s, std::uint64_t seed) {
  arlo::trace::TwitterTraceConfig tc;
  tc.pattern = Pattern::kBursty;
  tc.mean_rate = rate;
  tc.duration_s = sim_s;
  tc.seed = seed;
  SimStep step;
  step.trace = arlo::trace::SynthesizeTwitterTrace(tc);
  step.config.model = arlo::runtime::ModelSpec::BertBase();
  step.config.gpus = kGpus;
  step.config.slo = arlo::Millis(kModelSloMs);
  step.config.period = arlo::Seconds(60.0);
  const auto runtimes = arlo::baselines::MakeRuntimeSetFor(step.config);
  step.config.initial_demand =
      arlo::baselines::DemandFromTrace(step.trace, *runtimes, step.config.slo);
  return step;
}

struct SimRun {
  arlo::sim::EngineResult result;
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

SimRun RunStep(const SimStep& step, arlo::sim::Scheme& scheme) {
  SimRun run;
  const std::int64_t cpu0 = ThreadCpuNs();
  const std::int64_t t0 = NowNs();
  run.result = arlo::sim::RunScenario(step.trace, scheme);
  run.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  run.cpu_s = static_cast<double>(ThreadCpuNs() - cpu0) / 1e9;
  return run;
}

/// FNV-1a over every record's identity and timestamps.
std::uint64_t Digest(const std::vector<arlo::RequestRecord>& records) {
  std::uint64_t h = Fnv1a(nullptr, 0);
  for (const arlo::RequestRecord& r : records) {
    const std::int64_t fields[] = {static_cast<std::int64_t>(r.id), r.arrival,
                                   r.dispatch, r.start, r.completion,
                                   r.runtime, r.instance};
    h = Fnv1a(fields, sizeof(fields), h);
  }
  return h;
}

std::vector<Outcome> ToOutcomes(const std::vector<arlo::RequestRecord>& records) {
  std::vector<Outcome> out;
  out.reserve(records.size());
  for (const arlo::RequestRecord& r : records) {
    Outcome o;
    o.due_ns = r.arrival;
    o.sent = o.answered = o.ok = true;
    o.first_ns = o.done_ns = r.completion;
    out.push_back(o);
  }
  return out;
}

}  // namespace

void RunSimFig10(const RunOptions& options, Report& report) {
  // Simulated seconds of a step at `rate`: the run's measured time, scaled
  // by `speed` simulated seconds per second, split like a live ladder's.
  const auto sim_s = [&](double rate) {
    return SegmentTiming(options, rate).measured_s * options.speed;
  };
  const double heavy = options.heavy();
  const std::uint64_t heavy_seed = SegmentSeed(options.seed, kHeavy, 0);

  // Set-up: synthesize the heavy step's arrivals and build its scheme.
  std::optional<SimStep> setup_step;
  std::unique_ptr<arlo::sim::Scheme> setup_scheme;
  TimeSetUp(
      options,
      [&] {
        setup_scheme.reset();
        setup_step.reset();
      },
      [&] {
        setup_step = PrepareStep(heavy, sim_s(heavy), heavy_seed);
        setup_scheme = arlo::baselines::MakeSchemeByName("arlo", setup_step->config);
      },
      report);
  setup_scheme.reset();
  setup_step.reset();

  if (options.trace) {
    const SimStep step = PrepareStep(heavy, sim_s(heavy), heavy_seed);
    TimedScheme scheme(arlo::baselines::MakeSchemeByName("arlo", step.config));
    const SimRun run = RunStep(step, scheme);
    const auto& records = run.result.records;
    report.Count(records.size(), 0);
    report.Add("sim.requests_per_s",
               static_cast<double>(records.size()) / run.wall_s, "req/s",
               records.size());
    SpanLog spans;
    for (std::size_t i = 0; i < records.size() && spans.Spans().size() < 4000; ++i) {
      const arlo::RequestRecord& r = records[i];
      const auto lane = static_cast<std::uint32_t>(1 + r.id);
      spans.Add(Span{"request", "sim", r.id, r.arrival, r.Latency(), lane});
      spans.Add(Span{"queue", "sim", r.id, r.arrival, r.QueueingDelay(), lane});
      spans.Add(Span{"execute", "sim", r.id, r.start, r.ServiceTime(), lane});
    }
    ReportCore(scheme, /*link_ids=*/true, report, spans);
    const std::string path =
        options.out_dir + "/trace-sim-fig10-" + std::to_string(options.seed) + ".json";
    report.Check("chrome_trace_written", spans.WriteChromeTrace(path), path);
    report.Add("host.peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  std::uint64_t heavy_digest = 0;
  const std::vector<LadderStep> steps =
      RunLadder(options, [&](std::size_t index, int repeat) {
        const double rate = options.ladder[index];
        const SimStep step =
            PrepareStep(rate, sim_s(rate), SegmentSeed(options.seed, index, repeat));
        auto scheme = arlo::baselines::MakeSchemeByName("arlo", step.config);
        const SimRun run = RunStep(step, *scheme);
        report.Check("step" + std::to_string(index + 1) + "_accounting",
                     run.result.records.size() == step.trace.Size(),
                     std::to_string(run.result.records.size()) + " records for " +
                         std::to_string(step.trace.Size()) + " arrivals");
        if (index == kHeavy && repeat == 0) {
          heavy_digest = Digest(run.result.records);
          report.Add("sim.requests_per_s",
                     static_cast<double>(run.result.records.size()) / run.wall_s,
                     "req/s", run.result.records.size());
        }
        return MakeStepRecord(ToOutcomes(run.result.records), rate,
                              StepTiming{0.0, sim_s(rate)}, options.limits, run.cpu_s);
      });
  // Simulated service times take a handful of exact values, so percentiles
  // of simulated latency are the same on every seed; the mean and the
  // slowest 10%'s mean move with the load the seed draws.
  ReportLadder(steps, Mean, [](const std::vector<double>& v) { return TailMean(v, 0.90); },
               report);

  // Determinism: the heavy step again from scratch, same seed, same bytes.
  const SimStep again = PrepareStep(heavy, sim_s(heavy), heavy_seed);
  auto scheme = arlo::baselines::MakeSchemeByName("arlo", again.config);
  const std::uint64_t digest = Digest(RunStep(again, *scheme).result.records);
  report.Info("sim_digest", Hex64(heavy_digest));
  report.Check("sim_digest_repeats", digest == heavy_digest,
               Hex64(heavy_digest) + " vs " + Hex64(digest));
}

}  // namespace perfbench
