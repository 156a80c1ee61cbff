// Multi-stream serving (§6): two request streams — a latency-tight
// Bert-Base stream and a heavier Bert-Large stream — each with a dedicated
// Arlo scheduler, sharing one GPU pool.  Per-stream auto-scalers let the
// pool breathe across streams as their loads shift in opposite phases.
//
// Run: ./build/examples/multi_stream [--minutes=1.5]
#include <cmath>
#include <iostream>

#include "baselines/scenario.h"
#include "common/cli.h"
#include "common/table.h"
#include "multistream/composite_scheme.h"
#include "sim/engine.h"
#include "sim/report.h"
#include "trace/twitter.h"

using namespace arlo;

namespace {

trace::Trace PhaseShiftedTrace(double rate, double duration, double phase,
                               std::uint64_t seed) {
  trace::TwitterTraceConfig config;
  config.duration_s = duration;
  config.mean_rate = rate;
  config.seed = seed;
  config.pattern = trace::TwitterTraceConfig::Pattern::kStable;
  // Opposite-phase sinusoids: when one stream peaks the other is calm.
  trace::RateTrack track;
  for (double t = 0.0; t < duration; t += 1.0) {
    track.per_second.push_back(
        rate * (1.0 + 0.5 * std::sin(2 * 3.14159265 * (t / 60.0 + phase))));
  }
  config.rate_track = std::move(track);
  return trace::SynthesizeTwitterTrace(config);
}

std::unique_ptr<sim::Scheme> StreamArlo(const runtime::ModelSpec& model,
                                        int gpus, SimDuration slo,
                                        const trace::Trace& warmup) {
  baselines::ScenarioConfig config;
  config.model = model;
  config.gpus = gpus;
  config.slo = slo;
  config.period = Seconds(15.0);
  config.autoscale = true;
  config.autoscaler.min_gpus = 2;
  config.autoscaler.latency_window = Seconds(5.0);
  config.autoscaler.scale_out_cooldown = Seconds(1.0);
  config.autoscaler.scale_in_interval = Seconds(30.0);
  config.autoscaler.min_samples = 30;
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand =
      baselines::DemandFromTrace(warmup, *runtimes, config.slo);
  return baselines::MakeSchemeByName("arlo", config);
}

}  // namespace

int main(int argc, char** argv) try {
  const CliFlags flags(argc, argv);
  const double duration = flags.GetDouble("minutes", 1.5) * 60.0;
  flags.RejectUnknown();

  const trace::Trace base_stream =
      PhaseShiftedTrace(450.0, duration, 0.0, 21);
  const trace::Trace large_stream =
      PhaseShiftedTrace(180.0, duration, 0.5, 22);
  const trace::Trace merged =
      multistream::MergeStreams({base_stream, large_stream});

  multistream::CompositeScheme composite;
  composite.AddStream("bert-base", StreamArlo(runtime::ModelSpec::BertBase(),
                                              3, Millis(150.0), base_stream));
  composite.AddStream("bert-large",
                      StreamArlo(runtime::ModelSpec::BertLarge(), 3,
                                 Millis(450.0), large_stream));

  const sim::EngineResult result = sim::RunScenario(merged, composite);

  const auto split =
      multistream::SplitRecordsByStream(result.records, composite.NumStreams());
  TablePrinter t("multi-stream serving — shared pool, dedicated Arlos");
  t.SetHeader({"stream", "requests", "mean_ms", "p98_ms", "slo_viol_%"});
  const SimDuration slos[2] = {Millis(150.0), Millis(450.0)};
  for (std::size_t k = 0; k < split.size(); ++k) {
    const LatencySummary s = Summarize(split[k], slos[k]);
    t.AddRow({composite.StreamName(static_cast<int>(k)),
              TablePrinter::Int(static_cast<long long>(s.count)),
              TablePrinter::Num(s.mean_ms), TablePrinter::Num(s.p98_ms),
              TablePrinter::Num(100.0 * s.slo_violation_frac)});
  }
  t.Print(std::cout);
  std::cout << "pool: time-weighted "
            << TablePrinter::Num(result.time_weighted_gpus) << " GPUs, peak "
            << result.peak_gpus << " — the two streams' scalers breathe in "
            << "opposite phases, sharing headroom a static split would "
            << "duplicate.\n";
  return 0;
} catch (...) {
  return arlo::CliExitStatus();
}
