// Quickstart: serve a synthetic Twitter-like workload with Arlo in the
// discrete-event simulator, end to end, in ~40 lines of user code.
//
//   1. Pick a model (Bert-Base) and build its polymorphed runtime set —
//      one statically-compiled runtime per 64-token staircase step.
//   2. Synthesize a Twitter-Stable trace (lengths calibrated to the paper's
//      published distribution, rescaled to max length 512).
//   3. Configure Arlo (Runtime Scheduler period, SLO, Request Scheduler
//      λ/α/L) and run the trace through the simulation engine.
//   4. Print the latency summary and where requests actually ran.
//
// Build & run:  ./build/examples/quickstart [--rate=800] [--gpus=8]
//               [--metrics-out=run.prom] [--trace-out=run.trace.json]
#include <iostream>
#include <memory>

#include "baselines/scenario.h"
#include "common/cli.h"
#include "sim/engine.h"
#include "sim/report.h"
#include "telemetry/exporters.h"
#include "telemetry/sink.h"
#include "trace/twitter.h"

using namespace arlo;

int main(int argc, char** argv) try {
  const CliFlags flags(argc, argv);
  const double rate = flags.GetDouble("rate", 800.0);
  const int gpus = static_cast<int>(flags.GetInt("gpus", 8));
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  flags.RejectUnknown();

  // --- 2. Workload -------------------------------------------------------
  trace::TwitterTraceConfig workload;
  workload.duration_s = 30.0;
  workload.mean_rate = rate;
  workload.seed = 1;
  const trace::Trace trace = trace::SynthesizeTwitterTrace(workload);
  std::cout << "trace: " << trace.Size() << " requests over "
            << FormatDuration(trace.Duration()) << ", median length "
            << trace.LengthHistogram(512).Quantile(0.5) << " tokens\n";

  // --- 1 + 3. Arlo -------------------------------------------------------
  baselines::ScenarioConfig config;
  config.model = runtime::ModelSpec::BertBase();
  config.gpus = gpus;
  config.slo = Millis(150.0);
  config.period = Seconds(10.0);

  // Warm-start the Runtime Scheduler from the trace's own distribution so
  // the run starts in steady state (optional; omit for cold bootstrap).
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand =
      baselines::DemandFromTrace(trace, *runtimes, config.slo);

  auto arlo = baselines::MakeSchemeByName("arlo", config);

  // Optional telemetry: single-threaded sink (simulator), run id = trace
  // seed so a re-run with the same seed produces byte-identical traces.
  std::unique_ptr<telemetry::TelemetrySink> sink;
  sim::EngineConfig engine;
  if (!metrics_out.empty() || !trace_out.empty()) {
    telemetry::TelemetryConfig tcfg;
    tcfg.run_id = workload.seed;
    sink = std::make_unique<telemetry::TelemetrySink>(tcfg);
    engine.telemetry = sink.get();
  }

  const sim::EngineResult result = sim::RunScenario(trace, *arlo, engine);
  if (!metrics_out.empty()) telemetry::WriteMetricsFile(*sink, metrics_out);
  if (!trace_out.empty()) telemetry::WriteTraceFile(*sink, trace_out);

  // --- 4. Results --------------------------------------------------------
  const auto report = sim::MakeReport("arlo", result, config.slo);
  sim::PrintComparison(std::cout, "quickstart results", {report});
  sim::PrintPerRuntimeBreakdown(std::cout, result.records);
  std::cout << "\nDone.  Try --rate=2000 to watch queueing appear, or swap\n"
               "\"arlo\" for \"st\" / \"dt\" / \"infaas\" to compare schemes.\n";
  return 0;
} catch (...) {
  return arlo::CliExitStatus();
}
