// Shared helpers for the per-figure/per-table bench binaries.
//
// Conventions: every bench runs standalone with no arguments at a reduced
// default scale that finishes quickly on one core, and accepts
// --scale=paper to run the full configuration from the paper, plus
// --seed=N / --duration=S overrides.  Output is printed via TablePrinter in
// the same rows/series the paper's table or figure reports.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/scenario.h"
#include "common/cli.h"
#include "common/table.h"
#include "sim/engine.h"
#include "sim/report.h"
#include "telemetry/exporters.h"
#include "telemetry/sink.h"
#include "trace/twitter.h"

namespace arlo::bench {

struct BenchArgs {
  bool paper_scale = false;
  std::uint64_t seed = 42;
  double duration_override = 0.0;  ///< seconds; 0 = bench default
  std::string metrics_out;         ///< .prom/.json/.csv metrics dump path
  std::string trace_out;           ///< Chrome trace_event JSON path
  std::string json_out;            ///< result-table JSON path (--json)

  /// Parses the shared bench flags; --help and bad flags exit here, under
  /// the CliFlags exit contract (0 and 2).
  static BenchArgs Parse(int argc, const char* const* argv) try {
    const CliFlags flags(argc, argv);
    BenchArgs args;
    args.paper_scale = flags.GetString("scale", "small") == "paper";
    args.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
    args.duration_override = flags.GetDouble("duration", 0.0);
    args.metrics_out = flags.GetString("metrics-out", "");
    args.trace_out = flags.GetString("trace-out", "");
    args.json_out = flags.GetString("json", "");
    flags.RejectUnknown();
    return args;
  } catch (...) {
    std::exit(CliExitStatus());
  }

  double Duration(double small_default, double paper_default) const {
    if (duration_override > 0.0) return duration_override;
    return paper_scale ? paper_default : small_default;
  }

  /// Builds a sink iff --metrics-out or --trace-out was given; otherwise
  /// returns nullptr (the zero-cost disabled path).
  std::unique_ptr<telemetry::TelemetrySink> MakeTelemetry(
      telemetry::Concurrency concurrency =
          telemetry::Concurrency::kSingleThreaded) const {
    if (metrics_out.empty() && trace_out.empty()) return nullptr;
    telemetry::TelemetryConfig cfg;
    cfg.run_id = seed;
    cfg.concurrency = concurrency;
    return std::make_unique<telemetry::TelemetrySink>(cfg);
  }

  /// Writes the bench's result table as JSON iff --json=PATH was given —
  /// the machine-readable counterpart of the printed table, used by the
  /// bench-smoke stage of scripts/check.sh.
  void WriteJson(const TablePrinter& table) const {
    if (json_out.empty()) return;
    std::ofstream os(json_out);
    if (!os) throw std::runtime_error("cannot open --json path: " + json_out);
    table.PrintJson(os);
    std::cout << "json written to " << json_out << "\n";
  }

  /// Writes whichever outputs were requested; no-op with a null sink.
  void WriteTelemetry(const telemetry::TelemetrySink* sink) const {
    if (!sink) return;
    if (!metrics_out.empty()) {
      telemetry::WriteMetricsFile(*sink, metrics_out);
      std::cout << "metrics written to " << metrics_out << "\n";
    }
    if (!trace_out.empty()) {
      telemetry::WriteTraceFile(*sink, trace_out);
      std::cout << "trace written to " << trace_out << "\n";
    }
  }
};

/// Runs the named schemes over the trace (with Arlo warm-started from the
/// trace's own distribution) and returns per-scheme reports.
inline std::vector<sim::SchemeReport> RunSchemes(
    const trace::Trace& trace, baselines::ScenarioConfig config,
    const std::vector<std::string>& names,
    std::vector<sim::EngineResult>* raw_results = nullptr) {
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  if (config.initial_demand.empty() && config.initial_allocation.empty()) {
    config.initial_demand =
        baselines::DemandFromTrace(trace, *runtimes, config.slo);
  }
  std::vector<sim::SchemeReport> reports;
  for (const auto& name : names) {
    auto scheme = baselines::MakeSchemeByName(name, config);
    sim::EngineResult result = sim::RunScenario(trace, *scheme);
    reports.push_back(sim::MakeReport(name, result, config.slo));
    if (raw_results) raw_results->push_back(std::move(result));
  }
  return reports;
}

/// Runtime-id → compiled max_length map for a scheme (0 = dynamic, i.e.
/// padding-free), for PaddingWasteOfRun.
inline std::vector<int> MaxLengthsFor(const std::string& scheme,
                                      const baselines::ScenarioConfig& config) {
  if (scheme == "st") return {config.model.native_max_length};
  if (scheme == "dt") return {0};
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  return runtimes->BinUpperBounds();
}

/// Standard Twitter trace for a bench scenario.
inline trace::Trace MakeBenchTrace(double rate, double duration_s,
                                   std::uint64_t seed, bool bursty,
                                   int max_length = 512) {
  trace::TwitterTraceConfig tc;
  tc.duration_s = duration_s;
  tc.mean_rate = rate;
  tc.seed = seed;
  tc.max_length = max_length;
  tc.pattern = bursty ? trace::TwitterTraceConfig::Pattern::kBursty
                      : trace::TwitterTraceConfig::Pattern::kStable;
  return trace::SynthesizeTwitterTrace(tc);
}

}  // namespace arlo::bench
