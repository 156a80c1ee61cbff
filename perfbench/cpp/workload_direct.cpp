// direct-stable: one-shot Twitter-Stable load straight at one node —
// net::Server in front of a LiveTestbed running the Arlo scheme on 2
// emulated GPUs, wired the way `live_serving --listen` wires them.
#include <chrono>
#include <memory>
#include <thread>

#include "baselines/scenario.h"
#include "layers.h"
#include "net/server.h"
#include "serving/live_testbed.h"
#include "telemetry/sink.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Pattern = arlo::trace::TwitterTraceConfig::Pattern;

/// The node under test, wired like live_serving --listen (telemetry on,
/// default admission), booted into the steady-state allocation for `rate`.
struct Node {
  Node(double speed, bool timed, double rate) {
    const arlo::baselines::ScenarioConfig config =
        SteadyStateScenario(2, rate, speed);
    auto runtimes = arlo::baselines::MakeRuntimeSetFor(config);
    auto inner = arlo::baselines::MakeSchemeByName("arlo", config);
    if (timed) {
      auto wrapper = std::make_unique<TimedScheme>(std::move(inner));
      probe = wrapper.get();
      scheme = std::move(wrapper);
    } else {
      scheme = std::move(inner);
    }
    arlo::telemetry::TelemetryConfig tcfg;
    tcfg.concurrency = arlo::telemetry::Concurrency::kMultiThreaded;
    sink = std::make_unique<arlo::telemetry::TelemetrySink>(tcfg);
    arlo::serving::TestbedConfig testbed;
    testbed.time_scale = 1.0 / speed;
    testbed.telemetry = sink.get();
    testbed.mix_bounds = runtimes->BinUpperBounds();
    backend = std::make_unique<arlo::serving::LiveTestbed>(*scheme, testbed);
    backend->Start();
    arlo::net::ServerConfig sc;
    sc.telemetry = sink.get();
    server = std::make_unique<arlo::net::Server>(*backend, sc);
    server->Start();
  }
  ~Node() {
    server->Stop();
    backend->Finish();
  }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Waits (bounded) until every submitted request has completed.
  void Quiesce() const {
    const std::int64_t deadline = NowNs() + 3'000'000'000;
    while (backend->Outstanding() > 0 && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::unique_ptr<arlo::sim::Scheme> scheme;
  TimedScheme* probe = nullptr;
  std::unique_ptr<arlo::telemetry::TelemetrySink> sink;
  std::unique_ptr<arlo::serving::LiveTestbed> backend;
  std::unique_ptr<arlo::net::Server> server;
};

}  // namespace

void RunDirectStable(const RunOptions& options, Report& report) {
  // Set-up: synthesize the run's arrivals, boot the node, serve one request.
  std::unique_ptr<Node> node;
  Schedules schedules;
  std::vector<LoadItem> warmup;
  const auto tear_down = [&] {
    node.reset();
    schedules.clear();
    warmup.clear();
  };
  TimeSetUp(options, tear_down, [&] {
    schedules = MakeSchedules(options, Pattern::kStable);
    warmup = MakeWarmup(options, Pattern::kStable);
    node = std::make_unique<Node>(options.speed, options.trace, options.deploy_rps);
    ServeOne(node->server->Port());
  }, report);

  WireSession wire(options, node->server->Port(), [] { return ProcessCpuSeconds(); },
                   [&] { node->Quiesce(); });
  const LoadResult warm = wire.Warmup(warmup, report);

  if (!options.trace) {
    const std::vector<LadderStep> steps =
        RunLadder(options, [&](std::size_t index, int repeat) {
          LoadResult raw;
          return wire.RunSegment(schedules, index, repeat, false, raw, report);
        });
    ReportLadder(steps, P50, P90, report);
  } else {
    LoadResult light_plain, light_traced, heavy_traced;
    const StepRecord lp = wire.RunSegment(schedules, kLight, 0, false, light_plain, report);
    const StepRecord lt = wire.RunSegment(schedules, kLight, 0, true, light_traced, report);
    StepRecord ht;
    int outstanding_max = 0;
    {
      PeakSampler outstanding([&] { return node->backend->Outstanding(); });
      ht = wire.RunSegment(schedules, kHeavy, 0, true, heavy_traced, report);
      outstanding_max = outstanding.Peak();
    }
    report.Count(light_traced.sent + heavy_traced.sent,
                 light_traced.sent + heavy_traced.sent - light_traced.ok -
                     heavy_traced.ok);
    ReportTraceOverhead(lp.outcomes, lt.outcomes, report);
    ReportAnnexLayers(light_traced, heavy_traced, options.speed, report);
    ReportLoadgen({&warm, &light_plain, &light_traced, &heavy_traced}, report);
    report.Add("serving.outstanding_max", outstanding_max, "count");
    report.Add("host.cpu_cores",
               ht.cpu_s / SegmentTiming(options, options.heavy()).Total(), "cores");
    report.Add("host.peak_rss_mb", PeakRssMb(), "MB");

    SpanLog spans;
    AddRequestSpans(light_traced, 1000, spans);
    AddRequestSpans(heavy_traced, 1000, spans);
    ReportCore(*node->probe, /*link_ids=*/false, report, spans);
    const std::string path =
        options.out_dir + "/trace-direct-stable-" + std::to_string(options.seed) + ".json";
    report.Check("chrome_trace_written", spans.WriteChromeTrace(path), path);

    // The router and the control plane, behind the same ladder.
    Report cluster;
    RunClusterLayers(options, cluster);
    report.Merge(cluster, {"cluster.", "ctrl.", "self.cluster_pct"});
  }

  const arlo::net::ServerStats stats = node->server->Stats();
  report.Add("net.rejected", static_cast<double>(stats.TotalRejected()), "count");
  report.Add("net.protocol_errors", static_cast<double>(stats.protocol_errors), "count");
  report.Check("node_accounting",
               stats.accepted + stats.TotalRejected() == wire.ClientSent() &&
                   stats.protocol_errors == 0,
               "node accepted " + std::to_string(stats.accepted) + " + rejected " +
                   std::to_string(stats.TotalRejected()) + " vs client sent " +
                   std::to_string(wire.ClientSent()) + ", protocol errors " +
                   std::to_string(stats.protocol_errors));
}

}  // namespace perfbench
