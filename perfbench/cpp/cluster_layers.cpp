// The router and control-plane layers, measured in direct-stable's traced
// run: one-shot Twitter-Stable load at direct-stable's ladder through
// cluster::Router (queue-delay policy) in front of two `live_serving
// --listen --freeze-alloc` node processes with 2 GPUs each.  Set-up ships
// each node its steady-state allocation through the admin /realloc verb the
// control plane uses; a last phase runs under an in-process
// ctrl::ClusterScheduler whose rounds the benchmark drives and times.
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "baselines/scenario.h"
#include "cluster/router.h"
#include "ctrl/planner.h"
#include "ctrl/scheduler.h"
#include "layers.h"
#include "obs/http.h"
#include "runtime/profiler.h"
#include "runtime/runtime_set.h"
#include "solver/allocation.h"
#include "telemetry/sink.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Pattern = arlo::trace::TwitterTraceConfig::Pattern;
constexpr int kNodes = 2;
constexpr int kNodeGpus = 2;
/// Warm-up at the heavy rate: the node processes boot on their own
/// allocation and roll over to the deployed one.
constexpr double kWarmupSeconds = 3.0;
/// Wall seconds the traced run drives ctrl rounds under heavy load: past
/// the scheduler's 5 s window span, so its bootstrap window fills and it
/// plans.
constexpr double kCtrlPhaseSeconds = 7.0;

/// Port announced on a line like "... on 127.0.0.1:PORT ...".
std::uint16_t PortFromLine(const std::string& line) {
  const std::size_t at = line.find("127.0.0.1:");
  if (at == std::string::npos) throw std::runtime_error("no port in: " + line);
  return static_cast<std::uint16_t>(std::stoi(line.substr(at + 10)));
}

/// Runs ClusterScheduler rounds at the scrape period, timing each.
class CtrlDriver {
 public:
  CtrlDriver(arlo::ctrl::ClusterScheduler& scheduler, double period_s)
      : scheduler_(scheduler), period_(period_s), thread_([this] { Loop(); }) {}
  ~CtrlDriver() { Stop(); }
  CtrlDriver(const CtrlDriver&) = delete;
  CtrlDriver& operator=(const CtrlDriver&) = delete;

  /// Runs no further rounds; the recorded ones stay readable.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> RoundMs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return round_ms_;
  }
  double SolveMsMax() const {
    std::lock_guard<std::mutex> lock(mu_);
    return solve_ms_max_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      const std::int64_t t0 = NowNs();
      const double solve_ms = scheduler_.RunOnce().solve_ms;
      const double ms = static_cast<double>(NowNs() - t0) / 1e6;
      lock.lock();
      round_ms_.push_back(ms);
      solve_ms_max_ = std::max(solve_ms_max_, solve_ms);
      cv_.wait_for(lock, period_, [this] { return stop_; });
    }
  }

  arlo::ctrl::ClusterScheduler& scheduler_;
  std::chrono::duration<double> period_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> round_ms_;
  double solve_ms_max_ = 0.0;
  std::thread thread_;
};

/// The allocation a 2-GPU node deploys for `node_rps`: Arlo's Runtime
/// Scheduler solve over the node's steady-state demand, with the profiles
/// cluster_router --ctrl prices capacity with.
std::vector<int> NodeAllocation(double node_rps, double speed) {
  const arlo::baselines::ScenarioConfig scenario =
      SteadyStateScenario(kNodeGpus, node_rps, speed);
  const auto runtimes = arlo::baselines::MakeRuntimeSetFor(scenario);
  arlo::solver::AllocationProblem problem;
  problem.gpus = kNodeGpus;
  problem.demand = scenario.initial_demand;
  for (std::size_t i = 0; i < runtimes->Size(); ++i) {
    problem.profiles.push_back(arlo::runtime::ProfileRuntime(
        runtimes->Runtime(static_cast<arlo::RuntimeId>(i)), scenario.slo,
        static_cast<arlo::RuntimeId>(i), arlo::Millis(0.8)));
  }
  return arlo::solver::SolveAllocationExact(problem, {}).gpus_per_runtime;
}

/// The fleet under test: node processes, router, control plane.
struct Fleet {
  Fleet(const std::string& node_binary, double speed, double deploy_rps) {
    for (int i = 0; i < kNodes; ++i) {
      char speed_arg[32];
      std::snprintf(speed_arg, sizeof(speed_arg), "--speed=%g", speed);
      nodes.push_back(std::make_unique<ChildProcess>(std::vector<std::string>{
          node_binary, "--listen=0", "--admin-port=0", "--freeze-alloc",
          "--gpus=" + std::to_string(kNodeGpus), speed_arg}));
    }
    arlo::cluster::RouterConfig rc;
    rc.policy = "queue-delay";
    for (auto& node : nodes) {
      arlo::cluster::NodeEndpoint ep;
      ep.admin_port = PortFromLine(node->WaitForLine("admin plane on", 10000));
      ep.port = PortFromLine(node->WaitForLine("listening on", 10000));
      rc.nodes.push_back(ep);
      // Deploy: each node serves half the traffic.
      const arlo::obs::HttpResult deployed = arlo::obs::HttpFetch(
          ep.admin_port, "POST",
          "/realloc?alloc=" +
              arlo::ctrl::FormatAllocation(NodeAllocation(deploy_rps / kNodes, speed)));
      if (!deployed.ok || deployed.status != 200) {
        throw std::runtime_error("a routed node refused its allocation");
      }
    }
    arlo::telemetry::TelemetryConfig tc;
    tc.concurrency = arlo::telemetry::Concurrency::kMultiThreaded;
    sink = std::make_unique<arlo::telemetry::TelemetrySink>(tc);
    rc.sink = sink.get();
    router = std::make_unique<arlo::cluster::Router>(rc);
    router->Start();

    // Profiles of the runtime set the nodes run, as cluster_router --ctrl
    // builds them.  The nodes compress time by `speed`, so the SLO window
    // the demand model counts arrivals over shrinks with it.
    arlo::baselines::ScenarioConfig scenario;
    scenario.model = arlo::runtime::ModelSpec::BertBase();
    scenario.slo = arlo::Millis(kModelSloMs);
    const auto runtimes = arlo::baselines::MakeRuntimeSetFor(scenario);
    arlo::ctrl::ClusterSchedulerConfig cc;
    for (std::size_t i = 0; i < runtimes->Size(); ++i) {
      cc.profiles.push_back(arlo::runtime::ProfileRuntime(
          runtimes->Runtime(static_cast<arlo::RuntimeId>(i)), scenario.slo,
          static_cast<arlo::RuntimeId>(i), arlo::Millis(0.8)));
    }
    cc.slo_seconds = kModelSloMs / 1e3 / speed;
    cc.sink = sink.get();
    arlo::cluster::Router* r = router.get();
    scheduler = std::make_unique<arlo::ctrl::ClusterScheduler>(
        [r] {
          std::vector<arlo::ctrl::CtrlNode> out;
          for (const arlo::cluster::NodeStatus& n : r->Pool().Status()) {
            if (n.state == arlo::cluster::NodeState::kHealthy &&
                n.endpoint.admin_port != 0) {
              out.push_back(arlo::ctrl::CtrlNode{n.node, n.endpoint.admin_port});
            }
          }
          return out;
        },
        cc);
    scrape_period_s = cc.scrape_period_s;
  }

  /// Starts timed ctrl rounds at the scrape period.
  void StartControlPlane() {
    ctrl = std::make_unique<CtrlDriver>(*scheduler, scrape_period_s);
  }
  ~Fleet() {
    ctrl.reset();
    scheduler.reset();
    router->Stop();
    for (auto& node : nodes) node->Stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// CPU seconds of everything under test: this process (router, ctrl)
  /// plus the node processes.
  double CpuSeconds() const {
    double s = ProcessCpuSeconds();
    for (const auto& node : nodes) s += ProcessCpuSeconds(node->Pid());
    return s;
  }

  /// Waits (bounded) until the router has resolved everything it accepted.
  void Quiesce() const {
    const std::int64_t deadline = NowNs() + 3'000'000'000;
    for (;;) {
      const arlo::cluster::Router::Stats s = router->GetStats();
      if (s.replies + s.no_node >= s.accepted || NowNs() > deadline) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::vector<std::int64_t> Routed() const {
    std::vector<std::int64_t> out;
    for (const auto& n : router->Pool().Status()) out.push_back(n.routed);
    return out;
  }

  std::vector<std::unique_ptr<ChildProcess>> nodes;
  std::unique_ptr<arlo::telemetry::TelemetrySink> sink;
  std::unique_ptr<arlo::cluster::Router> router;
  std::unique_ptr<arlo::ctrl::ClusterScheduler> scheduler;
  std::unique_ptr<CtrlDriver> ctrl;
  double scrape_period_s = 0.0;
};

}  // namespace

void RunClusterLayers(const RunOptions& direct, Report& report) {
  RunOptions options = direct;
  options.warmup_s = kWarmupSeconds;
  const Schedules schedules = MakeSchedules(options, Pattern::kStable);
  Fleet fleet(options.bin_dir + "/arlo/examples/live_serving", options.speed,
              options.deploy_rps);
  ServeOne(fleet.router->Port());

  WireSession wire(options, fleet.router->Port(), [&] { return fleet.CpuSeconds(); },
                   [&] { fleet.Quiesce(); });
  wire.Warmup(MakeWarmup(options, Pattern::kStable), report);
  LoadResult light_traced, heavy_traced;
  wire.RunSegment(schedules, kLight, 0, true, light_traced, report);
  const std::vector<std::int64_t> routed0 = fleet.Routed();
  wire.RunSegment(schedules, kHeavy, 0, true, heavy_traced, report);
  const std::vector<std::int64_t> routed1 = fleet.Routed();
  ReportAnnexLayers(light_traced, heavy_traced, options.speed, report);

  // Max/min requests routed per node in the heavy segment, the minimum
  // floored at one so a node the policy starved reads as a large skew.
  std::int64_t lo = -1, hi = 0;
  std::string per_node;
  for (std::size_t i = 0; i < routed1.size() && i < routed0.size(); ++i) {
    const std::int64_t d = routed1[i] - routed0[i];
    hi = std::max(hi, d);
    lo = lo < 0 ? d : std::min(lo, d);
    if (i > 0) per_node += ",";
    per_node += std::to_string(d);
  }
  report.Add("cluster.node_skew",
             static_cast<double>(hi) / static_cast<double>(std::max<std::int64_t>(lo, 1)),
             "ratio", routed1.size());
  report.Info("routed_per_node", per_node);

  SpanLog spans;
  AddRequestSpans(light_traced, 1000, spans);
  AddRequestSpans(heavy_traced, 1000, spans);
  const std::string path =
      options.out_dir + "/trace-routed-" + std::to_string(options.seed) + ".json";
  report.Check("chrome_trace_written", spans.WriteChromeTrace(path), path);

  // Control-plane phase: ctrl rounds at the scrape period under heavy load
  // until its bootstrap window has filled and it has planned.  Its plans
  // roll node instances over, so no measured segment runs under it: the
  // plan it picks varied with scrape timing, and with it heavy latency by
  // up to 7x between runs of one build.
  fleet.StartControlPlane();
  LoadResult ctrl_phase;
  wire.Run("ctrl_phase",
           MakeSchedule(Pattern::kStable, options.heavy(), kCtrlPhaseSeconds,
                        SegmentSeed(options.seed, 98, 0), options.speed),
           options.heavy(), StepTiming{0.0, kCtrlPhaseSeconds}, true, ctrl_phase, report);
  fleet.ctrl->Stop();
  const std::vector<double> rounds = fleet.ctrl->RoundMs();
  const arlo::ctrl::ClusterScheduler::Stats cs = fleet.scheduler->GetStats();
  report.Check("ctrl_planned", cs.replans >= 1,
               std::to_string(cs.rounds) + " rounds, " + std::to_string(cs.replans) +
                   " replans in the control-plane phase");
  report.Add("ctrl.rounds", static_cast<double>(cs.rounds), "count");
  report.AddPct("ctrl.round_ms_p99", Percentile(rounds, 0.99), "ms");
  report.Add("ctrl.replans", static_cast<double>(cs.replans), "count");
  report.Add("ctrl.solve_ms_max", fleet.ctrl->SolveMsMax(), "ms");
  report.Add("ctrl.deltas_applied", static_cast<double>(cs.deltas_applied), "count");
  report.Add("ctrl.deltas_rejected", static_cast<double>(cs.deltas_rejected), "count");
  report.Add("ctrl.scrape_failures", static_cast<double>(cs.scrape_failures), "count");

  const arlo::cluster::Router::Stats rs = fleet.router->GetStats();
  report.Add("cluster.retries", static_cast<double>(rs.retries), "count");
  report.Add("cluster.no_node", static_cast<double>(rs.no_node), "count");
  report.Check("router_accounting",
               rs.accepted == wire.ClientSent() && rs.replies + rs.no_node == rs.accepted,
               "router accepted " + std::to_string(rs.accepted) + " of " +
                   std::to_string(wire.ClientSent()) + " sent, replied " +
                   std::to_string(rs.replies) + ", shed " + std::to_string(rs.no_node));
}

}  // namespace perfbench
