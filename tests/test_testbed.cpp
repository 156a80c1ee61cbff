#include "serving/testbed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <utility>
#include <vector>

#include "baselines/scenario.h"
#include "batch/continuous.h"
#include "batch/policy.h"
#include "fault/fault_plan.h"
#include "runtime/runtime_set.h"
#include "serving/live_testbed.h"
#include "sim/engine.h"
#include "trace/generative.h"
#include "trace/twitter.h"

namespace arlo::serving {
namespace {

using baselines::MakeSchemeByName;
using baselines::ScenarioConfig;

trace::Trace TinyTrace(double rate, double duration_s, std::uint64_t seed) {
  trace::TwitterTraceConfig config;
  config.duration_s = duration_s;
  config.mean_rate = rate;
  config.seed = seed;
  return trace::SynthesizeTwitterTrace(config);
}

TEST(Testbed, ServesAllRequestsOnRealThreads) {
  ScenarioConfig config;
  config.gpus = 2;
  auto scheme = MakeSchemeByName("st", config);
  const trace::Trace t = TinyTrace(60.0, 2.0, 1);
  TestbedConfig tb;
  tb.time_scale = 0.5;  // run 2x compressed
  const TestbedResult result = RunTestbed(t, *scheme, tb);
  ASSERT_EQ(result.records.size(), t.Size());
  EXPECT_EQ(result.peak_workers, 2);
  for (const auto& r : result.records) {
    EXPECT_GE(r.dispatch, r.arrival - Millis(2.0));  // timer slop
    EXPECT_GT(r.completion, r.start);
    // Service time must be at least the modeled compute + overhead.
    EXPECT_GE(r.ServiceTime(), Millis(0.8));
  }
}

TEST(Testbed, LatenciesTrackTheModeledCompute) {
  ScenarioConfig config;
  config.gpus = 2;
  auto scheme = MakeSchemeByName("st", config);
  const trace::Trace t = TinyTrace(30.0, 1.5, 2);
  const TestbedResult result = RunTestbed(t, *scheme, TestbedConfig{});
  // ST pads to 512: service ≈ 4.86 ms + 0.8 ms overhead.  Wall-clock waits
  // can only overshoot (OS scheduling), never undershoot; on a contended
  // single-core host the overshoot can reach several ms, so bound the
  // median rather than each sample.
  PercentileTracker service_ms;
  for (const auto& r : result.records) {
    EXPECT_GE(ToMillis(r.ServiceTime()), 5.60);
    service_ms.Add(ToMillis(r.ServiceTime()));
  }
  EXPECT_LT(service_ms.Median(), 9.0);
}

TEST(Testbed, ArloSchemeRunsOnThreads) {
  ScenarioConfig config;
  config.gpus = 3;
  config.period = Seconds(1.0);
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  const trace::Trace t = TinyTrace(80.0, 2.0, 3);
  config.initial_demand =
      baselines::DemandFromTrace(t, *runtimes, config.slo);
  auto scheme = MakeSchemeByName("arlo", config);
  TestbedConfig tb;
  tb.time_scale = 0.5;
  const TestbedResult result = RunTestbed(t, *scheme, tb);
  EXPECT_EQ(result.records.size(), t.Size());
}

TEST(Testbed, SurvivesReplacementChurnUnderLoad) {
  // Aggressive re-allocation (0.5 s periods) while requests stream in:
  // exercises the retire/relaunch/re-dispatch path on real threads — the
  // lock-ordering and lifetime contract between workers and dispatcher.
  ScenarioConfig config;
  config.gpus = 4;
  config.period = Millis(500.0);
  auto scheme = MakeSchemeByName("arlo", config);  // cold start: must
                                                   // re-allocate repeatedly
  const trace::Trace t = TinyTrace(250.0, 3.0, 9);
  TestbedConfig tb;
  tb.time_scale = 0.5;
  const TestbedResult result = RunTestbed(t, *scheme, tb);
  ASSERT_EQ(result.records.size(), t.Size());
  // The pool never exceeds GPUs + in-flight replacements.
  EXPECT_GE(result.peak_workers, 4);
  EXPECT_LE(result.peak_workers, 8);
  for (const auto& r : result.records) {
    EXPECT_GE(r.dispatch, r.arrival - Millis(4.0));  // timer slop
    EXPECT_GT(r.completion, r.start);
  }
}

// Fault hammer: a plan kills three of five workers mid-run (one while the
// cluster is also absorbing transient dispatch errors), hangs another, and
// the run must still complete every request exactly once — no request lost
// off a dead worker's queue, none double-completed, and the scheme's
// replacement workers absorb the churn.  This is the testbed counterpart of
// the simulator's FaultPlanSim coverage and runs under TSan in check.sh.
TEST(Testbed, SurvivesWorkerKillsAndHangsUnderLoad) {
  ScenarioConfig config;
  config.gpus = 5;
  config.period = Seconds(1.0);
  const trace::Trace t = TinyTrace(250.0, 3.0, 11);
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand =
      baselines::DemandFromTrace(t, *runtimes, config.slo);
  auto scheme = MakeSchemeByName("arlo", config);

  fault::FaultPlan plan;
  plan.seed = 3;
  plan.dispatch_error_prob = 0.02;
  // The hang fires before the first re-allocation period so worker 3 is
  // still serving under its initial id.
  plan.HangAt(Seconds(0.5), 3, Millis(300.0))
      .CrashAt(Seconds(0.8), 0)
      .CrashAt(Seconds(1.4), 1)
      .CrashAt(Seconds(2.0), 2);

  TestbedConfig tb;
  tb.time_scale = 0.5;
  tb.fault_plan = &plan;
  const TestbedResult result = RunTestbed(t, *scheme, tb);

  ASSERT_EQ(result.records.size(), t.Size());
  std::vector<int> count(t.Size(), 0);
  for (const auto& r : result.records) ++count[r.id];
  for (std::size_t id = 0; id < count.size(); ++id) {
    EXPECT_EQ(count[id], 1) << "request " << id;
  }
  // The early crashes and the hang land for sure; the t=2.0 crash can race
  // a periodic retirement of its target, so allow 2 or 3.
  EXPECT_GE(result.injected_failures, 2);
  EXPECT_LE(result.injected_failures, 3);
  EXPECT_GE(result.faults_injected, 3u);  // crashes + the hang
  EXPECT_GT(result.retries, 0u);
  // Replacements were launched for the dead workers.
  EXPECT_GE(result.peak_workers, 5);
  for (const auto& r : result.records) {
    EXPECT_GE(r.dispatch, r.arrival - Millis(4.0));  // timer slop
    EXPECT_GT(r.completion, r.start);
  }
}

// Hang detection on real threads: a worker frozen far past the timeout
// while holding work is reaped and its requests finish elsewhere.
TEST(Testbed, HangDetectionReapsAFrozenWorker) {
  ScenarioConfig config;
  config.gpus = 3;
  config.period = Seconds(30.0);  // no periodic churn: isolate the reap
  const trace::Trace t = TinyTrace(150.0, 2.0, 12);
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand =
      baselines::DemandFromTrace(t, *runtimes, config.slo);
  auto scheme = MakeSchemeByName("arlo", config);

  fault::FaultPlan plan;
  plan.HangAt(Seconds(0.8), 0, Seconds(30.0));  // would outlast the run

  TestbedConfig tb;
  tb.time_scale = 0.5;
  tb.fault_plan = &plan;
  tb.resilience.hang_timeout = Millis(250.0);
  const TestbedResult result = RunTestbed(t, *scheme, tb);
  ASSERT_EQ(result.records.size(), t.Size());
  EXPECT_EQ(result.injected_failures, 1);  // the reap
  EXPECT_GT(result.requeues, 0u);
}

// §5.2.1 in miniature: simulator and testbed agree on mean latency for a
// light trace (loose tolerance here; the calibration bench reports the
// precise deltas).
TEST(Testbed, AgreesWithSimulatorOnLightTraffic) {
  const trace::Trace t = TinyTrace(50.0, 2.0, 4);
  ScenarioConfig config;
  config.gpus = 2;

  auto sim_scheme = MakeSchemeByName("st", config);
  const sim::EngineResult sim_result = sim::RunScenario(t, *sim_scheme);
  const double sim_mean = Summarize(sim_result.records, config.slo).mean_ms;

  // A shared host can stall any single wall-clock run for several ms; take
  // the least-perturbed of two runs (cf. the calibration bench).
  double tb_mean = 0.0;
  for (int run = 0; run < 2; ++run) {
    auto tb_scheme = MakeSchemeByName("st", config);
    const TestbedResult tb_result =
        RunTestbed(t, *tb_scheme, TestbedConfig{});
    const double mean = Summarize(tb_result.records, config.slo).mean_ms;
    tb_mean = run == 0 ? mean : std::min(tb_mean, mean);
  }

  EXPECT_NEAR(tb_mean, sim_mean, 0.30 * sim_mean + 0.5);
}

// ---------------------------------------------------------------------------
// The emulation timer (testbed.h): emulated GPUs are deadlines on one
// timer thread, so the thread count is fixed, no service ends before its
// modeled time, and a kill anywhere in a batch's life loses nothing.  Runs
// under TSan and ASan in check.sh (filter TestbedTimer.*).

int ProcessThreads() {
  int threads = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

/// Threads in this process while a LiveTestbed with `gpus` emulated GPUs
/// holds two requests per GPU in service.
int ThreadsWhileServing(int gpus, const batch::GenerativeConfig* gen) {
  ScenarioConfig config;
  config.gpus = gpus;
  auto scheme = MakeSchemeByName("st", config);
  TestbedConfig tb;
  tb.time_scale = 0.5;
  tb.generative = gen;
  LiveTestbed testbed(*scheme, tb);
  testbed.Start();
  const int submitted = 2 * gpus;
  for (int i = 0; i < submitted; ++i) {
    Request r;
    r.id = static_cast<RequestId>(i);
    r.arrival = testbed.Now();
    r.length = 64;
    r.decode_len = gen != nullptr ? 4 : 0;
    testbed.Submit(r);
  }
  const int threads = ProcessThreads();
  const TestbedResult result = testbed.Finish();
  EXPECT_EQ(result.records.size(), static_cast<std::size_t>(submitted));
  EXPECT_EQ(result.peak_workers, gpus);
  return threads;
}

TEST(TestbedTimer, ThreadCountDoesNotGrowWithEmulatedGpus) {
  EXPECT_EQ(ThreadsWhileServing(2, nullptr), ThreadsWhileServing(32, nullptr));
  batch::GenerativeConfig gen;
  EXPECT_EQ(ThreadsWhileServing(2, &gen), ThreadsWhileServing(32, &gen));
}

TEST(TestbedTimer, NoBatchCompletesBeforeItsModeledServiceTime) {
  ScenarioConfig config;
  config.gpus = 2;
  config.max_batch = 4;
  auto scheme = MakeSchemeByName("st", config);
  // Past the unbatched capacity, so real multi-request batches form.
  const trace::Trace t = TinyTrace(400.0, 1.5, 21);
  TestbedConfig tb;
  tb.time_scale = 0.5;
  tb.max_batch = 4;
  const TestbedResult result = RunTestbed(t, *scheme, tb);
  ASSERT_EQ(result.records.size(), t.Size());

  runtime::SimulatedCompiler compiler;
  const runtime::RuntimeSet st =
      runtime::MakeSingleStaticSet(compiler, config.model);
  // The members of one batch share their instance and start time.
  std::map<std::pair<InstanceId, SimTime>, std::vector<const RequestRecord*>>
      batches;
  for (const RequestRecord& r : result.records) {
    batches[{r.instance, r.start}].push_back(&r);
  }
  int multi = 0;
  for (const auto& [key, members] : batches) {
    const int n = static_cast<int>(members.size());
    int max_len = 1;
    for (const RequestRecord* r : members) {
      max_len = std::max(max_len, r->length);
    }
    const SimDuration modeled =
        n * tb.per_request_overhead +
        st.Runtime(members.front()->runtime).BatchComputeTime(n, max_len);
    if (n > 1) ++multi;
    for (const RequestRecord* r : members) {
      EXPECT_GE(r->completion - r->start, modeled) << "request " << r->id;
    }
  }
  EXPECT_GT(multi, 0);
}

TEST(TestbedTimer, NoGenerativeIterationEndsBeforeItsModeledTime) {
  trace::TwitterTraceConfig tc;
  tc.duration_s = 1.0;
  tc.mean_rate = 120.0;
  tc.seed = 31;
  tc.decode_lengths = trace::ParseDecodeLengthDist("short");
  const trace::Trace t = trace::SynthesizeTwitterTrace(tc);
  ScenarioConfig config;
  config.gpus = 2;
  auto scheme = MakeSchemeByName("st", config);
  batch::GenerativeConfig gen;
  gen.kv_capacity = 4;
  TestbedConfig tb;
  tb.time_scale = 0.25;
  tb.generative = &gen;
  const TestbedResult result = RunTestbed(t, *scheme, tb);
  ASSERT_EQ(result.records.size(), t.Size());
  EXPECT_GT(result.gen_decode_iterations, 0u);

  runtime::SimulatedCompiler compiler;
  const runtime::RuntimeSet st =
      runtime::MakeSingleStaticSet(compiler, config.model);
  // Iteration times only grow with batch size and context, so a lone
  // sequence at its own prompt length bounds every iteration from below:
  // its (last) prefill, then decode_len - 1 decode steps.
  for (const RequestRecord& r : result.records) {
    const runtime::CompiledRuntime& rt = st.Runtime(r.runtime);
    EXPECT_GE(r.first_token - r.start,
              tb.per_request_overhead + rt.BatchComputeTime(1, r.length))
        << "request " << r.id;
    EXPECT_GE(r.completion - r.first_token,
              (std::max(1, r.decode_len) - 1) * rt.DecodeStepTime(1, r.length))
        << "request " << r.id;
  }
}

/// Submits `count` requests at once and returns the run's result;
/// `callbacks[id]` counts each request's completion callbacks.
TestbedResult SubmitBurstAndFinish(LiveTestbed& testbed, int count,
                                   int decode_len,
                                   std::vector<int>& callbacks) {
  callbacks.assign(static_cast<std::size_t>(count), 0);
  for (int i = 0; i < count; ++i) {
    Request r;
    r.id = static_cast<RequestId>(i);
    r.arrival = testbed.Now();
    r.length = 64;
    r.decode_len = decode_len;
    // Runs on the timer thread; Finish() joins it before we read.
    testbed.Submit(r, [&callbacks](const RequestRecord& record) {
      ++callbacks[record.id];
    });
  }
  return testbed.Finish();
}

TEST(TestbedTimer, KillDuringFormationWaitCompletesEachSubmitOnce) {
  ScenarioConfig config;
  config.gpus = 2;
  config.max_batch = 4;
  auto scheme = MakeSchemeByName("st", config);
  // A lax SLO: a short queue waits the whole 1 s cap for its batch.
  batch::BatchPolicyConfig bpc;
  bpc.slo = Seconds(4.0);
  bpc.max_wait = Seconds(1.0);
  const auto policy = batch::MakeBatchPolicy("slo", bpc);
  fault::FaultPlan plan;
  plan.CrashAt(Millis(100.0), 0);
  TestbedConfig tb;
  tb.time_scale = 0.5;
  tb.max_batch = 4;
  tb.batch_policy = policy.get();
  tb.fault_plan = &plan;
  LiveTestbed testbed(*scheme, tb);
  testbed.Start();
  std::vector<int> callbacks;
  const TestbedResult result =
      SubmitBurstAndFinish(testbed, 2, /*decode_len=*/0, callbacks);

  EXPECT_EQ(callbacks, std::vector<int>(2, 1));
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.injected_failures, 1);
  EXPECT_GE(result.requeues, 1u);
  for (const RequestRecord& r : result.records) {
    // Nothing started before the kill: it landed inside the formation wait.
    EXPECT_GE(r.start, Millis(100.0)) << "request " << r.id;
    EXPECT_NE(r.instance, 0u) << "request " << r.id;
  }
}

TEST(TestbedTimer, KillMidServiceCompletesEachSubmitOnce) {
  batch::GenerativeConfig gen;
  const batch::GenerativeConfig* const modes[] = {&gen, nullptr};
  for (const batch::GenerativeConfig* mode : modes) {
    SCOPED_TRACE(mode != nullptr ? "generative" : "one-shot");
    ScenarioConfig config;
    config.gpus = 2;
    auto scheme = MakeSchemeByName("st", config);
    // A 400 ms per-request overhead makes every batch (and prefill) long,
    // so the crash at 60 ms lands while worker 0 is mid-service.
    fault::FaultPlan plan;
    plan.CrashAt(Millis(60.0), 0);
    TestbedConfig tb;
    tb.time_scale = 0.5;
    tb.per_request_overhead = Millis(400.0);
    tb.fault_plan = &plan;
    tb.generative = mode;
    LiveTestbed testbed(*scheme, tb);
    testbed.Start();
    std::vector<int> callbacks;
    const TestbedResult result = SubmitBurstAndFinish(
        testbed, 2, /*decode_len=*/mode != nullptr ? 3 : 0, callbacks);

    EXPECT_EQ(callbacks, std::vector<int>(2, 1));
    ASSERT_EQ(result.records.size(), 2u);
    EXPECT_EQ(result.injected_failures, 1);
    EXPECT_GE(result.requeues, 1u);
    int restarted = 0;
    for (const RequestRecord& r : result.records) {
      EXPECT_NE(r.instance, 0u) << "request " << r.id;
      if (r.start >= Millis(60.0)) ++restarted;
    }
    EXPECT_GE(restarted, 1);  // the killed request ran again from the start
  }
}

}  // namespace
}  // namespace arlo::serving
