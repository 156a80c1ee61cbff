#include "serving/testbed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/scenario.h"
#include "batch/continuous.h"
#include "core/multi_level_queue.h"
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

// ---------------------------------------------------------------------------
// Decode runs (testbed.h): a generative worker arms one deadline per decode
// run, not one per token.  Whatever lands mid-run — an arrival, a kill, a
// hang, a slowdown, a retirement, a hang scan — each submit completes
// exactly once and no record is stamped before its modeled time.

/// The static BERT-base runtime every "st" worker serves.
const runtime::CompiledRuntime& StRuntime() {
  static const runtime::RuntimeSet set = [] {
    runtime::SimulatedCompiler compiler;
    return runtime::MakeSingleStaticSet(compiler, ScenarioConfig{}.model);
  }();
  return set.Runtime(0);
}

/// Modeled decode time of a lone sequence after its prefill: one batch-1
/// step per further token, each over its own context.  Every real decode
/// step is at least as long (more residents, longer contexts, slowdowns).
SimDuration LoneDecodeTime(int length, int decode_len) {
  SimDuration total = 0;
  for (int i = 1; i < decode_len; ++i) {
    total += StRuntime().DecodeStepTime(1, length + i);
  }
  return total;
}

/// A generative testbed serving on "st" workers, 2x compressed, that counts
/// each request's completion callbacks.
class GenRunBed {
 public:
  static constexpr int kMaxRequests = 16;
  static constexpr int kLength = 64;

  explicit GenRunBed(int gpus, const fault::FaultPlan* plan = nullptr,
                     std::unique_ptr<sim::Scheme> scheme = nullptr)
      : callbacks_(kMaxRequests, 0) {
    if (scheme == nullptr) {
      ScenarioConfig config;
      config.gpus = gpus;
      scheme = MakeSchemeByName("st", config);
    }
    scheme_ = std::move(scheme);
    tb_.time_scale = 0.5;
    tb_.generative = &gen_;
    tb_.fault_plan = plan;
  }

  TestbedConfig& Config() { return tb_; }
  LiveTestbed& Bed() { return *testbed_; }

  void Start() {
    testbed_ = std::make_unique<LiveTestbed>(*scheme_, tb_);
    testbed_->Start();
  }

  void Submit(RequestId id, int decode_len) {
    ASSERT_LT(id, static_cast<RequestId>(kMaxRequests));
    Request r;
    r.id = id;
    r.arrival = testbed_->Now();
    r.length = kLength;
    r.decode_len = decode_len;
    ++submitted_;
    // Runs on the timer thread; Finish() joins it before callbacks_ is read.
    testbed_->Submit(r, [this](const RequestRecord& record) {
      ++callbacks_[record.id];
    });
  }

  /// Sleeps until the testbed's (simulated) clock reaches `t`.
  void WaitUntil(SimTime t) const {
    while (testbed_->Now() < t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Finishes the run and checks the contract every decode-run test shares:
  /// one callback per submit, one record each, none stamped early.
  TestbedResult Finish() {
    TestbedResult result = testbed_->Finish();
    EXPECT_EQ(std::vector<int>(callbacks_.begin(),
                               callbacks_.begin() + submitted_),
              std::vector<int>(static_cast<std::size_t>(submitted_), 1));
    EXPECT_EQ(result.records.size(), static_cast<std::size_t>(submitted_));
    for (const RequestRecord& r : result.records) {
      EXPECT_GE(r.start, r.arrival) << "request " << r.id;
      EXPECT_GE(r.first_token - r.start,
                tb_.per_request_overhead +
                    StRuntime().BatchComputeTime(1, r.length))
          << "request " << r.id;
      EXPECT_GE(r.completion - r.first_token,
                LoneDecodeTime(r.length, std::max(1, r.decode_len)))
          << "request " << r.id;
    }
    std::sort(result.records.begin(), result.records.end(),
              [](const RequestRecord& a, const RequestRecord& b) {
                return a.id < b.id;
              });
    return result;
  }

 private:
  batch::GenerativeConfig gen_;
  TestbedConfig tb_;
  std::unique_ptr<sim::Scheme> scheme_;
  std::vector<int> callbacks_;
  int submitted_ = 0;
  // Last: its destructor finishes a run a failed assertion left open, and
  // the callbacks still in flight write callbacks_.
  std::unique_ptr<LiveTestbed> testbed_;
};

/// One decode step of a lone sequence early in its run.
SimDuration Step() {
  return StRuntime().DecodeStepTime(1, GenRunBed::kLength + 1);
}

/// Simulated time by which a lone sequence submitted at 0 is `steps` decode
/// steps into its run.
SimTime IntoRun(int steps) {
  return Millis(0.8) + StRuntime().BatchComputeTime(1, GenRunBed::kLength) +
         steps * Step();
}

TEST(TestbedTimer, LoneSequenceCountsExactlyItsDecodeSteps) {
  constexpr int kTokens = 300;
  for (const bool arrivals : {false, true}) {
    SCOPED_TRACE(arrivals ? "arrivals cut the run" : "one uncut run");
    GenRunBed bed(1);
    bed.Start();
    bed.Submit(0, kTokens);
    if (arrivals) {
      // Single-token requests prefill between the lone sequence's decode
      // steps and finish there: they cut its run but add no decode step.
      for (RequestId id = 1; id <= 4; ++id) {
        bed.WaitUntil(IntoRun(50 * static_cast<int>(id)));
        bed.Submit(id, 1);
      }
    }
    const TestbedResult result = bed.Finish();
    EXPECT_EQ(result.gen_decode_iterations,
              static_cast<std::uint64_t>(kTokens - 1));
    for (const RequestRecord& r : result.records) {
      // Admitted at the next boundary, not after the run.
      if (r.id != 0) EXPECT_LT(r.completion, result.records[0].completion);
    }
  }
}

TEST(TestbedTimer, ArrivalMidRunJoinsAtTheNextBoundary) {
  GenRunBed bed(1);
  bed.Start();
  bed.Submit(0, 400);
  bed.WaitUntil(IntoRun(100));
  bed.Submit(1, 20);
  const TestbedResult result = bed.Finish();
  const RequestRecord& lone = result.records[0];
  const RequestRecord& late = result.records[1];
  // The run was cut: the newcomer prefilled and finished while the first
  // sequence was still decoding, and both then decoded in one batch.
  EXPECT_LT(late.completion, lone.completion);
  EXPECT_LT(result.gen_decode_iterations, 399u + 19u);
  EXPECT_EQ(result.gen_prefill_iterations, 2u);
}

TEST(TestbedTimer, KillMidRunCompletesEachSubmitOnce) {
  fault::FaultPlan plan;
  plan.CrashAt(IntoRun(60), 0);
  GenRunBed bed(2, &plan);
  bed.Start();
  bed.Submit(0, 300);
  bed.Submit(1, 300);
  const TestbedResult result = bed.Finish();
  EXPECT_EQ(result.injected_failures, 1);
  EXPECT_GE(result.requeues, 1u);
  int restarted = 0;
  for (const RequestRecord& r : result.records) {
    EXPECT_NE(r.instance, 0u) << "request " << r.id;
    if (r.start >= IntoRun(60)) ++restarted;
  }
  EXPECT_GE(restarted, 1);  // what the crash held prefilled again
  // The ~60 decode steps worker 0 ran before the crash still count, on top
  // of the 299 the restarted sequences need.
  EXPECT_GE(result.gen_decode_iterations, 299u + 50u);
}

TEST(TestbedTimer, HangMidRunFreezesTheStepInFlight) {
  const SimDuration hang = 40 * Step();
  fault::FaultPlan plan;
  plan.HangAt(IntoRun(60), 0, hang);
  GenRunBed bed(1, &plan);
  bed.Start();
  bed.Submit(0, 300);
  const TestbedResult result = bed.Finish();
  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_EQ(result.injected_failures, 0);
  // The step in flight at the hang ends no earlier than the window, so the
  // run loses at least the window less that step.
  const RequestRecord& r = result.records[0];
  EXPECT_GE(r.completion - r.first_token,
            LoneDecodeTime(r.length, r.decode_len) + hang -
                StRuntime().DecodeStepTime(1, r.length + r.decode_len));
  EXPECT_EQ(result.gen_decode_iterations, 299u);
}

TEST(TestbedTimer, SlowdownMidRunStretchesTheStepsAfterIt) {
  const SimDuration window = 60 * Step();
  constexpr double kFactor = 3.0;
  fault::FaultPlan plan;
  plan.SlowdownAt(IntoRun(60), 0, window, kFactor);
  GenRunBed bed(1, &plan);
  bed.Start();
  bed.Submit(0, 300);
  const TestbedResult result = bed.Finish();
  EXPECT_EQ(result.faults_injected, 1u);
  // Every step that starts inside the window takes kFactor times as long;
  // past the step in flight at the slowdown, they fill the rest of it.
  const RequestRecord& r = result.records[0];
  const SimDuration longest =
      StRuntime().DecodeStepTime(1, r.length + r.decode_len);
  const auto extra = static_cast<SimDuration>(
      static_cast<double>(window - longest) * (kFactor - 1.0) / kFactor);
  EXPECT_GE(r.completion - r.first_token,
            LoneDecodeTime(r.length, r.decode_len) + extra);
  EXPECT_EQ(result.gen_decode_iterations, 299u);
}

/// One worker at a time, least-loaded dispatch; an external allocation
/// retires the live worker and launches its replacement.
class RetireOnReallocScheme final : public sim::Scheme {
 public:
  RetireOnReallocScheme() : queue_(1) {
    runtime::SimulatedCompiler compiler;
    rt_ = compiler.Compile(ScenarioConfig{}.model,
                           runtime::CompilationKind::kStatic, 512);
  }
  std::string Name() const override { return "retire-on-realloc"; }
  void Setup(sim::ClusterOps& cluster) override {
    cluster.LaunchInstance(0, rt_, 0);
  }
  InstanceId SelectInstance(const Request&, sim::ClusterOps&) override {
    const auto head = queue_.Head(0);
    return head ? head->id : kInvalidInstance;
  }
  void OnDispatched(const Request&, InstanceId id) override {
    queue_.OnDispatch(id);
  }
  void OnComplete(const RequestRecord& record, sim::ClusterOps&) override {
    queue_.OnComplete(record.instance);
  }
  void OnInstanceReady(InstanceId id, RuntimeId runtime) override {
    queue_.AddInstance(id, runtime, 1000);
    live_ = id;
  }
  void OnInstanceRetired(InstanceId) override { ++retired_; }
  bool ApplyExternalAllocation(const std::vector<int>&,
                               sim::ClusterOps& cluster) override {
    queue_.RemoveInstance(live_);
    cluster.RetireInstance(live_);
    cluster.LaunchInstance(0, rt_, 0);
    return true;
  }

  int retired_ = 0;

 private:
  std::shared_ptr<const runtime::CompiledRuntime> rt_;
  core::MultiLevelQueue queue_;
  InstanceId live_ = kInvalidInstance;
};

TEST(TestbedTimer, RetirementMidRunFinishesTheRunInPlace) {
  auto owned = std::make_unique<RetireOnReallocScheme>();
  RetireOnReallocScheme& scheme = *owned;
  GenRunBed bed(1, nullptr, std::move(owned));
  bed.Start();
  bed.Submit(0, 300);
  bed.WaitUntil(IntoRun(60));
  ASSERT_TRUE(bed.Bed().ApplyAllocation({1}));
  bed.Submit(1, 10);  // lands on the replacement
  const TestbedResult result = bed.Finish();
  EXPECT_EQ(result.records[0].instance, 0u);
  EXPECT_EQ(result.records[1].instance, 1u);
  EXPECT_EQ(scheme.retired_, 1);
  EXPECT_EQ(result.injected_failures, 0);
  EXPECT_GE(result.gen_decode_iterations, 299u);
}

TEST(TestbedTimer, HangReaperNeverReapsAHealthyLongRun) {
  // Real time, so a host stall of a few ms cannot outlast the timeout
  // during the prefill, the one stretch without decode steps to settle.
  fault::FaultPlan plan;  // no faults: just the health check
  GenRunBed bed(1, &plan);
  bed.Config().time_scale = 1.0;
  bed.Config().resilience.hang_timeout = Millis(25.0);
  bed.Config().resilience.health_check_period = Millis(2.0);
  bed.Start();
  bed.Submit(0, 400);
  const SimTime run_end = IntoRun(399);
  ASSERT_GT(run_end, 4 * bed.Config().resilience.hang_timeout);
  while (bed.Bed().Now() < run_end) {
    const TestbedHealth health = bed.Bed().Health();
    EXPECT_TRUE(health.hung.empty()) << "at " << bed.Bed().Now();
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  const TestbedResult result = bed.Finish();
  EXPECT_EQ(result.injected_failures, 0);
  EXPECT_EQ(result.records[0].instance, 0u);
  EXPECT_EQ(result.gen_decode_iterations, 399u);
}

}  // namespace
}  // namespace arlo::serving
