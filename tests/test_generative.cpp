// Generative serving: the ContinuousBatcher state machine, the two-phase
// cost model, the KV capacity boundary, engine/testbed integration, and —
// first of all — that the feature's default-off path keeps seeded one-shot
// runs byte-identical to pre-generative builds (golden hashes below were
// generated at the parent commit).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/scenario.h"
#include "batch/continuous.h"
#include "batch/policy.h"
#include "runtime/compiled_runtime.h"
#include "serving/live_testbed.h"
#include "serving/testbed.h"
#include "sim/engine.h"
#include "telemetry/sink.h"
#include "trace/generative.h"
#include "trace/twitter.h"

namespace arlo {
namespace {

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Golden: --generative off is byte-identical to the pre-generative build.
// The three hashes were produced at the parent commit by an identical
// generator (same trace, same schemes, same telemetry dump); if one of them
// moves, the generative PR changed the one-shot path, which it must not.

trace::Trace GoldenTrace() {
  trace::TwitterTraceConfig tc;
  tc.duration_s = 5.0;
  tc.mean_rate = 400.0;
  tc.seed = 17;
  return trace::SynthesizeTwitterTrace(tc);
}

TEST(GenerativeGolden, OneShotTraceCsvIsByteIdenticalToPrePr) {
  std::ostringstream csv;
  GoldenTrace().SaveCsv(csv);
  EXPECT_EQ(Fnv1a(csv.str()), 2696290044842556078ull);
}

std::uint64_t OneShotRunHash(const trace::Trace& t, int max_batch,
                             const char* policy_name) {
  baselines::ScenarioConfig config;
  config.gpus = 6;
  config.period = Seconds(2.0);
  config.max_batch = max_batch;
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand = baselines::DemandFromTrace(t, *runtimes, config.slo);
  auto scheme = baselines::MakeSchemeByName("arlo", config);
  auto policy = batch::MakeBatchPolicy(policy_name);
  telemetry::TelemetrySink sink;
  sim::EngineConfig engine;
  engine.max_batch = max_batch;
  engine.batch_policy = policy.get();
  engine.telemetry = &sink;
  (void)sim::RunScenario(t, *scheme, engine);
  std::ostringstream trace_json;
  sink.WriteChromeTrace(trace_json);
  return Fnv1a(trace_json.str());
}

TEST(GenerativeGolden, OneShotChromeTraceIsByteIdenticalToPrePr) {
  const trace::Trace t = GoldenTrace();
  EXPECT_EQ(OneShotRunHash(t, 1, "greedy"), 9725147058057450035ull);
  EXPECT_EQ(OneShotRunHash(t, 4, "slo"), 709274047207607683ull);
}

// ---------------------------------------------------------------------------
// CLI parse/validate golden messages (scripts and docs quote these).

TEST(GenerativeParse, GoldenErrorMessages) {
  try {
    batch::ParseGenAdmission("fifo");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown admission policy: fifo "
                 "(valid policies: decode, prefill)");
  }
  try {
    batch::ParseGenBatcherMode("orca");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown generative batcher: orca "
                 "(valid batchers: continuous, static)");
  }
  try {
    batch::ValidateKvCapacity(0);
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--kv-capacity must be a positive integer in [1, 4096] "
                 "(got 0)");
  }
  try {
    trace::ParseDecodeLengthDist("zipf:3");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "bad --decode-len-dist 'zipf:3': unknown distribution 'zipf' "
                 "(expected short, long, mixed, const:N, uniform:LO:HI, "
                 "lognormal:MED:P98:MAX)");
  }
}

TEST(GenerativeParse, AcceptsTheDocumentedSpecs) {
  for (const char* spec :
       {"short", "long", "mixed", "const:64", "uniform:8:32",
        "lognormal:32:96:256"}) {
    EXPECT_NE(trace::ParseDecodeLengthDist(spec), nullptr) << spec;
  }
  EXPECT_EQ(batch::ParseGenAdmission("prefill"),
            batch::GenAdmission::kPrioritizePrefill);
  EXPECT_EQ(batch::ParseGenAdmission("decode"),
            batch::GenAdmission::kDecodeFirst);
  EXPECT_EQ(batch::ParseGenBatcherMode("continuous"),
            batch::GenBatcherMode::kContinuous);
  EXPECT_EQ(batch::ParseGenBatcherMode("static"),
            batch::GenBatcherMode::kStatic);
  EXPECT_EQ(batch::ValidateKvCapacity(4096), 4096);
  EXPECT_THROW(batch::ValidateKvCapacity(4097), std::invalid_argument);
  EXPECT_THROW(trace::ParseDecodeLengthDist("uniform:9:3"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ContinuousBatcher unit tests.

batch::Item MakeItem(RequestId id, int length, int decode_len) {
  batch::Item item;
  item.request.id = id;
  item.request.length = length;
  item.request.decode_len = decode_len;
  return item;
}

TEST(ContinuousBatcher, KvCapacityBoundsAdmissionExactly) {
  batch::GenerativeConfig config;
  config.kv_capacity = 2;
  config.preempt = false;
  batch::ContinuousBatcher b(config);
  b.Enqueue(MakeItem(0, 100, 4));
  b.Enqueue(MakeItem(1, 120, 4));
  b.Enqueue(MakeItem(2, 140, 4));

  // Prefill admits exactly the KV capacity, not the whole queue.
  auto plan = b.BeginIteration(0);
  ASSERT_EQ(plan.kind, batch::IterationPlan::Kind::kPrefill);
  EXPECT_EQ(plan.batch, 2);
  EXPECT_EQ(plan.max_len, 120);
  auto result = b.CompleteIteration(10);
  EXPECT_EQ(result.tokens, 2);              // prefill emits token #1 each
  ASSERT_EQ(result.first_tokens.size(), 2u);
  EXPECT_EQ(b.ResidentCount(), 2);
  EXPECT_EQ(b.WaitingCount(), 1);

  // At the cap with preemption off: request 2 is refused — every iteration
  // is a decode until a resident finishes and releases its KV slot.
  for (int step = 0; step < 3; ++step) {
    plan = b.BeginIteration(20 + step);
    ASSERT_EQ(plan.kind, batch::IterationPlan::Kind::kDecode) << step;
    EXPECT_EQ(plan.batch, 2) << step;
    EXPECT_LE(b.ResidentCount(), 2) << step;
    result = b.CompleteIteration(30 + step);
  }
  // decode_len 4 = prefill token + 3 decode steps: both just finished.
  ASSERT_EQ(result.finished.size(), 2u);
  EXPECT_EQ(b.ResidentCount(), 0);

  // The freed slots resume admission of the refused request.
  plan = b.BeginIteration(50);
  ASSERT_EQ(plan.kind, batch::IterationPlan::Kind::kPrefill);
  EXPECT_EQ(plan.batch, 1);
  EXPECT_EQ(plan.max_len, 140);
  (void)b.CompleteIteration(60);
  EXPECT_EQ(b.ResidentCount(), 1);
  EXPECT_EQ(b.WaitingCount(), 0);
  EXPECT_EQ(b.Preemptions(), 0u);
}

TEST(ContinuousBatcher, PreemptsYoungestAtMostOncePerSequence) {
  batch::GenerativeConfig config;
  config.kv_capacity = 1;
  config.preempt = true;
  batch::ContinuousBatcher b(config);
  b.Enqueue(MakeItem(0, 100, 50));
  (void)b.BeginIteration(0);
  (void)b.CompleteIteration(1);
  ASSERT_EQ(b.ResidentCount(), 1);

  // A fresh prompt evicts the resident (recompute-style)...
  b.Enqueue(MakeItem(1, 100, 50));
  auto plan = b.BeginIteration(2);
  ASSERT_EQ(plan.kind, batch::IterationPlan::Kind::kPrefill);
  EXPECT_EQ(plan.preempted, 1);
  (void)b.CompleteIteration(3);
  EXPECT_EQ(b.Preemptions(), 1u);
  EXPECT_EQ(b.WaitingCount(), 1);  // request 0 went back to the queue

  // ...and the evictee's re-admission evicts request 1 in turn...
  plan = b.BeginIteration(4);
  ASSERT_EQ(plan.kind, batch::IterationPlan::Kind::kPrefill);
  EXPECT_EQ(plan.preempted, 1);
  (void)b.CompleteIteration(5);
  EXPECT_EQ(b.Preemptions(), 2u);

  // ...but request 0 is now immune: with request 1 waiting, the planner
  // falls through to decode instead of thrashing forever.
  plan = b.BeginIteration(6);
  EXPECT_EQ(plan.kind, batch::IterationPlan::Kind::kDecode);
  EXPECT_EQ(b.Preemptions(), 2u);
  EXPECT_EQ(b.WaitingCount(), 1);
}

TEST(ContinuousBatcher, StaticModeBillsTheCohortShapeUntilDrain) {
  batch::GenerativeConfig config;
  config.mode = batch::GenBatcherMode::kStatic;
  config.kv_capacity = 4;
  batch::ContinuousBatcher b(config);
  b.Enqueue(MakeItem(0, 100, 2));
  b.Enqueue(MakeItem(1, 100, 5));
  b.Enqueue(MakeItem(2, 100, 2));

  auto plan = b.BeginIteration(0);
  ASSERT_EQ(plan.kind, batch::IterationPlan::Kind::kPrefill);
  EXPECT_EQ(plan.batch, 3);  // static admits up to kv_capacity, not 4-max
  (void)b.CompleteIteration(1);

  // First decode: all three, billed at 3.
  plan = b.BeginIteration(2);
  ASSERT_EQ(plan.kind, batch::IterationPlan::Kind::kDecode);
  EXPECT_EQ(plan.batch, 3);
  EXPECT_EQ(plan.billed_batch, 3);
  auto result = b.CompleteIteration(3);
  EXPECT_EQ(result.finished.size(), 2u);  // the decode_len-2 pair is done

  // The straggler decodes alone but still bills at the launch cohort of 3 —
  // and no new admission happens until it drains, even with queue pressure.
  b.Enqueue(MakeItem(3, 100, 2));
  for (int step = 0; step < 3; ++step) {
    plan = b.BeginIteration(4 + step);
    ASSERT_EQ(plan.kind, batch::IterationPlan::Kind::kDecode) << step;
    EXPECT_EQ(plan.batch, 1) << step;
    EXPECT_EQ(plan.billed_batch, 3) << step;
    result = b.CompleteIteration(5 + step);
  }
  ASSERT_EQ(result.finished.size(), 1u);

  // Drained: the next cohort launches with a fresh shape.
  plan = b.BeginIteration(10);
  ASSERT_EQ(plan.kind, batch::IterationPlan::Kind::kPrefill);
  EXPECT_EQ(plan.batch, 1);
  (void)b.CompleteIteration(11);
  plan = b.BeginIteration(12);
  EXPECT_EQ(plan.billed_batch, 1);
}

TEST(ContinuousBatcher, StealAllAbortsEverythingStealWaitingKeepsResidents) {
  batch::GenerativeConfig config;
  config.kv_capacity = 2;
  batch::ContinuousBatcher b(config);
  b.Enqueue(MakeItem(0, 100, 8));
  b.Enqueue(MakeItem(1, 100, 8));
  b.Enqueue(MakeItem(2, 100, 8));
  (void)b.BeginIteration(0);
  (void)b.CompleteIteration(1);

  auto waiting = b.StealWaiting();
  ASSERT_EQ(waiting.size(), 1u);
  EXPECT_EQ(waiting[0].request.id, 2u);
  EXPECT_EQ(b.ResidentCount(), 2);  // residents finish in place
  EXPECT_FALSE(b.Idle());

  auto all = b.StealAll();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_TRUE(b.Idle());
}

// ---------------------------------------------------------------------------
// Decode runs: DecodeRunLength and AdvanceDecode, the batcher half of the
// testbed arming one deadline per run instead of one per token.

/// Completes the running decode iteration and plans the next, step by step,
/// until a sequence finishes; returns the steps taken and the last result.
int StepsToFirstFinish(batch::ContinuousBatcher& b, SimTime& now,
                       batch::ContinuousBatcher::IterationResult& last) {
  for (int steps = 1;; ++steps) {
    last = b.CompleteIteration(++now);
    if (!last.finished.empty()) return steps;
    // Membership is fixed until a sequence finishes: never a prefill.
    EXPECT_EQ(b.BeginIteration(++now).kind,
              batch::IterationPlan::Kind::kDecode)
        << "step " << steps;
  }
}

/// `b` runs a decode iteration.  The run-length query must match a
/// step-by-step replay, and the bulk advance must leave that replay's state.
void ExpectRunMatchesSingleSteps(batch::ContinuousBatcher& b, SimTime now) {
  const int k = b.DecodeRunLength();
  ASSERT_GE(k, 1);
  batch::ContinuousBatcher bulk = b;
  batch::ContinuousBatcher::IterationResult single;
  EXPECT_EQ(StepsToFirstFinish(b, now, single), k);

  bulk.AdvanceDecode(k - 1);
  const batch::ContinuousBatcher::IterationResult last =
      bulk.CompleteIteration(now);
  EXPECT_EQ(last.plan.kind, single.plan.kind);
  EXPECT_EQ(last.plan.batch, single.plan.batch);
  EXPECT_EQ(last.plan.billed_batch, single.plan.billed_batch);
  EXPECT_EQ(last.plan.max_len, single.plan.max_len);
  EXPECT_EQ(last.tokens, single.tokens);
  ASSERT_EQ(last.finished.size(), single.finished.size());
  for (std::size_t i = 0; i < last.finished.size(); ++i) {
    EXPECT_EQ(last.finished[i].item.request.id,
              single.finished[i].item.request.id);
    EXPECT_EQ(last.finished[i].decoded, single.finished[i].decoded);
  }
  EXPECT_EQ(bulk.ResidentCount(), b.ResidentCount());
  EXPECT_EQ(bulk.WaitingCount(), b.WaitingCount());
  if (b.Idle()) return;
  const batch::IterationPlan next = b.BeginIteration(now + 1);
  const batch::IterationPlan bulk_next = bulk.BeginIteration(now + 1);
  EXPECT_EQ(bulk_next.kind, next.kind);
  EXPECT_EQ(bulk_next.batch, next.batch);
  EXPECT_EQ(bulk_next.billed_batch, next.billed_batch);
  EXPECT_EQ(bulk_next.max_len, next.max_len);
}

TEST(ContinuousBatcher, DecodeRunEndsAtTheFirstFinishInContinuousMode) {
  batch::GenerativeConfig config;
  config.kv_capacity = 4;
  batch::ContinuousBatcher b(config);
  b.Enqueue(MakeItem(0, 100, 6));
  b.Enqueue(MakeItem(1, 130, 3));
  b.Enqueue(MakeItem(2, 90, 9));
  ASSERT_EQ(b.BeginIteration(0).kind, batch::IterationPlan::Kind::kPrefill);
  (void)b.CompleteIteration(1);

  ASSERT_EQ(b.BeginIteration(2).kind, batch::IterationPlan::Kind::kDecode);
  EXPECT_EQ(b.DecodeRunLength(), 2);  // request 1: 3 tokens, 1 from prefill
  ExpectRunMatchesSingleSteps(b, 2);
  // The next run is over the two survivors, whose contexts kept growing.
  EXPECT_EQ(b.DecodeRunLength(), 3);
  ExpectRunMatchesSingleSteps(b, 100);
}

TEST(ContinuousBatcher, DecodeRunEndsAtTheFirstFinishInStaticMode) {
  batch::GenerativeConfig config;
  config.mode = batch::GenBatcherMode::kStatic;
  config.kv_capacity = 3;
  batch::ContinuousBatcher b(config);
  b.Enqueue(MakeItem(0, 100, 4));
  b.Enqueue(MakeItem(1, 100, 7));
  ASSERT_EQ(b.BeginIteration(0).kind, batch::IterationPlan::Kind::kPrefill);
  (void)b.CompleteIteration(1);
  // A waiting prompt does not cut a static run: no admission until drain.
  b.Enqueue(MakeItem(2, 100, 2));

  ASSERT_EQ(b.BeginIteration(2).kind, batch::IterationPlan::Kind::kDecode);
  EXPECT_EQ(b.DecodeRunLength(), 3);
  ExpectRunMatchesSingleSteps(b, 2);
  // The straggler's run still bills the launch cohort of 2.
  ASSERT_EQ(b.DecodeRunLength(), 3);
  EXPECT_EQ(b.WaitingCount(), 1);
  ExpectRunMatchesSingleSteps(b, 100);
}

TEST(ContinuousBatcher, DecodeRunOnAKvFullImmuneBatchDecodesPastTheWaiter) {
  // The preemption test's end state: request 0 resident and immune at the
  // KV cap, request 1 waiting.  The batcher decodes instead of prefilling,
  // and keeps doing so for the whole run.
  batch::GenerativeConfig config;
  config.kv_capacity = 1;
  config.preempt = true;
  batch::ContinuousBatcher b(config);
  b.Enqueue(MakeItem(0, 100, 12));
  (void)b.BeginIteration(0);
  (void)b.CompleteIteration(1);
  b.Enqueue(MakeItem(1, 100, 12));
  (void)b.BeginIteration(2);  // evicts request 0
  (void)b.CompleteIteration(3);
  (void)b.BeginIteration(4);  // request 0 back, evicting request 1
  (void)b.CompleteIteration(5);
  ASSERT_EQ(b.Preemptions(), 2u);

  const batch::IterationPlan plan = b.BeginIteration(6);
  ASSERT_EQ(plan.kind, batch::IterationPlan::Kind::kDecode);
  EXPECT_EQ(b.WaitingCount(), 1);
  EXPECT_EQ(b.DecodeRunLength(), 11);
  ExpectRunMatchesSingleSteps(b, 6);
  EXPECT_EQ(b.Preemptions(), 2u);
}

// ---------------------------------------------------------------------------
// Two-phase cost model.

TEST(GenerativeCostModel, DecodeStepTimeIsSaneAndClamped) {
  const runtime::ModelSpec model = runtime::ModelSpec::BertBase();
  const runtime::CompiledRuntime rt(model, runtime::CompilationKind::kDynamic,
                                    model.native_max_length);
  const SimDuration one = rt.DecodeStepTime(1, 64);
  EXPECT_GT(one, 0);
  // A decode step reads one token's KV-augmented attention — far cheaper
  // than prefilling the same context.
  EXPECT_LT(one, rt.ComputeTime(64));
  // Monotone in the batch bucket and in context length.
  EXPECT_GT(rt.DecodeStepTime(8, 64), one);
  EXPECT_GT(rt.DecodeStepTime(1, 512), one);
  // Bucketized batch: 5..8 share the 8-bucket price.
  EXPECT_EQ(rt.DecodeStepTime(5, 64), rt.DecodeStepTime(8, 64));
  // Context is clamped at the model's native max (KV never exceeds it).
  EXPECT_EQ(rt.DecodeStepTime(1, 1 << 20),
            rt.DecodeStepTime(1, model.native_max_length));
}

TEST(GenerativeCostModel, KvSequenceCapacityMatchesTheMath) {
  const runtime::ModelSpec model = runtime::ModelSpec::BertBase();
  // fp16 K and V vectors per layer per token.
  EXPECT_DOUBLE_EQ(runtime::KvBytesPerToken(model),
                   2.0 * 2.0 * model.layers * model.hidden);
  const double budget = 16.0 * 1024.0 * 1024.0 * 1024.0;
  const int expect = static_cast<int>(
      budget / (runtime::KvBytesPerToken(model) * model.native_max_length));
  EXPECT_EQ(runtime::KvSequenceCapacity(model, 16.0, model.native_max_length),
            expect);
  // A budget below one sequence still yields capacity 1, never 0.
  EXPECT_EQ(runtime::KvSequenceCapacity(model, 1e-6, model.native_max_length),
            1);
}

// ---------------------------------------------------------------------------
// Engine integration: completeness, metric ordering, determinism.

trace::Trace GenTrace(double rate, double duration_s, std::uint64_t seed,
                      const char* dist) {
  trace::TwitterTraceConfig tc;
  tc.duration_s = duration_s;
  tc.mean_rate = rate;
  tc.seed = seed;
  tc.decode_lengths = trace::ParseDecodeLengthDist(dist);
  return trace::SynthesizeTwitterTrace(tc);
}

sim::EngineResult RunGenScenario(const trace::Trace& t,
                                 const batch::GenerativeConfig& gen) {
  baselines::ScenarioConfig config;
  config.gpus = 3;
  config.period = Seconds(2.0);
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand = baselines::DemandFromTrace(t, *runtimes, config.slo);
  auto scheme = baselines::MakeSchemeByName("arlo", config);
  sim::EngineConfig engine;
  engine.generative = &gen;
  return sim::RunScenario(t, *scheme, engine);
}

TEST(GenerativeEngine, ServesEveryRequestWithOrderedTimestamps) {
  const trace::Trace t = GenTrace(150.0, 3.0, 11, "short");
  ASSERT_TRUE(t.IsGenerative());
  batch::GenerativeConfig gen;
  gen.kv_capacity = 4;
  const sim::EngineResult result = RunGenScenario(t, gen);

  ASSERT_EQ(result.records.size(), t.Size());
  for (const RequestRecord& r : result.records) {
    ASSERT_TRUE(r.IsGenerative()) << r.id;
    EXPECT_GE(r.start, r.arrival) << r.id;
    EXPECT_GT(r.first_token, r.start) << r.id;
    EXPECT_LE(r.first_token, r.completion) << r.id;
    EXPECT_GE(r.TimeToFirstToken(), 0) << r.id;
    if (r.decode_len >= 2) {
      EXPECT_GT(r.MeanInterTokenLatency(), 0) << r.id;
      EXPECT_LT(r.first_token, r.completion) << r.id;
    }
  }
  EXPECT_GT(result.gen_prefill_iterations, 0u);
  EXPECT_GT(result.gen_decode_iterations, 0u);
  // Every request's full decode target was generated (preempted sequences
  // recompute, so reprocessed tokens can only add on top).
  std::uint64_t want_tokens = 0;
  for (const Request& r : t.Requests()) {
    want_tokens += static_cast<std::uint64_t>(std::max(1, r.decode_len));
  }
  EXPECT_GE(result.gen_tokens, want_tokens);
}

TEST(GenerativeEngine, SeededRunsAreDeterministic) {
  const trace::Trace t = GenTrace(200.0, 2.0, 23, "mixed");
  for (const char* admission : {"prefill", "decode"}) {
    batch::GenerativeConfig gen;
    gen.admission = batch::ParseGenAdmission(admission);
    gen.kv_capacity = 3;
    const sim::EngineResult a = RunGenScenario(t, gen);
    const sim::EngineResult b = RunGenScenario(t, gen);
    ASSERT_EQ(a.records.size(), b.records.size()) << admission;
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      EXPECT_EQ(a.records[i].id, b.records[i].id);
      EXPECT_EQ(a.records[i].first_token, b.records[i].first_token);
      EXPECT_EQ(a.records[i].completion, b.records[i].completion);
      EXPECT_EQ(a.records[i].decode_len, b.records[i].decode_len);
    }
    EXPECT_EQ(a.gen_preemptions, b.gen_preemptions) << admission;
    EXPECT_EQ(a.gen_tokens, b.gen_tokens) << admission;
  }
}

TEST(GenerativeEngine, DecodeLenSurvivesTheCsvRoundTrip) {
  const trace::Trace t = GenTrace(80.0, 1.0, 5, "const:17");
  std::ostringstream os;
  t.SaveCsv(os);
  std::istringstream is(os.str());
  const trace::Trace back = trace::Trace::LoadCsv(is);
  ASSERT_EQ(back.Size(), t.Size());
  for (std::size_t i = 0; i < t.Size(); ++i) {
    EXPECT_EQ(back.Requests()[i].decode_len, 17);
    EXPECT_EQ(back.Requests()[i].length, t.Requests()[i].length);
  }
}

// ---------------------------------------------------------------------------
// Testbed integration smoke: the threaded substrate serves a generative
// trace completely, under both admission policies.  Runs under TSan/ASan in
// check.sh (filter Generative*).

TEST(GenerativeTestbed, ServesCompleteGenerativeTrace) {
  const trace::Trace t = GenTrace(120.0, 1.0, 31, "short");
  for (const char* admission : {"prefill", "decode"}) {
    baselines::ScenarioConfig config;
    config.gpus = 2;
    auto scheme = baselines::MakeSchemeByName("st", config);
    batch::GenerativeConfig gen;
    gen.admission = batch::ParseGenAdmission(admission);
    gen.kv_capacity = 4;
    serving::TestbedConfig tb;
    tb.time_scale = 0.25;
    tb.generative = &gen;
    const serving::TestbedResult result = serving::RunTestbed(t, *scheme, tb);
    ASSERT_EQ(result.records.size(), t.Size()) << admission;
    for (const RequestRecord& r : result.records) {
      EXPECT_TRUE(r.IsGenerative());
      EXPECT_GT(r.first_token, 0) << r.id;
      EXPECT_LE(r.first_token, r.completion) << r.id;
    }
    EXPECT_GT(result.gen_prefill_iterations, 0u) << admission;
    EXPECT_GT(result.gen_decode_iterations, 0u) << admission;
  }
}

// ---------------------------------------------------------------------------
// Live vs simulated generative serving: §5.2.1's calibration for the decode
// path, and the admission estimate against the queueing it predicts.

// Live-vs-sim tolerances, about twice the largest gap of 12 single runs
// (6 on an idle 4-core host, 6 beside 4 CPU burners): TTFT p50 read
// +2.9..+7.7%, mean-ITL p50 +0.0..+0.6%.
constexpr double kTtftTolerance = 0.15;
constexpr double kItlTolerance = 0.05;
// The generative admission estimate read 0.85-0.97x the measured median.
constexpr double kEstimateFactor = 3.0;

/// The shape of perfbench's gen-mixed node: 4 GPUs, Arlo deployed for the
/// trace's own demand and kept (no re-allocation), continuous batching with
/// prefill priority and KV capacity 8.
baselines::ScenarioConfig SteadyGenScenario(const trace::Trace& t) {
  baselines::ScenarioConfig config;
  config.gpus = 4;
  config.enable_reallocation = false;
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand = baselines::DemandFromTrace(t, *runtimes, config.slo);
  return config;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

struct GenMedians {
  double ttft_ms = 0.0;
  double itl_ms = 0.0;
};

GenMedians MediansOf(const std::vector<RequestRecord>& records) {
  std::vector<double> ttft;
  std::vector<double> itl;
  for (const RequestRecord& r : records) {
    ttft.push_back(ToMillis(r.TimeToFirstToken()));
    if (r.decode_len >= 2) itl.push_back(ToMillis(r.MeanInterTokenLatency()));
  }
  return {Median(ttft), Median(itl)};
}

TEST(GenerativeTestbed, AgreesWithSimulator) {
  // gen-mixed's load point (260 req/s of wall time at 2x compression).
  const trace::Trace t = GenTrace(130.0, 3.0, 7, "mixed");
  const baselines::ScenarioConfig config = SteadyGenScenario(t);
  batch::GenerativeConfig gen;

  auto sim_scheme = baselines::MakeSchemeByName("arlo", config);
  sim::EngineConfig engine;
  engine.generative = &gen;
  const GenMedians sim =
      MediansOf(sim::RunScenario(t, *sim_scheme, engine).records);

  std::map<RequestId, int> decode_len;
  for (const Request& r : t.Requests()) decode_len[r.id] = r.decode_len;
  // A shared host can stall any one wall-clock run; judge the less
  // perturbed of two (cf. Testbed.AgreesWithSimulatorOnLightTraffic).
  GenMedians live;
  for (int run = 0; run < 2; ++run) {
    auto live_scheme = baselines::MakeSchemeByName("arlo", config);
    serving::TestbedConfig tb;
    tb.time_scale = 0.5;
    tb.generative = &gen;
    const serving::TestbedResult result =
        serving::RunTestbed(t, *live_scheme, tb);
    ASSERT_EQ(result.records.size(), t.Size());
    std::map<RequestId, int> served;
    for (const RequestRecord& r : result.records) {
      EXPECT_EQ(++served[r.id], 1) << "request " << r.id;
      EXPECT_EQ(r.decode_len, decode_len.at(r.id)) << "request " << r.id;
    }
    const GenMedians m = MediansOf(result.records);
    if (run == 0 || m.ttft_ms < live.ttft_ms) live = m;
  }
  RecordProperty("ttft_gap_pct", std::to_string(100.0 * (live.ttft_ms / sim.ttft_ms - 1.0)));
  RecordProperty("itl_gap_pct", std::to_string(100.0 * (live.itl_ms / sim.itl_ms - 1.0)));
  // Live only adds time (wake-up latency, host stalls) to the modeled
  // iterations; decode steps that nobody observes chain at modeled times.
  EXPECT_NEAR(live.ttft_ms, sim.ttft_ms, kTtftTolerance * sim.ttft_ms);
  EXPECT_NEAR(live.itl_ms, sim.itl_ms, kItlTolerance * sim.itl_ms);
}

TEST(GenerativeTestbed, QueueDelayEstimateTracksMeasuredQueueing) {
  const trace::Trace t = GenTrace(130.0, 3.0, 9, "mixed");
  const baselines::ScenarioConfig config = SteadyGenScenario(t);
  auto scheme = baselines::MakeSchemeByName("arlo", config);
  batch::GenerativeConfig gen;
  serving::TestbedConfig tb;
  tb.time_scale = 0.5;
  tb.generative = &gen;
  serving::LiveTestbed testbed(*scheme, tb);
  testbed.Start();
  // Replay the trace, sampling the admission estimate at each arrival.
  std::vector<double> estimates;
  for (const Request& r : t.Requests()) {
    while (testbed.Now() < r.arrival) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const SimDuration estimate = testbed.EstimatedQueueDelay();
    if (estimate > 0) estimates.push_back(static_cast<double>(estimate));
    testbed.Submit(r);
  }
  const serving::TestbedResult result = testbed.Finish();
  ASSERT_EQ(result.records.size(), t.Size());
  std::vector<double> measured;
  for (const RequestRecord& r : result.records) {
    measured.push_back(static_cast<double>(r.start - r.arrival));
  }
  ASSERT_FALSE(estimates.empty());
  const double estimate = Median(estimates);
  const double queued = Median(measured);
  RecordProperty("estimate_over_measured", std::to_string(estimate / queued));
  // Within kEstimateFactor either way.  Pricing resident decode time as
  // queueing read ~270x the measured median.
  EXPECT_LE(estimate, kEstimateFactor * queued);
  EXPECT_GE(estimate, queued / kEstimateFactor);
}

}  // namespace
}  // namespace arlo
