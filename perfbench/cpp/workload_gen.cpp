// gen-mixed: generative requests (mixed decode lengths) submitted in-process
// to a LiveTestbed running the continuous batcher with prefill-priority
// admission, at their due times; a completion callback collects each
// RequestRecord.  No wire: TTFT is read from the record.
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "baselines/scenario.h"
#include "batch/continuous.h"
#include "layers.h"
#include "serving/live_testbed.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Pattern = arlo::trace::TwitterTraceConfig::Pattern;
constexpr const char* kDecodeDist = "mixed";

struct GenNode {
  GenNode(double speed, bool timed, double rate) {
    const arlo::baselines::ScenarioConfig config =
        SteadyStateScenario(4, rate, speed, kDecodeDist);
    auto inner = arlo::baselines::MakeSchemeByName("arlo", config);
    if (timed) {
      auto wrapper = std::make_unique<TimedScheme>(std::move(inner));
      probe = wrapper.get();
      scheme = std::move(wrapper);
    } else {
      scheme = std::move(inner);
    }
    gen.mode = arlo::batch::GenBatcherMode::kContinuous;
    gen.admission = arlo::batch::GenAdmission::kPrioritizePrefill;
    gen.kv_capacity = 8;
    arlo::serving::TestbedConfig testbed;
    testbed.time_scale = 1.0 / speed;
    testbed.generative = &gen;
    backend = std::make_unique<arlo::serving::LiveTestbed>(*scheme, testbed);
    backend->Start();
  }
  ~GenNode() {
    if (backend) backend->Finish();
  }
  GenNode(const GenNode&) = delete;
  GenNode& operator=(const GenNode&) = delete;

  std::unique_ptr<arlo::sim::Scheme> scheme;
  TimedScheme* probe = nullptr;
  arlo::batch::GenerativeConfig gen;
  std::unique_ptr<arlo::serving::LiveTestbed> backend;
};

/// One in-process open-loop step.  Request ids are base + index.
struct GenStep {
  std::vector<arlo::RequestRecord> records;
  std::vector<int> completions;  ///< callbacks per request (must be 1)
  std::vector<Outcome> outcomes;
  std::uint64_t submitted = 0;
  std::uint64_t unanswered = 0;
  std::int64_t submitter_cpu_ns = 0;
  std::vector<double> late_ns;
};

GenStep RunGenStep(GenNode& node, const std::vector<LoadItem>& items,
                   double speed, std::uint64_t id_base, std::int64_t drain_ns) {
  GenStep step;
  step.records.resize(items.size());
  step.completions.assign(items.size(), 0);
  std::atomic<std::size_t> done{0};
  const std::int64_t start = NowNs() + 2'000'000;
  SleepUntil(start);
  const arlo::SimTime sim0 = node.backend->Now();
  const std::int64_t cpu0 = ThreadCpuNs();
  for (std::size_t i = 0; i < items.size(); ++i) {
    SleepUntil(start + items[i].due_ns);
    step.late_ns.push_back(static_cast<double>(NowNs() - start - items[i].due_ns));
    arlo::Request r;
    r.id = id_base + i;
    r.arrival = sim0 + static_cast<arlo::SimTime>(
                           static_cast<double>(items[i].due_ns) * speed);
    r.length = static_cast<int>(items[i].length);
    r.decode_len = static_cast<int>(items[i].decode_len);
    // Runs on a worker with the dispatch mutex held: store and return.
    node.backend->Submit(r, [&step, &done, i](const arlo::RequestRecord& rec) {
      if (step.completions[i]++ == 0) step.records[i] = rec;
      done.fetch_add(1, std::memory_order_release);
    });
    ++step.submitted;
  }
  step.submitter_cpu_ns = ThreadCpuNs() - cpu0;
  const std::int64_t deadline =
      start + (items.empty() ? 0 : items.back().due_ns) + drain_ns;
  while (done.load(std::memory_order_acquire) < items.size() && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  // The testbed never drops work: wait for the stragglers so no callback
  // outlives this frame, then judge each by when it completed.
  node.backend->Drain();
  const std::int64_t deadline_rel = deadline - start;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const arlo::RequestRecord& rec = step.records[i];
    Outcome o;
    o.due_ns = items[i].due_ns;
    o.sent = true;
    const auto wall = [&](arlo::SimTime t) {
      return static_cast<std::int64_t>(static_cast<double>(t - sim0) / speed);
    };
    o.first_ns = wall(rec.IsGenerative() ? rec.first_token : rec.completion);
    o.done_ns = wall(rec.completion);
    o.answered = o.done_ns <= deadline_rel;
    o.ok = o.answered;
    if (!o.answered) ++step.unanswered;
    if (rec.decode_len >= 2) {
      o.itl_ns = static_cast<std::int64_t>(
          static_cast<double>(rec.MeanInterTokenLatency()) / speed);
    }
    step.outcomes.push_back(o);
  }
  return step;
}

void CheckGenAccounting(const std::string& name, const GenStep& g,
                        Report& report) {
  std::size_t once = 0;
  for (const int c : g.completions) once += c == 1 ? 1 : 0;
  report.Check(name + "_accounting", once == g.submitted,
               "submitted " + std::to_string(g.submitted) +
                   ", completed exactly once " + std::to_string(once) +
                   ", open at the drain deadline " +
                   std::to_string(g.unanswered));
}

}  // namespace

void RunGenMixed(const RunOptions& options, Report& report) {
  const std::int64_t drain_ns = static_cast<std::int64_t>(
      std::max(1e9, 10.0 * options.limits.latency_ms * 1e6));
  const StepTiming heavy_timing = SegmentTiming(options, options.heavy());

  std::unique_ptr<GenNode> node;
  Schedules schedules;
  std::vector<LoadItem> warmup;
  const auto tear_down = [&] {
    node.reset();
    schedules.clear();
    warmup.clear();
  };
  TimeSetUp(options, tear_down, [&] {
    schedules = MakeSchedules(options, Pattern::kStable, kDecodeDist);
    warmup = MakeWarmup(options, Pattern::kStable, kDecodeDist);
    node = std::make_unique<GenNode>(options.speed, options.trace, options.deploy_rps);
    // Served: one two-token request completes.
    RunGenStep(*node, {LoadItem{0, 32, 2}}, options.speed, 1, 5'000'000'000);
  }, report);

  std::uint64_t id_base = 10;
  std::uint64_t submitted = 1;
  const auto run_items = [&](const std::vector<LoadItem>& items, double rate,
                             const StepTiming& t, GenStep* keep) {
    const double cpu0 = ProcessCpuSeconds();
    GenStep g = RunGenStep(*node, items, options.speed, id_base, drain_ns);
    const double cpu = ProcessCpuSeconds() - cpu0 -
                       static_cast<double>(g.submitter_cpu_ns) / 1e9;
    id_base += items.size();
    submitted += g.submitted;
    StepRecord s = MakeStepRecord(g.outcomes, rate, t, options.limits, cpu);
    if (keep != nullptr) *keep = std::move(g);
    return s;
  };
  const auto run = [&](std::size_t index, int repeat, GenStep* keep) {
    const double rate = options.ladder[index];
    StepRecord s = run_items(schedules[index][static_cast<std::size_t>(repeat)], rate,
                             SegmentTiming(options, rate), keep);
    CheckGenAccounting("step" + std::to_string(index + 1) + "." +
                           std::to_string(repeat + 1),
                       *keep, report);
    return s;
  };

  GenStep warm;
  run_items(warmup, options.heavy(), StepTiming{0.0, options.warmup_s}, &warm);
  CheckGenAccounting("warmup", warm, report);

  if (!options.trace) {
    const std::vector<LadderStep> steps =
        RunLadder(options, [&](std::size_t index, int repeat) {
          GenStep g;
          return run(index, repeat, &g);
        });
    ReportLadder(steps, P50, P90, report);
    return;
  }

  GenStep lg, hg;
  run(kLight, 0, &lg);
  int outstanding_max = 0;
  StepRecord hs;
  {
    PeakSampler outstanding([&] { return node->backend->Outstanding(); });
    hs = run(kHeavy, 0, &hg);
    outstanding_max = outstanding.Peak();
  }
  report.Count(lg.submitted + hg.submitted, lg.unanswered + hg.unanswered);

  std::vector<double> itl, queue, exec;
  double tokens = 0.0;
  for (std::size_t i = 0; i < hg.records.size(); ++i) {
    const arlo::RequestRecord& r = hg.records[i];
    if (hg.outcomes[i].itl_ns >= 0) itl.push_back(static_cast<double>(hg.outcomes[i].itl_ns) / 1e6);
    queue.push_back(static_cast<double>(r.start - r.arrival) / options.speed);
    exec.push_back(static_cast<double>(r.completion - r.start) / options.speed);
    tokens += r.decode_len;
  }
  report.AddPct("batch.itl_p50_ms", Percentile(itl, 0.50), "ms");
  report.AddPct("batch.itl_p99_ms", Percentile(itl, 0.99), "ms");
  report.Add("batch.tokens_per_s", tokens / heavy_timing.Total(), "tok/s", hg.records.size());
  AddUs(report, "serving.queue_p50_us", queue, 0.50);
  AddUs(report, "serving.queue_p99_us", queue, 0.99);
  AddUs(report, "serving.exec_p50_us", exec, 0.50);
  report.Add("serving.outstanding_max", outstanding_max, "count");
  report.Add("host.cpu_cores", hs.cpu_s / heavy_timing.Total(), "cores");
  report.Add("host.peak_rss_mb", PeakRssMb(), "MB");
  std::vector<double> late = warm.late_ns;
  late.insert(late.end(), lg.late_ns.begin(), lg.late_ns.end());
  late.insert(late.end(), hg.late_ns.begin(), hg.late_ns.end());
  AddUs(report, "loadgen.late_p99_us", late, 0.99);
  report.Add("loadgen.sent", static_cast<double>(submitted), "count");
  const std::uint64_t open = warm.unanswered + lg.unanswered + hg.unanswered;
  report.Add("loadgen.unanswered", static_cast<double>(open), "count");
  report.Add("loadgen.fail_pct",
             100.0 * static_cast<double>(open) /
                 static_cast<double>(warm.submitted + lg.submitted + hg.submitted),
             "%", warm.submitted + lg.submitted + hg.submitted);

  SpanLog spans;
  for (std::size_t i = 0; i < hg.records.size() && i < 2000; ++i) {
    const arlo::RequestRecord& r = hg.records[i];
    const auto lane = static_cast<std::uint32_t>(1 + r.id);
    const auto wall = [&](arlo::SimTime t) {
      return static_cast<std::int64_t>(static_cast<double>(t) / options.speed);
    };
    spans.Add(Span{"request", "e2e", r.id, wall(r.arrival), wall(r.completion - r.arrival), lane});
    spans.Add(Span{"queue", "serving", r.id, wall(r.arrival), wall(r.start - r.arrival), lane});
    spans.Add(Span{"prefill", "batch", r.id, wall(r.start), wall(r.first_token - r.start), lane});
    spans.Add(Span{"decode", "batch", r.id, wall(r.first_token), wall(r.completion - r.first_token), lane});
  }
  ReportCore(*node->probe, /*link_ids=*/true, report, spans);
  const std::string path =
      options.out_dir + "/trace-gen-mixed-" + std::to_string(options.seed) + ".json";
  report.Check("chrome_trace_written", spans.WriteChromeTrace(path), path);

  const arlo::serving::TestbedResult result = node->backend->Finish();
  node->backend.reset();
  report.Add("batch.prefill_iters", static_cast<double>(result.gen_prefill_iterations), "count");
  report.Add("batch.decode_iters", static_cast<double>(result.gen_decode_iterations), "count");
  double decode_tokens = 0.0;
  for (const arlo::RequestRecord& r : result.records) {
    if (r.decode_len >= 2) decode_tokens += r.decode_len - 1;
  }
  report.Add("batch.tokens_per_decode_iter",
             result.gen_decode_iterations == 0
                 ? 0.0
                 : decode_tokens / static_cast<double>(result.gen_decode_iterations),
             "tokens");
  report.Add("batch.preempt_pct",
             result.records.empty() ? 0.0
                                    : 100.0 * static_cast<double>(result.gen_preemptions) /
                                          static_cast<double>(result.records.size()),
             "%", result.records.size());
  report.Check("testbed_accounting", result.records.size() == submitted,
               std::to_string(result.records.size()) + " records for " +
                   std::to_string(submitted) + " submitted");
}

}  // namespace perfbench
