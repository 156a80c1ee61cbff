#include "common.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "net/client.h"
#include "trace/generative.h"

namespace perfbench {

void Report::Add(const std::string& name, double value, const std::string& unit,
                 std::size_t n) {
  metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit, n});
}

void Report::AddPct(const std::string& name, const Pct& pct,
                    const std::string& unit) {
  Add(name, pct.value, unit, pct.n);
}

void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back(CheckResult{name, ok, detail});
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::Merge(const Report& other, const std::vector<std::string>& prefixes) {
  for (const Metric& m : other.metrics_) {
    const bool wanted = std::any_of(prefixes.begin(), prefixes.end(),
                                    [&](const std::string& p) { return m.name.rfind(p, 0) == 0; });
    if (!wanted) continue;
    const auto same = std::find_if(metrics_.begin(), metrics_.end(),
                                   [&](const Metric& mine) { return mine.name == m.name; });
    if (same != metrics_.end()) {
      *same = m;
    } else {
      metrics_.push_back(m);
    }
  }
  checks_.insert(checks_.end(), other.checks_.begin(), other.checks_.end());
  info_.insert(info_.end(), other.info_.begin(), other.info_.end());
}

bool Report::AllChecksPass() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const CheckResult& c) { return c.ok; });
}

namespace {

/// JSON string literal; the benchmark only emits printable ASCII.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return out + "\"";
}

std::string Num(double v) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

}  // namespace

void Report::Print(std::ostream& os) const {
  os << "metric                              value          unit     n\n";
  for (const Metric& m : metrics_) {
    os << std::left << std::setw(36) << m.name << std::setw(15) << Num(m.value)
       << std::setw(9) << m.unit << (m.n > 0 ? std::to_string(m.n) : "-")
       << "\n";
  }
  for (const CheckResult& c : checks_) {
    os << "check " << (c.ok ? "PASS " : "FAIL ") << c.name << ": " << c.detail
       << "\n";
  }
  for (const auto& [key, value] : info_) os << "info " << key << ": " << value << "\n";
  os << "PERFBENCH {\"correct\":" << (AllChecksPass() ? "true" : "false")
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? "," : "") << Quote(m.name) << ":{\"value\":" << Num(m.value)
       << ",\"unit\":" << Quote(m.unit) << ",\"n\":" << m.n << "}";
  }
  os << "},\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const CheckResult& c = checks_[i];
    os << (i ? "," : "") << "{\"name\":" << Quote(c.name)
       << ",\"ok\":" << (c.ok ? "true" : "false")
       << ",\"detail\":" << Quote(c.detail) << "}";
  }
  os << "],\"info\":{";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    os << (i ? "," : "") << Quote(info_[i].first) << ":"
       << Quote(info_[i].second);
  }
  os << "}}" << std::endl;
}

std::vector<LoadItem> MakeSchedule(
    arlo::trace::TwitterTraceConfig::Pattern pattern, double wall_rate,
    double wall_s, std::uint64_t seed, double speed,
    const std::string& decode_dist) {
  arlo::trace::TwitterTraceConfig tc;
  tc.pattern = pattern;
  tc.mean_rate = wall_rate / speed;
  tc.duration_s = wall_s * speed;
  tc.seed = seed;
  if (!decode_dist.empty()) {
    tc.decode_lengths = arlo::trace::ParseDecodeLengthDist(decode_dist);
  }
  const arlo::trace::Trace trace = arlo::trace::SynthesizeTwitterTrace(tc);
  std::vector<LoadItem> items;
  items.reserve(trace.Size());
  for (const arlo::Request& r : trace.Requests()) {
    LoadItem item;
    item.due_ns = static_cast<std::int64_t>(static_cast<double>(r.arrival) / speed);
    item.length = static_cast<std::uint32_t>(r.length);
    item.decode_len = static_cast<std::uint32_t>(r.decode_len);
    items.push_back(item);
  }
  return items;
}

arlo::baselines::ScenarioConfig SteadyStateScenario(
    int gpus, double rate, double speed, const std::string& decode_dist) {
  constexpr double kReferenceSeconds = 5.0;
  if (rate <= 0.0) throw std::invalid_argument("a live node needs --deploy-rps > 0");
  const std::vector<LoadItem> warm =
      MakeSchedule(arlo::trace::TwitterTraceConfig::Pattern::kStable, rate,
                   kReferenceSeconds, kDeploymentSeed, speed, decode_dist);
  arlo::baselines::ScenarioConfig config;
  config.model = arlo::runtime::ModelSpec::BertBase();
  config.gpus = gpus;
  config.slo = arlo::Millis(kModelSloMs);
  config.enable_reallocation = false;
  std::vector<arlo::Request> requests;
  requests.reserve(warm.size());
  for (const LoadItem& item : warm) {
    arlo::Request r;
    r.arrival = static_cast<arlo::SimTime>(static_cast<double>(item.due_ns) * speed);
    r.length = static_cast<int>(item.length);
    r.decode_len = static_cast<int>(item.decode_len);
    requests.push_back(r);
  }
  const auto runtimes = arlo::baselines::MakeRuntimeSetFor(config);
  config.initial_demand = arlo::baselines::DemandFromTrace(
      arlo::trace::Trace(std::move(requests)), *runtimes, config.slo);
  return config;
}

namespace {

/// Outcomes of a wire step, for JudgeStep.
std::vector<Outcome> ToOutcomes(const LoadResult& result) {
  std::vector<Outcome> out;
  out.reserve(result.requests.size());
  for (const LoadResult::PerRequest& r : result.requests) {
    Outcome o;
    o.due_ns = r.due_ns;
    o.sent = r.sent_ns >= 0;
    o.answered = r.reply_ns >= 0;
    o.ok = o.answered && r.status == arlo::net::ReplyStatus::kOk;
    o.first_ns = r.reply_ns;
    o.done_ns = r.reply_ns;
    out.push_back(o);
  }
  return out;
}

}  // namespace

int SegmentsOf(const RunOptions& options, std::size_t index) {
  return index == kLight || index == kHeavy ? options.repeats : 1;
}

std::uint64_t SegmentSeed(std::uint64_t seed, std::size_t index, int repeat) {
  return seed * 1000 + index * 10 + static_cast<std::uint64_t>(repeat);
}

Schedules MakeSchedules(const RunOptions& options,
                        arlo::trace::TwitterTraceConfig::Pattern pattern,
                        const std::string& decode_dist) {
  Schedules out(options.ladder.size());
  for (std::size_t i = 0; i < options.ladder.size(); ++i) {
    const double rate = options.ladder[i];
    for (int r = 0; r < SegmentsOf(options, i); ++r) {
      out[i].push_back(MakeSchedule(pattern, rate,
                                    SegmentTiming(options, rate).Total(),
                                    SegmentSeed(options.seed, i, r), options.speed,
                                    decode_dist));
    }
  }
  return out;
}

std::vector<LoadItem> MakeWarmup(const RunOptions& options,
                                 arlo::trace::TwitterTraceConfig::Pattern pattern,
                                 const std::string& decode_dist) {
  return MakeSchedule(pattern, options.heavy(), options.warmup_s,
                      kDeploymentSeed, options.speed, decode_dist);
}

StepTiming SegmentTiming(const RunOptions& options, double rate) {
  double inverse_rates = 0.0;
  int segments = 0;
  for (std::size_t i = 0; i < options.ladder.size(); ++i) {
    inverse_rates += SegmentsOf(options, i) / options.ladder[i];
    segments += SegmentsOf(options, i);
  }
  const double measured_total =
      options.seconds - options.warmup_s - options.settle_s * segments;
  StepTiming t;
  t.settle_s = options.settle_s;
  t.measured_s = measured_total / inverse_rates / rate;
  return t;
}

StepRecord MakeStepRecord(const std::vector<Outcome>& all, double rate,
                          const StepTiming& timing, const Limits& limits,
                          double cpu_s) {
  const auto settle_ns = static_cast<std::int64_t>(timing.settle_s * 1e9);
  StepRecord step;
  step.rate = rate;
  step.cpu_s = cpu_s;
  for (Outcome o : all) {
    if (o.answered) ++step.answered;
    if (o.due_ns < settle_ns) continue;
    o.due_ns -= settle_ns;
    o.first_ns -= settle_ns;
    o.done_ns -= settle_ns;
    step.outcomes.push_back(o);
  }
  step.verdict = JudgeStep(step.outcomes,
                           static_cast<std::int64_t>(timing.measured_s * 1e9), limits);
  return step;
}

void TimeSetUp(const RunOptions& options, const std::function<void()>& tear_down,
               const std::function<void()>& set_up, Report& report) {
  std::vector<double> seconds;
  for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    tear_down();
    if (i > 0) SleepUntil(NowNs() + kSetUpGapNs);
    const std::int64_t t0 = NowNs();
    set_up();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  if (!options.trace) report.Add("setup_s", Median(seconds), "s", seconds.size());
}

void ServeOne(std::uint16_t port) {
  arlo::net::ClientConnection conn(port);
  arlo::net::SubmitRequest submit;
  submit.id = 1;
  submit.length = 32;
  conn.Send(submit);
  arlo::net::Reply reply;
  if (!conn.Receive(reply) || reply.status != arlo::net::ReplyStatus::kOk) {
    throw std::runtime_error("set-up probe request to port " + std::to_string(port) +
                             " failed");
  }
}

WireSession::WireSession(const RunOptions& options, std::uint16_t port,
                         std::function<double()> cpu_seconds,
                         std::function<void()> quiesce)
    : options_(options),
      cpu_seconds_(std::move(cpu_seconds)),
      quiesce_(std::move(quiesce)) {
  load_.port = port;
  load_.id_base = 2;  // after the set-up probe
  load_.drain_ns = static_cast<std::int64_t>(
      std::max(0.5e9, 20.0 * options.limits.latency_ms * 1e6));
}

StepRecord WireSession::Run(const std::string& name, const std::vector<LoadItem>& items,
                            double rate, const StepTiming& timing, bool traced,
                            LoadResult& raw, Report& report) {
  load_.trace = traced;
  const double cpu0 = cpu_seconds_();
  raw = RunOpenLoop(items, load_);
  const double cpu = cpu_seconds_() - cpu0 - static_cast<double>(raw.sender_cpu_ns) / 1e9;
  StepRecord step = MakeStepRecord(ToOutcomes(raw), rate, timing, options_.limits, cpu);
  load_.id_base += items.size();
  client_sent_ += raw.sent;
  const bool balanced = raw.sent == raw.ok + raw.rejected + raw.unanswered;
  const bool unique = raw.duplicate_replies == 0 && raw.unknown_replies == 0;
  report.Check(name + "_accounting", balanced && unique,
               "sent " + std::to_string(raw.sent) + " = ok " + std::to_string(raw.ok) +
                   " + rejected " + std::to_string(raw.rejected) + " + unanswered " +
                   std::to_string(raw.unanswered) + "; duplicate replies " +
                   std::to_string(raw.duplicate_replies) + ", unknown ids " +
                   std::to_string(raw.unknown_replies));
  quiesce_();
  return step;
}

StepRecord WireSession::RunSegment(const Schedules& schedules, std::size_t index,
                                   int repeat, bool traced, LoadResult& raw,
                                   Report& report) {
  const double rate = options_.ladder[index];
  return Run("step" + std::to_string(index + 1) + "." + std::to_string(repeat + 1) +
                 (traced ? "_traced" : ""),
             schedules[index][static_cast<std::size_t>(repeat)], rate,
             SegmentTiming(options_, rate), traced, raw, report);
}

LoadResult WireSession::Warmup(const std::vector<LoadItem>& items, Report& report) {
  LoadResult raw;
  Run("warmup", items, options_.heavy(), StepTiming{0.0, options_.warmup_s}, false, raw,
      report);
  return raw;
}

bool LadderStep::Passes() const {
  std::size_t passing = 0;
  for (const StepRecord& s : segments) passing += s.verdict.passes ? 1 : 0;
  return !segments.empty() && 2 * passing >= segments.size();
}

double Goodput(const std::vector<LadderStep>& steps) {
  double goodput = 0.0;
  for (const LadderStep& step : steps) {
    if (!step.Passes()) break;
    goodput = step.rate;
  }
  return goodput;
}

std::vector<LadderStep> RunLadder(
    const RunOptions& options,
    const std::function<StepRecord(std::size_t index, int repeat)>& run_segment) {
  std::vector<LadderStep> steps(2);
  steps[kLight].rate = options.light();
  steps[kHeavy].rate = options.heavy();
  for (int r = 0; r < options.repeats; ++r) {
    steps[kLight].segments.push_back(run_segment(kLight, r));
    steps[kHeavy].segments.push_back(run_segment(kHeavy, r));
  }
  for (std::size_t i = kHeavy + 1;
       steps[kLight].Passes() && steps.back().Passes() && i < options.ladder.size();
       ++i) {
    LadderStep step;
    step.rate = options.ladder[i];
    step.segments.push_back(run_segment(i, 0));
    steps.push_back(std::move(step));
  }
  return steps;
}

std::vector<double> LatenciesMs(const std::vector<Outcome>& outcomes) {
  std::vector<double> ms;
  ms.reserve(outcomes.size());
  for (const Outcome& o : outcomes) {
    if (o.ok) ms.push_back(static_cast<double>(o.first_ns - o.due_ns) / 1e6);
  }
  return ms;
}

void ReportLadder(const std::vector<LadderStep>& steps,
                  const std::function<Pct(const std::vector<double>&)>& typical,
                  const std::function<Pct(const std::vector<double>&)>& tail,
                  Report& report) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const std::size_t idx : {kLight, kHeavy}) {
    const std::string name = idx == kLight ? "light" : "heavy";
    std::vector<double> typical_ms, tail_ms;
    std::size_t n = 0;
    bool resolved = true;
    for (const StepRecord& s : steps[idx].segments) {
      attempted += s.verdict.sent;
      failed += s.verdict.failed;
      const std::vector<double> ms = LatenciesMs(s.outcomes);
      const Pct t = tail(ms);
      typical_ms.push_back(typical(ms).value);
      tail_ms.push_back(t.value);
      resolved = resolved && t.ok;
      n += ms.size();
    }
    report.Add(name + "_ms", Median(typical_ms), "ms", n);
    report.Add(name + "_tail_ms", Median(tail_ms), "ms", n);
    report.Check(name + "_tail_resolved", resolved,
                 std::to_string(steps[idx].segments.size()) + " segments, " +
                     std::to_string(n) + " samples; each segment needs ten beyond its tail");
  }
  report.Count(attempted, failed);

  report.Add("goodput_rps", Goodput(steps), "req/s", steps.size());

  // CPU per request over each light segment and the heavy segment run
  // after it; the figure is the median over these pairs, so a host stall in
  // one pair moves it little.
  std::vector<double> cpu_us;
  std::uint64_t answered = 0;
  for (std::size_t r = 0; r < steps[kLight].segments.size(); ++r) {
    const StepRecord& light = steps[kLight].segments[r];
    const StepRecord& heavy = steps[kHeavy].segments[r];
    const std::uint64_t pair = light.answered + heavy.answered;
    if (pair > 0) {
      cpu_us.push_back((light.cpu_s + heavy.cpu_s) * 1e6 / static_cast<double>(pair));
    }
    answered += pair;
  }
  report.Add("cpu_us_per_req", Median(cpu_us), "us", answered);

  std::ostringstream ladder;
  for (const LadderStep& step : steps) {
    ladder << (&step == &steps.front() ? "" : " ") << Num(step.rate) << ":"
           << (step.Passes() ? "pass" : "miss") << "[";
    for (const StepRecord& s : step.segments) {
      ladder << (&s == &step.segments.front() ? "" : " ")
             << Num(std::round(s.verdict.met_frac * 10000) / 100) << "%,"
             << Num(std::round(s.verdict.backlog_first)) << "->"
             << Num(std::round(s.verdict.backlog_last));
    }
    ladder << "]";
  }
  report.Info("ladder", ladder.str());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
