#include "layers.h"

#include <algorithm>
#include <array>
#include <sstream>

namespace perfbench {

using arlo::telemetry::Stage;
using arlo::telemetry::StageName;

void AddUs(Report& report, const std::string& name, std::vector<double> ns,
           double q) {
  const Pct p = Percentile(std::move(ns), q);
  report.Add(name, p.value / 1e3, "us", p.n);
}

namespace {

/// Per-stage wall-ns samples over the traced requests of one step.
struct StageSamples {
  std::array<std::vector<double>, arlo::telemetry::kNumStages> by_stage;
  std::vector<double> exec;      ///< batch + prefill + decode
  std::vector<double> overhead;  ///< client send->reply minus node queue+service
  double e2e_sum = 0.0;
  double annex_sum = 0.0;
  std::size_t traced = 0;
};

StageSamples Collect(const LoadResult& result, double speed) {
  StageSamples s;
  for (const LoadResult::PerRequest& r : result.requests) {
    if (r.reply_ns < 0 || r.status != arlo::net::ReplyStatus::kOk) continue;
    const double e2e = static_cast<double>(r.reply_ns - r.sent_ns);
    const double node = static_cast<double>(r.queue_ns + r.service_ns) / speed;
    s.overhead.push_back(e2e - node);
    if (r.annex.empty()) continue;
    ++s.traced;
    double annex = 0.0;
    double exec = 0.0;
    for (const auto& span : r.annex) {
      const auto idx = static_cast<std::size_t>(span.stage);
      if (idx >= s.by_stage.size()) continue;
      s.by_stage[idx].push_back(static_cast<double>(span.dur_ns));
      annex += static_cast<double>(span.dur_ns);
      if (span.stage == Stage::kBatch || span.stage == Stage::kPrefill ||
          span.stage == Stage::kDecode) {
        exec += static_cast<double>(span.dur_ns);
      }
    }
    s.exec.push_back(exec);
    s.e2e_sum += e2e;
    s.annex_sum += annex;
  }
  return s;
}

std::vector<double> StageNs(const StageSamples& s, Stage stage) {
  return s.by_stage[static_cast<std::size_t>(stage)];
}

}  // namespace

void ReportAnnexLayers(const LoadResult& light, const LoadResult& heavy,
                       double speed, Report& report) {
  const StageSamples l = Collect(light, speed);
  const StageSamples h = Collect(heavy, speed);
  report.Check("annex_present", l.traced > 0 && h.traced > 0,
               std::to_string(l.traced) + " light and " +
                   std::to_string(h.traced) + " heavy replies carried an annex");

  AddUs(report, "net.overhead_p50_us", l.overhead, 0.50);
  AddUs(report, "net.overhead_p99_us", l.overhead, 0.99);
  AddUs(report, "net.accept_p50_us", StageNs(l, Stage::kAccept), 0.50);
  AddUs(report, "net.admission_p50_us", StageNs(l, Stage::kAdmission), 0.50);
  AddUs(report, "net.reply_write_p50_us", StageNs(l, Stage::kReplyWrite), 0.50);

  AddUs(report, "cluster.pending_p50_us", StageNs(h, Stage::kRouterPending), 0.50);
  AddUs(report, "cluster.pending_p99_us", StageNs(h, Stage::kRouterPending), 0.99);
  AddUs(report, "cluster.pick_p50_us", StageNs(h, Stage::kRouterPick), 0.50);
  AddUs(report, "cluster.wire_p50_us", StageNs(h, Stage::kWire), 0.50);
  AddUs(report, "cluster.wire_p99_us", StageNs(h, Stage::kWire), 0.99);

  AddUs(report, "serving.queue_p50_us", StageNs(h, Stage::kQueue), 0.50);
  AddUs(report, "serving.queue_p99_us", StageNs(h, Stage::kQueue), 0.99);
  AddUs(report, "serving.exec_p50_us", h.exec, 0.50);

  // Self time per layer: the share of the heavy step's traced end-to-end
  // time each layer's own stages account for.
  const auto share = [&](std::initializer_list<Stage> stages) {
    double sum = 0.0;
    for (const Stage st : stages) {
      for (const double v : h.by_stage[static_cast<std::size_t>(st)]) sum += v;
    }
    return h.e2e_sum > 0.0 ? 100.0 * sum / h.e2e_sum : 0.0;
  };
  report.Add("self.net_pct",
             share({Stage::kAccept, Stage::kAdmission, Stage::kReplyWrite}), "%",
             h.traced);
  report.Add("self.cluster_pct",
             share({Stage::kRouterPending, Stage::kRouterPick,
                    Stage::kRouterRetry, Stage::kWire}),
             "%", h.traced);
  report.Add("self.serving_pct",
             share({Stage::kQueue, Stage::kBatch, Stage::kPrefill,
                    Stage::kDecode}),
             "%", h.traced);

  const double unattributed =
      l.e2e_sum > 0.0 ? 100.0 * (l.e2e_sum - l.annex_sum) / l.e2e_sum : 100.0;
  report.Add("trace.unattributed_pct", unattributed, "%", l.traced);
  std::ostringstream detail;
  detail << "light-step e2e minus annex = " << unattributed
         << "% of e2e, tolerance [-" << kUnattributedTolerancePct / 7 << ", "
         << kUnattributedTolerancePct << "]";
  report.Check("trace_unattributed_within_tolerance",
               unattributed >= -kUnattributedTolerancePct / 7 &&
                   unattributed <= kUnattributedTolerancePct,
               detail.str());
}

void AddRequestSpans(const LoadResult& result, std::size_t max_requests,
                     SpanLog& log) {
  std::size_t added = 0;
  for (std::size_t i = 0; i < result.requests.size() && added < max_requests; ++i) {
    const LoadResult::PerRequest& r = result.requests[i];
    if (r.reply_ns < 0 || r.annex.empty()) continue;
    ++added;
    const std::uint64_t wire_id = result.id_base + i;
    const auto lane = static_cast<std::uint32_t>(1 + wire_id);
    const std::int64_t t0 = result.start_ns + r.sent_ns;
    log.Add(Span{"request", "e2e", wire_id, t0, r.reply_ns - r.sent_ns, lane});
    std::int64_t at = t0;
    for (const auto& span : r.annex) {
      const std::string layer =
          static_cast<int>(span.stage) >= arlo::telemetry::kNumNodeStages
              ? "cluster"
              : (span.stage == Stage::kAccept || span.stage == Stage::kAdmission ||
                         span.stage == Stage::kReplyWrite
                     ? "net"
                     : "serving");
      log.Add(Span{StageName(span.stage), layer, wire_id, at, span.dur_ns, lane});
      at += span.dur_ns;
    }
  }
}

void ReportCore(const TimedScheme& scheme, bool link_ids, Report& report,
                SpanLog& log) {
  report.Add("core.select_calls", static_cast<double>(scheme.select_calls),
             "count");
  const Pct p50 = Percentile(scheme.select_ns, 0.50);
  const Pct p99 = Percentile(scheme.select_ns, 0.99);
  report.Add("core.select_ns_p50", p50.value, "ns", p50.n);
  report.Add("core.select_ns_p99", p99.value, "ns", p99.n);
  report.Add("core.buffered_pct",
             scheme.select_calls == 0
                 ? 0.0
                 : 100.0 * static_cast<double>(scheme.buffered) /
                       static_cast<double>(scheme.select_calls),
             "%", scheme.select_calls);
  const Pct tick = Percentile(scheme.tick_ms, 0.99);
  report.Add("core.tick_ms_p99", tick.value, "ms", tick.n);
  report.Add("core.launches", static_cast<double>(scheme.launches), "count");
  report.Add("core.retires", static_cast<double>(scheme.retires), "count");
  for (const SchemeCall& c : scheme.calls) {
    log.Add(Span{c.buffered ? "select_instance(buffered)" : "select_instance",
                 "core", c.request, c.start_ns, c.dur_ns,
                 link_ids ? static_cast<std::uint32_t>(1 + c.request) : 0});
  }
}

void ReportTraceOverhead(const std::vector<Outcome>& plain,
                         const std::vector<Outcome>& traced, Report& report) {
  const Pct p = Percentile(LatenciesMs(plain), 0.5);
  const Pct t = Percentile(LatenciesMs(traced), 0.5);
  report.Add("trace.overhead_pct",
             p.value > 0.0 ? 100.0 * (t.value - p.value) / p.value : 0.0, "%",
             t.n);
}

void ReportLoadgen(const std::vector<const LoadResult*>& steps,
                   Report& report) {
  std::vector<double> late;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t unanswered = 0;
  for (const LoadResult* s : steps) {
    sent += s->sent;
    ok += s->ok;
    unanswered += s->unanswered;
    for (const auto& r : s->requests) {
      if (r.sent_ns >= 0) late.push_back(static_cast<double>(r.sent_ns - r.due_ns));
    }
  }
  AddUs(report, "loadgen.late_p99_us", std::move(late), 0.99);
  report.Add("loadgen.sent", static_cast<double>(sent), "count");
  report.Add("loadgen.unanswered", static_cast<double>(unanswered), "count");
  report.Add("loadgen.fail_pct",
             sent == 0 ? 0.0
                       : 100.0 * static_cast<double>(sent - ok) /
                             static_cast<double>(sent),
             "%", sent);
}

}  // namespace perfbench
