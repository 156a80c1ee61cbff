// Per-layer numbers of the traced run, read from outside the program: the
// v5 reply timing annex, the scheme wrapper, and the load generator.
#pragma once

#include <vector>

#include "common.h"
#include "loadgen.h"
#include "probes.h"
#include "trace_out.h"

namespace perfbench {

/// Largest |trace.unattributed_pct| the traced run accepts.  The annex
/// covers everything from frame decode on the first hop to the reply write;
/// what is left is the client's loopback socket time.
inline constexpr double kUnattributedTolerancePct = 35.0;

/// net, cluster and serving metrics from the annexes of traced steps:
/// frontend numbers from the light step (no queueing), queue and execution
/// numbers from the heavy step.  `speed` converts node-reported simulated
/// ns to wall ns.  Also reports trace.unattributed_pct with its check.
void ReportAnnexLayers(const LoadResult& light, const LoadResult& heavy,
                       double speed, Report& report);

/// Request spans (send to reply) with their annex stages laid out as
/// children in pipeline order, for the first `max_requests` requests.
void AddRequestSpans(const LoadResult& result, std::size_t max_requests,
                     SpanLog& log);

/// core.* from the scheme wrapper.  `link_ids` places each scheme call on
/// the lane of the request span with the same id (in-process workloads,
/// where the scheme sees the benchmark's ids).
void ReportCore(const TimedScheme& scheme, bool link_ids, Report& report,
                SpanLog& log);

/// loadgen.* over the given steps.
void ReportLoadgen(const std::vector<const LoadResult*>& steps,
                   Report& report);

/// trace.overhead_pct: traced minus untraced median latency of the same
/// light-step schedule, as a share of the untraced median.
void ReportTraceOverhead(const std::vector<Outcome>& plain,
                         const std::vector<Outcome>& traced, Report& report);

/// Wall-ns percentile helper over a sample vector, reported in us.
void AddUs(Report& report, const std::string& name, std::vector<double> ns,
           double q);

}  // namespace perfbench
