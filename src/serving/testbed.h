// Threaded testbed emulation: the wall-clock counterpart of the simulator.
//
// Each GPU instance holds a request for its modeled compute time; the trace
// is replayed in (optionally compressed) real time; all scheme interactions
// are serialized under one dispatch mutex, mirroring a Triton-style
// frontend.  The same Scheme implementations run unmodified on the
// simulator and here, which is what the §5.2.1 calibration experiment
// compares.
//
// Timer-thread model.  Emulated instances have no threads.  One timer
// thread holds a deadline min-heap of per-instance events: provisioning
// ready, service done (a one-shot batch or a generative prefill/decode
// iteration), batch-formation wait over, and hang window over.  It pops the
// due entries, then handles each under the dispatch mutex; the handler that
// completes a batch or iteration starts that instance's next one inline,
// and a dispatch to an idle instance starts service directly.  The thread
// runs with 1 ns timer slack (PR_SET_TIMERSLACK) instead of spinning, so
// neither host CPU nor thread count grows with the number of instances.
//
// Decode runs.  The timer wakes once per observable output, not once per
// token.  Between membership changes a generative instance's decode
// iterations are a deterministic chain (fixed batch, context +1 per step,
// slowdown by step start), so starting a decode arms one service deadline
// at the end of the *run*: the iterations until the earliest resident
// finishes, chained back to back at their modeled times.  A dispatch to
// the instance, a hang or a slowdown cuts the run to the iteration in
// flight (the first boundary at or after now) and re-arms there.  When the
// deadline fires, the run's earlier iterations are replayed with their
// exact stamps (decode counters, telemetry steps) and the last completes
// as before.  Kills, /statusz, Health() and the hang reaper first settle
// the iterations that ended by now, so decode counts, `executing` and
// hang progress stay exact; the telemetry decode-step counters can lag by
// up to one run between snapshots.  Stamps that someone observes (first
// token, completion) are still taken when the timer delivers them, never
// before the modeled end; a boundary nobody observes — inside a run, or a
// cut step that finishes nobody — ends at its modeled time, and the next
// iteration starts there (or when the last prompt it may admit arrived).
//
// Epoch rule.  Each instance has at most one live heap entry: every arm
// bumps the instance's epoch and stamps the entry with it, and a kill,
// retirement or re-decided formation wait bumps it too.  The timer skips
// any entry whose epoch no longer matches, so nothing is ever searched for
// or removed from the heap.
//
// This header declares the shared config/result types and the trace-replay
// entry point; the machinery itself lives behind the LiveTestbed submission
// API in live_testbed.h so the src/net frontend can drive it over sockets.
//
// Lock ordering: dispatch mutex -> timer heap mutex (and -> fault retry
// heap mutex), never the reverse; the heap mutexes are leaves.
#pragma once

#include "batch/continuous.h"
#include "batch/policy.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "fault/retry.h"
#include "sim/scheme.h"
#include "tenant/class_table.h"
#include "trace/trace.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace arlo::telemetry {
class TelemetrySink;
}

namespace arlo::serving {

struct TestbedConfig {
  /// Wall-clock seconds per simulated second.  1.0 = real time; 0.1 runs
  /// 10x compressed (all compute times and delays shrink together, so
  /// relative behaviour is preserved up to OS timer precision).
  double time_scale = 1.0;
  /// Network + host-device overhead added per request (the quantity the
  /// simulator calibrates to in §5.2.1).
  SimDuration per_request_overhead = Millis(0.8);

  /// Dynamic batching (§6 extension): a worker pulls up to this many queued
  /// requests per pick and executes them as one padded batch via
  /// CompiledRuntime::BatchComputeTime.  1 = the paper's batch-1 serving.
  int max_batch = 1;
  /// Batch formation policy (not owned; must outlive the run).  Null means
  /// batch::GreedyBatcher — take whatever is queued, immediately, which is
  /// the historical behaviour.  Policies that wait (e.g. "slo") arm a
  /// formation deadline on the timer; kills, retirement and new arrivals
  /// supersede it at once.  See docs/BATCHING.md.
  const batch::BatchPolicy* batch_policy = nullptr;

  /// Generative (autoregressive) serving (not owned; must outlive the run).
  /// Null keeps the historical one-shot path.  When set, every worker owns
  /// a batch::ContinuousBatcher and executes prefill/decode iterations
  /// priced by the runtime's two-phase cost model instead of the one-shot
  /// batch path; `max_batch`/`batch_policy` are ignored.  See
  /// docs/GENERATIVE.md.
  const batch::GenerativeConfig* generative = nullptr;

  /// Optional telemetry sink (not owned; must outlive the run).  Construct
  /// it with Concurrency::kMultiThreaded — the timer, fault and frontend
  /// threads record concurrently.
  /// Snapshots are driven by a wall-clock thread at the sink's period
  /// (in scaled, i.e. simulated, time).  Null disables telemetry.
  telemetry::TelemetrySink* telemetry = nullptr;

  /// Declarative fault injection (not owned; must outlive the run).  A
  /// fault supervisor thread applies the plan's events — crashed workers
  /// die with their in-flight request requeued, hung workers freeze, slowed
  /// workers stretch service times — and dispatches due retries.  Event
  /// times are simulated (scaled) time, same as the simulator, so one plan
  /// drives both substrates.  See docs/FAULTS.md.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Retry backoff + hang-detection behaviour when a plan is attached.
  /// Deadline shedding is a simulator-only feature and is ignored here —
  /// the wall-clock equivalent is the net frontend's admission controller
  /// (src/net/admission.h), which early-rejects before submission.
  fault::ResiliencePolicy resilience;

  /// Optional tenant class table (not owned; must outlive the run).  When
  /// set, the central buffer dispatches weighted-deficit round-robin across
  /// per-class queues with a slack-aware tie-break and /statusz gains
  /// per-class rows (docs/TENANTS.md); null keeps the historical FIFO.
  const tenant::TenantClassTable* tenants = nullptr;

  /// Per-worker admission depth: a worker holding this many outstanding
  /// requests (queued + executing; waiting + resident in generative mode)
  /// refuses further dispatch, so the excess waits in the central buffer —
  /// which is where class-aware ordering lives.  Without a bound, schemes
  /// that never refuse (st/dt, the Request Scheduler's congestion
  /// fallback) sink the whole backlog into per-worker FIFOs and `tenants`
  /// ordering never engages.  0 = unbounded (the historical behaviour).
  int max_worker_queue = 0;

  /// Optional cooperative cancellation (not owned; may be null).  When it
  /// becomes true mid-replay, RunTestbed stops submitting further trace
  /// arrivals, drains what is in flight, and returns the partial result —
  /// the graceful-shutdown path examples/live_serving uses for SIGINT.
  const std::atomic<bool>* cancel = nullptr;

  /// Ascending length-bin upper bounds (normally the runtime set's
  /// BinUpperBounds()).  When non-empty, every submitted request is counted
  /// into its bin and /statusz exports the cumulative counts as
  /// "length_mix" — the per-node observation the cluster Runtime Scheduler
  /// aggregates into its demand model (docs/CONTROL_PLANE.md).  Lengths
  /// beyond the last bound land in the last bin.  Empty disables the export.
  std::vector<int> mix_bounds;
};

struct TestbedResult {
  std::vector<RequestRecord> records;  ///< times in simulated ns
  SimTime end_time = 0;
  int peak_workers = 0;
  int injected_failures = 0;           ///< workers killed (crash + reaped hangs)
  std::uint64_t faults_injected = 0;   ///< all fault activations
  std::uint64_t retries = 0;           ///< transient dispatch errors retried
  std::uint64_t requeues = 0;          ///< requests drained off dead workers
  std::uint64_t batches_formed = 0;    ///< batches launched (size 1 included)
  std::uint64_t batch_timeouts = 0;    ///< batches launched on budget expiry
  std::uint64_t gen_prefill_iterations = 0;  ///< generative prefill cohorts
  std::uint64_t gen_decode_iterations = 0;   ///< generative decode steps
  std::uint64_t gen_preemptions = 0;         ///< KV evictions (recompute)
};

/// Replays the trace through the scheme on real threads.  Blocks until all
/// requests complete (or config.cancel fires and the in-flight tail
/// drains).  Implemented on top of LiveTestbed (live_testbed.h), which is
/// the open-ended submission API the src/net TCP frontend drives.
TestbedResult RunTestbed(const trace::Trace& trace, sim::Scheme& scheme,
                         const TestbedConfig& config = {});

}  // namespace arlo::serving
