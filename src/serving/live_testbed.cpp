#include "serving/live_testbed.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "batch/policy.h"
#include "common/check.h"
#include "common/rng.h"
#include "fault/health.h"
#include "telemetry/sink.h"
#include "tenant/dispatch_queue.h"

namespace arlo::serving {
namespace {

using Clock = std::chrono::steady_clock;

/// Sleeps until `deadline` in <= 50 ms slices, returning early (true) as soon
/// as `stop` becomes set, so neither Finish() nor a cancelled replay waits
/// out a whole tick/snapshot interval or arrival gap.  Null never stops.
bool SleepUntilOrStopped(Clock::time_point deadline,
                         const std::atomic<bool>* stop) {
  constexpr auto kSlice = std::chrono::milliseconds(50);
  for (;;) {
    if (stop && stop->load(std::memory_order_relaxed)) return true;
    const auto now = Clock::now();
    if (now >= deadline) return false;
    std::this_thread::sleep_until(std::min(deadline, now + kSlice));
  }
}

/// Min-heap order on (due, seq): earliest first, FIFO among equal deadlines.
struct DueLater {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return a.due != b.due ? a.due > b.due : a.seq > b.seq;
  }
};

}  // namespace

struct LiveTestbed::Impl final : public sim::ClusterOps {
 public:
  Impl(sim::Scheme& scheme, const TestbedConfig& config)
      : scheme_(scheme),
        config_(config),
        buffer_(config.tenants),
        health_(config.resilience.hang_timeout) {
    if (config_.tenants != nullptr && !config_.tenants->Empty()) {
      class_completed_.assign(
          static_cast<std::size_t>(config_.tenants->Size()), 0);
    }
    if (!config_.mix_bounds.empty()) {
      mix_counts_.assign(config_.mix_bounds.size(), 0);
    }
    ARLO_CHECK(config_.time_scale > 0.0);
    if (config_.batch_policy) {
      policy_ = config_.batch_policy;
    } else {
      owned_policy_ = batch::MakeBatchPolicy("greedy");
      policy_ = owned_policy_.get();
    }
  }

  void Start();
  void Submit(const Request& request, CompletionFn done);
  bool ApplyAllocation(const std::vector<int>& allocation);
  TestbedHealth Health();
  void WriteStatusJson(std::ostream& os);
  void Drain();
  TestbedResult Finish();
  SimDuration EstimatedQueueDelay() const;
  bool Running() const { return started_ && !finished_; }
  const TestbedConfig& Config() const { return config_; }

  // ClusterOps (called with dispatch_mu_ held by the scheme's caller):
  InstanceId LaunchInstance(RuntimeId runtime,
                            std::shared_ptr<const runtime::CompiledRuntime> rt,
                            SimDuration ready_delay) override;
  void RetireInstance(InstanceId id) override;
  int NumInstances() const override { return live_workers_; }
  int OutstandingOn(InstanceId id) const override;
  SimTime Now() const override { return WallToSim(Clock::now()); }

  // Lock-free mirrors for frontend threads (admission estimates).
  int LiveWorkersRelaxed() const {
    return live_rel_.load(std::memory_order_relaxed);
  }
  int InSystemRelaxed() const {
    return static_cast<int>(
        submitted_rel_.load(std::memory_order_relaxed) -
        completed_rel_.load(std::memory_order_relaxed));
  }

 private:
  /// One emulated GPU.  No thread stands behind it: provisioning, batch
  /// formation waits, service and hang windows are deadlines on the shared
  /// emulation timer, and every field is guarded by dispatch_mu_.
  struct Worker {
    std::deque<batch::Item> queue;
    std::vector<batch::Item> batch;  ///< one-shot in-flight batch
    int executing = 0;               ///< in-flight batch size (0 = idle)
    SimTime service_start = 0;       ///< in-flight batch/iteration start
    SimTime service_end = 0;         ///< modeled end: the armed deadline
    bool ready = false;
    bool retiring = false;
    bool gone = false;
    // Fault state.  `killed` is a crash: the worker dies with its queued and
    // in-flight requests requeued at once.
    bool killed = false;
    SimTime hung_until = 0;    ///< frozen: completions slide past the window
    SimTime slow_until = 0;    ///< service times scaled until then
    double slow_factor = 1.0;
    RuntimeId runtime = kInvalidRuntime;
    std::shared_ptr<const runtime::CompiledRuntime> rt;
    /// Generative mode only: `queue` stays empty; waiting and resident
    /// sequences live in the iteration-level batcher instead.
    std::unique_ptr<batch::ContinuousBatcher> gen;
    /// Generative decode run (testbed.h): `decode` is the plan of the
    /// iteration in flight, which ends at `step_end`; `run_left` more
    /// iterations chain after it at their modeled times, and service_end
    /// ends the last of them.  run_left is 0 outside a decode run.
    batch::IterationPlan decode;
    SimTime step_end = 0;
    int run_left = 0;
    /// A cut run's last step ended here, unobserved: the next iteration
    /// begins at this modeled time, not at the timer's wake.  -1 = none.
    SimTime chain_at = -1;
    SimTime last_enqueue = 0;  ///< latest dispatch into the batcher
    /// Bumped on every arm and disarm of this worker's timer.  A heap entry
    /// fires only while its epoch still matches, so a kill, a retirement or
    /// a re-decided formation wait never has to search the heap.
    std::uint64_t epoch = 0;
  };

  /// The per-worker events on the emulation timer.  A worker has at most
  /// one live entry at a time.
  enum class TimerKind { kReady, kFormationOver, kServiceDone, kHangOver };
  struct TimerEntry {
    SimTime due = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal deadlines
    InstanceId id = 0;
    std::uint64_t epoch = 0;
    TimerKind kind = TimerKind::kReady;
  };

  /// A transiently-errored dispatch waiting out its backoff (fault_mu_).
  struct PendingRetry {
    SimTime due = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal release times
    Request request;
    int attempt = 0;
  };

  SimTime WallToSim(Clock::time_point t) const {
    const auto wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - start_)
            .count();
    return static_cast<SimTime>(static_cast<double>(wall_ns) /
                                config_.time_scale);
  }
  Clock::time_point SimToWall(SimTime t) const {
    return start_ + std::chrono::nanoseconds(static_cast<std::int64_t>(
                        static_cast<double>(t) * config_.time_scale));
  }

  // Emulation timer (all *Locked variants require dispatch_mu_ held).
  void TimerLoop();
  void ArmLocked(InstanceId id, TimerKind kind, SimTime due);
  void FireLocked(const TimerEntry& entry);
  void OnReadyLocked(InstanceId id);
  void StartNextLocked(InstanceId id);
  void StartBatchLocked(InstanceId id);
  void StartIterationLocked(InstanceId id);
  SimDuration DecodeStepTime(const Worker& w, int max_len, SimTime start) const;
  void SettleRunLocked(InstanceId id, SimTime upto);
  void SettleAllLocked(SimTime upto);
  void CutRunLocked(InstanceId id);
  void ObserveIteration(SimDuration duration);
  void EndServiceLocked(InstanceId id, bool after_hang);
  void CompleteBatchLocked(InstanceId id);
  void CompleteIterationLocked(InstanceId id, bool after_hang);
  void CompleteRequestLocked(const RequestRecord& record,
                             std::int64_t observed_service);

  void HandleArrivalLocked(const Request& request, int attempt = 0);
  InstanceId DispatchLocked(const Request& request);
  void RetryBufferedLocked();
  void FinalizeRetirementLocked(InstanceId id);
  void TickLoop();
  void SnapshotLoop();
  void UpdateClusterGaugesLocked();
  void UpdateGenGaugesLocked();

  // Fault supervisor (all *Locked variants require dispatch_mu_ held).
  void FaultLoop();
  void ApplyPlanEventLocked(const fault::FaultEvent& event);
  bool KillWorkerLocked(InstanceId id);
  void RunHealthCheckLocked();
  std::vector<InstanceId> FindHungLocked(SimTime now);

  sim::Scheme& scheme_;
  TestbedConfig config_;
  std::unique_ptr<batch::BatchPolicy> owned_policy_;  ///< default greedy
  const batch::BatchPolicy* policy_ = nullptr;
  Clock::time_point start_;
  bool started_ = false;
  bool finished_ = false;

  std::mutex dispatch_mu_;
  std::condition_variable all_done_cv_;
  std::vector<std::unique_ptr<Worker>> workers_;
  tenant::DispatchQueue buffer_;
  std::vector<RequestRecord> records_;
  /// Per-class completion counts (dispatch_mu_); empty unless a tenant
  /// class table is configured.
  std::vector<std::uint64_t> class_completed_;
  /// Cumulative submitted-length histogram over config_.mix_bounds
  /// (dispatch_mu_); empty unless bounds were configured.  The cluster
  /// scheduler diffs successive /statusz scrapes to window it.
  std::vector<std::uint64_t> mix_counts_;
  /// External POST /realloc applies (dispatch_mu_).
  std::uint64_t reallocs_applied_ = 0;
  std::uint64_t reallocs_rejected_ = 0;
  SimTime last_realloc_ = -1;
  std::unordered_map<RequestId, CompletionFn> callbacks_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  int live_workers_ = 0;
  int peak_workers_ = 0;
  int outstanding_ = 0;  // dispatched, not yet completed (dispatch_mu_)
  // Batch and iteration counters (dispatch_mu_).
  std::uint64_t batches_formed_ = 0;
  std::uint64_t batch_timeouts_ = 0;
  std::uint64_t gen_prefill_iters_ = 0;
  std::uint64_t gen_decode_iters_ = 0;
  std::uint64_t gen_preemptions_ = 0;
  std::int64_t gen_resident_ = 0;  ///< resident sequences, all workers
  std::atomic<bool> stopping_{false};

  // Relaxed mirrors of the counters above, so frontend/admission threads can
  // estimate load without touching dispatch_mu_.
  std::atomic<std::int64_t> submitted_rel_{0};
  std::atomic<std::int64_t> completed_rel_{0};
  std::atomic<int> live_rel_{0};
  /// EWMA of observed per-request service times (ns, alpha = 1/8); 0 until
  /// the first completion.  Feeds EstimatedQueueDelay.
  std::atomic<std::int64_t> ewma_service_ns_{0};
  /// EWMA of batch-formation waits — the head request's queue time when its
  /// batch launched (ns, alpha = 1/8).  Adds the wait-for-k delay component
  /// to EstimatedQueueDelay so admission estimates track waiting policies.
  std::atomic<std::int64_t> ewma_form_ns_{0};
  /// Generative mode: relaxed mirror of gen_resident_, and the EWMA of
  /// iteration durations (prefill and decode steps; ns, alpha = 1/8).
  std::atomic<std::int64_t> resident_rel_{0};
  std::atomic<std::int64_t> ewma_iter_ns_{0};

  std::thread ticker_;
  std::thread snapshotter_;
  std::thread fault_supervisor_;

  // Emulation timer heap behind its own leaf mutex.  Lock order:
  // dispatch_mu_ -> timer_mu_, never the reverse — TimerLoop pops due
  // entries, releases timer_mu_, then takes dispatch_mu_ to fire them.
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, DueLater> timers_;
  std::uint64_t timer_seq_ = 0;  // under timer_mu_
  bool timer_stop_ = false;      // under timer_mu_
  std::thread timer_;

  // Fault state.  Counters, dispatch_rng_ and health_ are guarded by
  // dispatch_mu_; the retry heap by fault_mu_ (lock order: dispatch_mu_ ->
  // fault_mu_, never the reverse — FaultLoop drains the heap before taking
  // dispatch_mu_).
  Rng dispatch_rng_{1};
  int injected_failures_ = 0;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t requeues_ = 0;
  fault::HealthTracker health_;

  std::mutex fault_mu_;
  std::condition_variable fault_cv_;
  std::priority_queue<PendingRetry, std::vector<PendingRetry>, DueLater>
      retry_heap_;
  std::uint64_t retry_seq_ = 0;  // under fault_mu_
};

InstanceId LiveTestbed::Impl::LaunchInstance(
    RuntimeId runtime, std::shared_ptr<const runtime::CompiledRuntime> rt,
    SimDuration ready_delay) {
  // dispatch_mu_ is held by the caller.
  const auto id = static_cast<InstanceId>(workers_.size());
  auto worker = std::make_unique<Worker>();
  worker->runtime = runtime;
  worker->rt = std::move(rt);
  if (config_.generative) {
    worker->gen =
        std::make_unique<batch::ContinuousBatcher>(*config_.generative);
  }
  workers_.push_back(std::move(worker));
  ++live_workers_;
  live_rel_.store(live_workers_, std::memory_order_relaxed);
  peak_workers_ = std::max(peak_workers_, live_workers_);
  if (config_.telemetry) {
    config_.telemetry->RecordInstanceLaunch(Now(), id, runtime);
    UpdateClusterGaugesLocked();
  }
  // Readiness is always announced from the timer, even with no delay, so
  // the scheme never sees OnInstanceReady re-entrantly from its own launch.
  ArmLocked(id, TimerKind::kReady,
            Now() + std::max<SimDuration>(0, ready_delay));
  return id;
}

void LiveTestbed::Impl::RetireInstance(InstanceId id) {
  // dispatch_mu_ held.
  ARLO_CHECK(id < workers_.size());
  Worker& w = *workers_[id];
  ARLO_CHECK_MSG(!w.retiring && !w.gone, "double retirement");
  w.retiring = true;
  std::vector<batch::Item> orphans;
  if (w.gen) {
    // Residents keep their KV caches and decode to completion in place;
    // only the not-yet-admitted waiting queue is re-dispatched.
    orphans = w.gen->StealWaiting();
  } else {
    orphans.assign(w.queue.begin(), w.queue.end());
    w.queue.clear();
  }
  const bool idle = w.executing == 0 && (!w.gen || w.gen->Idle());
  for (const auto& q : orphans) HandleArrivalLocked(q.request);
  if (idle) FinalizeRetirementLocked(id);
}

void LiveTestbed::Impl::FinalizeRetirementLocked(InstanceId id) {
  Worker& w = *workers_[id];
  if (w.gone) return;
  w.gone = true;
  ++w.epoch;  // drops a pending ready or formation-wait deadline
  --live_workers_;
  live_rel_.store(live_workers_, std::memory_order_relaxed);
  health_.OnGone(id);
  if (config_.telemetry) {
    config_.telemetry->RecordInstanceRetired(Now(), id);
    UpdateClusterGaugesLocked();
  }
  scheme_.OnInstanceRetired(id);
}

int LiveTestbed::Impl::OutstandingOn(InstanceId id) const {
  ARLO_CHECK(id < workers_.size());
  const Worker& w = *workers_[id];
  if (w.gen) return w.gen->WaitingCount() + w.gen->ResidentCount();
  return static_cast<int>(w.queue.size()) + w.executing;
}

void LiveTestbed::Impl::HandleArrivalLocked(const Request& request,
                                            int attempt) {
  // Transient dispatch error: the attempt fails before reaching the scheme
  // and waits out a jittered backoff on the fault supervisor's retry heap.
  // After max_attempts failures the request dispatches unconditionally.
  if (config_.fault_plan && config_.fault_plan->dispatch_error_prob > 0.0 &&
      attempt < config_.resilience.retry.max_attempts &&
      dispatch_rng_.Bernoulli(config_.fault_plan->dispatch_error_prob)) {
    ++retries_;
    const SimDuration backoff =
        config_.resilience.retry.BackoffFor(attempt, dispatch_rng_);
    const SimTime now = Now();
    if (config_.telemetry) {
      config_.telemetry->RecordRetry(request, now, attempt + 1, backoff);
    }
    {
      std::lock_guard lk(fault_mu_);
      retry_heap_.push(
          PendingRetry{now + backoff, retry_seq_++, request, attempt + 1});
    }
    fault_cv_.notify_all();
    return;
  }
  if (config_.telemetry) config_.telemetry->RecordEnqueue(request, Now());
  const InstanceId id = DispatchLocked(request);
  if (id != kInvalidInstance) {
    StartNextLocked(id);
    return;
  }
  buffer_.PushBack(request);
  if (config_.telemetry) {
    config_.telemetry->RecordBuffered(request, Now());
    UpdateClusterGaugesLocked();
  }
}

InstanceId LiveTestbed::Impl::DispatchLocked(const Request& request) {
  // Queues the request on the scheme's pick without starting service; the
  // caller starts the worker (StartNextLocked) once its dispatching is done.
  const InstanceId id = scheme_.SelectInstance(request, *this);
  if (id == kInvalidInstance) return kInvalidInstance;
  ARLO_CHECK(id < workers_.size());
  if (config_.max_worker_queue > 0 &&
      OutstandingOn(id) >= config_.max_worker_queue) {
    // Backpressure into the central (class-aware) buffer.
    return kInvalidInstance;
  }
  Worker& w = *workers_[id];
  ARLO_CHECK_MSG(w.ready && !w.retiring && !w.gone,
                 "scheme selected an unavailable worker");
  if (w.gen) {
    w.last_enqueue = Now();
    w.gen->Enqueue(batch::Item{request, w.last_enqueue});
    CutRunLocked(id);  // the next boundary may admit it
  } else {
    w.queue.push_back(batch::Item{request, Now()});
  }
  scheme_.OnDispatched(request, id);
  ++outstanding_;
  if (config_.telemetry) {
    config_.telemetry->RecordDispatch(request, Now(), id, w.runtime);
    UpdateClusterGaugesLocked();
  }
  return id;
}

void LiveTestbed::Impl::RetryBufferedLocked() {
  // Dispatch the whole run first, then start the workers it landed on, so a
  // worker forms its next batch (or prefill cohort) over everything it got.
  std::vector<InstanceId> targets;
  while (!buffer_.Empty()) {
    const InstanceId id = DispatchLocked(buffer_.Front(Now()));
    if (id == kInvalidInstance) break;
    buffer_.PopFront();
    if (std::find(targets.begin(), targets.end(), id) == targets.end()) {
      targets.push_back(id);
    }
  }
  for (const InstanceId id : targets) StartNextLocked(id);
}

bool LiveTestbed::Impl::KillWorkerLocked(InstanceId id) {
  // dispatch_mu_ held.  A kill against a worker that is not currently
  // serving (still provisioning, retiring, or already dead) is a no-op.
  if (id >= workers_.size()) return false;
  Worker& w = *workers_[id];
  if (!w.ready || w.retiring || w.gone) return false;
  w.killed = true;
  w.gone = true;
  ++w.epoch;  // the in-flight service (or hang) deadline never fires
  std::vector<batch::Item> orphans;
  if (w.gen) {
    // Crash loses the KV caches: waiting AND resident sequences (including
    // any in-flight iteration's) are re-dispatched and prefill again
    // (recompute) on whichever worker they land on next.  The decode steps
    // that ended before the crash still count.
    SettleRunLocked(id, Now());
    w.run_left = 0;
    gen_resident_ -= w.gen->ResidentCount();
    resident_rel_.store(gen_resident_, std::memory_order_relaxed);
    orphans = w.gen->StealAll();
  } else {
    // Queued requests first, then the in-flight batch, as the simulator
    // requeues them; none of them records a completion here.
    orphans.assign(w.queue.begin(), w.queue.end());
    w.queue.clear();
    orphans.insert(orphans.end(), w.batch.begin(), w.batch.end());
    w.batch.clear();
  }
  w.executing = 0;
  --live_workers_;
  live_rel_.store(live_workers_, std::memory_order_relaxed);
  health_.OnGone(id);
  ++injected_failures_;
  ++faults_injected_;
  if (config_.telemetry) {
    config_.telemetry->RecordInstanceFailure(Now(), id);
    UpdateClusterGaugesLocked();
  }
  // The scheme drops the worker first (and may launch a replacement), so
  // requeued orphans can only be dispatched to surviving workers.
  scheme_.OnInstanceFailure(id, *this);
  for (const auto& q : orphans) {
    --outstanding_;
    ++requeues_;
    if (config_.telemetry) {
      config_.telemetry->RecordRequeue(q.request, Now(), id);
    }
    HandleArrivalLocked(q.request);
  }
  RetryBufferedLocked();
  return true;
}

void LiveTestbed::Impl::ApplyPlanEventLocked(const fault::FaultEvent& event) {
  // dispatch_mu_ held.
  switch (event.kind) {
    case fault::FaultKind::kCrash:
      KillWorkerLocked(event.instance);
      break;
    case fault::FaultKind::kHang: {
      if (event.instance >= workers_.size() || event.duration <= 0) return;
      Worker& w = *workers_[event.instance];
      if (!w.ready || w.retiring || w.gone) return;
      CutRunLocked(event.instance);
      w.hung_until = std::max(w.hung_until, Now() + event.duration);
      ++faults_injected_;
      if (config_.telemetry) {
        config_.telemetry->RecordFaultHang(Now(), event.instance,
                                           event.duration);
      }
      break;
    }
    case fault::FaultKind::kSlowdown: {
      if (event.instance >= workers_.size() || event.duration <= 0 ||
          event.factor <= 0.0) {
        return;
      }
      Worker& w = *workers_[event.instance];
      if (!w.ready || w.retiring || w.gone) return;
      CutRunLocked(event.instance);  // its chain was priced at the old pace
      w.slow_until = std::max(w.slow_until, Now() + event.duration);
      w.slow_factor = event.factor;
      ++faults_injected_;
      if (config_.telemetry) {
        config_.telemetry->RecordFaultSlowdown(Now(), event.instance,
                                               event.duration, event.factor);
      }
      break;
    }
  }
}

std::vector<InstanceId> LiveTestbed::Impl::FindHungLocked(SimTime now) {
  // dispatch_mu_ held.  The tracker decides "held work, no progress past
  // the timeout"; the callback supplies live outstanding, reporting 0 for
  // provisioning/retiring/dead workers so only servable hangs are reaped.
  // Decode steps that ended by now are progress, settled or not.
  SettleAllLocked(now);
  return health_.FindHung(now, [this](InstanceId id) {
    if (id >= workers_.size()) return 0;
    const Worker& w = *workers_[id];
    if (!w.ready || w.retiring || w.gone) return 0;
    return OutstandingOn(id);
  });
}

void LiveTestbed::Impl::RunHealthCheckLocked() {
  // dispatch_mu_ held.  Reap workers holding work with no pick/completion
  // for longer than the timeout — exactly the crash path, so recovery
  // (scheme replacement + requeue) is identical.
  for (const InstanceId id : FindHungLocked(Now())) KillWorkerLocked(id);
}

void LiveTestbed::Impl::FaultLoop() {
  constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  const fault::FaultPlan& plan = *config_.fault_plan;
  const std::vector<fault::FaultEvent> events = plan.Sorted();
  std::size_t next_event = 0;
  // Distinct stream from dispatch_rng_ (which draws transient errors and
  // jitter under dispatch_mu_): gaps and victims for random crashes.
  Rng crash_rng(plan.seed + 1);
  SimTime next_crash = kNever;
  if (plan.random_crash_mtbf_s > 0.0) {
    next_crash = Seconds(crash_rng.Exponential(1.0 / plan.random_crash_mtbf_s));
  }
  const bool health = config_.resilience.hang_timeout > 0;
  SimTime next_health = health ? config_.resilience.health_check_period : kNever;

  for (;;) {
    SimTime due = kNever;
    if (next_event < events.size()) due = std::min(due, events[next_event].at);
    due = std::min(due, next_crash);
    due = std::min(due, next_health);
    {
      std::unique_lock lk(fault_mu_);
      if (!retry_heap_.empty()) due = std::min(due, retry_heap_.top().due);
      const auto woken = [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               (!retry_heap_.empty() && retry_heap_.top().due < due);
      };
      if (due == kNever) {
        fault_cv_.wait(lk, woken);
      } else {
        fault_cv_.wait_until(lk, SimToWall(due), woken);
      }
      if (stopping_.load(std::memory_order_relaxed)) return;
    }

    const SimTime now = Now();
    std::vector<PendingRetry> due_retries;
    {
      std::lock_guard lk(fault_mu_);
      while (!retry_heap_.empty() && retry_heap_.top().due <= now) {
        due_retries.push_back(retry_heap_.top());
        retry_heap_.pop();
      }
    }
    std::lock_guard global(dispatch_mu_);
    for (const PendingRetry& r : due_retries) {
      HandleArrivalLocked(r.request, r.attempt);
    }
    while (next_event < events.size() && events[next_event].at <= now) {
      ApplyPlanEventLocked(events[next_event]);
      ++next_event;
    }
    if (next_crash <= now) {
      // Random background crash: uniform victim among live workers.
      std::vector<InstanceId> live;
      for (InstanceId id = 0; id < workers_.size(); ++id) {
        const Worker& w = *workers_[id];
        if (w.ready && !w.retiring && !w.gone) live.push_back(id);
      }
      if (!live.empty()) {
        KillWorkerLocked(live[static_cast<std::size_t>(crash_rng.UniformInt(
            0, static_cast<std::int64_t>(live.size()) - 1))]);
      }
      next_crash =
          now + Seconds(crash_rng.Exponential(1.0 / plan.random_crash_mtbf_s));
    }
    if (next_health <= now) {
      RunHealthCheckLocked();
      while (next_health <= now) {
        next_health += config_.resilience.health_check_period;
      }
    }
  }
}

void LiveTestbed::Impl::TimerLoop() {
  // Deadlines are the emulated GPUs' only clock, so ask the kernel for exact
  // wake-ups (the default slack is 50 us) rather than spinning the tail.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<TimerEntry> due;
  for (;;) {
    {
      std::unique_lock lk(timer_mu_);
      for (;;) {
        if (timer_stop_) return;
        if (timers_.empty()) {
          timer_cv_.wait(lk);
          continue;
        }
        const Clock::time_point wake = SimToWall(timers_.top().due);
        if (Clock::now() >= wake) break;
        timer_cv_.wait_until(lk, wake);
      }
      const Clock::time_point now = Clock::now();
      while (!timers_.empty() && SimToWall(timers_.top().due) <= now) {
        due.push_back(timers_.top());
        timers_.pop();
      }
    }
    std::lock_guard global(dispatch_mu_);
    for (const TimerEntry& entry : due) FireLocked(entry);
    due.clear();
  }
}

void LiveTestbed::Impl::ArmLocked(InstanceId id, TimerKind kind, SimTime due) {
  TimerEntry entry{due, 0, id, ++workers_[id]->epoch, kind};
  bool earliest;
  {
    std::lock_guard lk(timer_mu_);
    entry.seq = timer_seq_++;
    timers_.push(entry);
    earliest = timers_.top().seq == entry.seq;
  }
  if (earliest) timer_cv_.notify_one();
}

void LiveTestbed::Impl::FireLocked(const TimerEntry& entry) {
  if (entry.epoch != workers_[entry.id]->epoch) return;  // superseded
  switch (entry.kind) {
    case TimerKind::kReady:
      OnReadyLocked(entry.id);
      break;
    case TimerKind::kFormationOver:
      StartNextLocked(entry.id);
      break;
    case TimerKind::kServiceDone:
      EndServiceLocked(entry.id, /*after_hang=*/false);
      break;
    case TimerKind::kHangOver:
      EndServiceLocked(entry.id, /*after_hang=*/true);
      break;
  }
}

void LiveTestbed::Impl::OnReadyLocked(InstanceId id) {
  Worker& w = *workers_[id];
  if (w.gone || w.retiring) return;
  w.ready = true;
  health_.OnReady(id, Now());
  scheme_.OnInstanceReady(id, w.runtime);
  RetryBufferedLocked();
}

void LiveTestbed::Impl::StartNextLocked(InstanceId id) {
  // Starts service on an idle, ready worker that holds work.  Busy,
  // provisioning and dead workers pick up their work later on their own.
  const Worker& w = *workers_[id];
  if (!w.ready || w.gone || w.executing > 0) return;
  if (w.gen) {
    if (!w.gen->Idle()) StartIterationLocked(id);
  } else if (!w.queue.empty()) {
    StartBatchLocked(id);
  }
}

void LiveTestbed::Impl::StartBatchLocked(InstanceId id) {
  Worker& w = *workers_[id];
  // Batch formation: ask the policy what to run; an empty take means "wait
  // for the batch to fill", a formation deadline on the timer.  A dispatch
  // to this worker re-decides first (a deeper queue may fill the batch
  // before the deadline) and supersedes the pending one.
  const SimTime now = Now();
  batch::BatchContext ctx;
  ctx.now = now;
  ctx.max_batch = config_.max_batch;
  ctx.per_request_overhead = config_.per_request_overhead;
  ctx.draining = w.retiring;
  const batch::BatchDecision d = policy_->Decide(w.queue, *w.rt, ctx);
  if (d.take.empty()) {
    ARLO_CHECK_MSG(d.wait > 0,
                   "batch policy must take requests or wait a positive time");
    ArmLocked(id, TimerKind::kFormationOver, now + d.wait);
    return;
  }
  w.batch.clear();
  int max_len = 1;
  int sum_len = 0;
  std::size_t prev_idx = 0;
  for (std::size_t k = 0; k < d.take.size(); ++k) {
    const std::size_t idx = d.take[k];
    ARLO_CHECK_MSG(idx < w.queue.size() && (k == 0 || idx > prev_idx),
                   "batch policy returned invalid take indices");
    prev_idx = idx;
    w.batch.push_back(w.queue[idx]);
    max_len = std::max(max_len, w.queue[idx].request.length);
    sum_len += w.queue[idx].request.length;
  }
  for (auto it = d.take.rbegin(); it != d.take.rend(); ++it) {
    w.queue.erase(w.queue.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  const int n = static_cast<int>(w.batch.size());
  w.executing = n;
  health_.OnProgress(id, now);

  SimDuration service =
      static_cast<SimDuration>(n) * config_.per_request_overhead +
      w.rt->BatchComputeTime(n, max_len);
  if (now < w.slow_until) {
    service = static_cast<SimDuration>(static_cast<double>(service) *
                                       w.slow_factor);
  }
  const SimDuration oldest_wait = now - w.batch.front().queued_at;
  ++batches_formed_;
  if (d.timed_out) ++batch_timeouts_;
  const std::int64_t prev_form = ewma_form_ns_.load(std::memory_order_relaxed);
  ewma_form_ns_.store(prev_form == 0
                          ? oldest_wait
                          : prev_form - prev_form / 8 + oldest_wait / 8,
                      std::memory_order_relaxed);
  if (config_.telemetry) {
    const batch::PaddingTokens tokens =
        batch::BatchPaddingTokens(*w.rt, n, sum_len, max_len);
    config_.telemetry->RecordBatchFormed(now, id, n, tokens.useful,
                                         tokens.computed, oldest_wait,
                                         d.timed_out);
  }
  w.service_start = now;
  w.service_end = now + service;
  ArmLocked(id, TimerKind::kServiceDone, w.service_end);
}

void LiveTestbed::Impl::StartIterationLocked(InstanceId id) {
  Worker& w = *workers_[id];
  // After a cut, the iteration begins where the cut step ended, or when the
  // last prompt it may admit was dispatched, never before.
  const SimTime now =
      w.chain_at >= 0 ? std::max(w.chain_at, w.last_enqueue) : Now();
  w.chain_at = -1;
  const int resident_before = w.gen->ResidentCount();
  const batch::IterationPlan plan = w.gen->BeginIteration(now);
  ARLO_CHECK(plan.kind != batch::IterationPlan::Kind::kNone);
  gen_resident_ += w.gen->ResidentCount() - resident_before;
  resident_rel_.store(gen_resident_, std::memory_order_relaxed);
  w.executing = plan.batch;
  w.service_start = now;
  health_.OnProgress(id, now);
  gen_preemptions_ += static_cast<std::uint64_t>(plan.preempted);

  if (plan.kind == batch::IterationPlan::Kind::kDecode) {
    // A decode run: chain its iterations back to back at their modeled
    // times and arm only the last end.  SettleRunLocked replays the others.
    w.decode = plan;
    w.run_left = w.gen->DecodeRunLength() - 1;
    w.step_end = now + DecodeStepTime(w, plan.max_len, now);
    w.service_end = w.step_end;
    for (int i = 1; i <= w.run_left; ++i) {
      w.service_end += DecodeStepTime(w, plan.max_len + i, w.service_end);
    }
    ++gen_decode_iters_;
  } else {
    SimDuration service =
        static_cast<SimDuration>(plan.batch) * config_.per_request_overhead +
        w.rt->BatchComputeTime(plan.batch, plan.max_len);
    if (now < w.slow_until) {
      service = static_cast<SimDuration>(static_cast<double>(service) *
                                         w.slow_factor);
    }
    ++batches_formed_;
    ++gen_prefill_iters_;
    if (config_.telemetry) {
      config_.telemetry->RecordGenPrefill(now, id, plan.batch, plan.preempted,
                                          service);
    }
    w.service_end = now + service;
  }
  ArmLocked(id, TimerKind::kServiceDone, w.service_end);
}

SimDuration LiveTestbed::Impl::DecodeStepTime(const Worker& w, int max_len,
                                              SimTime start) const {
  const SimDuration step = w.rt->DecodeStepTime(w.decode.billed_batch, max_len);
  return start < w.slow_until
             ? static_cast<SimDuration>(static_cast<double>(step) *
                                        w.slow_factor)
             : step;
}

void LiveTestbed::Impl::SettleRunLocked(InstanceId id, SimTime upto) {
  // Replays the run's iterations that ended by `upto`, short of its last
  // (the armed deadline delivers that one): each ends at its modeled time
  // and the next begins there, exactly as if the timer had fired on time.
  Worker& w = *workers_[id];
  int steps = 0;
  while (w.run_left > 0 && w.step_end <= upto) {
    const SimDuration step = w.step_end - w.service_start;
    if (config_.telemetry) {
      config_.telemetry->RecordGenDecodeStep(w.step_end, id, w.decode.batch,
                                             step);
    }
    ObserveIteration(step);
    w.service_start = w.step_end;
    ++w.decode.max_len;
    w.step_end += DecodeStepTime(w, w.decode.max_len, w.service_start);
    --w.run_left;
    ++steps;
  }
  if (steps == 0) return;
  w.gen->AdvanceDecode(steps);
  gen_decode_iters_ += static_cast<std::uint64_t>(steps);
  health_.OnProgress(id, w.service_start);
}

void LiveTestbed::Impl::SettleAllLocked(SimTime upto) {
  for (InstanceId id = 0; id < workers_.size(); ++id) {
    if (workers_[id]->run_left > 0) SettleRunLocked(id, upto);
  }
}

void LiveTestbed::Impl::CutRunLocked(InstanceId id) {
  // Ends the decode run with the iteration in flight now — the first
  // boundary at or after now — because what the worker runs after it may
  // change (an arrival to admit, a hang, a new pace).
  Worker& w = *workers_[id];
  if (w.run_left == 0) return;
  SettleRunLocked(id, Now() - 1);
  if (w.run_left == 0) return;  // already on the run's last iteration
  w.run_left = 0;
  w.service_end = w.step_end;
  ArmLocked(id, TimerKind::kServiceDone, w.service_end);
}

void LiveTestbed::Impl::ObserveIteration(SimDuration duration) {
  const std::int64_t prev = ewma_iter_ns_.load(std::memory_order_relaxed);
  ewma_iter_ns_.store(prev == 0 ? duration : prev - prev / 8 + duration / 8,
                      std::memory_order_relaxed);
}

void LiveTestbed::Impl::EndServiceLocked(InstanceId id, bool after_hang) {
  Worker& w = *workers_[id];
  // A hang freezes the worker: the in-flight completion slides past the
  // window's end, re-armed while a later hang extends it.  A kill (e.g. the
  // health check reaping this very hang) drops the deadline instead.
  if (Now() < w.hung_until) {
    ArmLocked(id, TimerKind::kHangOver, w.hung_until);
    return;
  }
  if (after_hang && config_.telemetry) {
    config_.telemetry->RecordFaultRecover(Now(), id);
  }
  if (w.gen) {
    CompleteIterationLocked(id, after_hang);
  } else {
    CompleteBatchLocked(id);
  }
  health_.OnProgress(id, Now());
  const bool drained =
      w.retiring && (w.gen ? w.gen->Idle() : w.queue.empty());
  if (drained) FinalizeRetirementLocked(id);
  RetryBufferedLocked();
  if (!drained) StartNextLocked(id);
  w.chain_at = -1;
  if (completed_ >= submitted_) all_done_cv_.notify_all();
}

void LiveTestbed::Impl::CompleteBatchLocked(InstanceId id) {
  Worker& w = *workers_[id];
  // Never before the modeled end, whatever the wall-to-sim rounding.
  const SimTime completion = std::max(Now(), w.service_end);
  const std::vector<batch::Item> items = std::move(w.batch);
  w.batch.clear();
  const auto n = static_cast<std::int64_t>(items.size());
  for (const batch::Item& item : items) {
    RequestRecord record;
    record.id = item.request.id;
    record.arrival = item.request.arrival;
    record.dispatch = item.queued_at;
    record.start = w.service_start;
    record.completion = completion;
    record.length = item.request.length;
    record.stream = item.request.stream;
    record.tenant_class = item.request.tenant_class;
    record.runtime = w.runtime;
    record.instance = id;
    // Per-request share of the batch's service time, so the admission
    // estimate stays a per-request quantity under batching.
    CompleteRequestLocked(record, record.ServiceTime() / n);
  }
  w.executing = 0;
}

void LiveTestbed::Impl::CompleteIterationLocked(InstanceId id,
                                                bool after_hang) {
  Worker& w = *workers_[id];
  const SimTime completion = std::max(Now(), w.service_end);
  SettleRunLocked(id, completion);
  ARLO_CHECK(w.run_left == 0);
  batch::ContinuousBatcher::IterationResult result =
      w.gen->CompleteIteration(completion);
  w.executing = 0;
  gen_resident_ -= static_cast<std::int64_t>(result.finished.size());
  resident_rel_.store(gen_resident_, std::memory_order_relaxed);
  // First tokens and finishes are observed, so they are stamped when the
  // timer delivers them.  A cut step that yields neither is not: it ends,
  // and the next iteration chains, at its modeled time (unless a hang
  // froze it, which ends now).
  const bool observed = after_hang || !result.first_tokens.empty() ||
                        !result.finished.empty();
  const SimTime end = observed ? completion : w.service_end;
  w.chain_at = observed ? -1 : end;
  ObserveIteration(end - w.service_start);
  if (config_.telemetry) {
    if (result.plan.kind == batch::IterationPlan::Kind::kDecode) {
      config_.telemetry->RecordGenDecodeStep(end, id, result.plan.batch,
                                             end - w.service_start);
    }
    for (const batch::Item& item : result.first_tokens) {
      config_.telemetry->RecordGenFirstToken(
          item.request, completion, completion - item.request.arrival);
    }
  }
  for (batch::GenSequence& seq : result.finished) {
    RequestRecord record;
    record.id = seq.item.request.id;
    record.arrival = seq.item.request.arrival;
    record.dispatch = seq.item.queued_at;
    record.start = seq.prefill_start;
    record.first_token = seq.first_token;
    record.completion = completion;
    record.length = seq.item.request.length;
    record.decode_len = seq.item.request.decode_len;
    record.stream = seq.item.request.stream;
    record.tenant_class = seq.item.request.tenant_class;
    record.runtime = w.runtime;
    record.instance = id;
    CompleteRequestLocked(record, record.ServiceTime());
  }
  UpdateGenGaugesLocked();
}

void LiveTestbed::Impl::CompleteRequestLocked(const RequestRecord& record,
                                              std::int64_t observed_service) {
  records_.push_back(record);
  ++completed_;
  if (!class_completed_.empty()) {
    ++class_completed_[static_cast<std::size_t>(
        config_.tenants->Clamp(record.tenant_class))];
  }
  completed_rel_.fetch_add(1, std::memory_order_relaxed);
  --outstanding_;
  const std::int64_t prev = ewma_service_ns_.load(std::memory_order_relaxed);
  ewma_service_ns_.store(
      prev == 0 ? observed_service
                : prev - prev / 8 + observed_service / 8,
      std::memory_order_relaxed);
  if (config_.telemetry) {
    config_.telemetry->RecordComplete(record);
    UpdateClusterGaugesLocked();
  }
  scheme_.OnComplete(record, *this);
  if (auto it = callbacks_.find(record.id); it != callbacks_.end()) {
    CompletionFn done = std::move(it->second);
    callbacks_.erase(it);
    if (done) done(record);
  }
}

void LiveTestbed::Impl::UpdateGenGaugesLocked() {
  if (!config_.telemetry || !config_.generative) return;
  // Gone workers hold no residents: a kill steals them and a retirement
  // finalizes only once idle.
  config_.telemetry->SetGenKvGauges(
      gen_resident_, static_cast<std::int64_t>(live_workers_) *
                         config_.generative->kv_capacity);
}

void LiveTestbed::Impl::UpdateClusterGaugesLocked() {
  config_.telemetry->SetClusterGauges(
      live_workers_, outstanding_, static_cast<std::int64_t>(buffer_.Size()));
}

void LiveTestbed::Impl::SnapshotLoop() {
  const SimDuration period = config_.telemetry->SnapshotPeriod();
  ARLO_CHECK(period > 0);
  SimTime next = period;
  while (!SleepUntilOrStopped(SimToWall(next), &stopping_)) {
    // Stamp the scheduled grid time, not the jittery wake time: the sim
    // engine snapshots at exact multiples of the period on virtual time, so
    // stamping `next` keeps testbed CSV rows on the same monotonic grid
    // (one clock convention for the series).  The final row, taken in
    // Finish(), is stamped Now() — matching the engine's end-of-run row.
    config_.telemetry->Snapshot(next);
    next += period;
  }
}

void LiveTestbed::Impl::TickLoop() {
  const SimDuration interval = scheme_.TickInterval();
  SimTime next = interval;
  while (!SleepUntilOrStopped(SimToWall(next), &stopping_)) {
    std::lock_guard global(dispatch_mu_);
    scheme_.OnTick(Now(), *this);
    RetryBufferedLocked();
    next += interval;
  }
}

void LiveTestbed::Impl::Start() {
  ARLO_CHECK_MSG(!started_, "Start called twice");
  started_ = true;
  start_ = Clock::now();
  scheme_.SetTelemetry(config_.telemetry);
  if (config_.fault_plan) dispatch_rng_ = Rng(config_.fault_plan->seed);
  timer_ = std::thread([this] { TimerLoop(); });
  {
    std::lock_guard global(dispatch_mu_);
    scheme_.Setup(*this);
  }
  ticker_ = std::thread([this] { TickLoop(); });
  if (config_.telemetry) {
    snapshotter_ = std::thread([this] { SnapshotLoop(); });
  }
  if (config_.fault_plan) {
    fault_supervisor_ = std::thread([this] { FaultLoop(); });
  }
}

void LiveTestbed::Impl::Submit(const Request& request, CompletionFn done) {
  submitted_rel_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard global(dispatch_mu_);
  ++submitted_;
  if (!mix_counts_.empty()) {
    // First bin whose upper bound covers the length; overflow lands in the
    // last bin so the histogram total always matches `submitted`.
    std::size_t bin = 0;
    while (bin + 1 < mix_counts_.size() &&
           request.length > config_.mix_bounds[bin]) {
      ++bin;
    }
    ++mix_counts_[bin];
  }
  if (done) callbacks_.emplace(request.id, std::move(done));
  HandleArrivalLocked(request);
}

bool LiveTestbed::Impl::ApplyAllocation(const std::vector<int>& allocation) {
  std::lock_guard global(dispatch_mu_);
  const bool ok = scheme_.ApplyExternalAllocation(allocation, *this);
  if (ok) {
    ++reallocs_applied_;
    last_realloc_ = Now();
    // The new target may have retired workers and requeued their work;
    // give the buffer a chance to land on survivors immediately.
    RetryBufferedLocked();
  } else {
    ++reallocs_rejected_;
  }
  return ok;
}

TestbedHealth LiveTestbed::Impl::Health() {
  std::lock_guard global(dispatch_mu_);
  TestbedHealth h;
  h.live_workers = live_workers_;
  h.outstanding = outstanding_;
  h.tracked = health_.NumTracked();
  h.hung = FindHungLocked(Now());
  h.ok = live_workers_ > 0 && h.hung.empty();
  return h;
}

void LiveTestbed::Impl::WriteStatusJson(std::ostream& os) {
  std::lock_guard global(dispatch_mu_);
  const SimTime now = Now();
  SettleAllLocked(now);  // so idle_s reads the last decode step's start
  os << "{\"time_s\":" << ToSeconds(now) << ",\"submitted\":" << submitted_
     << ",\"completed\":" << completed_ << ",\"inflight\":" << outstanding_
     << ",\"buffered\":" << buffer_.Size()
     << ",\"live_workers\":" << live_workers_
     << ",\"peak_workers\":" << peak_workers_
     // The admission estimate, exported so a router tier can steer on
     // backend queue pressure without a second estimator.
     << ",\"est_queue_delay_ns\":" << EstimatedQueueDelay();
  os << ",\"batches\":{\"formed\":" << batches_formed_
     << ",\"timeouts\":" << batch_timeouts_ << "}";
  if (!mix_counts_.empty()) {
    // Cumulative submitted-length histogram; the cluster Runtime Scheduler
    // diffs successive scrapes into a windowed demand observation.
    os << ",\"length_mix\":{\"bounds\":[";
    for (std::size_t i = 0; i < config_.mix_bounds.size(); ++i) {
      if (i > 0) os << ",";
      os << config_.mix_bounds[i];
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < mix_counts_.size(); ++i) {
      if (i > 0) os << ",";
      os << mix_counts_[i];
    }
    os << "]}";
  }
  os << ",\"reallocs\":{\"applied\":" << reallocs_applied_
     << ",\"rejected\":" << reallocs_rejected_;
  if (last_realloc_ >= 0) {
    os << ",\"last_s\":" << ToSeconds(last_realloc_);
  }
  os << "}";
  if (config_.tenants != nullptr && !config_.tenants->Empty()) {
    os << ",\"tenants\":[";
    for (int c = 0; c < config_.tenants->Size(); ++c) {
      const tenant::TenantClass& klass = config_.tenants->Class(c);
      if (c > 0) os << ",";
      os << "{\"class\":" << c << ",\"name\":\"" << klass.name
         << "\",\"weight\":" << klass.weight
         << ",\"slo_ms\":" << ToSeconds(klass.slo) * 1e3
         << ",\"buffered\":" << buffer_.ClassDepth(c)
         << ",\"completed\":" << class_completed_[static_cast<std::size_t>(c)];
      // Head-of-line queueing delay: how long the class's oldest buffered
      // request has waited.  Zero when nothing is buffered.
      const SimTime head = buffer_.ClassHeadArrival(c);
      os << ",\"queue_delay_ns\":" << (head >= 0 ? now - head : 0) << "}";
    }
    os << "]";
  }
  os << ",\"workers\":[";
  for (InstanceId id = 0; id < workers_.size(); ++id) {
    const Worker& w = *workers_[id];
    const int queued = w.gen ? w.gen->WaitingCount() + w.gen->ResidentCount()
                             : static_cast<int>(w.queue.size());
    const char* state = w.gone       ? (w.killed ? "killed" : "gone")
                        : w.retiring ? "retiring"
                        : w.ready    ? "ready"
                                     : "provisioning";
    const int max_length = w.rt ? w.rt->MaxLength() : 0;
    const SimTime last_progress = health_.LastProgress(id);
    if (id > 0) os << ",";
    os << "{\"id\":" << id << ",\"runtime\":"
       << static_cast<std::int64_t>(w.runtime) << ",\"state\":\"" << state
       << "\",\"max_length\":" << max_length << ",\"queued\":" << queued
       << ",\"executing\":" << w.executing;
    if (last_progress >= 0) {
      os << ",\"idle_s\":" << ToSeconds(now - last_progress);
    }
    os << "}";
  }
  os << "]";
  // Per-stage latency summary, present only once stage metrics are enabled
  // (a net::Server with tracing wired up) so plain testbeds keep emitting
  // the exact statusz bytes they always have.
  if (config_.telemetry != nullptr && config_.telemetry->StageMetricsEnabled()) {
    os << ",\"stages\":";
    config_.telemetry->WriteStageSummaryJson(os);
  }
  os << ",\"scheme\":";
  scheme_.WriteStatusJson(os, now);
  os << "}";
}

SimDuration LiveTestbed::Impl::EstimatedQueueDelay() const {
  const int workers = std::max(1, live_rel_.load(std::memory_order_relaxed));
  const std::int64_t in_system =
      std::max<std::int64_t>(0, submitted_rel_.load(std::memory_order_relaxed) -
                                    completed_rel_.load(
                                        std::memory_order_relaxed));
  if (const batch::GenerativeConfig* gen = config_.generative) {
    // Up to kv_capacity sequences per worker decode at once, so resident
    // decode time is not queueing.  A new prompt waits out the rest of the
    // iteration in flight (half of one, on average), then one iteration per
    // prefill cohort waiting ahead of it.  Admission that waits for the
    // resident set to drain (static, decode-first) waits longer than this.
    const std::int64_t waiting = std::max<std::int64_t>(
        0, in_system - resident_rel_.load(std::memory_order_relaxed));
    const int cohort = gen->mode == batch::GenBatcherMode::kStatic
                           ? gen->kv_capacity
                           : gen->max_prefill_batch;
    const std::int64_t cohorts_ahead =
        waiting / (static_cast<std::int64_t>(workers) * cohort);
    const std::int64_t iter = ewma_iter_ns_.load(std::memory_order_relaxed);
    return static_cast<SimDuration>(iter / 2 + iter * cohorts_ahead);
  }
  const std::int64_t service = ewma_service_ns_.load(std::memory_order_relaxed);
  // Formation wait: a waiting batch policy (e.g. "slo") holds requests in
  // the worker queue past their dispatch, which per-request service EWMAs
  // cannot see.  Its own EWMA adds that delay so admission keeps tracking.
  const std::int64_t form = ewma_form_ns_.load(std::memory_order_relaxed);
  return static_cast<SimDuration>(service * in_system / workers + form);
}

void LiveTestbed::Impl::Drain() {
  std::unique_lock global(dispatch_mu_);
  all_done_cv_.wait(global, [&] { return completed_ >= submitted_; });
}

TestbedResult LiveTestbed::Impl::Finish() {
  ARLO_CHECK_MSG(started_ && !finished_, "Finish without Start, or twice");
  finished_ = true;
  Drain();
  stopping_.store(true, std::memory_order_relaxed);
  ticker_.join();
  if (fault_supervisor_.joinable()) {
    {
      std::lock_guard lk(fault_mu_);  // pairs with the fault_cv_ wait
    }
    fault_cv_.notify_all();
    fault_supervisor_.join();
  }
  if (snapshotter_.joinable()) snapshotter_.join();
  if (config_.telemetry) config_.telemetry->Snapshot(Now());  // final row
  {
    std::lock_guard lk(timer_mu_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  timer_.join();

  TestbedResult out;
  out.records = std::move(records_);
  out.peak_workers = peak_workers_;
  out.injected_failures = injected_failures_;
  out.faults_injected = faults_injected_;
  out.retries = retries_;
  out.requeues = requeues_;
  out.batches_formed = batches_formed_;
  out.batch_timeouts = batch_timeouts_;
  out.gen_prefill_iterations = gen_prefill_iters_;
  out.gen_decode_iterations = gen_decode_iters_;
  out.gen_preemptions = gen_preemptions_;
  SimTime end = 0;
  for (const auto& r : out.records) end = std::max(end, r.completion);
  out.end_time = end;
  return out;
}

LiveTestbed::LiveTestbed(sim::Scheme& scheme, const TestbedConfig& config)
    : impl_(std::make_unique<Impl>(scheme, config)) {}

LiveTestbed::~LiveTestbed() {
  if (impl_ && impl_->Running()) (void)impl_->Finish();
}

void LiveTestbed::Start() { impl_->Start(); }

SimTime LiveTestbed::Now() const { return impl_->Now(); }

const TestbedConfig& LiveTestbed::Config() const { return impl_->Config(); }

void LiveTestbed::Submit(const Request& request, CompletionFn done) {
  impl_->Submit(request, std::move(done));
}

bool LiveTestbed::ApplyAllocation(const std::vector<int>& allocation) {
  return impl_->ApplyAllocation(allocation);
}

int LiveTestbed::Outstanding() const { return impl_->InSystemRelaxed(); }

int LiveTestbed::NumWorkers() const { return impl_->LiveWorkersRelaxed(); }

SimDuration LiveTestbed::EstimatedQueueDelay() const {
  return impl_->EstimatedQueueDelay();
}

TestbedHealth LiveTestbed::Health() { return impl_->Health(); }

void LiveTestbed::WriteStatusJson(std::ostream& os) {
  impl_->WriteStatusJson(os);
}

void LiveTestbed::Drain() { impl_->Drain(); }

TestbedResult LiveTestbed::Finish() { return impl_->Finish(); }

TestbedResult RunTestbed(const trace::Trace& trace, sim::Scheme& scheme,
                         const TestbedConfig& config) {
  // Replay arrivals with exact wake-ups, as the emulation timer does: under
  // the default 50 us timer slack every submit lands up to that late, and
  // later the idler the host is.  The caller's slack is restored on return.
  struct ExactWakeups {
    const int saved = prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
    ExactWakeups() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }
    ~ExactWakeups() {
      if (saved > 0) {
        prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(saved), 0UL, 0UL,
              0UL);
      }
    }
  } exact_wakeups;
  LiveTestbed testbed(scheme, config);
  testbed.Start();
  // Replay arrivals at their scaled wall-clock times: request r is due when
  // Now() reaches r.arrival.  The wait is sliced so config.cancel (SIGINT
  // in examples/live_serving) interrupts the replay promptly; submitted
  // requests still drain through Finish().
  for (const Request& r : trace.Requests()) {
    if (config.cancel && config.cancel->load(std::memory_order_relaxed)) break;
    const SimTime now = testbed.Now();
    if (r.arrival > now) {
      const auto deadline =
          Clock::now() + std::chrono::nanoseconds(static_cast<std::int64_t>(
                             static_cast<double>(r.arrival - now) *
                             config.time_scale));
      if (SleepUntilOrStopped(deadline, config.cancel)) break;
    }
    testbed.Submit(r);
  }
  return testbed.Finish();
}

}  // namespace arlo::serving
