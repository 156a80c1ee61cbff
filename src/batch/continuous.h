// Continuous (iteration-level) batching for generative workloads.
//
// One-shot batching (policy.h) forms a batch once and runs it to completion.
// Autoregressive serving inverts that: an instance executes a sequence of
// short *iterations* — a prefill iteration runs the full forward pass over
// newly admitted prompts (emitting each sequence's first output token), a
// decode iteration generates one token for every resident sequence — and
// sequences join and leave the running batch at iteration boundaries.  The
// ContinuousBatcher is the per-instance state machine that owns the waiting
// queue and the resident set and plans each iteration; the executors
// (sim::Engine, serving::LiveTestbed) price the plan with the runtime's
// two-phase cost model (CompiledRuntime::PrefillTime / DecodeStepTime) and
// drive real or simulated time.  See docs/GENERATIVE.md.
//
// Residency is bounded by the KV-cache capacity: each resident sequence
// holds its KV cache on the instance, so at most `kv_capacity` sequences can
// be resident at once.  When the cap binds under kPrioritizePrefill, the
// batcher may preempt the youngest resident (vLLM-style recompute: its KV is
// dropped and it re-enters the waiting queue to prefill again); a preempted
// sequence becomes immune, so each request is preempted at most once.
//
// Determinism: all decisions are pure functions of the queue/resident state
// and the configuration — no clocks, no randomness.  Seeded simulations are
// exactly reproducible (tested).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "batch/policy.h"
#include "common/types.h"

namespace arlo::batch {

/// When to run a prefill iteration relative to pending decodes.
enum class GenAdmission {
  /// Admit waiting prompts as soon as KV space exists (or can be preempted):
  /// minimizes time-to-first-token, at the cost of decode stalls (higher
  /// inter-token latency) while prefills run.
  kPrioritizePrefill,
  /// Keep decoding while any sequence is resident; admit a fresh prompt
  /// cohort only when the instance fully drains: smooth inter-token latency,
  /// worse time-to-first-token under load.
  kDecodeFirst,
};

/// Iteration-level vs request-level batching.
enum class GenBatcherMode {
  /// Sequences join/leave at every iteration; decode cost re-priced on the
  /// live resident count each step.
  kContinuous,
  /// The static GreedyBatcher baseline: admit a cohort only when idle, and
  /// bill every decode step at the cohort's *initial* batch bucket until the
  /// whole cohort finishes (the compiled engine keeps its launch shape).
  kStatic,
};

struct GenerativeConfig {
  GenBatcherMode mode = GenBatcherMode::kContinuous;
  GenAdmission admission = GenAdmission::kPrioritizePrefill;
  /// KV-cache capacity: max resident sequences per instance.
  int kv_capacity = 8;
  /// Max sequences admitted (and prefilled) in one prefill iteration
  /// (continuous mode; static mode admits up to kv_capacity).
  int max_prefill_batch = 4;
  /// Allow preemption when the KV cap blocks a waiting prompt
  /// (kPrioritizePrefill only; each sequence is preempted at most once).
  bool preempt = true;
};

/// Parse/validate helpers for the CLI flags.  All throw
/// std::invalid_argument with stable (golden-tested) messages.
GenAdmission ParseGenAdmission(const std::string& name);
GenBatcherMode ParseGenBatcherMode(const std::string& name);
const char* GenAdmissionName(GenAdmission admission);
const char* GenBatcherModeName(GenBatcherMode mode);
int ValidateKvCapacity(long long value);

/// A resident (or finished) generative sequence.
struct GenSequence {
  Item item;                 ///< the dispatched request + queue entry time
  SimTime prefill_start = 0; ///< when its (last) prefill iteration began
  SimTime first_token = 0;   ///< when the prefill emitted token #1
  int decoded = 0;           ///< output tokens emitted so far
  bool immune = false;       ///< already preempted once; never again

  /// Output tokens this sequence must produce (one-shot requests count 1:
  /// their prefill is the whole answer).
  int DecodeTarget() const { return std::max(1, item.request.decode_len); }
  /// Context length the *next* iteration attends over.
  int ContextLen() const { return item.request.length + decoded; }
};

/// What the executor should run next.
struct IterationPlan {
  enum class Kind { kNone, kPrefill, kDecode };
  Kind kind = Kind::kNone;
  int batch = 0;         ///< sequences participating this iteration
  int billed_batch = 0;  ///< batch size for pricing (static: cohort size)
  int max_len = 0;       ///< prefill: max prompt len; decode: max context
  int preempted = 0;     ///< residents evicted to admit this iteration
};

class ContinuousBatcher {
 public:
  explicit ContinuousBatcher(const GenerativeConfig& config);

  /// A newly dispatched request enters the waiting queue (FIFO).
  void Enqueue(Item item);

  bool Idle() const { return waiting_.empty() && resident_.empty(); }
  int WaitingCount() const { return static_cast<int>(waiting_.size()); }
  int ResidentCount() const { return static_cast<int>(resident_.size()); }
  int KvCapacity() const { return config_.kv_capacity; }
  std::uint64_t Preemptions() const { return preemptions_; }

  /// Plans and starts the next iteration at `now`: admits waiting prompts
  /// per the admission policy (possibly preempting), or decodes the resident
  /// set.  Returns kNone when there is nothing to run.  The caller must
  /// finish a started iteration with CompleteIteration before planning the
  /// next one.
  IterationPlan BeginIteration(SimTime now);

  struct IterationResult {
    IterationPlan plan;                ///< echo of the completed plan
    std::vector<GenSequence> finished; ///< sequences done (admission order)
    std::vector<Item> first_tokens;    ///< sequences that emitted token #1
    int tokens = 0;                    ///< total tokens emitted this step
  };
  /// Completes the running iteration at `now`: stamps first-token times for
  /// freshly prefilled sequences, advances decode counters, and retires
  /// finished sequences.
  IterationResult CompleteIteration(SimTime now);

  /// Decode runs.  Between two membership changes, decode iterations are a
  /// deterministic chain: the resident set is fixed and every context grows
  /// by one token per step.  DecodeRunLength is the number of decode
  /// iterations, counting the running one, until the earliest resident
  /// reaches its decode target — the iterations BeginIteration plans with
  /// unchanged membership as long as nothing is enqueued.  Requires a
  /// running decode iteration.
  int DecodeRunLength() const;
  /// Completes `steps` iterations of the running decode and begins the
  /// next one: the state `steps` CompleteIteration/BeginIteration pairs
  /// leave, none of which may finish a sequence (steps < DecodeRunLength()).
  /// Allocates nothing.
  void AdvanceDecode(int steps);

  /// Drain support.  StealWaiting empties only the waiting queue (instance
  /// retirement: residents — and any in-flight iteration — finish in
  /// place); StealAll also evicts residents and aborts the in-flight
  /// iteration — decode progress is lost, recompute-style (instance crash).
  std::vector<Item> StealWaiting();
  std::vector<Item> StealAll();

 private:
  IterationPlan PlanPrefill(SimTime now);

  GenerativeConfig config_;
  std::deque<Item> waiting_;
  std::vector<GenSequence> resident_;
  std::vector<std::size_t> prefilling_;  ///< resident_ indices admitted now
  IterationPlan running_;
  int static_cohort_ = 0;  ///< kStatic: the cohort's initial size
  std::uint64_t preemptions_ = 0;
  std::unordered_set<RequestId> preempted_ids_;
};

}  // namespace arlo::batch
