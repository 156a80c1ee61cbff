#include "batch/continuous.h"

#include <limits>
#include <stdexcept>

#include "common/check.h"

namespace arlo::batch {

GenAdmission ParseGenAdmission(const std::string& name) {
  if (name == "prefill") return GenAdmission::kPrioritizePrefill;
  if (name == "decode") return GenAdmission::kDecodeFirst;
  throw std::invalid_argument("unknown admission policy: " + name +
                              " (valid policies: decode, prefill)");
}

GenBatcherMode ParseGenBatcherMode(const std::string& name) {
  if (name == "continuous") return GenBatcherMode::kContinuous;
  if (name == "static") return GenBatcherMode::kStatic;
  throw std::invalid_argument("unknown generative batcher: " + name +
                              " (valid batchers: continuous, static)");
}

const char* GenAdmissionName(GenAdmission admission) {
  return admission == GenAdmission::kPrioritizePrefill ? "prefill" : "decode";
}

const char* GenBatcherModeName(GenBatcherMode mode) {
  return mode == GenBatcherMode::kContinuous ? "continuous" : "static";
}

int ValidateKvCapacity(long long value) {
  if (value < 1 || value > 4096) {
    throw std::invalid_argument(
        "--kv-capacity must be a positive integer in [1, 4096] (got " +
        std::to_string(value) + ")");
  }
  return static_cast<int>(value);
}

ContinuousBatcher::ContinuousBatcher(const GenerativeConfig& config)
    : config_(config) {
  ARLO_CHECK(config_.kv_capacity >= 1);
  ARLO_CHECK(config_.max_prefill_batch >= 1);
}

void ContinuousBatcher::Enqueue(Item item) {
  waiting_.push_back(std::move(item));
}

IterationPlan ContinuousBatcher::PlanPrefill(SimTime now) {
  int free = config_.kv_capacity - ResidentCount();
  IterationPlan plan;
  if (free == 0) {
    // KV full but a prompt is waiting (kPrioritizePrefill with preemption):
    // evict the youngest non-immune resident, recompute-style.  Evicting
    // more than one per iteration would thrash; one slot bounds the churn.
    std::size_t victim = resident_.size();
    for (std::size_t i = resident_.size(); i-- > 0;) {
      if (!resident_[i].immune) {
        victim = i;
        break;
      }
    }
    if (victim == resident_.size()) return plan;  // all immune: decode instead
    Item evicted = std::move(resident_[victim].item);
    preempted_ids_.insert(evicted.request.id);
    resident_.erase(resident_.begin() +
                    static_cast<std::ptrdiff_t>(victim));
    waiting_.push_back(std::move(evicted));
    ++preemptions_;
    plan.preempted = 1;
    free = 1;
  }
  const int cohort_cap = config_.mode == GenBatcherMode::kStatic
                             ? config_.kv_capacity
                             : config_.max_prefill_batch;
  const int admit =
      std::min({free, cohort_cap, static_cast<int>(waiting_.size())});
  ARLO_CHECK(admit >= 1);
  prefilling_.clear();
  for (int k = 0; k < admit; ++k) {
    GenSequence seq;
    seq.item = std::move(waiting_.front());
    waiting_.pop_front();
    seq.prefill_start = now;
    seq.immune = preempted_ids_.count(seq.item.request.id) > 0;
    plan.max_len = std::max(plan.max_len, seq.item.request.length);
    prefilling_.push_back(resident_.size());
    resident_.push_back(std::move(seq));
  }
  plan.kind = IterationPlan::Kind::kPrefill;
  plan.batch = admit;
  plan.billed_batch = admit;
  if (config_.mode == GenBatcherMode::kStatic) static_cohort_ = admit;
  return plan;
}

IterationPlan ContinuousBatcher::BeginIteration(SimTime now) {
  ARLO_CHECK_MSG(running_.kind == IterationPlan::Kind::kNone,
                 "BeginIteration while an iteration is in flight");
  bool want_prefill = false;
  if (!waiting_.empty()) {
    switch (config_.mode) {
      case GenBatcherMode::kStatic:
        want_prefill = resident_.empty();
        break;
      case GenBatcherMode::kContinuous:
        if (config_.admission == GenAdmission::kDecodeFirst) {
          want_prefill = resident_.empty();
        } else {
          want_prefill = ResidentCount() < config_.kv_capacity ||
                         config_.preempt;
        }
        break;
    }
  }
  IterationPlan plan;
  if (want_prefill) {
    plan = PlanPrefill(now);
    // PlanPrefill declines when the KV cap binds and every resident is
    // immune — fall through to a decode iteration.
  }
  if (plan.kind == IterationPlan::Kind::kNone && !resident_.empty()) {
    plan.kind = IterationPlan::Kind::kDecode;
    plan.batch = ResidentCount();
    plan.billed_batch = config_.mode == GenBatcherMode::kStatic
                            ? static_cohort_
                            : plan.batch;
    for (const GenSequence& seq : resident_) {
      plan.max_len = std::max(plan.max_len, seq.ContextLen());
    }
  }
  running_ = plan;
  return plan;
}

ContinuousBatcher::IterationResult ContinuousBatcher::CompleteIteration(
    SimTime now) {
  ARLO_CHECK_MSG(running_.kind != IterationPlan::Kind::kNone,
                 "CompleteIteration without a running iteration");
  IterationResult result;
  result.plan = running_;
  if (running_.kind == IterationPlan::Kind::kPrefill) {
    for (const std::size_t idx : prefilling_) {
      GenSequence& seq = resident_[idx];
      seq.first_token = now;
      seq.decoded = 1;
      result.first_tokens.push_back(seq.item);
      ++result.tokens;
    }
    prefilling_.clear();
  } else {
    for (GenSequence& seq : resident_) {
      ++seq.decoded;
      ++result.tokens;
    }
  }
  // Retire finished sequences, preserving admission order.
  std::vector<GenSequence> still_resident;
  still_resident.reserve(resident_.size());
  for (GenSequence& seq : resident_) {
    if (seq.decoded >= seq.DecodeTarget()) {
      preempted_ids_.erase(seq.item.request.id);
      result.finished.push_back(std::move(seq));
    } else {
      still_resident.push_back(std::move(seq));
    }
  }
  resident_ = std::move(still_resident);
  if (resident_.empty()) static_cohort_ = 0;
  running_ = IterationPlan{};
  return result;
}

int ContinuousBatcher::DecodeRunLength() const {
  ARLO_CHECK_MSG(running_.kind == IterationPlan::Kind::kDecode,
                 "DecodeRunLength without a running decode iteration");
  int run = std::numeric_limits<int>::max();
  for (const GenSequence& seq : resident_) {
    run = std::min(run, seq.DecodeTarget() - seq.decoded);
  }
  return run;
}

void ContinuousBatcher::AdvanceDecode(int steps) {
  ARLO_CHECK_MSG(steps >= 0 && steps < DecodeRunLength(),
                 "AdvanceDecode past the end of the decode run");
  for (GenSequence& seq : resident_) seq.decoded += steps;
  running_.max_len += steps;
}

std::vector<Item> ContinuousBatcher::StealWaiting() {
  std::vector<Item> out(std::make_move_iterator(waiting_.begin()),
                        std::make_move_iterator(waiting_.end()));
  waiting_.clear();
  // Stolen items leave this batcher for good (requeue on another worker),
  // so their preemption-immunity marks must not linger: a later request
  // that reuses the id would inherit immunity it never earned.
  for (const Item& item : out) preempted_ids_.erase(item.request.id);
  return out;
}

std::vector<Item> ContinuousBatcher::StealAll() {
  std::vector<Item> out;
  out.reserve(resident_.size() + waiting_.size());
  for (GenSequence& seq : resident_) out.push_back(std::move(seq.item));
  resident_.clear();
  for (Item& item : waiting_) out.push_back(std::move(item));
  waiting_.clear();
  prefilling_.clear();
  preempted_ids_.clear();  // everything left; no immunity marks survive
  static_cohort_ = 0;
  running_ = IterationPlan{};
  return out;
}

}  // namespace arlo::batch
