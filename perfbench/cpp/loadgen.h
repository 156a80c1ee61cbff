// The benchmark's open-loop load generator on net::ClientConnection.
//
// Requests are sent at their due times by one sender thread, round-robin
// over a few connections, and read back by one receiver thread per
// connection.  Every latency is measured from the request's *due* time, so
// a stalled server or a late sender shows up in the numbers instead of
// being hidden by a send-time clock.  After the drain deadline the
// generator stops waiting: connections are shut down, receivers unblock,
// and whatever is still open counts as unanswered.
//
// Unlike net::RunLoadGenerator it never blocks on a missing reply, reports
// how late the sender ran, and keeps wall-clock ns (no rescaling into
// simulated time).
#pragma once

#include <cstdint>
#include <vector>

#include "net/protocol.h"
#include "telemetry/stages.h"

namespace perfbench {

struct LoadItem {
  std::int64_t due_ns = 0;  ///< offset from the step's start (wall ns)
  std::uint32_t length = 0;
  std::uint32_t decode_len = 0;
};

/// Connections a step sends over; one sender thread plus one receiver
/// thread per connection stay under the host's 4 cores.
inline constexpr int kConnections = 2;

struct LoadConfig {
  std::uint16_t port = 0;
  /// Wall ns after the last due time before open requests are abandoned.
  std::int64_t drain_ns = 500'000'000;
  bool trace = false;  ///< set kSubmitFlagTrace on every request
  /// Base of the wire ids of this step (ids are base + index), so ids stay
  /// unique across the steps of one run.
  std::uint64_t id_base = 1;
};

struct LoadResult {
  struct PerRequest {
    std::int64_t due_ns = 0;    ///< step-relative
    std::int64_t sent_ns = -1;  ///< step-relative; -1 = never sent
    std::int64_t reply_ns = -1; ///< step-relative; -1 = unanswered
    int replies = 0;            ///< replies seen with this id (must be <= 1)
    arlo::net::ReplyStatus status = arlo::net::ReplyStatus::kError;
    std::int64_t queue_ns = 0;    ///< node-reported, simulated ns
    std::int64_t service_ns = 0;  ///< node-reported, simulated ns
    std::vector<arlo::telemetry::StageSpan> annex;
  };
  std::vector<PerRequest> requests;
  std::int64_t start_ns = 0;  ///< steady-clock ns of the step's time zero
  std::uint64_t id_base = 0;  ///< wire id of requests[0]
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;    ///< answered with a non-ok status
  std::uint64_t unanswered = 0;  ///< sent, no reply by the drain deadline
  std::uint64_t duplicate_replies = 0;
  std::uint64_t unknown_replies = 0;  ///< ids outside this step
  std::int64_t sender_cpu_ns = 0;     ///< CPU of the generator's threads
};

/// Steady-clock ns.
std::int64_t NowNs();

/// Sleeps until steady-clock `deadline_ns`, spinning the last 100 us.
void SleepUntil(std::int64_t deadline_ns);

/// CPU ns of the calling thread.
std::int64_t ThreadCpuNs();

/// Runs one open-loop step: connects, sends `items` at start + due, waits
/// for replies until the last due time + drain, and returns every
/// request's fate.  Never blocks past the drain deadline.
LoadResult RunOpenLoop(const std::vector<LoadItem>& items,
                       const LoadConfig& config);

}  // namespace perfbench
