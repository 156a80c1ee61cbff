#include "loadgen.h"

#include <atomic>
#include <chrono>
#include <ctime>
#include <memory>
#include <thread>

#include "net/client.h"

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(std::int64_t deadline_ns) {
  constexpr std::int64_t kSpinNs = 100'000;
  for (;;) {
    const std::int64_t left = deadline_ns - NowNs();
    if (left <= 0) return;
    if (left > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    }
  }
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

LoadResult RunOpenLoop(const std::vector<LoadItem>& items,
                       const LoadConfig& config) {
  LoadResult result;
  result.requests.resize(items.size());

  std::vector<std::unique_ptr<arlo::net::ClientConnection>> connections;
  for (int c = 0; c < kConnections; ++c) {
    connections.push_back(
        std::make_unique<arlo::net::ClientConnection>(config.port));
  }

  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::int64_t> cpu_ns{0};
  std::vector<std::uint64_t> duplicates(static_cast<std::size_t>(kConnections), 0);
  std::vector<std::uint64_t> unknown(static_cast<std::size_t>(kConnections), 0);

  // Time zero leaves the connects and thread spawns behind us.
  const std::int64_t start = NowNs() + 5'000'000;
  result.start_ns = start;
  result.id_base = config.id_base;

  std::vector<std::thread> receivers;
  for (int c = 0; c < kConnections; ++c) {
    receivers.emplace_back([&, c] {
      const std::int64_t cpu0 = ThreadCpuNs();
      arlo::net::Reply reply;
      const auto idx = static_cast<std::size_t>(c);
      try {
        while (connections[idx]->Receive(reply)) {
          const std::int64_t now = NowNs() - start;
          if (reply.id < config.id_base ||
              reply.id - config.id_base >= items.size()) {
            ++unknown[idx];
            continue;
          }
          LoadResult::PerRequest& r =
              result.requests[reply.id - config.id_base];
          if (++r.replies > 1) {
            ++duplicates[idx];
            continue;
          }
          r.reply_ns = now;
          r.status = reply.status;
          r.queue_ns = reply.queue_ns;
          r.service_ns = reply.service_ns;
          r.annex = std::move(reply.annex);
          answered.fetch_add(1, std::memory_order_release);
        }
      } catch (const std::exception&) {
        // Shutdown at the drain deadline, or a broken peer: either way the
        // open requests are counted as unanswered below.
      }
      cpu_ns.fetch_add(ThreadCpuNs() - cpu0);
    });
  }

  std::thread sender([&] {
    const std::int64_t cpu0 = ThreadCpuNs();
    arlo::net::SubmitRequest submit;
    submit.flags = config.trace ? arlo::net::kSubmitFlagTrace : 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      LoadResult::PerRequest& r = result.requests[i];
      r.due_ns = items[i].due_ns;
      SleepUntil(start + items[i].due_ns);
      submit.id = config.id_base + i;
      submit.length = items[i].length;
      submit.decode_len = items[i].decode_len;
      try {
        connections[i % static_cast<std::size_t>(kConnections)]->Send(submit);
      } catch (const std::exception&) {
        continue;  // never sent: counted as failed
      }
      r.sent_ns = NowNs() - start;
      sent.fetch_add(1, std::memory_order_release);
    }
    cpu_ns.fetch_add(ThreadCpuNs() - cpu0);
  });
  sender.join();

  const std::int64_t last_due = items.empty() ? 0 : items.back().due_ns;
  const std::int64_t deadline = start + last_due + config.drain_ns;
  while (answered.load(std::memory_order_acquire) <
             sent.load(std::memory_order_acquire) &&
         NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  for (auto& conn : connections) conn->Shutdown();
  for (auto& t : receivers) t.join();

  for (const LoadResult::PerRequest& r : result.requests) {
    if (r.sent_ns < 0) continue;
    ++result.sent;
    if (r.reply_ns < 0) {
      ++result.unanswered;
    } else if (r.status == arlo::net::ReplyStatus::kOk) {
      ++result.ok;
    } else {
      ++result.rejected;
    }
  }
  for (int c = 0; c < kConnections; ++c) {
    const auto idx = static_cast<std::size_t>(c);
    result.duplicate_replies += duplicates[idx];
    result.unknown_replies += unknown[idx];
  }
  result.sender_cpu_ns = cpu_ns.load();
  return result;
}

}  // namespace perfbench
