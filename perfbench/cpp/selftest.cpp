// Unit tests of the benchmark's own logic: percentile selection and sample
// counts, the step verdict and goodput selection, and due-time accounting
// of the open-loop generator against a deliberately stalled server.
//
//   python3 perfbench/run.py --selftest    (or .bench_build/perfbench_selftest)
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <thread>

#include "common.h"
#include "loadgen.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "stats.h"

using namespace perfbench;

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: FAILED: %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const Pct p50 = Percentile(v, 0.50);
  const Pct p99 = Percentile(v, 0.99);
  EXPECT(p50.value == 50 && p50.n == 100 && p50.ok);
  EXPECT(p99.value == 99 && p99.n == 100);
  EXPECT(!p99.ok);  // one sample beyond p99, ten needed
  EXPECT(MinSamplesFor(0.99) == 1000);
  EXPECT(MinSamplesFor(0.95) == 200);
  std::vector<double> big(1000, 1.0);
  big[999] = 7.0;
  EXPECT(Percentile(big, 0.99).ok);
  EXPECT(Percentile(big, 0.99).value == 1.0);
  EXPECT(Percentile(big, 1.0).value == 7.0);
  const Pct empty = Percentile({}, 0.5);
  EXPECT(empty.n == 0 && !empty.ok);
  EXPECT(Percentile({3.0}, 0.99).value == 3.0);
}

/// `n` requests due every `gap_ns`, each answered `latency_ns` after due.
std::vector<Outcome> Steady(int n, std::int64_t gap_ns, std::int64_t latency_ns) {
  std::vector<Outcome> out;
  for (int i = 0; i < n; ++i) {
    Outcome o;
    o.due_ns = i * gap_ns;
    o.sent = o.answered = o.ok = true;
    o.first_ns = o.done_ns = o.due_ns + latency_ns;
    out.push_back(o);
  }
  return out;
}

void TestStepVerdicts() {
  const Limits limits{10.0, 0.0};  // 10 ms
  const std::int64_t step_ns = 1'000'000'000;
  // 1000 requests over 1 s, 2 ms each: passes.
  StepVerdict v = JudgeStep(Steady(1000, 1'000'000, 2'000'000), step_ns, limits);
  EXPECT(v.passes && v.met == 1000 && v.failed == 0 && !v.backlog_grows);

  // 2% unanswered: the fast rest cannot make up for them.
  std::vector<Outcome> lossy = Steady(1000, 1'000'000, 2'000'000);
  for (int i = 0; i < 20; ++i) lossy[static_cast<std::size_t>(i * 50)].answered = false;
  for (int i = 0; i < 20; ++i) lossy[static_cast<std::size_t>(i * 50)].ok = false;
  v = JudgeStep(lossy, step_ns, limits);
  EXPECT(!v.passes && v.failed == 20 && v.met == 980);

  // Rejections count as misses too.
  std::vector<Outcome> rejected = Steady(1000, 1'000'000, 2'000'000);
  for (int i = 0; i < 11; ++i) rejected[static_cast<std::size_t>(i)].ok = false;
  EXPECT(!JudgeStep(rejected, step_ns, limits).passes);

  // 1% slow is still >= 99% met.
  std::vector<Outcome> slow = Steady(1000, 1'000'000, 2'000'000);
  for (int i = 0; i < 10; ++i) slow[static_cast<std::size_t>(i)].first_ns += 50'000'000;
  EXPECT(JudgeStep(slow, step_ns, limits).passes);

  // A server that completes one request per 1.2 ms while they arrive every
  // 1 ms: every request meets a 500 ms limit within the step, but the queue
  // keeps growing — the backlog test fails the step.
  std::vector<Outcome> backlog = Steady(1000, 1'000'000, 0);
  std::int64_t server_free = 0;
  for (Outcome& o : backlog) {
    server_free = std::max(server_free, o.due_ns) + 1'200'000;
    o.first_ns = o.done_ns = server_free;
  }
  v = JudgeStep(backlog, step_ns, Limits{500.0, 0.0});
  EXPECT(v.met == 1000);
  EXPECT(v.backlog_grows && !v.passes);
  EXPECT(v.backlog_last > v.backlog_first + 50);
  // The same server keeping up (0.9 ms per request) passes.
  server_free = 0;
  for (Outcome& o : backlog) {
    server_free = std::max(server_free, o.due_ns) + 900'000;
    o.first_ns = o.done_ns = server_free;
  }
  EXPECT(JudgeStep(backlog, step_ns, Limits{500.0, 0.0}).passes);

  // Inter-token limit.
  std::vector<Outcome> gen = Steady(1000, 1'000'000, 2'000'000);
  for (int i = 0; i < 20; ++i) gen[static_cast<std::size_t>(i)].itl_ns = 5'000'000;
  EXPECT(JudgeStep(gen, step_ns, Limits{10.0, 1.0}).met == 980);
  EXPECT(JudgeStep(gen, step_ns, Limits{10.0, 0.0}).met == 1000);
}

/// A ladder step whose segments pass or miss as given.
LadderStep Step(double rate, std::vector<bool> segments) {
  LadderStep step;
  step.rate = rate;
  for (const bool passes : segments) {
    StepRecord s;
    s.verdict.passes = passes;
    step.segments.push_back(s);
  }
  return step;
}

void TestGoodput() {
  // The typical segment decides: half or more passing passes the step.
  EXPECT(Step(1, {true, true, true, false}).Passes());
  EXPECT(Step(1, {true, false}).Passes());
  EXPECT(!Step(1, {true, false, false}).Passes());
  EXPECT(!Step(1, {false}).Passes());
  EXPECT(!Step(1, {}).Passes());

  const LadderStep pass = Step(0, {true});
  const LadderStep miss = Step(0, {false});
  const auto ladder = [](std::vector<std::pair<double, LadderStep>> steps) {
    std::vector<LadderStep> out;
    for (auto& [rate, step] : steps) {
      step.rate = rate;
      out.push_back(step);
    }
    return out;
  };
  EXPECT(Goodput(ladder({{1, pass}, {2, pass}, {3, miss}, {4, pass}})) == 2);
  EXPECT(Goodput(ladder({{1, miss}, {2, pass}})) == 0);
  EXPECT(Goodput(ladder({{1, pass}, {2, pass}, {3, pass}})) == 3);
}

void TestMeans() {
  EXPECT(Mean({1, 2, 3, 6}).value == 3.0);
  EXPECT(!Mean({}).ok);
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Pct tail = TailMean(v, 0.99);  // mean of 991..1000
  EXPECT(tail.value == 995.5 && tail.ok && tail.n == 1000);
  EXPECT(!TailMean({1, 2, 3}, 0.99).ok);
}

/// A server that reads every submit but answers nothing until `stall_ns`
/// after it saw the first one; then it answers everything except ids in
/// `never`, and answers id `dup` twice.
class StalledServer {
 public:
  StalledServer(std::int64_t stall_ns, std::set<std::uint64_t> never,
                std::uint64_t dup)
      : listen_(arlo::net::ListenTcp(0)),
        stall_ns_(stall_ns), never_(std::move(never)), dup_(dup) {
    port_ = arlo::net::LocalPort(listen_.Get());
    acceptor_ = std::thread([this] {
      for (int c = 0; c < 2; ++c) {
        const int fd = accept(listen_.Get(), nullptr, nullptr);
        if (fd < 0) return;
        conns_.emplace_back([this, fd] { Serve(fd); });
      }
    });
  }
  ~StalledServer() {
    acceptor_.join();
    for (auto& t : conns_) t.join();
  }
  std::uint16_t Port() const { return port_; }

 private:
  void Serve(int raw_fd) {
    arlo::net::ScopedFd fd(raw_fd);
    arlo::net::FrameDecoder decoder;
    std::vector<arlo::net::SubmitRequest> held;
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = read(fd.Get(), buf, sizeof(buf));
      if (n <= 0) return;  // the client shut the connection down
      decoder.Feed(buf, static_cast<std::size_t>(n));
      arlo::net::Frame frame;
      while (decoder.Next(frame) == arlo::net::FrameDecoder::Result::kFrame) {
        std::int64_t expected = 0;
        first_ns_.compare_exchange_strong(expected, NowNs());
        held.push_back(frame.submit);
      }
      if (NowNs() - first_ns_.load() < stall_ns_) continue;
      std::vector<std::uint8_t> out;
      for (const auto& s : held) {
        if (never_.count(s.id) != 0) continue;
        arlo::net::Reply reply;
        reply.id = s.id;
        arlo::net::EncodeReply(reply, out);
        if (s.id == dup_) arlo::net::EncodeReply(reply, out);
      }
      held.clear();
      if (!out.empty() && write(fd.Get(), out.data(), out.size()) < 0) return;
    }
  }

  arlo::net::ScopedFd listen_;
  std::uint16_t port_ = 0;
  std::int64_t stall_ns_;
  std::set<std::uint64_t> never_;
  std::uint64_t dup_;
  std::atomic<std::int64_t> first_ns_{0};
  std::thread acceptor_;
  std::vector<std::thread> conns_;
};

void TestDueTimeAccounting() {
  // 40 requests due every 10 ms; the server sits on them for 200 ms.
  std::vector<LoadItem> items;
  for (int i = 0; i < 40; ++i) items.push_back(LoadItem{i * 10'000'000LL, 32, 0});
  LoadConfig config;
  config.id_base = 1;
  config.drain_ns = 300'000'000;
  const std::set<std::uint64_t> never = {5, 17};  // wire ids 5 and 17
  StalledServer server(200'000'000, never, /*dup=*/9);
  config.port = server.Port();
  const std::int64_t t0 = NowNs();
  const LoadResult r = RunOpenLoop(items, config);
  const double elapsed_ms = static_cast<double>(NowNs() - t0) / 1e6;

  EXPECT(r.sent == 40);
  EXPECT(r.unanswered == 2);
  EXPECT(r.ok == 38);
  EXPECT(r.sent == r.ok + r.rejected + r.unanswered);
  EXPECT(r.duplicate_replies == 1);
  // Did not block on the two lost requests past the drain deadline.
  EXPECT(elapsed_ms < 390 + 300 + 200);
  // Latency runs from the due time: the first request waited out the whole
  // stall, and the stall is charged to every request due inside it.
  const auto latency_ms = [&](std::size_t i) {
    return static_cast<double>(r.requests[i].reply_ns - r.requests[i].due_ns) / 1e6;
  };
  EXPECT(r.requests[0].reply_ns >= 0 && latency_ms(0) >= 195.0);
  EXPECT(latency_ms(10) >= 95.0);  // due at 100 ms, answered after 200 ms
  EXPECT(r.requests[4].reply_ns < 0 && r.requests[16].reply_ns < 0);
  // Sent on schedule even though nothing came back.
  for (const auto& q : r.requests) EXPECT(q.sent_ns - q.due_ns < 20'000'000);
}

}  // namespace

int main() {
  TestPercentiles();
  TestStepVerdicts();
  TestGoodput();
  TestMeans();
  TestDueTimeAccounting();
  if (g_failures == 0) std::printf("perfbench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
