#include "probes.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "loadgen.h"

namespace perfbench {

using arlo::InstanceId;
using arlo::Request;
using arlo::RequestRecord;
using arlo::RuntimeId;
using arlo::SimDuration;
using arlo::SimTime;
using arlo::sim::ClusterOps;

/// Forwards to the real ClusterOps, counting launches and retirements.
class TimedScheme::CountingOps final : public ClusterOps {
 public:
  CountingOps(TimedScheme& owner, ClusterOps& real)
      : owner_(owner), real_(real) {}

  InstanceId LaunchInstance(
      RuntimeId runtime,
      std::shared_ptr<const arlo::runtime::CompiledRuntime> rt,
      SimDuration ready_delay) override {
    ++owner_.launches;
    return real_.LaunchInstance(runtime, std::move(rt), ready_delay);
  }
  void RetireInstance(InstanceId id) override {
    ++owner_.retires;
    real_.RetireInstance(id);
  }
  int NumInstances() const override { return real_.NumInstances(); }
  int OutstandingOn(InstanceId id) const override {
    return real_.OutstandingOn(id);
  }
  SimTime Now() const override { return real_.Now(); }

 private:
  TimedScheme& owner_;
  ClusterOps& real_;
};

TimedScheme::TimedScheme(std::unique_ptr<arlo::sim::Scheme> inner)
    : inner_(std::move(inner)) {}

std::string TimedScheme::Name() const { return inner_->Name(); }

void TimedScheme::Setup(ClusterOps& cluster) {
  // SetTelemetry is not virtual: the executor injected its sink into this
  // wrapper, so hand it on before the inner scheme deploys.
  inner_->SetTelemetry(Telemetry());
  CountingOps ops(*this, cluster);
  inner_->Setup(ops);
}

InstanceId TimedScheme::SelectInstance(const Request& request,
                                       ClusterOps& cluster) {
  CountingOps ops(*this, cluster);
  const std::int64_t t0 = NowNs();
  const InstanceId chosen = inner_->SelectInstance(request, ops);
  const std::int64_t dur = NowNs() - t0;
  ++select_calls;
  const bool none = chosen == arlo::kInvalidInstance;
  if (none) ++buffered;
  select_ns.push_back(static_cast<double>(dur));
  if (calls.size() < kMaxCalls) {
    calls.push_back(SchemeCall{request.id, t0, dur, none});
  }
  return chosen;
}

void TimedScheme::OnDispatched(const Request& request, InstanceId instance) {
  inner_->OnDispatched(request, instance);
}

void TimedScheme::OnComplete(const RequestRecord& record,
                             ClusterOps& cluster) {
  CountingOps ops(*this, cluster);
  inner_->OnComplete(record, ops);
}

void TimedScheme::OnInstanceReady(InstanceId instance, RuntimeId runtime) {
  inner_->OnInstanceReady(instance, runtime);
}

void TimedScheme::OnInstanceRetired(InstanceId instance) {
  inner_->OnInstanceRetired(instance);
}

void TimedScheme::OnInstanceFailure(InstanceId instance, ClusterOps& cluster) {
  CountingOps ops(*this, cluster);
  inner_->OnInstanceFailure(instance, ops);
}

void TimedScheme::OnTick(SimTime now, ClusterOps& cluster) {
  CountingOps ops(*this, cluster);
  const std::int64_t t0 = NowNs();
  inner_->OnTick(now, ops);
  tick_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
}

bool TimedScheme::ApplyExternalAllocation(const std::vector<int>& allocation,
                                          ClusterOps& cluster) {
  CountingOps ops(*this, cluster);
  return inner_->ApplyExternalAllocation(allocation, ops);
}

SimDuration TimedScheme::TickInterval() const { return inner_->TickInterval(); }

void TimedScheme::WriteStatusJson(std::ostream& os, SimTime now) const {
  inner_->WriteStatusJson(os, now);
}

namespace {

std::string ProcPath(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

}  // namespace

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in(ProcPath(pid, "stat"));
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall (11th and 12th after the state field).
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i == 12) utime = std::stoull(field);
    if (i == 13) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb(pid_t pid) {
  std::ifstream in(ProcPath(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

PeakSampler::PeakSampler(std::function<int()> gauge)
    : gauge_(std::move(gauge)), thread_([this] {
        while (!stop_.load()) {
          const int v = gauge_();
          if (v > peak_.load()) peak_.store(v);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }) {}

PeakSampler::~PeakSampler() {
  stop_.store(true);
  thread_.join();
}

ChildProcess::ChildProcess(const std::vector<std::string>& argv) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  pid_ = fork();
  if (pid_ < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // A node must not outlive a benchmark that was killed mid-run.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  out_fd_ = fds[0];
}

ChildProcess::~ChildProcess() { Stop(); }

std::string ChildProcess::WaitForLine(const std::string& needle,
                                      int timeout_ms) {
  const std::int64_t deadline = NowNs() + std::int64_t{timeout_ms} * 1'000'000;
  for (;;) {
    std::size_t nl;
    while ((nl = buffer_.find('\n')) != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (line.find(needle) != std::string::npos) return line;
    }
    const std::int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0) throw std::runtime_error("timed out waiting for '" + needle + "'");
    pollfd pfd{out_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) continue;
    char buf[4096];
    const ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n <= 0) throw std::runtime_error("child exited before '" + needle + "'");
    buffer_.append(buf, static_cast<std::size_t>(n));
  }
}

void ChildProcess::Stop(int grace_ms) {
  if (pid_ > 0) {
    kill(pid_, SIGINT);
    const std::int64_t deadline =
        NowNs() + std::int64_t{grace_ms} * 1'000'000;
    int status = 0;
    for (;;) {
      // Keep the pipe drained so a chatty shutdown cannot block the child.
      char buf[4096];
      pollfd pfd{out_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 10) > 0) (void)read(out_fd_, buf, sizeof(buf));
      if (waitpid(pid_, &status, WNOHANG) == pid_) break;
      if (NowNs() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

}  // namespace perfbench
