// Outside-in probes of the program's layers: a timing wrapper around
// sim::Scheme (the `core` layer) and the sim::ClusterOps it is handed, and
// /proc readers for the CPU and memory of the processes under test.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <string>
#include <vector>

#include "sim/scheme.h"

namespace perfbench {

/// One timed SelectInstance call.
struct SchemeCall {
  arlo::RequestId request = 0;
  std::int64_t start_ns = 0;  ///< steady clock
  std::int64_t dur_ns = 0;
  bool buffered = false;  ///< returned no instance
};

/// Forwards every call to `inner` and times the ones into `core`: request
/// selection and the periodic tick, plus counts of the instances the scheme
/// launches and retires through the ClusterOps it is handed.  Callers
/// serialize scheme calls (the engine is single-threaded; the testbed holds
/// its dispatch mutex), so the counters need no lock; read them after the
/// run.
class TimedScheme final : public arlo::sim::Scheme {
 public:
  /// Selects kept in the per-call log for the Chrome trace; the counters
  /// and the select-time samples cover every call.
  static constexpr std::size_t kMaxCalls = 20000;

  explicit TimedScheme(std::unique_ptr<arlo::sim::Scheme> inner);

  std::string Name() const override;
  void Setup(arlo::sim::ClusterOps& cluster) override;
  arlo::InstanceId SelectInstance(const arlo::Request& request,
                                  arlo::sim::ClusterOps& cluster) override;
  void OnDispatched(const arlo::Request& request,
                    arlo::InstanceId instance) override;
  void OnComplete(const arlo::RequestRecord& record,
                  arlo::sim::ClusterOps& cluster) override;
  void OnInstanceReady(arlo::InstanceId instance,
                       arlo::RuntimeId runtime) override;
  void OnInstanceRetired(arlo::InstanceId instance) override;
  void OnInstanceFailure(arlo::InstanceId instance,
                         arlo::sim::ClusterOps& cluster) override;
  void OnTick(arlo::SimTime now, arlo::sim::ClusterOps& cluster) override;
  bool ApplyExternalAllocation(const std::vector<int>& allocation,
                               arlo::sim::ClusterOps& cluster) override;
  arlo::SimDuration TickInterval() const override;
  void WriteStatusJson(std::ostream& os, arlo::SimTime now) const override;

  std::uint64_t select_calls = 0;
  std::uint64_t buffered = 0;
  std::uint64_t launches = 0;
  std::uint64_t retires = 0;
  std::vector<double> select_ns;  ///< every SelectInstance duration
  std::vector<double> tick_ms;    ///< every OnTick duration
  std::vector<SchemeCall> calls;  ///< first kMaxCalls selects

 private:
  class CountingOps;
  std::unique_ptr<arlo::sim::Scheme> inner_;
};

/// CPU seconds (user + system) consumed so far by process `pid`, or by
/// this process when pid is 0.
double ProcessCpuSeconds(pid_t pid = 0);

/// Peak resident set (VmHWM) of process `pid` (0 = this one), in MB.
double PeakRssMb(pid_t pid = 0);

/// Samples `gauge` every millisecond on its own thread and keeps the peak.
class PeakSampler {
 public:
  explicit PeakSampler(std::function<int()> gauge);
  ~PeakSampler();
  PeakSampler(const PeakSampler&) = delete;
  PeakSampler& operator=(const PeakSampler&) = delete;
  int Peak() const { return peak_.load(); }

 private:
  std::function<int()> gauge_;
  std::atomic<int> peak_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A child process whose stdout is readable line by line.  The destructor
/// interrupts it (SIGINT, then SIGKILL after a grace period) and reaps it.
class ChildProcess {
 public:
  explicit ChildProcess(const std::vector<std::string>& argv);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t Pid() const { return pid_; }
  /// Reads stdout until a line containing `needle` appears; returns that
  /// line.  Throws when the child exits or `timeout_ms` passes first.
  std::string WaitForLine(const std::string& needle, int timeout_ms);
  /// SIGINT, wait up to `grace_ms`, then SIGKILL; reaps the child.
  void Stop(int grace_ms = 3000);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
