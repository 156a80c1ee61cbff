// perfbench: runs one workload of the repository benchmark and prints its
// metrics, correctness checks and provenance.  perfbench/run.py builds this
// binary, passes the calibrated ladder from perfbench/calibration.json and
// turns the machine line into the benchmark's result line.
//
//   perfbench --workload=direct-stable --seed=1 --seconds=36 --trace=0
//             --ladder=390,730,880 --limit-ms=75 --speed=2
//             --warmup-s=2 --settle-s=1 --repeats=3 --bin-dir=DIR --out-dir=DIR
#include <unistd.h>

#include <iostream>
#include <sstream>

#include "common/cli.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

std::vector<double> ParseList(const std::string& spec) {
  std::vector<double> out;
  std::stringstream ss(spec);
  std::string field;
  while (std::getline(ss, field, ',')) {
    if (!field.empty()) out.push_back(std::stod(field));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const arlo::CliFlags flags(argc, argv);
    RunOptions options;
    options.workload = flags.GetString("workload", "");
    options.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
    options.seconds = flags.GetDouble("seconds", 20.0);
    options.trace = flags.GetInt("trace", 0) != 0;
    options.bin_dir = flags.GetString("bin-dir", ".");
    options.out_dir = flags.GetString("out-dir", ".");
    options.ladder = ParseList(flags.GetString("ladder", ""));
    options.limits.latency_ms = flags.GetDouble("limit-ms", 0.0);
    options.limits.itl_ms = flags.GetDouble("itl-limit-ms", 0.0);
    options.speed = flags.GetDouble("speed", 1.0);
    options.warmup_s = flags.GetDouble("warmup-s", 0.0);
    options.settle_s = flags.GetDouble("settle-s", 0.0);
    options.repeats = static_cast<int>(flags.GetInt("repeats", 1));
    options.deploy_rps = flags.GetDouble("deploy-rps", 0.0);
    flags.RejectUnknown();
    if (options.ladder.size() < 2 || options.limits.latency_ms <= 0.0 ||
        options.speed <= 0.0 || options.repeats < 1 ||
        SegmentTiming(options, options.ladder.back()).measured_s <= 0.0) {
      throw std::invalid_argument(
          "need --ladder (light,heavy,...), --limit-ms, --speed > 0, --repeats "
          ">= 1 and --seconds long enough for the warm-up and every settle period");
    }

    Report report;
    report.Info("workload", options.workload);
    report.Info("seed", std::to_string(options.seed));
    report.Info("trace", options.trace ? "1" : "0");
    report.Info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
    report.Info("build_type", PERFBENCH_BUILD_TYPE);
    report.Info("compiler", __VERSION__);
    if (options.workload == "direct-stable") {
      RunDirectStable(options, report);
    } else if (options.workload == "gen-mixed") {
      RunGenMixed(options, report);
    } else if (options.workload == "sim-fig10") {
      RunSimFig10(options, report);
    } else {
      throw std::invalid_argument("unknown --workload '" + options.workload + "'");
    }
    report.Print(std::cout);
    return report.AllChecksPass() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
