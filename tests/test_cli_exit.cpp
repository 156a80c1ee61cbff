// The exit contract every CliFlags binary shares (common/cli.h): --help
// prints the valid flags and exits 0; an unknown or malformed flag prints
// the message and exits 2.  Runs two real example binaries.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int status = -1;  ///< exit status, or -1 when the binary did not exit
  std::string out;  ///< stdout and stderr together
};

RunResult RunCommand(const std::string& command) {
  RunResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    result.out.append(buf, n);
  }
  const int raw = pclose(pipe);
  if (raw != -1 && WIFEXITED(raw)) result.status = WEXITSTATUS(raw);
  return result;
}

TEST(CliExit, HelpPrintsTheValidFlagsAndExitsZero) {
  const RunResult r = RunCommand(std::string(ARLO_QUICKSTART_BIN) + " --help");
  EXPECT_EQ(r.status, 0) << r.out;
  EXPECT_NE(r.out.find("valid flags: "), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("--rate"), std::string::npos) << r.out;
}

TEST(CliExit, UnknownFlagPrintsTheMessageAndExitsTwo) {
  const RunResult r =
      RunCommand(std::string(ARLO_LIVE_SERVING_BIN) + " --sedonds=1");
  EXPECT_EQ(r.status, 2) << r.out;
  EXPECT_NE(r.out.find("unknown flag(s): --sedonds (valid flags: "),
            std::string::npos)
      << r.out;
}

TEST(CliExit, MalformedValueNamesTheFlagAndExitsTwo) {
  const RunResult r =
      RunCommand(std::string(ARLO_QUICKSTART_BIN) + " --rate=fast");
  EXPECT_EQ(r.status, 2) << r.out;
  EXPECT_NE(r.out.find("bad --rate value 'fast' (want a number)"),
            std::string::npos)
      << r.out;
}

}  // namespace
