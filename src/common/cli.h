// Minimal --key=value flag parser for examples and bench harness binaries.
// Every bench must run with zero arguments (default reduced scale) and also
// accept overrides like --scale=paper, --gpus=90, --seed=7.
//
// Unknown-flag rejection: each Has/Get* call registers its key as known;
// after a binary has declared all its flags that way, it calls
// RejectUnknown() and any parsed flag that was never queried fails loudly.
// This is what keeps a misspelled --metrics-out from silently running a
// whole experiment with telemetry discarded.
//
// Exit contract shared by every binary: --help prints the valid flags and
// exits 0; an unknown or malformed flag prints the message and exits 2.
// Binaries get it by wrapping main in a function-try-block:
//
//   int main(int argc, char** argv) try {
//     const CliFlags flags(argc, argv);
//     ...
//   } catch (...) {
//     return arlo::CliExitStatus();
//   }
#pragma once

#include <initializer_list>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

namespace arlo {

/// Parses argv of the form "--key=value" or bare "--flag" (value "true").
/// Unknown positional arguments raise std::invalid_argument so typos in a
/// bench invocation fail loudly instead of silently running defaults.
class CliFlags {
 public:
  CliFlags(int argc, const char* const* argv);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  long long GetInt(const std::string& key, long long fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Throws std::invalid_argument naming any flag that was passed on the
  /// command line but never queried via Has/Get* (and is not listed in
  /// `extra_known`).  Call after all flags have been read — typically the
  /// last line of a binary's flag-parsing block.  Both the unknown and the
  /// valid flag lists in the message are sorted lexicographically — the
  /// exact text is deterministic and golden-tested.  With --help on the
  /// command line it throws CliHelpRequested instead, listing the valid
  /// flags.
  void RejectUnknown(std::initializer_list<const char*> extra_known = {}) const;

 private:
  std::map<std::string, std::string> values_;
  /// Keys the binary has asked about: the de-facto schema.  Mutable because
  /// reading a flag is logically const.
  mutable std::set<std::string> queried_;
};

/// Thrown by CliFlags::RejectUnknown for --help; what() is the usage text.
class CliHelpRequested : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Maps the exception in flight to a binary's exit status; call it only
/// from a catch handler (see the exit contract at the top).  --help prints
/// its usage text to stdout and gives 0; std::invalid_argument and
/// std::out_of_range (an unknown or malformed flag) print the message to
/// stderr and give 2.  Any other exception is rethrown.
int CliExitStatus();

/// Parses a --trace-sample value into a sampling denominator for
/// telemetry::TraceSampled: "off" or "0" disables (returns 0), "1" traces
/// every request, and "1/N" (or a bare "N") selects one request in N by
/// request-id hash.  Throws std::invalid_argument on anything else.
unsigned ParseTraceSample(const std::string& spec);

}  // namespace arlo
