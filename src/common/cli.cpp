#include "common/cli.h"

#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace arlo {
namespace {

/// "--a, --b, --c" from a sorted key list.
std::string JoinFlags(const std::vector<std::string>& keys) {
  std::string out;
  for (const auto& key : keys) {
    if (!out.empty()) out += ", ";
    out += "--" + key;
  }
  return out;
}

/// Parses the whole of `value` with `parse` (std::stoll, std::stod),
/// naming the flag when it is not a `kind`.
template <typename Parse>
auto ParseFlagValue(const std::string& key, const std::string& value,
                    const char* kind, Parse parse) {
  std::size_t used = 0;
  try {
    const auto parsed = parse(value, &used);
    if (used == value.size()) return parsed;
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
  }
  throw std::invalid_argument("bad --" + key + " value '" + value +
                              "' (want " + kind + ")");
}

}  // namespace

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " +
                                  std::string(arg));
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = "true";
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

bool CliFlags::Has(const std::string& key) const {
  queried_.insert(key);
  return values_.count(key) > 0;
}

std::string CliFlags::GetString(const std::string& key,
                                const std::string& fallback) const {
  queried_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long long CliFlags::GetInt(const std::string& key, long long fallback) const {
  queried_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return ParseFlagValue(key, it->second, "an integer",
                        [](const std::string& v, std::size_t* used) {
                          return std::stoll(v, used);
                        });
}

double CliFlags::GetDouble(const std::string& key, double fallback) const {
  queried_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return ParseFlagValue(key, it->second, "a number",
                        [](const std::string& v, std::size_t* used) {
                          return std::stod(v, used);
                        });
}

bool CliFlags::GetBool(const std::string& key, bool fallback) const {
  queried_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

void CliFlags::RejectUnknown(
    std::initializer_list<const char*> extra_known) const {
  std::set<std::string> known = queried_;
  for (const char* k : extra_known) known.insert(k);
  if (values_.count("help") > 0) {
    known.erase("help");
    const std::vector<std::string> valid(known.begin(), known.end());
    throw CliHelpRequested("valid flags: " + JoinFlags(valid) + ", --help\n");
  }
  // Both lists are sorted explicitly: the message is part of the contract
  // (golden-tested), independent of the container types above.
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    if (known.count(key) == 0) unknown.push_back(key);
  }
  if (unknown.empty()) return;
  std::sort(unknown.begin(), unknown.end());
  std::vector<std::string> valid(known.begin(), known.end());
  std::sort(valid.begin(), valid.end());
  throw std::invalid_argument("unknown flag(s): " + JoinFlags(unknown) +
                              " (valid flags: " + JoinFlags(valid) + ")");
}

int CliExitStatus() {
  try {
    throw;
  } catch (const CliHelpRequested& help) {
    std::cout << help.what();
    return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::out_of_range& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

unsigned ParseTraceSample(const std::string& spec) {
  if (spec == "off" || spec == "0") return 0;
  std::string denom = spec;
  if (spec.rfind("1/", 0) == 0) denom = spec.substr(2);
  std::size_t used = 0;
  unsigned long n = 0;
  try {
    n = std::stoul(denom, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != denom.size() || n == 0 || n > 0xffffffffUL) {
    throw std::invalid_argument("bad --trace-sample '" + spec +
                                "' (want off, 1, 1/N, or N)");
  }
  return static_cast<unsigned>(n);
}

}  // namespace arlo
