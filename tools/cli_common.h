// Minimal flag parsing shared by the command-line tools. Flags take the
// form --name=value (or bare --name for booleans); unknown flags are an
// error so typos never pass silently.
#pragma once

#include <initializer_list>
#include <map>
#include <memory>
#include <string>

#include "obs/manifest.h"

namespace piggyweb::tools {

class FlagSet {
 public:
  explicit FlagSet(std::string program_summary)
      : summary_(std::move(program_summary)) {}

  // Registration (call before parse()).
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  void add_bool(const std::string& name, bool default_value,
                const std::string& help);

  // Parse argv; returns false (and prints usage + error) on bad input or
  // when --help was requested.
  bool parse(int argc, char** argv);

  std::string get_string(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  // Domain checks after parse(): each prints "--name must be ..." on
  // stderr and returns false at the first named flag out of range, so a
  // tool can exit 2 instead of aborting or wrapping downstream.
  bool require_at_least(std::initializer_list<const char*> names,
                        std::int64_t min) const;
  bool require_at_most(std::initializer_list<const char*> names,
                       std::int64_t max) const;
  bool require_unit_interval(std::initializer_list<const char*> names) const;

  void print_usage(const char* argv0) const;

 private:
  enum class Type { kString, kDouble, kInt, kBool };
  struct Flag {
    Type type;
    std::string value;  // canonical text form
    std::string help;
    std::string default_text;
  };
  const Flag* find(const std::string& name, Type type) const;

  std::string summary_;
  std::map<std::string, Flag> flags_;
};

// Register the shared observability flags (--metrics-out=FILE,
// --trace-out=FILE) on a tool's flag set; call before parse().
void add_observability_flags(FlagSet& flags);

// Build the per-run observability scope from parsed flags: null when both
// flags are empty (global sinks stay null), otherwise a live RunScope that
// writes the manifest/trace when destroyed. Declare first in main() so it
// outlives everything instrumented.
std::unique_ptr<obs::RunScope> make_run_scope(const FlagSet& flags,
                                              std::string run_name,
                                              int argc, char** argv);

}  // namespace piggyweb::tools
