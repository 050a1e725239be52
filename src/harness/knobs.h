// The RunSpec knob table: every tunable RunSpec member with its FEDTINY_*
// environment variable and/or fedtiny_cli flag, a strict value parser, and
// the values the member accepts. It is the single list of knobs:
// with_env_knobs, fedtiny_cli's argv parsing, --help and effective-config
// line, and Experiment::run's range checks all loop over it.
//
// One rule holds for every knob:
//   - explicit values win: an environment variable fills a member only while
//     the member still equals its RunSpec{} default;
//   - an explicit value (a RunSpec field or a CLI flag) that is malformed or
//     out of range is an error (std::invalid_argument);
//   - a malformed or out-of-range ambient environment value warns once on
//     stderr and is ignored.
// A member's RunSpec{} default is always accepted, even where the range
// excludes it (0 often means "keep the engine's default").
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <variant>

#include "harness/experiment.h"

namespace fedtiny::harness {

/// The RunSpec member a knob sets.
using KnobField = std::variant<bool*, int*, int64_t*, uint64_t*, float*, double*, std::string*>;

/// The values a knob accepts besides its default.
struct KnobCheck {
  bool (*in_range)(double) = nullptr;                // numeric knobs; nullptr: any finite value
  void (*parse_name)(const std::string&) = nullptr;  // string knobs: the owning strict parser
  const char* valid = nullptr;                       // the accepted values, for messages and help
};

struct Knob {
  const char* member;  // RunSpec member as spelled in code, e.g. "sim.dropout"
  KnobField (*field)(RunSpec&);
  const char* env;   // FEDTINY_* variable, or nullptr (CLI only)
  const char* flag;  // fedtiny_cli flag, or nullptr (environment only)
  const char* help;
  KnobCheck check = {};

  /// Parse `text` strictly into this member of `spec`. Throws
  /// std::invalid_argument (leaving `spec` untouched) when the text is
  /// malformed or the value is not accepted.
  void set(RunSpec& spec, const char* text) const;
  [[nodiscard]] bool is_default(const RunSpec& spec) const;
  [[nodiscard]] std::string value(const RunSpec& spec) const;
  /// Boolean knobs are bare flags on the command line.
  [[nodiscard]] bool takes_value() const;
};

[[nodiscard]] std::span<const Knob> knobs();

/// Throws std::invalid_argument naming the first member whose value is not
/// accepted.
void validate_knobs(const RunSpec& spec);

/// If argv[i] is a knob flag, apply it to `spec` (consuming its value, so `i`
/// advances past it) and return true; return false for any other argument.
/// Throws std::invalid_argument on a missing, malformed or rejected value.
bool consume_flag(RunSpec& spec, int argc, const char* const* argv, int& i);

/// One line per knob: flag (or variable, for environment-only knobs), help,
/// accepted values, default and environment variable.
void print_knob_help(std::FILE* out);

/// "member=value" for every knob that differs from its RunSpec{} default,
/// space-separated; empty when every knob is at its default.
[[nodiscard]] std::string describe_knobs(const RunSpec& spec);

/// The ambient-environment diagnostic: prints "NAME=VALUE ignored: why" on
/// stderr once per (NAME, VALUE) per process.
void warn_ambient(const char* name, const char* value, const std::string& why);

}  // namespace fedtiny::harness
