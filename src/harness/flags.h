// One flag registry for every binary in the repo.
//
// faastcc_sim, tcc_fuzz, tcc_sweep and the bench binaries used to each
// hand-roll a strncmp loop, which meant three different spellings of the
// same option and no unknown-flag detection.  Flags gives them typed
// registration, generated usage text, and uniform errors:
//
//   harness::Flags flags("tcc_fuzz", "deterministic consistency fuzzer");
//   uint64_t seeds = 20;
//   flags.u64("seeds", "seeds per config", &seeds);
//   if (!flags.parse(argc, argv)) { ... flags.error() ... }
//
// Accepted syntax: --name=value for valued flags, --name for booleans
// (--name=true/false also works).  Unknown flags, missing values and
// unparsable values are errors, never silently ignored.  --help is
// registered automatically.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace faastcc::harness {

class Flags {
 public:
  Flags(std::string prog, std::string description);

  // Each registration binds a flag to an out pointer holding its default.
  // The help text shows the default value captured at registration time.
  void boolean(std::string_view name, std::string_view help, bool* out);
  void integer(std::string_view name, std::string_view help, int* out);
  void u64(std::string_view name, std::string_view help, uint64_t* out);
  void real(std::string_view name, std::string_view help, double* out);
  void str(std::string_view name, std::string_view help, std::string* out);
  // Escape hatch for structured values (--set=group.key=value, CSV
  // lists).  The callback returns false to reject the value; repeatable
  // flags simply accumulate in the callback.  `value_name` appears in the
  // usage text as --name=<value_name>; an empty one makes the value
  // optional, and a bare --name passes "".
  void custom(std::string_view name, std::string_view value_name,
              std::string_view help,
              std::function<bool(const std::string&)> parse);

  // Parses argv.  On failure returns false with error() set; at most one
  // error is reported per parse.  --help sets help_requested() and returns
  // true without touching any out pointers after it.
  bool parse(int argc, char** argv);

  const std::string& error() const { return error_; }
  bool help_requested() const { return help_requested_; }

  // Generated usage text: one line per flag, registration order.
  std::string usage() const;

  // Splits a comma-separated list; empty input gives an empty vector.
  static std::vector<std::string> split_csv(std::string_view csv);

 private:
  struct Flag {
    std::string name;
    std::string value_name;  // empty: the value is optional (booleans)
    std::string help;
    std::string default_text;
    std::function<bool(const std::string&)> apply;
  };

  void add(Flag flag);
  const Flag* find(std::string_view name) const;

  std::string prog_;
  std::string description_;
  std::vector<Flag> flags_;
  std::string error_;
  bool help_requested_ = false;
};

}  // namespace faastcc::harness
