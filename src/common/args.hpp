// Tiny CLI argument parser for the bench and example binaries.
//
// Supported syntax: `--name value`, `--name=value`, and boolean flags
// `--name`. Unknown flags raise ConfigError so typos fail loudly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace megh {

class Args {
 public:
  /// Declare a flag before parsing; `help` is shown by usage().
  void add_flag(const std::string& name, const std::string& help,
                const std::string& default_value = "");
  void add_bool(const std::string& name, const std::string& help);

  /// Parse argv; throws ConfigError on unknown flags or missing values.
  /// Returns false (after printing usage) if --help was requested.
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  double get_double(const std::string& name) const;
  long long get_int(const std::string& name) const;
  /// get_int narrowed to int; throws ConfigError when out of int range.
  int get_int32(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  bool is_set(const std::string& name) const;

  std::string usage(const std::string& program) const;

 private:
  struct Spec {
    std::string help;
    std::string default_value;
    bool boolean = false;
  };
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
};

}  // namespace megh
