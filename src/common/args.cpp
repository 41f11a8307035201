#include "common/args.hpp"

#include <cstdio>
#include <limits>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace megh {

void Args::add_flag(const std::string& name, const std::string& help,
                    const std::string& default_value) {
  specs_[name] = Spec{help, default_value, /*boolean=*/false};
}

void Args::add_bool(const std::string& name, const std::string& help) {
  specs_[name] = Spec{help, "0", /*boolean=*/true};
}

bool Args::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      std::printf("%s", usage(argv[0]).c_str());
      return false;
    }
    if (!starts_with(token, "--")) {
      throw ConfigError("unexpected positional argument: " + token);
    }
    token = token.substr(2);
    std::string name = token;
    std::optional<std::string> value;
    if (const auto eq = token.find('='); eq != std::string::npos) {
      name = token.substr(0, eq);
      value = token.substr(eq + 1);
    }
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      throw ConfigError("unknown flag --" + name + "\n" + usage(argv[0]));
    }
    if (it->second.boolean) {
      values_[name] = value.value_or("1");
    } else if (value.has_value()) {
      values_[name] = *value;
    } else {
      if (i + 1 >= argc) {
        throw ConfigError("flag --" + name + " expects a value");
      }
      values_[name] = argv[++i];
    }
  }
  return true;
}

std::string Args::get(const std::string& name) const {
  const auto it = specs_.find(name);
  MEGH_ASSERT(it != specs_.end(), "flag not declared: " + name);
  const auto vit = values_.find(name);
  return vit != values_.end() ? vit->second : it->second.default_value;
}

double Args::get_double(const std::string& name) const {
  return parse_double(get(name), "flag --" + name);
}

long long Args::get_int(const std::string& name) const {
  return parse_int(get(name), "flag --" + name);
}

int Args::get_int32(const std::string& name) const {
  const long long v = get_int(name);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw ConfigError("flag --" + name + " value " + std::to_string(v) +
                      " is out of the int range");
  }
  return static_cast<int>(v);
}

bool Args::get_bool(const std::string& name) const {
  const std::string v = get(name);
  return v == "1" || v == "true" || v == "yes";
}

bool Args::is_set(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Args::usage(const std::string& program) const {
  std::string out = "usage: " + program + " [flags]\n";
  for (const auto& [name, spec] : specs_) {
    out += "  --" + name;
    if (!spec.boolean) out += " <value>";
    out += "  " + spec.help;
    if (!spec.default_value.empty() && !spec.boolean) {
      out += " (default: " + spec.default_value + ")";
    }
    out += "\n";
  }
  return out;
}

}  // namespace megh
