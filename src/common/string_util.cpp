#include "common/string_util.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace megh {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

double parse_double(std::string_view s, std::string_view context) {
  const std::string t{trim(s)};
  if (t.empty()) {
    throw IoError("empty numeric field in " + std::string(context));
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(t.c_str(), &end);
  if (end != t.c_str() + t.size()) {
    throw IoError("cannot parse '" + t + "' as double in " +
                  std::string(context));
  }
  // ERANGE also flags underflow, whose result (zero or subnormal) is the
  // nearest double; only overflow to ±HUGE_VAL loses the value.
  if (errno == ERANGE && std::isinf(v)) {
    throw IoError("'" + t + "' overflows a double in " +
                  std::string(context));
  }
  return v;
}

long long parse_int(std::string_view s, std::string_view context) {
  const std::string t{trim(s)};
  if (t.empty()) {
    throw IoError("empty integer field in " + std::string(context));
  }
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(t.c_str(), &end, 10);
  if (end != t.c_str() + t.size()) {
    throw IoError("cannot parse '" + t + "' as integer in " +
                  std::string(context));
  }
  if (errno == ERANGE) {
    throw IoError("'" + t + "' is out of the 64-bit integer range in " +
                  std::string(context));
  }
  return v;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string format_count(double v) {
  if (std::abs(v) >= 1e6) return strf("%.2fM", v / 1e6);
  if (std::abs(v) >= 1e4) return strf("%.1fk", v / 1e3);
  if (std::abs(v) == std::floor(std::abs(v))) return strf("%.0f", v);
  return strf("%.2f", v);
}

}  // namespace megh
