// Small string helpers shared across modules (CSV parsing, CLI args, report
// formatting). Kept header-light: declarations only.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace megh {

/// Split on a single delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Parse a double, throwing IoError with context on failure or overflow.
/// "nan" and "inf" parse; callers that need finite values check.
double parse_double(std::string_view s, std::string_view context);

/// Parse an integer, throwing IoError with context on failure or when the
/// value does not fit in a long long.
long long parse_int(std::string_view s, std::string_view context);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-width, human-friendly number formatting used in report tables.
std::string format_count(double v);

}  // namespace megh
