#include "common/strings.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace simty {

std::string str_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), static_cast<std::size_t>(needed) + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' || s[e - 1] == '\r')) --e;
  return s.substr(b, e - b);
}

std::optional<double> parse_double(const std::string& s) {
  for (const char c : s) {
    if (c == 'x' || c == 'X') return std::nullopt;  // hex float
  }
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) return std::nullopt;
    if (!std::isfinite(v)) return std::nullopt;  // nan / inf / overflow
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<long long> parse_int(const std::string& s, long long min, long long max) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size() || v < min || v > max) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<Duration> parse_duration(const std::string& s, Duration unit) {
  const std::optional<double> n = parse_double(s);
  if (!n || *n < 0.0) return std::nullopt;
  const double us = *n * static_cast<double>(unit.us());
  if (!(us < 0x1p63)) return std::nullopt;  // 2^63: one past INT64_MAX
  return Duration::micros(static_cast<std::int64_t>(std::llround(us)));
}

std::string percent(double fraction, int decimals) {
  return str_format("%.*f%%", decimals, fraction * 100.0);
}

}  // namespace simty
