#pragma once
// Small string helpers shared by reports and trace writers.

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace simty {

/// printf-style formatting into a std::string.
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Strips ASCII whitespace from both ends.
std::string trim(const std::string& s);

/// Parses a whole string as a finite decimal number. Rejects trailing
/// characters, "nan", "inf", hex floats and overflow: none is a meaningful
/// flag or file value, and nan in particular slips through every later
/// range check (nan < 0.0 is false).
std::optional<double> parse_double(const std::string& s);

/// Parses a whole string as a base-10 integer in [min, max] (no trailing
/// characters, no overflow).
std::optional<long long> parse_int(
    const std::string& s, long long min = std::numeric_limits<long long>::min(),
    long long max = std::numeric_limits<long long>::max());

/// Parses a whole string as a count of `unit`s ("1.5" hours is 90
/// minutes), rounded to the microsecond. Rejects what parse_double rejects,
/// negative counts, and counts whose microseconds do not fit in int64, so
/// text never reaches Duration::from_seconds, whose llround overflows.
std::optional<Duration> parse_duration(const std::string& s, Duration unit);

/// Formats a fraction as a percentage string, e.g. 0.179 -> "17.9%".
std::string percent(double fraction, int decimals = 1);

}  // namespace simty
