// Strict number parsing shared by the spec parsers and the tools.
#ifndef AETHEREAL_UTIL_PARSE_H
#define AETHEREAL_UTIL_PARSE_H

#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace aethereal {

/// Strict non-negative integer parse: the whole token must be consumed
/// (seeds / durations / fuzz counts are reproducibility-critical — a typo
/// must fail loudly, never silently prefix-parse).
inline std::optional<std::uint64_t> ParseU64(const std::string& token) {
  try {
    std::size_t pos = 0;
    if (token.empty() || token[0] == '-') return std::nullopt;
    const std::uint64_t value = std::stoull(token, &pos);
    if (pos != token.size()) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Strict signed integer parse under the same whole-token discipline;
/// values outside int64 fail rather than saturate.
inline std::optional<std::int64_t> ParseI64(const std::string& token) {
  try {
    std::size_t pos = 0;
    if (token.empty()) return std::nullopt;
    const std::int64_t value = std::stoll(token, &pos);
    if (pos != token.size()) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Strict double parse under the same whole-token discipline; "nan" and
/// "inf" fail too, since no range check can reject a NaN.
inline std::optional<double> ParseF64(const std::string& token) {
  try {
    std::size_t pos = 0;
    if (token.empty()) return std::nullopt;
    const double value = std::stod(token, &pos);
    if (pos != token.size() || !std::isfinite(value)) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace aethereal

#endif  // AETHEREAL_UTIL_PARSE_H
