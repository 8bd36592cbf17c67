// Strict parsing of numeric environment variables: a malformed knob
// (RRS_STREAMING_ROUNDS=2e5) fails loudly instead of parsing "2" or
// falling back to a default.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

#include "util/check.h"

namespace rrs {

/// Parses `text`, the value of environment variable `name`, as a positive
/// decimal integer; null or empty text means "unset" and returns 0.  Any
/// other text that is not all digits with a value in [1, INT64_MAX] throws
/// InputError naming the variable and its text.
[[nodiscard]] inline std::int64_t parse_positive_env(const char* name,
                                                     const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text, &end, 10);
  RRS_REQUIRE(std::isdigit(static_cast<unsigned char>(*text)) != 0 &&
                  *end == '\0' && errno == 0 && parsed > 0,
              name << " must be a positive integer, got \"" << text << "\"");
  return parsed;
}

}  // namespace rrs
