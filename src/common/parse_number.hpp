// Strict number parsing for command lines and text headers: the whole
// text must be one number, so "8x", " 8", "-1" and "4294967298" for a
// 32-bit value are errors instead of silently becoming something else.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace virec {

/// Unsigned integer in decimal, 0x-hex or 0-octal. Throws
/// std::invalid_argument naming @p what on a sign, surrounding space,
/// trailing characters or a value above 2^64-1.
inline u64 parse_u64(const std::string& what, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const u64 out = std::strtoull(text.c_str(), &end, 0);
  if (text.empty() || text[0] < '0' || text[0] > '9' ||
      end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::invalid_argument(what + ": invalid number '" + text + "'");
  }
  return out;
}

/// parse_u64 that also rejects values above 4294967295.
inline u32 parse_u32(const std::string& what, const std::string& text) {
  const u64 out = parse_u64(what, text);
  if (out > std::numeric_limits<u32>::max()) {
    throw std::invalid_argument(what + ": '" + text +
                                "' is out of range (max 4294967295)");
  }
  return static_cast<u32>(out);
}

/// Floating-point number (strtod syntax, including nan and inf; range
/// checks are the caller's). Throws std::invalid_argument naming
/// @p what on leading space, trailing characters or over/underflow.
inline double parse_double(const std::string& what, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double out = std::strtod(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::invalid_argument(what + ": invalid number '" + text + "'");
  }
  return out;
}

}  // namespace virec
