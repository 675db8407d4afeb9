// Small string helpers shared across the library.

#ifndef LYRIC_UTIL_STRING_UTIL_H_
#define LYRIC_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lyric {

/// Joins `parts` with `sep` ("a", "b" -> "a, b" for sep ", ").
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Lower-cases ASCII characters of `s`.
std::string ToLower(const std::string& s);

/// Parses `text` as a decimal uint64: one or more digits and nothing
/// else (no sign, no spaces), within range. nullopt otherwise.
std::optional<uint64_t> ParseUint64(std::string_view text);

/// The environment variable `name` parsed by ParseUint64; nullopt when
/// it is unset or malformed.
std::optional<uint64_t> EnvUint64(const char* name);

/// Splits a "path[:N]" spec. When the text after the last ':' is one or
/// more decimal digits, *path gets the text before that ':' and the
/// result is N parsed by ParseUint64 (nullopt when out of range).
/// Otherwise *path gets all of `spec` and the result is nullopt.
std::optional<uint64_t> SplitNumericSuffix(std::string_view spec,
                                           std::string* path);

}  // namespace lyric

#endif  // LYRIC_UTIL_STRING_UTIL_H_
