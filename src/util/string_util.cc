#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <system_error>

namespace lyric {

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::optional<uint64_t> ParseUint64(std::string_view text) {
  // from_chars takes no sign and no leading space for unsigned types.
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<uint64_t> EnvUint64(const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  return ParseUint64(text);
}

std::optional<uint64_t> SplitNumericSuffix(std::string_view spec,
                                           std::string* path) {
  const size_t colon = spec.rfind(':');
  const bool has_suffix =
      colon != std::string_view::npos && colon + 1 < spec.size() &&
      spec.find_first_not_of("0123456789", colon + 1) ==
          std::string_view::npos;
  if (!has_suffix) {
    path->assign(spec);
    return std::nullopt;
  }
  path->assign(spec.substr(0, colon));
  return ParseUint64(spec.substr(colon + 1));
}

}  // namespace lyric
