#include "common/strings.hpp"

#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace hpcla {

std::vector<std::string_view> split(std::string_view text, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_whitespace(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  const auto is_ws = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (i < text.size()) {
    while (i < text.size() && is_ws(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !is_ws(text[i])) ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view text) noexcept {
  const auto is_ws = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && is_ws(text[b])) ++b;
  while (e > b && is_ws(text[e - 1])) --e;
  return text.substr(b, e - b);
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) noexcept {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

namespace {
template <typename Vec>
std::string join_impl(const Vec& parts, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out += sep;
    first = false;
    out += p;
  }
  return out;
}
}  // namespace

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  return join_impl(parts, sep);
}

std::string join(const std::vector<std::string_view>& parts,
                 std::string_view sep) {
  return join_impl(parts, sep);
}

bool parse_int(std::string_view text, long long& out) noexcept {
  if (text.empty()) return false;
  std::size_t i = 0;
  bool neg = false;
  if (text[0] == '-' || text[0] == '+') {
    neg = text[0] == '-';
    i = 1;
    if (text.size() == 1) return false;
  }
  // Magnitude of INT64_MIN / INT64_MAX; checked before each step so the
  // accumulator never wraps.
  const unsigned long long limit =
      neg ? 9223372036854775808ull : 9223372036854775807ull;
  unsigned long long acc = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return false;
    const unsigned digit = static_cast<unsigned>(c - '0');
    if (acc > (limit - digit) / 10) return false;  // acc * 10 + digit > limit
    acc = acc * 10 + digit;
  }
  // Negate in unsigned arithmetic: -acc as a signed value overflows for
  // INT64_MIN.
  out = static_cast<long long>(neg ? 0ull - acc : acc);
  return true;
}

std::string format_double(double v, int digits) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*g", digits, v);
  return buf.data();
}

std::string format_count(long long v) {
  std::string raw = std::to_string(v < 0 ? -v : v);
  std::string out;
  const std::size_t first = raw.size() % 3 == 0 ? 3 : raw.size() % 3;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (i != 0 && (i - first) % 3 == 0 && i >= first) out.push_back(',');
    out.push_back(raw[i]);
  }
  return v < 0 ? "-" + out : out;
}

}  // namespace hpcla
