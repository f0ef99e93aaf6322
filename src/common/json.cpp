#include "common/json.hpp"

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hpcla {

// ---------------------------------------------------------------- JsonObject

Json& JsonObject::set(std::string key, Json value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  entries_.emplace_back(std::move(key), std::move(value));
  return entries_.back().second;
}

const Json* JsonObject::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* JsonObject::find(std::string_view key) noexcept {
  for (auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool operator==(const JsonObject& a, const JsonObject& b) {
  return a.entries_ == b.entries_;
}

// ---------------------------------------------------------------------- Json

bool Json::as_bool() const {
  HPCLA_CHECK_MSG(is_bool(), "Json::as_bool on non-bool");
  return std::get<bool>(rep_);
}

namespace {

/// True when `d` is integral and inside [-2^63, 2^63), where the cast to
/// int64_t is defined (NaN and the infinities are not).
bool int64_valued(double d) noexcept {
  constexpr double kTwo63 = 9223372036854775808.0;
  return d == std::floor(d) && d >= -kTwo63 && d < kTwo63;
}

}  // namespace

std::int64_t Json::as_int() const {
  if (is_double()) {
    // Tolerate integral doubles (parsers of hand-written queries produce them).
    double d = std::get<double>(rep_);
    HPCLA_CHECK_MSG(int64_valued(d), "Json::as_int on a non-int64 double");
    return static_cast<std::int64_t>(d);
  }
  HPCLA_CHECK_MSG(is_int(), "Json::as_int on non-number");
  return std::get<std::int64_t>(rep_);
}

double Json::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(rep_));
  HPCLA_CHECK_MSG(is_double(), "Json::as_double on non-number");
  return std::get<double>(rep_);
}

const std::string& Json::as_string() const {
  HPCLA_CHECK_MSG(is_string(), "Json::as_string on non-string");
  return std::get<std::string>(rep_);
}

const Json::Array& Json::as_array() const {
  HPCLA_CHECK_MSG(is_array(), "Json::as_array on non-array");
  return std::get<Array>(rep_);
}

Json::Array& Json::as_array() {
  HPCLA_CHECK_MSG(is_array(), "Json::as_array on non-array");
  return std::get<Array>(rep_);
}

const JsonObject& Json::as_object() const {
  HPCLA_CHECK_MSG(is_object(), "Json::as_object on non-object");
  return std::get<JsonObject>(rep_);
}

JsonObject& Json::as_object() {
  HPCLA_CHECK_MSG(is_object(), "Json::as_object on non-object");
  return std::get<JsonObject>(rep_);
}

Json& Json::operator[](std::string_view key) {
  if (is_null()) rep_ = JsonObject{};
  JsonObject& obj = as_object();
  if (Json* found = obj.find(key)) return *found;
  return obj.set(std::string(key), Json());
}

const Json& Json::operator[](std::string_view key) const {
  static const Json kNull;
  if (!is_object()) return kNull;
  const Json* found = as_object().find(key);
  return found ? *found : kNull;
}

void Json::push_back(Json v) {
  if (is_null()) rep_ = Array{};
  as_array().push_back(std::move(v));
}

Result<std::int64_t> Json::get_int(std::string_view key) const {
  if (!is_object()) return invalid_argument("expected JSON object");
  const Json* v = as_object().find(key);
  if (!v) return invalid_argument("missing field '" + std::string(key) + "'");
  if (v->is_int()) return v->as_int();
  if (v->is_double() && int64_valued(v->as_double())) {
    return static_cast<std::int64_t>(v->as_double());
  }
  return invalid_argument("field '" + std::string(key) + "' is not an integer");
}

Result<double> Json::get_double(std::string_view key) const {
  if (!is_object()) return invalid_argument("expected JSON object");
  const Json* v = as_object().find(key);
  if (!v) return invalid_argument("missing field '" + std::string(key) + "'");
  if (!v->is_number()) {
    return invalid_argument("field '" + std::string(key) + "' is not numeric");
  }
  return v->as_double();
}

Result<std::string> Json::get_string(std::string_view key) const {
  if (!is_object()) return invalid_argument("expected JSON object");
  const Json* v = as_object().find(key);
  if (!v) return invalid_argument("missing field '" + std::string(key) + "'");
  if (!v->is_string()) {
    return invalid_argument("field '" + std::string(key) + "' is not a string");
  }
  return v->as_string();
}

Result<bool> Json::get_bool(std::string_view key) const {
  if (!is_object()) return invalid_argument("expected JSON object");
  const Json* v = as_object().find(key);
  if (!v) return invalid_argument("missing field '" + std::string(key) + "'");
  if (!v->is_bool()) {
    return invalid_argument("field '" + std::string(key) + "' is not a bool");
  }
  return v->as_bool();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf.data();
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent) * d, ' ');
    }
  };

  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(rep_) ? "true" : "false";
  } else if (is_int()) {
    out += std::to_string(std::get<std::int64_t>(rep_));
  } else if (is_double()) {
    const double d = std::get<double>(rep_);
    if (std::isfinite(d)) {
      std::array<char, 32> buf{};
      std::snprintf(buf.data(), buf.size(), "%.12g", d);
      out += buf.data();
      // Keep doubles recognizable as doubles on re-parse.
      if (std::strpbrk(buf.data(), ".eE") == nullptr) out += ".0";
    } else {
      out += "null";  // JSON has no NaN/Inf
    }
  } else if (is_string()) {
    out += json_escape(std::get<std::string>(rep_));
  } else if (is_array()) {
    const Array& arr = std::get<Array>(rep_);
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) out.push_back(',');
      newline(depth + 1);
      arr[i].dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out.push_back(']');
  } else {
    const JsonObject& obj = std::get<JsonObject>(rep_);
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) out.push_back(',');
      first = false;
      newline(depth + 1);
      out += json_escape(k);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      v.dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out.push_back('}');
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0, 0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  dump_to(out, 2, 0);
  return out;
}

// -------------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse_document() {
    skip_ws();
    auto v = parse_value(0);
    if (!v.is_ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  Status fail(const std::string& what) const {
    return invalid_argument("JSON parse error at offset " +
                            std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Result<Json> parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        auto s = parse_string();
        if (!s.is_ok()) return s.status();
        return Json(std::move(s.value()));
      }
      case 't':
        if (consume_word("true")) return Json(true);
        return fail("invalid literal");
      case 'f':
        if (consume_word("false")) return Json(false);
        return fail("invalid literal");
      case 'n':
        if (consume_word("null")) return Json(nullptr);
        return fail("invalid literal");
      default: return parse_number();
    }
  }

  Result<Json> parse_object(int depth) {
    consume('{');
    JsonObject obj;
    skip_ws();
    if (consume('}')) return Json(std::move(obj));
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key string");
      }
      auto key = parse_string();
      if (!key.is_ok()) return key.status();
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      skip_ws();
      auto val = parse_value(depth + 1);
      if (!val.is_ok()) return val;
      obj.set(std::move(key.value()), std::move(val.value()));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      return fail("expected ',' or '}' in object");
    }
    return Json(std::move(obj));
  }

  Result<Json> parse_array(int depth) {
    consume('[');
    Json::Array arr;
    skip_ws();
    if (consume(']')) return Json(std::move(arr));
    while (true) {
      skip_ws();
      auto val = parse_value(depth + 1);
      if (!val.is_ok()) return val;
      arr.push_back(std::move(val.value()));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      return fail("expected ',' or ']' in array");
    }
    return Json(std::move(arr));
  }

  Result<std::string> parse_string() {
    consume('"');
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("short \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad hex digit in \\u escape");
            }
            append_utf8(out, cp);
            break;
          }
          default: return fail("unknown escape character");
        }
      } else {
        out.push_back(c);
      }
    }
    return fail("unterminated string");
  }

  static void append_utf8(std::string& out, unsigned cp) {
    // BMP only; surrogate pairs in log text are not expected, and lone
    // surrogates are replaced with U+FFFD.
    if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<Json> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    bool has_digits = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      has_digits = true;
    }
    if (!has_digits) return fail("invalid number");
    bool is_double = false;
    if (consume('.')) {
      is_double = true;
      bool frac = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        frac = true;
      }
      if (!frac) return fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      bool exp = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        exp = true;
      }
      if (!exp) return fail("digits required in exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Json(static_cast<std::int64_t>(v));
      }
      // Fall through to double on int64 overflow.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("invalid number");
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace hpcla
