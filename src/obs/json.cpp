#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tlm::obs {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("json: " + what);
}

}  // namespace

bool Json::boolean() const {
  if (const bool* b = std::get_if<bool>(&v_)) return *b;
  fail("not a boolean");
}

std::uint64_t Json::u64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&v_)) return *u;
  if (const double* d = std::get_if<double>(&v_)) {
    if (*d >= 0 && *d < 0x1p64 && *d == std::floor(*d))
      return static_cast<std::uint64_t>(*d);
    fail("number is not a non-negative integer");
  }
  fail("not a number");
}

double Json::f64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&v_))
    return static_cast<double>(*u);
  if (const double* d = std::get_if<double>(&v_)) return *d;
  fail("not a number");
}

const std::string& Json::str() const {
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  fail("not a string");
}

const Json::Array& Json::arr() const {
  if (const auto* a = std::get_if<Array>(&v_)) return *a;
  fail("not an array");
}

Json::Array& Json::arr() {
  if (auto* a = std::get_if<Array>(&v_)) return *a;
  fail("not an array");
}

const Json::Object& Json::obj() const {
  if (const auto* o = std::get_if<Object>(&v_)) return *o;
  fail("not an object");
}

Json::Object& Json::obj() {
  if (auto* o = std::get_if<Object>(&v_)) return *o;
  fail("not an object");
}

Json& Json::operator[](std::string_view key) {
  if (is_null()) v_ = Object{};
  auto& o = obj();
  auto it = o.find(key);
  if (it == o.end()) it = o.emplace(std::string(key), Json()).first;
  return it->second;
}

const Json& Json::at(std::string_view key) const {
  const auto& o = obj();
  auto it = o.find(key);
  if (it == o.end()) fail("missing key '" + std::string(key) + "'");
  return it->second;
}

bool Json::contains(std::string_view key) const {
  const auto* o = std::get_if<Object>(&v_);
  return o && o->find(key) != o->end();
}

std::uint64_t Json::get_u64(std::string_view key, std::uint64_t def) const {
  return contains(key) ? at(key).u64() : def;
}

double Json::get_f64(std::string_view key, double def) const {
  return contains(key) ? at(key).f64() : def;
}

std::string Json::get_str(std::string_view key, std::string_view def) const {
  return contains(key) ? at(key).str() : std::string(def);
}

void Json::push_back(Json v) {
  if (is_null()) v_ = Array{};
  arr().push_back(std::move(v));
}

bool operator==(const Json& a, const Json& b) {
  if (a.is_number() && b.is_number()) return a.f64() == b.f64();
  if (a.v_.index() != b.v_.index()) return false;
  return std::visit(
      [&](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        return x == std::get<T>(b.v_);
      },
      a.v_);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
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
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_into(std::string& out, double d) {
  if (!std::isfinite(d)) {  // JSON has no inf/nan; null is the convention
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, res.ptr);
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  std::visit(
      [&](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::nullptr_t>) {
          out += "null";
        } else if constexpr (std::is_same_v<T, bool>) {
          out += x ? "true" : "false";
        } else if constexpr (std::is_same_v<T, std::uint64_t>) {
          out += std::to_string(x);
        } else if constexpr (std::is_same_v<T, double>) {
          number_into(out, x);
        } else if constexpr (std::is_same_v<T, std::string>) {
          escape_into(out, x);
        } else if constexpr (std::is_same_v<T, Array>) {
          if (x.empty()) {
            out += "[]";
            return;
          }
          out += '[';
          bool first = true;
          for (const Json& e : x) {
            if (!first) out += ',';
            first = false;
            newline_indent(out, indent, depth + 1);
            e.dump_to(out, indent, depth + 1);
          }
          newline_indent(out, indent, depth);
          out += ']';
        } else if constexpr (std::is_same_v<T, Object>) {
          if (x.empty()) {
            out += "{}";
            return;
          }
          out += '{';
          bool first = true;
          for (const auto& [k, v] : x) {
            if (!first) out += ',';
            first = false;
            newline_indent(out, indent, depth + 1);
            escape_into(out, k);
            out += indent < 0 ? ":" : ": ";
            v.dump_to(out, indent, depth + 1);
          }
          newline_indent(out, indent, depth);
          out += '}';
        }
      },
      v_);
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent >= 0) out += '\n';
  return out;
}

void Json::write_file(const std::string& path, int indent) const {
  std::ofstream os(path, std::ios::binary);
  if (!os.is_open()) fail("cannot open for writing: " + path);
  os << dump(indent);
  if (!os.good()) fail("write failed: " + path);
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) error("trailing content");
    return v;
  }

 private:
  [[noreturn]] void error(const std::string& what) const {
    fail(what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) error("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c)
      error(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return Json(string());
      case 't':
        if (consume_literal("true")) return Json(true);
        error("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        error("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        error("bad literal");
      default: return number();
    }
  }

  Json object() {
    expect('{');
    Json::Object o;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(o));
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      o.insert_or_assign(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(o));
    }
  }

  Json array() {
    expect('[');
    Json::Array a;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(a));
    }
    while (true) {
      a.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(a));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) error("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) error("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) error("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              error("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not needed
          // for the ASCII-only reports we produce; pass them through raw).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: error("bad escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = s_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") error("bad number");
    if (integral && tok[0] != '-') {
      std::uint64_t u = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), u);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size())
        return Json(u);
    }
    double d = 0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size())
      error("bad number '" + std::string(tok) + "'");
    return Json(d);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse(); }

Json Json::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) fail("cannot open for reading: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse(buf.str());
}

}  // namespace tlm::obs
