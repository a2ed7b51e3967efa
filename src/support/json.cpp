#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "support/error.hpp"

namespace hecmine::support::json {

namespace {

/// Recursive-descent parser over a string_view. Position is tracked for
/// error messages; depth is bounded so hostile inputs cannot blow the
/// stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value(0);
    skip_whitespace();
    HECMINE_REQUIRE(pos_ == text_.size(),
                    "json: trailing characters at offset " +
                        std::to_string(pos_));
    return value;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void fail(const std::string& what) const {
    throw PreconditionError("json: " + what + " at offset " +
                            std::to_string(pos_));
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_whitespace() noexcept {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value(int depth) {
    HECMINE_REQUIRE(depth < kMaxDepth, "json: nesting too deep");
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Value(nullptr);
      default: return Value(parse_number());
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Value::Object members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members[std::move(key)] = parse_value(depth + 1);
      skip_whitespace();
      const char next = take();
      if (next == '}') break;
      if (next != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return Value(std::move(members));
  }

  Value parse_array(int depth) {
    expect('[');
    Value::Array items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    while (true) {
      items.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char next = take();
      if (next == ']') break;
      if (next != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return Value(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') break;
      if (c == '\\') {
        const char escape = take();
        switch (escape) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': append_utf8(out, parse_hex4()); break;
          default: fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return value;
  }

  /// Encodes a BMP code point as UTF-8. Surrogate pairs are not combined —
  /// each half is encoded as-is, which round-trips our own emitter (which
  /// only \u-escapes control characters).
  static void append_utf8(std::string& out, unsigned cp) {
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

  double parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token{text_.substr(start, pos_ - start)};
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail("invalid number '" + token + "'");
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  HECMINE_REQUIRE(is_bool(), "json: value is not a bool");
  return std::get<bool>(data_);
}

double Value::as_number() const {
  HECMINE_REQUIRE(is_number(), "json: value is not a number");
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  HECMINE_REQUIRE(is_string(), "json: value is not a string");
  return std::get<std::string>(data_);
}

const Value::Array& Value::as_array() const {
  HECMINE_REQUIRE(is_array(), "json: value is not an array");
  return std::get<Array>(data_);
}

const Value::Object& Value::as_object() const {
  HECMINE_REQUIRE(is_object(), "json: value is not an object");
  return std::get<Object>(data_);
}

const Value& Value::at(const std::string& key) const {
  const Value* member = find(key);
  HECMINE_REQUIRE(member != nullptr, "json: missing object member '" + key + "'");
  return *member;
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Object& members = std::get<Object>(data_);
  const auto it = members.find(key);
  return it == members.end() ? nullptr : &it->second;
}

double Value::number_or(const std::string& key, double fallback) const {
  const Value* member = find(key);
  return member != nullptr && member->is_number() ? member->as_number()
                                                  : fallback;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in{path};
  HECMINE_REQUIRE(in.good(), "json: cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  HECMINE_REQUIRE(!in.bad(), "json: failed reading file: " + path);
  return parse(buffer.str());
}

std::vector<Value> parse_lines(std::string_view text) {
  std::vector<Value> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t stop = text.find('\n', start);
    if (stop == std::string_view::npos) stop = text.size();
    const std::string_view line = text.substr(start, stop - start);
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    }
    if (!blank) out.push_back(parse(line));
    if (stop == text.size()) break;
    start = stop + 1;
  }
  return out;
}

void escape(std::ostream& os, std::string_view text) {
  // Characters that need no escape are written a run at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char* replacement = nullptr;
    switch (c) {
      case '"': replacement = "\\\""; break;
      case '\\': replacement = "\\\\"; break;
      case '\n': replacement = "\\n"; break;
      case '\t': replacement = "\\t"; break;
      case '\r': replacement = "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    os.write(text.data() + run, static_cast<std::streamsize>(i - run));
    run = i + 1;
    if (replacement != nullptr) {
      os << replacement;
    } else {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x",
                    static_cast<unsigned>(c));
      os << buffer;
    }
  }
  os.write(text.data() + run, static_cast<std::streamsize>(text.size() - run));
}

void number(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  // std::to_chars in general form at max_digits10 is specified as printf's
  // %.17g in the C locale, which is also what a C-locale ostream at that
  // precision writes; no stream is built per number.
  char buffer[32];
  const std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof buffer, value,
                    std::chars_format::general,
                    std::numeric_limits<double>::max_digits10);
  os.write(buffer, end.ptr - buffer);
}

void Writer::indent(std::size_t depth) {
  os_ << '\n';
  for (std::size_t i = 0; i < depth; ++i) os_ << "  ";
}

void Writer::before_item() {
  if (key_pending_) {
    // The separator was already written by key(); the value follows.
    key_pending_ = false;
    return;
  }
  if (stack_.empty()) return;
  Frame& frame = stack_.back();
  if (frame.members > 0) os_ << (frame.style == kBlock ? "," : ", ");
  if (frame.style == kBlock) indent(stack_.size());
  ++frame.members;
}

void Writer::begin_object(Style style) {
  before_item();
  os_ << '{';
  stack_.push_back({'}', style, 0});
}

void Writer::begin_array(Style style) {
  before_item();
  os_ << '[';
  stack_.push_back({']', style, 0});
}

void Writer::end_object() {
  HECMINE_REQUIRE(!stack_.empty() && stack_.back().close == '}',
                  "json::Writer: end_object without matching begin_object");
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.style == kBlock && frame.members > 0) indent(stack_.size());
  os_ << '}';
}

void Writer::end_array() {
  HECMINE_REQUIRE(!stack_.empty() && stack_.back().close == ']',
                  "json::Writer: end_array without matching begin_array");
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.style == kBlock && frame.members > 0) indent(stack_.size());
  os_ << ']';
}

void Writer::key(std::string_view name) {
  HECMINE_REQUIRE(!stack_.empty() && stack_.back().close == '}',
                  "json::Writer: key outside an object");
  HECMINE_REQUIRE(!key_pending_, "json::Writer: key after key");
  before_item();
  os_ << '"';
  escape(os_, name);
  os_ << "\": ";
  key_pending_ = true;
}

void Writer::value(std::string_view text) {
  before_item();
  os_ << '"';
  escape(os_, text);
  os_ << '"';
}

void Writer::value(double num) {
  before_item();
  number(os_, num);
}

namespace {

template <typename Integer>
void integer(std::ostream& os, Integer value) {
  char buffer[24];
  const std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  os.write(buffer, end.ptr - buffer);
}

}  // namespace

void Writer::value(std::int64_t num) {
  before_item();
  integer(os_, num);
}

void Writer::value(std::uint64_t num) {
  before_item();
  integer(os_, num);
}

void Writer::value(bool boolean) {
  before_item();
  os_ << (boolean ? "true" : "false");
}

void Writer::null() {
  before_item();
  os_ << "null";
}

void Writer::finish() {
  HECMINE_REQUIRE(stack_.empty() && !key_pending_,
                  "json::Writer: finish with open containers");
  os_ << '\n';
}

}  // namespace hecmine::support::json
