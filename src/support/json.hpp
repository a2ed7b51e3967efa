// Minimal JSON reader and writer for the project's own machine-readable
// artifacts.
//
// hecmine emits JSON in several places (telemetry sinks, BENCH_*.json
// ledger entries, iteration-log JSONL, trace timelines, run manifests)
// and the repo deliberately carries no third-party JSON dependency.
// bench_compare and the audit tests must parse those artifacts, so this
// header provides a small recursive-descent parser producing an immutable
// Value tree; every emitter goes through the streaming Writer below so
// string escaping and number formatting live in exactly one place.
//
// Parser scope: full JSON syntax (objects, arrays, strings with escapes
// including \uXXXX, numbers, true/false/null) with a fixed nesting-depth
// bound. Not a streaming parser and not tuned for huge documents — the
// ledger files it reads are a few kilobytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace hecmine::support::json {

/// One parsed JSON value. Accessors HECMINE_REQUIRE the matching kind, so
/// schema mismatches in ledger files fail with a message instead of UB.
class Value {
 public:
  using Array = std::vector<Value>;
  /// std::map keeps object iteration deterministic (sorted by key).
  using Object = std::map<std::string, Value>;

  Value() : data_(nullptr) {}
  explicit Value(std::nullptr_t) : data_(nullptr) {}
  explicit Value(bool value) : data_(value) {}
  explicit Value(double value) : data_(value) {}
  explicit Value(std::string value) : data_(std::move(value)) {}
  explicit Value(Array value) : data_(std::move(value)) {}
  explicit Value(Object value) : data_(std::move(value)) {}

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(data_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(data_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(data_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(data_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(data_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(data_);
  }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member by key; throws when absent or not an object.
  [[nodiscard]] const Value& at(const std::string& key) const;
  /// Object member by key, or null when absent.
  [[nodiscard]] const Value* find(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const {
    return find(key) != nullptr;
  }

  /// Convenience: member `key` as a number, or `fallback` when absent.
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Parses one JSON document (throws support::PreconditionError on syntax
/// errors, trailing garbage, or nesting deeper than an internal bound).
[[nodiscard]] Value parse(std::string_view text);

/// Reads and parses `path` (throws on I/O or syntax errors).
[[nodiscard]] Value parse_file(const std::string& path);

/// Parses a JSON-Lines document: one Value per non-empty line.
[[nodiscard]] std::vector<Value> parse_lines(std::string_view text);

/// Writes `text` with JSON string escaping (quotes not included).
void escape(std::ostream& os, std::string_view text);

/// Round-trippable JSON number: the bytes of printf's %.17g in the C
/// locale (max_digits10 significant digits); non-finite values (not
/// representable in JSON) degrade to null.
void number(std::ostream& os, double value);

/// Streaming JSON emitter: tracks container nesting and comma placement so
/// emitters only state structure, never punctuation. Containers are
/// either *compact* (members separated by ", " on one line — the style of
/// JSONL records and small inline objects) or *block* (one member per
/// line, indented two spaces per depth — the style of the top-level
/// telemetry/ledger documents). Empty containers always print as {} / [].
///
///   Writer w(os);
///   w.begin_object(Writer::kBlock);
///   w.member("schema", "hecmine.bench.v1");
///   w.key("runs"); w.begin_array(Writer::kBlock);
///   ...
///
/// The writer does not buffer: output lands in the stream as calls are
/// made, so a crashed run still leaves a readable prefix.
class Writer {
 public:
  enum Style { kCompact, kBlock };

  explicit Writer(std::ostream& os) : os_(os) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void begin_object(Style style = kCompact);
  void end_object();
  void begin_array(Style style = kCompact);
  void end_array();

  /// Emits the member key of the enclosing object; must be followed by
  /// exactly one value or container.
  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(double number);
  void value(std::int64_t number);
  void value(std::uint64_t number);
  void value(int number) { value(static_cast<std::int64_t>(number)); }
  void value(bool boolean);
  void null();

  /// key() + value() in one call.
  template <typename T>
  void member(std::string_view name, T&& item) {
    key(name);
    value(std::forward<T>(item));
  }

  /// Terminates the document with a trailing newline (top level only).
  void finish();

 private:
  struct Frame {
    char close = '}';
    Style style = kCompact;
    int members = 0;
  };

  void before_item();
  void indent(std::size_t depth);

  std::ostream& os_;
  std::vector<Frame> stack_;
  bool key_pending_ = false;
};

}  // namespace hecmine::support::json
