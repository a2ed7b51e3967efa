// JSON reader and writer tests: value kinds, accessors, escapes, error
// handling, the JSONL line parser, the streaming Writer (compact and block
// styles, escaping, number formatting), the pinned byte format of numbers
// and escapes, and a round trip through the project's own telemetry
// emitter, a flight-stream snapshot (the parser's main customer is our own
// output).
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace hecmine;
using support::json::Value;

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(support::json::parse("null").is_null());
  EXPECT_TRUE(support::json::parse("true").as_bool());
  EXPECT_FALSE(support::json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(support::json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(support::json::parse("-1.5e2").as_number(), -150.0);
  EXPECT_EQ(support::json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, StringEscapes) {
  const Value value =
      support::json::parse(R"("a\"b\\c\nd\tAé")");
  EXPECT_EQ(value.as_string(), "a\"b\\c\nd\tA\xc3\xa9");
}

TEST(JsonParse, NestedStructure) {
  const Value doc = support::json::parse(
      R"({"runs": [{"label": "x", "wall_ms": 1.5}], "ok": true, "n": null})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("n").is_null());
  const auto& runs = doc.at("runs").as_array();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].at("label").as_string(), "x");
  EXPECT_DOUBLE_EQ(runs[0].at("wall_ms").as_number(), 1.5);
}

TEST(JsonValue, FindAndNumberOr) {
  const Value doc = support::json::parse(R"({"a": 2.5})");
  EXPECT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_TRUE(doc.contains("a"));
  EXPECT_DOUBLE_EQ(doc.number_or("a", -1.0), 2.5);
  EXPECT_DOUBLE_EQ(doc.number_or("missing", -1.0), -1.0);
  EXPECT_THROW((void)doc.at("missing"), support::PreconditionError);
}

TEST(JsonValue, KindMismatchThrows) {
  const Value doc = support::json::parse(R"({"a": "text"})");
  EXPECT_THROW((void)doc.at("a").as_number(), support::PreconditionError);
  EXPECT_THROW((void)doc.as_array(), support::PreconditionError);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW((void)support::json::parse(""), support::PreconditionError);
  EXPECT_THROW((void)support::json::parse("{"), support::PreconditionError);
  EXPECT_THROW((void)support::json::parse("[1,]"),
               support::PreconditionError);
  EXPECT_THROW((void)support::json::parse("{\"a\" 1}"),
               support::PreconditionError);
  EXPECT_THROW((void)support::json::parse("1 trailing"),
               support::PreconditionError);
  EXPECT_THROW((void)support::json::parse("\"unterminated"),
               support::PreconditionError);
}

TEST(JsonParse, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_THROW((void)support::json::parse(deep), support::PreconditionError);
}

TEST(JsonParseLines, SkipsBlankLinesAndParsesEach) {
  const auto values = support::json::parse_lines(
      "{\"a\": 1}\n\n{\"a\": 2}\n   \n{\"a\": 3}\n");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[2].at("a").as_number(), 3.0);
}

TEST(JsonParseFile, ReadsFromDiskAndReportsMissingFiles) {
  const std::string path = testing::TempDir() + "/hecmine_json_read.json";
  {
    std::ofstream out(path);
    out << R"({"k": [1, 2, 3]})";
  }
  const Value doc = support::json::parse_file(path);
  EXPECT_EQ(doc.at("k").as_array().size(), 3u);
  std::remove(path.c_str());
  EXPECT_THROW((void)support::json::parse_file(path),
               support::PreconditionError);
}

TEST(JsonWriter, CompactObjectAndArray) {
  std::ostringstream os;
  support::json::Writer writer(os);
  writer.begin_object();
  writer.member("label", "run/3");
  writer.member("wall_ms", 1.5);
  writer.member("ok", true);
  writer.key("counts");
  writer.begin_array();
  writer.value(0);
  writer.value(1);
  writer.value(2);
  writer.end_array();
  writer.key("none");
  writer.null();
  writer.end_object();
  writer.finish();
  EXPECT_EQ(os.str(),
            "{\"label\": \"run/3\", \"wall_ms\": 1.5, \"ok\": true, "
            "\"counts\": [0, 1, 2], \"none\": null}\n");
}

TEST(JsonWriter, BlockStyleIndentsTwoSpacesPerDepth) {
  std::ostringstream os;
  support::json::Writer writer(os);
  writer.begin_object(support::json::Writer::kBlock);
  writer.member("schema", "hecmine.bench.v1");
  writer.key("runs");
  writer.begin_array(support::json::Writer::kBlock);
  writer.begin_object();
  writer.member("label", "a");
  writer.end_object();
  writer.end_array();
  writer.end_object();
  writer.finish();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"schema\": \"hecmine.bench.v1\",\n"
            "  \"runs\": [\n"
            "    {\"label\": \"a\"}\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, EmptyContainersStayOnOneLine) {
  std::ostringstream os;
  support::json::Writer writer(os);
  writer.begin_object(support::json::Writer::kBlock);
  writer.key("counters");
  writer.begin_object();
  writer.end_object();
  writer.key("spans");
  writer.begin_array(support::json::Writer::kBlock);
  writer.end_array();
  writer.end_object();
  writer.finish();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"counters\": {},\n"
            "  \"spans\": []\n"
            "}\n");
}

TEST(JsonWriter, EscapesKeysAndValues) {
  std::ostringstream os;
  support::json::Writer writer(os);
  writer.begin_object();
  writer.member("a\"b", "line1\nline2\t\\end");
  writer.end_object();
  writer.finish();
  const Value doc = support::json::parse(os.str());
  EXPECT_EQ(doc.at("a\"b").as_string(), "line1\nline2\t\\end");
}

TEST(JsonWriter, NumberFormattingRoundTrips) {
  std::ostringstream os;
  support::json::Writer writer(os);
  writer.begin_object();
  writer.member("third", 1.0 / 3.0);
  writer.member("big", std::uint64_t{1} << 53);
  writer.member("neg", std::int64_t{-42});
  writer.member("nan", std::numeric_limits<double>::quiet_NaN());
  writer.member("inf", std::numeric_limits<double>::infinity());
  writer.end_object();
  writer.finish();
  const Value doc = support::json::parse(os.str());
  EXPECT_DOUBLE_EQ(doc.at("third").as_number(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(doc.at("big").as_number(),
                   std::pow(2.0, 53.0));
  EXPECT_DOUBLE_EQ(doc.at("neg").as_number(), -42.0);
  // Non-finite doubles are not representable in JSON: they degrade to null
  // rather than corrupting the document.
  EXPECT_TRUE(doc.at("nan").is_null());
  EXPECT_TRUE(doc.at("inf").is_null());
}

std::string json_number(double value) {
  std::ostringstream os;
  support::json::number(os, value);
  return os.str();
}

/// printf's %.17g in the C locale: the format every JSON number is pinned
/// to, so logs and ledgers keep their bytes.
std::string printf_17g(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

TEST(JsonNumber, MatchesPrintfPrecision17) {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  const auto check = [&](double value) {
    ++checked;
    const std::string got = json_number(value);
    const std::string want = printf_17g(value);
    if (got != want && mismatches++ == 0)
      first_mismatch = got + " vs %.17g " + want;
  };
  support::Rng rng(17);
  for (int i = 0; i < 30000; ++i) {
    // Random bit patterns reach every exponent and subnormals.
    const double bits = std::bit_cast<double>(rng.engine()());
    if (std::isfinite(bits)) check(bits);
    const double unit = rng.uniform();
    check(unit);
    check(-unit * std::pow(10.0, rng.uniform(-30.0, 30.0)));
    check(std::round(rng.uniform(-1e12, 1e12)));
  }
  for (const double edge :
       {0.0, -0.0, 5e-324, -5e-324, DBL_MIN, DBL_MAX, -DBL_MAX, 1e-5, 1e-4,
        1e16, 1e17, 1e21, 0.1, 1.0 / 3.0, -1.0, -42.0, -9007199254740993.0,
        -123456789.0, 0.20000000000000001})
    check(edge);
  EXPECT_GE(checked, 100000u);
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
}

TEST(JsonNumber, NonFiniteValuesWriteNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

/// Escapes one character at a time: the reference json::escape must match.
std::string escape_charwise(std::string_view text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonEscape, MatchesACharwiseReference) {
  std::vector<std::string> texts{"",
                                 "plain text",
                                 "\"quoted\"",
                                 "back\\slash",
                                 std::string("nul\0inside", 10),
                                 "\x01\x1f control",
                                 "tab\tnew\nline\rend\n",
                                 "caf\xc3\xa9 \x7f"};
  // Seeded strings over an alphabet dense in characters that need escapes.
  const std::string alphabet("ab \"\\\n\t\r\x01\x1f\x7f\xc3\0", 13);
  support::Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    std::string text(rng.uniform_index(24), ' ');
    for (char& c : text) c = alphabet[rng.uniform_index(alphabet.size())];
    texts.push_back(std::move(text));
  }
  for (const std::string& text : texts) {
    std::ostringstream os;
    support::json::escape(os, text);
    EXPECT_EQ(os.str(), escape_charwise(text));
  }
}

TEST(JsonParse, RoundTripsTelemetryEmitter) {
  // A flight-stream snapshot line, read back from its file.
  support::Telemetry telemetry;
  telemetry.metrics.counter("rt.count").add(7);
  telemetry.metrics.gauge("rt.gauge").set(0.125);
  telemetry.metrics.histogram("rt.hist", {1.0, 2.0}).observe(1.5);
  const std::string path = testing::TempDir() + "/hecmine_json_snapshot.jsonl";
  {
    support::TelemetryFlusher::Options options;
    options.interval = std::chrono::milliseconds(10'000);
    support::TelemetryFlusher flight(telemetry, path, options);
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<Value> lines = support::json::parse_lines(buffer.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].at("schema").as_string(), "hecmine.flight.v1");
  const Value& doc = lines[1];
  EXPECT_DOUBLE_EQ(doc.at("counters").at("rt.count").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("rt.gauge").as_number(), 0.125);
  EXPECT_TRUE(doc.at("histograms").at("rt.hist").contains("p50"));
  std::remove(path.c_str());
}

}  // namespace
