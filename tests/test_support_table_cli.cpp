// Tests for support/table and support/cli.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

namespace hecmine::support {
namespace {

TEST(Table, RejectsEmptyColumnsAndBadRows) {
  EXPECT_THROW(Table({}), PreconditionError);
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({1.0}), PreconditionError);
}

TEST(Table, StoresAndRetrievesValues) {
  Table table({"x", "y"});
  table.add_row({1.0, 2.0});
  table.add_row({3.0, 4.0});
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_DOUBLE_EQ(table.at(1, 0), 3.0);
  EXPECT_THROW((void)table.at(2, 0), PreconditionError);
  EXPECT_THROW((void)table.at(0, 2), PreconditionError);
}

TEST(Table, PrintsAlignedHeaderAndRows) {
  Table table({"price", "units"});
  table.add_row({1.5, 20.0});
  std::ostringstream os;
  table.print(os, 2);
  const std::string text = os.str();
  EXPECT_NE(text.find("price"), std::string::npos);
  EXPECT_NE(text.find("1.50"), std::string::npos);
  EXPECT_NE(text.find("20.00"), std::string::npos);
  EXPECT_NE(text.find("|-"), std::string::npos);
}

// Each file-writing test owns its directory, so parallel test processes
// never remove each other's files.
std::filesystem::path test_dir(const std::string& name) {
  return std::filesystem::path(testing::TempDir()) / ("hecmine_" + name);
}

TEST(Table, WritesCsvRoundTrip) {
  const std::filesystem::path dir = test_dir("table_roundtrip");
  const std::string path = (dir / "table_roundtrip.csv").string();
  Table table({"alpha", "beta"});
  table.add_row({0.125, -7.5});
  table.write_csv(path);
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "alpha,beta");
  EXPECT_EQ(row, "0.125,-7.5");
  std::filesystem::remove_all(dir);
}

TEST(Table, CreatesParentDirectories) {
  const std::filesystem::path dir = test_dir("table_nested");
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "nested" / "dir" / "t.csv").string();
  Table table({"a"});
  table.add_row({1.0});
  table.write_csv(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(PrintSection, EmitsBanner) {
  std::ostringstream os;
  print_section(os, "Fig 4");
  EXPECT_EQ(os.str(), "\n== Fig 4 ==\n");
}

CliArgs make_args(std::initializer_list<const char*> argv_list) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_list.begin(), argv_list.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const auto args = make_args({"--alpha=1.5", "--name", "bench", "pos1"});
  EXPECT_DOUBLE_EQ(args.get("alpha", 0.0), 1.5);
  EXPECT_EQ(args.get("name", ""), "bench");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto args = make_args({});
  EXPECT_DOUBLE_EQ(args.get("missing", 2.5), 2.5);
  EXPECT_EQ(args.get("missing", std::string("x")), "x");
  EXPECT_EQ(args.get("missing", 7), 7);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, BareFlagIsTrue) {
  const auto args = make_args({"--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", ""), "true");
}

TEST(Cli, RejectsMalformedNumbers) {
  const auto args = make_args({"--n=abc"});
  EXPECT_THROW((void)args.get("n", 1.0), PreconditionError);
}

TEST(Cli, TracksUnknownFlags) {
  const auto args = make_args({"--used=1", "--stray=2"});
  (void)args.get("used", 0.0);
  const auto unknown = args.unknown_flags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "stray");
}

}  // namespace
}  // namespace hecmine::support
