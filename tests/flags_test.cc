#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "test_temp_dir.h"
#include "util/flags.h"

namespace soi {
namespace {

TEST(FlagParserTest, EqualsSyntax) {
  const auto parser = FlagParser::Parse({"--name=value", "--count=3"});
  ASSERT_TRUE(parser.ok());
  EXPECT_EQ(parser->GetString("name", "").value(), "value");
  EXPECT_EQ(parser->GetInt("count", 0).value(), 3);
}

TEST(FlagParserTest, SpaceSyntax) {
  const auto parser = FlagParser::Parse({"--name", "value", "--count", "3"});
  ASSERT_TRUE(parser.ok());
  EXPECT_EQ(parser->GetString("name", "").value(), "value");
  EXPECT_EQ(parser->GetInt("count", 0).value(), 3);
}

TEST(FlagParserTest, BareBooleanFlag) {
  const auto parser = FlagParser::Parse({"--verbose", "--out=x"});
  ASSERT_TRUE(parser.ok());
  EXPECT_TRUE(parser->HasFlag("verbose"));
  EXPECT_TRUE(parser->GetBool("verbose", false));
  EXPECT_FALSE(parser->GetBool("quiet", false));
}

TEST(FlagParserTest, BoolExplicitValues) {
  const auto parser =
      FlagParser::Parse({"--a=true", "--b=false", "--c=0", "--d=1"});
  ASSERT_TRUE(parser.ok());
  EXPECT_TRUE(parser->GetBool("a", false));
  EXPECT_FALSE(parser->GetBool("b", true));
  EXPECT_FALSE(parser->GetBool("c", true));
  EXPECT_TRUE(parser->GetBool("d", false));
}

TEST(FlagParserTest, PositionalArguments) {
  const auto parser =
      FlagParser::Parse({"cmd", "--flag=1", "arg1", "--", "--not-a-flag"});
  ASSERT_TRUE(parser.ok());
  EXPECT_EQ(parser->positional(),
            (std::vector<std::string>{"cmd", "arg1", "--not-a-flag"}));
}

TEST(FlagParserTest, Defaults) {
  const auto parser = FlagParser::Parse(std::vector<std::string>{});
  ASSERT_TRUE(parser.ok());
  EXPECT_EQ(parser->GetString("missing", "dflt").value(), "dflt");
  EXPECT_EQ(parser->GetInt("missing", 42).value(), 42);
  EXPECT_DOUBLE_EQ(parser->GetDouble("missing", 2.5).value(), 2.5);
}

TEST(FlagParserTest, TypeErrors) {
  const auto parser = FlagParser::Parse({"--n=abc", "--x=1.2.3"});
  ASSERT_TRUE(parser.ok());
  EXPECT_FALSE(parser->GetInt("n", 0).ok());
  EXPECT_FALSE(parser->GetDouble("x", 0).ok());
  // The raw string is still accessible.
  EXPECT_EQ(parser->GetString("n", "").value(), "abc");
}

TEST(FlagParserTest, NegativeAndFloatValues) {
  const auto parser = FlagParser::Parse({"--n=-7", "--x=0.25"});
  ASSERT_TRUE(parser.ok());
  EXPECT_EQ(parser->GetInt("n", 0).value(), -7);
  EXPECT_DOUBLE_EQ(parser->GetDouble("x", 0).value(), 0.25);
}

TEST(FlagParserTest, DuplicateFlagRejected) {
  EXPECT_FALSE(FlagParser::Parse({"--a=1", "--a=2"}).ok());
}

TEST(FlagParserTest, EmptyFlagNameRejected) {
  EXPECT_FALSE(FlagParser::Parse({"--=value"}).ok());
}

TEST(FlagParserTest, UnusedFlagsTracksQueries) {
  const auto parser = FlagParser::Parse({"--used=1", "--typo=2"});
  ASSERT_TRUE(parser.ok());
  (void)parser->GetInt("used", 0);
  const auto unused = parser->UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagParserTest, ArgcArgvEntryPoint) {
  const char* argv[] = {"prog", "--k=5", "pos"};
  const auto parser = FlagParser::Parse(3, argv);
  ASSERT_TRUE(parser.ok());
  EXPECT_EQ(parser->GetInt("k", 0).value(), 5);
  EXPECT_EQ(parser->positional(), std::vector<std::string>{"pos"});
}

// Out-path validation shared by soi_cli (--out/--metrics-out/--trace-out)
// and the bench harnesses (SOI_TRACE_OUT): typos must fail up front, before
// any expensive work, and validation must not create or truncate anything.

TEST(ValidateWritableOutPathTest, AcceptsFreshFileInWritableDir) {
  const std::string path = TestTempPath("fresh.out");
  std::remove(path.c_str());
  EXPECT_TRUE(ValidateWritableOutPath(path).ok());
  // Validation must not have created the file.
  std::ifstream probe(path);
  EXPECT_FALSE(probe.good());
}

TEST(ValidateWritableOutPathTest, AcceptsExistingFileWithoutTruncating) {
  const std::string path = TestTempPath("existing.out");
  {
    std::ofstream out(path);
    out << "precious";
  }
  EXPECT_TRUE(ValidateWritableOutPath(path).ok());
  std::ifstream in(path);
  std::string content;
  in >> content;
  EXPECT_EQ(content, "precious");
  std::remove(path.c_str());
}

TEST(ValidateWritableOutPathTest, AcceptsBareFilenameInCwd) {
  EXPECT_TRUE(ValidateWritableOutPath("flags_test_cwd_relative.out").ok());
}

TEST(ValidateWritableOutPathTest, RejectsEmptyPath) {
  EXPECT_FALSE(ValidateWritableOutPath("").ok());
}

TEST(ValidateWritableOutPathTest, RejectsNonexistentDirectory) {
  const Status status =
      ValidateWritableOutPath("/nonexistent-soi-dir/output.json");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("/nonexistent-soi-dir"),
            std::string::npos);
}

TEST(ValidateWritableOutPathTest, RejectsDirectoryAsTarget) {
  EXPECT_FALSE(ValidateWritableOutPath(testing::TempDir()).ok());
}

TEST(ValidateWritableOutPathTest, RejectsFileUsedAsDirectory) {
  const std::string file = TestTempPath("not_a_dir");
  {
    std::ofstream out(file);
    out << "x";
  }
  EXPECT_FALSE(ValidateWritableOutPath(file + "/child.json").ok());
  std::remove(file.c_str());
}

// Declarative subcommand flag tables (ParseCommandFlags + help generation):
// unknown flags are hard errors naming the command, typed values are
// validated before any work runs, and help text comes from the same table.

CommandSpec TestCommand() {
  CommandSpec spec;
  spec.name = "frob";
  spec.summary = "frobnicate the graph";
  spec.positional_help = "<graph-file>";
  spec.flags = {
      {"graph", FlagType::kString, "", "input file (required)"},
      {"worlds", FlagType::kInt, "256", "worlds to sample"},
      {"scale", FlagType::kDouble, "0.25", "scale factor"},
      {"verbose", FlagType::kBool, "", "log more"},
  };
  return spec;
}

TEST(CommandSpecTest, AcceptsDeclaredFlags) {
  const auto parsed = ParseCommandFlags(
      TestCommand(), {"--graph=g.txt", "--worlds", "64", "--verbose"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("graph", "").value(), "g.txt");
  EXPECT_EQ(parsed->GetInt("worlds", 0).value(), 64);
  EXPECT_TRUE(parsed->GetBool("verbose", false));
}

TEST(CommandSpecTest, UnknownFlagIsHardErrorNamingCommand) {
  const auto parsed = ParseCommandFlags(TestCommand(), {"--wrlds=64"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("--wrlds"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("'frob'"), std::string::npos);
}

TEST(CommandSpecTest, TypedValuesValidatedEagerly) {
  const auto bad_int = ParseCommandFlags(TestCommand(), {"--worlds=lots"});
  ASSERT_FALSE(bad_int.ok());
  EXPECT_NE(bad_int.status().message().find("worlds"), std::string::npos);
  const auto bad_double = ParseCommandFlags(TestCommand(), {"--scale=big"});
  EXPECT_FALSE(bad_double.ok());
}

TEST(CommandSpecTest, CommandHelpListsEveryFlagAndDefault) {
  const std::string help = FormatCommandHelp("soi_cli", TestCommand());
  EXPECT_NE(help.find("Usage: soi_cli frob [flags] <graph-file>"),
            std::string::npos);
  EXPECT_NE(help.find("frobnicate the graph"), std::string::npos);
  EXPECT_NE(help.find("--graph=<string>"), std::string::npos);
  EXPECT_NE(help.find("--worlds=<int>"), std::string::npos);
  EXPECT_NE(help.find("(default: 256)"), std::string::npos);
  // Bool flags take no value in help.
  EXPECT_NE(help.find("--verbose "), std::string::npos);
  EXPECT_EQ(help.find("--verbose=<"), std::string::npos);
}

TEST(CommandSpecTest, ProgramHelpListsCommands) {
  CommandSpec other;
  other.name = "defrag";
  other.summary = "defragment the worlds";
  const std::string help =
      FormatProgramHelp("soi_cli", {TestCommand(), other});
  EXPECT_NE(help.find("Usage: soi_cli <command> [flags]"), std::string::npos);
  EXPECT_NE(help.find("frob"), std::string::npos);
  EXPECT_NE(help.find("defragment the worlds"), std::string::npos);
}

}  // namespace
}  // namespace soi
