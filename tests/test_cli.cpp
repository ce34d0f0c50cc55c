// Tests for the command-line flag parser.
#include "src/common/cli.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace tono {
namespace {

ArgParser make_parser() {
  ArgParser p{"prog", "test program"};
  p.add_flag("verbose", "say more");
  p.add_string("name", "a name", "default-name");
  p.add_double("rate", "a rate", 1.5);
  p.add_int("count", "a count", 7);
  p.add_string("required-thing", "no default");
  return p;
}

TEST(ArgParser, DefaultsApply) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_FALSE(p.flag("verbose"));
  EXPECT_EQ(p.string_value("name"), "default-name");
  EXPECT_DOUBLE_EQ(p.double_value("rate"), 1.5);
  EXPECT_EQ(p.int_value("count"), 7);
}

TEST(ArgParser, ValuesOverrideDefaults) {
  auto p = make_parser();
  const char* argv[] = {"prog",    "--verbose", "--name", "alice",      "--rate",
                        "2.75",    "--count",   "42",     "--required-thing", "y"};
  ASSERT_TRUE(p.parse(10, argv));
  EXPECT_TRUE(p.flag("verbose"));
  EXPECT_EQ(p.string_value("name"), "alice");
  EXPECT_DOUBLE_EQ(p.double_value("rate"), 2.75);
  EXPECT_EQ(p.int_value("count"), 42);
}

TEST(ArgParser, MissingRequiredFails) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  EXPECT_FALSE(p.parse(1, argv));
  EXPECT_NE(p.error().find("required-thing"), std::string::npos);
}

TEST(ArgParser, UnknownOptionFails) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--nope", "--required-thing", "x"};
  EXPECT_FALSE(p.parse(4, argv));
  EXPECT_NE(p.error().find("unknown option"), std::string::npos);
}

TEST(ArgParser, MissingValueFails) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--rate"};
  EXPECT_FALSE(p.parse(4, argv));
  EXPECT_NE(p.error().find("needs a value"), std::string::npos);
}

TEST(ArgParser, NonNumericValueFails) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--rate", "fast"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("expects a number"), std::string::npos);
}

TEST(ArgParser, FractionalIntValueFails) {
  // kInt used to validate with strtod and then read with strtol: "1.5"
  // passed validation and silently truncated to 1. It must be rejected.
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--count", "1.5"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("expects an integer"), std::string::npos);
}

TEST(ArgParser, OverflowingIntValueFails) {
  // Out-of-range integers used to saturate via strtol without any error.
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--count",
                        "99999999999999999999"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("out of range"), std::string::npos);
}

TEST(ArgParser, NanDoubleValueFails) {
  // strtod happily parses "nan" — which would then poison every scenario
  // computation downstream. The parser must reject non-finite doubles.
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--rate", "nan"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("finite"), std::string::npos);
}

TEST(ArgParser, InfDoubleValueFails) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--rate", "-inf"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("finite"), std::string::npos);
}

TEST(ArgParser, OverflowingDoubleValueFails) {
  // "1e999" parses to +inf with ERANGE — an overflow, reported as such
  // rather than as a generic non-finite value.
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--rate", "1e999"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("out of range"), std::string::npos);
}

TEST(ArgParser, NegativeIntAccepted) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--count", "-12"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.int_value("count"), -12);
}

TEST(ArgParser, NegativeNumbersAccepted) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--rate", "-2.5"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_DOUBLE_EQ(p.double_value("rate"), -2.5);
}

TEST(ArgParser, HelpRequested) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
  EXPECT_TRUE(p.help_requested());
  EXPECT_NE(p.help_text().find("--rate"), std::string::npos);
  EXPECT_NE(p.help_text().find("default 1.5"), std::string::npos);
}

TEST(ArgParser, PositionalCollected) {
  auto p = make_parser();
  const char* argv[] = {"prog", "pos1", "--required-thing", "x", "pos2"};
  ASSERT_TRUE(p.parse(5, argv));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "pos1");
  EXPECT_EQ(p.positional()[1], "pos2");
}

TEST(ArgParser, HasReportsExplicitOnly) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--name", "bob"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_TRUE(p.has("name"));
  EXPECT_FALSE(p.has("rate"));
}

TEST(ArgParser, DuplicateRegistrationThrows) {
  ArgParser p{"prog"};
  p.add_flag("x", "flag");
  EXPECT_THROW(p.add_double("x", "again"), std::invalid_argument);
}

TEST(ArgParser, WrongTypeAccessThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_THROW((void)p.flag("rate"), std::invalid_argument);
  EXPECT_THROW((void)p.double_value("verbose"), std::invalid_argument);
  EXPECT_THROW((void)p.string_value("missing"), std::invalid_argument);
}

// Declared flag rules, one case per rule kind. parse() judges the final
// values and fails with an error naming the flag.
std::string rule_error(std::vector<const char*> argv) {
  ArgParser p{"prog"};
  p.add_int("shards", "shard count", 1, {.min = 1});
  p.add_double("hr", "heart rate", 72.0, {.above = 20, .max = 250});
  p.add_string("transport", "wire", "none", {"none", "loopback", "tcp"});
  p.add_string("checkpoint", "checkpoint file", "");
  p.add_int("checkpoint-every", "checkpoint period", 0, {.min = 0});
  p.add_flag("resume", "resume");
  p.add_string("record", "record dir", "");
  p.add_string("replay", "replay dir", "");
  p.needs("checkpoint-every", "checkpoint");
  p.needs("resume", "checkpoint");
  p.needs("record", "transport");
  p.excludes("record", "replay");
  argv.insert(argv.begin(), "prog");
  const bool ok = p.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(ok, p.error().empty());
  return p.error();
}

TEST(ArgParserRules, MinBoundsRejectBelowAndAcceptTheBound) {
  EXPECT_EQ(rule_error({"--shards", "0"}), "--shards must be >= 1 (got 0)");
  EXPECT_EQ(rule_error({"--shards", "1"}), "");
  EXPECT_EQ(rule_error({"--hr", "20"}), "--hr must be > 20 (got 20)");  // exclusive
  EXPECT_EQ(rule_error({"--hr", "20.5"}), "");
}

TEST(ArgParserRules, MaxBoundRejectsAboveAndAcceptsTheBound) {
  EXPECT_EQ(rule_error({"--hr", "250.1"}), "--hr must be <= 250 (got 250.1)");
  EXPECT_EQ(rule_error({"--hr", "250"}), "");
}

TEST(ArgParserRules, ChoiceRejectsAnUnlistedValue) {
  EXPECT_EQ(rule_error({"--transport", "carrier-pigeon"}),
            "--transport must be one of none|loopback|tcp (got 'carrier-pigeon')");
  EXPECT_EQ(rule_error({"--transport", "tcp"}), "");
}

TEST(ArgParserRules, NeedsRejectsAnEngagedOptionWithoutItsPrerequisite) {
  EXPECT_EQ(rule_error({"--checkpoint-every", "1"}),
            "--checkpoint-every 1 requires --checkpoint");
  EXPECT_EQ(rule_error({"--resume"}), "--resume requires --checkpoint");
  EXPECT_EQ(rule_error({"--checkpoint-every", "1", "--checkpoint", "w.ckpt"}), "");
  // A prerequisite spelled out at its default is not engaged.
  EXPECT_EQ(rule_error({"--record", "r", "--transport", "none"}),
            "--record r requires --transport other than 'none'");
  EXPECT_EQ(rule_error({"--record", "r", "--transport", "tcp"}), "");
}

TEST(ArgParserRules, ExcludesRejectsBothEngaged) {
  EXPECT_EQ(rule_error({"--transport", "tcp", "--record", "a", "--replay", "b"}),
            "--record a and --replay b are mutually exclusive");
  EXPECT_EQ(rule_error({"--transport", "tcp", "--replay", "b"}), "");
}

TEST(ArgParserRules, UnsetOrDefaultValuedFlagsTripNoRule) {
  // Unset flags keep defaults that satisfy their own bounds, and an option
  // spelled out at its default is not engaged: `--checkpoint-every 0`
  // without --checkpoint stays valid.
  EXPECT_EQ(rule_error({}), "");
  EXPECT_EQ(rule_error({"--checkpoint-every", "0"}), "");
  EXPECT_EQ(rule_error({"--record", "", "--replay", "b", "--transport", "tcp"}), "");
  // Rules judge the final value: a later repeat overrides an earlier one.
  EXPECT_EQ(rule_error({"--shards", "0", "--shards", "2"}), "");
  // A default that breaks its own rule is a programming error.
  ArgParser p{"prog"};
  EXPECT_THROW(p.add_int("n", "count", 0, {.min = 1}), std::logic_error);
  EXPECT_THROW(p.add_string("s", "choice", "x", {"y", "z"}), std::logic_error);
}

TEST(ArgParserRules, ParseOrExitMapsHelpAndErrorsToExitStatus) {
  auto status = [](std::vector<const char*> argv) {
    ArgParser p{"prog"};
    p.add_int("shards", "shard count", 1, {.min = 1});
    return p.parse_or_exit(static_cast<int>(argv.size()), argv.data());
  };
  EXPECT_EQ(status({"prog", "--help"}), std::optional<int>{0});
  EXPECT_EQ(status({"prog", "--shards", "-3"}), std::optional<int>{2});
  EXPECT_EQ(status({"prog", "--shards", "3"}), std::nullopt);
}

}  // namespace
}  // namespace tono
