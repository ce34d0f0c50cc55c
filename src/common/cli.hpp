// cli.hpp — minimal command-line flag parser for the tonosim tools.
//
// Deliberately tiny: typed flags (`--name value`), boolean switches
// (`--name`), defaults, required flags, generated `--help` text, and the
// flag rules a tool would otherwise hand-write after parsing, each declared
// once: numeric bounds and string choices with the option, "X needs Y" and
// "X excludes Y" across options.
//
//   args.add_int("shards", "independent ward shards", 1, {.min = 1});
//   args.add_string("code-policy", "drop | block", "drop", {"drop", "block"});
//   args.needs("checkpoint-every", "checkpoint");
//   if (const auto exit = args.parse_or_exit(argc, argv)) return *exit;
//
// No external dependency, so the CLI builds in the offline environment.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tono {

/// Bounds of a numeric option. ArgParser::parse() rejects a final value
/// outside them; a default outside them is a programming error and throws
/// std::logic_error at registration.
struct FlagBounds {
  std::optional<double> min{};    ///< value >= min
  std::optional<double> above{};  ///< value > above
  std::optional<double> max{};    ///< value <= max
};

class ArgParser {
 public:
  explicit ArgParser(std::string program, std::string description = "");

  /// Registers flags. `name` without the leading dashes. A non-empty
  /// `choices` list names the only values a string option accepts.
  void add_flag(const std::string& name, const std::string& help);  // boolean
  void add_string(const std::string& name, const std::string& help,
                  std::optional<std::string> default_value = std::nullopt,
                  std::vector<std::string> choices = {});
  void add_double(const std::string& name, const std::string& help,
                  std::optional<double> default_value = std::nullopt,
                  FlagBounds bounds = {});
  void add_int(const std::string& name, const std::string& help,
               std::optional<long> default_value = std::nullopt,
               FlagBounds bounds = {});

  /// Cross-flag rules over *engaged* options: given on the command line
  /// with a value other than the default (a switch: given at all), so an
  /// option left at — or spelled out as — its default never trips a rule.
  /// needs(a, b): engaging `a` requires engaging `b`.
  /// excludes(a, b): `a` and `b` may not both be engaged.
  /// Both names must be registered options.
  void needs(const std::string& option, const std::string& prerequisite);
  void excludes(const std::string& a, const std::string& b);

  /// Parses argv (excluding argv[0] handling — pass argc/argv as received).
  /// Returns false and fills error() on failure or if --help was requested
  /// (help_requested() distinguishes the two).
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// parse() plus the standard report on stderr: the help text after
  /// --help, the error otherwise. Returns the status the program should
  /// exit with then (0 after --help, 2 on a bad command line), or nullopt
  /// when the command line is good.
  [[nodiscard]] std::optional<int> parse_or_exit(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] bool flag(const std::string& name) const;
  [[nodiscard]] std::string string_value(const std::string& name) const;
  [[nodiscard]] double double_value(const std::string& name) const;
  [[nodiscard]] long int_value(const std::string& name) const;

  /// Positional arguments (anything not starting with --).
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] bool help_requested() const noexcept { return help_requested_; }
  [[nodiscard]] std::string help_text() const;

 private:
  enum class Kind { kFlag, kString, kDouble, kInt };
  struct Option {
    Kind kind;
    std::string help;
    std::optional<std::string> default_value;
    std::optional<std::string> value;
    FlagBounds bounds;
    std::vector<std::string> choices;
  };
  struct CrossRule {
    bool exclusive;  ///< excludes(a, b) when true, needs(a, b) otherwise
    std::string a;
    std::string b;
  };

  void add(const std::string& name, Option option);
  [[nodiscard]] const Option& option_or_throw(const std::string& name, Kind kind) const;
  [[nodiscard]] static std::string rule_error(const std::string& name, const Option& opt,
                                              const std::string& value);
  [[nodiscard]] bool engaged_(const Option& opt) const;
  [[nodiscard]] std::string spelled_(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
  std::vector<CrossRule> cross_rules_;
  std::vector<std::string> positional_;
  std::string error_;
  bool help_requested_{false};
};

}  // namespace tono
