#include "src/common/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace tono {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add(const std::string& name, Option option) {
  if (options_.count(name) != 0) {
    throw std::invalid_argument{"ArgParser: duplicate option --" + name};
  }
  if (option.default_value) {
    const std::string broken = rule_error(name, option, *option.default_value);
    if (!broken.empty()) throw std::logic_error{"ArgParser: default breaks " + broken};
  }
  options_[name] = std::move(option);
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  add(name, Option{Kind::kFlag, help, std::nullopt, std::nullopt, {}, {}});
}

void ArgParser::add_string(const std::string& name, const std::string& help,
                           std::optional<std::string> default_value,
                           std::vector<std::string> choices) {
  add(name, Option{Kind::kString, help, std::move(default_value), std::nullopt, {},
                   std::move(choices)});
}

void ArgParser::add_double(const std::string& name, const std::string& help,
                           std::optional<double> default_value, FlagBounds bounds) {
  std::optional<std::string> def;
  if (default_value) {
    std::ostringstream oss;
    oss << *default_value;
    def = oss.str();
  }
  add(name, Option{Kind::kDouble, help, std::move(def), std::nullopt, bounds, {}});
}

void ArgParser::add_int(const std::string& name, const std::string& help,
                        std::optional<long> default_value, FlagBounds bounds) {
  std::optional<std::string> def;
  if (default_value) def = std::to_string(*default_value);
  add(name, Option{Kind::kInt, help, std::move(def), std::nullopt, bounds, {}});
}

void ArgParser::needs(const std::string& option, const std::string& prerequisite) {
  cross_rules_.push_back(CrossRule{false, option, prerequisite});
}

void ArgParser::excludes(const std::string& a, const std::string& b) {
  cross_rules_.push_back(CrossRule{true, a, b});
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string name = arg.substr(2);
    auto it = options_.find(name);
    if (it == options_.end()) {
      error_ = "unknown option --" + name;
      return false;
    }
    if (it->second.kind == Kind::kFlag) {
      it->second.value = "true";
      continue;
    }
    if (i + 1 >= argc) {
      error_ = "option --" + name + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    if (it->second.kind == Kind::kDouble) {
      // strtod's end pointer alone accepts "nan", "inf" and overflowing
      // exponents ("1e999" parses to +inf with ERANGE) — all of which would
      // propagate NaN/inf into scenario math. Finite values only.
      char* end = nullptr;
      errno = 0;
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        error_ = "option --" + name + " expects a number, got '" + value + "'";
        return false;
      }
      if (!std::isfinite(parsed)) {
        error_ = errno == ERANGE
                     ? "option --" + name + " number out of range: '" + value + "'"
                     : "option --" + name + " expects a finite number, got '" +
                           value + "'";
        return false;
      }
    } else if (it->second.kind == Kind::kInt) {
      // Validate with the same parser int_value() reads with: strtod would
      // accept "1.5" here only for strtol to truncate it silently later.
      char* end = nullptr;
      errno = 0;
      (void)std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        error_ = "option --" + name + " expects an integer, got '" + value + "'";
        return false;
      }
      if (errno == ERANGE) {
        error_ = "option --" + name + " integer out of range: '" + value + "'";
        return false;
      }
    }
    it->second.value = value;
  }
  // Required (no-default, non-flag) options must be present.
  for (const auto& [name, opt] : options_) {
    if (opt.kind != Kind::kFlag && !opt.value && !opt.default_value) {
      error_ = "missing required option --" + name;
      return false;
    }
  }
  // Rules judge the final values, so a later repeat of a flag overrides an
  // earlier bad one, exactly as it overrides its value.
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    if (opt.value) error_ = rule_error(name, opt, *opt.value);
    if (!error_.empty()) return false;
  }
  for (const auto& rule : cross_rules_) {
    const bool a = engaged_(options_.at(rule.a));
    const bool b = engaged_(options_.at(rule.b));
    if (rule.exclusive && a && b) {
      error_ = spelled_(rule.a) + " and " + spelled_(rule.b) + " are mutually exclusive";
      return false;
    }
    if (!rule.exclusive && a && !b) {
      const auto& fallback = options_.at(rule.b).default_value;
      error_ = spelled_(rule.a) + " requires --" + rule.b;
      if (fallback && !fallback->empty()) error_ += " other than '" + *fallback + "'";
      return false;
    }
  }
  return true;
}

std::optional<int> ArgParser::parse_or_exit(int argc, const char* const* argv) {
  if (parse(argc, argv)) return std::nullopt;
  std::cerr << (help_requested_ ? help_text() : error_ + "\n");
  return help_requested_ ? 0 : 2;
}

std::string ArgParser::rule_error(const std::string& name, const Option& opt,
                                  const std::string& value) {
  if (!opt.choices.empty()) {
    std::string allowed;
    for (const auto& choice : opt.choices) {
      if (choice == value) return "";
      allowed += (allowed.empty() ? "" : "|") + choice;
    }
    return "--" + name + " must be one of " + allowed + " (got '" + value + "')";
  }
  // Values reaching here passed their kind's syntax check.
  const double v = std::strtod(value.c_str(), nullptr);
  const FlagBounds& b = opt.bounds;
  std::ostringstream oss;
  oss << "--" << name;
  if (b.min && !(v >= *b.min)) {
    oss << " must be >= " << *b.min;
  } else if (b.above && !(v > *b.above)) {
    oss << " must be > " << *b.above;
  } else if (b.max && !(v <= *b.max)) {
    oss << " must be <= " << *b.max;
  } else {
    return "";
  }
  oss << " (got " << value << ")";
  return oss.str();
}

bool ArgParser::engaged_(const Option& opt) const {
  if (!opt.value) return false;
  if (!opt.default_value) return true;
  if (opt.kind == Kind::kString) return *opt.value != *opt.default_value;
  return std::strtod(opt.value->c_str(), nullptr) !=
         std::strtod(opt.default_value->c_str(), nullptr);
}

std::string ArgParser::spelled_(const std::string& name) const {
  const Option& opt = options_.at(name);
  return opt.kind == Kind::kFlag ? "--" + name : "--" + name + " " + *opt.value;
}

const ArgParser::Option& ArgParser::option_or_throw(const std::string& name,
                                                    Kind kind) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.kind != kind) {
    throw std::invalid_argument{"ArgParser: unregistered option --" + name};
  }
  return it->second;
}

bool ArgParser::has(const std::string& name) const {
  const auto it = options_.find(name);
  return it != options_.end() && it->second.value.has_value();
}

bool ArgParser::flag(const std::string& name) const {
  return option_or_throw(name, Kind::kFlag).value.has_value();
}

std::string ArgParser::string_value(const std::string& name) const {
  const auto& opt = option_or_throw(name, Kind::kString);
  if (opt.value) return *opt.value;
  return opt.default_value.value_or("");
}

double ArgParser::double_value(const std::string& name) const {
  const auto& opt = option_or_throw(name, Kind::kDouble);
  const std::string raw = opt.value ? *opt.value : opt.default_value.value_or("0");
  // parse() already validated user input; a failure here means a registered
  // default was malformed — a programming error, not a usage error.
  char* end = nullptr;
  const double parsed = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    throw std::logic_error{"ArgParser: --" + name +
                           " holds unparsable double '" + raw + "'"};
  }
  return parsed;
}

long ArgParser::int_value(const std::string& name) const {
  const auto& opt = option_or_throw(name, Kind::kInt);
  const std::string raw = opt.value ? *opt.value : opt.default_value.value_or("0");
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::logic_error{"ArgParser: --" + name +
                           " holds unparsable integer '" + raw + "'"};
  }
  return parsed;
}

std::string ArgParser::help_text() const {
  std::ostringstream oss;
  oss << "usage: " << program_ << " [options]\n";
  if (!description_.empty()) oss << description_ << "\n";
  oss << "options:\n";
  for (const auto& name : order_) {
    const auto& opt = options_.at(name);
    oss << "  --" << name;
    switch (opt.kind) {
      case Kind::kFlag: break;
      case Kind::kString: oss << " <str>"; break;
      case Kind::kDouble: oss << " <num>"; break;
      case Kind::kInt: oss << " <int>"; break;
    }
    oss << "  " << opt.help;
    if (opt.default_value) oss << " (default " << *opt.default_value << ")";
    oss << '\n';
  }
  oss << "  --help  show this message\n";
  return oss.str();
}

}  // namespace tono
