#include "src/fleet/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "src/common/rng.hpp"

namespace tono::fleet {
namespace {

std::string format_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", s);
  return buf;
}

const char* element_fault_name(core::ElementFault fault) {
  switch (fault) {
    case core::ElementFault::kNone: return "none";
    case core::ElementFault::kNotReleased: return "not-released";
    case core::ElementFault::kStuckDown: return "stuck-down";
  }
  return "unknown";
}

}  // namespace

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kContactLoss: return "contact-loss";
    case FaultKind::kLinkBurst: return "link-burst";
    case FaultKind::kElementFault: return "element-fault";
  }
  return "unknown";
}

bool parse_fault_plan(const std::string& spec, FaultPlanConfig* plan,
                      std::string* error) {
  if (spec.empty()) return true;
  // One item per comma-separated field, empty ones included.
  for (std::size_t pos = 0; pos <= spec.size();) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = item.find('=');
    const std::string key = item.substr(0, std::min(eq, item.size()));
    const std::string val = eq == std::string::npos ? "" : item.substr(eq + 1);
    char* end = nullptr;
    const double v = std::strtod(val.c_str(), &end);
    if (key.empty() || val.empty() || *end != '\0' || !std::isfinite(v) || v < 0.0) {
      *error = "--fault-plan: expected key=value with a finite value >= 0, got '" +
               item + "'";
      return false;
    }
    std::size_t* count = key == "contact"   ? &plan->contact_loss_events
                         : key == "link"    ? &plan->link_bursts
                         : key == "element" ? &plan->element_faults
                                            : nullptr;
    if (count != nullptr) {
      // Checked before the cast: a fraction would truncate silently and a
      // huge value overflow the conversion.
      if (v != std::floor(v) || v > static_cast<double>(kMaxFaultEventsPerKind)) {
        *error = "--fault-plan: " + key + " must be a whole count in [0, " +
                 std::to_string(kMaxFaultEventsPerKind) + "], got '" + val + "'";
        return false;
      }
      *count = static_cast<std::size_t>(v);
    } else if (key != "unrecoverable") {
      *error = "--fault-plan: unknown key '" + key +
               "' (want contact, link, element, unrecoverable)";
      return false;
    } else if (v > 1.0) {
      *error = "--fault-plan: unrecoverable must be a probability in [0, 1], got '" +
               val + "'";
      return false;
    } else {
      plan->unrecoverable_prob = v;
    }
  }
  return true;
}

FaultPlan::FaultPlan(const FaultPlanConfig& config, std::uint64_t seed,
                     std::size_t array_rows, std::size_t array_cols)
    : link_config_(config.link) {
  if (config.min_onset_s < 0.0 || config.horizon_s <= config.min_onset_s) {
    throw std::invalid_argument{"FaultPlan: need 0 <= min_onset_s < horizon_s"};
  }
  if (config.element_faults > 0 && (array_rows == 0 || array_cols == 0)) {
    throw std::invalid_argument{"FaultPlan: element faults need a nonempty array"};
  }

  // Fixed generation order (contact, link, element), each event drawing a
  // fixed number of values: the schedule depends only on (config, seed,
  // array shape), never on call patterns.
  Rng rng{seed};
  events_.reserve(config.contact_loss_events + config.link_bursts +
                  config.element_faults);
  for (std::size_t i = 0; i < config.contact_loss_events; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kContactLoss;
    e.at_s = rng.uniform(config.min_onset_s, config.horizon_s);
    e.duration_s = config.contact_loss_duration_s;
    e.throw_count = rng.bernoulli(config.unrecoverable_prob) ? kUnrecoverableThrows : 1;
    events_.push_back(e);
  }
  for (std::size_t i = 0; i < config.link_bursts; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kLinkBurst;
    e.at_s = rng.uniform(config.min_onset_s, config.horizon_s);
    e.duration_s = config.link_burst_duration_s;
    e.throw_count = 0;  // pure degradation; the decoder absorbs it
    events_.push_back(e);
  }
  for (std::size_t i = 0; i < config.element_faults; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kElementFault;
    e.at_s = rng.uniform(config.min_onset_s, config.horizon_s);
    e.row = static_cast<std::size_t>(rng.uniform_below(array_rows));
    e.col = static_cast<std::size_t>(rng.uniform_below(array_cols));
    e.element_fault = rng.bernoulli(0.5) ? core::ElementFault::kNotReleased
                                         : core::ElementFault::kStuckDown;
    e.throw_count = 0;  // graceful degradation via element re-route
    events_.push_back(e);
  }
  sort_();
}

void FaultPlan::add(const FaultEvent& event) {
  events_.push_back(event);
  sort_();
}

bool FaultPlan::has_link_bursts() const noexcept {
  return std::any_of(events_.begin(), events_.end(), [](const FaultEvent& e) {
    return e.kind == FaultKind::kLinkBurst;
  });
}

std::string FaultPlan::describe(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kContactLoss: {
      std::string s = "contact loss at " + format_seconds(event.at_s) + " s for " +
                      format_seconds(event.duration_s) + " s";
      if (event.throw_count == kUnrecoverableThrows) s += " (unrecoverable)";
      return s;
    }
    case FaultKind::kLinkBurst:
      return "link corruption burst at " + format_seconds(event.at_s) + " s for " +
             format_seconds(event.duration_s) + " s";
    case FaultKind::kElementFault:
      return "element (" + std::to_string(event.row) + "," +
             std::to_string(event.col) + ") " + element_fault_name(event.element_fault) +
             " at " + format_seconds(event.at_s) + " s";
  }
  return "unknown fault";
}

void FaultPlan::sort_() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at_s < b.at_s; });
}

}  // namespace tono::fleet
