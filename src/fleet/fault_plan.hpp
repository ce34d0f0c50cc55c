// fault_plan.hpp — seeded per-session schedules of injectable runtime faults.
//
// The fleet's robustness story (docs/FLEET.md): continuous monitoring must be
// exercised against realistic disturbance schedules, not just clean runs. A
// FaultPlan is the schedule — a sorted list of FaultEvents a PatientSession
// executes against itself as its stream time passes each onset:
//
//   kContactLoss   — the wrist leaves the sensor: the contact field reads
//                    0 Pa for `duration_s`. Transient; by default the first
//                    step into the window throws once (exercising the
//                    scheduler's quarantine → readmit path), after which the
//                    window applies as plain signal degradation.
//   kLinkBurst     — the Fig. 3 USB link corrupts frames for `duration_s`
//                    (LinkFaultInjector, src/core/telemetry.hpp); the
//                    decoder's CRC/resync accounting turns corruption into
//                    counted losses, never wrong samples.
//   kElementFault  — a membrane fails mid-run (core::ElementFault, runtime
//                    flavour of the config-time yield faults). Permanent; the
//                    session degrades gracefully by re-routing readout to the
//                    first healthy element, and only throws when none is left.
//
// Determinism contract: a generated plan depends only on (FaultPlanConfig,
// seed, array shape). The session seeds it from its own forked RNG stream, so
// the schedule — and everything downstream of it — is bit-identical whether
// the session runs solo, in a serial fleet, or across N threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/core/chip_config.hpp"
#include "src/core/telemetry.hpp"

namespace tono::fleet {

enum class FaultKind : std::uint8_t {
  kContactLoss,   ///< transient sensor-contact loss (field reads 0 Pa)
  kLinkBurst,     ///< telemetry link corruption burst
  kElementFault,  ///< a membrane fails mid-run (permanent)
};

[[nodiscard]] std::string to_string(FaultKind kind);

/// A fault event that throws this many times never stops throwing: the
/// session strikes out through the scheduler's readmission budget to
/// kRetired.
inline constexpr std::size_t kUnrecoverableThrows =
    std::numeric_limits<std::size_t>::max();

struct FaultEvent {
  FaultKind kind{FaultKind::kContactLoss};
  double at_s{0.0};        ///< onset, session stream time (0 = monitoring start)
  double duration_s{0.0};  ///< degradation window; element faults are permanent
  std::size_t row{0};      ///< element faults only
  std::size_t col{0};
  core::ElementFault element_fault{core::ElementFault::kNotReleased};
  /// How many step attempts into this event abort with an exception before
  /// the degradation applies silently. Each throw is one quarantine strike;
  /// 0 = degrade without ever throwing, kUnrecoverableThrows = strike out.
  std::size_t throw_count{1};
};

struct FaultPlanConfig {
  std::size_t contact_loss_events{0};
  std::size_t link_bursts{0};
  std::size_t element_faults{0};
  /// Generated onsets are uniform in [min_onset_s, horizon_s).
  double min_onset_s{0.25};
  double horizon_s{8.0};
  double contact_loss_duration_s{0.40};
  double link_burst_duration_s{0.40};
  /// Probability a generated contact-loss event is unrecoverable (throws on
  /// every readmission) instead of throwing exactly once.
  double unrecoverable_prob{0.0};
  /// Per-frame corruption model applied during link bursts.
  core::LinkFaultConfig link{};

  [[nodiscard]] bool empty() const noexcept {
    return contact_loss_events + link_bursts + element_faults == 0;
  }
};

/// Largest per-kind event count parse_fault_plan() accepts — far beyond any
/// schedule a monitoring session can play out, far below where a count stops
/// converting exactly to size_t.
inline constexpr std::size_t kMaxFaultEventsPerKind = 1000;

/// Parses the ward_server "--fault-plan" spec,
/// "contact=1,link=1,element=1[,unrecoverable=0.1]": per-session event counts
/// (and the unrecoverable probability) of the seeded schedule each session
/// generates from its own forked fault stream. An empty spec is a clean run.
/// Counts must be whole numbers in [0, kMaxFaultEventsPerKind] and
/// `unrecoverable` a probability in [0, 1]. A non-finite value, an unknown
/// key or an empty item returns false with `error` filled.
bool parse_fault_plan(const std::string& spec, FaultPlanConfig* plan,
                      std::string* error);

/// The schedule itself: generated from (config, seed, array shape) and/or
/// hand-written via add(). events() is always sorted by onset (stable order
/// for ties: generation order, then insertion order).
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Generates the configured number of events entirely from `seed`. Element
  /// fault coordinates are drawn inside rows × cols; both dimensions must be
  /// nonzero when element faults are requested.
  FaultPlan(const FaultPlanConfig& config, std::uint64_t seed,
            std::size_t array_rows, std::size_t array_cols);

  /// Appends a hand-written event (tests, targeted scenarios) and re-sorts.
  void add(const FaultEvent& event);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] bool has_link_bursts() const noexcept;
  [[nodiscard]] const core::LinkFaultConfig& link_config() const noexcept {
    return link_config_;
  }

  /// Human-readable one-liner for fault logs, deterministic across
  /// platforms: "contact loss at 1.250 s for 0.400 s".
  [[nodiscard]] static std::string describe(const FaultEvent& event);

 private:
  void sort_();

  std::vector<FaultEvent> events_;
  core::LinkFaultConfig link_config_{};
};

}  // namespace tono::fleet
