// artifacts.hpp — measurement artefacts for robustness testing.
//
// Field recordings (the paper's §4 "field tests have to be performed")
// suffer baseline wander from posture, motion spikes from wrist movement
// and sensor-contact noise. The injector adds these to a contact-pressure
// stream so beat detection and calibration can be stress-tested.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.hpp"

namespace tono::bio {

struct ArtifactConfig {
  /// Random-walk baseline wander [mmHg/√s].
  double wander_mmhg_per_sqrt_s{0.3};
  /// Mean rate of motion spikes [1/s].
  double spike_rate_hz{0.05};
  /// Spike amplitude distribution (exponential mean) [mmHg].
  double spike_amplitude_mmhg{15.0};
  /// Spike decay time constant [s].
  double spike_decay_s{0.15};
  /// Broadband contact noise, rms [mmHg].
  double contact_noise_mmhg{0.15};
  std::uint64_t seed{99};
};

class ArtifactInjector {
 public:
  explicit ArtifactInjector(const ArtifactConfig& config);

  /// Artefact value to add at the next sample (advance by dt). Exact for any
  /// dt: wander variance scales with dt, and every spike that arrives inside
  /// the step is applied, decayed from its own arrival time.
  [[nodiscard]] double next(double dt_s);

  /// Applies artefacts to a whole record in place at the given rate.
  void apply(std::span<double> samples, double sample_rate_hz);

  /// Number of spikes injected so far.
  [[nodiscard]] std::size_t spike_count() const noexcept { return spike_count_; }

  /// Checkpointing: wander/noise and spike Rng streams, wander/spike state
  /// and spike count.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  ArtifactConfig config_;
  Rng rng_;        ///< wander and contact noise: drawn every step
  Rng spike_rng_;  ///< spike arrivals, signs and amplitudes: drawn per spike
  double wander_mmhg_{0.0};
  double spike_level_mmhg_{0.0};
  double next_spike_in_s_{0.0};
  std::size_t spike_count_{0};
};

}  // namespace tono::bio
