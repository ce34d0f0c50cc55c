#include "src/bio/artifacts.hpp"

#include <cmath>
#include <stdexcept>

#include "src/common/checkpoint.hpp"

namespace tono::bio {

ArtifactInjector::ArtifactInjector(const ArtifactConfig& config)
    : config_(config), rng_(config.seed), spike_rng_(rng_.fork_named("spikes")) {
  if (config_.spike_rate_hz < 0.0 || config_.spike_decay_s <= 0.0) {
    throw std::invalid_argument{"ArtifactInjector: bad spike parameters"};
  }
  next_spike_in_s_ = config_.spike_rate_hz > 0.0
                         ? spike_rng_.exponential(config_.spike_rate_hz)
                         : 1e12;
}

double ArtifactInjector::next(double dt_s) {
  if (dt_s <= 0.0) throw std::invalid_argument{"ArtifactInjector: dt must be > 0"};
  // Baseline wander.
  wander_mmhg_ += config_.wander_mmhg_per_sqrt_s * std::sqrt(dt_s) * rng_.gaussian();
  // Spikes: the level carried in decays over the whole step; every Poisson
  // arrival inside the step is added, decayed from its own arrival time to
  // the end of the step. The spike stream is drawn only per arrival, so the
  // spike train is the same for any dt.
  spike_level_mmhg_ *= std::exp(-dt_s / config_.spike_decay_s);
  double left_s = dt_s;  // from the scheduled arrival time to the step's end
  while (config_.spike_rate_hz > 0.0 && next_spike_in_s_ <= left_s) {
    left_s -= next_spike_in_s_;
    const double sign = spike_rng_.bernoulli(0.5) ? 1.0 : -1.0;
    const double amplitude = spike_rng_.exponential(1.0 / config_.spike_amplitude_mmhg);
    spike_level_mmhg_ += sign * amplitude * std::exp(-left_s / config_.spike_decay_s);
    ++spike_count_;
    next_spike_in_s_ = spike_rng_.exponential(config_.spike_rate_hz);
  }
  next_spike_in_s_ -= left_s;
  // Contact noise.
  const double noise = config_.contact_noise_mmhg > 0.0
                           ? rng_.gaussian(0.0, config_.contact_noise_mmhg)
                           : 0.0;
  return wander_mmhg_ + spike_level_mmhg_ + noise;
}

void ArtifactInjector::serialize(CheckpointWriter& out) const {
  out.section("artifact_injector");
  rng_.serialize(out);
  spike_rng_.serialize(out);
  out.f64(wander_mmhg_);
  out.f64(spike_level_mmhg_);
  out.f64(next_spike_in_s_);
  out.size(spike_count_);
}

void ArtifactInjector::restore(CheckpointReader& in) {
  in.section("artifact_injector");
  rng_.restore(in);
  spike_rng_.restore(in);
  wander_mmhg_ = in.f64();
  spike_level_mmhg_ = in.f64();
  next_spike_in_s_ = in.f64();
  spike_count_ = in.size();
}

void ArtifactInjector::apply(std::span<double> samples, double sample_rate_hz) {
  if (sample_rate_hz <= 0.0) {
    throw std::invalid_argument{"ArtifactInjector: sample rate must be > 0"};
  }
  const double dt = 1.0 / sample_rate_hz;
  for (double& s : samples) s += next(dt);
}

}  // namespace tono::bio
