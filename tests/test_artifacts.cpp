// Tests for the measurement-artefact injector.
#include "src/bio/artifacts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/statistics.hpp"

namespace tono::bio {
namespace {

ArtifactConfig quiet() {
  ArtifactConfig c;
  c.wander_mmhg_per_sqrt_s = 0.0;
  c.spike_rate_hz = 0.0;
  c.contact_noise_mmhg = 0.0;
  return c;
}

TEST(ArtifactInjector, AllDisabledGivesZero) {
  ArtifactInjector inj{quiet()};
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(inj.next(0.001), 0.0);
}

TEST(ArtifactInjector, ContactNoiseHasConfiguredRms) {
  ArtifactConfig c = quiet();
  c.contact_noise_mmhg = 0.5;
  ArtifactInjector inj{c};
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(inj.next(0.001));
  EXPECT_NEAR(stddev(xs), 0.5, 0.02);
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
}

TEST(ArtifactInjector, WanderGrowsWithTime) {
  ArtifactConfig c = quiet();
  c.wander_mmhg_per_sqrt_s = 1.0;
  // Random-walk displacement variance after T seconds ≈ T (per-√s scale 1);
  // average over seeds.
  double short_disp = 0.0;
  double long_disp = 0.0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    c.seed = static_cast<std::uint64_t>(1000 + t);
    ArtifactInjector inj{c};
    double v = 0.0;
    for (int i = 0; i < 1000; ++i) v = inj.next(0.001);  // 1 s
    short_disp += v * v;
    for (int i = 0; i < 9000; ++i) v = inj.next(0.001);  // 10 s total
    long_disp += v * v;
  }
  EXPECT_GT(long_disp / trials, 3.0 * (short_disp / trials));
}

TEST(ArtifactInjector, SpikesOccurAtConfiguredRate) {
  ArtifactConfig c = quiet();
  c.spike_rate_hz = 1.0;
  ArtifactInjector inj{c};
  for (int i = 0; i < 100000; ++i) (void)inj.next(0.001);  // 100 s
  EXPECT_NEAR(static_cast<double>(inj.spike_count()), 100.0, 40.0);
}

TEST(ArtifactInjector, SpikesDecay) {
  ArtifactConfig c = quiet();
  c.spike_rate_hz = 1000.0;  // force an immediate spike
  c.spike_decay_s = 0.05;
  c.spike_amplitude_mmhg = 20.0;
  ArtifactInjector inj{c};
  // Trigger spikes for a few samples, then stop and watch the decay.
  double peak = 0.0;
  for (int i = 0; i < 50; ++i) peak = std::max(peak, std::abs(inj.next(0.001)));
  EXPECT_GT(peak, 0.0);
  // Disable further spikes is not possible mid-run; instead verify the decay
  // constant: level after 5 τ of quiet Poisson gaps is rarely above peak.
  ArtifactConfig c2 = quiet();
  c2.spike_rate_hz = 1e-6;  // essentially never again
  ArtifactInjector inj2{c2};
  EXPECT_DOUBLE_EQ(inj2.next(0.001), 0.0);
}

TEST(ArtifactInjector, ApplyAddsToSamples) {
  ArtifactConfig c = quiet();
  c.contact_noise_mmhg = 0.1;
  ArtifactInjector inj{c};
  std::vector<double> samples(1000, 5.0);
  inj.apply(samples, 1000.0);
  double dev = 0.0;
  for (double s : samples) dev += std::abs(s - 5.0);
  EXPECT_GT(dev, 0.0);
  EXPECT_NEAR(mean(samples), 5.0, 0.05);
}

TEST(ArtifactInjector, DeterministicWithSeed) {
  ArtifactConfig c;
  c.seed = 55;
  ArtifactInjector a{c};
  ArtifactInjector b{c};
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(a.next(0.001), b.next(0.001));
}

TEST(ArtifactInjector, RejectsBadInputs) {
  ArtifactConfig bad;
  bad.spike_decay_s = 0.0;
  EXPECT_THROW((ArtifactInjector{bad}), std::invalid_argument);
  ArtifactInjector ok{ArtifactConfig{}};
  EXPECT_THROW((void)ok.next(0.0), std::invalid_argument);
  std::vector<double> xs(10, 0.0);
  EXPECT_THROW(ok.apply(xs, 0.0), std::invalid_argument);
}

TEST(ArtifactInjector, SpikeRateHoldsAtLargeDt) {
  // 2 s steps at 1 spike/s: a step must apply every arrival inside it, not
  // at most one (which would cap the count at 1000). The Poisson count over
  // 2000 s has SD ≈ 45, so ±200 is a 4.5σ band.
  ArtifactConfig c = quiet();
  c.spike_rate_hz = 1.0;
  ArtifactInjector inj{c};
  for (int i = 0; i < 1000; ++i) (void)inj.next(2.0);
  EXPECT_NEAR(static_cast<double>(inj.spike_count()), 2000.0, 200.0);
}

TEST(ArtifactInjector, SpikeTrainAndDecayIndependentOfDt) {
  // With wander and contact noise off the value is the spike level alone:
  // Σ A_k·exp(−(t − t_k)/τ) over arrivals t_k ≤ t. Arrivals come from their
  // own stream and each decays from its own arrival time, so 0.25 s steps
  // and 1 ms steps see the same spikes and the same level at common times.
  ArtifactConfig c = quiet();
  c.spike_rate_hz = 4.0;
  c.spike_decay_s = 0.15;
  c.spike_amplitude_mmhg = 15.0;
  ArtifactInjector fine{c};
  ArtifactInjector coarse{c};
  double worst = 0.0;
  for (int k = 0; k < 400; ++k) {  // 100 s
    double fine_value = 0.0;
    for (int i = 0; i < 250; ++i) fine_value = fine.next(1e-3);
    const double coarse_value = coarse.next(0.25);
    worst = std::max(worst, std::abs(fine_value - coarse_value));
  }
  EXPECT_EQ(fine.spike_count(), coarse.spike_count());
  EXPECT_GT(coarse.spike_count(), 300u);
  EXPECT_LT(worst, 1e-9) << "mmHg";
}

}  // namespace
}  // namespace tono::bio
