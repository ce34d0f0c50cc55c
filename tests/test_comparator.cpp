// Tests for the clocked comparator.
#include "src/analog/comparator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace tono::analog {
namespace {

ComparatorConfig quiet() {
  ComparatorConfig c;
  c.noise_vrms = 0.0;
  c.metastable_band_v = 0.0;
  return c;
}

TEST(Comparator, SignDecisions) {
  Comparator cmp{quiet(), tono::Rng{1}};
  EXPECT_EQ(cmp.decide(0.5), 1);
  EXPECT_EQ(cmp.decide(-0.5), -1);
}

TEST(Comparator, OffsetShiftsThreshold) {
  ComparatorConfig c = quiet();
  c.offset_v = 0.1;
  Comparator cmp{c, tono::Rng{1}};
  EXPECT_EQ(cmp.decide(0.05), -1);  // below offset
  EXPECT_EQ(cmp.decide(0.15), 1);
}

TEST(Comparator, HysteresisFavorsLastDecision) {
  ComparatorConfig c = quiet();
  c.hysteresis_v = 0.2;
  Comparator cmp{c, tono::Rng{1}};
  EXPECT_EQ(cmp.decide(1.0), 1);
  // Slightly negative input stays high inside the hysteresis band.
  EXPECT_EQ(cmp.decide(-0.05), 1);
  // Beyond the band it flips.
  EXPECT_EQ(cmp.decide(-0.15), -1);
  // And now slightly positive stays low.
  EXPECT_EQ(cmp.decide(0.05), -1);
}

TEST(Comparator, MetastableBandRandomizes) {
  ComparatorConfig c = quiet();
  c.metastable_band_v = 1e-3;
  Comparator cmp{c, tono::Rng{7}};
  int pos = 0;
  for (int i = 0; i < 1000; ++i) {
    if (cmp.decide(0.0) > 0) ++pos;
  }
  EXPECT_GT(pos, 300);
  EXPECT_LT(pos, 700);
}

TEST(Comparator, DeterministicWithSameSeed) {
  ComparatorConfig c;
  c.noise_vrms = 1e-3;
  Comparator a{c, tono::Rng{42}};
  Comparator b{c, tono::Rng{42}};
  for (int i = 0; i < 200; ++i) {
    const double v = (i % 7 - 3) * 1e-4;
    EXPECT_EQ(a.decide(v), b.decide(v));
  }
}

TEST(Comparator, NoiseFlipsMarginalDecisions) {
  ComparatorConfig c = quiet();
  c.noise_vrms = 10e-3;
  Comparator cmp{c, tono::Rng{3}};
  int pos = 0;
  for (int i = 0; i < 2000; ++i) {
    if (cmp.decide(1e-3) > 0) ++pos;  // input well inside the noise
  }
  EXPECT_GT(pos, 900);    // biased positive…
  EXPECT_LT(pos, 1500);   // …but not deterministic
}

TEST(Comparator, LastDecisionTracks) {
  Comparator cmp{quiet(), tono::Rng{1}};
  (void)cmp.decide(1.0);
  EXPECT_EQ(cmp.last_decision(), 1);
  (void)cmp.decide(-1.0);
  EXPECT_EQ(cmp.last_decision(), -1);
}

// A planned block must be bit-identical to decide for any input sequence —
// including when metastable events force the plan to resync mid-frame. The
// block kernel (bank_kernel.hpp) decides from plan() noise with the same
// expression decide() uses, keeps the hysteresis memory itself, and hands
// in-band decisions to decide_metastable_at(i); this drives exactly that
// protocol, so the resync stays unit-tested on its own.
void expect_planned_matches_scalar(const ComparatorConfig& c,
                                   std::uint64_t seed, int frames,
                                   std::size_t frame_len) {
  Comparator scalar{c, tono::Rng{seed}};
  Comparator planned{c, tono::Rng{seed}};
  std::vector<double> noise(frame_len);
  tono::Rng inputs{seed ^ 0xABCDu};
  for (int f = 0; f < frames; ++f) {
    planned.plan(noise.data(), frame_len);
    int last = planned.last_decision();
    for (std::size_t i = 0; i < frame_len; ++i) {
      const double input = inputs.uniform(-0.2, 0.2);
      double v = input - c.offset_v;
      if (c.noise_vrms > 0.0) v += noise[i];
      v -= 0.5 * c.hysteresis_v * static_cast<double>(-last);
      if (std::abs(v) < c.metastable_band_v) {
        last = planned.decide_metastable_at(i);
      } else {
        last = v >= 0.0 ? 1 : -1;
      }
      ASSERT_EQ(scalar.decide(input), last) << "frame=" << f << " i=" << i;
    }
    planned.set_last_decision(last);
    ASSERT_EQ(scalar.last_decision(), planned.last_decision()) << "frame=" << f;
  }
}

TEST(Comparator, PlannedMatchesScalarWithNoise) {
  ComparatorConfig c;  // defaults: noise on, 10 µV metastable band
  expect_planned_matches_scalar(c, 2025, 8, 128);
}

TEST(Comparator, PlannedMatchesScalarUnderHeavyMetastability) {
  ComparatorConfig c;
  c.metastable_band_v = 0.15;  // most decisions inside the band → resyncs
  expect_planned_matches_scalar(c, 7, 8, 128);
}

TEST(Comparator, PlannedMatchesScalarWithNoiseDisabled) {
  ComparatorConfig c = quiet();
  c.metastable_band_v = 0.05;  // Bernoulli draws straight off the stream
  expect_planned_matches_scalar(c, 11, 4, 64);
}

TEST(Comparator, PlannedMatchesScalarWithHysteresisAndOffset) {
  ComparatorConfig c;
  c.offset_v = 5e-3;
  c.hysteresis_v = 20e-3;
  c.metastable_band_v = 0.02;
  expect_planned_matches_scalar(c, 99, 6, 128);
}

}  // namespace
}  // namespace tono::analog
