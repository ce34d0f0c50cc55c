// Tests for the arterial pulse generator with physiological variability.
#include "src/bio/pulse_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/checkpoint.hpp"
#include "src/common/statistics.hpp"

namespace tono::bio {
namespace {

TEST(PulseGenerator, PressureWithinPhysiologicalBand) {
  ArterialPulseGenerator gen{PulseConfig{}};
  const auto wave = gen.generate(250.0, 250 * 30);
  EXPECT_GT(min_value(wave), 60.0);
  EXPECT_LT(max_value(wave), 140.0);
}

TEST(PulseGenerator, MeanSetpointsTrackConfig) {
  PulseConfig cfg;
  cfg.drift_mmhg_per_sqrt_s = 0.0;
  ArterialPulseGenerator gen{cfg};
  (void)gen.generate(250.0, 250 * 60);
  EXPECT_NEAR(gen.mean_systolic_mmhg(), 120.0, 3.0);
  EXPECT_NEAR(gen.mean_diastolic_mmhg(), 80.0, 3.0);
}

TEST(PulseGenerator, BeatIntervalsMatchHeartRate) {
  PulseConfig cfg;
  cfg.heart_rate_bpm = 60.0;
  cfg.hrv_jitter = 0.0;
  cfg.mayer_depth = 0.0;
  cfg.rsa_depth = 0.0;
  ArterialPulseGenerator gen{cfg};
  (void)gen.generate(500.0, 500 * 30);
  const auto& truth = gen.beat_truth();
  ASSERT_GE(truth.size(), 25u);
  for (const auto& b : truth) EXPECT_NEAR(b.interval_s, 1.0, 0.01);
}

TEST(PulseGenerator, HrvJitterSpreadsIntervals) {
  PulseConfig cfg;
  cfg.hrv_jitter = 0.05;
  cfg.mayer_depth = 0.0;
  cfg.rsa_depth = 0.0;
  ArterialPulseGenerator gen{cfg};
  (void)gen.generate(500.0, 500 * 120);
  std::vector<double> intervals;
  for (const auto& b : gen.beat_truth()) intervals.push_back(b.interval_s);
  ASSERT_GE(intervals.size(), 50u);
  EXPECT_GT(stddev(intervals) / mean(intervals), 0.02);
}

TEST(PulseGenerator, TruthBeatsAreOrderedAndContiguous) {
  ArterialPulseGenerator gen{PulseConfig{}};
  (void)gen.generate(500.0, 500 * 20);
  const auto& truth = gen.beat_truth();
  ASSERT_GE(truth.size(), 2u);
  for (std::size_t i = 1; i < truth.size(); ++i) {
    EXPECT_GT(truth[i].onset_s, truth[i - 1].onset_s);
    EXPECT_NEAR(truth[i].onset_s, truth[i - 1].onset_s + truth[i - 1].interval_s, 0.01);
  }
}

TEST(PulseGenerator, TruthSysAboveDia) {
  ArterialPulseGenerator gen{PulseConfig{}};
  (void)gen.generate(500.0, 500 * 30);
  for (const auto& b : gen.beat_truth()) {
    EXPECT_GT(b.systolic_mmhg, b.diastolic_mmhg);
    EXPECT_GT(b.map_mmhg, b.diastolic_mmhg);
    EXPECT_LT(b.map_mmhg, b.systolic_mmhg);
  }
}

TEST(PulseGenerator, MapClosestToDiastolic) {
  // Arterial MAP sits in the lower half of the pulse (diastole dominates).
  PulseConfig cfg;
  cfg.drift_mmhg_per_sqrt_s = 0.0;
  ArterialPulseGenerator gen{cfg};
  (void)gen.generate(500.0, 500 * 30);
  for (const auto& b : gen.beat_truth()) {
    EXPECT_LT(b.map_mmhg, (b.systolic_mmhg + b.diastolic_mmhg) / 2.0);
  }
}

TEST(PulseGenerator, DeterministicAcrossRuns) {
  ArterialPulseGenerator a{PulseConfig{}};
  ArterialPulseGenerator b{PulseConfig{}};
  const auto wa = a.generate(250.0, 1000);
  const auto wb = b.generate(250.0, 1000);
  EXPECT_EQ(wa, wb);
}

TEST(PulseGenerator, SeedChangesWaveform) {
  PulseConfig c1;
  c1.seed = 1;
  PulseConfig c2;
  c2.seed = 2;
  const auto wa = ArterialPulseGenerator{c1}.generate(250.0, 2000);
  const auto wb = ArterialPulseGenerator{c2}.generate(250.0, 2000);
  EXPECT_NE(wa, wb);
}

TEST(PulseGenerator, RespirationModulatesBaseline) {
  PulseConfig with;
  with.respiration_baseline_mmhg = 5.0;
  with.drift_mmhg_per_sqrt_s = 0.0;
  PulseConfig without = with;
  without.respiration_baseline_mmhg = 0.0;
  const auto ww = ArterialPulseGenerator{with}.generate(100.0, 100 * 30);
  const auto wo = ArterialPulseGenerator{without}.generate(100.0, 100 * 30);
  // Respiration widens the overall range.
  EXPECT_GT(peak_to_peak(ww), peak_to_peak(wo) + 2.0);
}

TEST(PulseGenerator, RejectsBadConfig) {
  PulseConfig bad;
  bad.systolic_mmhg = 70.0;  // below diastolic
  EXPECT_THROW((ArterialPulseGenerator{bad}), std::invalid_argument);
  PulseConfig bad2;
  bad2.heart_rate_bpm = 10.0;
  EXPECT_THROW((ArterialPulseGenerator{bad2}), std::invalid_argument);
}

TEST(PulseGenerator, RejectsBadDt) {
  ArterialPulseGenerator gen{PulseConfig{}};
  EXPECT_THROW((void)gen.sample(0.0), std::invalid_argument);
  EXPECT_THROW((void)gen.generate(0.0, 10), std::invalid_argument);
}

// Property: generator honours different clinical setpoints.
struct Setpoint {
  double sys;
  double dia;
  double hr;
};

class SetpointTest : public ::testing::TestWithParam<Setpoint> {};

TEST_P(SetpointTest, TracksTarget) {
  PulseConfig cfg;
  cfg.systolic_mmhg = GetParam().sys;
  cfg.diastolic_mmhg = GetParam().dia;
  cfg.heart_rate_bpm = GetParam().hr;
  cfg.drift_mmhg_per_sqrt_s = 0.0;
  ArterialPulseGenerator gen{cfg};
  (void)gen.generate(250.0, 250 * 40);
  EXPECT_NEAR(gen.mean_systolic_mmhg(), GetParam().sys, 4.0);
  EXPECT_NEAR(gen.mean_diastolic_mmhg(), GetParam().dia, 4.0);
  const auto& truth = gen.beat_truth();
  const double expected_beats = 40.0 * GetParam().hr / 60.0;
  EXPECT_NEAR(static_cast<double>(truth.size()), expected_beats, expected_beats * 0.1);
}

INSTANTIATE_TEST_SUITE_P(Clinical, SetpointTest,
                         ::testing::Values(Setpoint{120.0, 80.0, 72.0},
                                           Setpoint{100.0, 65.0, 55.0},
                                           Setpoint{150.0, 95.0, 90.0},
                                           Setpoint{180.0, 110.0, 110.0}));

// --- Regression tests for PR 10's unbounded-truth and single-close-out
// bugs: sample() used to close at most one beat per call (a large dt lost
// every beat but one), and every closed beat stayed in truth_ forever (every
// checkpoint serialized an ever-growing log).

TEST(PulseGenerator, LargeDtClosesEveryElapsedBeat) {
  PulseConfig cfg;
  cfg.heart_rate_bpm = 60.0;
  cfg.hrv_jitter = 0.0;
  ArterialPulseGenerator gen{cfg};
  // 30 s advanced in 5 s strides: ~30 one-second beats must close, not ~6.
  for (int i = 0; i < 6; ++i) (void)gen.sample(5.0);
  EXPECT_NEAR(static_cast<double>(gen.beats_completed()), 30.0, 3.0);
  // The log is ordered and contiguous even though whole beats had zero
  // samples.
  const auto& truth = gen.beat_truth();
  ASSERT_GE(truth.size(), 25u);
  for (std::size_t i = 1; i < truth.size(); ++i) {
    EXPECT_NEAR(truth[i].onset_s, truth[i - 1].onset_s + truth[i - 1].interval_s, 1e-9);
    // Beats no sample landed in still get their full waveform truth.
    EXPECT_GT(truth[i].systolic_mmhg, truth[i].diastolic_mmhg + 10.0);
  }
}

TEST(PulseGenerator, LargeDtKeepsBeatRateOnSchedule) {
  // With jitter disabled the interval stream is deterministic, so a coarse
  // stride must close the same number of beats as a fine one over the same
  // span (the pre-fix code closed one beat per sample() call at most).
  PulseConfig cfg;
  cfg.heart_rate_bpm = 75.0;
  cfg.hrv_jitter = 0.0;
  ArterialPulseGenerator coarse{cfg};
  ArterialPulseGenerator fine{cfg};
  for (int i = 0; i < 10; ++i) (void)coarse.sample(2.0);
  for (int i = 0; i < 2000; ++i) (void)fine.sample(0.01);
  const auto coarse_beats = coarse.beats_completed();
  const auto fine_beats = fine.beats_completed();
  EXPECT_NEAR(static_cast<double>(coarse_beats), static_cast<double>(fine_beats), 2.0);
  EXPECT_GT(coarse_beats, 20u);  // ~25 beats in 20 s at 75 bpm
}

TEST(PulseGenerator, TruthLogStaysBounded) {
  PulseConfig cfg;
  cfg.heart_rate_bpm = 120.0;
  cfg.truth_capacity = 64;
  ArterialPulseGenerator gen{cfg};
  for (int i = 0; i < 60 * 500; ++i) (void)gen.sample(0.01);  // 300 s, ~600 beats
  EXPECT_GT(gen.beats_completed(), 550u);
  // Bounded: capacity plus the 25% amortization headroom, never more.
  EXPECT_LE(gen.beat_truth().size(), 64u + 16u);
  EXPECT_EQ(gen.truth_dropped() + gen.beat_truth().size(), gen.beats_completed());
  // All-beats running means keep covering dropped beats.
  EXPECT_NEAR(gen.mean_systolic_mmhg(), cfg.systolic_mmhg, 6.0);
  EXPECT_NEAR(gen.mean_diastolic_mmhg(), cfg.diastolic_mmhg, 6.0);
  // The retained tail is the most recent beats, still contiguous.
  const auto& truth = gen.beat_truth();
  for (std::size_t i = 1; i < truth.size(); ++i) {
    EXPECT_NEAR(truth[i].onset_s, truth[i - 1].onset_s + truth[i - 1].interval_s, 1e-9);
  }
}

TEST(PulseGenerator, UnboundedModeKeepsEverything) {
  PulseConfig cfg;
  cfg.heart_rate_bpm = 120.0;
  cfg.truth_capacity = 0;  // opt-out
  ArterialPulseGenerator gen{cfg};
  for (int i = 0; i < 60 * 100; ++i) (void)gen.sample(0.01);
  EXPECT_EQ(gen.truth_dropped(), 0u);
  EXPECT_EQ(gen.beat_truth().size(), gen.beats_completed());
}

TEST(PulseGenerator, DrainTruthEmptiesLogAndKeepsCounters) {
  PulseConfig cfg;
  cfg.heart_rate_bpm = 60.0;
  ArterialPulseGenerator gen{cfg};
  for (int i = 0; i < 1000; ++i) (void)gen.sample(0.01);
  const auto completed = gen.beats_completed();
  ASSERT_GT(completed, 5u);
  const auto drained = gen.drain_truth();
  EXPECT_EQ(drained.size(), completed);
  EXPECT_TRUE(gen.beat_truth().empty());
  EXPECT_EQ(gen.beats_completed(), completed);  // counters survive the drain

  // New beats land in the emptied log and drain again cleanly.
  for (int i = 0; i < 500; ++i) (void)gen.sample(0.01);
  const auto second = gen.drain_truth();
  EXPECT_EQ(gen.beats_completed(), completed + second.size());
  ASSERT_FALSE(second.empty());
  EXPECT_GT(second.front().onset_s, drained.back().onset_s);
}

TEST(PulseGenerator, BoundedLogCheckpointRoundTripIsBitIdentical) {
  PulseConfig cfg;
  cfg.heart_rate_bpm = 90.0;
  cfg.truth_capacity = 32;
  ArterialPulseGenerator a{cfg};
  for (int i = 0; i < 12000; ++i) (void)a.sample(0.01);  // far past the cap

  CheckpointWriter out;
  a.serialize(out);
  const auto blob = out.finish(1);
  // The bounded log keeps the blob small no matter how long the run was.
  EXPECT_LT(blob.size(), 16u * 1024u);

  ArterialPulseGenerator b{cfg};
  CheckpointReader in{blob};
  b.restore(in);
  EXPECT_EQ(b.beats_completed(), a.beats_completed());
  EXPECT_EQ(b.truth_dropped(), a.truth_dropped());
  ASSERT_EQ(b.beat_truth().size(), a.beat_truth().size());
  for (std::size_t i = 0; i < a.beat_truth().size(); ++i) {
    EXPECT_EQ(b.beat_truth()[i].onset_s, a.beat_truth()[i].onset_s);
    EXPECT_EQ(b.beat_truth()[i].systolic_mmhg, a.beat_truth()[i].systolic_mmhg);
  }
  // Continuing both generators stays bit-identical.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(a.sample(0.01), b.sample(0.01)) << "sample " << i;
  }
  EXPECT_EQ(a.mean_systolic_mmhg(), b.mean_systolic_mmhg());
}

// --- The generator is stepped once per modulator clock by per-clock reads and
// once per output frame by block reads; every step must be exact in dt.

constexpr double kClockDt = 1.0 / 128000.0;  // the paper chip's modulator clock
constexpr double kFrameDt = 1e-3;            // one 1 kS/s output frame

std::vector<BeatTruth> run_truth(PulseConfig cfg, double dt_s, std::size_t steps) {
  cfg.truth_capacity = 0;
  ArterialPulseGenerator gen{cfg};
  for (std::size_t i = 0; i < steps; ++i) (void)gen.sample(dt_s);
  return gen.drain_truth();
}

void expect_same_beats_at_clock_and_frame_rate(const PulseConfig& cfg) {
  // 62 s: 7 936 000 clock steps against 62 000 frame steps.
  const auto fine = run_truth(cfg, kClockDt, 7'936'000);
  const auto coarse = run_truth(cfg, kFrameDt, 62'000);
  ASSERT_GE(fine.size(), 60u);
  // The last beat may close on either side of the final step.
  ASSERT_LE(std::max(fine.size(), coarse.size()) - std::min(fine.size(), coarse.size()), 1u);
  const std::size_t n = std::min(fine.size(), coarse.size());
  for (std::size_t i = 0; i < n; ++i) {
    // The schedule (jitter, AF spread, onsets, intervals) is bit-identical,
    // and so is the truth: it is read off the waveform on a fixed per-beat
    // grid, not from the caller's samples (well inside a 0.05 mmHg bound).
    ASSERT_EQ(fine[i].onset_s, coarse[i].onset_s) << "beat " << i;
    ASSERT_EQ(fine[i].interval_s, coarse[i].interval_s) << "beat " << i;
    ASSERT_EQ(fine[i].systolic_mmhg, coarse[i].systolic_mmhg) << "beat " << i;
    ASSERT_EQ(fine[i].diastolic_mmhg, coarse[i].diastolic_mmhg) << "beat " << i;
    ASSERT_EQ(fine[i].map_mmhg, coarse[i].map_mmhg) << "beat " << i;
  }
}

TEST(PulseGeneratorStep, NormalBeatsIdenticalAtClockAndFrameRate) {
  expect_same_beats_at_clock_and_frame_rate(PatientPresets::normotensive());
}

TEST(PulseGeneratorStep, AtrialFibrillationBeatsIdenticalAtClockAndFrameRate) {
  expect_same_beats_at_clock_and_frame_rate(PatientPresets::atrial_fibrillation());
}

TEST(PulseGeneratorStep, DriftVarianceIsExactAtBothRates) {
  // The drift walk, observed at the current beat onset t, is N(0, c²·t)
  // whatever dt stepped it there. Over 256 seeds the normalized value
  // z = drift / (c·√t) has unit variance: the sample variance of 256 unit
  // normals has SD √(2/255) ≈ 0.089, so ±0.3 is a 3.4σ band and the mean's
  // SD is 1/16, so ±0.25 is 4σ. The seeds are fixed, so the test is
  // deterministic.
  constexpr int kSeeds = 256;
  constexpr double kSeconds = 2.0;
  PulseConfig cfg;
  cfg.drift_mmhg_per_sqrt_s = 0.4;
  std::vector<double> z;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    cfg.seed = static_cast<std::uint64_t>(seed);
    ArterialPulseGenerator fine{cfg};
    ArterialPulseGenerator coarse{cfg};
    for (long i = 0; i < std::lround(kSeconds / kClockDt); ++i) (void)fine.sample(kClockDt);
    for (long i = 0; i < std::lround(kSeconds / kFrameDt); ++i) (void)coarse.sample(kFrameDt);
    ASSERT_EQ(fine.beat_onset_s(), coarse.beat_onset_s()) << "seed " << seed;
    ASSERT_EQ(fine.drift_mmhg(), coarse.drift_mmhg()) << "seed " << seed;
    ASSERT_GT(fine.beat_onset_s(), 1.0);
    z.push_back(fine.drift_mmhg() / (cfg.drift_mmhg_per_sqrt_s * std::sqrt(fine.beat_onset_s())));
  }
  EXPECT_NEAR(mean(z), 0.0, 0.25);
  EXPECT_NEAR(variance(z), 1.0, 0.3);
}

}  // namespace
}  // namespace tono::bio
