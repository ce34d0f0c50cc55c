// Tests for the end-to-end blood-pressure monitoring session (§3.2 / Fig. 9).
#include "src/core/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/units.hpp"

namespace tono::core {
namespace {

ScanConfig quick_scan() {
  ScanConfig s;
  s.dwell_samples = 1200;
  s.settle_samples = 64;
  return s;
}

TEST(Monitor, FullSessionProducesCalibratedWaveform) {
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.localize(quick_scan());
  const auto cuff = mon.calibrate(12.0);
  ASSERT_TRUE(cuff.valid);
  const auto rep = mon.monitor(20.0);
  ASSERT_EQ(rep.waveform_mmhg.size(), 20000u);
  ASSERT_GE(rep.beats.beats.size(), 18u);
  // The calibrated waveform sits in the physiological band.
  for (double p : rep.waveform_mmhg) {
    EXPECT_GT(p, 40.0);
    EXPECT_LT(p, 180.0);
  }
}

TEST(Monitor, EstimatesTrackGroundTruth) {
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.localize(quick_scan());
  (void)mon.calibrate(12.0);
  const auto rep = mon.monitor(30.0);
  // Accuracy is bounded by the cuff (AAMI-style ±5 mmHg mean error).
  EXPECT_LT(std::abs(rep.systolic_error_mmhg), 6.0);
  EXPECT_LT(std::abs(rep.diastolic_error_mmhg), 6.0);
  EXPECT_LT(std::abs(rep.map_error_mmhg), 6.0);
  EXPECT_NEAR(rep.beats.heart_rate_bpm, rep.truth_heart_rate_bpm, 6.0);
}

TEST(Monitor, ContinuousBeyondCuffCapability) {
  // §1: the cuff manages ~one reading per minute; the tactile sensor streams
  // every beat. Verify the session yields dozens of per-beat readings in the
  // time a single cuff measurement would take.
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.localize(quick_scan());
  const auto cuff = mon.calibrate(12.0);
  const auto rep = mon.monitor(cuff.duration_s);  // one cuff-deflation's time
  EXPECT_GE(rep.beats.beats.size(), 40u);
}

TEST(Monitor, ReportIncludesQualityAndPwa) {
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.calibrate(10.0);
  const auto rep = mon.monitor(20.0);
  EXPECT_TRUE(rep.quality.usable);
  EXPECT_GT(rep.quality.sqi, 0.5);
  EXPECT_EQ(rep.pulse_wave.per_beat.size(), rep.beats.beats.size());
  EXPECT_GT(rep.pulse_wave.mean_dpdt_max, 100.0);
  EXPECT_NEAR(rep.pulse_wave.mean_pulse_pressure,
              rep.beats.mean_systolic - rep.beats.mean_diastolic, 1.0);
}

TEST(Monitor, CalibrationGainPositiveAndLarge) {
  // Raw values are a small fraction of full scale → mmHg/unit gain ≫ 1.
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.localize(quick_scan());
  (void)mon.calibrate(12.0);
  EXPECT_GT(mon.calibration().gain_mmhg_per_unit(), 100.0);
}

TEST(Monitor, TimeVectorMatchesOutputRate) {
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  (void)mon.calibrate(10.0);
  const auto rep = mon.monitor(5.0);
  ASSERT_EQ(rep.time_s.size(), rep.waveform_mmhg.size());
  EXPECT_NEAR(rep.time_s[1] - rep.time_s[0], 1e-3, 1e-9);
  EXPECT_GT(rep.time_s.front(), 9.9);  // continues after the calibration window
}

TEST(Monitor, PlacementOffsetWeakensButDoesNotBreak) {
  WristModel offset;
  offset.placement_offset_m = 1.0e-3;  // 1 mm off the artery
  BloodPressureMonitor mon{ChipConfig::paper_chip(), offset};
  (void)mon.localize(quick_scan());
  (void)mon.calibrate(12.0);
  const auto rep = mon.monitor(20.0);
  // Calibration absorbs the gain loss; errors stay bounded.
  EXPECT_LT(std::abs(rep.map_error_mmhg), 8.0);
}

TEST(Monitor, ArtifactsDegradeGracefully) {
  WristModel noisy;
  noisy.enable_artifacts = true;
  noisy.artifacts.spike_rate_hz = 0.02;
  noisy.artifacts.wander_mmhg_per_sqrt_s = 0.2;
  BloodPressureMonitor mon{ChipConfig::paper_chip(), noisy};
  (void)mon.localize(quick_scan());
  (void)mon.calibrate(12.0);
  const auto rep = mon.monitor(30.0);
  ASSERT_GE(rep.beats.beats.size(), 20u);
  EXPECT_LT(std::abs(rep.map_error_mmhg), 12.0);
}

TEST(Monitor, HypertensivePatient) {
  WristModel hyper;
  hyper.pulse.systolic_mmhg = 160.0;
  hyper.pulse.diastolic_mmhg = 100.0;
  BloodPressureMonitor mon{ChipConfig::paper_chip(), hyper};
  (void)mon.localize(quick_scan());
  (void)mon.calibrate(12.0);
  const auto rep = mon.monitor(20.0);
  EXPECT_NEAR(rep.beats.mean_systolic, 160.0, 10.0);
  EXPECT_NEAR(rep.beats.mean_diastolic, 100.0, 10.0);
}

TEST(Monitor, MonitorWithoutCalibrationStaysRaw) {
  BloodPressureMonitor mon{ChipConfig::paper_chip(), WristModel{}};
  EXPECT_TRUE(mon.calibration().is_identity());
  const auto rep = mon.monitor(5.0);
  // Uncalibrated values are normalized ADC output, far from mmHg scale.
  for (double v : rep.waveform_mmhg) EXPECT_LT(std::abs(v), 1.0);
}

TEST(Monitor, MapReferenceAgreesAtClockAndFrameRate) {
  // Per-clock reads (acquire) step the physiology 128 times per frame,
  // per-frame reads (acquire_block) once. Both walk the same pipeline clock;
  // after the 10 s adaptation window the frozen MAP references must agree,
  // and so must the contact pressures read at the same instants.
  BloodPressureMonitor per_clock{ChipConfig::paper_chip(), WristModel{}};
  BloodPressureMonitor per_frame{ChipConfig::paper_chip(), WristModel{}};
  const ContactField fine = per_clock.contact_field();
  const ContactField coarse = per_frame.contact_field();
  const double dt = 1.0 / ChipConfig::paper_chip().modulator.sampling_rate_hz;
  constexpr std::size_t kClocksPerFrame = 128;
  double t = 0.0;
  double worst_pa = 0.0;
  for (std::size_t i = 0; i < 12 * 128000; ++i) {
    const double fine_pa = fine(0.0, 0.0, t);
    if (i % kClocksPerFrame == 0) {
      const double coarse_pa = coarse(0.0, 0.0, t);
      if (t > 10.0) worst_pa = std::max(worst_pa, std::abs(fine_pa - coarse_pa));
    }
    t += dt;
  }
  EXPECT_NEAR(per_clock.map_reference_mmhg(), per_frame.map_reference_mmhg(), 0.1);
  // The tissue gain is below 1, so a < 0.1 mmHg reference gap bounds the
  // contact-pressure gap too.
  EXPECT_LT(worst_pa, units::mmhg_to_pa(0.1));
  // The reference froze at 10 s: later physiology leaves it alone.
  const double frozen = per_frame.map_reference_mmhg();
  for (int k = 1; k <= 1000; ++k) (void)coarse(0.0, 0.0, t + 1e-3 * k);
  EXPECT_EQ(per_frame.map_reference_mmhg(), frozen);
}

}  // namespace
}  // namespace tono::core
