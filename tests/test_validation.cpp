// Tests for the AAMI/BHS validation harness (docs/VALIDATION.md).
#include "src/core/validation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "src/bio/pulse_generator.hpp"
#include "src/bio/scenario.hpp"

namespace tono::core {
namespace {

bio::BeatTruth make_truth(double onset_s, double interval_s, double sys, double dia) {
  bio::BeatTruth t;
  t.onset_s = onset_s;
  t.interval_s = interval_s;
  t.systolic_mmhg = sys;
  t.diastolic_mmhg = dia;
  t.map_mmhg = dia + (sys - dia) / 3.0;
  return t;
}

TEST(ErrorAccumulator, TracksBiasSpreadAndBands) {
  ErrorAccumulator acc;
  acc.add(122.0, 120.0);  // +2
  acc.add(118.0, 120.0);  // -2
  acc.add(126.0, 120.0);  // +6
  acc.add(132.0, 120.0);  // +12
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_NEAR(acc.mean_error_mmhg(), 4.5, 1e-12);
  EXPECT_NEAR(acc.mean_absolute_error_mmhg(), 5.5, 1e-12);
  EXPECT_NEAR(acc.max_absolute_error_mmhg(), 12.0, 1e-12);
  EXPECT_NEAR(acc.within_5_mmhg(), 0.5, 1e-12);
  EXPECT_NEAR(acc.within_10_mmhg(), 0.75, 1e-12);
  EXPECT_NEAR(acc.within_15_mmhg(), 1.0, 1e-12);
  // Sample SD of {2,-2,6,12}: mean 4.5, var = (6.25+42.25+2.25+56.25)/3.
  EXPECT_NEAR(acc.error_sd_mmhg(), std::sqrt(107.0 / 3.0), 1e-9);
}

TEST(ErrorAccumulator, MergeIsExact) {
  ErrorAccumulator whole, left, right;
  for (int i = 0; i < 40; ++i) {
    const double est = 120.0 + (i % 7) - 3.0;
    whole.add(est, 120.0);
    (i < 17 ? left : right).add(est, 120.0);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean_error_mmhg(), whole.mean_error_mmhg(), 1e-12);
  EXPECT_NEAR(left.error_sd_mmhg(), whole.error_sd_mmhg(), 1e-12);
  EXPECT_NEAR(left.within_5_mmhg(), whole.within_5_mmhg(), 1e-12);
  EXPECT_NEAR(left.max_absolute_error_mmhg(), whole.max_absolute_error_mmhg(), 1e-12);
}

TEST(BlandAltmanStats, LimitsOfAgreement) {
  ErrorAccumulator acc;
  for (int i = 0; i < 50; ++i) acc.add(120.0 + 3.0 + ((i % 2) ? 1.0 : -1.0), 120.0);
  const BlandAltman ba = bland_altman(acc);
  EXPECT_EQ(ba.n, 50u);
  EXPECT_NEAR(ba.bias_mmhg, 3.0, 1e-12);
  EXPECT_NEAR(ba.loa_low_mmhg, ba.bias_mmhg - 1.96 * ba.sd_mmhg, 1e-12);
  EXPECT_NEAR(ba.loa_high_mmhg, ba.bias_mmhg + 1.96 * ba.sd_mmhg, 1e-12);
}

TEST(Grading, AamiBoundaries) {
  // Exactly at the limits: |bias| = 5 and SD <= 8 still passes.
  ErrorAccumulator at_limit;
  for (int i = 0; i < 40; ++i) at_limit.add(125.0, 120.0);
  EXPECT_EQ(aami_verdict(at_limit), AamiVerdict::kPass);

  ErrorAccumulator biased;
  for (int i = 0; i < 40; ++i) biased.add(125.6, 120.0);
  EXPECT_EQ(aami_verdict(biased), AamiVerdict::kFail);

  // Zero bias but wild spread fails on SD.
  ErrorAccumulator noisy;
  for (int i = 0; i < 40; ++i) noisy.add(120.0 + ((i % 2) ? 12.0 : -12.0), 120.0);
  EXPECT_EQ(aami_verdict(noisy), AamiVerdict::kFail);

  ErrorAccumulator thin;
  for (int i = 0; i < 10; ++i) thin.add(120.0, 120.0);
  EXPECT_EQ(aami_verdict(thin), AamiVerdict::kInsufficientData);
  EXPECT_EQ(aami_verdict(thin, 10), AamiVerdict::kPass);
}

TEST(Grading, BhsLetterBands) {
  // All beats within 5 mmHg → A.
  ErrorAccumulator a;
  for (int i = 0; i < 40; ++i) a.add(123.0, 120.0);
  EXPECT_EQ(bhs_grade(a), BhsGrade::kA);

  // 50% within 5, 80% within 10, all within 15 → B (fails the 60% A band).
  ErrorAccumulator b;
  for (int i = 0; i < 20; ++i) b.add(124.0, 120.0);
  for (int i = 0; i < 12; ++i) b.add(128.0, 120.0);
  for (int i = 0; i < 8; ++i) b.add(133.0, 120.0);
  EXPECT_EQ(bhs_grade(b), BhsGrade::kB);

  // Everything beyond 15 mmHg → D.
  ErrorAccumulator d;
  for (int i = 0; i < 40; ++i) d.add(140.0, 120.0);
  EXPECT_EQ(bhs_grade(d), BhsGrade::kD);

  ErrorAccumulator thin;
  thin.add(120.0, 120.0);
  EXPECT_EQ(bhs_grade(thin), BhsGrade::kInsufficientData);
}

TEST(SessionValidatorTest, PairsEstimatesToCoveringTruthBeat) {
  SessionValidator v{{}};
  std::vector<bio::BeatTruth> truth;
  for (int i = 0; i < 4; ++i) truth.push_back(make_truth(i * 1.0, 1.0, 120.0, 80.0));
  v.add_truth(truth);
  v.add_estimate(0.5, 121.0, 81.0, 95.0);   // beat 0
  v.add_estimate(2.25, 124.0, 84.0, 97.0);  // beat 2
  v.add_estimate(9.0, 150.0, 90.0, 110.0);  // after the last beat: unmatched
  const auto rec = v.finalize(7, "cohortX", "rest", 99, nullptr);
  EXPECT_EQ(rec.session_id, 7u);
  EXPECT_EQ(rec.truth_beats, 4u);
  EXPECT_EQ(rec.estimate_beats, 3u);
  EXPECT_EQ(rec.matched_beats, 2u);
  EXPECT_EQ(rec.sys_error.count(), 2u);
  EXPECT_NEAR(rec.sys_error.mean_error_mmhg(), 2.5, 1e-12);
  EXPECT_NEAR(rec.dia_error.mean_error_mmhg(), 2.5, 1e-12);
  // MAP grades the measured beat mean as given, not a dia + pp/3 rule on
  // the estimate: (95 − 93.33) and (97 − 93.33) average to +2.67.
  EXPECT_NEAR(rec.map_error.mean_error_mmhg(),
              ((95.0 - (80.0 + 40.0 / 3.0)) + (97.0 - (80.0 + 40.0 / 3.0))) / 2.0, 1e-9);
  EXPECT_NEAR(rec.duration_s, 4.0, 1e-12);
  EXPECT_FALSE(rec.transient.valid);
}

TEST(SessionValidatorTest, ClockOffsetAlignsTruth) {
  SessionValidator a{{}};
  SessionValidator b{{}};
  std::vector<bio::BeatTruth> shifted;
  for (int i = 0; i < 3; ++i) shifted.push_back(make_truth(10.0 + i, 1.0, 120.0, 80.0));
  a.add_truth(shifted, 10.0);  // generator clock 10 s ahead of stream clock
  std::vector<bio::BeatTruth> plain;
  for (int i = 0; i < 3; ++i) plain.push_back(make_truth(0.0 + i, 1.0, 120.0, 80.0));
  b.add_truth(plain);
  a.add_estimate(1.5, 122.0, 82.0, 95.0);
  b.add_estimate(1.5, 122.0, 82.0, 95.0);
  const auto ra = a.finalize(0, "", "", 0, nullptr);
  const auto rb = b.finalize(0, "", "", 0, nullptr);
  EXPECT_EQ(ra.matched_beats, rb.matched_beats);
  EXPECT_NEAR(ra.sys_error.mean_error_mmhg(), rb.sys_error.mean_error_mmhg(), 1e-12);
}

TEST(TransientResponse, MeasuresRiseSettleAndSteadyState) {
  // Profile: flat 120, step to 150 at t=10, hold to t=40.
  const bio::ScenarioProfile profile{
      {bio::ScenarioKeyframe{0.0, 120.0, 80.0, 70.0},
       bio::ScenarioKeyframe{10.0, 120.0, 80.0, 70.0},
       bio::ScenarioKeyframe{11.0, 150.0, 90.0, 80.0},
       bio::ScenarioKeyframe{40.0, 150.0, 90.0, 80.0}},
      "step"};
  // First-order-ish estimate: reaches 10% at ~10.5, 90% at ~13, settles.
  std::vector<EstimatedBeat> est;
  for (double t = 0.0; t <= 40.0; t += 0.5) {
    double sys = 120.0;
    if (t >= 10.0) sys = 150.0 - 30.0 * std::exp(-(t - 10.0) / 1.5);
    est.push_back({t, sys, 80.0});
  }
  const auto m = transient_response(est, profile, 5.0);
  ASSERT_TRUE(m.valid);
  EXPECT_NEAR(m.step_time_s, 10.0, 1e-9);
  EXPECT_NEAR(m.step_from_mmhg, 120.0, 1e-9);
  EXPECT_NEAR(m.step_to_mmhg, 150.0, 1e-9);
  // 10%→90%: exp(-(t-10)/1.5) from 0.9 down to 0.1 → Δt = 1.5·ln 9 ≈ 3.30,
  // quantized by the 0.5 s beat grid.
  EXPECT_GT(m.rise_time_s, 2.0);
  EXPECT_LT(m.rise_time_s, 4.5);
  // Settles within ±5 of 150 once the exponential decays below 5 mmHg.
  EXPECT_GT(m.settling_time_s, 0.0);
  EXPECT_LT(m.settling_time_s, 6.0);
  EXPECT_NEAR(m.steady_state_error_mmhg, 0.0, 0.5);
  EXPECT_LT(m.peak_error_mmhg, 5.0);

  // A sluggish estimate that never reaches 90% reports rise/settle as -1.
  std::vector<EstimatedBeat> slow;
  for (double t = 0.0; t <= 40.0; t += 0.5) {
    slow.push_back({t, t >= 10.0 ? 130.0 : 120.0, 80.0});
  }
  const auto ms = transient_response(slow, profile, 5.0);
  ASSERT_TRUE(ms.valid);
  EXPECT_LT(ms.rise_time_s, 0.0);
  EXPECT_LT(ms.settling_time_s, 0.0);
  EXPECT_NEAR(ms.steady_state_error_mmhg, -20.0, 1e-9);
}

TEST(TransientResponse, InvalidWithoutAStepOrEstimates) {
  const bio::ScenarioProfile flat{{bio::ScenarioKeyframe{0.0, 120.0, 80.0, 70.0},
                                   bio::ScenarioKeyframe{30.0, 122.0, 80.0, 70.0}},
                                  "flat"};
  std::vector<EstimatedBeat> est{{1.0, 120.0, 80.0}, {2.0, 120.0, 80.0}};
  EXPECT_FALSE(transient_response(est, flat, 5.0).valid);

  const bio::ScenarioProfile step{{bio::ScenarioKeyframe{0.0, 120.0, 80.0, 70.0},
                                   bio::ScenarioKeyframe{10.0, 150.0, 90.0, 80.0}},
                                  "step"};
  EXPECT_FALSE(transient_response({}, step, 5.0).valid);
}

SessionValidationRecord synthetic_record(std::uint32_t id, std::string cohort,
                                         double bias) {
  SessionValidator v{{}};
  std::vector<bio::BeatTruth> truth;
  for (int i = 0; i < 40; ++i) truth.push_back(make_truth(i * 1.0, 1.0, 120.0, 80.0));
  v.add_truth(truth);
  for (int i = 0; i < 40; ++i) {
    v.add_estimate(i + 0.5, 120.0 + bias, 80.0 + bias * 0.5,
                   80.0 + 40.0 / 3.0 + bias * 0.75);
  }
  return v.finalize(id, std::move(cohort), "rest", id, nullptr);
}

TEST(CohortAggregation, ExactMergeAndOrderInvariance) {
  std::vector<SessionValidationRecord> records;
  records.push_back(synthetic_record(0, "old", 2.0));
  records.push_back(synthetic_record(1, "young", -1.0));
  records.push_back(synthetic_record(2, "old", 4.0));

  auto cohorts = aggregate_by_cohort(records);
  ASSERT_EQ(cohorts.size(), 2u);
  EXPECT_EQ(cohorts[0].cohort, "old");  // name-sorted
  EXPECT_EQ(cohorts[1].cohort, "young");
  EXPECT_EQ(cohorts[0].sessions, 2u);
  EXPECT_EQ(cohorts[0].sys_error.count(), 80u);
  EXPECT_NEAR(cohorts[0].sys_error.mean_error_mmhg(), 3.0, 1e-12);
  EXPECT_EQ(cohorts[0].aami_pass_sessions, 2u);

  // Record order must not matter.
  std::swap(records[0], records[2]);
  auto again = aggregate_by_cohort(records);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_NEAR(again[0].sys_error.mean_error_mmhg(),
              cohorts[0].sys_error.mean_error_mmhg(), 1e-12);
  EXPECT_NEAR(again[0].sys_error.error_sd_mmhg(), cohorts[0].sys_error.error_sd_mmhg(),
              1e-12);
}

TEST(ValidationJsonl, ByteStableAndShaped) {
  std::vector<SessionValidationRecord> records;
  records.push_back(synthetic_record(3, "old", 2.0));
  records.push_back(synthetic_record(1, "young", -1.0));

  std::ostringstream a, b;
  export_validation_jsonl(records, a);
  export_validation_jsonl(records, b);
  EXPECT_EQ(a.str(), b.str());

  // Sessions come out ordered by id even when recorded out of order.
  const std::string text = a.str();
  const auto s1 = text.find("\"type\":\"validation_session\",\"id\":1");
  const auto s3 = text.find("\"type\":\"validation_session\",\"id\":3");
  ASSERT_NE(s1, std::string::npos);
  ASSERT_NE(s3, std::string::npos);
  EXPECT_LT(s1, s3);
  EXPECT_NE(text.find("\"type\":\"validation_cohort\",\"cohort\":\"old\""),
            std::string::npos);
  EXPECT_NE(text.find("\"type\":\"validation_fleet\",\"sessions\":2"),
            std::string::npos);
  // Transient block is gated: none of these records had a valid step.
  EXPECT_EQ(text.find("\"transient\""), std::string::npos);
  // Every line is newline-terminated (5 lines: 2 sessions, 2 cohorts, 1 fleet).
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
}

TEST(ValidationJsonl, RejectedSessionIsCountedButNotGraded) {
  std::vector<SessionValidationRecord> records;
  records.push_back(synthetic_record(0, "old", 2.0));
  SessionValidationRecord rejected;
  rejected.session_id = 1;
  rejected.cohort = "old";
  rejected.scenario = "arrhythmia";
  rejected.admitted = false;
  rejected.rejection = "no usable pulse";
  records.push_back(rejected);

  const auto cohorts = aggregate_by_cohort(records);
  ASSERT_EQ(cohorts.size(), 1u);
  EXPECT_EQ(cohorts[0].sessions, 2u);
  EXPECT_EQ(cohorts[0].rejected_sessions, 1u);
  EXPECT_EQ(cohorts[0].aami_pass_sessions, 1u);
  EXPECT_EQ(cohorts[0].sys_error.count(), 40u);

  std::ostringstream os;
  export_validation_jsonl(records, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"id\":1,\"cohort\":\"old\",\"scenario\":\"arrhythmia\",\"seed\":0,"
                      "\"admitted\":false,\"reason\":\"no usable pulse\"}\n"),
            std::string::npos);
  EXPECT_NE(text.find("\"cohort\":\"old\",\"sessions\":2,\"aami_pass\":1,\"rejected\":1,"),
            std::string::npos);
  EXPECT_NE(text.find("\"validation_fleet\",\"sessions\":2,\"aami_pass\":1,\"rejected\":1,"),
            std::string::npos);
}

}  // namespace
}  // namespace tono::core
