// Tests for the push-based streaming monitor with alarms.
#include "src/core/streaming_monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/bio/pulse_generator.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/metrics.hpp"
#include "src/common/rng.hpp"
#include "src/bio/scenario.hpp"

namespace tono::core {
namespace {

std::vector<double> pulse_wave(const bio::PulseConfig& cfg, double duration_s) {
  bio::ArterialPulseGenerator gen{cfg};
  return gen.generate(1000.0, static_cast<std::size_t>(duration_s * 1000.0));
}

bio::PulseConfig steady() {
  bio::PulseConfig cfg;
  cfg.drift_mmhg_per_sqrt_s = 0.0;
  return cfg;
}

TEST(StreamingMonitor, EmitsEachBeatOnce) {
  StreamingMonitor mon{StreamingConfig{}};
  std::vector<Beat> beats;
  mon.on_beat([&](const Beat& b) { beats.push_back(b); });
  mon.push(pulse_wave(steady(), 30.0));
  // ~36 beats at 72 bpm minus warmup/window edges.
  EXPECT_GE(beats.size(), 25u);
  EXPECT_LE(beats.size(), 40u);
  for (std::size_t i = 1; i < beats.size(); ++i) {
    EXPECT_GT(beats[i].upstroke_s, beats[i - 1].upstroke_s);  // strictly ordered
    EXPECT_GT(beats[i].upstroke_s - beats[i - 1].upstroke_s, 0.3);  // no duplicates
  }
  EXPECT_EQ(mon.beats_emitted(), beats.size());
}

TEST(StreamingMonitor, BeatValuesPhysiological) {
  StreamingMonitor mon{StreamingConfig{}};
  std::vector<Beat> beats;
  mon.on_beat([&](const Beat& b) { beats.push_back(b); });
  mon.push(pulse_wave(steady(), 25.0));
  ASSERT_GE(beats.size(), 15u);
  for (const auto& b : beats) {
    EXPECT_NEAR(b.systolic_value, 120.0, 8.0);
    EXPECT_NEAR(b.diastolic_value, 80.0, 8.0);
  }
}

TEST(StreamingMonitor, NoAlarmOnNormotensivePatient) {
  StreamingMonitor mon{StreamingConfig{}};
  std::vector<AlarmEvent> alarms;
  mon.on_alarm([&](const AlarmEvent& a) { alarms.push_back(a); });
  mon.push(pulse_wave(steady(), 30.0));
  EXPECT_TRUE(alarms.empty());
}

TEST(StreamingMonitor, HypotensionRaisesAndClears) {
  // Feed a scenario that crashes below the systolic-low limit and recovers.
  bio::PulseConfig cfg = steady();
  bio::ArterialPulseGenerator gen{cfg};
  const bio::ScenarioProfile crash{{
      bio::ScenarioKeyframe{0.0, 120.0, 80.0, 72.0},
      bio::ScenarioKeyframe{20.0, 118.0, 78.0, 74.0},
      bio::ScenarioKeyframe{30.0, 80.0, 52.0, 95.0},
      bio::ScenarioKeyframe{45.0, 80.0, 52.0, 95.0},
      bio::ScenarioKeyframe{60.0, 115.0, 76.0, 78.0},
      bio::ScenarioKeyframe{90.0, 118.0, 78.0, 74.0},
  }};
  StreamingMonitor mon{StreamingConfig{}};
  std::vector<AlarmEvent> alarms;
  mon.on_alarm([&](const AlarmEvent& a) { alarms.push_back(a); });
  auto& reg = metrics::Registry::global();
  const auto raised0 = reg.counter(metrics::names::kMonitorAlarmsRaised).value();
  for (int i = 0; i < 90 * 1000; ++i) {
    const double t = i / 1000.0;
    if (i % 100 == 0) crash.apply(gen, t);
    mon.push(gen.sample(0.001));
  }
  // A systolic-low alarm must raise during the crash…
  bool raised = false;
  double raise_time = 0.0;
  for (const auto& a : alarms) {
    if (a.kind == AlarmKind::kSystolicLow && a.active) {
      raised = true;
      raise_time = a.time_s;
      break;
    }
  }
  ASSERT_TRUE(raised);
  EXPECT_GT(raise_time, 20.0);
  EXPECT_LT(raise_time, 45.0);  // bounded latency: within the crash
  // …and clear after recovery.
  bool cleared = false;
  for (const auto& a : alarms) {
    if (a.kind == AlarmKind::kSystolicLow && !a.active && a.time_s > raise_time) {
      cleared = true;
    }
  }
  EXPECT_TRUE(cleared);
  EXPECT_FALSE(mon.alarm_active(AlarmKind::kSystolicLow));
  // The raise must also surface in the observability layer: at least one
  // alarm counted and a positive confirmation latency (confirm_beats = 3
  // spans roughly two beat intervals at these rates).
  EXPECT_GE(reg.counter(metrics::names::kMonitorAlarmsRaised).value() - raised0, 1u);
  const double latency = reg.gauge(metrics::names::kMonitorAlarmLatencyS).value();
  EXPECT_GT(latency, 0.0);
  EXPECT_LT(latency, 10.0);
}

TEST(StreamingMonitor, ConfirmationSuppressesSingleOutlierBeat) {
  // One artefactual deep beat must not alarm with confirm_beats = 3.
  auto wave = pulse_wave(steady(), 30.0);
  // Carve one fake "beat" far below the limit at t = 15 s.
  for (std::size_t i = 15000; i < 15400; ++i) {
    wave[i] = 60.0 + 25.0 * std::sin(2.0 * 3.14159 * (i - 15000) / 800.0);
  }
  StreamingMonitor mon{StreamingConfig{}};
  std::vector<AlarmEvent> alarms;
  mon.on_alarm([&](const AlarmEvent& a) { alarms.push_back(a); });
  mon.push(wave);
  for (const auto& a : alarms) {
    EXPECT_NE(a.kind, AlarmKind::kSystolicLow);
  }
}

TEST(StreamingMonitor, TachycardiaRaisesRateAlarm) {
  bio::PulseConfig fast = steady();
  fast.heart_rate_bpm = 150.0;
  StreamingMonitor mon{StreamingConfig{}};
  std::vector<AlarmEvent> alarms;
  mon.on_alarm([&](const AlarmEvent& a) { alarms.push_back(a); });
  mon.push(pulse_wave(fast, 30.0));
  bool rate_high = false;
  for (const auto& a : alarms) {
    if (a.kind == AlarmKind::kRateHigh && a.active) rate_high = true;
  }
  EXPECT_TRUE(rate_high);
  EXPECT_TRUE(mon.alarm_active(AlarmKind::kRateHigh));
}

TEST(StreamingMonitor, QualityCallbackFires) {
  StreamingMonitor mon{StreamingConfig{}};
  std::size_t quality_events = 0;
  double last_sqi = 0.0;
  mon.on_quality([&](const QualityReport& q, double) {
    ++quality_events;
    last_sqi = q.sqi;
  });
  mon.push(pulse_wave(steady(), 20.0));
  // (20 − 8) / 2 s hops ≈ 7 windows.
  EXPECT_GE(quality_events, 5u);
  EXPECT_GT(last_sqi, 0.5);
}

TEST(StreamingMonitor, QualityGateSuppressesNoise) {
  StreamingMonitor mon{StreamingConfig{}};
  std::size_t beats = 0;
  mon.on_beat([&](const Beat&) { ++beats; });
  // Baseline wander + white converter floor, no pulse.
  std::vector<double> noise(20000);
  double state = 0.0;
  tono::Rng rng{5};
  for (auto& v : noise) {
    state = 0.98 * state + rng.gaussian(0.0, 0.2);   // wander, sigma ~= 1
    v = 90.0 + state + rng.gaussian(0.0, 1.0);       // white converter floor
  }
  mon.push(noise);
  EXPECT_EQ(beats, 0u);
}

TEST(StreamingMonitor, RejectsBadConfig) {
  StreamingConfig bad;
  bad.sample_rate_hz = 0.0;
  EXPECT_THROW((StreamingMonitor{bad}), std::invalid_argument);
  StreamingConfig bad2;
  bad2.window_s = 1.0;
  EXPECT_THROW((StreamingMonitor{bad2}), std::invalid_argument);
  StreamingConfig bad3;
  bad3.hop_s = 20.0;
  EXPECT_THROW((StreamingMonitor{bad3}), std::invalid_argument);
  StreamingConfig bad4;
  bad4.limits.confirm_beats = 0;
  EXPECT_THROW((StreamingMonitor{bad4}), std::invalid_argument);
}

/// One published beat or alarm transition, stamped with the number of
/// samples pushed when it fired.
struct Published {
  std::size_t sample{0};
  int kind{-1};  ///< -1 = beat, else AlarmKind
  double time_s{0.0};
  double value_a{0.0};
  double value_b{0.0};
  bool operator==(const Published&) const = default;
};

/// A monitor that records what it publishes.
struct RecordingMonitor {
  StreamingMonitor mon;
  std::size_t pushed{0};
  std::vector<Published> out;

  explicit RecordingMonitor(const StreamingConfig& config) : mon{config} {
    mon.on_beat([this](const Beat& b) {
      out.push_back({pushed, -1, b.upstroke_s, b.systolic_value, b.diastolic_value});
    });
    mon.on_alarm([this](const AlarmEvent& a) {
      out.push_back({pushed, static_cast<int>(a.kind), a.time_s, a.value, a.active ? 1.0 : 0.0});
    });
  }
  void push(double v) {
    ++pushed;  // stamped before the push so a hop's output carries its sample count
    mon.push(v);
  }
  std::vector<std::uint8_t> checkpoint() const {
    CheckpointWriter w;
    mon.serialize(w);
    return w.finish(1);
  }
  void restore(const std::vector<std::uint8_t>& blob, std::size_t at_sample) {
    CheckpointReader in{blob};
    in.require_version(1);
    mon.restore(in);
    in.expect_end();
    pushed = at_sample;
  }
};

/// 12 s of a patient whose pressure falls through the systolic-low limit
/// right after the first 8 s window, so alarms fire in the hops after it.
std::vector<double> falling_pressure() {
  bio::ArterialPulseGenerator gen{steady()};
  const bio::ScenarioProfile fall{{
      bio::ScenarioKeyframe{0.0, 120.0, 80.0, 72.0},
      bio::ScenarioKeyframe{7.0, 120.0, 80.0, 72.0},
      bio::ScenarioKeyframe{9.0, 78.0, 50.0, 96.0},
      bio::ScenarioKeyframe{12.0, 78.0, 50.0, 96.0},
  }};
  std::vector<double> wave(12000);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    if (i % 100 == 0) fall.apply(gen, static_cast<double>(i) / 1000.0);
    wave[i] = gen.sample(0.001);
  }
  return wave;
}

TEST(StreamingMonitor, RestoreBetweenHopsAfterFirstWindowMatchesUninterrupted) {
  // Past the first 8 s window the buffer holds the window plus the current
  // hop's samples. A checkpoint at any sample from 8.0 s to 10.5 s must
  // restore into a fresh monitor that re-serializes to the same bytes and
  // reaches the uninterrupted monitor's state just before the next hop.
  // A window analysis costs milliseconds, so every 50th split (and those
  // next to a hop boundary) also runs on through two more hops and must
  // publish exactly the beats and alarms the uninterrupted monitor did.
  StreamingConfig config;
  config.limits.confirm_beats = 2;
  const std::vector<double> wave = falling_pressure();

  RecordingMonitor uninterrupted{config};
  std::vector<std::uint8_t> before_hop_10s;
  std::vector<std::uint8_t> before_hop_12s;
  for (double v : wave) {
    uninterrupted.push(v);
    if (uninterrupted.pushed == 9999) before_hop_10s = uninterrupted.checkpoint();
    if (uninterrupted.pushed == 11999) before_hop_12s = uninterrupted.checkpoint();
  }
  const auto final_blob = uninterrupted.checkpoint();
  bool alarm_after_split = false;
  for (const auto& p : uninterrupted.out) alarm_after_split |= p.kind >= 0 && p.sample > 8000;
  ASSERT_TRUE(alarm_after_split) << "the scenario must exercise alarms after the split";

  RecordingMonitor leader{config};
  for (std::size_t k = 0; k < 8000; ++k) leader.push(wave[k]);
  for (std::size_t k = 8000; k <= 10500; ++k) {
    const auto blob = leader.checkpoint();
    RecordingMonitor twin{config};
    ASSERT_NO_THROW(twin.restore(blob, k)) << "checkpoint after " << k << " samples";
    ASSERT_EQ(twin.checkpoint(), blob) << "re-serialized state after " << k << " samples";
    const std::size_t last_before_hop = k < 10000 ? 9999 : 11999;
    while (twin.pushed < last_before_hop) twin.push(wave[twin.pushed]);
    ASSERT_EQ(twin.checkpoint(), k < 10000 ? before_hop_10s : before_hop_12s)
        << "state before the next hop after a split at " << k;

    if (k % 50 == 0 || k == 8001 || k == 9999 || k == 10001) {
      while (twin.pushed < wave.size()) twin.push(wave[twin.pushed]);
      std::vector<Published> expected;
      for (const auto& p : uninterrupted.out) {
        if (p.sample > k) expected.push_back(p);
      }
      ASSERT_EQ(twin.out, expected) << "published stream after a split at " << k;
      ASSERT_EQ(twin.checkpoint(), final_blob) << "final state after a split at " << k;
    }
    leader.push(wave[k]);
  }
}

TEST(StreamingMonitor, RestoreRejectsForeignHopPosition) {
  StreamingConfig config;
  RecordingMonitor source{config};
  for (std::size_t i = 0; i < 9500; ++i) source.push(100.0);
  const auto blob = source.checkpoint();  // 9500 buffered, 1500 since the hop

  StreamingConfig shorter_hop = config;  // window + hop − 1 = 8999 < 9500
  shorter_hop.hop_s = 1.0;
  RecordingMonitor a{shorter_hop};
  EXPECT_THROW(a.restore(blob, 9500), CheckpointError);

  StreamingConfig longer_window = config;  // 9500 ≠ 9000 + 1500
  longer_window.window_s = 9.0;
  RecordingMonitor b{longer_window};
  EXPECT_THROW(b.restore(blob, 9500), CheckpointError);

  RecordingMonitor same{config};
  EXPECT_NO_THROW(same.restore(blob, 9500));
}

TEST(StreamingMonitor, AlarmToString) {
  EXPECT_EQ(to_string(AlarmKind::kSystolicLow), "systolic-low");
  EXPECT_EQ(to_string(AlarmKind::kRateHigh), "rate-high");
}

}  // namespace
}  // namespace tono::core
