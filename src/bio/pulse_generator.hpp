// pulse_generator.hpp — continuous arterial blood-pressure waveform with
// physiological variability and per-beat ground truth.
//
// This is the "test person's wrist" of §3.2, made synthetic so the full
// pipeline can be scored against known truth. Variability sources:
//   * heart-rate variability: white beat-interval jitter + a slow Mayer-wave
//     (~0.1 Hz) modulation,
//   * respiration: baseline and pulse-pressure modulation at ~0.25 Hz
//     (respiratory sinus arrhythmia on the interval as well),
//   * slow setpoint drift of systolic/diastolic pressure.
// Ground truth (beat onsets, per-beat systolic/diastolic/MAP) is recorded as
// each beat completes so benches can compute estimation error.
//
// Every step is exact in dt: sample(dt) may be called at the modulator clock
// or once per output frame and produces the same beats and the same truth.
// Beat-schedule draws happen once per beat, the slow waves are evaluated at
// the beat onset, the drift random walk has its own stream and advances once
// per beat over the whole inter-onset span, and a beat's truth is taken from
// the waveform on a fixed grid over the beat, not from the caller's samples.
#pragma once

#include <cstdint>
#include <vector>

#include "src/bio/beat.hpp"
#include "src/common/rng.hpp"

namespace tono::bio {

struct PulseConfig {
  double systolic_mmhg{120.0};
  double diastolic_mmhg{80.0};
  double heart_rate_bpm{72.0};
  /// White beat-to-beat interval jitter (fraction of the interval).
  double hrv_jitter{0.03};
  /// Mayer-wave heart-rate modulation depth (fraction) and frequency.
  double mayer_depth{0.02};
  double mayer_freq_hz{0.1};
  /// Respiration: frequency, baseline swing [mmHg], pulse-pressure depth.
  double respiration_freq_hz{0.25};
  double respiration_baseline_mmhg{2.0};
  double respiration_pp_depth{0.05};
  /// Respiratory sinus arrhythmia: interval modulation depth (fraction).
  double rsa_depth{0.03};
  /// Slow random-walk drift of the pressure setpoints [mmHg/√s]: a Brownian
  /// walk with variance drift² · t, observed at each beat onset (the only
  /// place it enters the waveform).
  double drift_mmhg_per_sqrt_s{0.15};
  /// Atrial-fibrillation-like rhythm: beat intervals drawn with this extra
  /// uniform spread (fraction of the interval; 0 = regular rhythm) and
  /// pulse pressure varying with the preceding interval (shorter filling
  /// time → weaker beat).
  double af_irregularity{0.0};
  /// Retained completed-beat truth entries. The log is a bounded window:
  /// once it exceeds this, the oldest entries are dropped (session means
  /// keep counting every beat via running sums). 4096 beats ≈ 55 min at
  /// 72 bpm — far wider than any calibration/report window. 0 = unbounded.
  std::size_t truth_capacity{4096};
  BeatMorphology morphology{BeatMorphology::radial()};
  std::uint64_t seed{7};
};

/// Preset patients for examples/benches.
struct PatientPresets {
  [[nodiscard]] static PulseConfig normotensive();   ///< 120/80 @ 72
  [[nodiscard]] static PulseConfig hypertensive();   ///< 165/102 @ 80
  [[nodiscard]] static PulseConfig hypotensive();    ///< 95/60 @ 64
  [[nodiscard]] static PulseConfig tachycardic();    ///< 118/78 @ 125
  [[nodiscard]] static PulseConfig elderly_stiff();  ///< 150/85, augmented reflection
  [[nodiscard]] static PulseConfig atrial_fibrillation();  ///< irregular rhythm
};

/// Per-beat ground truth emitted by the generator.
struct BeatTruth {
  double onset_s{0.0};       ///< beat start time
  double interval_s{0.0};    ///< beat duration
  double systolic_mmhg{0.0};
  double diastolic_mmhg{0.0};
  double map_mmhg{0.0};      ///< mean over the beat
};

class ArterialPulseGenerator {
 public:
  explicit ArterialPulseGenerator(const PulseConfig& config);

  /// Advances time by dt and returns the arterial pressure [mmHg]. Any dt
  /// gives the same beats and beat truth.
  [[nodiscard]] double sample(double dt_s);

  /// Retargets the physiological setpoints at runtime (takes effect from
  /// the next beat). Lets scenario drivers ramp pressure/heart rate.
  void set_targets(double systolic_mmhg, double diastolic_mmhg, double heart_rate_bpm);

  /// Generates `n` samples at fixed rate into a vector.
  [[nodiscard]] std::vector<double> generate(double sample_rate_hz, std::size_t n);

  /// Ground-truth annotations for recently completed beats (bounded window
  /// of the last `truth_capacity` beats; see PulseConfig::truth_capacity).
  [[nodiscard]] const std::vector<BeatTruth>& beat_truth() const noexcept { return truth_; }

  /// Consume-and-clear the retained truth log (validation harness drains
  /// periodically so long sessions never pay for the window at all).
  /// Session-level counters and means are unaffected.
  [[nodiscard]] std::vector<BeatTruth> drain_truth();

  /// Beats completed since construction (drained/dropped ones included).
  [[nodiscard]] std::uint64_t beats_completed() const noexcept { return beats_completed_; }
  /// Truth entries evicted from the bounded window (not drained — lost to
  /// capacity). Nonzero means a consumer fell behind the window.
  [[nodiscard]] std::uint64_t truth_dropped() const noexcept { return truth_dropped_; }

  /// Session-level ground truth: mean systolic/diastolic over *all*
  /// completed beats (running sums — unaffected by window eviction/drain).
  [[nodiscard]] double mean_systolic_mmhg() const noexcept;
  [[nodiscard]] double mean_diastolic_mmhg() const noexcept;

  [[nodiscard]] double time_s() const noexcept { return time_s_; }
  /// Setpoint drift [mmHg] as of the current beat's onset.
  [[nodiscard]] double drift_mmhg() const noexcept { return drift_mmhg_; }
  /// Onset of the current beat [s] — the time the drift was last advanced to.
  [[nodiscard]] double beat_onset_s() const noexcept { return beat_start_s_; }
  [[nodiscard]] const PulseConfig& config() const noexcept { return config_; }

  /// Checkpointing: beat-schedule and drift Rng streams, beat/clock state,
  /// setpoints (which set_targets can retarget at runtime), drift,
  /// whole-session truth counters and the bounded retained truth window (so
  /// checkpoints stay O(truth_capacity), not O(runtime)).
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  void start_new_beat(double onset_s);
  /// Arterial pressure at time t inside the current beat.
  [[nodiscard]] double pressure_at(double t_s) const noexcept;
  void close_out_beat();
  void push_truth(const BeatTruth& beat);

  PulseConfig config_;
  BeatTemplate beat_;
  Rng rng_;        ///< beat schedule: jitter and AF spread, one set of draws per beat
  Rng drift_rng_;  ///< setpoint drift: one draw per beat onset
  double time_s_{0.0};
  double beat_start_s_{0.0};
  double beat_interval_s_{0.8};
  double beat_sys_mmhg_{120.0};
  double beat_dia_mmhg_{80.0};
  double drift_mmhg_{0.0};
  // Running whole-session aggregates, independent of the bounded window.
  std::uint64_t beats_completed_{0};
  std::uint64_t truth_dropped_{0};
  double truth_sum_sys_{0.0};
  double truth_sum_dia_{0.0};
  std::vector<BeatTruth> truth_;
};

}  // namespace tono::bio
