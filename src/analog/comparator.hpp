// comparator.hpp — clocked 1-bit quantizer of the ΔΣ loop.
//
// Offset and hysteresis are first-order shaped by the loop (they appear as a
// DC shift / small limit-cycle perturbation rather than distortion), so the
// modulator tolerates millivolt-level values — the model lets tests verify
// exactly that. Metastability is modelled as a random decision inside a
// narrow band around the threshold.
#pragma once

#include <cmath>
#include <cstddef>

#include "src/common/rng.hpp"

namespace tono::analog {

struct ComparatorConfig {
  double offset_v{0.0};
  double hysteresis_v{0.0};        ///< full width of the hysteresis band
  double metastable_band_v{10e-6}; ///< |input| below this → random decision
  double noise_vrms{50e-6};        ///< input-referred rms noise
};

class Comparator {
 public:
  Comparator(const ComparatorConfig& config, Rng rng) noexcept
      : config_(config), rng_(rng) {}

  /// Clocked decision: returns +1 or −1. Inline: one call per modulator
  /// clock, and the noise draw benefits from inlining into the loop.
  [[nodiscard]] int decide(double input_v) noexcept {
    double v = input_v - config_.offset_v;
    if (config_.noise_vrms > 0.0) v += rng_.gaussian(0.0, config_.noise_vrms);
    // Hysteresis: the threshold leans toward keeping the previous decision.
    v -= 0.5 * config_.hysteresis_v * static_cast<double>(-last_);
    if (std::abs(v) < config_.metastable_band_v) {
      last_ = rng_.bernoulli(0.5) ? 1 : -1;
      return last_;
    }
    last_ = v >= 0.0 ? 1 : -1;
    return last_;
  }

  /// Pre-draws the noise for the next `n` decisions of a planned block into
  /// the caller-owned `noise_dest` (the modulator's per-frame noise plan).
  /// The block kernel (bank_kernel.hpp) evaluates decision i as decide()
  /// would, reading noise_dest[i] instead of drawing, and stays
  /// bit-identical to decide(): the only draw that cannot be planned is the
  /// metastable Bernoulli — it depends on the decision input — and when one
  /// fires, decide_metastable_at(i) rewinds to a snapshot of the stream,
  /// replays the Gaussians consumed so far, interleaves the Bernoulli at its
  /// scalar position, and refills the rest of the plan from the new state.
  /// Metastable events are rare at the paper's operating point (band is µV
  /// against ~100 mV quantizer swing), so the resync cost is amortized away.
  void plan(double* noise_dest, std::size_t n) noexcept;

  /// Bank fill-path variant of plan(): identical bookkeeping (snapshot taken
  /// BEFORE any draw — it anchors the metastable resync), but the bulk fill
  /// itself is left to the caller, who batches it across lanes through the
  /// returned stream (Rng::fill_gaussian_multi) and then applies the same
  /// `0.0 + noise_vrms * x` affine map fill_gaussian(mean, sigma) would.
  /// Returns nullptr when noise is off (nothing to pre-draw — see plan()).
  [[nodiscard]] Rng* plan_external(double* noise_dest, std::size_t n) noexcept;

  /// The block kernel's metastable escape: the kernel evaluated decision
  /// `idx` of the active plan (consuming its noise entry, when noise is on)
  /// and landed in the metastable band. Replays the scalar slow path —
  /// resync the stream, draw the Bernoulli at its scalar position, refill
  /// plan entries (idx+1, len) in place — and returns the ±1 decision,
  /// updating the hysteresis memory exactly as decide() would have.
  [[nodiscard]] int decide_metastable_at(std::size_t idx) noexcept {
    plan_idx_ = idx + (config_.noise_vrms > 0.0 ? 1 : 0);
    last_ = planned_metastable_() ? 1 : -1;
    return last_;
  }

  /// Writes the hysteresis memory back after a planned block, where the
  /// per-clock decisions lived in the kernel's SoA state. `last` must be ±1.
  void set_last_decision(int last) noexcept { last_ = last; }

  [[nodiscard]] int last_decision() const noexcept { return last_; }
  [[nodiscard]] const ComparatorConfig& config() const noexcept { return config_; }

  /// Checkpointing: the noise stream and the hysteresis memory. The planned
  /// block state is transient (plans live inside one frame; checkpoints are
  /// taken at frame/batch boundaries) and is neither stored nor restored.
  /// restore throws CheckpointError when the stored memory is not ±1.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  /// Slow path: metastable Bernoulli during a planned block (see plan()).
  bool planned_metastable_() noexcept;

  ComparatorConfig config_;
  Rng rng_;
  int last_{1};
  // Planned-block state. `plan_snapshot_` is the rng state at the start of
  // the current fill segment (plan entries [segment_start_, plan_len_) were
  // bulk-generated from it); it is what makes the metastable resync exact.
  double* plan_buf_{nullptr};
  std::size_t plan_len_{0};
  std::size_t plan_idx_{0};
  std::size_t segment_start_{0};
  Rng plan_snapshot_{0};
};

}  // namespace tono::analog
