// modulator.hpp — behavioural model of the chip's second-order, single-bit,
// fully-differential switched-capacitor ΔΣ modulator (Fig. 6 of the paper).
//
// Topology: Boser-Wooley cascade of two delaying SC integrators with 1-bit
// feedback (coefficients g1 = a1 = 0.5 into the first stage, g2 = a2 = 0.5
// into the second), giving NTF (1−z⁻¹)² / (1 − 1.5 z⁻¹ + 0.75 z⁻²) — a
// stable second-order loop for inputs below ≈ −2 dBFS.
//
// Two input modes mirror the chip:
//   * capacitive mode — the sensor/reference branch of Fig. 6: a constant
//     excitation voltage V_exc is applied to C_sense and (anti-phase) C_ref;
//     the integrated charge is (C_sense − C_ref)·V_exc against the 1-bit
//     feedback charge C_fb·V_ref. Full scale is ΔC_FS = C_fb·V_ref/V_exc,
//     which is why §4 proposes "adjusting the feedback capacitors of the
//     first modulator stage" to improve resolution — C_fb sets the range.
//   * voltage mode — the "additional differential voltage interface" used
//     for the Fig. 7 characterization; full scale is ±V_ref.
//
// Modelled non-idealities: kT/C sampling noise on every switched branch,
// op-amp finite gain (integrator leak), finite GBW/slew (incomplete
// settling), op-amp thermal noise, comparator offset/hysteresis/
// metastability, clock jitter (voltage mode), reference noise, capacitor
// mismatch, and integrator output clipping.
//
// One recurrence, two forms. step_normalized is the scalar reference: one
// clock, every noise draw inline. Every block path — the solo
// step_capacitive_block below and every ModulatorBank lane — runs the same
// loop through bankkernel::run_packets<V> (bank_kernel.hpp) at width 1, 2
// or 4 over a per-frame noise plan, and the block == scalar and
// bank == solo tests pin each of them bit-for-bit to step_normalized.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/analog/bank_kernel.hpp"
#include "src/analog/comparator.hpp"
#include "src/analog/opamp.hpp"
#include "src/common/metrics.hpp"
#include "src/common/pink_noise.hpp"
#include "src/common/rng.hpp"

namespace tono::analog {

struct LoopCoefficients {
  double g1{0.5};  ///< first-integrator input gain
  double a1{0.5};  ///< first-integrator feedback gain
  double g2{0.5};  ///< second-integrator input gain
  double a2{0.5};  ///< second-integrator feedback gain
  /// Dynamic-range scaling: op-amp output volts per unit of normalized loop
  /// state (full scale = 1). Real SC designs size the integrator caps so the
  /// state swing fits the op-amp output range; 1 V/FS keeps the 2nd-order
  /// loop's ±2 FS state excursions inside a ±2.3 V swing.
  double state_scale_v{1.0};
};

struct ModulatorConfig {
  double sampling_rate_hz{128000.0};  ///< paper: 128 kS/s
  double vref_v{2.5};                 ///< feedback reference (±Vref differential)
  double vexc_v{2.5};                 ///< sensor excitation voltage
  double supply_v{5.0};               ///< paper: 5 V supply
  /// Loop order: 2 = the chip's Boser-Wooley cascade; 1 = a single-
  /// integrator baseline (what the paper's topology is competing against —
  /// ~9 dB/octave of OSR instead of 15, plus strong idle tones).
  int order{2};

  /// Capacitors (single-ended equivalents of the differential pairs).
  double c_sample_f{0.5e-12};  ///< voltage-mode input/feedback sampling cap
  double c_fb1_f{25e-15};      ///< capacitive-mode feedback cap (the §4 knob)
  double c_ref_f{100e-15};     ///< on-chip reference capacitor branch

  LoopCoefficients loop{};
  OpAmpConfig opamp1{};
  OpAmpConfig opamp2{};
  ComparatorConfig comparator{};

  double clock_jitter_rms_s{1e-9};
  double ref_noise_vrms{20e-6};
  double cap_mismatch_sigma{0.001};  ///< relative σ of each capacitor
  /// Correlated-double-sampling rejection of op-amp flicker noise
  /// (amplitude factor; 1 = no CDS). SC integrators sample the op-amp
  /// offset/1-f error every phase, which first-order cancels it.
  double cds_flicker_rejection{30.0};
  double temperature_k{300.0};
  bool enable_ktc_noise{true};
  bool enable_settling{true};
  std::uint64_t seed{42};
};

class DeltaSigmaModulator {
 public:
  explicit DeltaSigmaModulator(const ModulatorConfig& config);

  /// One clock in voltage mode; `vin_v` is the differential input.
  /// Returns the output bit (+1 / −1).
  [[nodiscard]] int step_voltage(double vin_v);

  /// One clock in capacitive mode with explicit sensor and reference
  /// capacitance values [F].
  [[nodiscard]] int step_capacitive(double c_sense_f, double c_ref_f);

  /// Capacitive mode against the configured on-chip reference branch.
  [[nodiscard]] int step_capacitive(double c_sense_f) {
    return step_capacitive(c_sense_f, config_.c_ref_f * ref_mismatch_);
  }

  /// Runs `n` clocks in capacitive mode at fixed sensor/reference
  /// capacitances, writing the ±1 bitstream to `bits_out` (room for n).
  /// Bit-identical to n step_capacitive(c_sense_f, c_ref_f) calls, but
  /// restructured around a per-frame noise plan: every Gaussian the frame
  /// will consume is pre-drawn into SoA buffers (one per source, in the
  /// exact interleaved order the scalar path draws them — see
  /// fill_noise_plan_), and the per-clock loop reduces to the ~10-flop loop
  /// recurrence plus buffer reads. Op-amp settling is additionally skipped
  /// whenever the step provably settles exactly (OpAmp::full_settle_threshold
  /// against the config-fixed clock phase). The loop itself is the bank
  /// kernel at width 1 (bank_kernel.hpp), reading the plan in place. This is
  /// the acquisition pipeline's block hot path.
  void step_capacitive_block(double c_sense_f, double c_ref_f, int* bits_out,
                             std::size_t n);

  /// Runs `n` clocks in voltage mode with `vin_of_t` evaluated at jittered
  /// sampling instants. Returns the ±1 bitstream.
  [[nodiscard]] std::vector<int> run_voltage(
      const std::function<double(double)>& vin_of_t, std::size_t n);

  /// Runs `n` clocks sampling a time-varying sensor capacitance.
  [[nodiscard]] std::vector<int> run_capacitive(
      const std::function<double(double)>& c_sense_of_t, std::size_t n);

  void reset();

  /// Switches the first-stage feedback capacitor bank (§4: "adjusting the
  /// feedback capacitors of the first modulator stage"). Takes effect on the
  /// next clock; the per-die mismatch factor is retained. Throws
  /// std::invalid_argument unless the value is finite and positive.
  void set_feedback_capacitor(double c_fb1_f);

  /// Capacitive-mode full-scale capacitance difference:
  /// ΔC_FS = C_fb1 · V_ref / V_exc.
  [[nodiscard]] double full_scale_delta_c() const noexcept;

  /// Normalized input that a given ΔC = C_sense − C_ref produces.
  [[nodiscard]] double normalized_input(double delta_c_f) const noexcept;

  [[nodiscard]] const ModulatorConfig& config() const noexcept { return config_; }
  [[nodiscard]] double integrator1_v() const noexcept { return x1_ * config_.loop.state_scale_v; }
  [[nodiscard]] double integrator2_v() const noexcept { return x2_ * config_.loop.state_scale_v; }
  /// Largest |integrator| voltages seen since reset (stability telemetry).
  [[nodiscard]] double max_state1_v() const noexcept { return max_x1_; }
  [[nodiscard]] double max_state2_v() const noexcept { return max_x2_; }
  /// Number of clipped integrator updates since reset.
  [[nodiscard]] std::size_t clip_count() const noexcept { return clip_count_; }
  [[nodiscard]] double time_s() const noexcept { return time_s_; }

  /// Checkpointing: integrator states, output bit, clock, telemetry peaks,
  /// every noise stream (white, both flicker generators, comparator) and the
  /// runtime-switchable C_fb1. The per-die mismatch draws, settle thresholds
  /// and LUT-free invariants are construction-time state and reproduce from
  /// the config; the per-frame noise plan is transient (checkpoints are
  /// taken between frames, when the plan is fully consumed). restore throws
  /// CheckpointError when the output bit or the comparator memory is not ±1
  /// or C_fb1 is not finite and positive.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  friend class ModulatorBank;

  /// Shared loop update; `u` is the normalized input (full scale ±1) and
  /// `extra_noise_u` is mode-specific input-referred noise. This is the
  /// scalar reference every block path is tested against.
  [[nodiscard]] int step_normalized(double u, double extra_noise_u);

  /// Per-sample flicker amplitude for one op-amp (0 if disabled).
  [[nodiscard]] double flicker_scale(const OpAmpConfig& amp) const noexcept;

  /// One frame's worth of pre-drawn noise, SoA: one buffer per source. The
  /// shared-stream sources (kT/C, reference, op-amp 1, op-amp 2) are
  /// de-interleaved from a single bulk Rng::fill_gaussian; flicker and
  /// comparator noise come from their own streams. Values are stored
  /// post-scaling with each source's exact scalar draw-site expression, so
  /// the kernel just adds them.
  struct NoisePlan {
    /// One decimated output sample per fill: OSR clocks at the paper's
    /// operating point (128 kHz / 1 kS/s).
    static constexpr std::size_t kFrame = 128;
    std::array<double, kFrame> ktc;
    std::array<double, kFrame> ref;
    std::array<double, kFrame> op1;
    std::array<double, kFrame> flick1;
    std::array<double, kFrame> op2;
    std::array<double, kFrame> flick2;
    std::array<double, kFrame> comp;
  };

  /// Where build_shared_plan_ writes: clock i of each shared source at
  /// [i * stride] (stride 1 for plan_, the packet width for a bank's
  /// transposed buffers).
  struct SharedPlanDest {
    double* ktc;
    double* ref;
    double* op1;
    double* op2;
    std::size_t stride;
  };
  [[nodiscard]] SharedPlanDest own_shared_dest_() noexcept {
    return {plan_.ktc.data(), plan_.ref.data(), plan_.op1.data(),
            plan_.op2.data(), 1};
  }

  /// Capacitive-mode loop invariants, hoisted verbatim from step_capacitive.
  struct CapacitiveInput {
    double u{0.0};        ///< normalized input q_sig / q_fs
    double sigma_u{0.0};  ///< kT/C sigma in FS units (0 when disabled)
  };
  [[nodiscard]] CapacitiveInput capacitive_input_(double c_sense_f,
                                                  double c_ref_f) const noexcept;

  /// Fills plan_ for the next `n` clocks (n <= NoisePlan::kFrame), advancing
  /// every noise stream exactly as n scalar steps would.
  void fill_noise_plan_(std::size_t n, double sigma_u) noexcept;

  // fill_noise_plan_ is split into the pieces below so the ModulatorBank can
  // drive the same plan construction with cross-lane batched Gaussian fills
  // (Rng::fill_gaussian_multi): the bank bulk-draws each stream group for a
  // whole lane packet, then calls the per-lane de-interleave/replay helpers.
  // Scalar and bank paths share these bodies, so they cannot drift apart.

  /// Shared-stream (rng_) standard normals consumed per clock.
  [[nodiscard]] std::size_t shared_draws_per_clock_() const noexcept;
  /// De-interleaves a shared-stream raw fill (n * shared_draws_per_clock_
  /// standard normals) into `dest` with each source's exact draw-site
  /// expression.
  void build_shared_plan_(std::size_t n, double sigma_u, const double* raw,
                          const SharedPlanDest& dest) const noexcept;
  /// Draw-site scaling of the unit pink samples in plan_.flick1 (stage 1)
  /// or plan_.flick2 (stage 2).
  void apply_flicker_scale_(int stage, std::size_t n) noexcept;

  /// The bank kernel's per-packet branch set for this modulator
  /// (bankkernel::Branch bits): loop order, settling, and which noise
  /// sources exist. ModulatorBank packs lanes with equal masks together.
  [[nodiscard]] std::uint32_t kernel_branches_() const noexcept;
  /// Loads this modulator's loop state and invariants into kernel slot `w`
  /// of `s` (`u` = normalized input); store_kernel_slot_ writes the state
  /// back. This pair is the whole list of what the kernel reads and writes.
  void load_kernel_slot_(bankkernel::LaneSlots& s, std::size_t w,
                         double u) const noexcept;
  void store_kernel_slot_(const bankkernel::LaneSlots& s,
                          std::size_t w) noexcept;
  /// A width-1 view of this modulator: state in slot 0 of `s`, noise read
  /// straight from plan_, bit i of each frame written to (*bits)[i].
  [[nodiscard]] bankkernel::PacketView solo_view_(bankkernel::LaneSlots& s,
                                                  int* const* bits) noexcept;
  // The kernel's scalar escapes for a lane of this modulator (`ctx`). The
  // metastable one rewrites plan_.comp in place through the comparator.
  static double settle_escape_(void* ctx, std::size_t slot, int stage,
                               double v);
  static double metastable_escape_(void* ctx, std::size_t slot,
                                   std::size_t clock);

  ModulatorConfig config_;
  OpAmp opamp1_;
  OpAmp opamp2_;
  Comparator comparator_;
  Rng rng_;
  PinkNoise flicker1_;
  PinkNoise flicker2_;
  double flicker_scale1_{0.0};
  double flicker_scale2_{0.0};
  double x1_{0.0};  ///< first-integrator state, full-scale units
  double x2_{0.0};  ///< second-integrator state, full-scale units
  int bit_{1};
  double time_s_{0.0};
  double max_x1_{0.0};
  double max_x2_{0.0};
  std::size_t clip_count_{0};
  // Static mismatch draws (fixed per instance, like a fabricated die).
  double sample_mismatch_{1.0};
  double fb1_mismatch_{1.0};
  double ref_mismatch_{1.0};
  double g2_mismatch_{1.0};
  // Block-path invariants, fixed at construction (dt is set by the clock).
  NoisePlan plan_{};
  double dt_phase_s_{0.0};       ///< one clock phase, 0.5 / fs
  double clock_period_s_{0.0};   ///< cached 1.0 / fs (IEEE division — exact
                                 ///< same double the scalar path recomputes)
  double settle_exact1_v_{0.0};  ///< OpAmp::full_settle_threshold(dt) per stage
  double settle_exact2_v_{0.0};
  double swing1_v_{0.0};         ///< cached OpAmpConfig::output_swing_v
  double swing2_v_{0.0};
  metrics::Counter* noise_plan_fills_metric_{nullptr};
};

}  // namespace tono::analog
