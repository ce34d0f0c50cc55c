#include "src/analog/modulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "src/common/checkpoint.hpp"
#include "src/common/units.hpp"

namespace tono::analog {
namespace {

bool finite_positive(double v) noexcept { return std::isfinite(v) && v > 0.0; }

}  // namespace

namespace bankkernel {

void run_packets_scalar(PacketView* packets, std::size_t n_packets,
                        std::size_t n_clocks) {
  run_packets<VecScalar>(packets, n_packets, n_clocks);
}

}  // namespace bankkernel

DeltaSigmaModulator::DeltaSigmaModulator(const ModulatorConfig& config)
    : config_(config),
      opamp1_(config.opamp1),
      opamp2_(config.opamp2),
      comparator_(config.comparator, Rng{config.seed}.fork_named("comparator")),
      rng_(Rng{config.seed}.fork_named("modulator")),
      flicker1_(Rng{config.seed}.fork_named("flicker1"), 20),
      flicker2_(Rng{config.seed}.fork_named("flicker2"), 20) {
  flicker_scale1_ = flicker_scale(config_.opamp1);
  flicker_scale2_ = flicker_scale(config_.opamp2);
  if (config_.sampling_rate_hz <= 0.0) {
    throw std::invalid_argument{"DeltaSigmaModulator: sampling rate must be > 0"};
  }
  if (config_.vref_v <= 0.0 || config_.vexc_v <= 0.0) {
    throw std::invalid_argument{"DeltaSigmaModulator: references must be > 0"};
  }
  if (config_.c_sample_f <= 0.0 || config_.c_fb1_f <= 0.0 || config_.c_ref_f <= 0.0) {
    throw std::invalid_argument{"DeltaSigmaModulator: capacitors must be > 0"};
  }
  if (config_.order != 1 && config_.order != 2) {
    throw std::invalid_argument{"DeltaSigmaModulator: order must be 1 or 2"};
  }
  Rng mismatch_rng = Rng{config_.seed}.fork_named("mismatch");
  const double sigma = config_.cap_mismatch_sigma;
  sample_mismatch_ = 1.0 + mismatch_rng.gaussian(0.0, sigma);
  fb1_mismatch_ = 1.0 + mismatch_rng.gaussian(0.0, sigma);
  ref_mismatch_ = 1.0 + mismatch_rng.gaussian(0.0, sigma);
  g2_mismatch_ = 1.0 + mismatch_rng.gaussian(0.0, sigma);
  // Block-path invariants: the clock phase is fixed by the config, so the
  // exact-settle thresholds can be resolved once here instead of per clock.
  dt_phase_s_ = 0.5 / config_.sampling_rate_hz;
  clock_period_s_ = 1.0 / config_.sampling_rate_hz;
  settle_exact1_v_ = opamp1_.full_settle_threshold(dt_phase_s_);
  settle_exact2_v_ = opamp2_.full_settle_threshold(dt_phase_s_);
  swing1_v_ = config_.opamp1.output_swing_v;
  swing2_v_ = config_.opamp2.output_swing_v;
  noise_plan_fills_metric_ =
      &metrics::Registry::global().counter(metrics::names::kModulatorNoisePlanFills);
}

double DeltaSigmaModulator::flicker_scale(const OpAmpConfig& amp) const noexcept {
  if (amp.flicker_corner_hz <= 0.0 || amp.noise_vrms <= 0.0) return 0.0;
  // White PSD: σ_w² / (fs/2). Pink generator: unit variance spread as c/f
  // over [f_lo, fs/2] with f_lo = fs/2^octaves (20 octaves) →
  // c = 1/ln(2^19). Scale g so g²·c/f_corner = white PSD, i.e. the flicker
  // PSD crosses the white floor at the corner; CDS divides the amplitude.
  const double fs_half = 0.5 * config_.sampling_rate_hz;
  const double c = 1.0 / (19.0 * std::log(2.0));
  const double white_psd = amp.noise_vrms * amp.noise_vrms / fs_half;
  const double g = std::sqrt(white_psd * amp.flicker_corner_hz / c);
  const double rejection = std::max(config_.cds_flicker_rejection, 1.0);
  return g / rejection;
}

void DeltaSigmaModulator::set_feedback_capacitor(double c_fb1_f) {
  if (!finite_positive(c_fb1_f)) {
    throw std::invalid_argument{"set_feedback_capacitor: must be finite and > 0"};
  }
  config_.c_fb1_f = c_fb1_f;
}

double DeltaSigmaModulator::full_scale_delta_c() const noexcept {
  return config_.c_fb1_f * fb1_mismatch_ * config_.vref_v / config_.vexc_v;
}

double DeltaSigmaModulator::normalized_input(double delta_c_f) const noexcept {
  return delta_c_f / full_scale_delta_c();
}

int DeltaSigmaModulator::step_normalized(double u, double extra_noise_u) {
  const double vref = config_.vref_v;
  const double dt = 0.5 / config_.sampling_rate_hz;  // one clock phase
  const auto& lc = config_.loop;
  const double scale = lc.state_scale_v;  // volts per unit of loop state

  // Reference noise enters through the feedback charge.
  double ref_err_u = 0.0;
  if (config_.ref_noise_vrms > 0.0) {
    ref_err_u = rng_.gaussian(0.0, config_.ref_noise_vrms) / vref;
  }

  const double d = static_cast<double>(bit_);

  // ---- First integrator (delaying): x1 += g1·u − a1·d, state in FS units.
  const double u_total = u + extra_noise_u + ref_err_u * d;
  double delta1 = lc.g1 * u_total - lc.a1 * d * (1.0 + ref_err_u);
  // Op-amp thermal + flicker noise, referred to the integrator output node.
  if (config_.opamp1.noise_vrms > 0.0) {
    delta1 += rng_.gaussian(0.0, config_.opamp1.noise_vrms) / scale;
  }
  if (flicker_scale1_ > 0.0) {
    delta1 += flicker1_.next() * flicker_scale1_ / scale;
  }
  if (config_.enable_settling) {
    delta1 = opamp1_.settle(delta1 * scale, dt) / scale;
  }
  const double x1_prev = x1_;
  const double x1_new = opamp1_.leak_factor() * x1_ + delta1;
  const double x1_clipped = opamp1_.clip(x1_new * scale) / scale;
  if (x1_clipped != x1_new) ++clip_count_;
  x1_ = x1_clipped;

  max_x1_ = std::max(max_x1_, std::abs(x1_ * scale));

  if (config_.order == 1) {
    // Single-integrator baseline: the quantizer closes directly on x1.
    bit_ = comparator_.decide(x1_ * scale);
    time_s_ += 1.0 / config_.sampling_rate_hz;
    return bit_;
  }

  // ---- Second integrator: x2 += g2·x1_prev − a2·d (x1 half-cycle delayed).
  double delta2 = lc.g2 * g2_mismatch_ * x1_prev - lc.a2 * d;
  if (config_.opamp2.noise_vrms > 0.0) {
    delta2 += rng_.gaussian(0.0, config_.opamp2.noise_vrms) / scale;
  }
  if (flicker_scale2_ > 0.0) {
    delta2 += flicker2_.next() * flicker_scale2_ / scale;
  }
  if (config_.enable_settling) {
    delta2 = opamp2_.settle(delta2 * scale, dt) / scale;
  }
  const double x2_new = opamp2_.leak_factor() * x2_ + delta2;
  const double x2_clipped = opamp2_.clip(x2_new * scale) / scale;
  if (x2_clipped != x2_new) ++clip_count_;
  x2_ = x2_clipped;

  max_x2_ = std::max(max_x2_, std::abs(x2_ * scale));

  // ---- Quantizer sees the physical second-integrator output voltage.
  bit_ = comparator_.decide(x2_ * scale);
  time_s_ += 1.0 / config_.sampling_rate_hz;
  return bit_;
}

int DeltaSigmaModulator::step_voltage(double vin_v) {
  const double c_s = config_.c_sample_f * sample_mismatch_;
  double noise_u = 0.0;
  if (config_.enable_ktc_noise) {
    // Input + feedback branches sample on c_sample twice per period:
    // variance 4·kT·C in charge, normalized by the full-scale charge.
    const double q_sigma =
        std::sqrt(4.0 * units::k_boltzmann * config_.temperature_k * c_s);
    noise_u = rng_.gaussian(0.0, q_sigma / (c_s * config_.vref_v));
  }
  return step_normalized(vin_v / config_.vref_v, noise_u);
}

int DeltaSigmaModulator::step_capacitive(double c_sense_f, double c_ref_f) {
  const double c_fb = config_.c_fb1_f * fb1_mismatch_;
  const double q_fs = c_fb * config_.vref_v;
  const double q_sig = (c_sense_f - c_ref_f) * config_.vexc_v;
  double noise_u = 0.0;
  if (config_.enable_ktc_noise) {
    // Sensor, reference and feedback branches each contribute kT·C per
    // phase; two phases per conversion.
    const double c_total = c_sense_f + c_ref_f + c_fb;
    const double q_sigma =
        std::sqrt(2.0 * units::k_boltzmann * config_.temperature_k * c_total * 2.0);
    noise_u = rng_.gaussian(0.0, q_sigma / q_fs);
  }
  return step_normalized(q_sig / q_fs, noise_u);
}

DeltaSigmaModulator::CapacitiveInput DeltaSigmaModulator::capacitive_input_(
    double c_sense_f, double c_ref_f) const noexcept {
  // Everything that depends only on the capacitances is loop-invariant; the
  // expressions below are copied verbatim from step_capacitive so the hoisted
  // values are bit-identical to what each scalar call would recompute.
  CapacitiveInput in;
  const double c_fb = config_.c_fb1_f * fb1_mismatch_;
  const double q_fs = c_fb * config_.vref_v;
  const double q_sig = (c_sense_f - c_ref_f) * config_.vexc_v;
  in.u = q_sig / q_fs;
  if (config_.enable_ktc_noise) {
    const double c_total = c_sense_f + c_ref_f + c_fb;
    const double q_sigma =
        std::sqrt(2.0 * units::k_boltzmann * config_.temperature_k * c_total * 2.0);
    in.sigma_u = q_sigma / q_fs;
  }
  return in;
}

std::size_t DeltaSigmaModulator::shared_draws_per_clock_() const noexcept {
  return static_cast<std::size_t>(
      std::popcount(kernel_branches_() & bankkernel::kSharedSources));
}

void DeltaSigmaModulator::build_shared_plan_(
    std::size_t n, double sigma_u, const double* raw,
    const SharedPlanDest& dest) const noexcept {
  // The shared stream's draw order per clock is [kT/C, ref, op-amp1,
  // op-amp2], each present only when its source is enabled — and
  // gaussian(mean, sigma) is an affine map over gaussian(), so the standard
  // normals behind all of them form ONE sequence (`raw`). De-interleave into
  // the SoA buffers applying each source's exact draw-site expression,
  // including its `0.0 +` (which turns a −0.0 product into +0.0, as the
  // scalar path's mean addition does).
  using namespace bankkernel;
  const std::uint32_t b = kernel_branches_();
  const double vref = config_.vref_v;
  const double scale = config_.loop.state_scale_v;
  std::size_t j = 0;
  for (std::size_t i = 0, at = 0; i < n; ++i, at += dest.stride) {
    if (b & kKtc) dest.ktc[at] = 0.0 + sigma_u * raw[j++];
    if (b & kRef) dest.ref[at] = (0.0 + config_.ref_noise_vrms * raw[j++]) / vref;
    if (b & kOp1) dest.op1[at] = (0.0 + config_.opamp1.noise_vrms * raw[j++]) / scale;
    if (b & kOp2) dest.op2[at] = (0.0 + config_.opamp2.noise_vrms * raw[j++]) / scale;
  }
}

void DeltaSigmaModulator::apply_flicker_scale_(int stage, std::size_t n) noexcept {
  double* flick = (stage == 1 ? plan_.flick1 : plan_.flick2).data();
  const double g = stage == 1 ? flicker_scale1_ : flicker_scale2_;
  const double scale = config_.loop.state_scale_v;
  for (std::size_t i = 0; i < n; ++i) flick[i] = flick[i] * g / scale;
}

std::uint32_t DeltaSigmaModulator::kernel_branches_() const noexcept {
  using namespace bankkernel;
  const bool order2 = config_.order == 2;
  std::uint32_t b = 0;
  if (order2) b |= kOrder2;
  if (config_.enable_settling) b |= kSettling;
  if (config_.enable_ktc_noise) b |= kKtc;
  if (config_.ref_noise_vrms > 0.0) b |= kRef;
  if (config_.opamp1.noise_vrms > 0.0) b |= kOp1;
  if (flicker_scale1_ > 0.0) b |= kFl1;
  if (order2 && config_.opamp2.noise_vrms > 0.0) b |= kOp2;
  if (order2 && flicker_scale2_ > 0.0) b |= kFl2;
  if (config_.comparator.noise_vrms > 0.0) b |= kComp;
  return b;
}

void DeltaSigmaModulator::load_kernel_slot_(bankkernel::LaneSlots& s,
                                            std::size_t w,
                                            double u) const noexcept {
  s.x1[w] = x1_;
  s.x2[w] = x2_;
  s.d[w] = static_cast<double>(bit_);
  s.last[w] = static_cast<double>(comparator_.last_decision());
  s.time_s[w] = time_s_;
  s.max1[w] = max_x1_;
  s.max2[w] = max_x2_;
  s.clips[w] = 0.0;  // per-block count, added to clip_count_ on store
  s.u[w] = u;
  s.g1[w] = config_.loop.g1;
  s.a1[w] = config_.loop.a1;
  // delta2 = g2 * g2_mismatch_ * x1_prev associates left, so pre-multiplying
  // the first product is exact.
  s.p2[w] = config_.loop.g2 * g2_mismatch_;
  s.a2[w] = config_.loop.a2;
  s.scale[w] = config_.loop.state_scale_v;
  s.leak1[w] = opamp1_.leak_factor();
  s.leak2[w] = opamp2_.leak_factor();
  s.swing1[w] = swing1_v_;
  s.swing2[w] = swing2_v_;
  s.settle1[w] = settle_exact1_v_;
  s.settle2[w] = settle_exact2_v_;
  s.comp_offset[w] = comparator_.config().offset_v;
  // 0.5 * hysteresis_v * (−last) also associates left.
  s.comp_halfhyst[w] = 0.5 * comparator_.config().hysteresis_v;
  s.comp_band[w] = comparator_.config().metastable_band_v;
  s.clock_period[w] = clock_period_s_;
}

void DeltaSigmaModulator::store_kernel_slot_(const bankkernel::LaneSlots& s,
                                             std::size_t w) noexcept {
  x1_ = s.x1[w];
  x2_ = s.x2[w];
  bit_ = static_cast<int>(s.d[w]);
  comparator_.set_last_decision(static_cast<int>(s.last[w]));
  time_s_ = s.time_s[w];
  max_x1_ = s.max1[w];
  max_x2_ = s.max2[w];
  clip_count_ += static_cast<std::size_t>(s.clips[w]);
}

bankkernel::PacketView DeltaSigmaModulator::solo_view_(
    bankkernel::LaneSlots& s, int* const* bits) noexcept {
  bankkernel::PacketView v;
  v.width = 1;
  v.slots = &s;
  v.ktc = plan_.ktc.data();
  v.ref = plan_.ref.data();
  v.op1 = plan_.op1.data();
  v.fl1 = plan_.flick1.data();
  v.op2 = plan_.op2.data();
  v.fl2 = plan_.flick2.data();
  v.comp = plan_.comp.data();
  v.branches = kernel_branches_();
  v.bits = bits;
  v.ctx = this;
  v.settle_fn = &DeltaSigmaModulator::settle_escape_;
  v.metastable_fn = &DeltaSigmaModulator::metastable_escape_;
  return v;
}

double DeltaSigmaModulator::settle_escape_(void* ctx, std::size_t /*slot*/,
                                           int stage, double v) {
  const auto& mod = *static_cast<const DeltaSigmaModulator*>(ctx);
  const OpAmp& amp = stage == 1 ? mod.opamp1_ : mod.opamp2_;
  return amp.settle(v, mod.dt_phase_s_);
}

double DeltaSigmaModulator::metastable_escape_(void* ctx, std::size_t /*slot*/,
                                               std::size_t clock) {
  auto& mod = *static_cast<DeltaSigmaModulator*>(ctx);
  return static_cast<double>(mod.comparator_.decide_metastable_at(clock));
}

void DeltaSigmaModulator::fill_noise_plan_(std::size_t n,
                                           double sigma_u) noexcept {
  // Generate the whole frame's worth of shared-stream normals in a single
  // bulk fill (same end state as the interleaved scalar draws), then
  // de-interleave. See build_shared_plan_.
  double raw[4 * NoisePlan::kFrame];
  rng_.fill_gaussian(raw, n * shared_draws_per_clock_());
  build_shared_plan_(n, sigma_u, raw, own_shared_dest_());
  if (flicker_scale1_ > 0.0) {
    flicker1_.fill_next(plan_.flick1.data(), n);
    apply_flicker_scale_(1, n);
  }
  if (config_.order == 2 && flicker_scale2_ > 0.0) {
    flicker2_.fill_next(plan_.flick2.data(), n);
    apply_flicker_scale_(2, n);
  }
  comparator_.plan(plan_.comp.data(), n);
  noise_plan_fills_metric_->add(1);  // frame rate — inside the hot-path contract
}

void DeltaSigmaModulator::step_capacitive_block(double c_sense_f, double c_ref_f,
                                                int* bits_out, std::size_t n) {
  const CapacitiveInput in = capacitive_input_(c_sense_f, c_ref_f);
  bankkernel::LaneSlots slots;
  load_kernel_slot_(slots, 0, in.u);
  bankkernel::PacketView view = solo_view_(slots, &bits_out);
  while (n > 0) {
    const std::size_t frame = std::min<std::size_t>(n, NoisePlan::kFrame);
    fill_noise_plan_(frame, in.sigma_u);
    bankkernel::run_packets_scalar(&view, 1, frame);
    bits_out += frame;
    n -= frame;
  }
  store_kernel_slot_(slots, 0);
}

std::vector<int> DeltaSigmaModulator::run_voltage(
    const std::function<double(double)>& vin_of_t, std::size_t n) {
  std::vector<int> bits;
  bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double t = time_s_;
    if (config_.clock_jitter_rms_s > 0.0) {
      t += rng_.gaussian(0.0, config_.clock_jitter_rms_s);
    }
    bits.push_back(step_voltage(vin_of_t(t)));
  }
  return bits;
}

std::vector<int> DeltaSigmaModulator::run_capacitive(
    const std::function<double(double)>& c_sense_of_t, std::size_t n) {
  std::vector<int> bits;
  bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double t = time_s_;
    if (config_.clock_jitter_rms_s > 0.0) {
      t += rng_.gaussian(0.0, config_.clock_jitter_rms_s);
    }
    bits.push_back(step_capacitive(c_sense_of_t(t)));
  }
  return bits;
}

void DeltaSigmaModulator::reset() {
  x1_ = 0.0;
  x2_ = 0.0;
  bit_ = 1;
  time_s_ = 0.0;
  max_x1_ = 0.0;
  max_x2_ = 0.0;
  clip_count_ = 0;
}

void DeltaSigmaModulator::serialize(CheckpointWriter& out) const {
  out.section("modulator");
  out.f64(config_.c_fb1_f);  // runtime-switchable via set_feedback_capacitor
  out.f64(x1_);
  out.f64(x2_);
  out.i64(bit_);
  out.f64(time_s_);
  out.f64(max_x1_);
  out.f64(max_x2_);
  out.size(clip_count_);
  rng_.serialize(out);
  flicker1_.serialize(out);
  flicker2_.serialize(out);
  comparator_.serialize(out);
}

void DeltaSigmaModulator::restore(CheckpointReader& in) {
  in.section("modulator");
  const double c_fb1_f = in.f64();
  if (!finite_positive(c_fb1_f)) {
    throw CheckpointError{"modulator checkpoint C_fb1 is not finite and > 0"};
  }
  config_.c_fb1_f = c_fb1_f;
  x1_ = in.f64();
  x2_ = in.f64();
  const std::int64_t bit = in.i64();
  if (bit != 1 && bit != -1) {
    throw CheckpointError{"modulator checkpoint output bit is not +1/-1"};
  }
  bit_ = static_cast<int>(bit);
  time_s_ = in.f64();
  max_x1_ = in.f64();
  max_x2_ = in.f64();
  clip_count_ = in.size();
  rng_.restore(in);
  flicker1_.restore(in);
  flicker2_.restore(in);
  comparator_.restore(in);
}

}  // namespace tono::analog
