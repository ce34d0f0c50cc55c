#include "src/dsp/decimation.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/common/checkpoint.hpp"
#include "src/common/fixed_point.hpp"
#include "src/dsp/fir_design.hpp"

namespace tono::dsp {
namespace {

constexpr int kFirGuardBits = 4;  // headroom between FIR word and output word

DecimationConfig validated(DecimationConfig c) {
  if (c.cic_decimation == 0 || c.total_decimation % c.cic_decimation != 0) {
    throw std::invalid_argument{"DecimationChain: CIC decimation must divide total"};
  }
  const std::size_t fir_dec = c.total_decimation / c.cic_decimation;
  if (fir_dec == 0) throw std::invalid_argument{"DecimationChain: zero FIR decimation"};
  const double out_rate = c.input_rate_hz / static_cast<double>(c.total_decimation);
  if (c.cutoff_hz <= 0.0 || c.cutoff_hz > out_rate / 2.0) {
    throw std::invalid_argument{"DecimationChain: cutoff must be in (0, output Nyquist]"};
  }
  if (c.fir_taps < 4) throw std::invalid_argument{"DecimationChain: too few FIR taps"};
  if (c.output_bits < 2 || c.output_bits > 24) {
    throw std::invalid_argument{"DecimationChain: output_bits out of range"};
  }
  return c;
}

std::vector<double> design_second_stage(const DecimationConfig& c) {
  const double fir_rate = c.input_rate_hz / static_cast<double>(c.cic_decimation);
  // Keep the cutoff strictly inside (0, fir_rate/2).
  const double cutoff = std::min(c.cutoff_hz, fir_rate / 2.0 * 0.95);
  if (c.compensate_cic_droop) {
    return design_cic_compensator(c.fir_taps, cutoff, fir_rate, c.cic_order,
                                  c.cic_decimation);
  }
  return design_lowpass(c.fir_taps, cutoff, fir_rate);
}

}  // namespace

DecimationChain::DecimationChain(const DecimationConfig& config)
    : config_(validated(config)),
      cic_(config_.cic_order, config_.cic_decimation, /*input_bits=*/2),
      fir_coeffs_(design_second_stage(config_)),
      fir_(quantize_coefficients(fir_coeffs_, config_.fir_coeff_frac_bits),
           config_.fir_coeff_frac_bits,
           config_.output_bits + kFirGuardBits,
           config_.total_decimation / config_.cic_decimation),
      fir_input_bits_(config_.output_bits + kFirGuardBits),
      cic_scratch_(config_.total_decimation / config_.cic_decimation) {
  // Map the raw CIC output (full scale = ±gain for a ±1 bitstream) onto the
  // FIR's input word so the chain's unity gain lands on the output word's
  // full scale.
  const double full_scale = static_cast<double>(std::int64_t{1} << (fir_input_bits_ - 1));
  cic_scale_ = full_scale / static_cast<double>(cic_.gain());
  auto& reg = metrics::Registry::global();
  samples_metric_ = &reg.counter(metrics::names::kDecimationSamples);
  saturations_metric_ = &reg.counter(metrics::names::kDecimationFirSaturations);
}

DecimatedSample DecimationChain::finalize_output_(std::int64_t fir_out) {
  // Round the guard bits away and saturate into the final output word.
  const int shift = kFirGuardBits;
  const std::int64_t half = std::int64_t{1} << (shift - 1);
  const std::int64_t raw = (fir_out + half) >> shift;
  const std::int64_t code = saturate_to_bits(raw, config_.output_bits);
  samples_metric_->add(1);
  if (code != raw) saturations_metric_->add(1);
  return DecimatedSample{code, dequantize_from_bits(code, config_.output_bits)};
}

std::optional<DecimatedSample> DecimationChain::push(int modulator_bit) {
  const auto cic_out = cic_.push(modulator_bit);
  if (!cic_out) return std::nullopt;
  const double scaled = static_cast<double>(*cic_out) * cic_scale_;
  const auto fir_in = static_cast<std::int64_t>(scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5);
  const auto fir_out = fir_.push(fir_in);
  if (!fir_out) return std::nullopt;
  return finalize_output_(*fir_out);
}

DecimatedSample DecimationChain::push_frame(std::span<const int> bits) {
  assert(bits.size() == config_.total_decimation);
  // One frame spans exactly fir_decimation CIC output instants and exactly
  // one FIR output instant, at any phase alignment: with R = cic_decimation
  // and phase p, floor((p + R·k)/R) − floor(p/R) = k, and the same argument
  // applies one stage up.
  const std::size_t m = cic_.push_block(bits.data(), bits.size(), cic_scratch_.data());
  DecimatedSample out{};
#ifndef NDEBUG
  bool produced = false;
#endif
  for (std::size_t j = 0; j < m; ++j) {
    const double scaled = static_cast<double>(cic_scratch_[j]) * cic_scale_;
    const auto fir_in = static_cast<std::int64_t>(scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5);
    const auto fir_out = fir_.push(fir_in);
    if (!fir_out) continue;
    out = finalize_output_(*fir_out);
#ifndef NDEBUG
    produced = true;
#endif
  }
  assert(produced);
  return out;
}

void DecimationChain::push_block(std::span<const int> bits,
                                 std::vector<DecimatedSample>& out) {
  const std::size_t frame = config_.total_decimation;
  std::size_t i = 0;
  for (; bits.size() - i >= frame; i += frame) {
    out.push_back(push_frame(bits.subspan(i, frame)));
  }
  // A partial tail can still cross an output instant depending on phase.
  for (; i < bits.size(); ++i) {
    if (auto s = push(bits[i])) out.push_back(*s);
  }
}

std::vector<DecimatedSample> DecimationChain::process(std::span<const int> bits) {
  std::vector<DecimatedSample> out;
  out.reserve(bits.size() / config_.total_decimation + 1);
  push_block(bits, out);
  return out;
}

std::vector<double> DecimationChain::process_values(std::span<const int> bits) {
  const auto samples = process(bits);
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.value);
  return out;
}

void DecimationChain::reset() {
  cic_.reset();
  fir_.reset();
}

void DecimationChain::serialize(CheckpointWriter& out) const {
  out.section("decimation_chain");
  cic_.serialize(out);
  fir_.serialize(out);
}

void DecimationChain::restore(CheckpointReader& in) {
  in.section("decimation_chain");
  cic_.restore(in);
  fir_.restore(in);
}

double DecimationChain::output_rate_hz() const noexcept {
  return config_.input_rate_hz / static_cast<double>(config_.total_decimation);
}

double DecimationChain::magnitude_at(double freq_hz) const {
  const double fir_rate = config_.input_rate_hz / static_cast<double>(config_.cic_decimation);
  return cic_.magnitude_at(freq_hz, config_.input_rate_hz) *
         fir_magnitude_at(fir_coeffs_, freq_hz, fir_rate);
}

double DecimationChain::group_delay_seconds() const noexcept {
  const double rm = static_cast<double>(config_.cic_decimation);
  const double cic_delay =
      static_cast<double>(config_.cic_order) * (rm - 1.0) / 2.0;  // input samples
  const double fir_delay = (static_cast<double>(config_.fir_taps) - 1.0) / 2.0 *
                           static_cast<double>(config_.cic_decimation);
  return (cic_delay + fir_delay) / config_.input_rate_hz;
}

}  // namespace tono::dsp
