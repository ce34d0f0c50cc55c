// decimation.hpp — the paper's two-stage decimation filter as one unit.
//
// §2.2/§3.1: "The decimation filter was implemented as a two stage filter
// architecture, comprising a 3rd order SINC-filter as first stage and a
// 32 tap FIR-filter as second stage. The cutoff frequency of the filter is
// 500 Hz and the output resolution is 12 bit."
//
// DecimationChain splits the total OSR (128) between the CIC and the FIR,
// runs both bit-exactly, and rescales the result to a signed 12-bit code /
// normalized double. The split (CIC 32 ×, FIR 4 ×) keeps the 32-tap FIR's
// transition band feasible while the CIC absorbs the bulk rate change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/metrics.hpp"
#include "src/dsp/cic.hpp"
#include "src/dsp/fir_filter.hpp"

namespace tono::dsp {

struct DecimationConfig {
  std::size_t total_decimation{128};  ///< overall OSR (paper: 128)
  std::size_t cic_decimation{32};     ///< first-stage rate change
  int cic_order{3};                   ///< SINC order (paper: 3)
  std::size_t fir_taps{32};           ///< second-stage length (paper: 32)
  double cutoff_hz{500.0};            ///< passband edge at the output (paper: 500 Hz)
  double input_rate_hz{128000.0};     ///< modulator rate (paper: 128 kS/s)
  int output_bits{12};                ///< output resolution (paper: 12 bit)
  int fir_coeff_frac_bits{14};        ///< FPGA coefficient precision
  bool compensate_cic_droop{true};    ///< fold inverse-sinc³ into the FIR
};

/// One output sample: both the integer code and its normalized value.
struct DecimatedSample {
  std::int64_t code{0};   ///< signed `output_bits`-wide word
  double value{0.0};      ///< code scaled to [-1, 1)
};

class DecimationChain {
 public:
  /// Throws std::invalid_argument if the config is inconsistent (decimation
  /// split must multiply to total, cutoff must be below output Nyquist).
  explicit DecimationChain(const DecimationConfig& config);

  /// Feeds one ±1 modulator bit (any small integer is accepted); outputs a
  /// 12-bit sample every `total_decimation` inputs.
  [[nodiscard]] std::optional<DecimatedSample> push(int modulator_bit);

  /// Feeds exactly one output frame — `total_decimation` consecutive bits —
  /// and returns the single sample it produces. Any `total_decimation`
  /// consecutive clocks contain exactly one FIR output instant regardless of
  /// the chain's current phase, so this works mid-stream too. Bit-identical
  /// to pushing the bits one at a time, but the CIC integrators run as a
  /// tight block loop and the FIR only fires at its output instants.
  /// Precondition (asserted): bits.size() == config().total_decimation.
  [[nodiscard]] DecimatedSample push_frame(std::span<const int> bits);

  /// Batch form of push() over an arbitrary number of bits: appends every
  /// produced sample to `out`. Whole frames go through push_frame(); a
  /// trailing partial frame falls back to per-bit push(). Bit-identical to
  /// the per-bit loop.
  void push_block(std::span<const int> bits, std::vector<DecimatedSample>& out);

  /// Batch form over a bitstream of ±1 values (routed through push_block).
  [[nodiscard]] std::vector<DecimatedSample> process(std::span<const int> bits);

  /// Batch form returning only normalized values.
  [[nodiscard]] std::vector<double> process_values(std::span<const int> bits);

  void reset();

  [[nodiscard]] double output_rate_hz() const noexcept;
  [[nodiscard]] const DecimationConfig& config() const noexcept { return config_; }

  /// End-to-end magnitude response at frequency f (input-rate referred),
  /// CIC × FIR, normalized to unity at DC.
  [[nodiscard]] double magnitude_at(double freq_hz) const;

  /// Latency through both stages, in seconds at the input rate.
  [[nodiscard]] double group_delay_seconds() const noexcept;

  /// The designed (float) FIR coefficients, for inspection/tests.
  [[nodiscard]] const std::vector<double>& fir_coefficients() const noexcept {
    return fir_coeffs_;
  }

  /// Checkpointing: the CIC and fixed-point FIR stage states. The scratch
  /// buffer is frame-local and is not serialized.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

 private:
  /// Rounds/saturates a raw FIR word into the output sample and records the
  /// output-rate (1 kHz) instrumentation: samples produced and saturations.
  [[nodiscard]] DecimatedSample finalize_output_(std::int64_t fir_out);

  DecimationConfig config_;
  CicDecimator cic_;
  std::vector<double> fir_coeffs_;  ///< designed once; fir_ quantizes it
  FixedPointFir fir_;
  double cic_scale_;  ///< maps raw CIC output to FIR input word
  int fir_input_bits_;
  /// Per-frame CIC output scratch for push_frame (total/cic values), kept as
  /// a member so the hot path never allocates.
  std::vector<std::int64_t> cic_scratch_;
  // Observability (resolved once at construction; updated at the 1 kHz
  // output rate only, never per input bit).
  metrics::Counter* samples_metric_;
  metrics::Counter* saturations_metric_;
};

}  // namespace tono::dsp
