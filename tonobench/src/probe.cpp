// probe — per-frame stage costs of the Fig. 3 chain, for the traced run.
//
// The hospital steps sessions inside src/, where the harness cannot open a
// span, so solo sessions of the same mix are stepped here stage by stage
// through public calls:
//
//   core.acquire     AcquisitionPipeline::acquire_block on the session's
//                    own pipeline, with the ContactField wrapped in a
//                    bio.field span (the only way in to bio);
//   core.monitor     TwoPointCalibration::to_mmhg + StreamingMonitor::push,
//                    at steady state (after the first 8 s analysis window);
//   analog.modulator step_capacitive_block, 128 clocks per frame, on a
//                    modulator built from the session's chip config, fed
//                    the pressures the field produced;
//   dsp.decimation   DecimationChain::push_frame on those bits;
//   mems.array_build core::SensorArray construction (its four LUTs).
//
// acquire_block's own remainder (LUT lookup, time keeping, frame records) is
// acquire − bio − wrapper overhead − analog − dsp.
#include <cmath>
#include <functional>

#include "examples/session_mix.hpp"
#include "src/analog/modulator.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/sensor_array.hpp"
#include "src/core/streaming_monitor.hpp"
#include "src/dsp/decimation.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace tonobench {

namespace {

constexpr std::size_t kProbeSessions = 5;  // one of each mix preset
/// Frames acquired per probe session. The monitor is timed only once its
/// first analysis window has filled, over whole 2 s hops (its work comes in
/// one analysis per hop); the modulator and decimation replica runs on the
/// first kReplicaFrames pressures.
constexpr std::size_t kProbeFrames = kSteadyEndFrames;
constexpr std::size_t kMonitorFromFrame = kSteadyBeginFrames;
constexpr std::size_t kReplicaFrames = 4096;
constexpr std::size_t kArrayBuilds = 3;

/// Cost of the bio.field span wrapper itself, per call [us]: a wrapped and a
/// plain call of a trivial field, timed over many calls.
double wrapper_overhead_us() {
  constexpr int kCalls = 50000;
  volatile double sink = 0.0;
  const tono::core::ContactField plain = [](double x, double, double t) { return x + t; };
  const tono::core::ContactField wrapped = [&plain](double x, double y, double t) {
    Span bio{"probe.wrapper"};
    return plain(x, y, t);
  };
  auto time_calls = [&](const tono::core::ContactField& f) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) sink = sink + f(1e-6, 0.0, static_cast<double>(i));
    return seconds_since(t0) * 1e6 / kCalls;
  };
  const double plain_us = time_calls(plain);
  const double wrapped_us = time_calls(wrapped);
  return wrapped_us - plain_us;
}

}  // namespace

ProbeResult run_probe(const Options& opt) {
  ProbeResult result;
  std::vector<double> build_ms;
  std::uint64_t physio = 0;
  std::size_t field_calls = 0;
  for (std::size_t i = 0; i < kProbeSessions; ++i) {
    tono::fleet::SessionConfig config = tono::examples::session_mix(i);
    config.seed = derive_seed(opt.seed, 0x960BE, i) | 1;
    const auto id = static_cast<std::uint32_t>(i);
    const bool was = enabled();
    set_enabled(false);
    tono::fleet::PatientSession session{id, config};
    session.admit();
    set_enabled(was);
    const tono::core::ChipConfig& chip = session.config().chip;

    for (std::size_t b = 0; b < kArrayBuilds; ++b) {
      const std::int64_t t0 = now_ns();
      Span build{"mems.array_build", id};
      const tono::core::SensorArray array{chip};
      build_ms.push_back(seconds_since(t0) * 1e3);
    }

    auto& monitor = session.monitor();
    auto& pipeline = monitor.pipeline();
    const tono::core::ContactField field = monitor.contact_field();
    std::vector<double> pressures;
    pressures.reserve(kProbeFrames);
    const tono::core::ContactField wrapped = [&](double x, double y, double t) {
      Span bio{"bio.field", id};
      const double p = field(x, y, t);
      pressures.push_back(p);
      return p;
    };
    tono::core::StreamingConfig streaming = session.config().streaming;
    streaming.sample_rate_hz = pipeline.output_rate_hz();
    tono::core::StreamingMonitor stream{streaming};
    const auto& calibration = session.calibration();
    const double pulse_t0 = monitor.pulse().time_s();
    for (std::size_t f = 0; f < kProbeFrames; f += kFramesPerStep) {
      std::vector<tono::dsp::DecimatedSample> samples;
      {
        Span acquire{"core.acquire", id};
        samples = pipeline.acquire_block(wrapped, kFramesPerStep);
      }
      if (f < kMonitorFromFrame) {
        for (const auto& s : samples) stream.push(calibration.to_mmhg(s.value));
        continue;
      }
      Span push{"core.monitor", id};
      for (const auto& s : samples) stream.push(calibration.to_mmhg(s.value));
    }
    // Physiology samples the field advanced through (one per modulator clock).
    physio += static_cast<std::uint64_t>(
        std::llround((monitor.pulse().time_s() - pulse_t0) * chip.modulator.sampling_rate_hz));
    field_calls += pressures.size();
    pressures.resize(kReplicaFrames);

    tono::analog::DeltaSigmaModulator modulator{chip.modulator};
    tono::dsp::DecimationChain chain{chip.decimation};
    std::vector<int> bits(chip.decimation.total_decimation);
    const auto& element = pipeline.array().element(pipeline.selected_row(), pipeline.selected_col());
    const double c_ref = pipeline.array().reference_capacitance();
    const double kelvin = pipeline.temperature_k();
    for (const double p : pressures) {
      const double c = element.capacitance(p, kelvin);
      {
        Span analog{"analog.modulator", id};
        modulator.step_capacitive_block(c, c_ref, bits.data(), bits.size());
      }
      Span dsp{"dsp.decimation", id};
      (void)chain.push_frame(bits);
    }
  }

  const auto frames = static_cast<double>(kProbeSessions * kProbeFrames);
  result.physio_per_frame = static_cast<double>(physio) / frames;
  result.array_build_ms = median(build_ms);
  const double calls_per_frame = static_cast<double>(field_calls) / frames;
  result.wrapper_us = wrapper_overhead_us() * calls_per_frame;

  const auto stats = aggregate(collect());
  auto per_frame_us = [&](const char* name, std::size_t frames_per_session) {
    const auto it = stats.find(name);
    const auto n = static_cast<double>(kProbeSessions * frames_per_session);
    return it == stats.end() ? 0.0 : it->second.total_s * 1e6 / n;
  };
  result.bio_us = per_frame_us("bio.field", kProbeFrames);
  result.acquire_us = per_frame_us("core.acquire", kProbeFrames);
  result.monitor_us = per_frame_us("core.monitor", kProbeFrames - kMonitorFromFrame);
  result.analog_us = per_frame_us("analog.modulator", kReplicaFrames);
  result.dsp_us = per_frame_us("dsp.decimation", kReplicaFrames);
  return result;
}

}  // namespace tonobench
