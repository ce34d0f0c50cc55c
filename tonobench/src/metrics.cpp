#include "metrics.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "src/common/simd.hpp"

#ifndef TONOBENCH_BUILD_TYPE
#define TONOBENCH_BUILD_TYPE "unknown"
#endif

namespace tonobench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"realtime_patients", "patients"},
    {"batch_ms_mean", "ms"},
    {"batch_ms_p90", "ms"},
    {"beat_staleness_s_p50", "s"},
    {"beat_staleness_s_p99", "s"},
    {"admit_ms_mean", "ms"},
    {"admit_ms_p90", "ms"},
    {"readmit_ms_mean", "ms"},
    {"readmit_ms_p90", "ms"},
    {"checkpoint_kb", "KB"},
    {"peak_rss_mb", "MB"},
    {"delivered_share", "ratio"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"bio.field_us_per_frame", "us"},
    {"bio.field_calls_per_frame", "count"},
    {"bio.wrapper_overhead_us_per_frame", "us"},
    {"mems.array_build_ms", "ms"},
    {"analog.modulator_us_per_frame", "us"},
    {"dsp.decimation_us_per_frame", "us"},
    {"core.acquire_us_per_frame", "us"},
    {"core.acquire_rest_us_per_frame", "us"},
    {"core.monitor_us_per_frame", "us"},
    {"core.calibrate_ms", "ms"},
    {"fleet.session_build_ms", "ms"},
    {"fleet.checkpoint_ms", "ms"},
    {"fleet.restore_ms", "ms"},
    {"fleet.restore_rejected", "count"},
    {"fleet.ingest_us_per_frame", "us"},
    {"fleet.hospital_admit_ms", "ms"},
    {"fleet.first_batch_s", "s"},
    {"fleet.batch_skew_ms", "ms"},
    {"fleet.code_drops", "count"},
    {"fleet.event_drops", "count"},
    {"fleet.quarantined", "count"},
    {"gateway.replay_read_us_per_frame", "us"},
    {"gateway.mux_us_per_frame", "us"},
    {"gateway.demux_us_per_frame", "us"},
    {"gateway.wire_bytes_per_code", "B/code"},
    {"gateway.lost_envelopes", "count"},
    {"gateway.corrupt_envelopes", "count"},
    {"closure.measured_us_per_frame", "us"},
    {"closure.stage_sum_us_per_frame", "us"},
    {"unaccounted_us_per_frame", "us"},
    {"stage_share.bio", "ratio"},
    {"stage_share.mems", "ratio"},
    {"stage_share.analog", "ratio"},
    {"stage_share.dsp", "ratio"},
    {"stage_share.core", "ratio"},
    {"stage_share.fleet", "ratio"},
    {"stage_share.gateway", "ratio"},
    {"trace.realtime_patients_delta", "patients"},
    {"trace.spans", "count"},
    {"host.reference_loop_ms", "ms"},
};

namespace {

bool name_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '.' || c == '-';
}

/// JSON number with every significant digit of a double.
std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string percentile_label(std::uint32_t bp) {
  std::string label = "p" + std::to_string(bp / 100);
  if (bp % 100 != 0) label += "." + std::to_string(bp % 100 / 10);
  return label;
}

}  // namespace

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  const char first = name.front();
  if (first == '_' || first == '.' || first == '-') return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) noexcept {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

std::uint64_t samples_beyond(std::uint64_t n, std::uint32_t bp) noexcept {
  const std::uint64_t rank = (n * bp + 9999) / 10000;  // ceil(p·n)
  return n - std::min(n, rank);
}

bool percentile_supported(std::uint64_t n, std::uint32_t bp) noexcept {
  return samples_beyond(n, bp) >= kTailSamples;
}

std::optional<std::uint32_t> highest_percentile(std::uint64_t n) noexcept {
  std::optional<std::uint32_t> best;
  for (const std::uint32_t bp : {5000u, 9000u, 9900u, 9990u}) {
    if (percentile_supported(n, bp)) best = bp;
  }
  return best;
}

double percentile(std::vector<double> values, std::uint32_t bp) {
  const std::uint64_t n = values.size();
  const std::uint64_t rank = std::max<std::uint64_t>(1, (n * bp + 9999) / 10000);
  const auto k = static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[static_cast<std::size_t>(k)];
}

double median(std::vector<double> values) { return percentile(std::move(values), 5000); }

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string describe_sample(const std::vector<double>& values) {
  std::string out = "n=" + std::to_string(values.size());
  const auto top = highest_percentile(values.size());
  if (!top) return out + " (too few samples for any percentile)";
  out += ", mean " + json_number(mean(values));
  out += ", p50 " + json_number(percentile(values, 5000));
  if (*top != 5000) out += ", " + percentile_label(*top) + " " + json_number(percentile(values, *top));
  return out;
}

double Tally::lost_share() const noexcept {
  return attempted == 0 ? 1.0
                        : static_cast<double>(failed) / static_cast<double>(attempted);
}

Tally frame_tally(const std::vector<tono::fleet::WardSessionState>& sessions,
                  std::uint64_t frames_owed) {
  Tally t;
  for (const auto& s : sessions) {
    t.add(frames_owed, frames_owed - std::min(frames_owed, s.codes));
  }
  return t;
}

Report::Report(const std::vector<MetricSpec>& specs) : specs_(specs) {}

void Report::set(const std::string& name, double value) {
  const bool known = std::any_of(specs_.begin(), specs_.end(),
                                 [&](const MetricSpec& s) { return name == s.name; });
  if (!known) {
    fail("metric " + name + " is not in the metric table");
    return;
  }
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    return;
  }
  values_[name] = value;
}

void Report::fail(const std::string& why) { failures_.push_back(why); }

std::string Report::render(const Tally& tally) {
  for (const auto& s : specs_) {
    if (!valid_metric_name(s.name) || !valid_unit(s.unit)) {
      fail(std::string{"bad metric name or unit: "} + s.name);
    }
    if (values_.find(s.name) == values_.end()) fail(std::string{"metric not measured: "} + s.name);
  }
  std::ostringstream text;
  for (const auto& s : specs_) {
    const auto it = values_.find(s.name);
    if (it == values_.end()) continue;
    text << "metric " << s.name << " = " << json_number(it->second) << " " << s.unit << "\n";
  }
  text << "metric lost_share = " << json_number(tally.lost_share()) << " ratio ("
       << tally.failed << " of " << tally.attempted << " operations failed)\n";
  for (const auto& f : failures_) text << "FAILED: " << f << "\n";

  text << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& s : specs_) {
    const auto it = values_.find(s.name);
    if (it == values_.end()) continue;
    text << (first ? "" : ", ") << "\"" << s.name << "\": {\"value\": "
         << json_number(it->second) << ", \"unit\": \"" << s.unit << "\"}";
    first = false;
  }
  text << "}}\n";
  return text.str();
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string host_record(std::uint64_t seed, const std::string& workload, bool trace) {
#if defined(__clang__)
  const std::string compiler = std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string{"gcc "} + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream out;
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"trace\": " << (trace ? 1 : 0) << ", \"nproc\": " << nproc()
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"simd\": \"" << tono::simd::level_name(tono::simd::active_level())
      << "\", \"compiler\": \"" << compiler << "\", \"build_type\": \""
      << TONOBENCH_BUILD_TYPE << "\"}";
  return out.str();
}

}  // namespace tonobench
