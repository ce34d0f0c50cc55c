// metrics.hpp — the benchmark's metric tables, percentile rule, loss
// accounting and result line.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/fleet/ward_aggregator.hpp"

namespace tonobench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (BENCHMARK.json "end_to_end", same order).
extern const std::vector<MetricSpec> kEndToEnd;
/// Printed by every traced run (BENCHMARK.json "per_layer", same order).
extern const std::vector<MetricSpec> kPerLayer;

/// Metric names: 1..64 of [A-Za-z0-9_.-], starting with a letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;
/// Units: 1..16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(std::string_view unit) noexcept;

// ---- Percentile rule ------------------------------------------------------
// A percentile is reported only when at least kTailSamples samples lie
// beyond it. Percentiles are given in basis points (9900 = p99) so the rule
// is exact integer arithmetic. Nearest rank: the p-th percentile of n sorted
// samples is the ceil(p·n)-th smallest; n − ceil(p·n) samples lie beyond it.
inline constexpr std::uint64_t kTailSamples = 10;

[[nodiscard]] std::uint64_t samples_beyond(std::uint64_t n, std::uint32_t bp) noexcept;
[[nodiscard]] bool percentile_supported(std::uint64_t n, std::uint32_t bp) noexcept;
/// Highest of p50, p90, p99, p99.9 that n samples support; nullopt below p50.
[[nodiscard]] std::optional<std::uint32_t> highest_percentile(std::uint64_t n) noexcept;
/// Nearest-rank percentile; requires a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> values, std::uint32_t bp);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);
/// "n=<count>, mean <v>, p50 <v>, p<highest supported> <v>" — the sample
/// count and the tail the sample supports, for the human-readable report.
/// Requires a non-empty sample.
[[nodiscard]] std::string describe_sample(const std::vector<double>& values);

// ---- Loss accounting ------------------------------------------------------
/// Operations attempted and failed. An operation is a code frame owed to
/// the ward or one admission/readmission.
struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  void add(std::uint64_t attempted_ops, std::uint64_t failed_ops) noexcept {
    attempted += attempted_ops;
    failed += failed_ops;
  }
  [[nodiscard]] double lost_share() const noexcept;
  [[nodiscard]] double delivered_share() const noexcept { return 1.0 - lost_share(); }
};

/// Frame accounting of a ward: each session owed `frames_owed` frames, and
/// every frame that did not reach the ward is failed — a quarantined or
/// retired session's undelivered frames included.
[[nodiscard]] Tally frame_tally(const std::vector<tono::fleet::WardSessionState>& sessions,
                                std::uint64_t frames_owed);

// ---- Result --------------------------------------------------------------
/// Collects one run's metrics and correctness verdict and prints them: one
/// "metric <name> = <value> <unit>" line per metric, then the JSON result
/// line {"correct", "attempted", "failed", "metrics"} last.
class Report {
 public:
  explicit Report(const std::vector<MetricSpec>& specs);

  /// Sets a metric from the table; unknown names and non-finite values are
  /// recorded as failures.
  void set(const std::string& name, double value);
  void fail(const std::string& why);

  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }

  /// Human-readable lines followed by the JSON result line. A table metric
  /// never set is a failure.
  [[nodiscard]] std::string render(const Tally& tally);

 private:
  std::vector<MetricSpec> specs_;
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
};

/// nproc, hardware_concurrency, SIMD level, compiler, build type and seed,
/// as one JSON object.
[[nodiscard]] std::string host_record(std::uint64_t seed, const std::string& workload,
                                      bool trace);

/// Peak resident set of this process [MB].
[[nodiscard]] double peak_rss_mb();

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] unsigned nproc();

}  // namespace tonobench
