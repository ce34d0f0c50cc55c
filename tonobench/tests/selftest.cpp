// The benchmark's own tests: the percentile rule, self time of nested spans,
// loss accounting on a quarantined session and the metric-name rules.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "metrics.hpp"
#include "src/fleet/hospital_scheduler.hpp"
#include "trace.hpp"

namespace tb = tonobench;

TEST(PercentileRule, CountsSamplesBeyondByNearestRank) {
  EXPECT_EQ(tb::samples_beyond(1000, 9900), 10u);
  EXPECT_EQ(tb::samples_beyond(999, 9900), 9u);
  EXPECT_EQ(tb::samples_beyond(100, 9000), 10u);
  EXPECT_EQ(tb::samples_beyond(0, 5000), 0u);
  EXPECT_TRUE(tb::percentile_supported(1000, 9900));
  EXPECT_FALSE(tb::percentile_supported(999, 9900));
  EXPECT_TRUE(tb::percentile_supported(100, 9000));
  EXPECT_FALSE(tb::percentile_supported(99, 9000));
}

TEST(PercentileRule, ReportsTheHighestSupportedPercentile) {
  EXPECT_FALSE(tb::highest_percentile(19).has_value());
  EXPECT_EQ(tb::highest_percentile(20), 5000u);
  EXPECT_EQ(tb::highest_percentile(99), 5000u);
  EXPECT_EQ(tb::highest_percentile(100), 9000u);
  EXPECT_EQ(tb::highest_percentile(1000), 9900u);
  EXPECT_EQ(tb::highest_percentile(9999), 9900u);
  EXPECT_EQ(tb::highest_percentile(10000), 9990u);
}

TEST(PercentileRule, ReportNamesTheSampleCountAndHighestTail) {
  std::vector<double> v(1024, 1.0);
  v.back() = 1025.0;
  EXPECT_EQ(tb::describe_sample(v), "n=1024, mean 2, p50 1, p99 1");
  v.resize(10240, 2.0);
  EXPECT_EQ(tb::describe_sample(v), "n=10240, mean 2, p50 2, p99.9 2");
  EXPECT_EQ(tb::describe_sample({1.0, 2.0}), "n=2 (too few samples for any percentile)");
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(tb::percentile(v, 5000), 50.0);
  EXPECT_EQ(tb::percentile(v, 9000), 90.0);
  EXPECT_EQ(tb::percentile(v, 9900), 99.0);
  EXPECT_EQ(tb::median({3.0}), 3.0);
}

TEST(SpanSelfTime, ExcludesNestedChildren) {
  // demux.pump [0, 100] delivers twice into ingest_codes: [10, 40], [50, 70].
  tb::ThreadSpans t;
  t.spans.push_back({"gateway.demux", 0, 100, -1, 1});
  t.spans.push_back({"fleet.ingest", 10, 40, 0, 1});
  t.spans.push_back({"fleet.ingest", 50, 70, 0, 1});
  t.spans.push_back({"gateway.mux", 100, 130, -1, 1});
  const auto stats = tb::aggregate({t});
  const auto& demux = stats.at("gateway.demux");
  const auto& ingest = stats.at("fleet.ingest");
  EXPECT_EQ(demux.count, 1u);
  EXPECT_NEAR(demux.total_s, 100e-9, 1e-15);
  EXPECT_NEAR(demux.self_s, 50e-9, 1e-15);
  EXPECT_EQ(ingest.count, 2u);
  EXPECT_NEAR(ingest.self_s, 50e-9, 1e-15);
  EXPECT_NEAR(stats.at("gateway.mux").self_s, 30e-9, 1e-15);
}

TEST(SpanSelfTime, RaiiSpansNestOnTheirThread) {
  tb::clear();
  tb::set_enabled(true);
  std::thread worker([] {
    tb::Span outer{"gateway.demux", 7};
    tb::Span inner{"fleet.ingest", 7};
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  worker.join();
  { tb::Span off_thread{"gateway.mux"}; }
  tb::set_enabled(false);
  { tb::Span disabled{"never.recorded"}; }
  const auto threads = tb::collect();
  const auto stats = tb::aggregate(threads);
  ASSERT_EQ(stats.count("never.recorded"), 0u);
  const auto& demux = stats.at("gateway.demux");
  const auto& ingest = stats.at("fleet.ingest");
  EXPECT_GE(ingest.total_s, 2e-3);
  EXPECT_LT(demux.self_s, demux.total_s - ingest.total_s + 1e-12);
  EXPECT_EQ(stats.at("gateway.mux").count, 1u);
  tb::clear();
}

TEST(LostShare, SyntheticWardCountsShortfall) {
  std::vector<tono::fleet::WardSessionState> sessions(3);
  sessions[0].codes = 1000;
  sessions[1].codes = 250;  // quarantined a quarter of the way in
  sessions[2].codes = 0;    // never admitted
  const tb::Tally t = tb::frame_tally(sessions, 1000);
  EXPECT_EQ(t.attempted, 3000u);
  EXPECT_EQ(t.failed, 750u + 1000u);
  EXPECT_DOUBLE_EQ(t.lost_share(), 1750.0 / 3000.0);
  EXPECT_DOUBLE_EQ(t.delivered_share(), 1.0 - 1750.0 / 3000.0);
  tb::Tally ops;
  ops.add(10, 1);
  EXPECT_DOUBLE_EQ(ops.lost_share(), 0.1);
}

TEST(LostShare, QuarantinedSessionsUndeliveredFramesFail) {
  tono::fleet::HospitalConfig config;
  config.shards = 1;
  config.threads_per_shard = 1;
  config.max_readmits = 1;
  tono::fleet::HospitalScheduler hospital{config};
  hospital.admit(tono::fleet::SessionConfig{});
  tono::fleet::SessionConfig faulty;
  tono::fleet::FaultEvent loss;
  loss.kind = tono::fleet::FaultKind::kContactLoss;
  loss.at_s = 0.1;
  loss.duration_s = 0.1;
  loss.throw_count = tono::fleet::kUnrecoverableThrows;
  faulty.manual_faults.push_back(loss);
  const std::uint32_t bad = hospital.admit(faulty);
  constexpr std::uint64_t kOwed = 512;
  hospital.run(static_cast<double>(kOwed) / 1000.0);

  const auto snap = hospital.snapshot();
  ASSERT_EQ(snap.sessions.size(), 2u);
  EXPECT_NE(hospital.state(bad), tono::fleet::SessionState::kRunning);
  const std::uint64_t delivered_bad = snap.sessions[bad].codes;
  EXPECT_LT(delivered_bad, kOwed);
  EXPECT_EQ(snap.sessions[1 - bad].codes, kOwed);
  const tb::Tally t = tb::frame_tally(snap.sessions, kOwed);
  EXPECT_EQ(t.attempted, 2 * kOwed);
  EXPECT_EQ(t.failed, kOwed - delivered_bad);
  EXPECT_GT(t.lost_share(), 0.0);
}

TEST(MetricNames, TablesUseTheAllowedCharacterSet) {
  std::set<std::string> seen;
  for (const auto* table : {&tb::kEndToEnd, &tb::kPerLayer}) {
    for (const auto& m : *table) {
      EXPECT_TRUE(tb::valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(tb::valid_unit(m.unit)) << m.name << " " << m.unit;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  EXPECT_TRUE(tb::valid_metric_name("stage_share.bio"));
  EXPECT_TRUE(tb::valid_metric_name("0-a_b.c"));
  EXPECT_FALSE(tb::valid_metric_name(""));
  EXPECT_FALSE(tb::valid_metric_name("_lead"));
  EXPECT_FALSE(tb::valid_metric_name(".lead"));
  EXPECT_FALSE(tb::valid_metric_name("with space"));
  EXPECT_FALSE(tb::valid_metric_name("slash/name"));
  EXPECT_FALSE(tb::valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(tb::valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(tb::valid_unit("1/s"));
  EXPECT_TRUE(tb::valid_unit("%"));
  EXPECT_FALSE(tb::valid_unit("patients per second"));
  EXPECT_FALSE(tb::valid_unit(std::string(17, 'a')));
}

TEST(MetricNames, ReportRefusesUnknownAndMissingMetrics) {
  tb::Report report{{{"latency_ms", "ms"}, {"setup_s", "s"}}};
  report.set("latency_ms", 1.25);
  report.set("not_in_table", 1.0);
  EXPECT_FALSE(report.correct());
  const std::string text = report.render(tb::Tally{});
  const std::string last = text.substr(text.rfind('\n', text.size() - 2) + 1);
  EXPECT_EQ(last.rfind("{\"correct\": false", 0), 0u) << last;
  EXPECT_NE(text.find("metric not measured: setup_s"), std::string::npos);
}
