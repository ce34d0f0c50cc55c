// Tests for the fleet fault-plan engine: seeded schedule generation, the
// library-level link fault injector (the decoder never yields a wrong
// sample), runtime element-fault injection with graceful mux re-routing,
// and the session-level degradations. The FaultPlan suite runs under the
// CI TSan job alongside Fleet/Ward.
#include "src/fleet/fault_plan.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/sensor_array.hpp"
#include "src/core/telemetry.hpp"
#include "src/fleet/patient_session.hpp"

namespace {

using namespace tono;
using fleet::FaultEvent;
using fleet::FaultKind;
using fleet::FaultPlan;
using fleet::FaultPlanConfig;

FaultPlanConfig mixed_config() {
  FaultPlanConfig config;
  config.contact_loss_events = 2;
  config.link_bursts = 3;
  config.element_faults = 4;
  config.min_onset_s = 0.5;
  config.horizon_s = 4.0;
  return config;
}

TEST(FaultPlan, GenerationIsDeterministic) {
  const FaultPlan a{mixed_config(), 42, 2, 2};
  const FaultPlan b{mixed_config(), 42, 2, 2};
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].at_s, b.events()[i].at_s);
    EXPECT_EQ(a.events()[i].row, b.events()[i].row);
    EXPECT_EQ(a.events()[i].col, b.events()[i].col);
    EXPECT_EQ(a.events()[i].throw_count, b.events()[i].throw_count);
  }
  const FaultPlan c{mixed_config(), 43, 2, 2};
  bool differs = false;
  for (std::size_t i = 0; i < c.events().size(); ++i) {
    differs |= c.events()[i].at_s != a.events()[i].at_s;
  }
  EXPECT_TRUE(differs) << "different seed produced the identical schedule";
}

TEST(FaultPlan, GeneratedEventsMatchConfigCountsAndRanges) {
  const auto config = mixed_config();
  const FaultPlan plan{config, 7, 2, 2};
  ASSERT_EQ(plan.events().size(), 9u);
  EXPECT_TRUE(plan.has_link_bursts());
  std::map<FaultKind, std::size_t> counts;
  double last_onset = 0.0;
  for (const auto& e : plan.events()) {
    ++counts[e.kind];
    EXPECT_GE(e.at_s, config.min_onset_s);
    EXPECT_LT(e.at_s, config.horizon_s);
    EXPECT_GE(e.at_s, last_onset) << "events must be sorted by onset";
    last_onset = e.at_s;
    if (e.kind == FaultKind::kElementFault) {
      EXPECT_LT(e.row, 2u);
      EXPECT_LT(e.col, 2u);
      EXPECT_EQ(e.throw_count, 0u) << "element faults degrade, never throw";
    }
    if (e.kind == FaultKind::kLinkBurst) {
      EXPECT_EQ(e.throw_count, 0u);
      EXPECT_EQ(e.duration_s, config.link_burst_duration_s);
    }
    if (e.kind == FaultKind::kContactLoss) {
      EXPECT_EQ(e.throw_count, 1u) << "recoverable: throws exactly once";
    }
  }
  EXPECT_EQ(counts[FaultKind::kContactLoss], 2u);
  EXPECT_EQ(counts[FaultKind::kLinkBurst], 3u);
  EXPECT_EQ(counts[FaultKind::kElementFault], 4u);
}

TEST(FaultPlan, UnrecoverableProbabilityOneMarksEveryContactLoss) {
  auto config = mixed_config();
  config.unrecoverable_prob = 1.0;
  const FaultPlan plan{config, 7, 2, 2};
  for (const auto& e : plan.events()) {
    if (e.kind != FaultKind::kContactLoss) continue;
    EXPECT_EQ(e.throw_count, fleet::kUnrecoverableThrows);
  }
}

TEST(FaultPlan, RejectsBadConfiguration) {
  FaultPlanConfig bad_window;
  bad_window.contact_loss_events = 1;
  bad_window.min_onset_s = 2.0;
  bad_window.horizon_s = 1.0;
  EXPECT_THROW((FaultPlan{bad_window, 1, 2, 2}), std::invalid_argument);

  FaultPlanConfig no_array;
  no_array.element_faults = 1;
  EXPECT_THROW((FaultPlan{no_array, 1, 0, 0}), std::invalid_argument);
}

TEST(FaultPlan, EmptyConfigIsEmptyPlan) {
  EXPECT_TRUE(FaultPlanConfig{}.empty());
  const FaultPlan plan{FaultPlanConfig{}, 1, 2, 2};
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.has_link_bursts());
}

TEST(FaultPlan, DescribeIsStableAcrossKinds) {
  FaultEvent contact{.kind = FaultKind::kContactLoss, .at_s = 1.25, .duration_s = 0.4};
  EXPECT_EQ(FaultPlan::describe(contact), "contact loss at 1.250 s for 0.400 s");
  contact.throw_count = fleet::kUnrecoverableThrows;
  EXPECT_EQ(FaultPlan::describe(contact),
            "contact loss at 1.250 s for 0.400 s (unrecoverable)");
  const FaultEvent burst{.kind = FaultKind::kLinkBurst, .at_s = 0.5, .duration_s = 0.4};
  EXPECT_EQ(FaultPlan::describe(burst), "link corruption burst at 0.500 s for 0.400 s");
  const FaultEvent element{.kind = FaultKind::kElementFault,
                           .at_s = 2.0,
                           .row = 1,
                           .col = 0,
                           .element_fault = core::ElementFault::kStuckDown};
  EXPECT_EQ(FaultPlan::describe(element), "element (1,0) stuck-down at 2.000 s");
}

TEST(FaultPlan, AddKeepsEventsSorted) {
  FaultPlan plan;
  plan.add(FaultEvent{.kind = FaultKind::kContactLoss, .at_s = 2.0});
  plan.add(FaultEvent{.kind = FaultKind::kLinkBurst, .at_s = 0.5});
  ASSERT_EQ(plan.events().size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kLinkBurst);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kContactLoss);
}

// --- LinkFaultInjector: deterministic corruption, lossy-but-never-wrong ---

std::vector<std::int16_t> frame_codes(std::size_t frame, std::size_t n) {
  std::vector<std::int16_t> codes;
  for (std::size_t i = 0; i < n; ++i) {
    codes.push_back(static_cast<std::int16_t>(
        static_cast<int>((frame * 131 + i * 37) % 4000) - 2000));
  }
  return codes;
}

// parse_fault_plan: the ward_server --fault-plan spec.
TEST(FaultPlanParse, AcceptsEveryKeyAndTheEmptySpec) {
  FaultPlanConfig plan;
  std::string error;
  ASSERT_TRUE(fleet::parse_fault_plan("contact=2,link=1,element=3,unrecoverable=0.25",
                                      &plan, &error));
  EXPECT_EQ(plan.contact_loss_events, 2u);
  EXPECT_EQ(plan.link_bursts, 1u);
  EXPECT_EQ(plan.element_faults, 3u);
  EXPECT_EQ(plan.unrecoverable_prob, 0.25);
  for (const std::string spec : {"", "contact=0,unrecoverable=1", "link=1000"}) {
    EXPECT_TRUE(fleet::parse_fault_plan(spec, &plan, &error)) << spec << ": " << error;
  }
}

// Every malformed spec is an error, never a silently adjusted plan.
class FaultPlanParseRejects : public testing::TestWithParam<const char*> {};

TEST_P(FaultPlanParseRejects, MalformedSpec) {
  FaultPlanConfig plan;
  std::string error;
  EXPECT_FALSE(fleet::parse_fault_plan(GetParam(), &plan, &error));
  EXPECT_NE(error.find("--fault-plan"), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(
    FaultPlanParse, FaultPlanParseRejects,
    testing::Values("contact=nan", "link=inf", "unrecoverable=nan",  // non-finite
                    "contact=1.7", "element=0.5",  // fractional counts used to truncate
                    "contact=1e30",  // used to overflow the float→size_t cast
                    "link=1001", "element=-1",  // outside [0, kMaxFaultEventsPerKind]
                    "unrecoverable=3", "unrecoverable=-0.1",  // not a probability
                    "contact=1,", ",contact=1", "contact=1,,link=1",  // empty items
                    "contact", "contact=", "=1", "contact=1x", "meteor=1"));

TEST(LinkFaultInjector, RejectsInvalidProbabilities) {
  core::LinkFaultConfig negative;
  negative.drop_prob = -0.1;
  EXPECT_THROW((core::LinkFaultInjector{negative, 1}), std::invalid_argument);
  core::LinkFaultConfig oversum;
  oversum.drop_prob = 0.6;
  oversum.bit_flip_prob = 0.6;
  EXPECT_THROW((core::LinkFaultInjector{oversum, 1}), std::invalid_argument);
}

TEST(LinkFaultInjector, CorruptionIsSeedDeterministic) {
  core::LinkFaultInjector a{core::LinkFaultConfig{}, 99};
  core::LinkFaultInjector b{core::LinkFaultConfig{}, 99};
  core::FrameEncoder encoder_a, encoder_b;
  for (std::size_t f = 0; f < 64; ++f) {
    auto wire_a = encoder_a.encode(frame_codes(f, 40));
    auto wire_b = encoder_b.encode(frame_codes(f, 40));
    (void)a.corrupt(wire_a);
    (void)b.corrupt(wire_b);
    EXPECT_EQ(wire_a, wire_b) << "frame " << f;
  }
  EXPECT_EQ(a.frames_corrupted(), b.frames_corrupted());
  EXPECT_GT(a.frames_corrupted(), 0u);
}

TEST(LinkFaultInjector, DecoderNeverYieldsAWrongSample) {
  // The robustness contract: whatever the injector does to the wire, every
  // frame the decoder accepts is byte-exact — corruption becomes counted
  // losses (CRC errors, resyncs, sequence gaps), never wrong samples.
  core::LinkFaultInjector injector{core::LinkFaultConfig{}, 7};
  core::FrameEncoder encoder;
  core::FrameDecoder decoder;
  std::map<std::uint16_t, std::vector<std::int16_t>> sent;
  for (std::size_t f = 0; f < 200; ++f) {
    const auto codes = frame_codes(f, 40);
    sent[encoder.next_sequence()] = codes;
    auto wire = encoder.encode(codes);
    (void)injector.corrupt(wire);
    for (const auto& frame : decoder.push(wire)) {
      ASSERT_TRUE(sent.count(frame.sequence)) << "decoder invented a sequence";
      EXPECT_EQ(frame.samples, sent[frame.sequence]);
    }
  }
  const auto& stats = decoder.stats();
  EXPECT_GT(stats.frames_ok, 0u) << "nothing survived the link";
  EXPECT_LT(stats.frames_ok, 200u) << "injector corrupted nothing";
  EXPECT_GT(stats.crc_errors + stats.resyncs + stats.lost_frames, 0u);
}

// --- Runtime element faults: array level, then the session's re-route ----

TEST(ElementFaultInjection, MarksElementUnhealthyAndCounts) {
  core::SensorArray array{core::ChipConfig::paper_chip()};
  EXPECT_EQ(array.healthy_count(), 4u);
  array.inject_fault(0, 1, core::ElementFault::kStuckDown);
  EXPECT_EQ(array.healthy_count(), 3u);
  EXPECT_FALSE(array.element(0, 1).is_healthy());
  // Re-injecting kNone heals it (set_fault is a plain state change).
  array.inject_fault(0, 1, core::ElementFault::kNone);
  EXPECT_EQ(array.healthy_count(), 4u);
  EXPECT_THROW(array.inject_fault(5, 0, core::ElementFault::kStuckDown),
               std::out_of_range);
}

TEST(SessionFaults, ElementFaultOnReadoutPathReroutesAndKeepsStreaming) {
  // Learn which element the pipeline reads after admission, then kill
  // exactly that one in a second, identically seeded session.
  fleet::SessionConfig probe_config;
  probe_config.seed = 1234;
  fleet::PatientSession probe{0, std::move(probe_config)};
  probe.step(1);
  const std::size_t row = probe.monitor().pipeline().selected_row();
  const std::size_t col = probe.monitor().pipeline().selected_col();

  fleet::SessionConfig config;
  config.seed = 1234;
  config.manual_faults.push_back(FaultEvent{.kind = FaultKind::kElementFault,
                                            .at_s = 0.05,
                                            .row = row,
                                            .col = col,
                                            .element_fault = core::ElementFault::kStuckDown,
                                            .throw_count = 0});
  fleet::PatientSession session{1, std::move(config)};
  while (session.stream_time_s() < 0.3) session.step(64);

  ASSERT_EQ(session.fault_log().size(), 2u);
  EXPECT_NE(session.fault_log()[0].find("applied: element"), std::string::npos);
  EXPECT_NE(session.fault_log()[1].find("rerouted readout to healthy element"),
            std::string::npos);
  const auto& pipeline = session.monitor().pipeline();
  EXPECT_TRUE(pipeline.array().element(pipeline.selected_row(), pipeline.selected_col())
                  .is_healthy());
  EXPECT_EQ(pipeline.array().healthy_count(), 3u);
  EXPECT_GE(session.stream_time_s(), 0.3);
}

TEST(SessionFaults, LinkBurstDegradesWithoutThrowingAndCountsLosses) {
  fleet::SessionConfig config;
  config.seed = 55;
  config.manual_faults.push_back(FaultEvent{.kind = FaultKind::kLinkBurst,
                                            .at_s = 0.10,
                                            .duration_s = 0.30,
                                            .throw_count = 0});
  fleet::PatientSession session{0, std::move(config)};
  EXPECT_NE(session.link_stats(), nullptr)
      << "a planned link burst routes the session through the simulated link";
  std::vector<std::int16_t> codes;
  while (session.stream_time_s() < 0.6) {
    session.step(64);
    session.codes().pop_all(codes);
  }
  ASSERT_EQ(session.fault_log().size(), 1u);
  EXPECT_NE(session.fault_log()[0].find("applied: link corruption burst"),
            std::string::npos);
  const auto& stats = *session.link_stats();
  EXPECT_GT(stats.frames_ok, 0u);
  EXPECT_GT(stats.crc_errors + stats.resyncs + stats.lost_frames, 0u)
      << "the burst corrupted nothing";
  // Lossy, never late-wrong: fewer codes than frames acquired, none invented.
  EXPECT_LT(codes.size(), static_cast<std::size_t>(
                              session.stream_time_s() * session.output_rate_hz() + 0.5));
}

TEST(SessionFaults, CleanSessionHasNoLinkRoutingAndEmptyLog) {
  fleet::SessionConfig config;
  config.seed = 55;
  fleet::PatientSession session{0, std::move(config)};
  EXPECT_EQ(session.link_stats(), nullptr);
  EXPECT_TRUE(session.fault_plan().empty());
  session.step(64);
  EXPECT_TRUE(session.fault_log().empty());
}

}  // namespace
