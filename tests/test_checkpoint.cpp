// Tests for checkpoint/restore (src/common/checkpoint.hpp and the
// serialize/restore pairs layered on it): framing primitives, loud failure
// on truncated/corrupted/mismatched blobs, mid-stream bit-identity of the
// RNG (including the Marsaglia spare cache) and the pink-noise rows, and
// full PatientSession resume — clean, faulty and link-routed sessions all
// continue bit-identically to never having stopped. The Checkpoint suite
// runs under the CI TSan job.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/bio/pulse_generator.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/pink_noise.hpp"
#include "src/common/rng.hpp"
#include "src/fleet/fleet_scheduler.hpp"

namespace {

using namespace tono;
using fleet::FaultEvent;
using fleet::FaultKind;
using fleet::FaultPlanConfig;
using fleet::FleetConfig;
using fleet::FleetEvent;
using fleet::FleetScheduler;
using fleet::PatientSession;
using fleet::SessionConfig;
using fleet::WardAggregator;

TEST(Checkpoint, PrimitivesRoundTripExactly) {
  CheckpointWriter out;
  out.section("primitives");
  out.u8(0xAB);
  out.u16(0xBEEF);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.i64(-42);
  out.f64(-0.1);  // not exactly representable; must round-trip by bits
  out.boolean(true);
  out.size(7);
  out.str("hello ward");
  const auto blob = out.finish(3);

  CheckpointReader in{blob};
  in.require_version(3);
  in.section("primitives");
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u16(), 0xBEEF);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i64(), -42);
  EXPECT_EQ(in.f64(), -0.1);
  EXPECT_TRUE(in.boolean());
  EXPECT_EQ(in.size(), 7u);
  EXPECT_EQ(in.str(), "hello ward");
  EXPECT_NO_THROW(in.expect_end());
}

TEST(Checkpoint, VersionSectionAndTrailingBytesAreEnforced) {
  CheckpointWriter out;
  out.section("alpha");
  out.u64(1);
  const auto blob = out.finish(1);
  {
    CheckpointReader in{blob};
    EXPECT_THROW(in.require_version(2), CheckpointError);
  }
  {
    CheckpointReader in{blob};
    EXPECT_THROW(in.section("beta"), CheckpointError);
  }
  {
    CheckpointReader in{blob};
    in.section("alpha");
    EXPECT_THROW(in.expect_end(), CheckpointError);  // u64 still unread
  }
  {
    CheckpointReader in{blob};
    in.section("alpha");
    (void)in.u64();
    EXPECT_THROW((void)in.u64(), CheckpointError);  // reading past the end
  }
}

/// A representative blob for the fuzz tests: RNG state mid-stream.
std::vector<std::uint8_t> rng_blob() {
  Rng rng{0xFEEDFACEull};
  for (int i = 0; i < 7; ++i) (void)rng.gaussian();
  CheckpointWriter out;
  rng.serialize(out);
  return out.finish(1);
}

TEST(Checkpoint, TruncationAtEveryLengthFailsLoudly) {
  const auto blob = rng_blob();
  for (std::size_t n = 0; n < blob.size(); ++n) {
    std::vector<std::uint8_t> cut{blob.begin(), blob.begin() + n};
    // Every truncation must be caught at open (header/length validation) —
    // never parsed into a plausible-but-wrong state.
    EXPECT_THROW(CheckpointReader{cut}, CheckpointError)
        << "truncation to " << n << " bytes was accepted";
  }
}

TEST(Checkpoint, CorruptingAnyByteFailsLoudly) {
  const auto blob = rng_blob();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::vector<std::uint8_t> bad = blob;
    bad[i] ^= 0xFF;
    // A flip lands in the magic, version, length or checksum fields (frame
    // validation) or in the payload (checksum mismatch). Either way the
    // full open-validate-restore sequence must throw.
    EXPECT_THROW(
        {
          CheckpointReader in{bad};
          in.require_version(1);
          Rng victim{1};
          victim.restore(in);
          in.expect_end();
        },
        CheckpointError)
        << "corrupting byte " << i << " was accepted";
  }
}

TEST(Checkpoint, RngResumesMidMarsagliaBitIdentically) {
  Rng original{12345};
  // Odd number of gaussian draws: the Marsaglia polar method generates
  // pairs, so a spare value is cached — the classic state a naive
  // serializer drops.
  for (int i = 0; i < 5; ++i) (void)original.gaussian();

  CheckpointWriter out;
  original.serialize(out);
  const auto blob = out.finish(1);

  Rng restored{999};  // deliberately different seed; blob must win
  CheckpointReader in{blob};
  in.require_version(1);
  restored.restore(in);
  in.expect_end();

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original.gaussian(), restored.gaussian()) << "draw " << i;
    EXPECT_EQ(original.next_u64(), restored.next_u64()) << "draw " << i;
  }
}

TEST(Checkpoint, PinkNoiseResumesMidRowBitIdentically) {
  PinkNoise original{Rng{777}, 12};
  // 1000 is not a multiple of any high octave period: several rows hold
  // live values and the counter sits mid-cycle.
  for (int i = 0; i < 1000; ++i) (void)original.next();

  CheckpointWriter out;
  original.serialize(out);
  const auto blob = out.finish(1);

  PinkNoise restored{Rng{1}, 12};
  CheckpointReader in{blob};
  in.require_version(1);
  restored.restore(in);
  in.expect_end();

  for (int i = 0; i < 4096; ++i) {
    EXPECT_EQ(original.next(), restored.next()) << "sample " << i;
  }
}

TEST(Checkpoint, PinkNoiseRejectsOctaveCountMismatch) {
  PinkNoise original{Rng{777}, 12};
  CheckpointWriter out;
  original.serialize(out);
  const auto blob = out.finish(1);

  PinkNoise other{Rng{777}, 16};  // different construction config
  CheckpointReader in{blob};
  in.require_version(1);
  EXPECT_THROW(other.restore(in), CheckpointError);
}

/// Everything a session publishes, for bit-exact comparison.
struct Stream {
  std::vector<std::int16_t> codes;
  std::vector<FleetEvent> events;
};

void drain_into(PatientSession& session, Stream* out) {
  session.codes().pop_all(out->codes);
  session.events().pop_all(out->events);
}

void expect_streams_equal(const Stream& a, const Stream& b, const char* what) {
  EXPECT_EQ(a.codes, b.codes) << what << ": code streams diverged";
  ASSERT_EQ(a.events.size(), b.events.size()) << what << ": event counts diverged";
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << what << " event " << i;
    EXPECT_EQ(a.events[i].time_s, b.events[i].time_s) << what << " event " << i;
    EXPECT_EQ(a.events[i].value_a, b.events[i].value_a) << what << " event " << i;
    EXPECT_EQ(a.events[i].value_b, b.events[i].value_b) << what << " event " << i;
    EXPECT_EQ(a.events[i].flag, b.events[i].flag) << what << " event " << i;
  }
}

/// Steps `session` in 64-frame batches until `until_s`, draining after every
/// step; throwing steps are retried (the solo analogue of readmission).
void run_to(PatientSession& session, double until_s, Stream* out) {
  while (session.stream_time_s() < until_s) {
    try {
      session.step(64);
    } catch (const std::exception&) {
      continue;
    }
    drain_into(session, out);
  }
  drain_into(session, out);
}

SessionConfig seeded_config(std::uint32_t id) {
  WardAggregator ward;
  FleetScheduler seeder{FleetConfig{}, ward};
  SessionConfig config;
  config.seed = seeder.session_seed(id);
  return config;
}

TEST(Checkpoint, SessionResumeIsBitIdenticalToUninterrupted) {
  const SessionConfig config = seeded_config(0);

  Stream uninterrupted;
  {
    PatientSession session{0, config};
    run_to(session, 1.0, &uninterrupted);
  }

  // Same session, suspended at a mid-run batch barrier and resumed into a
  // freshly constructed object — the process-restart path.
  Stream resumed;
  std::vector<std::uint8_t> blob;
  {
    PatientSession first_half{0, config};
    run_to(first_half, 0.5, &resumed);
    blob = first_half.checkpoint();
  }
  {
    PatientSession second_half{0, config};
    second_half.restore_checkpoint(blob);
    EXPECT_TRUE(second_half.admitted());
    EXPECT_GT(second_half.frames_produced(), 0u);
    run_to(second_half, 1.0, &resumed);
  }

  ASSERT_FALSE(uninterrupted.codes.empty());
  expect_streams_equal(uninterrupted, resumed, "clean session");
}

TEST(Checkpoint, SessionResumeAfterFirstMonitorWindowIsBitIdentical) {
  // At 9 s the streaming monitor has analysed its first 8 s window and
  // holds that window plus part of the next hop; the resumed session must
  // run through the following hops exactly as the uninterrupted one.
  const SessionConfig config = seeded_config(2);

  Stream uninterrupted;
  {
    PatientSession session{2, config};
    run_to(session, 12.5, &uninterrupted);
  }

  Stream resumed;
  std::vector<std::uint8_t> blob;
  {
    PatientSession first_half{2, config};
    run_to(first_half, 9.0, &resumed);
    blob = first_half.checkpoint();
  }
  {
    PatientSession second_half{2, config};
    ASSERT_NO_THROW(second_half.restore_checkpoint(blob));
    EXPECT_EQ(second_half.checkpoint(), blob);
    run_to(second_half, 12.5, &resumed);
  }

  bool beat_after_split = false;
  for (const auto& e : uninterrupted.events) {
    beat_after_split |= e.kind == fleet::FleetEventKind::kBeat && e.time_s > 9.0;
  }
  EXPECT_TRUE(beat_after_split) << "no beat published after the checkpoint";
  expect_streams_equal(uninterrupted, resumed, "session resumed at 9 s");
}

TEST(Checkpoint, FaultySessionResumeIsBitIdenticalIncludingLinkPath) {
  // A generated plan with every fault kind: the checkpoint must carry the
  // fault cursor, throw budgets, contact/burst windows, the re-routed array
  // state and the link encoder/decoder/injector mid-burst.
  SessionConfig config = seeded_config(1);
  config.fault_plan.contact_loss_events = 1;
  config.fault_plan.link_bursts = 1;
  config.fault_plan.element_faults = 1;
  config.fault_plan.min_onset_s = 0.10;
  config.fault_plan.horizon_s = 0.80;

  Stream uninterrupted;
  {
    PatientSession session{1, config};
    run_to(session, 1.0, &uninterrupted);
    EXPECT_FALSE(session.fault_log().empty());
  }

  Stream resumed;
  std::vector<std::uint8_t> blob;
  std::vector<std::string> log_at_split;
  {
    PatientSession first_half{1, config};
    run_to(first_half, 0.5, &resumed);
    blob = first_half.checkpoint();
    log_at_split = first_half.fault_log();
  }
  {
    PatientSession second_half{1, config};
    second_half.restore_checkpoint(blob);
    EXPECT_EQ(second_half.fault_log(), log_at_split);
    run_to(second_half, 1.0, &resumed);
  }

  ASSERT_FALSE(uninterrupted.codes.empty());
  expect_streams_equal(uninterrupted, resumed, "faulty session");
}

TEST(Checkpoint, NotYetAdmittedSessionRoundTripsPipelineState) {
  // A session quarantined inside admit() has already advanced its pipeline
  // (scan + calibration block). The blob must carry that, so a restored
  // session retries admission from the same pipeline position — not from
  // zero (see PatientSession::serialize).
  SessionConfig config = seeded_config(2);
  config.calibration_window_s = 0.25;  // far too short: admit() throws

  PatientSession session{2, config};
  EXPECT_THROW(session.admit(), std::exception);
  EXPECT_FALSE(session.admitted());
  const double clock_after_failed_admit = session.monitor().pipeline().time_s();
  EXPECT_GT(clock_after_failed_admit, 0.0);

  const auto blob = session.checkpoint();
  PatientSession restored{2, config};
  restored.restore_checkpoint(blob);
  EXPECT_FALSE(restored.admitted());
  EXPECT_EQ(restored.monitor().pipeline().time_s(), clock_after_failed_admit);
}

TEST(Checkpoint, SessionRestoreRejectsWrongIdAndWrongShape) {
  const SessionConfig config = seeded_config(3);
  PatientSession session{3, config};
  session.step(64);
  Stream sink;
  drain_into(session, &sink);  // restore requires quiescent rings
  const auto blob = session.checkpoint();

  {
    PatientSession other{4, seeded_config(4)};
    EXPECT_THROW(other.restore_checkpoint(blob), CheckpointError);
  }
  {
    // Different fault-plan shape (event count) than the blob was taken from.
    SessionConfig faulty = config;
    faulty.manual_faults.push_back(FaultEvent{
        .kind = FaultKind::kContactLoss, .at_s = 0.5, .duration_s = 0.1});
    PatientSession other{3, std::move(faulty)};
    EXPECT_THROW(other.restore_checkpoint(blob), CheckpointError);
  }
  {
    // Unsupported schema version.
    CheckpointWriter out;
    session.serialize(out);
    const auto wrong = out.finish(fleet::kSessionCheckpointVersion + 1);
    PatientSession other{3, config};
    EXPECT_THROW(other.restore_checkpoint(wrong), CheckpointError);
  }
}

TEST(Checkpoint, SessionRestoreRejectsNonQuiescentRings) {
  const SessionConfig config = seeded_config(5);
  PatientSession session{5, config};
  session.step(64);  // codes still in the ring: not a barrier state
  const auto blob = session.checkpoint();
  PatientSession restored{5, config};
  EXPECT_THROW(restored.restore_checkpoint(blob), CheckpointError);
}

}  // namespace
