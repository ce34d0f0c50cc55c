// gateway_replay — `gateway_server --replay --replay-speed 0`: set-up records
// the 64-session mix through GatewayMux → loopback → GatewayDemux →
// SessionRecorder; the timed region replays the recording as fast as the
// host allows into external_ingest sessions, one loopback wire per shard
// (SessionReplayer::next → send_encoded → GatewayDemux::pump →
// ingest_codes). Acquisition is bypassed entirely. The recording is
// replayed in passes, each through a fresh mux/demux pair, so the timed
// region can outlast it.
#include <filesystem>
#include <memory>
#include <numeric>

#include "examples/session_mix.hpp"
#include "src/gateway/gateway.hpp"
#include "src/gateway/recorder.hpp"
#include "src/gateway/transport.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace tonobench {

using tono::fleet::HospitalScheduler;
using tono::fleet::SessionConfig;
namespace gw = tono::gateway;

namespace {

/// Stream recorded per session, and replayed per pass (64 batches).
constexpr std::uint64_t kRecordFrames = 4096;

struct Wire {
  std::unique_ptr<gw::LoopbackTransport> loop = std::make_unique<gw::LoopbackTransport>();
  std::unique_ptr<gw::GatewayMux> mux;
  std::unique_ptr<gw::GatewayDemux> demux;
  std::vector<std::uint32_t> ids;
};

struct ReplayShard {
  Wire wire;
  std::vector<std::unique_ptr<gw::SessionReplayer>> replayers;
  std::vector<std::uint64_t> fed;  ///< codes shipped this pass, per session
};

std::uint64_t codes_consumed(HospitalScheduler& hospital) {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < hospital.shards(); ++s) n += hospital.ward(s).codes_consumed();
  return n;
}

/// Records kRecordFrames of the live mix; returns every session's delivered
/// codes, indexed by id.
std::vector<std::vector<std::int16_t>> record(const Options& opt, const std::string& dir,
                                              Outcome& out) {
  std::filesystem::remove_all(dir);
  gw::SessionRecorder recorder{dir};
  std::vector<Wire> wires(kShards);
  for (auto& wire : wires) {
    wire.mux = std::make_unique<gw::GatewayMux>(*wire.loop);
    wire.demux = std::make_unique<gw::GatewayDemux>(*wire.loop);
  }
  std::vector<SessionConfig> configs;
  for (std::size_t i = 0; i < kSessions; ++i) {
    SessionConfig config = tono::examples::session_mix(i);
    // Session i is admitted as id i, which lives on shard i % kShards.
    gw::GatewayMux* mux = wires[i % kShards].mux.get();
    config.code_sink = [mux](std::uint32_t id, std::span<const std::int16_t> codes) {
      mux->send(id, codes);
    };
    configs.push_back(std::move(config));
  }
  HospitalScheduler live{hospital_config(opt.seed)};
  const std::vector<std::uint32_t> ids = admit_all(live, configs, out);
  out.tally.add(ids.size(), 0);
  std::vector<std::vector<std::int16_t>> recorded(ids.size());
  for (const std::uint32_t id : ids) {
    Wire& wire = wires[live.shard_of(id)];
    wire.ids.push_back(id);
    wire.mux->open_channel(id);
    wire.demux->open_channel(id);
    recorder.open_session(id);
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    Wire& wire = wires[s];
    wire.demux->on_codes([&live, &recorded, s](std::uint32_t id,
                                               std::span<const std::int16_t> codes) {
      recorded[id].insert(recorded[id].end(), codes.begin(), codes.end());
      live.shard(s).session(id)->ingest_codes(codes);
    });
    wire.demux->on_envelope([&recorder](std::uint32_t id, std::span<const std::uint8_t> frame,
                                        std::uint16_t n_codes) {
      recorder.record(id, frame, n_codes);
    });
    live.shard(s).set_batch_hook([&wire] { (void)wire.demux->pump(); });
  }
  live.run(static_cast<double>(kRecordFrames) / 1000.0);
  gw::RecordMeta meta;
  meta.base_seed = hospital_config(opt.seed).base_seed;
  meta.sessions = kSessions;
  meta.frames_per_step = kFramesPerStep;
  meta.duration_s = static_cast<double>(kRecordFrames) / 1000.0;
  if (!recorder.finalize(meta)) out.fail("cannot finalize the recording in " + dir);
  for (std::size_t id = 0; id < recorded.size(); ++id) {
    if (recorded[id].size() != kRecordFrames) {
      out.fail("recording of session " + std::to_string(id) + " holds " +
               std::to_string(recorded[id].size()) + " codes");
    }
  }
  return recorded;
}

}  // namespace

void run_gateway_replay(const Options& opt, Outcome& out) {
  const std::string dir = opt.work_dir + "/gateway_replay";
  std::vector<std::vector<std::int16_t>> recorded;
  std::unique_ptr<HospitalScheduler> hospital;
  std::vector<std::uint32_t> ids;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    hospital.reset();
    sample_host_speed(out);
    const std::int64_t t0 = rep == 0 ? opt.process_start_ns : now_ns();
    recorded = record(opt, dir, out);
    std::vector<SessionConfig> configs;
    for (std::size_t i = 0; i < kSessions; ++i) {
      configs.push_back(tono::examples::session_mix(i));
      configs.back().external_ingest = true;  // codes arrive only through the wire
    }
    hospital = std::make_unique<HospitalScheduler>(hospital_config(opt.seed));
    ids = admit_all(*hospital, configs, out);
    out.setup_s.push_back(seconds_since(t0));
    sample_host_speed(out);
    out.tally.add(ids.size(), 0);
  }

  std::vector<ReplayShard> shards(kShards);
  for (const std::uint32_t id : ids) shards[hospital->shard_of(id)].wire.ids.push_back(id);
  std::vector<std::uint64_t> delivered(ids.size(), 0);  ///< this pass, by id
  std::vector<std::uint64_t> shard_mismatched(kShards, 0);  ///< codes unlike the recording
  std::uint64_t lost = 0, corrupt = 0, wire_bytes = 0, wire_codes = 0;

  auto fold_wire_counters = [&](const Wire& wire) {
    if (!wire.mux) return;
    wire_bytes += wire.mux->bytes_sent();
    wire_codes += wire.mux->codes_sent();
    corrupt += wire.demux->crc_errors();
    for (const std::uint32_t id : wire.ids) lost += wire.demux->channel_stats(id).lost_envelopes;
  };
  // A pass starts with a fresh mux/demux pair (channel and frame sequence
  // numbers restart with the recording) and fresh replayers.
  auto start_pass = [&](std::size_t s) {
    ReplayShard& shard = shards[s];
    Wire& wire = shard.wire;
    fold_wire_counters(wire);
    wire.mux = std::make_unique<gw::GatewayMux>(*wire.loop);
    wire.demux = std::make_unique<gw::GatewayDemux>(*wire.loop);
    shard.replayers.clear();
    shard.fed.assign(wire.ids.size(), 0);
    for (const std::uint32_t id : wire.ids) {
      wire.mux->open_channel(id);
      wire.demux->open_channel(id);
      shard.replayers.push_back(std::make_unique<gw::SessionReplayer>(dir, id));
      delivered[id] = 0;
    }
    wire.demux->on_codes([&, s](std::uint32_t id, std::span<const std::int16_t> codes) {
      const std::vector<std::int16_t>& want = recorded[id];
      const std::uint64_t at = delivered[id];
      for (std::size_t k = 0; k < codes.size(); ++k) {
        if (at + k >= want.size() || want[at + k] != codes[k]) ++shard_mismatched[s];
      }
      delivered[id] += codes.size();
      Span ingest{"fleet.ingest", id};
      hospital->shard(s).session(id)->ingest_codes(codes);
    });
  };

  BatchClock clock{kShards};
  std::vector<std::vector<double>> staleness(kShards);
  std::uint64_t run_index = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    hospital->shard(s).set_batch_hook([&, s] {
      ReplayShard& shard = shards[s];
      std::vector<std::uint8_t> frame;
      std::uint16_t n_codes = 0;
      for (std::size_t i = 0; i < shard.replayers.size(); ++i) {
        const std::uint32_t id = shard.wire.ids[i];
        std::uint64_t quota = std::min<std::uint64_t>(kFramesPerStep, kRecordFrames - shard.fed[i]);
        while (quota > 0) {
          bool more = false;
          {
            Span read{"gateway.replay_read", id};
            more = shard.replayers[i]->next(frame, n_codes);
          }
          if (!more) break;
          {
            Span mux{"gateway.mux", id};
            shard.wire.mux->send_encoded(id, frame, n_codes);
          }
          shard.fed[i] += n_codes;
          quota -= std::min<std::uint64_t>(quota, n_codes);
          // Pump behind every envelope, as gateway_server does: the loopback
          // queue never holds more than one.
          Span demux{"gateway.demux", id};
          (void)shard.wire.demux->pump();
        }
      }
      clock.stamp(s, run_index, hospital->shard(s).batches());
      sample_staleness(*hospital, s, staleness[s]);
    });
  }

  std::uint64_t frames = 0;
  std::vector<std::vector<std::uint8_t>> young;   // readmission timing
  std::vector<std::vector<std::uint8_t>> steady;  // sizes, twins, rejected restores
  double next_readmit_s = 0.0;  // timed wall at which readmission timing runs next
  for (std::size_t pass = 0; frames < kSteadyEndFrames || out.wall_s + out.traced_wall_s < opt.seconds;
       ++pass) {
    for (std::size_t s = 0; s < kShards; ++s) start_pass(s);
    const bool traced = opt.trace && pass % 2 == 1;
    set_enabled(traced);
    frames += kRecordFrames;
    ++run_index;
    const std::uint64_t before = codes_consumed(*hospital);
    const std::int64_t t0 = now_ns();
    {
      Span run{"fleet.run"};
      hospital->run(static_cast<double>(frames) / 1000.0);
    }
    const double wall = seconds_since(t0);
    const std::uint64_t codes = codes_consumed(*hospital) - before;
    (traced ? out.traced_wall_s : out.wall_s) += wall;
    (traced ? out.traced_codes : out.codes) += codes;
    for (const std::uint32_t id : ids) {
      if (delivered[id] != kRecordFrames) {
        out.fail("pass " + std::to_string(pass) + " delivered " + std::to_string(delivered[id]) +
                 " codes to session " + std::to_string(id));
      }
    }
    if (frames == kReadmitFrames || frames == kSteadyEndFrames) {
      set_enabled(opt.trace);
      (frames == kReadmitFrames ? young : steady) = checkpoint_all(*hospital, ids);
    }
    sample_host_speed(out);
    if (!young.empty() && out.wall_s + out.traced_wall_s >= next_readmit_s) {
      readmit(*hospital, ids, young, kReadmitsPerChunk, out);
      next_readmit_s = out.wall_s + out.traced_wall_s + kReadmitPeriodS;
    }
  }
  for (const auto& shard : shards) fold_wire_counters(shard.wire);
  set_enabled(opt.trace);
  out.workers = static_cast<double>(kShards);

  const std::uint64_t mismatched =
      std::accumulate(shard_mismatched.begin(), shard_mismatched.end(), std::uint64_t{0});
  if (mismatched != 0) {
    out.fail(std::to_string(mismatched) + " delivered code(s) differ from the recording");
  }
  out.layer["gateway.lost_envelopes"] = static_cast<double>(lost);
  out.layer["gateway.corrupt_envelopes"] = static_cast<double>(corrupt);
  out.layer["gateway.wire_bytes_per_code"] =
      wire_codes == 0 ? 0.0 : static_cast<double>(wire_bytes) / static_cast<double>(wire_codes);
  if (lost + corrupt != 0) out.fail("the loopback wire lost or corrupted envelopes");

  out.batch_ms = clock.intervals_ms();
  out.layer["fleet.batch_skew_ms"] = clock.median_skew_ms();
  for (const auto& shard : staleness) {
    out.staleness_s.insert(out.staleness_s.end(), shard.begin(), shard.end());
  }
  for (const auto& blob : steady) out.checkpoint_bytes.push_back(static_cast<double>(blob.size()));

  check_wards(*hospital, frames, out);
  if (out.readmit_ms.size() < kMinReadmits) {
    readmit(*hospital, ids, young, kMinReadmits - out.readmit_ms.size(), out);
  }
  out.layer["fleet.restore_rejected"] =
      static_cast<double>(count_rejected_restores(*hospital, ids, steady));
  shards.clear();
  hospital.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace tonobench
