// ward_live — the paper's full per-frame chain at steady state: 64 clean
// sessions of the examples/session_mix admission mix on a 4-shard hospital,
// one thread per shard, live acquisition. Admission happens in set-up; the
// timed region is hospital.run() in 1.024 s chunks, with the per-shard batch
// hook stamping every batch boundary and sampling the ward there.
#include <memory>

#include "examples/session_mix.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace tonobench {

using tono::fleet::HospitalScheduler;
using tono::fleet::PatientSession;
using tono::fleet::SessionConfig;

namespace {

std::uint64_t codes_consumed(HospitalScheduler& hospital) {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < hospital.shards(); ++s) n += hospital.ward(s).codes_consumed();
  return n;
}

/// Oracle: sampled hospital sessions equal solo PatientSessions built from
/// the same id and config (seed included) and stepped on the same 64-frame
/// schedule to the end of the steady-state window.
void check_solo_twins(const Options& opt, HospitalScheduler& hospital,
                      const std::vector<std::uint32_t>& ids,
                      const std::vector<std::vector<std::uint8_t>>& blobs, Outcome& out) {
  std::vector<std::size_t> sampled;
  for (std::size_t s = 0; s < kOracleSessions; ++s) {
    const std::size_t per_shard = ids.size() / kShards;
    sampled.push_back(s % kShards + kShards * (derive_seed(opt.seed, 0x5010, s) % per_shard));
  }
  std::vector<char> same(sampled.size(), 0);
  parallel_for(sampled.size(), helper_threads(), [&](std::size_t k) {
    const std::size_t i = sampled[k];
    const SessionConfig& config =
        hospital.shard(hospital.shard_of(ids[i])).session(ids[i])->config();
    PatientSession solo{ids[i], config};
    solo.admit();
    std::vector<std::int16_t> codes;
    std::vector<tono::fleet::FleetEvent> events;
    for (std::uint64_t f = 0; f < kSteadyEndFrames; f += kFramesPerStep) {
      solo.step(kFramesPerStep);
      codes.clear();
      (void)solo.codes().pop_all(codes);
      events.clear();
      (void)solo.events().pop_all(events);
    }
    same[k] = solo.checkpoint() == blobs[i] ? 1 : 0;
  });
  for (std::size_t k = 0; k < sampled.size(); ++k) {
    if (!same[k]) {
      out.fail("hospital session " + std::to_string(ids[sampled[k]]) +
               " differs from its solo twin");
    }
  }
}

}  // namespace

void run_ward_live(const Options& opt, Outcome& out) {
  std::vector<SessionConfig> configs;
  for (std::size_t i = 0; i < kSessions; ++i) configs.push_back(tono::examples::session_mix(i));

  std::unique_ptr<HospitalScheduler> hospital;
  std::vector<std::uint32_t> ids;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    hospital.reset();
    sample_host_speed(out);
    const std::int64_t t0 = rep == 0 ? opt.process_start_ns : now_ns();
    hospital = std::make_unique<HospitalScheduler>(hospital_config(opt.seed));
    ids = admit_all(*hospital, configs, out);
    out.setup_s.push_back(seconds_since(t0));
    sample_host_speed(out);
    out.tally.add(ids.size(), 0);
  }

  // Hooks run on each shard's driver thread; each writes only its own
  // shard's slots. `run_index` changes only between run() calls.
  BatchClock clock{kShards};
  std::vector<std::vector<double>> staleness(kShards);
  std::uint64_t run_index = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    hospital->shard(s).set_batch_hook([&, s] {
      clock.stamp(s, run_index, hospital->shard(s).batches());
      sample_staleness(*hospital, s, staleness[s]);
    });
  }

  std::uint64_t frames = 0;
  std::vector<std::vector<std::uint8_t>> young;   // readmission timing
  std::vector<std::vector<std::uint8_t>> steady;  // sizes, twins, rejected restores
  double next_readmit_s = 0.0;  // timed wall at which readmission timing runs next
  for (std::size_t chunk = 0; frames < kSteadyEndFrames || out.wall_s + out.traced_wall_s < opt.seconds;
       ++chunk) {
    const bool traced = opt.trace && chunk % 2 == 1;
    set_enabled(traced);
    frames += kChunkFrames;
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
  set_enabled(opt.trace);
  out.workers = static_cast<double>(kShards);

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
  set_enabled(false);
  check_solo_twins(opt, *hospital, ids, steady, out);
  set_enabled(opt.trace);
}

}  // namespace tonobench
