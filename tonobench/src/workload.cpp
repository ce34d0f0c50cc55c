#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "src/common/checkpoint.hpp"
#include "trace.hpp"

namespace tonobench {

using tono::fleet::HospitalScheduler;
using tono::fleet::PatientSession;
using tono::fleet::SessionConfig;
using tono::fleet::SessionState;

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;  // guards first_error
  std::exception_ptr first_error;
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock{error_mutex};
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  const std::size_t count = std::max<std::size_t>(1, std::min(threads, n));
  pool.reserve(count);
  for (std::size_t t = 0; t < count; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t helper_threads() { return std::min<std::size_t>(kShards, nproc()); }

double reference_loop_ms() {
  constexpr int kIterations = 500000;
  volatile double seed = 1.0000001;
  double x = seed;
  double y = 0.5;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kIterations; ++i) {
    x = x * 0.9999999 + y;
    y = y * 1.0000001 - 0.25e-9 * x;
  }
  const double ms = seconds_since(t0) * 1e3;
  volatile double sink = x + y;
  (void)sink;
  return ms;
}

void sample_host_speed(Outcome& out) {
  std::vector<double> ms(helper_threads(), 0.0);
  parallel_for(ms.size(), ms.size(), [&](std::size_t i) { ms[i] = reference_loop_ms(); });
  out.reference_ms.insert(out.reference_ms.end(), ms.begin(), ms.end());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

tono::fleet::HospitalConfig hospital_config(std::uint64_t seed) {
  tono::fleet::HospitalConfig config;
  config.shards = kShards;
  config.threads_per_shard = 1;
  config.base_seed = derive_seed(seed, 0x70A0);
  config.frames_per_step = kFramesPerStep;
  return config;
}

std::vector<std::uint32_t> admit_all(HospitalScheduler& hospital,
                                     const std::vector<SessionConfig>& configs, Outcome& out) {
  std::vector<std::uint32_t> ids;
  std::vector<double> build_ms;
  {
    Span serial{"fleet.hospital_admit"};
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const std::int64_t t0 = now_ns();
      std::uint32_t id = 0;
      {
        Span build{"fleet.session_build", static_cast<std::uint32_t>(i)};
        id = hospital.admit(configs[i]);
      }
      build_ms.push_back(seconds_since(t0) * 1e3);
      ids.push_back(id);
    }
  }
  std::vector<double> calibrate_ms(ids.size(), 0.0);
  {
    Span parallel{"fleet.first_batch"};
    parallel_for(ids.size(), helper_threads(), [&](std::size_t i) {
      PatientSession* session = hospital.shard(hospital.shard_of(ids[i])).session(ids[i]);
      const std::int64_t t0 = now_ns();
      {
        Span calibrate{"core.calibrate", ids[i]};
        session->admit();
      }
      calibrate_ms[i] = seconds_since(t0) * 1e3;
    });
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out.admit_ms.push_back(build_ms[i] + calibrate_ms[i]);
  }
  return ids;
}

std::vector<std::vector<std::uint8_t>> checkpoint_all(HospitalScheduler& hospital,
                                                      const std::vector<std::uint32_t>& ids) {
  std::vector<std::vector<std::uint8_t>> blobs(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Span span{"fleet.checkpoint", ids[i]};
    blobs[i] = hospital.shard(hospital.shard_of(ids[i])).session(ids[i])->checkpoint();
  }
  return blobs;
}

void readmit(HospitalScheduler& hospital, const std::vector<std::uint32_t>& ids,
             const std::vector<std::vector<std::uint8_t>>& blobs, std::size_t count,
             Outcome& out) {
  const std::size_t first = out.readmit_ms.size();
  std::vector<double> ms(count, 0.0);
  std::vector<char> same(count, 0);
  parallel_for(count, helper_threads(), [&](std::size_t k) {
    const std::size_t i = (first + k) % ids.size();
    const SessionConfig& config =
        hospital.shard(hospital.shard_of(ids[i])).session(ids[i])->config();
    const std::int64_t t0 = now_ns();
    std::unique_ptr<PatientSession> fresh;
    {
      Span build{"fleet.session_build", ids[i]};
      fresh = std::make_unique<PatientSession>(ids[i], config);
    }
    {
      Span restore{"fleet.restore", ids[i]};
      fresh->restore_checkpoint(blobs[i]);
    }
    ms[k] = seconds_since(t0) * 1e3;
    same[k] = fresh->checkpoint() == blobs[i] ? 1 : 0;
  });
  out.readmit_ms.insert(out.readmit_ms.end(), ms.begin(), ms.end());
  out.tally.add(ms.size(), 0);
  const auto mismatched = static_cast<std::size_t>(std::count(same.begin(), same.end(), 0));
  if (mismatched != 0) {
    out.fail(std::to_string(mismatched) + " restored session(s) re-checkpoint differently");
  }
}

std::uint64_t count_rejected_restores(HospitalScheduler& hospital,
                                      const std::vector<std::uint32_t>& ids,
                                      const std::vector<std::vector<std::uint8_t>>& blobs) {
  std::vector<char> rejected(ids.size(), 0);
  parallel_for(ids.size(), helper_threads(), [&](std::size_t i) {
    PatientSession fresh{ids[i], hospital.shard(hospital.shard_of(ids[i])).session(ids[i])->config()};
    try {
      fresh.restore_checkpoint(blobs[i]);
    } catch (const tono::CheckpointError&) {
      rejected[i] = 1;
    }
  });
  return static_cast<std::uint64_t>(std::count(rejected.begin(), rejected.end(), 1));
}

void check_wards(HospitalScheduler& hospital, std::uint64_t frames_owed, Outcome& out) {
  const tono::fleet::WardSnapshot snap = hospital.snapshot();
  std::uint64_t quarantined = 0;
  std::uint64_t code_drops = 0;
  for (const auto& s : snap.sessions) {
    if (s.lifecycle != SessionState::kRunning) ++quarantined;
    code_drops += s.code_drops;
  }
  out.layer["fleet.quarantined"] = static_cast<double>(quarantined);
  out.layer["fleet.code_drops"] = static_cast<double>(code_drops);
  out.layer["fleet.event_drops"] = static_cast<double>(snap.event_drops);
  if (quarantined != 0) out.fail(std::to_string(quarantined) + " session(s) not running");
  if (snap.event_drops != 0) out.fail(std::to_string(snap.event_drops) + " event(s) dropped");
  const Tally frames = frame_tally(snap.sessions, frames_owed);
  out.tally.add(frames.attempted, frames.failed);
}

void BatchClock::stamp(std::size_t shard, std::uint64_t run, std::uint64_t batch) {
  stamps_[shard].push_back(Stamp{run, batch, now_ns()});
}

std::vector<double> BatchClock::intervals_ms() const {
  std::vector<double> out;
  for (const auto& shard : stamps_) {
    for (std::size_t i = 1; i < shard.size(); ++i) {
      if (shard[i].run != shard[i - 1].run) continue;
      out.push_back(static_cast<double>(shard[i].ns - shard[i - 1].ns) * 1e-6);
    }
  }
  return out;
}

double BatchClock::median_skew_ms() const {
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> span;  // batch → (min, max)
  std::map<std::uint64_t, std::size_t> seen;
  for (const auto& shard : stamps_) {
    for (const auto& s : shard) {
      auto [it, fresh] = span.try_emplace(s.batch, s.ns, s.ns);
      if (!fresh) {
        it->second.first = std::min(it->second.first, s.ns);
        it->second.second = std::max(it->second.second, s.ns);
      }
      ++seen[s.batch];
    }
  }
  std::vector<double> skew;
  for (const auto& [batch, mm] : span) {
    if (seen[batch] == stamps_.size()) {
      skew.push_back(static_cast<double>(mm.second - mm.first) * 1e-6);
    }
  }
  return skew.empty() ? 0.0 : median(skew);
}

void sample_staleness(HospitalScheduler& hospital, std::size_t shard, std::vector<double>& out) {
  const double begin_s = static_cast<double>(kSteadyBeginFrames) / 1000.0;
  const double end_s = static_cast<double>(kSteadyEndFrames) / 1000.0;
  tono::fleet::FleetScheduler& fleet = hospital.shard(shard);
  const tono::fleet::WardAggregator& ward = hospital.ward(shard);
  for (const auto& state : ward.sessions()) {
    const PatientSession* session = fleet.session(state.id);
    const double now_s = session->stream_time_s();
    if (now_s <= begin_s || now_s > end_s) continue;
    out.push_back(now_s - state.last_beat_s);
  }
}

}  // namespace tonobench
