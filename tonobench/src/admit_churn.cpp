// admit_churn — per-patient one-time costs, which steady state never
// touches. A closed loop of client threads (one per shard, at most nproc),
// each repeating one cycle: build a PatientSession from the mix and admit()
// it, step ~1 s, then kReadmits times checkpoint() it, destroy it, build a
// fresh one, restore_checkpoint() and step ~1 s again; then discharge.
#include <atomic>
#include <memory>
#include <thread>

#include "examples/session_mix.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace tonobench {

using tono::fleet::FleetEvent;
using tono::fleet::FleetEventKind;
using tono::fleet::PatientSession;
using tono::fleet::SessionConfig;

namespace {

constexpr std::size_t kReadmits = 3;
/// Cycles 0..kFixedCycles-1 (numbered across clients: client k runs cycles
/// k, k + clients, ...) always run; staleness and checkpoint sizes come from
/// them only, so they repeat exactly whatever the client count. 24 cycles
/// give at least 24 × 4 × 12 staleness samples, enough for p99.
constexpr std::size_t kFixedCycles = 24;
/// admit_ms_p90 needs 10 samples beyond it.
constexpr std::uint64_t kMinAdmissions = 100;

SessionConfig cycle_config(std::uint64_t seed, std::size_t cycle) {
  SessionConfig config = tono::examples::session_mix(cycle);
  config.seed = derive_seed(seed, 0xC4A7, cycle) | 1;  // 0 means "derive"
  return config;
}

struct ClientLog {
  std::vector<double> admit_ms, readmit_ms, batch_ms, staleness_s, checkpoint_bytes,
      reference_ms;
  std::uint64_t codes{0};
  std::uint64_t frames{0};
  std::uint64_t lifecycle_ops{0};
};

/// What a consumer sees of a solo session: codes drained, last beat time.
struct Consumer {
  std::vector<std::int16_t> codes;
  std::vector<FleetEvent> events;
  double last_beat_s{0.0};

  std::size_t drain(PatientSession& session) {
    codes.clear();
    const std::size_t n = session.codes().pop_all(codes);
    events.clear();
    (void)session.events().pop_all(events);
    for (const auto& e : events) {
      if (e.kind == FleetEventKind::kBeat) last_beat_s = e.time_s;
    }
    return n;
  }
};

/// Batches stepped between lifecycle operations: about 1 s of stream, drawn
/// per cycle and phase from the seed (12..20 batches, 0.768..1.28 s).
std::size_t step_batches(std::uint64_t cycle_seed, std::size_t phase) {
  return 12 + static_cast<std::size_t>(derive_seed(cycle_seed, 0x57E9, phase) % 9);
}

void stream(PatientSession& session, std::size_t batches, Consumer& consumer, bool fixed,
            ClientLog& log) {
  for (std::size_t b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    {
      Span step{"fleet.step", session.id()};
      session.step(kFramesPerStep);
    }
    log.codes += consumer.drain(session);
    log.frames += kFramesPerStep;
    log.batch_ms.push_back(seconds_since(t0) * 1e3);
    if (fixed) log.staleness_s.push_back(session.stream_time_s() - consumer.last_beat_s);
  }
}

void client(std::uint64_t seed, std::size_t k, std::size_t clients,
            const std::atomic<bool>& stop, std::atomic<std::uint64_t>& admissions,
            ClientLog& log) {
  for (std::size_t cycle = k; cycle < kFixedCycles || !stop.load(); cycle += clients) {
    const bool fixed = cycle < kFixedCycles;
    const SessionConfig config = cycle_config(seed, cycle);
    const auto id = static_cast<std::uint32_t>(cycle);
    log.reference_ms.push_back(reference_loop_ms());
    Consumer consumer;
    std::int64_t t0 = now_ns();
    std::unique_ptr<PatientSession> session;
    {
      Span build{"fleet.session_build", id};
      session = std::make_unique<PatientSession>(id, config);
    }
    {
      Span calibrate{"core.calibrate", id};
      session->admit();
    }
    log.admit_ms.push_back(seconds_since(t0) * 1e3);
    admissions.fetch_add(1);
    stream(*session, step_batches(config.seed, 0), consumer, fixed, log);
    for (std::size_t r = 0; r < kReadmits; ++r) {
      std::vector<std::uint8_t> blob;
      {
        Span checkpoint{"fleet.checkpoint", id};
        blob = session->checkpoint();
      }
      if (fixed) log.checkpoint_bytes.push_back(static_cast<double>(blob.size()));
      session.reset();
      t0 = now_ns();
      {
        Span build{"fleet.session_build", id};
        session = std::make_unique<PatientSession>(id, config);
      }
      {
        Span restore{"fleet.restore", id};
        session->restore_checkpoint(blob);
      }
      log.readmit_ms.push_back(seconds_since(t0) * 1e3);
      stream(*session, step_batches(config.seed, r + 1), consumer, fixed, log);
    }
    {
      Span discharge{"fleet.discharge", id};
      session.reset();
    }
    log.lifecycle_ops += 1 + kReadmits;
  }
}

/// One closed-loop phase: clients run until `seconds` have passed, each has
/// completed its fixed cycles and, when `floor` is set, the admissions
/// support admit_ms_p90.
void churn(const Options& opt, double seconds, bool floor, bool traced, Outcome& out) {
  const std::size_t clients = helper_threads();
  std::vector<ClientLog> logs(clients);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> admissions{0};
  set_enabled(traced);
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < clients; ++k) {
    threads.emplace_back(client, opt.seed, k, clients, std::cref(stop), std::ref(admissions),
                         std::ref(logs[k]));
  }
  while (seconds_since(t0) < seconds || (floor && admissions.load() < kMinAdmissions)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  const double wall = seconds_since(t0);
  set_enabled(opt.trace);

  std::uint64_t codes = 0;
  for (const auto& log : logs) {
    out.admit_ms.insert(out.admit_ms.end(), log.admit_ms.begin(), log.admit_ms.end());
    out.readmit_ms.insert(out.readmit_ms.end(), log.readmit_ms.begin(), log.readmit_ms.end());
    out.batch_ms.insert(out.batch_ms.end(), log.batch_ms.begin(), log.batch_ms.end());
    out.staleness_s.insert(out.staleness_s.end(), log.staleness_s.begin(), log.staleness_s.end());
    out.checkpoint_bytes.insert(out.checkpoint_bytes.end(), log.checkpoint_bytes.begin(),
                                log.checkpoint_bytes.end());
    out.reference_ms.insert(out.reference_ms.end(), log.reference_ms.begin(),
                            log.reference_ms.end());
    codes += log.codes;
    out.tally.add(log.frames + log.lifecycle_ops, log.frames - std::min(log.frames, log.codes));
  }
  (traced ? out.traced_codes : out.codes) += codes;
  (traced ? out.traced_wall_s : out.wall_s) += wall;
  out.workers = static_cast<double>(clients);
}

/// Oracle: a restored session equals its uninterrupted twin for the next
/// batch — same codes, same events, same state.
void check_restore_twins(const Options& opt, Outcome& out) {
  constexpr std::size_t kTwins = 4;
  std::vector<char> same(kTwins, 0);
  parallel_for(kTwins, helper_threads(), [&](std::size_t i) {
    SessionConfig config = tono::examples::session_mix(i);
    config.seed = derive_seed(opt.seed, 0x7A1F, i) | 1;
    const auto id = static_cast<std::uint32_t>(i);
    PatientSession a{id, config};
    a.admit();
    Consumer ca;
    ClientLog scratch;
    stream(a, step_batches(config.seed, 0), ca, false, scratch);
    PatientSession b{id, config};
    b.restore_checkpoint(a.checkpoint());
    Consumer cb;
    a.step(kFramesPerStep);
    b.step(kFramesPerStep);
    (void)ca.drain(a);
    (void)cb.drain(b);
    bool events_equal = ca.events.size() == cb.events.size();
    for (std::size_t e = 0; events_equal && e < ca.events.size(); ++e) {
      const FleetEvent& x = ca.events[e];
      const FleetEvent& y = cb.events[e];
      events_equal = x.kind == y.kind && x.alarm_kind == y.alarm_kind && x.flag == y.flag &&
                     x.time_s == y.time_s && x.value_a == y.value_a && x.value_b == y.value_b;
    }
    same[i] = ca.codes == cb.codes && events_equal && a.checkpoint() == b.checkpoint() ? 1 : 0;
  });
  for (std::size_t i = 0; i < kTwins; ++i) {
    if (!same[i]) out.fail("restored twin " + std::to_string(i) + " diverged in the next batch");
  }
}

}  // namespace

void run_admit_churn(const Options& opt, Outcome& out) {
  // Set-up: every client admits one warm-up session (first-touch allocation,
  // lazily built tables), discarded before timing.
  const std::size_t clients = helper_threads();
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    sample_host_speed(out);
    const std::int64_t t0 = rep == 0 ? opt.process_start_ns : now_ns();
    const bool was = enabled();
    set_enabled(false);
    parallel_for(clients, clients, [&](std::size_t k) {
      SessionConfig config = tono::examples::session_mix(k);
      config.seed = derive_seed(opt.seed, 0x3A3A + rep, k) | 1;
      PatientSession warm{static_cast<std::uint32_t>(k), config};
      warm.admit();
    });
    set_enabled(was);
    out.setup_s.push_back(seconds_since(t0));
    sample_host_speed(out);
  }

  if (opt.trace) {
    churn(opt, opt.seconds / 2.0, false, false, out);
    churn(opt, opt.seconds / 2.0, false, true, out);
  } else {
    churn(opt, opt.seconds, true, false, out);
  }
  set_enabled(false);
  check_restore_twins(opt, out);
  set_enabled(opt.trace);
}

}  // namespace tonobench
