// ward_server — the hospital serving loop: N concurrent patient sessions
// across independent ward shards, bounded telemetry rings, hospital-level
// alarm aggregation, asynchronous JSONL snapshots.
//
//   ward_server --sessions 256 --shards 4 --duration 10 --seed 11
//               [--threads 0] [--frames-per-step 64] [--epoch-batches 16]
//               [--code-policy drop] [--fault-plan contact=1,link=1,element=1]
//               [--max-readmits 3] [--snapshot ward.jsonl] [--snapshot-every 0]
//               [--checkpoint ward.ckpt] [--checkpoint-every 0] [--resume]
//               [--metrics metrics.jsonl] [--verbose]
//               [--transport none|loopback|tcp] [--listen 127.0.0.1:0]
//               [--wire-policy block|drop] [--wire-capacity 1048576]
//               [--record DIR | --replay DIR [--replay-speed 0]] [--dump-codes DIR]
//
// Checkpoint & resume (direct ingest only): --checkpoint makes the hospital
// write a crash-safe binary checkpoint (atomic tmp+fsync+rename) every
// --checkpoint-every epochs and at the end of the run. A killed server
// restarted with the same flags plus --resume picks up from the last
// checkpoint and finishes with byte-identical snapshot output.
//
// The gateway wire (docs/GATEWAY.md): with --transport loopback|tcp every
// session's code stream crosses a real wire (gateway::HospitalGateway) and
// the snapshot stays byte-identical to direct ingest. --record captures
// exactly the frames the ward consumed; --replay feeds them back and
// delivers the byte-identical code stream, time-compressed
// (--replay-speed 0) or paced at N× the 1 kS/s rate.
//
// Each session is a full vertical slice (scenario → transducer → ΔΣ →
// decimation → streaming monitor). Sessions are assigned to shards purely by
// id (id % shards); each shard steps its sessions in deterministic lockstep
// batches on its own scheduler and thread pool, so results — including the
// snapshot bytes — are bit-identical across shard and thread counts (see
// docs/FLEET.md). The session mix cycles through the patient presets and
// scenarios so a default run exercises alarms, quality gating and
// escalation.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "src/common/checkpoint.hpp"
#include "src/common/cli.hpp"
#include "src/common/metrics.hpp"
#include "src/fleet/fault_plan.hpp"
#include "src/fleet/hospital_scheduler.hpp"
#include "src/gateway/hospital_gateway.hpp"
#include "examples/session_mix.hpp"

namespace {

using namespace tono;

/// "host:port" with a numeric port in [0, 65535]; no silent clamping.
bool parse_listen(const std::string& spec, std::string* host, std::uint16_t* port,
                  std::string* error) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    *error = "--listen: expected host:port, got '" + spec + "'";
    return false;
  }
  *host = spec.substr(0, colon);
  const std::string port_str = spec.substr(colon + 1);
  char* end = nullptr;
  const long p = std::strtol(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || p < 0 || p > 65535) {
    *error = "--listen: port must be 0..65535, got '" + port_str + "'";
    return false;
  }
  *port = static_cast<std::uint16_t>(p);
  return true;
}

/// Per-session little-endian int16 dump of every code the demux delivered,
/// in delivery order — the byte-level artifact CI compares across live,
/// record and replay runs.
struct CodeDumper {
  std::string dir;
  std::map<std::uint32_t, std::ofstream> files;

  bool open(std::uint32_t id) {
    files[id].open(dir + "/session_" + std::to_string(id) + ".i16",
                   std::ios::binary | std::ios::trunc);
    return files[id].good();
  }
  void write(std::uint32_t id, std::span<const std::int16_t> codes) {
    std::ofstream& out = files.at(id);
    for (const std::int16_t code : codes) {
      const auto u = static_cast<std::uint16_t>(code);
      out.put(static_cast<char>(u & 0xFF)).put(static_cast<char>(u >> 8));
    }
  }
  bool flush() {
    bool ok = true;
    for (auto& [id, out] : files) ok = out.flush().good() && ok;
    return ok;
  }
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args{"ward_server", "serve N concurrent patient monitoring sessions"};
  // Every value is syntax-checked by the parser (no trailing junk, no
  // overflow); the bounds reject what a cast would otherwise clamp silently
  // — `--shards -3` must be a clear error, not a 4-billion-shard hospital.
  args.add_int("sessions", "number of patient sessions to admit", 16, {.min = 0});
  args.add_double("duration", "monitoring stream per session [s]", 10.0, {.above = 0});
  args.add_int("seed", "fleet base seed (session seeds derive from it)", 11, {.min = 0});
  args.add_int("shards", "independent ward shards, each with its own scheduler", 1,
               {.min = 1});
  args.add_int("threads", "worker threads per shard (0 = hardware/shards)", 0, {.min = 0});
  args.add_int("frames-per-step", "output frames per session per batch", 64, {.min = 1});
  args.add_int("epoch-batches", "batches per shard between hospital epochs", 16,
               {.min = 1});
  args.add_string("code-policy", "codes-ring backpressure: drop | block", "drop",
                  {"drop", "block"});
  args.add_string("fault-plan", "per-session faults, e.g. contact=1,link=1,element=1",
                  "");
  args.add_int("max-readmits", "readmissions before a quarantined session retires", 3,
               {.min = 0});
  args.add_string("snapshot", "write the ward JSONL snapshot to this file", "");
  args.add_int("snapshot-every", "snapshot period in epochs (0 = final only)", 0,
               {.min = 0});
  args.add_string("checkpoint", "write a resumable crash-safe checkpoint here", "");
  args.add_int("checkpoint-every", "checkpoint period in epochs (0 = at end)", 0,
               {.min = 0});
  args.add_flag("resume", "restore from --checkpoint first (fresh start if absent)");
  args.add_string("metrics", "write a JSONL runtime-metrics snapshot to this file", "");
  args.add_flag("verbose", "print per-session rows (always printed for quarantines)");
  args.add_string("transport", "code path: none (direct) | loopback | tcp", "none",
                  {"none", "loopback", "tcp"});
  args.add_string("listen", "TCP bind host:port (port 0 = ephemeral)", "127.0.0.1:0");
  args.add_string("wire-policy", "saturated-wire backpressure: block | drop", "block",
                  {"block", "drop"});
  args.add_int("wire-capacity", "loopback wire queue capacity [B]", 1 << 20, {.min = 1});
  args.add_string("record", "record every consumed session stream into this dir", "");
  args.add_string("replay", "replay a recorded dir instead of producing live", "");
  args.add_double("replay-speed", "replay pace, multiple of 1 kS/s (0 = max speed)", 0.0,
                  {.min = 0});
  args.add_string("dump-codes", "dump delivered codes (LE int16) per session here", "");
  args.needs("checkpoint-every", "checkpoint");
  args.needs("resume", "checkpoint");
  for (const char* wire_flag : {"listen", "wire-policy", "wire-capacity", "record",
                                "replay", "replay-speed", "dump-codes"}) {
    args.needs(wire_flag, "transport");
  }
  args.excludes("record", "replay");
  // Checkpoint/resume is verified for direct ingest only: a checkpoint does
  // not capture what is in flight on a wire.
  args.excludes("checkpoint", "transport");
  if (const auto exit = args.parse_or_exit(argc, argv)) return *exit;

  const std::string transport = args.string_value("transport");
  const bool wire = transport != "none";
  const bool tcp = transport == "tcp";
  std::string listen_host;
  std::uint16_t listen_port = 0;
  fleet::FaultPlanConfig fault_plan;
  std::string flag_error;
  if (!parse_listen(args.string_value("listen"), &listen_host, &listen_port,
                    &flag_error) ||
      !fleet::parse_fault_plan(args.string_value("fault-plan"), &fault_plan,
                               &flag_error)) {
    std::cerr << flag_error << "\n";
    return 2;
  }

  // ---- Resolve the run parameters -----------------------------------------
  // Live runs take them from the flags. A replay takes them from the
  // recording: the finalize()-written index when present (explicit flags must
  // then match — a replay against the wrong seed would calibrate a different
  // hospital, so a mismatch is exit 2, not a warning), else flags plus a
  // tail-truncating scan of the session files (killed recording).
  auto n_sessions = static_cast<std::size_t>(args.int_value("sessions"));
  auto base_seed = static_cast<std::uint64_t>(args.int_value("seed"));
  auto frames_per_step = static_cast<std::size_t>(args.int_value("frames-per-step"));
  double duration_s = args.double_value("duration");
  const std::string replay_dir = args.string_value("replay");
  const bool replay = !replay_dir.empty();
  if (replay) {
    const auto replay_ids = gateway::SessionReplayer::list_sessions(replay_dir);
    if (replay_ids.empty()) {
      std::cerr << "no session records found in " << replay_dir << "\n";
      return 1;
    }
    std::optional<gateway::RecordIndex> index;
    try {
      index = gateway::read_record_index(replay_dir);
    } catch (const CheckpointError& e) {
      std::cerr << "corrupt record index in " << replay_dir << ": " << e.what()
                << "\n";
      return 1;
    }
    if (index.has_value()) {
      const auto& meta = index->meta;
      const struct {
        const char* flag;
        std::uint64_t given, recorded;
      } must_match[] = {{"seed", base_seed, meta.base_seed},
                        {"frames-per-step", frames_per_step, meta.frames_per_step},
                        {"sessions", n_sessions, meta.sessions}};
      for (const auto& m : must_match) {
        if (args.has(m.flag) && m.given != m.recorded) {
          std::cerr << "--" << m.flag << " " << m.given << " mismatches the recording ("
                    << m.recorded << ")\n";
          return 2;
        }
      }
      base_seed = meta.base_seed;
      frames_per_step = static_cast<std::size_t>(meta.frames_per_step);
      n_sessions = static_cast<std::size_t>(meta.sessions);
    } else {
      n_sessions = replay_ids.size();
    }
    if (replay_ids.size() != n_sessions) {
      std::cerr << "recording has " << replay_ids.size() << " session file(s), "
                << "expected " << n_sessions << "\n";
      return 1;
    }
  }
  fleet::HospitalConfig hospital_config;
  hospital_config.shards = static_cast<std::size_t>(args.int_value("shards"));
  hospital_config.threads_per_shard = static_cast<std::size_t>(args.int_value("threads"));
  hospital_config.base_seed = base_seed;
  hospital_config.frames_per_step = frames_per_step;
  hospital_config.epoch_batches =
      static_cast<std::size_t>(args.int_value("epoch-batches"));
  hospital_config.max_readmits = static_cast<std::size_t>(args.int_value("max-readmits"));
  hospital_config.snapshot_path = args.string_value("snapshot");
  hospital_config.snapshot_every_epochs =
      static_cast<std::size_t>(args.int_value("snapshot-every"));
  const std::string checkpoint_path = args.string_value("checkpoint");
  hospital_config.checkpoint_path = checkpoint_path;
  hospital_config.checkpoint_every_epochs =
      static_cast<std::size_t>(args.int_value("checkpoint-every"));
  fleet::HospitalScheduler hospital{hospital_config};

  // ---- The wire (--transport) ---------------------------------------------
  std::unique_ptr<gateway::HospitalGateway> hospital_gateway;
  std::unique_ptr<CodeDumper> dumper;
  const std::string record_dir = args.string_value("record");
  const std::string dump_dir = args.string_value("dump-codes");
  if (wire) {
    gateway::HospitalGatewayConfig gateway_config;
    gateway_config.wire = tcp ? gateway::WireKind::kTcp : gateway::WireKind::kLoopback;
    gateway_config.listen_host = listen_host;
    gateway_config.listen_port = listen_port;
    gateway_config.wire_capacity_bytes =
        static_cast<std::size_t>(args.int_value("wire-capacity"));
    gateway_config.gateway.wire_policy = args.string_value("wire-policy") == "drop"
                                             ? BackpressurePolicy::kDropOldest
                                             : BackpressurePolicy::kBlock;
    gateway_config.record_dir = record_dir;
    gateway_config.replay_dir = replay_dir;
    gateway_config.replay_speed = args.double_value("replay-speed");
    try {
      hospital_gateway =
          std::make_unique<gateway::HospitalGateway>(hospital, gateway_config);
    } catch (const std::runtime_error& e) {  // TransportError, RecorderError
      std::cerr << "cannot set up the " << transport << " gateway: " << e.what() << "\n";
      return 1;
    }
    const gateway::ReplayHorizon& horizon = hospital_gateway->replay_horizon();
    if (replay && horizon.codes_per_session == 0) {
      std::cerr << "recording in " << replay_dir << " has no complete batch to replay\n";
      return 1;
    }
    if (replay) duration_s = horizon.seconds();
    if (!dump_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(dump_dir, ec);
      dumper = std::make_unique<CodeDumper>(CodeDumper{dump_dir, {}});
      hospital_gateway->set_delivery_tap(
          [d = dumper.get()](std::uint32_t id, std::span<const std::int16_t> codes) {
            d->write(id, codes);
          });
    }
  }

  // Fault onsets land inside the run (the config default horizon assumes a
  // longer session than a smoke run's --duration 2).
  fault_plan.horizon_s = std::max(fault_plan.min_onset_s + 0.1, 0.75 * duration_s);
  const std::string policy_name = args.string_value("code-policy");
  for (std::size_t i = 0; i < n_sessions; ++i) {
    fleet::SessionConfig config = examples::session_mix(i);
    config.code_policy = policy_name == "block" ? BackpressurePolicy::kBlock
                                                : BackpressurePolicy::kDropOldest;
    config.fault_plan = fault_plan;
    const char* label = examples::mix_label(i);
    std::uint32_t id = 0;
    try {
      id = hospital_gateway ? hospital_gateway->admit(std::move(config), label)
                            : hospital.admit(std::move(config), label);
    } catch (const std::invalid_argument& e) {
      // The flags describe a hospital that cannot run, e.g. a batch larger
      // than the code ring or the blocking loopback wire.
      std::cerr << "cannot admit session " << i << ": " << e.what() << "\n";
      return 2;
    }
    if (dumper && !dumper->open(id)) {
      std::cerr << "cannot open code dump for session " << id << " in " << dump_dir
                << "\n";
      return 1;
    }
  }
  std::cout << "ward_server: " << n_sessions << " sessions "
            << (replay ? "replayed" : "admitted") << ", " << hospital.shards()
            << " shard(s) x " << hospital.threads_per_shard() << " worker thread(s), ";
  if (wire) std::cout << transport << " wire, ";
  std::cout << duration_s << " s per session\n";
  if (tcp) {
    std::cout << "tcp: listening on " << listen_host << ":"
              << hospital_gateway->listen_port() << ", " << hospital.shards()
              << " connection(s)\n";
  }
  if (replay && hospital_gateway->replay_horizon().torn) {
    std::cout << "replay: torn record tail detected, truncated to "
              << hospital_gateway->replay_horizon().codes_per_session
              << " codes per session\n";
  }

  if (args.flag("resume")) {
    // Resume means resume: a checkpoint that exists but fails validation is
    // a hard error (exit 1), never a silent restart from zero.
    try {
      if (hospital.try_restore_checkpoint()) {
        std::cout << "resumed from checkpoint " << checkpoint_path << " ("
                  << hospital.epochs() << " epoch(s) already run)\n";
      } else {
        std::cout << "no checkpoint at " << checkpoint_path
                  << ", starting fresh\n";
      }
    } catch (const CheckpointError& e) {
      std::cerr << "cannot resume from " << checkpoint_path << ": " << e.what()
                << "\n";
      return 1;
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  hospital.run(duration_s);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  // The merged snapshot is exact after run() and shard-count-invariant:
  // sessions in global-id order, totals summed across shards.
  const fleet::WardSnapshot ward = hospital.snapshot();
  std::size_t quarantined = 0;
  for (const auto& s : ward.sessions) {
    const bool parked = s.lifecycle == fleet::SessionState::kQuarantined ||
                        s.lifecycle == fleet::SessionState::kRetired;
    if (parked) ++quarantined;
    if (args.flag("verbose") || parked) {
      std::cout << "  [" << s.id << "] " << s.label << " (" << to_string(s.lifecycle)
                << "): " << s.codes << " codes, " << s.beats << " beats, BP "
                << s.last_systolic_mmhg << "/" << s.last_diastolic_mmhg << " mmHg, SQI "
                << s.last_sqi << ", alarms " << s.alarms_active << ", drops "
                << s.code_drops + s.event_drops
                << (s.note.empty() ? "" : " — " + s.note) << "\n";
    }
  }
  std::cout << "ward: " << ward.codes_consumed << " codes, "
            << ward.events_consumed << " events consumed; alarms active "
            << ward.alarms_active << " (queue " << ward.alarms_total
            << ", escalations " << ward.escalations << "); drops "
            << ward.drops << " (events " << ward.event_drops
            << "); quarantined " << quarantined << "\n";
  if (ward.recoveries > 0 || ward.retired > 0) {
    // Only printed once the recovery machinery engaged, so clean runs keep
    // their pre-fault-plan output bytes.
    std::cout << "recovery: readmitted " << ward.recoveries
              << " session(s), retired " << ward.retired << "\n";
  }

  if (hospital_gateway) {
    const gateway::WireTotals t = hospital_gateway->totals();
    std::cout << "wire: " << t.frames_muxed << " frames (" << t.codes_sent
              << " codes, " << t.bytes_sent << " B) muxed; dropped "
              << t.envelopes_dropped << " envelope(s) / " << t.codes_dropped
              << " code(s), " << t.backpressure_blocks << " block stall(s); demux "
              << t.crc_errors << " CRC error(s), " << t.resync_bytes
              << " resync byte(s), " << t.lost_envelopes << " lost envelope(s), "
              << t.delivery_drops << " delivery drop(s)\n";
  }
  if (replay) {
    const double speedup = wall_s > 0.0 ? duration_s / wall_s : 0.0;
    metrics::Registry::global()
        .gauge(metrics::names::kGatewayReplaySpeedup)
        .set(speedup);
    std::cout << "replay: " << duration_s << " s of stream in " << wall_s
              << " s wall (" << speedup << "x)\n";
  }
  if (!record_dir.empty()) {
    if (!hospital_gateway->finalize_recording(duration_s)) {
      std::cerr << "cannot finalize recording in " << record_dir << "\n";
      return 1;
    }
    const gateway::SessionRecorder& recorder = *hospital_gateway->recorder();
    std::cout << "recorded " << recorder.frames_recorded() << " frame(s), "
              << recorder.bytes_written() << " B to " << record_dir << "\n";
  }
  if (dumper && !dumper->flush()) {
    std::cerr << "cannot write code dumps to " << dump_dir << "\n";
    return 1;
  }

  const std::string snapshot = args.string_value("snapshot");
  if (!snapshot.empty()) {
    // run() already handed the final exact snapshot to the async writer and
    // flushed; any periodic epoch snapshots were superseded along the way.
    if (hospital.snapshots_written() == 0) {
      std::cerr << "cannot write snapshot to " << snapshot << "\n";
      return 1;
    }
    std::cout << "wrote ward snapshot to " << snapshot;
    if (hospital_config.snapshot_every_epochs > 0) {
      std::cout << " (" << hospital.snapshots_written() << " written, "
                << hospital.snapshots_skipped() << " superseded)";
    }
    std::cout << "\n";
  }
  if (!checkpoint_path.empty()) {
    if (hospital.checkpoints_saved() == 0) {
      std::cerr << "cannot write checkpoint to " << checkpoint_path << "\n";
      return 1;
    }
    std::cout << "wrote checkpoint to " << checkpoint_path << "\n";
  }
  const std::string metrics_path = args.string_value("metrics");
  if (!metrics_path.empty()) {
    metrics::register_standard_instruments();
    if (!metrics::Registry::global().write_jsonl_file(metrics_path)) {
      std::cerr << "cannot write metrics to " << metrics_path << "\n";
      return 1;
    }
    std::cout << "wrote metrics snapshot to " << metrics_path << "\n";
  }
  // The blocking events ring is the clinical contract: nothing may be lost.
  if (ward.event_drops != 0) {
    std::cerr << "ERROR: " << ward.event_drops << " beat/alarm events dropped\n";
    return 1;
  }
  return 0;
}
