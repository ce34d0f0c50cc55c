// workload.hpp — what the three workloads share: options, the raw outcome
// each one fills, and the hospital set-up, checkpoint and readmission steps
// both ward workloads run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "src/fleet/hospital_scheduler.hpp"
#include "src/fleet/patient_session.hpp"

namespace tonobench {

// Fixed shape of every workload (BENCHMARK.json rationale, README.md): not
// taken from the host, so every host runs the same work.
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kSessions = 64;
inline constexpr std::size_t kFramesPerStep = 64;
/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetups = 3;
/// Stream per hospital.run() call of the timed loop (16 batches, one epoch).
inline constexpr std::uint64_t kChunkFrames = 1024;
/// Steady-state window (stream frames) whose beat staleness is sampled and
/// at whose end checkpoint sizes and solo twins are taken. It starts once
/// the streaming monitor's first 8 s analysis window has filled, and it is
/// fixed, so both repeat exactly for a seed however fast the host runs.
inline constexpr std::uint64_t kSteadyBeginFrames = 8192;
inline constexpr std::uint64_t kSteadyEndFrames = 16384;
/// Stream point of the checkpoints the readmission timing restores. Restoring
/// a checkpoint taken after the monitor's first analysis window throws (see
/// count_rejected_restores).
inline constexpr std::uint64_t kReadmitFrames = 4096;
/// Readmission timing in the ward workloads: kReadmitsPerChunk sessions at a
/// chunk boundary once every kReadmitPeriodS of timed wall, so the samples
/// span the run, and at least kMinReadmits in all (topped up after the
/// loop): p90 needs 100 samples.
inline constexpr std::size_t kReadmitsPerChunk = 8;
inline constexpr double kReadmitPeriodS = 0.5;
inline constexpr std::size_t kMinReadmits = 128;
/// Solo twins checked against hospital sessions (ward_live oracle).
inline constexpr std::size_t kOracleSessions = 4;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string work_dir{".bench_build/tonobench-work"};
  /// When main() started: the first set-up is timed from here.
  std::int64_t process_start_ns{0};
};

/// Raw measurements of one run; main.cpp turns them into metrics.
struct Outcome {
  std::vector<double> setup_s;
  std::vector<double> admit_ms;
  std::vector<double> readmit_ms;
  std::vector<double> batch_ms;
  std::vector<double> staleness_s;
  std::vector<double> checkpoint_bytes;
  /// Timed loop: codes delivered and wall time, split by whether tracing
  /// was on (only a traced run has traced chunks).
  std::uint64_t codes{0};
  double wall_s{0.0};
  std::uint64_t traced_codes{0};
  double traced_wall_s{0.0};
  /// Threads that shared the timed wall (shards or clients): the measured
  /// per-frame cost is workers × wall ÷ frames.
  double workers{1.0};
  /// Reference-loop times sampled beside the workload (sample_host_speed).
  std::vector<double> reference_ms;
  /// Frames owed to the consumer plus admissions and readmissions.
  Tally tally;
  std::vector<std::string> failures;
  /// Per-layer counters the workload measures directly (drops, skew, wire
  /// bytes); span-derived layer metrics come from the trace.
  std::map<std::string, double> layer;

  void fail(std::string why) { failures.push_back(std::move(why)); }
};

/// Host speed. The reference host's cores change speed by about 30 % over
/// seconds to minutes with other tenants' load. A fixed arithmetic loop, timed
/// beside the workload on as many threads as it runs, tracks that (its ratio
/// to the workload's own timings held within ~2 % while both drifted ~7 %),
/// and main.cpp reports the end-to-end timings at the loop's nominal speed:
/// the loop's time on the reference host's fast cores.
inline constexpr double kNominalReferenceMs = 1.3;
/// Times the reference loop once on the calling thread [ms].
[[nodiscard]] double reference_loop_ms();
/// Times it at once on every helper thread, into out.reference_ms. Call
/// outside timed regions.
void sample_host_speed(Outcome& out);

/// Runs fn(i) for i in [0, n) on up to `threads` threads; rethrows the first
/// exception after every thread has joined.
void parallel_for(std::size_t n, std::size_t threads, const std::function<void(std::size_t)>& fn);

/// Worker threads for helper work: the fixed shard count, capped at nproc.
[[nodiscard]] std::size_t helper_threads();

/// SplitMix64-style derivation of an input seed from the run seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                        std::uint64_t b = 0) noexcept;

/// The hospital every ward workload serves.
[[nodiscard]] tono::fleet::HospitalConfig hospital_config(std::uint64_t seed);

/// Admits sessions: constructs each on the caller (the hospital's serial
/// admission, span fleet.hospital_admit with one fleet.session_build per
/// session), then calibrates them all in parallel (span fleet.first_batch
/// with one core.calibrate per session) — the work the first batch would do,
/// done here so each admission is timed alone. Appends one admit_ms sample
/// (construction + admit()) per session. Returns the ids.
std::vector<std::uint32_t> admit_all(tono::fleet::HospitalScheduler& hospital,
                                     const std::vector<tono::fleet::SessionConfig>& configs,
                                     Outcome& out);

/// Every session's checkpoint (spans fleet.checkpoint), indexed like `ids`.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> checkpoint_all(
    tono::fleet::HospitalScheduler& hospital, const std::vector<std::uint32_t>& ids);

/// The scheduler's readmission path for `count` blobs, round-robin over the
/// sessions from readmit_ms.size(), in parallel: a fresh session from the
/// same id and config (fleet.session_build) plus restore_checkpoint()
/// (fleet.restore). One readmit_ms sample each; a restored session whose
/// checkpoint differs from its blob fails the run.
void readmit(tono::fleet::HospitalScheduler& hospital, const std::vector<std::uint32_t>& ids,
             const std::vector<std::vector<std::uint8_t>>& blobs, std::size_t count,
             Outcome& out);

/// Restores every steady-state blob into a fresh session and counts those
/// rejected with CheckpointError. Today every one is: StreamingMonitor keeps
/// up to a hop of samples beyond its window between hops, and its restore()
/// refuses a buffer longer than the window. Reported as
/// fleet.restore_rejected, and not a failed operation of the workload.
[[nodiscard]] std::uint64_t count_rejected_restores(
    tono::fleet::HospitalScheduler& hospital, const std::vector<std::uint32_t>& ids,
    const std::vector<std::vector<std::uint8_t>>& blobs);

/// Clean-run gates and failure counters of a ward run: every session still
/// running, no event drops; frames owed vs delivered into the tally.
void check_wards(tono::fleet::HospitalScheduler& hospital, std::uint64_t frames_owed,
                 Outcome& out);

/// Per-shard batch-boundary clock, fed from the batch hooks. Each record is
/// (run index, shard batch index, wall ns); intervals are taken only within
/// one hospital.run() call.
class BatchClock {
 public:
  explicit BatchClock(std::size_t shards) : stamps_(shards) {}
  void stamp(std::size_t shard, std::uint64_t run, std::uint64_t batch);
  /// Wall time between consecutive boundaries on one shard [ms].
  [[nodiscard]] std::vector<double> intervals_ms() const;
  /// Median over batches of the spread between shards finishing it [ms].
  [[nodiscard]] double median_skew_ms() const;

 private:
  struct Stamp {
    std::uint64_t run;
    std::uint64_t batch;
    std::int64_t ns;
  };
  std::vector<std::vector<Stamp>> stamps_;  ///< per shard; each shard's hook writes its own
};

/// Beat staleness of one shard's sessions as the ward sees them at a batch
/// boundary: session stream time minus the ward's last_beat_s. Only samples
/// inside the steady-state window are kept.
void sample_staleness(tono::fleet::HospitalScheduler& hospital, std::size_t shard,
                      std::vector<double>& out);

// ---- The workloads ---------------------------------------------------------
void run_ward_live(const Options& opt, Outcome& out);
void run_gateway_replay(const Options& opt, Outcome& out);
void run_admit_churn(const Options& opt, Outcome& out);

/// Per-frame stage costs from solo probe sessions stepped stage by stage.
struct ProbeResult {
  double bio_us{0.0};
  double physio_per_frame{0.0};
  double wrapper_us{0.0};
  double array_build_ms{0.0};
  double analog_us{0.0};
  double dsp_us{0.0};
  double acquire_us{0.0};
  double monitor_us{0.0};
};
[[nodiscard]] ProbeResult run_probe(const Options& opt);

}  // namespace tonobench
