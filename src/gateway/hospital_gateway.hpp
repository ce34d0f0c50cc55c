// hospital_gateway.hpp — a sharded hospital fed through the gateway wire.
//
// The one place that wires HospitalScheduler shards to the streaming
// gateway (docs/GATEWAY.md): per shard a transport pair (in-process loopback,
// or a TCP connection through a localhost listener), the GatewayMux its
// sessions publish into and the GatewayDemux that delivers into the session
// rings at each batch barrier. Live runs produce through the wire and can
// record every consumed envelope; a replay feeds a recording back in
// (original frame sequence numbers preserved) up to a floor-aligned horizon,
// flat out or paced against wall time. `ward_server --transport` and the
// gateway and replay tests all run this code.
//
// Determinism contract: a live hospital fed through either wire writes the
// snapshot bytes of the same hospital ingesting directly, and a replay
// delivers the byte-identical code stream the recorded run consumed.
//
// Threading contract: construct after the hospital, admit() every session
// through the gateway, then hospital.run() while the gateway lives (the
// batch hooks and code sinks point into it). Each shard's hook pumps only
// its own wire, on its driver thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/fleet/hospital_scheduler.hpp"
#include "src/gateway/gateway.hpp"
#include "src/gateway/recorder.hpp"
#include "src/gateway/tcp_transport.hpp"

namespace tono::gateway {

enum class WireKind : std::uint8_t { kLoopback, kTcp };

struct HospitalGatewayConfig {
  WireKind wire{WireKind::kLoopback};
  std::string listen_host{"127.0.0.1"};  ///< TCP listener address
  std::uint16_t listen_port{0};          ///< 0 = ephemeral
  std::size_t wire_capacity_bytes{1 << 20};  ///< loopback queue per shard
  GatewayConfig gateway{};
  /// Live mode: record every consumed envelope into this directory.
  std::string record_dir{};
  /// Non-empty: replay this recording instead of producing live.
  std::string replay_dir{};
  /// Replay pacing, a multiple of the 1 kS/s hardware rate; 0 = flat out.
  double replay_speed{0.0};
};

/// How far a recording replays: the shortest session stream (a killed
/// recording leaves unequal tails) floor-aligned to whole batches, so every
/// session crosses the finish line on the same batch.
struct ReplayHorizon {
  std::uint64_t codes_per_session{0};
  bool torn{false};  ///< some stream ended in a torn or corrupt record

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(codes_per_session) / 1000.0;  // 1 kS/s
  }
};

/// Every shard's wire counters, summed. `delivery_drops` counts delivered
/// codes no session took (unknown id, or a session that threw on ingest —
/// e.g. codes in flight for a just-quarantined one).
struct WireTotals {
  std::uint64_t frames_muxed{0}, codes_sent{0}, bytes_sent{0};
  std::uint64_t envelopes_dropped{0}, codes_dropped{0}, backpressure_blocks{0};
  std::uint64_t crc_errors{0}, resync_bytes{0}, lost_envelopes{0};
  std::uint64_t delivery_drops{0};
};

class HospitalGateway {
 public:
  using DeliveryTap =
      std::function<void(std::uint32_t id, std::span<const std::int16_t> codes)>;

  /// Builds one wire per hospital shard, installs every shard's batch hook
  /// and, for a replay, scans the recording's horizon. Throws TransportError
  /// when a TCP wire cannot be set up and RecorderError when the record
  /// directory cannot be created.
  HospitalGateway(fleet::HospitalScheduler& hospital, HospitalGatewayConfig config);
  /// Uninstalls the batch hooks; the hospital must still be alive.
  ~HospitalGateway();

  HospitalGateway(const HospitalGateway&) = delete;
  HospitalGateway& operator=(const HospitalGateway&) = delete;

  /// Admits a session whose codes travel the wire — live: its batch codes
  /// go to its shard's mux; replay: external ingest, fed from its recorded
  /// stream — and opens its channel (and record file). Returns its id.
  /// Throws std::invalid_argument, admitting nothing, when a live blocking
  /// loopback could not hold its shard's whole batch: nothing drains the
  /// wire between barriers, so the producers would spin forever.
  std::uint32_t admit(fleet::SessionConfig config, std::string label = "");

  /// Sees every delivered code batch before its session does, on the
  /// shard's driver thread. Set before run().
  void set_delivery_tap(DeliveryTap tap) { tap_ = std::move(tap); }

  /// The replay feeds each session this far (zero when live).
  [[nodiscard]] const ReplayHorizon& replay_horizon() const noexcept {
    return horizon_;
  }
  /// The TCP listener's bound port (0 on loopback).
  [[nodiscard]] std::uint16_t listen_port() const noexcept;
  [[nodiscard]] WireTotals totals() const;
  /// Null unless recording.
  [[nodiscard]] const SessionRecorder* recorder() const noexcept {
    return recorder_.get();
  }
  /// Writes the recording's index — the hospital's seed, session count and
  /// batch size plus `duration_s` — after run(); false on an I/O failure.
  [[nodiscard]] bool finalize_recording(double duration_s);

 private:
  struct Shard;

  /// Each shard's batch hook: feed a replay batch, then pump the wire.
  void on_batch_(Shard& shard) const;

  fleet::HospitalScheduler& hospital_;
  HospitalGatewayConfig config_;
  std::unique_ptr<TcpListener> listener_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<SessionRecorder> recorder_;
  ReplayHorizon horizon_;
  DeliveryTap tap_;
};

}  // namespace tono::gateway
