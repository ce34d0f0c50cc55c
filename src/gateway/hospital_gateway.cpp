#include "src/gateway/hospital_gateway.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

namespace tono::gateway {

/// One wire per shard: its transports, both gateway ends, the shard's
/// session ids and the replay feeder's cursor. Shards share nothing, so each
/// driver thread pumps only its own demux.
struct HospitalGateway::Shard {
  std::size_t index{0};
  std::unique_ptr<Transport> tx;  ///< mux side; loopback: both sides
  std::unique_ptr<Transport> rx;  ///< demux side (TCP only)
  std::unique_ptr<GatewayMux> mux;
  std::unique_ptr<GatewayDemux> demux;
  std::vector<std::uint32_t> session_ids;
  std::uint64_t delivery_drops{0};
  std::vector<std::unique_ptr<SessionReplayer>> replayers;  ///< replay: per session
  std::uint64_t batches{0};  ///< paced replay: batches fed so far
  std::chrono::steady_clock::time_point start{};
};

HospitalGateway::HospitalGateway(fleet::HospitalScheduler& hospital,
                                 HospitalGatewayConfig config)
    : hospital_(hospital), config_(std::move(config)) {
  if (config_.wire == WireKind::kTcp) {
    listener_ = std::make_unique<TcpListener>(config_.listen_host, config_.listen_port);
  }
  if (!config_.record_dir.empty()) {
    recorder_ = std::make_unique<SessionRecorder>(config_.record_dir);
  }
  if (!config_.replay_dir.empty()) {
    const std::size_t fps = hospital_.config().frames_per_step;
    std::uint64_t min_codes = std::numeric_limits<std::uint64_t>::max();
    for (const std::uint32_t id : SessionReplayer::list_sessions(config_.replay_dir)) {
      const auto totals = SessionReplayer::scan(config_.replay_dir, id);
      min_codes = std::min(min_codes, totals.codes);
      horizon_.torn = horizon_.torn || totals.torn;
    }
    horizon_.codes_per_session =
        min_codes == std::numeric_limits<std::uint64_t>::max() ? 0
                                                                : (min_codes / fps) * fps;
  }
  for (std::size_t s = 0; s < hospital_.shards(); ++s) {
    Shard& shard = *shards_.emplace_back(std::make_unique<Shard>());
    shard.index = s;
    if (listener_) {
      // Connect then accept: pairs match in order because the listener
      // backlog queues the pending connection.
      shard.tx = TcpTransport::connect(config_.listen_host, listener_->port());
      shard.rx = listener_->accept();
    } else {
      shard.tx = std::make_unique<LoopbackTransport>(config_.wire_capacity_bytes);
    }
    shard.mux = std::make_unique<GatewayMux>(*shard.tx, config_.gateway);
    shard.demux = std::make_unique<GatewayDemux>(shard.rx ? *shard.rx : *shard.tx);
    shard.demux->on_codes([this, &shard](std::uint32_t id,
                                         std::span<const std::int16_t> codes) {
      if (tap_) tap_(id, codes);
      fleet::PatientSession* session = hospital_.shard(shard.index).session(id);
      if (session == nullptr) {
        ++shard.delivery_drops;
        return;
      }
      try {
        session->ingest_codes(codes);
      } catch (const std::exception&) {
        ++shard.delivery_drops;  // e.g. codes in flight for a just-quarantined session
      }
    });
    if (recorder_) {
      shard.demux->on_envelope([this](std::uint32_t id,
                                      std::span<const std::uint8_t> frame,
                                      std::uint16_t n_codes) {
        recorder_->record(id, frame, n_codes);
      });
    }
  }
  // Installed last, once nothing above can throw: no hook outlives a failed
  // construction.
  for (const auto& owned : shards_) {
    Shard* shard = owned.get();
    hospital_.shard(shard->index).set_batch_hook([this, shard] { on_batch_(*shard); });
  }
}

HospitalGateway::~HospitalGateway() {
  // The hooks point into this object; a later run() must not call them.
  for (std::size_t s = 0; s < hospital_.shards(); ++s) {
    hospital_.shard(s).set_batch_hook({});
  }
}

std::uint32_t HospitalGateway::admit(fleet::SessionConfig config, std::string label) {
  // The hospital gives the next session id == admission index, on shard
  // id % shards.
  const auto next_id = static_cast<std::uint32_t>(hospital_.size());
  Shard& shard = *shards_[hospital_.shard_of(next_id)];
  const bool replay = !config_.replay_dir.empty();
  if (!replay && !listener_ && config_.gateway.wire_policy == BackpressurePolicy::kBlock) {
    const std::size_t fps = hospital_.config().frames_per_step;
    const std::size_t max_frame = core::kMaxSamplesPerFrame;
    const std::size_t batch_bytes =
        (shard.session_ids.size() + 1) * ((fps + max_frame - 1) / max_frame) *
        envelope_wire_bytes(core::frame_wire_bytes(std::min(fps, max_frame)));
    if (config_.wire_capacity_bytes < batch_bytes) {
      throw std::invalid_argument{
          "HospitalGateway: a " + std::to_string(config_.wire_capacity_bytes) +
          " B blocking loopback cannot hold one shard batch (" +
          std::to_string(batch_bytes) + " B)"};
    }
  }
  if (replay) {
    config.external_ingest = true;  // codes arrive only through the wire
  } else {
    GatewayMux* mux = shard.mux.get();
    config.code_sink = [mux](std::uint32_t id, std::span<const std::int16_t> codes) {
      mux->send(id, codes);
    };
  }
  const std::uint32_t id = hospital_.admit(std::move(config), std::move(label));
  shard.session_ids.push_back(id);
  shard.mux->open_channel(id);
  shard.demux->open_channel(id);
  if (recorder_) recorder_->open_session(id);
  if (replay) {
    shard.replayers.push_back(std::make_unique<SessionReplayer>(config_.replay_dir, id));
  }
  return id;
}

void HospitalGateway::on_batch_(Shard& shard) const {
  // Live, every batch's envelopes are on the wire when the production
  // barrier lands (code_sink runs inside step()). A replay instead feeds
  // each session one batch of recorded frames here, up to the horizon,
  // pumping behind every envelope: the loopback queue never holds more than
  // one, so a blocking wire policy cannot wedge the hook.
  const std::size_t fps = hospital_.config().frames_per_step;
  std::vector<std::uint8_t> frame;
  std::uint16_t n_codes = 0;
  for (const auto& replayer : shard.replayers) {
    const std::uint64_t fed = std::min(horizon_.codes_per_session, replayer->codes_read());
    std::uint64_t quota = std::min<std::uint64_t>(fps, horizon_.codes_per_session - fed);
    while (quota > 0 && replayer->next(frame, n_codes)) {
      shard.mux->send_encoded(replayer->session_id(), frame, n_codes);
      quota -= std::min<std::uint64_t>(quota, n_codes);
      if (!listener_) (void)shard.demux->pump();
    }
  }
  // One pump drains the batch; TCP also waits for the kernel to hand over
  // everything the mux sent.
  if (listener_) {
    (void)shard.demux->pump_until_bytes(shard.mux->bytes_sent());
  } else {
    (void)shard.demux->pump();
  }
  if (shard.replayers.empty() || config_.replay_speed <= 0.0) return;
  // Paced replay: batch k ends at stream time (k+1)·fps ms; sleep until that
  // point scaled by the speed multiple.
  if (shard.batches++ == 0) shard.start = std::chrono::steady_clock::now();
  const double target_s =
      static_cast<double>(shard.batches * fps) / 1000.0 / config_.replay_speed;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - shard.start;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::max(0.0, target_s - elapsed.count())));
}

std::uint16_t HospitalGateway::listen_port() const noexcept {
  return listener_ ? listener_->port() : 0;
}

WireTotals HospitalGateway::totals() const {
  WireTotals t;
  for (const auto& shard : shards_) {
    const GatewayMux& mux = *shard->mux;
    const GatewayDemux& demux = *shard->demux;
    t.frames_muxed += mux.frames_muxed();
    t.codes_sent += mux.codes_sent();
    t.bytes_sent += mux.bytes_sent();
    t.envelopes_dropped += mux.envelopes_dropped();
    t.codes_dropped += mux.codes_dropped();
    t.backpressure_blocks += mux.backpressure_blocks();
    t.crc_errors += demux.crc_errors();
    t.resync_bytes += demux.resync_bytes();
    for (const std::uint32_t id : shard->session_ids) {
      t.lost_envelopes += demux.channel_stats(id).lost_envelopes;
    }
    t.delivery_drops += shard->delivery_drops;
  }
  return t;
}

bool HospitalGateway::finalize_recording(double duration_s) {
  if (recorder_ == nullptr) return false;
  RecordMeta meta;
  meta.base_seed = hospital_.config().base_seed;
  meta.sessions = hospital_.size();
  meta.frames_per_step = hospital_.config().frames_per_step;
  meta.duration_s = duration_s;
  return recorder_->finalize(meta);
}

}  // namespace tono::gateway
