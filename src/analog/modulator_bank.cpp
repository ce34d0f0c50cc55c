#include "src/analog/modulator_bank.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/common/checkpoint.hpp"

namespace tono::analog {
namespace {

std::vector<ModulatorConfig> derived_configs(const ModulatorConfig& base,
                                             std::size_t lanes) {
  std::vector<ModulatorConfig> configs(lanes, base);
  for (std::size_t k = 1; k < lanes; ++k) {
    // Same mixing Rng::fork applies to its salt; splitmix64 seeding then
    // scrambles whatever structure remains. Plain `seed + k` would hand
    // splitmix sequential states and give overlapping xoshiro states.
    configs[k].seed =
        base.seed ^ (k * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull);
  }
  return configs;
}

}  // namespace

ModulatorBank::ModulatorBank() {
  // Resolve the kernel once; the bank's dispatch is fixed for its lifetime
  // (tests pin a level with simd::force_active_level before construction).
  level_ = simd::active_level();
  kernel_ = nullptr;
#if defined(TONO_SIMD_AVX2)
  if (level_ == simd::Level::kAvx2) kernel_ = &bankkernel::run_packets_avx2;
#endif
#if defined(TONO_SIMD_NEON)
  if (level_ == simd::Level::kNeon) kernel_ = &bankkernel::run_packets_neon;
#endif
  if (kernel_ == nullptr) level_ = simd::Level::kScalar;
  width_ = simd::level_width(level_);

  auto& reg = metrics::Registry::global();
  bank_lanes_gauge_ = &reg.gauge(metrics::names::kModulatorBankLanes);
  simd_width_gauge_ = &reg.gauge(metrics::names::kBankSimdWidth);
  step_block_timer_ = &reg.timer(metrics::names::kBankStepBlock);
  simd_width_gauge_->set(static_cast<double>(width_));
  bind_();
}

ModulatorBank::ModulatorBank(const std::vector<ModulatorConfig>& configs)
    : ModulatorBank() {
  if (configs.empty()) {
    throw std::invalid_argument{"ModulatorBank: need at least one lane"};
  }
  owned_.reserve(configs.size());
  for (const auto& config : configs) owned_.emplace_back(config);
  for (auto& lane : owned_) lanes_.push_back(&lane);
  bind_();
}

ModulatorBank::ModulatorBank(const ModulatorConfig& base, std::size_t lanes)
    : ModulatorBank(derived_configs(base, lanes)) {}

void ModulatorBank::rebind(std::vector<DeltaSigmaModulator*> lanes) {
  if (!owned_.empty()) {
    throw std::logic_error{"ModulatorBank::rebind: the bank owns its lanes"};
  }
  lanes_ = std::move(lanes);
  bind_();
}

void ModulatorBank::bind_() {
  const std::size_t lanes = lanes_.size();
  inputs_.assign(lanes, {});
  enabled_.assign(lanes, 1);
  packets_dirty_ = true;
  shared_raw_.resize(lanes * 4 * kFrame);
  flicker_raw_.resize(lanes * kFrame);
  fill_rngs_.reserve(lanes);
  fill_dests_.reserve(lanes);
  fill_ns_.reserve(lanes);
  fill_lanes_.reserve(lanes);
  bank_lanes_gauge_->set(static_cast<double>(lanes));
}

void ModulatorBank::rebuild_packets_() {
  packets_.clear();
  plans_.clear();
  views_.clear();
  lane_packet_.assign(lanes_.size(), kNoPacket);
  lane_slot_.assign(lanes_.size(), 0);
  packets_dirty_ = false;
  // Group enabled lanes by control structure, preserving lane order within
  // each group, then cut each group into full-width packets; what is left
  // over runs as width-1 packets. Group order follows first appearance, so
  // the layout is deterministic.
  std::vector<std::size_t> singles;
  if (width_ > 1) {
    std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> groups;
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      if (!enabled_[k]) continue;
      const std::uint32_t key = lanes_[k]->kernel_branches_();
      auto it = std::find_if(groups.begin(), groups.end(),
                             [key](const auto& g) { return g.first == key; });
      if (it == groups.end()) {
        groups.push_back({key, {k}});
      } else {
        it->second.push_back(k);
      }
    }
    for (const auto& [key, members] : groups) {
      std::size_t i = 0;
      for (; i + width_ <= members.size(); i += width_) {
        Packet p;
        p.width = width_;
        for (std::size_t w = 0; w < width_; ++w) {
          const std::size_t lk = members[i + w];
          p.lane[w] = lk;
          lane_packet_[lk] = packets_.size();
          lane_slot_[lk] = w;
        }
        packets_.push_back(p);
        plans_.emplace_back();
        plans_.back().branches = key;
      }
      for (; i < members.size(); ++i) singles.push_back(members[i]);
    }
    std::sort(singles.begin(), singles.end());
  } else {
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      if (enabled_[k]) singles.push_back(k);
    }
  }
  for (const std::size_t k : singles) {
    Packet p;
    p.lane[0] = k;
    packets_.push_back(p);
  }

  views_.resize(packets_.size());
  for (std::size_t pi = 0; pi < packets_.size(); ++pi) {
    Packet& p = packets_[pi];
    if (pi >= plans_.size()) {
      views_[pi] = lanes_[p.lane[0]]->solo_view_(p.slots, p.bits.data());
      continue;
    }
    TransposedPlans& t = plans_[pi];
    t.packet = pi;
    t.owner = this;
    bankkernel::PacketView& v = views_[pi];
    v.width = width_;
    v.slots = &p.slots;
    v.ktc = t.ktc.data();
    v.ref = t.ref.data();
    v.op1 = t.op1.data();
    v.fl1 = t.fl1.data();
    v.op2 = t.op2.data();
    v.fl2 = t.fl2.data();
    v.comp = t.comp.data();
    v.branches = t.branches;
    v.bits = p.bits.data();
    v.ctx = &t;
    v.settle_fn = &ModulatorBank::settle_cb_;
    v.metastable_fn = &ModulatorBank::metastable_cb_;
  }
}

void ModulatorBank::load_packet_state_() {
  for (Packet& p : packets_) {
    for (std::size_t w = 0; w < p.width; ++w) {
      lanes_[p.lane[w]]->load_kernel_slot_(p.slots, w, inputs_[p.lane[w]].u);
    }
  }
}

void ModulatorBank::store_packet_state_() {
  for (const Packet& p : packets_) {
    for (std::size_t w = 0; w < p.width; ++w) {
      lanes_[p.lane[w]]->store_kernel_slot_(p.slots, w);
    }
  }
}

void ModulatorBank::fill_lane_plans_(std::size_t frame) {
  // Each enabled lane's fill_noise_plan_, with every source group's Gaussian
  // generation batched across lanes through Rng::fill_gaussian_multi. The
  // streams are distinct objects, so batching changes neither any stream's
  // output nor its end state (multi == per-stream fill_gaussian, pinned by
  // test_rng.cpp), and the groups run in the same per-lane order as the
  // scalar helper. Zero-length fills are skipped on both paths (no-ops).
  const std::size_t K = lanes_.size();

  // Shared white stream: kT/C + reference + op-amp noise, interleaved.
  fill_rngs_.clear();
  fill_dests_.clear();
  fill_ns_.clear();
  fill_lanes_.clear();
  for (std::size_t k = 0; k < K; ++k) {
    if (!enabled_[k]) continue;
    const std::size_t count =
        frame * lanes_[k]->shared_draws_per_clock_();
    if (count == 0) continue;
    fill_rngs_.push_back(&lanes_[k]->rng_);
    fill_dests_.push_back(shared_raw_.data() + k * 4 * kFrame);
    fill_ns_.push_back(count);
    fill_lanes_.push_back(k);
  }
  Rng::fill_gaussian_multi(fill_rngs_.data(), fill_dests_.data(),
                           fill_ns_.data(), fill_rngs_.size());
  // Vector-packet lanes skip the NoisePlan arrays: fuse_shared_packet_plans_
  // writes their scaled values straight into the transposed buffers. Only
  // width-1 lanes (whose views read plan_ in place) de-interleave into it.
  for (std::size_t j = 0; j < fill_lanes_.size(); ++j) {
    const std::size_t k = fill_lanes_[j];
    if (lane_packet_[k] != kNoPacket) continue;
    lanes_[k]->build_shared_plan_(frame, inputs_[k].sigma_u, fill_dests_[j],
                                 lanes_[k]->own_shared_dest_());
  }
  fuse_shared_packet_plans_(frame);

  // Flicker streams: one standard normal per sample; the Voss-McCartney row
  // replay happens per lane from the batch-drawn values.
  for (int stage = 1; stage <= 2; ++stage) {
    fill_rngs_.clear();
    fill_dests_.clear();
    fill_ns_.clear();
    fill_lanes_.clear();
    for (std::size_t k = 0; k < K; ++k) {
      if (!enabled_[k]) continue;
      DeltaSigmaModulator& lane = *lanes_[k];
      const std::uint32_t on = stage == 1 ? bankkernel::kFl1 : bankkernel::kFl2;
      if ((lane.kernel_branches_() & on) == 0) continue;
      PinkNoise& flicker = stage == 1 ? lane.flicker1_ : lane.flicker2_;
      fill_rngs_.push_back(&flicker.noise_stream());
      fill_dests_.push_back(flicker_raw_.data() + k * kFrame);
      fill_ns_.push_back(frame);
      fill_lanes_.push_back(k);
    }
    Rng::fill_gaussian_multi(fill_rngs_.data(), fill_dests_.data(),
                             fill_ns_.data(), fill_rngs_.size());
    for (std::size_t j = 0; j < fill_lanes_.size(); ++j) {
      DeltaSigmaModulator& lane = *lanes_[fill_lanes_[j]];
      PinkNoise& flicker = stage == 1 ? lane.flicker1_ : lane.flicker2_;
      auto& dest = stage == 1 ? lane.plan_.flick1 : lane.plan_.flick2;
      flicker.fill_next_from(fill_dests_[j], dest.data(), frame);
      lane.apply_flicker_scale_(stage, frame);
    }
  }

  // Comparator noise: plan_external does plan()'s bookkeeping (snapshot for
  // the metastable resync) and hands back the stream; the standard normals
  // are batch-drawn straight into each lane's plan buffer, then mapped with
  // the same affine fill_gaussian(…, 0.0, σ) applies.
  fill_rngs_.clear();
  fill_dests_.clear();
  fill_ns_.clear();
  fill_lanes_.clear();
  for (std::size_t k = 0; k < K; ++k) {
    if (!enabled_[k]) continue;
    Rng* stream =
        lanes_[k]->comparator_.plan_external(lanes_[k]->plan_.comp.data(), frame);
    if (stream == nullptr) continue;  // noise off: nothing pre-drawn
    fill_rngs_.push_back(stream);
    fill_dests_.push_back(lanes_[k]->plan_.comp.data());
    fill_ns_.push_back(frame);
    fill_lanes_.push_back(k);
  }
  Rng::fill_gaussian_multi(fill_rngs_.data(), fill_dests_.data(),
                           fill_ns_.data(), fill_rngs_.size());
  for (std::size_t j = 0; j < fill_lanes_.size(); ++j) {
    const std::size_t k = fill_lanes_[j];
    const double sigma = lanes_[k]->comparator_.config().noise_vrms;
    double* buf = fill_dests_[j];
    if (lane_packet_[k] != kNoPacket) {
      // Scale in place (the metastable resync regenerates tails from
      // plan_.comp) and write the transposed kernel copy in the same pass.
      double* t = plans_[lane_packet_[k]].comp.data() + lane_slot_[k];
      const std::size_t w_n = width_;
      for (std::size_t i = 0; i < frame; ++i) {
        const double x = 0.0 + sigma * buf[i];
        buf[i] = x;
        t[i * w_n] = x;
      }
    } else {
      for (std::size_t i = 0; i < frame; ++i) buf[i] = 0.0 + sigma * buf[i];
    }
  }

  for (std::size_t k = 0; k < K; ++k) {
    if (enabled_[k]) lanes_[k]->noise_plan_fills_metric_->add(1);
  }
}

void ModulatorBank::fuse_shared_packet_plans_(std::size_t frame) {
  // build_shared_plan_ with the [clock] → [clock][lane] transpose folded in
  // (it writes lane slot w at stride width_), so each value is computed and
  // stored exactly once, bit-identical to the two-pass path it replaces.
  using bankkernel::kSharedSources;
  const std::size_t w_n = width_;
  for (TransposedPlans& t : plans_) {
    const Packet& p = packets_[t.packet];
    if ((t.branches & kSharedSources) == 0) continue;
#if defined(TONO_SIMD_AVX2)
    if (level_ == simd::Level::kAvx2 &&
        (t.branches & kSharedSources) == kSharedSources) {
      bankkernel::SharedFuseJob job;
      for (std::size_t w = 0; w < w_n; ++w) {
        const std::size_t lk = p.lane[w];
        const DeltaSigmaModulator& lane = *lanes_[lk];
        job.raw[w] = shared_raw_.data() + lk * 4 * kFrame;
        job.sigma_u[w] = inputs_[lk].sigma_u;
        job.ref_vrms[w] = lane.config_.ref_noise_vrms;
        job.vref[w] = lane.config_.vref_v;
        job.op1_vrms[w] = lane.config_.opamp1.noise_vrms;
        job.op2_vrms[w] = lane.config_.opamp2.noise_vrms;
        job.scale[w] = lane.config_.loop.state_scale_v;
      }
      job.ktc = t.ktc.data();
      job.ref = t.ref.data();
      job.op1 = t.op1.data();
      job.op2 = t.op2.data();
      bankkernel::fuse_shared4_avx2(job, frame);
      continue;
    }
#endif
    for (std::size_t w = 0; w < w_n; ++w) {
      const std::size_t lk = p.lane[w];
      lanes_[lk]->build_shared_plan_(
          frame, inputs_[lk].sigma_u, shared_raw_.data() + lk * 4 * kFrame,
          {t.ktc.data() + w, t.ref.data() + w, t.op1.data() + w,
           t.op2.data() + w, w_n});
    }
  }
}

void ModulatorBank::transpose_packet_plans_(std::size_t frame) {
  // [clock] → [clock][lane] with stride = width_, for the plan-sourced
  // arrays that still materialize per lane (the flicker stages, whose
  // Voss-McCartney replay is inherently per-lane). Shared sources and
  // comparator noise are written transposed at generation time. Disabled
  // sources skip entirely (their view pointers are null, like the scalar
  // path's untaken branches).
  const std::size_t w_n = width_;
  for (TransposedPlans& t : plans_) {
    const bool fl1 = (t.branches & bankkernel::kFl1) != 0;
    const bool fl2 = (t.branches & bankkernel::kFl2) != 0;
    if (!fl1 && !fl2) continue;
    const Packet& p = packets_[t.packet];
    for (std::size_t w = 0; w < w_n; ++w) {
      const auto& plan = lanes_[p.lane[w]]->plan_;
      if (fl1) {
        for (std::size_t i = 0; i < frame; ++i) t.fl1[i * w_n + w] = plan.flick1[i];
      }
      if (fl2) {
        for (std::size_t i = 0; i < frame; ++i) t.fl2[i * w_n + w] = plan.flick2[i];
      }
    }
  }
}

double ModulatorBank::settle_cb_(void* ctx, std::size_t slot, int stage,
                                 double v) {
  const TransposedPlans& t = *static_cast<const TransposedPlans*>(ctx);
  DeltaSigmaModulator& lane =
      *t.owner->lanes_[t.owner->packets_[t.packet].lane[slot]];
  return DeltaSigmaModulator::settle_escape_(&lane, 0, stage, v);
}

double ModulatorBank::metastable_cb_(void* ctx, std::size_t slot,
                                     std::size_t clock) {
  TransposedPlans& t = *static_cast<TransposedPlans*>(ctx);
  DeltaSigmaModulator& lane =
      *t.owner->lanes_[t.owner->packets_[t.packet].lane[slot]];
  const double decision = DeltaSigmaModulator::metastable_escape_(&lane, 0, clock);
  if ((t.branches & bankkernel::kComp) != 0) {
    // The resync regenerated the lane's linear plan tail (clock+1 …); the
    // kernel reads the transposed copy, so refresh it.
    const std::size_t w_n = t.owner->width_;
    for (std::size_t i = clock + 1; i < t.frame_len; ++i) {
      t.comp[i * w_n + slot] = lane.plan_.comp[i];
    }
  }
  return decision;
}

void ModulatorBank::step_capacitive_block(const double* c_sense_f,
                                          const double* c_ref_f, int* bits_out,
                                          std::size_t n) {
  metrics::TraceSpan span(*step_block_timer_);
  if (n == 0 || lanes_.empty()) return;
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (enabled_[k]) {
      inputs_[k] = lanes_[k]->capacitive_input_(c_sense_f[k], c_ref_f[k]);
    }
  }
  if (packets_dirty_) rebuild_packets_();
  load_packet_state_();
  std::size_t done = 0;
  while (done < n) {
    const std::size_t frame = std::min<std::size_t>(n - done, kFrame);
    fill_lane_plans_(frame);
    transpose_packet_plans_(frame);
    for (TransposedPlans& t : plans_) t.frame_len = frame;
    for (Packet& p : packets_) {
      for (std::size_t w = 0; w < p.width; ++w) {
        p.bits[w] = bits_out + p.lane[w] * n + done;
      }
    }
    // Vector packets, then the width-1 ones; each call is clock-outer /
    // packet-inner, so the independent lanes' chains overlap in the core.
    const std::size_t n_wide = plans_.size();
    if (n_wide > 0) kernel_(views_.data(), n_wide, frame);
    if (views_.size() > n_wide) {
      bankkernel::run_packets_scalar(views_.data() + n_wide,
                                     views_.size() - n_wide, frame);
    }
    done += frame;
  }
  store_packet_state_();
}

void ModulatorBank::step_capacitive_block(const double* c_sense_f, int* bits_out,
                                          std::size_t n) {
  // Mirror DeltaSigmaModulator::step_capacitive(c_sense): the reference
  // branch is each lane's configured on-chip capacitor with its die mismatch.
  std::vector<double> c_ref(lanes_.size());
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    c_ref[k] = lanes_[k]->config_.c_ref_f * lanes_[k]->ref_mismatch_;
  }
  step_capacitive_block(c_sense_f, c_ref.data(), bits_out, n);
}

void ModulatorBank::set_lane_enabled(std::size_t k, bool enabled) {
  if (k >= lanes_.size()) {
    throw std::out_of_range{"ModulatorBank::set_lane_enabled: bad lane"};
  }
  const std::uint8_t v = enabled ? 1 : 0;
  if (enabled_[k] != v) {
    enabled_[k] = v;
    packets_dirty_ = true;
  }
}

std::size_t ModulatorBank::enabled_lanes() const noexcept {
  std::size_t count = 0;
  for (const std::uint8_t e : enabled_) count += e;
  return count;
}

void ModulatorBank::reset() {
  for (DeltaSigmaModulator* lane : lanes_) lane->reset();
}

void ModulatorBank::serialize(CheckpointWriter& out) const {
  out.section("modulator_bank");
  out.size(lanes_.size());
  for (const std::uint8_t e : enabled_) out.u8(e);
  for (const DeltaSigmaModulator* lane : lanes_) lane->serialize(out);
}

void ModulatorBank::restore(CheckpointReader& in) {
  in.section("modulator_bank");
  const std::size_t lanes = in.size();
  if (lanes != lanes_.size()) {
    throw CheckpointError{"ModulatorBank checkpoint lane count " +
                          std::to_string(lanes) + " != configured " +
                          std::to_string(lanes_.size())};
  }
  for (auto& e : enabled_) {
    const std::uint8_t v = in.u8();
    if (v > 1) {
      throw CheckpointError{"ModulatorBank checkpoint enable flag corrupt"};
    }
    e = v;
  }
  for (DeltaSigmaModulator* lane : lanes_) lane->restore(in);
  packets_dirty_ = true;
}

}  // namespace tono::analog
