// modulator_bank.hpp — K independent ΔΣ modulators stepped in lockstep,
// vectorized across lanes.
//
// The paper's sensor is a 2×2 array (§3: four electrodes over the pressure
// membrane), and characterization sweeps run hundreds of independent trials;
// both want "step K modulators over the same clock window" as one operation.
// The bank exploits that the lanes are *independent*: their per-clock loop
// recurrences are K parallel dependency chains of elementwise IEEE
// arithmetic, which map directly onto SIMD lanes. At construction the bank
// resolves a kernel via simd::active_level() (AVX2 ×4, NEON ×2, or scalar —
// overridable with the TONO_SIMD env knob) and groups lanes into width-W
// *packets* of matching control structure; per frame it batch-generates
// every packet's noise (one Rng::fill_gaussian_multi per source group),
// transposes the plans to [clock][lane], and runs the width-W step kernel
// (bank_kernel.hpp). Lanes that don't fill a packet — remainders,
// heterogeneous structures, or banks built under a scalar dispatch — run as
// width-1 packets through the same kernel, reading their own noise plans in
// place exactly as a solo DeltaSigmaModulator block step does. One kernel at
// widths 1, 2 and 4; step_normalized is the reference they all match.
//
// Lane semantics — the contract tests pin:
//   * each lane is a full DeltaSigmaModulator with its own config, seed and
//     noise streams; lanes never share draws;
//   * lane k's bitstream is bit-identical to running that modulator alone
//     through step_capacitive_block (and therefore to n scalar
//     step_capacitive calls) — the bank changes scheduling, never values.
//     This holds under EVERY dispatch level: every width runs the one
//     kernel, whose ops are all elementwise IEEE, and the two
//     transcendental paths (op-amp partial settling, comparator
//     metastability) drop to per-lane scalar callbacks;
//   * outputs are lane-major: bits_out[k * n + i] is lane k, clock i;
//   * a disabled lane (set_lane_enabled — element fault masking) is frozen:
//     not stepped, no noise drawn, its bits region untouched. Re-enabling
//     resumes bit-identically from the frozen state.
//
// Owned and borrowed lanes. A lane is a pointer to a DeltaSigmaModulator.
// The config constructors build the modulators inside the bank and point
// at them (ArrayAcquisition, sweeps). A borrowing bank points at modulators
// owned elsewhere — a fleet shard steps its sessions' pipeline converters
// through one bank (FleetScheduler). Either way the lane objects stay
// authoritative between blocks: step_capacitive_block loads their state
// into kernel slots at block start and stores it back at block end, so a
// lane may be stepped on its own (DeltaSigmaModulator::step_capacitive,
// step_capacitive_block) between bank steps while it is disabled.
//
// Rebinding rules for a borrowing bank: rebind() whenever the set or order
// of lanes changes, and before any borrowed modulator is destroyed or
// replaced (a stale lane pointer is a use-after-free). rebind() enables
// every lane and rebuilds the packet layout on the next step. The bank
// never caches lane state across blocks, so rebinding changes no values.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/analog/bank_kernel.hpp"
#include "src/analog/modulator.hpp"
#include "src/common/metrics.hpp"
#include "src/common/simd.hpp"

namespace tono::analog {

class ModulatorBank {
 public:
  /// One lane per config. Lanes may differ in every respect (seed, caps,
  /// noise settings) — heterogeneous banks are how sweeps use this.
  explicit ModulatorBank(const std::vector<ModulatorConfig>& configs);

  /// Convenience: K lanes sharing `base`, with per-lane seeds decorrelated
  /// by the same golden-ratio salting Rng::fork uses. Lane 0 keeps
  /// `base.seed` unchanged, so lane 0 reproduces the single-modulator run.
  ModulatorBank(const ModulatorConfig& base, std::size_t lanes);

  /// A borrowing bank, bound to no lanes yet; see rebind().
  ModulatorBank();

  ModulatorBank(const ModulatorBank&) = delete;
  ModulatorBank& operator=(const ModulatorBank&) = delete;

  /// Re-points a borrowing bank at `lanes` (owned elsewhere; they must
  /// outlive the binding), in that lane order, all enabled. Throws
  /// std::logic_error on a bank that owns its lanes.
  void rebind(std::vector<DeltaSigmaModulator*> lanes);
  /// The lanes in bank order (what a borrowing bank is bound to).
  [[nodiscard]] const std::vector<DeltaSigmaModulator*>& lane_pointers() const noexcept {
    return lanes_;
  }

  /// Runs `n` clocks on every enabled lane in capacitive mode. `c_sense_f` /
  /// `c_ref_f` hold one capacitance per lane; `bits_out` has room for
  /// lanes()·n ints and is filled lane-major (lane k at bits_out[k*n]).
  /// Disabled lanes' regions are left untouched.
  void step_capacitive_block(const double* c_sense_f, const double* c_ref_f,
                             int* bits_out, std::size_t n);

  /// Per-lane variant against each lane's configured on-chip reference
  /// branch (mirrors DeltaSigmaModulator::step_capacitive(c_sense)).
  void step_capacitive_block(const double* c_sense_f, int* bits_out,
                             std::size_t n);

  void reset();

  /// Fault masking (a dead array element mid-run): a disabled lane drops out
  /// of its packet — the survivors regroup into new packets — and is frozen
  /// entirely: no state updates, no noise-stream draws, no output. This is
  /// deliberately NOT "keep converting and discard": a faulted element's
  /// modulator has nothing physical to convert, and freezing its streams
  /// keeps the lane resumable bit-identically if the fault is cleared.
  void set_lane_enabled(std::size_t k, bool enabled);
  [[nodiscard]] bool lane_enabled(std::size_t k) const {
    return enabled_.at(k) != 0;
  }
  [[nodiscard]] std::size_t enabled_lanes() const noexcept;

  /// Checkpointing: every lane's full modulator state plus the enable mask,
  /// in lane order. The lane count is config-derived and verified on
  /// restore; the packet grouping is layout, rebuilt lazily.
  void serialize(CheckpointWriter& out) const;
  void restore(CheckpointReader& in);

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_.size(); }
  [[nodiscard]] DeltaSigmaModulator& lane(std::size_t k) { return *lanes_[k]; }
  [[nodiscard]] const DeltaSigmaModulator& lane(std::size_t k) const {
    return *lanes_[k];
  }

  /// The SIMD dispatch this bank resolved at construction (fixed for its
  /// lifetime; simd::force_active_level before construction to override).
  [[nodiscard]] simd::Level simd_level() const noexcept { return level_; }
  /// Widest kernel lane width (1 = every lane a width-1 packet).
  [[nodiscard]] std::size_t simd_width() const noexcept { return width_; }

 private:
  static constexpr std::size_t kFrame = DeltaSigmaModulator::NoisePlan::kFrame;
  static constexpr std::size_t kMaxW = bankkernel::kMaxWidth;

  /// Lanes the kernel steps together: `width` == width_ for a vector
  /// packet, 1 for a lane stepped alone. Lanes in one packet share a
  /// control structure (DeltaSigmaModulator::kernel_branches_); their
  /// values (seeds, capacitances, magnitudes) are free to differ.
  struct Packet {
    std::size_t width{1};
    std::array<std::size_t, kMaxW> lane{};  ///< bank lane index per slot
    /// Per-lane state and invariants, loaded from the lane objects at block
    /// start and written back at block end (the lane objects stay
    /// authoritative between blocks, so checkpointing never sees this).
    bankkernel::LaneSlots slots;
    std::array<int*, kMaxW> bits{};  ///< per-slot output cursor (per frame)
  };

  /// A vector packet's per-frame noise plans, transposed to [clock][lane]
  /// with stride width_ (one contiguous vector load per clock per source).
  /// A width-1 packet needs none: its view reads the lane's plan_ in place.
  struct TransposedPlans {
    alignas(64) std::array<double, kFrame * kMaxW> ktc{};
    std::array<double, kFrame * kMaxW> ref{};
    std::array<double, kFrame * kMaxW> op1{};
    std::array<double, kFrame * kMaxW> fl1{};
    std::array<double, kFrame * kMaxW> op2{};
    std::array<double, kFrame * kMaxW> fl2{};
    std::array<double, kFrame * kMaxW> comp{};
    std::uint32_t branches{0};  ///< the packet's shared kernel_branches_()
    std::size_t packet{0};      ///< index into packets_
    std::size_t frame_len{0};   ///< current frame length (metastable resync)
    ModulatorBank* owner{nullptr};
  };

  /// Sizes the per-lane scratch for lanes_, enables every lane and marks
  /// the packet layout for rebuild.
  void bind_();
  /// Regroups enabled lanes into vector packets of width_ (first) and
  /// width-1 packets (the rest), and builds their kernel views.
  void rebuild_packets_();
  /// Loads lane state/invariants into the packets at block start.
  void load_packet_state_();
  /// Writes packet state back into the lane objects at block end.
  void store_packet_state_();
  /// One frame's noise for every enabled lane: the scalar fill_noise_plan_
  /// pieces, with each source group's Gaussian draws batched across lanes
  /// through Rng::fill_gaussian_multi (bit-identical per stream).
  void fill_lane_plans_(std::size_t frame);
  /// Shared-stream de-interleave + scale for vector-packet lanes, written
  /// straight into the transposed buffers (the per-lane NoisePlan arrays are
  /// only materialized for width-1 lanes). AVX2 banks with all four shared
  /// sources enabled take the fused 4×4-transpose kernel.
  void fuse_shared_packet_plans_(std::size_t frame);
  /// Copies the vector packets' lanes' remaining plan-sourced arrays
  /// (flicker) into the transposed buffers. The shared sources and
  /// comparator noise are written transposed at generation time and never
  /// pass through here.
  void transpose_packet_plans_(std::size_t frame);

  // Masked scalar escapes for the vector packets (bank_kernel.hpp): `ctx`
  // is the TransposedPlans, `slot` the lane's index within the packet.
  // Width-1 packets use the lane's own DeltaSigmaModulator escapes.
  static double settle_cb_(void* ctx, std::size_t slot, int stage, double v);
  static double metastable_cb_(void* ctx, std::size_t slot, std::size_t clock);

  std::vector<DeltaSigmaModulator> owned_;  ///< empty for a borrowing bank
  std::vector<DeltaSigmaModulator*> lanes_;
  std::vector<DeltaSigmaModulator::CapacitiveInput> inputs_;  ///< scratch
  std::vector<std::uint8_t> enabled_;

  // Kernel dispatch, resolved once at construction: kernel_ runs the vector
  // packets (nullptr when width_ == 1); width-1 packets always run through
  // bankkernel::run_packets_scalar.
  simd::Level level_{simd::Level::kScalar};
  std::size_t width_{1};
  void (*kernel_)(bankkernel::PacketView*, std::size_t, std::size_t){nullptr};

  // Packet layout (lazy: rebuilt when the enable mask changes). packets_ and
  // views_ run parallel: the first plans_.size() entries are the vector
  // packets (plans_[i] belongs to packets_[i]), the rest are width 1.
  bool packets_dirty_{true};
  std::vector<Packet> packets_;
  std::vector<TransposedPlans> plans_;
  std::vector<bankkernel::PacketView> views_;
  static constexpr std::size_t kNoPacket = static_cast<std::size_t>(-1);
  std::vector<std::size_t> lane_packet_;  ///< vector packet or kNoPacket
  std::vector<std::size_t> lane_slot_;    ///< slot within that packet

  // Batched-fill scratch (sized at construction).
  std::vector<double> shared_raw_;            ///< lanes × 4·kFrame normals
  std::vector<double> flicker_raw_;           ///< lanes × kFrame normals
  std::vector<Rng*> fill_rngs_;
  std::vector<double*> fill_dests_;
  std::vector<std::size_t> fill_ns_;
  std::vector<std::size_t> fill_lanes_;

  metrics::Gauge* bank_lanes_gauge_{nullptr};
  metrics::Gauge* simd_width_gauge_{nullptr};
  metrics::Timer* step_block_timer_{nullptr};
};

}  // namespace tono::analog
