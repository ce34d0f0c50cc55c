// bank_kernel.hpp — the ΔΣ loop recurrence, written once, run at width 1,
// 2 or 4.
//
// run_packets<V> is the only block-path copy of the per-clock loop; its
// scalar reference is DeltaSigmaModulator::step_normalized, which the
// block == scalar and bank == solo tests compare every path against. It is
// instantiated three ways:
//   * VecScalar (width 1, below): the solo DeltaSigmaModulator block step,
//     and every ModulatorBank lane that does not fill a vector packet
//     (remainders, heterogeneous structures, scalar-dispatch banks);
//   * VecNeon (width 2) and VecAvx2 (width 4): full ModulatorBank packets.
//
// One PacketView describes a *packet*: W lanes whose configs share the same
// control structure (loop order, settling, which noise sources exist), laid
// out SoA — per-lane state and invariants as width-sized arrays, per-frame
// noise plans transposed to [clock][lane] so each clock is one contiguous
// vector load. At width 1 the transpose is the identity, so a one-lane view
// points straight at the modulator's own plan arrays. Lane *values* (seeds,
// capacitances, noise magnitudes, inputs) are free to differ; only the branch
// structure (the Branch mask) must be uniform, because the kernel's branches
// are per-packet, not per-lane.
//
// Every arithmetic operation is elementwise IEEE (add/sub/mul/div, compare,
// select, sign flip), which vector units round exactly like scalar units —
// that is the entire bit-exactness argument, and why all three widths print
// the same golden codes. The two places the model is not elementwise-
// expressible stay scalar per lane, behind masks:
//   * op-amp partial settling (OpAmp::settle calls exp()): lanes whose step
//     exceeds the provable full-settle threshold drop out of the vector for
//     that clock via `settle_fn` and rejoin with the returned value;
//   * comparator metastability (data-dependent Bernoulli + plan resync):
//     lanes inside the metastable band resolve through `metastable_fn`,
//     which replays the scalar slow path (Comparator::decide_metastable_at
//     rewrites the lane's plan tail in place; a transposed packet copy is
//     refreshed by the owner) before returning the decision.
// Both are rare at the paper's operating point; their cost amortizes away.
//
// Loop order is clock-outer / packet-inner: each packet's per-clock
// dependency chain is long (two divisions plus the comparator decide feed the
// next clock), so interleaving packets lets independent chains overlap in the
// core instead of serializing. A run of width-1 packets is therefore the
// bank's scalar lockstep.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace tono::analog::bankkernel {

/// Widest kernel lane count (AVX2: 4 × f64). Packet storage pads to this.
inline constexpr std::size_t kMaxWidth = 4;

/// The kernel's per-packet branch set, one bit each. Lanes share a packet
/// iff their masks are equal (DeltaSigmaModulator::kernel_branches_).
enum Branch : std::uint32_t {
  kOrder2 = 1u << 0,
  kSettling = 1u << 1,
  kKtc = 1u << 2,
  kRef = 1u << 3,
  kOp1 = 1u << 4,
  kFl1 = 1u << 5,
  kOp2 = 1u << 6,
  kFl2 = 1u << 7,
  kComp = 1u << 8,
};
/// The sources drawn from the modulator's shared white-noise stream.
inline constexpr std::uint32_t kSharedSources = kKtc | kRef | kOp1 | kOp2;

/// SoA per-lane state and invariants of one packet, for up to kMaxWidth
/// lanes. DeltaSigmaModulator::load_kernel_slot_ fills slot w from one
/// modulator and store_kernel_slot_ writes its state back; the bank's
/// packets and the solo block step both go through that pair.
struct LaneSlots {
  // State.
  alignas(64) double x1[kMaxWidth]{};
  double x2[kMaxWidth]{};
  double d[kMaxWidth]{};     ///< previous output bit as ±1.0
  double last[kMaxWidth]{};  ///< comparator hysteresis memory as ±1.0
  double time_s[kMaxWidth]{};
  double max1[kMaxWidth]{};
  double max2[kMaxWidth]{};
  double clips[kMaxWidth]{};  ///< clipped-update count this block (double)

  // Invariants.
  alignas(64) double u[kMaxWidth]{};  ///< normalized input
  double g1[kMaxWidth]{};
  double a1[kMaxWidth]{};
  double p2[kMaxWidth]{};  ///< loop.g2 * g2_mismatch (pre-multiplied, same
                           ///< association as the scalar expression)
  double a2[kMaxWidth]{};
  double scale[kMaxWidth]{};  ///< loop.state_scale_v
  double leak1[kMaxWidth]{};  ///< op-amp leak factors
  double leak2[kMaxWidth]{};
  double swing1[kMaxWidth]{};  ///< output swings (clip bounds)
  double swing2[kMaxWidth]{};
  double settle1[kMaxWidth]{};  ///< full-settle thresholds
  double settle2[kMaxWidth]{};
  double comp_offset[kMaxWidth]{};
  double comp_halfhyst[kMaxWidth]{};  ///< 0.5 * hysteresis_v, pre-multiplied
  double comp_band[kMaxWidth]{};      ///< metastable band
  double clock_period[kMaxWidth]{};
};

struct PacketView {
  std::size_t width{0};  ///< lanes in this packet (== kernel width)

  LaneSlots* slots{nullptr};  ///< per-lane state and invariants, slots 0..width-1

  // Per-frame noise plans, [clock][lane] with stride = width. A source is
  // read only when its Branch bit is set (the scalar path's conditional
  // adds).
  const double* ktc{nullptr};
  const double* ref{nullptr};
  const double* op1{nullptr};
  const double* fl1{nullptr};
  const double* op2{nullptr};
  const double* fl2{nullptr};
  const double* comp{nullptr};  ///< comparator noise

  std::uint32_t branches{0};  ///< Branch bits: which of the above are read

  /// Per-lane output bit pointers: lane slot w's bit for clock i goes to
  /// bits[w][i].
  int* const* bits{nullptr};

  // Masked scalar escapes (see file comment). `slot` is the lane's index
  // within this packet; `ctx` lets the view's builder find the lane (the
  // modulator itself for a width-1 view, the bank's packet otherwise).
  void* ctx{nullptr};
  double (*settle_fn)(void* ctx, std::size_t slot, int stage,
                      double v){nullptr};
  double (*metastable_fn)(void* ctx, std::size_t slot,
                          std::size_t clock){nullptr};
};

/// Width-1 entry point (VecScalar), built into every configuration —
/// including TONO_SIMD=OFF. Every packet must have width 1.
void run_packets_scalar(PacketView* packets, std::size_t n_packets,
                        std::size_t n_clocks);

/// ISA entry points, one TU each (modulator_bank_avx2.cpp / _neon.cpp).
/// Every packet must have width == the kernel's lane count.
void run_packets_avx2(PacketView* packets, std::size_t n_packets,
                      std::size_t n_clocks);
void run_packets_neon(PacketView* packets, std::size_t n_packets,
                      std::size_t n_clocks);

/// One packet's shared-stream fusion job: turn each lane's raw standard
/// normals (interleaved [kT/C, ref, op1, op2] per clock) directly into the
/// packet's scaled, [clock][lane]-transposed plan buffers, skipping the
/// intermediate per-lane NoisePlan arrays entirely. Only built for packets
/// with all four shared sources enabled (four draws per clock — the
/// default operating point); other structures take the generic path in
/// ModulatorBank::fuse_shared_packet_plans_.
struct SharedFuseJob {
  const double* raw[kMaxWidth];  ///< per-slot raw stream, 4 normals/clock
  double* ktc;                   ///< dest [clock*width + slot]
  double* ref;
  double* op1;
  double* op2;
  // Per-slot scale constants, width entries each, mirroring
  // DeltaSigmaModulator::build_shared_plan_'s draw-site expressions.
  double sigma_u[kMaxWidth];   ///< kT/C:  0 + sigma_u·raw
  double ref_vrms[kMaxWidth];  ///< ref:   (0 + ref_vrms·raw) / vref
  double vref[kMaxWidth];
  double op1_vrms[kMaxWidth];  ///< op1:   (0 + op1_vrms·raw) / scale
  double op2_vrms[kMaxWidth];  ///< op2:   (0 + op2_vrms·raw) / scale
  double scale[kMaxWidth];
};

/// AVX2 fused de-interleave + scale + 4×4 transpose (width must be 4).
/// Elementwise mul/add/div in the exact scalar association, so each value
/// is bit-identical to build_shared_plan_ + the old copy-transpose.
void fuse_shared4_avx2(const SharedFuseJob& job, std::size_t n_clocks);

/// The kernel template, instantiated with a vector-ops policy V (width
/// V::kW, vector type V::D, mask type V::M plus the elementwise ops used
/// below). Defined in the header so each ISA TU compiles its own copy with
/// its own target flags; nothing here is ISA-specific.
template <class V>
inline void run_packets(PacketView* packets, std::size_t n_packets,
                        std::size_t n_clocks) {
  using D = typename V::D;
  for (std::size_t i = 0; i < n_clocks; ++i) {
    for (std::size_t pi = 0; pi < n_packets; ++pi) {
      const PacketView& p = packets[pi];
      LaneSlots& s = *p.slots;
      const std::size_t off = i * V::kW;
      const D scale = V::load(s.scale);
      const D d = V::load(s.d);
      D x1 = V::load(s.x1);

      // u_total = u + extra_noise_u + ref_err_u * d  (zeros when off, exactly
      // as the scalar path computes with its zero-initialized locals).
      const D ref = (p.branches & kRef) ? V::load(p.ref + off) : V::zero();
      const D ktc = (p.branches & kKtc) ? V::load(p.ktc + off) : V::zero();
      const D u_total = V::add(V::add(V::load(s.u), ktc), V::mul(ref, d));

      // delta1 = g1*u_total - a1*d*(1 + ref_err_u)
      D delta1 = V::sub(
          V::mul(V::load(s.g1), u_total),
          V::mul(V::mul(V::load(s.a1), d), V::add(V::one(), ref)));
      if (p.branches & kOp1) delta1 = V::add(delta1, V::load(p.op1 + off));
      if (p.branches & kFl1) delta1 = V::add(delta1, V::load(p.fl1 + off));
      if (p.branches & kSettling) {
        const D v1 = V::mul(delta1, scale);
        D numer = V::select(V::cmp_eq(v1, V::zero()), V::zero(), v1);
        const typename V::M slow = V::cmp_nle(V::abs(v1), V::load(s.settle1));
        if (V::any(slow)) {
          double va[V::kW];
          double na[V::kW];
          V::store(va, v1);
          V::store(na, numer);
          unsigned m = V::mask(slow);
          do {
            const unsigned w = V::ctz(m);
            m &= m - 1;
            na[w] = p.settle_fn(p.ctx, w, 1, va[w]);
          } while (m != 0);
          numer = V::load(na);
        }
        delta1 = V::div(numer, scale);
      }
      const D x1_prev = x1;
      const D x1_new = V::add(V::mul(V::load(s.leak1), x1), delta1);
      const D v_x1 = V::mul(x1_new, scale);
      const D sw1 = V::load(s.swing1);
      const D nsw1 = V::neg(sw1);
      const D clipped1 =
          V::select(V::cmp_lt(v_x1, nsw1), nsw1,
                    V::select(V::cmp_lt(sw1, v_x1), sw1, v_x1));
      x1 = V::div(clipped1, scale);
      D clips = V::load(s.clips);
      clips = V::add(
          clips, V::select(V::cmp_neq(x1, x1_new), V::one(), V::zero()));
      {
        const D ax1 = V::abs(V::mul(x1, scale));
        const D mx1 = V::load(s.max1);
        V::store(s.max1, V::select(V::cmp_lt(mx1, ax1), ax1, mx1));
      }
      V::store(s.x1, x1);

      D y;
      if (p.branches & kOrder2) {
        D x2 = V::load(s.x2);
        // delta2 = (g2 * g2_mismatch) * x1_prev - a2 * d
        D delta2 = V::sub(V::mul(V::load(s.p2), x1_prev),
                          V::mul(V::load(s.a2), d));
        if (p.branches & kOp2) delta2 = V::add(delta2, V::load(p.op2 + off));
        if (p.branches & kFl2) delta2 = V::add(delta2, V::load(p.fl2 + off));
        if (p.branches & kSettling) {
          const D v2 = V::mul(delta2, scale);
          D numer = V::select(V::cmp_eq(v2, V::zero()), V::zero(), v2);
          const typename V::M slow =
              V::cmp_nle(V::abs(v2), V::load(s.settle2));
          if (V::any(slow)) {
            double va[V::kW];
            double na[V::kW];
            V::store(va, v2);
            V::store(na, numer);
            unsigned m = V::mask(slow);
            do {
              const unsigned w = V::ctz(m);
              m &= m - 1;
              na[w] = p.settle_fn(p.ctx, w, 2, va[w]);
            } while (m != 0);
            numer = V::load(na);
          }
          delta2 = V::div(numer, scale);
        }
        const D x2_new = V::add(V::mul(V::load(s.leak2), x2), delta2);
        const D v_x2 = V::mul(x2_new, scale);
        const D sw2 = V::load(s.swing2);
        const D nsw2 = V::neg(sw2);
        const D clipped2 =
            V::select(V::cmp_lt(v_x2, nsw2), nsw2,
                      V::select(V::cmp_lt(sw2, v_x2), sw2, v_x2));
        x2 = V::div(clipped2, scale);
        clips = V::add(
            clips, V::select(V::cmp_neq(x2, x2_new), V::one(), V::zero()));
        {
          const D ax2 = V::abs(V::mul(x2, scale));
          const D mx2 = V::load(s.max2);
          V::store(s.max2, V::select(V::cmp_lt(mx2, ax2), ax2, mx2));
        }
        V::store(s.x2, x2);
        y = V::mul(x2, scale);
      } else {
        y = V::mul(x1, scale);
      }
      V::store(s.clips, clips);

      // Comparator decide: v = y - offset [+ noise];
      // v -= halfhyst * (-last); |v| < band → metastable slow path.
      D cv = V::sub(y, V::load(s.comp_offset));
      if (p.branches & kComp) cv = V::add(cv, V::load(p.comp + off));
      cv = V::sub(cv,
                  V::mul(V::load(s.comp_halfhyst), V::neg(V::load(s.last))));
      D newlast =
          V::select(V::cmp_ge(cv, V::zero()), V::one(), V::neg(V::one()));
      const typename V::M meta = V::cmp_lt(V::abs(cv), V::load(s.comp_band));
      if (V::any(meta)) {
        double la[V::kW];
        V::store(la, newlast);
        unsigned m = V::mask(meta);
        do {
          const unsigned w = V::ctz(m);
          m &= m - 1;
          la[w] = p.metastable_fn(p.ctx, w, i);
        } while (m != 0);
        newlast = V::load(la);
      }
      V::store(s.last, newlast);
      V::store(s.d, newlast);
      V::store(s.time_s,
               V::add(V::load(s.time_s), V::load(s.clock_period)));
      double lb[V::kW];
      V::store(lb, newlast);
      for (std::size_t w = 0; w < V::kW; ++w) {
        p.bits[w][i] = static_cast<int>(lb[w]);
      }
    }
  }
}

/// Width-1 policy: plain scalar IEEE ops, the mask a bool. Each op is the
/// scalar expression the vector policies reproduce lane by lane.
struct VecScalar {
  static constexpr std::size_t kW = 1;
  using D = double;
  using M = bool;

  static D load(const double* ptr) noexcept { return *ptr; }
  static void store(double* ptr, D v) noexcept { *ptr = v; }
  static D zero() noexcept { return 0.0; }
  static D one() noexcept { return 1.0; }
  static D add(D a, D b) noexcept { return a + b; }
  static D sub(D a, D b) noexcept { return a - b; }
  static D mul(D a, D b) noexcept { return a * b; }
  static D div(D a, D b) noexcept { return a / b; }
  static D abs(D a) noexcept { return std::abs(a); }
  static D neg(D a) noexcept { return -a; }
  /// mask ? a : b
  static D select(M mask, D a, D b) noexcept { return mask ? a : b; }
  static M cmp_lt(D a, D b) noexcept { return a < b; }
  static M cmp_ge(D a, D b) noexcept { return a >= b; }
  static M cmp_eq(D a, D b) noexcept { return a == b; }
  static M cmp_neq(D a, D b) noexcept { return a != b; }
  static M cmp_nle(D a, D b) noexcept { return !(a <= b); }
  static bool any(M mask) noexcept { return mask; }
  static unsigned mask(M m) noexcept { return m ? 1u : 0u; }
  static unsigned ctz(unsigned /*m*/) noexcept { return 0; }
};

}  // namespace tono::analog::bankkernel
