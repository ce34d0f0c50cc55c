#include "src/analog/comparator.hpp"

#include "src/common/checkpoint.hpp"

namespace tono::analog {

void Comparator::plan(double* noise_dest, std::size_t n) noexcept {
  // With noise off the scalar path draws nothing per decision — the stream
  // is consumed only by metastable events, which decide_metastable_at()
  // routes through planned_metastable_() in the same order. Nothing to
  // pre-draw then.
  if (Rng* stream = plan_external(noise_dest, n)) {
    stream->fill_gaussian(noise_dest, n, 0.0, config_.noise_vrms);
  }
}

Rng* Comparator::plan_external(double* noise_dest, std::size_t n) noexcept {
  plan_buf_ = noise_dest;
  plan_len_ = n;
  plan_idx_ = 0;
  segment_start_ = 0;
  if (!(config_.noise_vrms > 0.0)) return nullptr;  // as decide() tests it
  plan_snapshot_ = rng_;
  return &rng_;
}

bool Comparator::planned_metastable_() noexcept {
  if (config_.noise_vrms <= 0.0) return rng_.bernoulli(0.5);
  // The scalar stream interleaves this Bernoulli between the Gaussian just
  // consumed (index plan_idx_ - 1) and the next one. Rewind to the segment
  // snapshot, replay the Gaussians consumed since then to reconstruct the
  // exact mid-frame state (including the polar method's spare cache), draw
  // the Bernoulli at its scalar position, then regenerate the not-yet-
  // consumed tail of the plan from the post-Bernoulli state — those values
  // change, exactly as they would have in the scalar sequence.
  Rng replay = plan_snapshot_;
  for (std::size_t i = segment_start_; i < plan_idx_; ++i) {
    (void)replay.gaussian();
  }
  const bool bit = replay.bernoulli(0.5);
  plan_snapshot_ = replay;
  segment_start_ = plan_idx_;
  rng_ = replay;
  rng_.fill_gaussian(plan_buf_ + plan_idx_, plan_len_ - plan_idx_, 0.0,
                     config_.noise_vrms);
  return bit;
}

void Comparator::serialize(CheckpointWriter& out) const {
  out.section("comparator");
  rng_.serialize(out);
  out.i64(last_);
}

void Comparator::restore(CheckpointReader& in) {
  in.section("comparator");
  rng_.restore(in);
  const std::int64_t last = in.i64();
  if (last != 1 && last != -1) {
    throw CheckpointError{"comparator checkpoint decision is not +1/-1"};
  }
  last_ = static_cast<int>(last);
  plan_buf_ = nullptr;
  plan_len_ = plan_idx_ = segment_start_ = 0;
}

}  // namespace tono::analog
