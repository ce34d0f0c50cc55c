#include "src/core/validation.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>

#include "src/common/metrics.hpp"

namespace tono::core {
namespace {

// Same escaping as the ward snapshot export (control chars must survive).
std::string json_escape(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u >= 0x20) {
          out += c;
        } else {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xF];
        }
      }
    }
  }
  return out;
}

void export_error_block(std::ostream& os, const char* key, const ErrorAccumulator& acc,
                        std::size_t min_pairs) {
  const BlandAltman ba = bland_altman(acc);
  os << ",\"" << key << "\":{\"n\":" << acc.count() << ",\"bias_mmhg\":" << ba.bias_mmhg
     << ",\"sd_mmhg\":" << ba.sd_mmhg << ",\"loa_low_mmhg\":" << ba.loa_low_mmhg
     << ",\"loa_high_mmhg\":" << ba.loa_high_mmhg
     << ",\"mae_mmhg\":" << acc.mean_absolute_error_mmhg()
     << ",\"within_5\":" << acc.within_5_mmhg() << ",\"within_10\":" << acc.within_10_mmhg()
     << ",\"within_15\":" << acc.within_15_mmhg() << ",\"aami\":\""
     << to_string(aami_verdict(acc, min_pairs)) << "\",\"bhs\":\""
     << to_string(bhs_grade(acc, min_pairs)) << "\"}";
}

}  // namespace

void ErrorAccumulator::add(double estimate_mmhg, double truth_mmhg) noexcept {
  const double e = estimate_mmhg - truth_mmhg;
  const double a = std::abs(e);
  diff_.add(e);
  abs_.add(a);
  if (a <= 5.0) ++within5_;
  if (a <= 10.0) ++within10_;
  if (a <= 15.0) ++within15_;
}

void ErrorAccumulator::merge(const ErrorAccumulator& other) noexcept {
  diff_.merge(other.diff_);
  abs_.merge(other.abs_);
  within5_ += other.within5_;
  within10_ += other.within10_;
  within15_ += other.within15_;
}

double ErrorAccumulator::error_sd_mmhg() const noexcept {
  return std::sqrt(diff_.sample_variance());
}

double ErrorAccumulator::within_5_mmhg() const noexcept {
  const std::size_t n = count();
  return n > 0 ? static_cast<double>(within5_) / static_cast<double>(n) : 0.0;
}

double ErrorAccumulator::within_10_mmhg() const noexcept {
  const std::size_t n = count();
  return n > 0 ? static_cast<double>(within10_) / static_cast<double>(n) : 0.0;
}

double ErrorAccumulator::within_15_mmhg() const noexcept {
  const std::size_t n = count();
  return n > 0 ? static_cast<double>(within15_) / static_cast<double>(n) : 0.0;
}

BlandAltman bland_altman(const ErrorAccumulator& acc) noexcept {
  BlandAltman ba;
  ba.n = acc.count();
  ba.bias_mmhg = acc.mean_error_mmhg();
  ba.sd_mmhg = acc.error_sd_mmhg();
  ba.loa_low_mmhg = ba.bias_mmhg - 1.96 * ba.sd_mmhg;
  ba.loa_high_mmhg = ba.bias_mmhg + 1.96 * ba.sd_mmhg;
  return ba;
}

const char* to_string(AamiVerdict v) noexcept {
  switch (v) {
    case AamiVerdict::kPass: return "pass";
    case AamiVerdict::kFail: return "fail";
    case AamiVerdict::kInsufficientData: return "insufficient-data";
  }
  return "unknown";
}

const char* to_string(BhsGrade g) noexcept {
  switch (g) {
    case BhsGrade::kA: return "A";
    case BhsGrade::kB: return "B";
    case BhsGrade::kC: return "C";
    case BhsGrade::kD: return "D";
    case BhsGrade::kInsufficientData: return "insufficient-data";
  }
  return "unknown";
}

AamiVerdict aami_verdict(const ErrorAccumulator& acc, std::size_t min_pairs) {
  if (acc.count() < min_pairs) return AamiVerdict::kInsufficientData;
  const bool pass = std::abs(acc.mean_error_mmhg()) <= 5.0 && acc.error_sd_mmhg() <= 8.0;
  return pass ? AamiVerdict::kPass : AamiVerdict::kFail;
}

BhsGrade bhs_grade(const ErrorAccumulator& acc, std::size_t min_pairs) {
  if (acc.count() < min_pairs) return BhsGrade::kInsufficientData;
  const double p5 = acc.within_5_mmhg();
  const double p10 = acc.within_10_mmhg();
  const double p15 = acc.within_15_mmhg();
  if (p5 >= 0.60 && p10 >= 0.85 && p15 >= 0.95) return BhsGrade::kA;
  if (p5 >= 0.50 && p10 >= 0.75 && p15 >= 0.90) return BhsGrade::kB;
  if (p5 >= 0.40 && p10 >= 0.65 && p15 >= 0.85) return BhsGrade::kC;
  return BhsGrade::kD;
}

SessionValidator::SessionValidator(ValidationConfig config) : config_(config) {}

void SessionValidator::add_truth(std::span<const bio::BeatTruth> beats,
                                 double clock_offset_s) {
  truth_.reserve(truth_.size() + beats.size());
  for (const auto& b : beats) {
    bio::BeatTruth shifted = b;
    shifted.onset_s -= clock_offset_s;
    truth_.push_back(shifted);
  }
}

void SessionValidator::add_estimate(double time_s, double systolic_mmhg,
                                    double diastolic_mmhg, double map_mmhg) {
  estimates_.push_back(EstimatedBeat{time_s, systolic_mmhg, diastolic_mmhg, map_mmhg});
}

TransientMetrics transient_response(std::span<const EstimatedBeat> estimates,
                                    const bio::ScenarioProfile& profile,
                                    double band_mmhg) {
  TransientMetrics m;
  const auto& frames = profile.keyframes();
  // The largest systolic setpoint step between consecutive keyframes.
  std::size_t step = frames.size();
  double largest = 0.0;
  for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
    const double d = std::abs(frames[i + 1].systolic_mmhg - frames[i].systolic_mmhg);
    if (d > largest) {
      largest = d;
      step = i;
    }
  }
  if (step == frames.size() || largest < 10.0) return m;  // no real transition

  m.step_time_s = frames[step].time_s;
  m.step_from_mmhg = frames[step].systolic_mmhg;
  m.step_to_mmhg = frames[step + 1].systolic_mmhg;
  // Analysis window: step onset until the keyframe after the transition
  // (while the target holds near step_to), or the last estimate.
  const double hold_end =
      (step + 2 < frames.size()) ? frames[step + 2].time_s : frames[step + 1].time_s;
  const double window_end =
      estimates.empty() ? hold_end : std::min(hold_end, estimates.back().time_s);

  const double dir = (m.step_to_mmhg >= m.step_from_mmhg) ? 1.0 : -1.0;
  const double thresh10 = m.step_from_mmhg + 0.10 * (m.step_to_mmhg - m.step_from_mmhg);
  const double thresh90 = m.step_from_mmhg + 0.90 * (m.step_to_mmhg - m.step_from_mmhg);

  double t10 = -1.0;
  double t90 = -1.0;
  double peak = 0.0;
  RunningStats tail_error;
  const double tail_start = window_end - 0.25 * (window_end - m.step_time_s);
  std::size_t in_window = 0;
  for (const auto& e : estimates) {
    if (e.time_s < m.step_time_s || e.time_s > window_end) continue;
    ++in_window;
    if (t10 < 0.0 && dir * (e.systolic_mmhg - thresh10) >= 0.0) t10 = e.time_s;
    if (t90 < 0.0 && dir * (e.systolic_mmhg - thresh90) >= 0.0) t90 = e.time_s;
    if (t90 >= 0.0) {
      peak = std::max(peak, std::abs(e.systolic_mmhg - m.step_to_mmhg));
    }
    if (e.time_s >= tail_start) tail_error.add(e.systolic_mmhg - m.step_to_mmhg);
  }
  if (in_window == 0) return m;
  m.valid = true;
  if (t10 >= 0.0 && t90 >= t10) m.rise_time_s = t90 - t10;
  m.peak_error_mmhg = peak;
  m.steady_state_error_mmhg = tail_error.mean();

  // Settling: the earliest in-window estimate from which every later
  // estimate stays within ±band of the target.
  double settled_at = -1.0;
  for (const auto& e : estimates) {
    if (e.time_s < m.step_time_s || e.time_s > window_end) continue;
    if (std::abs(e.systolic_mmhg - m.step_to_mmhg) <= band_mmhg) {
      if (settled_at < 0.0) settled_at = e.time_s;
    } else {
      settled_at = -1.0;
    }
  }
  if (settled_at >= 0.0) m.settling_time_s = settled_at - m.step_time_s;
  return m;
}

SessionValidationRecord SessionValidator::finalize(std::uint32_t session_id,
                                                   std::string cohort,
                                                   std::string scenario,
                                                   std::uint64_t seed,
                                                   const bio::ScenarioProfile* profile) {
  std::sort(truth_.begin(), truth_.end(),
            [](const bio::BeatTruth& a, const bio::BeatTruth& b) {
              return a.onset_s < b.onset_s;
            });
  std::sort(estimates_.begin(), estimates_.end(),
            [](const EstimatedBeat& a, const EstimatedBeat& b) {
              return a.time_s < b.time_s;
            });

  SessionValidationRecord rec;
  rec.session_id = session_id;
  rec.cohort = std::move(cohort);
  rec.scenario = std::move(scenario);
  rec.seed = seed;
  rec.truth_beats = truth_.size();
  rec.estimate_beats = estimates_.size();
  if (!truth_.empty()) {
    rec.duration_s = truth_.back().onset_s + truth_.back().interval_s - truth_.front().onset_s;
  }

  // Two-pointer pairing: an estimate scores against the truth beat whose
  // [onset, onset + interval) span contains its time.
  std::size_t ti = 0;
  for (const auto& e : estimates_) {
    while (ti < truth_.size() && truth_[ti].onset_s + truth_[ti].interval_s <= e.time_s) {
      ++ti;
    }
    if (ti >= truth_.size()) break;
    const auto& t = truth_[ti];
    if (e.time_s < t.onset_s) continue;  // in a gap before this truth beat
    ++rec.matched_beats;
    rec.sys_error.add(e.systolic_mmhg, t.systolic_mmhg);
    rec.dia_error.add(e.diastolic_mmhg, t.diastolic_mmhg);
    rec.map_error.add(e.map_mmhg, t.map_mmhg);
  }

  if (profile != nullptr) {
    rec.transient = transient_response(estimates_, *profile, config_.settle_band_mmhg);
  }

  auto& reg = metrics::Registry::global();
  reg.counter(metrics::names::kValidationSessions).add(1);
  reg.counter(metrics::names::kValidationBeatsMatched).add(rec.matched_beats);
  reg.counter(metrics::names::kValidationBeatsUnmatched)
      .add(rec.estimate_beats - rec.matched_beats);
  const AamiVerdict verdict = aami_verdict(rec.sys_error, config_.min_pairs);
  if (verdict == AamiVerdict::kPass) {
    reg.counter(metrics::names::kValidationAamiPass).add(1);
  } else if (verdict == AamiVerdict::kFail) {
    reg.counter(metrics::names::kValidationAamiFail).add(1);
  }
  reg.gauge(metrics::names::kValidationLastSysBias).set(rec.sys_error.mean_error_mmhg());
  reg.gauge(metrics::names::kValidationLastSysSd).set(rec.sys_error.error_sd_mmhg());
  return rec;
}

void CohortValidation::merge(const CohortValidation& other) noexcept {
  sessions += other.sessions;
  aami_pass_sessions += other.aami_pass_sessions;
  rejected_sessions += other.rejected_sessions;
  sys_error.merge(other.sys_error);
  dia_error.merge(other.dia_error);
  map_error.merge(other.map_error);
}

std::vector<CohortValidation> aggregate_by_cohort(
    std::span<const SessionValidationRecord> records, std::size_t min_pairs) {
  std::map<std::string, CohortValidation> by_cohort;
  for (const auto& rec : records) {
    auto& c = by_cohort[rec.cohort];
    c.cohort = rec.cohort;
    ++c.sessions;
    if (!rec.admitted) ++c.rejected_sessions;
    if (aami_verdict(rec.sys_error, min_pairs) == AamiVerdict::kPass) {
      ++c.aami_pass_sessions;
    }
    c.sys_error.merge(rec.sys_error);
    c.dia_error.merge(rec.dia_error);
    c.map_error.merge(rec.map_error);
  }
  std::vector<CohortValidation> out;
  out.reserve(by_cohort.size());
  for (auto& [name, c] : by_cohort) out.push_back(std::move(c));
  return out;
}

void export_validation_jsonl(std::span<const SessionValidationRecord> records,
                             std::ostream& os, std::size_t min_pairs) {
  std::vector<const SessionValidationRecord*> ordered;
  ordered.reserve(records.size());
  for (const auto& r : records) ordered.push_back(&r);
  std::sort(ordered.begin(), ordered.end(),
            [](const SessionValidationRecord* a, const SessionValidationRecord* b) {
              return a->session_id < b->session_id;
            });

  for (const auto* r : ordered) {
    os << "{\"type\":\"validation_session\",\"id\":" << r->session_id << ",\"cohort\":\""
       << json_escape(r->cohort) << "\",\"scenario\":\"" << json_escape(r->scenario)
       << "\",\"seed\":" << r->seed;
    if (!r->admitted) {
      os << ",\"admitted\":false,\"reason\":\"" << json_escape(r->rejection) << "\"}\n";
      continue;
    }
    os << ",\"duration_s\":" << r->duration_s
       << ",\"truth_beats\":" << r->truth_beats << ",\"estimate_beats\":" << r->estimate_beats
       << ",\"matched_beats\":" << r->matched_beats;
    export_error_block(os, "sys", r->sys_error, min_pairs);
    export_error_block(os, "dia", r->dia_error, min_pairs);
    export_error_block(os, "map", r->map_error, min_pairs);
    // Transient metrics only appear when the scenario had a real step, so
    // steady-scenario lines stay byte-identical to pre-transient builds.
    if (r->transient.valid) {
      const auto& t = r->transient;
      os << ",\"transient\":{\"step_time_s\":" << t.step_time_s
         << ",\"step_from_mmhg\":" << t.step_from_mmhg
         << ",\"step_to_mmhg\":" << t.step_to_mmhg << ",\"rise_time_s\":" << t.rise_time_s
         << ",\"settling_time_s\":" << t.settling_time_s
         << ",\"steady_state_error_mmhg\":" << t.steady_state_error_mmhg
         << ",\"peak_error_mmhg\":" << t.peak_error_mmhg << "}";
    }
    os << "}\n";
  }

  const auto cohorts = aggregate_by_cohort(records, min_pairs);
  CohortValidation fleet;
  fleet.cohort = "fleet";
  for (const auto& c : cohorts) {
    os << "{\"type\":\"validation_cohort\",\"cohort\":\"" << json_escape(c.cohort)
       << "\",\"sessions\":" << c.sessions << ",\"aami_pass\":" << c.aami_pass_sessions
       << ",\"rejected\":" << c.rejected_sessions;
    export_error_block(os, "sys", c.sys_error, min_pairs);
    export_error_block(os, "dia", c.dia_error, min_pairs);
    export_error_block(os, "map", c.map_error, min_pairs);
    os << "}\n";
    fleet.merge(c);
  }
  os << "{\"type\":\"validation_fleet\",\"sessions\":" << fleet.sessions
     << ",\"aami_pass\":" << fleet.aami_pass_sessions
     << ",\"rejected\":" << fleet.rejected_sessions;
  export_error_block(os, "sys", fleet.sys_error, min_pairs);
  export_error_block(os, "dia", fleet.dia_error, min_pairs);
  export_error_block(os, "map", fleet.map_error, min_pairs);
  os << "}\n";
}

}  // namespace tono::core
