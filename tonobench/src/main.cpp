// tonobench — runs one workload and prints its metrics.
//
//   tonobench --workload ward_live|gateway_replay|admit_churn --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with spans, alternating traced and untraced chunks, adds the stage probe,
// prints the per-layer metrics and writes every span to
// DIR/<workload>-seed<N>.spans.csv. Either way the last stdout line is the
// JSON result; the exit code is 0 only when every correctness gate passed.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "metrics.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace tb = tonobench;

namespace {

const std::int64_t g_process_start_ns = tb::now_ns();

int usage(const std::string& why) {
  std::cerr << "tonobench: " << why
            << "\nusage: tonobench --workload ward_live|gateway_replay|admit_churn"
               " --seed N --seconds S --trace 0|1 [--work-dir DIR] [--trace-dir DIR]\n";
  return 2;
}

/// Sets `name` to the `bp` percentile of `samples` × scale, or fails the run
/// when the sample is too small for that percentile (the percentile rule).
void set_percentile(tb::Report& report, const std::string& name,
                    const std::vector<double>& samples, std::uint32_t bp, double scale) {
  if (!tb::percentile_supported(samples.size(), bp)) {
    report.fail(name + ": " + std::to_string(samples.size()) +
                " samples leave fewer than 10 beyond the percentile");
    return;
  }
  report.set(name, tb::percentile(samples, bp) * scale);
}

void set_mean(tb::Report& report, const std::string& name, const std::vector<double>& samples,
              double scale) {
  if (samples.empty()) {
    report.fail(name + ": no samples");
    return;
  }
  report.set(name, tb::mean(samples) * scale);
}

/// Timings are reported at the reference loop's nominal speed (workload.hpp):
/// scaled by nominal ÷ the run's mean reference-loop time.
void end_to_end(const tb::Outcome& out, tb::Report& report) {
  if (out.reference_ms.empty()) {
    report.fail("no host-speed sample");
    return;
  }
  const double reference_ms = tb::mean(out.reference_ms);
  const double scale = tb::kNominalReferenceMs / reference_ms;
  std::cout << "host speed: reference loop " << reference_ms << " ms (nominal "
            << tb::kNominalReferenceMs << " ms, " << out.reference_ms.size()
            << " samples); timings are scaled by " << scale << "\n";
  std::cout << "samples (unscaled) batch_ms: " << tb::describe_sample(out.batch_ms) << "\n"
            << "samples beat_staleness_s: " << tb::describe_sample(out.staleness_s) << "\n"
            << "samples (unscaled) admit_ms: " << tb::describe_sample(out.admit_ms) << "\n"
            << "samples (unscaled) readmit_ms: " << tb::describe_sample(out.readmit_ms) << "\n";
  report.set("setup_s", tb::median(out.setup_s) * scale);
  report.set("realtime_patients", static_cast<double>(out.codes) / 1000.0 / out.wall_s / scale);
  set_mean(report, "batch_ms_mean", out.batch_ms, scale);
  set_percentile(report, "batch_ms_p90", out.batch_ms, 9000, scale);
  set_percentile(report, "beat_staleness_s_p50", out.staleness_s, 5000, 1.0);
  set_percentile(report, "beat_staleness_s_p99", out.staleness_s, 9900, 1.0);
  set_mean(report, "admit_ms_mean", out.admit_ms, scale);
  set_percentile(report, "admit_ms_p90", out.admit_ms, 9000, scale);
  set_mean(report, "readmit_ms_mean", out.readmit_ms, scale);
  set_percentile(report, "readmit_ms_p90", out.readmit_ms, 9000, scale);
  set_mean(report, "checkpoint_kb", out.checkpoint_bytes, 1e-3);
  report.set("peak_rss_mb", tb::peak_rss_mb());
  report.set("delivered_share", out.tally.delivered_share());
}

void per_layer(const tb::Options& opt, const tb::Outcome& out, const tb::ProbeResult& probe,
               const std::map<std::string, tb::SpanStats>& spans, tb::Report& report) {
  auto stat = [&](const char* name) -> const tb::SpanStats* {
    const auto it = spans.find(name);
    return it == spans.end() ? nullptr : &it->second;
  };
  auto median_ms = [&](const char* name) {
    const tb::SpanStats* s = stat(name);
    return s == nullptr ? 0.0 : tb::median(s->durations_s) * 1e3;
  };
  auto total_us = [&](const char* name, bool self = false) {
    const tb::SpanStats* s = stat(name);
    return s == nullptr ? 0.0 : (self ? s->self_s : s->total_s) * 1e6;
  };
  auto count = [&](const char* name) {
    const tb::SpanStats* s = stat(name);
    return s == nullptr ? 0.0 : static_cast<double>(s->count);
  };
  // Workload spans per frame streamed while tracing was on.
  const double traced_frames = static_cast<double>(out.traced_codes);
  auto per_traced_frame = [&](double us) { return traced_frames > 0 ? us / traced_frames : 0.0; };

  const double acquire_rest =
      probe.acquire_us - probe.bio_us - probe.wrapper_us - probe.analog_us - probe.dsp_us;
  report.set("bio.field_us_per_frame", probe.bio_us);
  report.set("bio.field_calls_per_frame", probe.physio_per_frame);
  report.set("bio.wrapper_overhead_us_per_frame", probe.wrapper_us);
  report.set("mems.array_build_ms", probe.array_build_ms);
  report.set("analog.modulator_us_per_frame", probe.analog_us);
  report.set("dsp.decimation_us_per_frame", probe.dsp_us);
  report.set("core.acquire_us_per_frame", probe.acquire_us);
  report.set("core.acquire_rest_us_per_frame", acquire_rest);
  report.set("core.monitor_us_per_frame", probe.monitor_us);
  report.set("core.calibrate_ms", median_ms("core.calibrate"));
  report.set("fleet.session_build_ms", median_ms("fleet.session_build"));
  report.set("fleet.checkpoint_ms", median_ms("fleet.checkpoint"));
  report.set("fleet.restore_ms", median_ms("fleet.restore"));
  const double ingest = per_traced_frame(total_us("fleet.ingest"));
  report.set("fleet.ingest_us_per_frame", ingest);
  report.set("fleet.hospital_admit_ms", median_ms("fleet.hospital_admit"));
  report.set("fleet.first_batch_s", median_ms("fleet.first_batch") / 1e3);
  const double read = per_traced_frame(total_us("gateway.replay_read"));
  const double mux = per_traced_frame(total_us("gateway.mux"));
  const double demux = per_traced_frame(total_us("gateway.demux", /*self=*/true));
  report.set("gateway.replay_read_us_per_frame", read);
  report.set("gateway.mux_us_per_frame", mux);
  report.set("gateway.demux_us_per_frame", demux);
  for (const char* name : {"fleet.restore_rejected", "fleet.batch_skew_ms", "fleet.code_drops",
                           "fleet.event_drops",
                           "fleet.quarantined", "gateway.wire_bytes_per_code",
                           "gateway.lost_envelopes", "gateway.corrupt_envelopes"}) {
    const auto it = out.layer.find(name);
    report.set(name, it == out.layer.end() ? 0.0 : it->second);
  }

  // Closure: the stage model of this workload's frame against its measured
  // per-frame cost (workers × untraced wall ÷ frames).
  std::map<std::string, double> stage = {{"bio", 0.0},  {"mems", 0.0},  {"analog", 0.0},
                                         {"dsp", 0.0},  {"core", 0.0},  {"fleet", 0.0},
                                         {"gateway", 0.0}};
  if (opt.workload == "ward_live") {
    stage["bio"] = probe.bio_us;
    stage["analog"] = probe.analog_us;
    stage["dsp"] = probe.dsp_us;
    stage["core"] = probe.monitor_us + acquire_rest;
  } else if (opt.workload == "gateway_replay") {
    stage["gateway"] = read + mux + demux;
    stage["core"] = std::min(probe.monitor_us, ingest);
    stage["fleet"] = ingest - stage["core"];
  } else {
    // Every churned frame runs the full chain; the lifecycle spans of the
    // traced phase are amortized over its frames, with the LUT builds
    // inside each construction counted as mems.
    const double builds_us = per_traced_frame(total_us("fleet.session_build"));
    const double luts_us = per_traced_frame(count("fleet.session_build") * probe.array_build_ms * 1e3);
    stage["bio"] = probe.bio_us;
    stage["analog"] = probe.analog_us;
    stage["dsp"] = probe.dsp_us;
    stage["mems"] = std::min(luts_us, builds_us);
    stage["core"] = probe.monitor_us + acquire_rest + per_traced_frame(total_us("core.calibrate"));
    stage["fleet"] = builds_us - stage["mems"] +
                     per_traced_frame(total_us("fleet.checkpoint") + total_us("fleet.restore") +
                                      total_us("fleet.discharge"));
  }
  const double measured =
      out.codes > 0 ? out.workers * out.wall_s * 1e6 / static_cast<double>(out.codes) : 0.0;
  double stage_sum = 0.0;
  for (const auto& [layer, us] : stage) stage_sum += us;
  report.set("closure.measured_us_per_frame", measured);
  report.set("closure.stage_sum_us_per_frame", stage_sum);
  report.set("unaccounted_us_per_frame", measured - stage_sum);
  for (const auto& [layer, us] : stage) {
    report.set("stage_share." + layer, measured > 0 ? us / measured : 0.0);
  }

  const double untraced = out.wall_s > 0 ? static_cast<double>(out.codes) / 1000.0 / out.wall_s : 0.0;
  const double traced =
      out.traced_wall_s > 0 ? static_cast<double>(out.traced_codes) / 1000.0 / out.traced_wall_s : 0.0;
  report.set("trace.realtime_patients_delta", traced - untraced);
  report.set("host.reference_loop_ms", out.reference_ms.empty() ? 0.0 : tb::mean(out.reference_ms));
  double n_spans = 0.0;
  for (const auto& [name, s] : spans) n_spans += static_cast<double>(s.count);
  report.set("trace.spans", n_spans);
}

}  // namespace

int main(int argc, char** argv) {
  tb::Options opt;
  opt.process_start_ns = g_process_start_ns;
  std::string trace_dir = ".bench_build/traces";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else if (flag == "--trace-dir") {
        trace_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be > 0");
  void (*workload)(const tb::Options&, tb::Outcome&) = nullptr;
  if (opt.workload == "ward_live") {
    workload = tb::run_ward_live;
  } else if (opt.workload == "gateway_replay") {
    workload = tb::run_gateway_replay;
  } else if (opt.workload == "admit_churn") {
    workload = tb::run_admit_churn;
  } else {
    return usage("unknown workload " + opt.workload);
  }

  const std::string host = tb::host_record(opt.seed, opt.workload, opt.trace);
  std::cout << "host " << host << std::endl;
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);

  tb::Outcome out;
  tb::set_enabled(opt.trace);
  try {
    workload(opt, out);
  } catch (const std::exception& e) {
    out.fail(std::string{"workload threw: "} + e.what());
  }

  tb::Report report{opt.trace ? tb::kPerLayer : tb::kEndToEnd};
  for (const auto& f : out.failures) report.fail(f);
  if (opt.trace) {
    tb::ProbeResult probe;
    try {
      probe = tb::run_probe(opt);
    } catch (const std::exception& e) {
      report.fail(std::string{"probe threw: "} + e.what());
    }
    tb::set_enabled(false);
    const auto threads = tb::collect();
    per_layer(opt, out, probe, tb::aggregate(threads), report);
    std::filesystem::create_directories(trace_dir, ec);
    const std::string path =
        trace_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".spans.csv";
    if (tb::write_csv(path, host, threads)) {
      std::cout << "spans written to " << path << "\n";
    } else {
      report.fail("cannot write spans to " + path);
    }
  } else {
    end_to_end(out, report);
  }
  if (const auto it = out.layer.find("fleet.restore_rejected");
      it != out.layer.end() && it->second > 0) {
    std::cout << "note: " << it->second
              << " steady-state session checkpoint(s) were rejected on restore "
                 "(StreamingMonitor::restore refuses a buffer longer than its window)\n";
  }
  std::cout << report.render(out.tally) << std::flush;
  return report.correct() ? 0 : 1;
}
