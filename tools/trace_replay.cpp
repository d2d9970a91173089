// trace_replay — generate and replay vbatch service traces.
//
// Two modes:
//   * --gen: write a synthetic request trace (deterministic exponential
//     arrivals over N tenants, sizes from the paper's distributions) to
//     stdout — redirect into a file and feed it back to --replay or
//     `vbatch_cli --serve --trace`.
//   * --replay FILE: run the trace through the virtual-time service loop on
//     a chosen pool and print the full ServiceReport. With --check, replay
//     twice and verify bit-identical reports (the determinism contract).
//
// Usage:
//   trace_replay --gen [--count N] [--tenants N] [--rate R] [--nmax N]
//                [--max-matrices N] [--mix-ops] [--mix-precisions] [--seed N]
//                [--burst F] [--deadline-frac F] [--deadline S]
//   trace_replay --replay FILE [--pool DESC] [--latency-budget S]
//                [--max-batch N] [--max-footprint-gb X] [--full] [--check]
//                [--max-queue N] [--tenant-rate G]
//
// --burst F makes the middle third of the generated trace arrive F times
// faster (an overload wave); --deadline-frac F tags that fraction of the
// requests with a deadline of --deadline seconds (default 5 ms). On the
// replay side --max-queue/--tenant-rate enable admission control, the same
// knobs as `vbatch_cli --serve` (docs/service.md, "Overload & admission").
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "vbatch/service/service.hpp"
#include "vbatch/util/error.hpp"

#include "cli_number.hpp"

namespace {

[[noreturn]] void usage(int exit_code) {
  std::printf(
      "usage: trace_replay --gen [--count N] [--tenants N] [--rate R] [--nmax N]\n"
      "                    [--max-matrices N] [--mix-ops] [--mix-precisions] [--seed N]\n"
      "                    [--burst F] [--deadline-frac F] [--deadline S]\n"
      "       trace_replay --replay FILE [--pool DESC] [--latency-budget S]\n"
      "                    [--max-batch N] [--max-footprint-gb X] [--full] [--check]\n"
      "                    [--max-queue N] [--tenant-rate G]\n");
  std::exit(exit_code);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vbatch;
  namespace svc = vbatch::service;

  bool gen = false;
  bool check = false;
  std::string replay_file;
  std::string pool_desc = "k40c";
  svc::TraceGenConfig gen_cfg;
  svc::ServiceConfig cfg;
  cfg.coalesce.latency_budget = 1e-3;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (arg == "--help") usage(0);
    else if (arg == "--gen") gen = true;
    else if (arg == "--replay") replay_file = next();
    else if (arg == "--count") gen_cfg.count = cli::number<int>(arg, next());
    else if (arg == "--tenants") gen_cfg.tenants = cli::number<int>(arg, next());
    else if (arg == "--rate") gen_cfg.rate = cli::number<double>(arg, next());
    else if (arg == "--nmax") gen_cfg.nmax = cli::number<int>(arg, next());
    else if (arg == "--max-matrices") gen_cfg.max_matrices = cli::number<int>(arg, next());
    else if (arg == "--mix-ops") gen_cfg.mix_ops = true;
    else if (arg == "--mix-precisions") gen_cfg.mix_precisions = true;
    else if (arg == "--seed") gen_cfg.seed = cli::number<std::uint64_t>(arg, next());
    else if (arg == "--burst") gen_cfg.burst = cli::number<double>(arg, next());
    else if (arg == "--deadline-frac") gen_cfg.deadline_frac = cli::number<double>(arg, next());
    else if (arg == "--deadline") gen_cfg.deadline_seconds = cli::number<double>(arg, next());
    else if (arg == "--pool") pool_desc = next();
    else if (arg == "--latency-budget")
      cfg.coalesce.latency_budget = cli::number<double>(arg, next());
    else if (arg == "--max-batch") cfg.coalesce.max_batch = cli::number<int>(arg, next());
    else if (arg == "--max-footprint-gb")
      cfg.coalesce.max_bytes = cli::number<double>(arg, next()) * 1024.0 * 1024.0 * 1024.0;
    else if (arg == "--full") cfg.mode = sim::ExecMode::Full;
    else if (arg == "--check") check = true;
    else if (arg == "--max-queue") {
      cfg.admission.enabled = true;
      cfg.admission.max_queue = cli::number<int>(arg, next());
    } else if (arg == "--tenant-rate") {
      cfg.admission.enabled = true;
      cfg.admission.tenant_rate_gflops = cli::number<double>(arg, next());
    }
    else usage(2);
  }
  if (gen == !replay_file.empty()) usage(2);  // exactly one mode

  try {
    if (gen) {
      std::cout << svc::format_trace(svc::make_trace(gen_cfg));
      return 0;
    }

    const svc::Trace trace = svc::load_trace(replay_file);
    hetero::DevicePool pool = hetero::DevicePool::parse(pool_desc);
    std::printf("replay:   %d requests on %s\n", trace.count(), pool.describe().c_str());
    const svc::ServiceReport report = svc::replay_trace(pool, trace, cfg);
    report.print(std::cout);

    if (check) {
      // The determinism contract: a second replay of the same (trace,
      // config, pool) must reproduce the report bit for bit.
      hetero::DevicePool pool2 = hetero::DevicePool::parse(pool_desc);
      const svc::ServiceReport again = svc::replay_trace(pool2, trace, cfg);
      const bool same =
          report.requests == again.requests && report.batches == again.batches &&
          report.shed == again.shed && report.expired == again.expired &&
          std::memcmp(&report.goodput_flops, &again.goodput_flops, sizeof(double)) == 0 &&
          std::memcmp(&report.makespan, &again.makespan, sizeof(double)) == 0 &&
          std::memcmp(&report.flops, &again.flops, sizeof(double)) == 0 &&
          std::memcmp(&report.joules, &again.joules, sizeof(double)) == 0 &&
          std::memcmp(&report.p99_latency, &again.p99_latency, sizeof(double)) == 0;
      std::printf("determinism check: %s\n", same ? "PASS (bit-identical replay)" : "FAIL");
      if (!same) return 1;
    }
    return 0;
  } catch (const Error& err) {
    std::fprintf(stderr, "trace_replay: %s\n", err.what());
    return 2;
  }
}
