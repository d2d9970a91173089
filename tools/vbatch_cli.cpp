// vbatch_cli — command-line driver for the vbatched library.
//
// Runs a vbatched Cholesky workload on the simulated device and reports
// performance, an nvprof-style kernel profile, energy to solution, and
// (optionally) the autotuner's sweep. Useful for exploring configurations
// without writing code.
//
// Usage:
//   vbatch_cli [options]
//     --batch N        batch count              (default 1000)
//     --nmax N         maximum matrix size      (default 256)
//     --dist uniform|gaussian|skewed|cluster    (default uniform)
//     --precision s|d                           (default d)
//     --device k40c|p100                        (default k40c; also selects
//                      the matching power model for --energy)
//     --hetero LIST    run on a heterogeneous pool instead of one device,
//                      e.g. --hetero cpu,k40c,p100 (tokens: cpu, k40c, p100;
//                      a token may carry ':Nstreams' and/or ':Ngb' suffixes,
//                      e.g. k40c:4streams:2gb)
//     --streams N      concurrent stream slots per pool executor
//                      (requires --hetero; overrides any ':Nstreams' suffix;
//                      GPUs clamp to the device limit, the cpu executor to 1;
//                      factors are bit-identical for every stream count)
//     --arena-gb X     staging-arena budget (GiB) for every GPU executor
//                      (requires --hetero; overrides any ':Ngb' suffix and the
//                      VBATCH_ARENA_GB env var; batches whose footprint
//                      exceeds the budget stream out-of-core through
//                      double-buffered chunked transfers — factors stay
//                      bit-identical to the in-core run)
//     --inject-faults SPEC
//                      deterministic fault injection into the hetero pool
//                      (requires --hetero; docs/robustness.md), e.g.
//                      "seed=7;transient:rate=0.2;die:exec=1,after=2";
//                      the VBATCH_INJECT_FAULTS env var is the no-flag
//                      alternative
//     --path auto|fused|separated               (default auto)
//     --etm classic|aggressive                  (default aggressive)
//     --no-sort        disable implicit sorting
//     --tune           run the autotuners first and use their results: the
//                      host BLAS cache-hierarchy tuner (loads the persisted
//                      profile when one exists — see VBATCH_TUNING_FILE in
//                      docs/api.md — and sweeps + saves otherwise), then the
//                      Cholesky configuration sweep
//     --isa scalar|sse2|neon|avx2|avx512
//                      pin the host micro-kernel instruction set (default:
//                      VBATCH_ISA or cpuid detection; clamped to what the
//                      host supports; scalar reproduces the pre-vectorized
//                      engine bit for bit)
//     --profile        print the kernel profile
//     --energy         print energy to solution vs the CPU baseline
//     --verify         run in Full mode and check residuals (slower)
//     --threads N      host worker threads for Full-mode numerics
//                      (default: VBATCH_NUM_THREADS or hardware concurrency;
//                      results are identical for any thread count)
//     --seed N         RNG seed                 (default 2016)
//     --serve          run the batch service front-end instead of a single
//                      call: replay the scripted request trace of --trace on
//                      the deterministic virtual-time clock (docs/service.md);
//                      with --verify the numerics run in Full mode
//     --trace FILE     request trace to replay (requires --serve; grammar in
//                      docs/service.md)
//     --latency-budget S
//                      coalescing latency budget in seconds (requires
//                      --serve; default 0.001): how long a request may wait
//                      for merge partners before its group must flush
//     --max-batch N    matrices per merged launch (requires --serve;
//                      default unbounded): reaching the cap flushes
//                      immediately, before any budget expiry
//     --max-footprint-gb X
//                      payload bytes per merged launch, in GiB (requires
//                      --serve; default unbounded); composes with the
//                      out-of-core staging budget downstream
//     --tenants LIST   per-tenant fairness weights as name=weight pairs,
//                      e.g. --tenants bursty=2,quiet=1 (requires --serve;
//                      overrides the trace's tenant declarations; weights
//                      must be positive — zero would starve the tenant)
//     --max-queue N    enable admission control with a bound of N pending
//                      requests (requires --serve; default unbounded):
//                      arrivals past the watermark are shed with a named
//                      rejection instead of growing the queue — see
//                      docs/service.md, "Overload & admission"
//     --tenant-rate G  enable admission control with a per-tenant token
//                      bucket of G Gflop/s, scaled by each tenant's fairness
//                      weight (requires --serve; default unlimited); the
//                      VBATCH_ADMISSION env var is the no-flag alternative
//                      and composes the full knob set
//     --help           print usage and exit
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/isa.hpp"
#include "vbatch/core/autotune.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/cpu/cpu_batched.hpp"
#include "vbatch/energy/energy_meter.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"
#include "vbatch/service/service.hpp"
#include "vbatch/sim/profile.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/thread_pool.hpp"

#include "cli_number.hpp"

namespace {

namespace cli = vbatch::cli;

struct CliOptions {
  int batch = 1000;
  int nmax = 256;
  vbatch::SizeDist dist = vbatch::SizeDist::Uniform;
  bool double_precision = true;
  std::string device = "k40c";
  std::string hetero;  ///< non-empty = heterogeneous pool description
  std::string inject_faults;  ///< non-empty = fault spec for the hetero pool
  int streams = 0;  ///< >0 = override stream slots on every pool executor
  double arena_gb = 0.0;  ///< >0 = staging-arena budget for every pool GPU
  vbatch::PotrfOptions potrf;
  bool tune = false;
  bool profile = false;
  bool energy = false;
  bool verify = false;
  int threads = 0;  // 0 = default (VBATCH_NUM_THREADS or hardware)
  std::uint64_t seed = 2016;
  // --- service mode (--serve) ---
  bool serve = false;
  std::string trace_file;       ///< request trace to replay (required by --serve)
  double latency_budget = 1e-3; ///< coalescing budget, seconds
  int max_batch = 0;            ///< matrices per merged launch (0 = unbounded)
  double max_footprint_gb = 0.0;  ///< payload cap per launch, GiB (0 = unbounded)
  std::string tenants;          ///< "name=weight,..." fairness overrides
  int max_queue = 0;            ///< >0 = admission queue-depth watermark
  double tenant_rate = 0.0;     ///< >0 = per-tenant token-bucket Gflop/s
};

[[noreturn]] void usage(const char* argv0, int exit_code) {
  std::printf("usage: %s [--batch N] [--nmax N] [--dist uniform|gaussian|skewed|cluster]\n"
              "          [--precision s|d] [--device k40c|p100] [--hetero cpu,k40c:4streams:2gb,...]\n"
              "          [--inject-faults SPEC] [--streams N] [--arena-gb X]\n"
              "          [--path auto|fused|separated]\n"
              "          [--etm classic|aggressive] [--no-sort] [--tune]\n"
              "          [--isa scalar|sse2|neon|avx2|avx512]\n"
              "          [--profile] [--energy] [--verify] [--threads N] [--seed N]\n"
              "          [--serve --trace FILE [--latency-budget S] [--max-batch N]\n"
              "           [--max-footprint-gb X] [--tenants name=w,...]\n"
              "           [--max-queue N] [--tenant-rate G]] [--help]\n",
              argv0);
  std::exit(exit_code);
}

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--help") usage(argv[0], 0);
    if (arg == "--batch") o.batch = cli::number<int>(arg, next());
    else if (arg == "--nmax") o.nmax = cli::number<int>(arg, next());
    else if (arg == "--seed") o.seed = cli::number<std::uint64_t>(arg, next());
    else if (arg == "--dist") {
      const std::string v = next();
      if (v == "uniform") o.dist = vbatch::SizeDist::Uniform;
      else if (v == "gaussian") o.dist = vbatch::SizeDist::Gaussian;
      else if (v == "skewed") o.dist = vbatch::SizeDist::Skewed;
      else if (v == "cluster") o.dist = vbatch::SizeDist::Cluster;
      else usage(argv[0], 2);
    } else if (arg == "--isa") {
      const auto isa = vbatch::blas::micro::parse_isa(next());
      if (!isa) usage(argv[0], 2);
      const auto got = vbatch::blas::micro::set_isa(*isa);
      if (got != *isa)
        std::fprintf(stderr, "note: --isa %s not supported on this host, using %s\n",
                     to_string(*isa), to_string(got));
    } else if (arg == "--precision") {
      const std::string v = next();
      if (v == "s") o.double_precision = false;
      else if (v == "d") o.double_precision = true;
      else usage(argv[0], 2);
    } else if (arg == "--path") {
      const std::string v = next();
      if (v == "auto") o.potrf.path = vbatch::PotrfPath::Auto;
      else if (v == "fused") o.potrf.path = vbatch::PotrfPath::Fused;
      else if (v == "separated") o.potrf.path = vbatch::PotrfPath::Separated;
      else usage(argv[0], 2);
    } else if (arg == "--etm") {
      const std::string v = next();
      if (v == "classic") o.potrf.etm = vbatch::EtmMode::Classic;
      else if (v == "aggressive") o.potrf.etm = vbatch::EtmMode::Aggressive;
      else usage(argv[0], 2);
    } else if (arg == "--device") {
      o.device = next();
      if (o.device != "k40c" && o.device != "p100") usage(argv[0], 2);
    } else if (arg == "--hetero") o.hetero = next();
    else if (arg == "--inject-faults") o.inject_faults = next();
    else if (arg == "--streams") o.streams = cli::number<int>(arg, next());
    else if (arg == "--arena-gb") o.arena_gb = cli::number<double>(arg, next());
    else if (arg == "--no-sort") o.potrf.implicit_sorting = false;
    else if (arg == "--tune") o.tune = true;
    else if (arg == "--profile") o.profile = true;
    else if (arg == "--energy") o.energy = true;
    else if (arg == "--verify") o.verify = true;
    else if (arg == "--threads") o.threads = cli::number<int>(arg, next());
    else if (arg == "--serve") o.serve = true;
    else if (arg == "--trace") o.trace_file = next();
    else if (arg == "--latency-budget") o.latency_budget = cli::number<double>(arg, next());
    else if (arg == "--max-batch") o.max_batch = cli::number<int>(arg, next());
    else if (arg == "--max-footprint-gb") o.max_footprint_gb = cli::number<double>(arg, next());
    else if (arg == "--tenants") o.tenants = next();
    else if (arg == "--max-queue") o.max_queue = cli::number<int>(arg, next());
    else if (arg == "--tenant-rate") o.tenant_rate = cli::number<double>(arg, next());
    else usage(argv[0], 2);
  }
  if (o.batch < 1 || o.nmax < 1 || o.threads < 0 || o.streams < 0) usage(argv[0], 2);
  if (!o.inject_faults.empty() && o.hetero.empty()) {
    std::fprintf(stderr, "--inject-faults requires --hetero (faults target the pool)\n");
    std::exit(2);
  }
  if (o.streams > 0 && o.hetero.empty()) {
    std::fprintf(stderr, "--streams requires --hetero (streams belong to pool executors)\n");
    std::exit(2);
  }
  if (o.arena_gb != 0.0 && o.hetero.empty()) {
    std::fprintf(stderr, "--arena-gb requires --hetero (the arena belongs to pool GPUs)\n");
    std::exit(2);
  }
  if (o.arena_gb < 0.0) {
    std::fprintf(stderr, "--arena-gb must be positive (got %g)\n", o.arena_gb);
    std::exit(2);
  }
  if (o.serve && o.trace_file.empty()) {
    std::fprintf(stderr, "--serve requires --trace FILE (the request script to replay)\n");
    std::exit(2);
  }
  if (!o.serve && (!o.trace_file.empty() || !o.tenants.empty() || o.max_batch != 0 ||
                   o.max_footprint_gb != 0.0 || o.latency_budget != 1e-3 ||
                   o.max_queue != 0 || o.tenant_rate != 0.0)) {
    std::fprintf(stderr,
                 "--trace/--latency-budget/--max-batch/--max-footprint-gb/--tenants/"
                 "--max-queue/--tenant-rate require --serve\n");
    std::exit(2);
  }
  if (o.latency_budget < 0.0 || o.max_batch < 0 || o.max_footprint_gb < 0.0 ||
      o.max_queue < 0 || o.tenant_rate < 0.0) {
    std::fprintf(stderr,
                 "--latency-budget/--max-batch/--max-footprint-gb/--max-queue/"
                 "--tenant-rate must be >= 0\n");
    std::exit(2);
  }
  return o;
}

/// Parses the --tenants "name=weight,..." list (weights must parse and be
/// positive; duplicates rejected).
std::vector<std::pair<std::string, double>> parse_tenants(const std::string& list) {
  std::vector<std::pair<std::string, double>> weights;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string item =
        list.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? list.size() + 1 : comma + 1;
    const std::size_t eq = item.find('=');
    if (item.empty() || eq == 0 || eq == std::string::npos || eq + 1 >= item.size())
      vbatch::throw_error(vbatch::Status::InvalidArgument,
                          "--tenants expects name=weight pairs, got '" + item + "'");
    const std::string name = item.substr(0, eq);
    char* end = nullptr;
    const double w = std::strtod(item.c_str() + eq + 1, &end);
    if (end != item.c_str() + item.size() || !(w > 0.0))
      vbatch::throw_error(vbatch::Status::InvalidArgument,
                          "--tenants weight for '" + name + "' must be a positive number");
    for (const auto& [t, existing] : weights)
      if (t == name)
        vbatch::throw_error(vbatch::Status::InvalidArgument,
                            "--tenants lists '" + name + "' twice");
    weights.emplace_back(name, w);
  }
  return weights;
}

/// Applies --streams, --arena-gb and --inject-faults to a parsed pool and
/// prints the "faults:" line; returns false after reporting a bad fault spec.
bool configure_pool(vbatch::hetero::DevicePool& pool, const CliOptions& o) {
  if (o.streams > 0)
    for (int e = 0; e < pool.size(); ++e) pool.executor(e).set_streams(o.streams);
  if (o.arena_gb > 0.0)
    for (int e = 0; e < pool.size(); ++e)
      if (pool.executor(e).is_gpu()) pool.executor(e).set_arena_gb(o.arena_gb);
  if (o.inject_faults.empty()) return true;
  try {
    pool.set_faults(vbatch::fault::parse_fault_spec(o.inject_faults));
  } catch (const vbatch::Error& err) {
    std::fprintf(stderr, "--inject-faults %s: %s\n", o.inject_faults.c_str(), err.what());
    return false;
  }
  std::printf("faults:   %s\n", pool.faults().describe().c_str());
  return true;
}

/// --serve: replay the scripted trace through the service front-end on the
/// virtual-time clock and print the ServiceReport.
int run_serve(const CliOptions& o) {
  using namespace vbatch;
  namespace svc = vbatch::service;

  svc::Trace trace;
  try {
    trace = svc::load_trace(o.trace_file);
  } catch (const Error& err) {
    std::fprintf(stderr, "--trace %s: %s\n", o.trace_file.c_str(), err.what());
    return 2;
  }

  const std::string pool_desc = o.hetero.empty() ? o.device : o.hetero;
  hetero::DevicePool pool;
  try {
    pool = hetero::DevicePool::parse(pool_desc);
  } catch (const Error& err) {
    std::fprintf(stderr, "pool %s: %s\n", pool_desc.c_str(), err.what());
    return 2;
  }
  if (!configure_pool(pool, o)) return 2;

  svc::ServiceConfig cfg;
  cfg.coalesce.latency_budget = o.latency_budget;
  cfg.coalesce.max_batch = o.max_batch;
  cfg.coalesce.max_bytes = o.max_footprint_gb * 1024.0 * 1024.0 * 1024.0;
  cfg.hetero.potrf = o.potrf;
  cfg.mode = o.verify ? sim::ExecMode::Full : sim::ExecMode::TimingOnly;
  if (o.max_queue > 0 || o.tenant_rate > 0.0) {
    cfg.admission.enabled = true;
    cfg.admission.max_queue = o.max_queue;
    cfg.admission.tenant_rate_gflops = o.tenant_rate;
  }
  if (!o.tenants.empty()) {
    try {
      cfg.tenant_weights = parse_tenants(o.tenants);
    } catch (const Error& err) {
      std::fprintf(stderr, "%s\n", err.what());
      return 2;
    }
  }

  std::printf("serve:    %d requests from %s on pool %s (%s mode)\n", trace.count(),
              o.trace_file.c_str(), pool.describe().c_str(),
              o.verify ? "Full numerics" : "TimingOnly");
  std::printf("coalesce: budget %g s, max-batch %s, max-footprint %s\n", o.latency_budget,
              o.max_batch > 0 ? std::to_string(o.max_batch).c_str() : "unbounded",
              o.max_footprint_gb > 0.0 ? (std::to_string(o.max_footprint_gb) + " GiB").c_str()
                                       : "unbounded");
  if (cfg.admission.enabled)
    std::printf("admit:    max-queue %s, tenant-rate %s\n",
                o.max_queue > 0 ? std::to_string(o.max_queue).c_str() : "unbounded",
                o.tenant_rate > 0.0 ? (std::to_string(o.tenant_rate) + " Gflop/s").c_str()
                                    : "unlimited");
  svc::ServiceReport report;
  try {
    report = svc::replay_trace(pool, trace, cfg);
  } catch (const Error& err) {
    std::fprintf(stderr, "serve: %s\n", err.what());
    return 2;
  }
  report.print(std::cout);
  if (report.failed > 0 || report.poisoned > 0)
    std::printf("note: %d failed, %d poisoned request(s) — see the info arrays\n",
                report.failed, report.poisoned);
  return 0;
}

template <typename T>
int run(const CliOptions& o) {
  using namespace vbatch;
  Rng rng(o.seed);
  const auto sizes = make_sizes(o.dist, rng, o.batch, o.nmax);
  const auto stats = size_stats(sizes);
  std::printf("workload: %d matrices, %s sizes in [%d, %d], mean %.1f\n", o.batch,
              to_string(o.dist), stats.min, stats.max, stats.mean);

  // --device selects the simulated GPU *and* the matching power model, so
  // --energy compares like with like on either architecture.
  const bool p100 = o.device == "p100";
  const sim::DeviceSpec spec = p100 ? sim::DeviceSpec::p100() : sim::DeviceSpec::k40c();
  const energy::PowerModel gpu_power =
      p100 ? energy::PowerModel::p100() : energy::PowerModel::k40c();

  Queue q(spec, o.verify ? sim::ExecMode::Full : sim::ExecMode::TimingOnly);
  std::printf("device:   %s (%s mode)\n", q.spec().name.c_str(),
              o.verify ? "Full numerics" : "TimingOnly");

  PotrfOptions opts = o.potrf;
  if (o.tune) {
    // Host BLAS first: load the persisted per-(host, ISA) profile when one
    // exists, otherwise sweep the cache-derived candidates and save it.
    BlasTuneSettings bts;
    bts.verbose = true;
    const BlasTuneResult bt = ensure_blas_tuned(bts);
    std::printf("blas tune: isa=%s, profile %s (%s)\n",
                to_string(blas::micro::active_isa()),
                bt.loaded_from_cache ? "loaded from cache, sweep skipped"
                                     : "swept and saved",
                bt.cache_path.c_str());
    const auto tuned = autotune_potrf<T>(q, sizes);
    std::printf("autotune: %zu candidates\n", tuned.candidates.size());
    for (const auto& c : tuned.candidates) std::printf("  %s\n", c.describe().c_str());
    opts = tuned.best;
    std::printf("selected: %.1f Gflop/s configuration\n", tuned.best_gflops);
  }

  Batch<T> batch(q, sizes);
  std::vector<std::vector<T>> originals;
  if (o.verify) {
    batch.fill_spd(rng);
    for (int i = 0; i < batch.count(); ++i) originals.push_back(batch.copy_matrix(i));
  }

  hetero::DevicePool pool;
  if (!o.hetero.empty()) {
    try {
      pool = hetero::DevicePool::parse(o.hetero);
    } catch (const vbatch::Error& err) {
      std::fprintf(stderr, "--hetero %s: %s\n", o.hetero.c_str(), err.what());
      return 2;
    }
    if (!configure_pool(pool, o)) return 2;
    std::printf("pool:     %s\n", pool.describe().c_str());
    hetero::HeteroOptions hopts;
    hopts.potrf = opts;
    const auto hr = hetero::potrf_vbatched_hetero<T>(pool, Uplo::Lower, batch, hopts);
    std::printf(
        "potrf_vbatched_hetero: path=%s  %.3f Gflop  %.3f ms  ->  %.1f Gflop/s"
        "  (%d chunks, %d stolen)\n",
        to_string(hr.path_taken), hr.flops * 1e-9, hr.seconds * 1e3, hr.gflops(), hr.chunks,
        hr.steals);
    for (const auto& ex : hr.executors) {
      std::printf("  %-10s %4d matrices  %2d chunks (%d stolen)  busy %8.3f ms  %7.1f Gflop/s"
                  "%s%s",
                  ex.name.c_str(), ex.matrices, ex.chunks, ex.stolen, ex.busy_seconds * 1e3,
                  ex.busy_seconds > 0.0 ? ex.flops / ex.busy_seconds * 1e-9 : 0.0,
                  ex.retries > 0 ? "  [retries]" : "", ex.lost ? "  [LOST]" : "");
      if (ex.streams > 1)
        std::printf("  [%d streams, %.2fx overlap]", ex.streams, ex.overlap);
      if (ex.streamed) {
        // Staging traffic and how much of it the double buffering hid: the
        // pipeline ratio is (compute + copies) / wall span of the pipeline.
        const double moved = ex.busy_seconds + ex.h2d_seconds + ex.d2h_seconds;
        std::printf("  [h2d %.1f MB, d2h %.1f MB, pipeline %.2fx]", ex.h2d_bytes / 1e6,
                    ex.d2h_bytes / 1e6,
                    ex.pipeline_seconds > 0.0 ? moved / ex.pipeline_seconds : 1.0);
      }
      std::printf("\n");
    }
    if (hr.h2d_bytes > 0.0)
      std::printf("staging:  %.1f MB h2d + %.1f MB d2h streamed out-of-core\n",
                  hr.h2d_bytes / 1e6, hr.d2h_bytes / 1e6);
    if (hr.retries > 0 || hr.executors_lost > 0 || hr.chunks_poisoned > 0)
      std::printf("recovery: %d retries (%.3f ms backoff), %d hangs, %d executors lost, "
                  "%d chunks poisoned\n",
                  hr.retries, hr.backoff_seconds * 1e3, hr.hangs, hr.executors_lost,
                  hr.chunks_poisoned);
    if (o.energy)
      std::printf("pool energy: %.2f J over %.3f ms (%.1f W avg)\n", hr.energy.joules,
                  hr.energy.seconds * 1e3, hr.energy.avg_watts());
  } else {
    const PotrfResult r = potrf_vbatched<T>(q, Uplo::Lower, batch, opts);
    std::printf("potrf_vbatched: path=%s  %.3f Gflop  %.3f ms  ->  %.1f Gflop/s\n",
                to_string(r.path_taken), r.flops * 1e-9, r.seconds * 1e3, r.gflops());
  }

  if (o.verify) {
    double worst = 0.0;
    for (int i = 0; i < batch.count(); ++i) {
      if (batch.info()[static_cast<std::size_t>(i)] != 0) {
        std::printf("FAILED: matrix %d info=%d\n", i, batch.info()[static_cast<std::size_t>(i)]);
        return 1;
      }
      const int n = sizes[static_cast<std::size_t>(i)];
      if (n == 0) continue;
      ConstMatrixView<T> orig(originals[static_cast<std::size_t>(i)].data(), n, n, n);
      worst = std::max(worst, blas::potrf_residual<T>(Uplo::Lower, orig, batch.matrix(i)));
    }
    std::printf("verify:   worst residual %.2e\n", worst);
  }

  if (o.profile) {
    if (!o.hetero.empty()) {
      for (int e = 0; e < pool.size(); ++e) {
        if (!pool.executor(e).is_gpu()) continue;
        std::printf("\nkernel profile (%s):\n", pool.executor(e).name().c_str());
        sim::print_profile(
            std::cout, sim::profile_timeline(pool.executor(e).queue().device().timeline()));
      }
    } else {
      std::printf("\nkernel profile:\n");
      sim::print_profile(std::cout, sim::profile_timeline(q.device().timeline()));
    }
  }

  if (o.energy && o.hetero.empty()) {
    const auto gpu_e = energy::gpu_run_energy(q.spec(), gpu_power,
                                              energy::PowerModel::dual_e5_2670(),
                                              q.device().timeline(), precision_v<T>);
    const auto cpu_spec = cpu::CpuSpec::dual_e5_2670();
    std::vector<int> lda(sizes.begin(), sizes.end());
    std::vector<int> info(sizes.size(), 0);
    std::vector<T*> null_ptrs(sizes.size(), nullptr);
    const auto cpu_r = cpu::potrf_batched_per_core<T>(cpu_spec, cpu::Schedule::Dynamic,
                                                      Uplo::Lower, sizes, null_ptrs.data(), lda,
                                                      info, false);
    const auto cpu_e = energy::cpu_run_energy(energy::PowerModel::dual_e5_2670(),
                                              energy::PowerModel::k40c(), cpu_r.seconds,
                                              cpu_r.gflops(),
                                              cpu_spec.total_peak_gflops(precision_v<T>));
    std::printf("\nenergy to solution: GPU %.2f J (%.1f W avg)  vs  best CPU %.2f J  ->  %.2fx\n",
                gpu_e.joules, gpu_e.avg_watts(), cpu_e.joules, cpu_e.joules / gpu_e.joules);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions o = parse(argc, argv);
  // Resolve the host pool size up front: a malformed VBATCH_NUM_THREADS
  // exits 2 with its name instead of aborting mid-run.
  try {
    if (o.threads > 0)
      vbatch::util::set_host_threads(static_cast<unsigned>(o.threads));
    else
      (void)vbatch::util::host_threads();
  } catch (const vbatch::Error& err) {
    std::fprintf(stderr, "vbatch_cli: %s\n", err.what());
    return 2;
  }
  if (o.serve) return run_serve(o);
  return o.double_precision ? run<double>(o) : run<float>(o);
}
