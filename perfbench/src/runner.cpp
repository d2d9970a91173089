// perfbench_runner — the repository benchmark's workload runner (NOTES.md).
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans FILE]
//
// Generates the workload's request trace from the seed, hands the program
// only the trace text, replays it through vbatch::service for S seconds and
// prints one JSON result line last. --trace 0 reports the end-to-end
// metrics (host wall clock and modelled virtual time). --trace 1 re-executes
// every merged launch of the replay through the modules' public calls, each
// wrapped in a span recorded here (nothing inside the library is
// instrumented), and reports the per-layer metrics; --spans writes the span
// log as JSON lines at exit.
//
// Every run checks its outputs; a failed check counts in "failed" and makes
// the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "vbatch/blas/tuning.hpp"
#include "vbatch/core/batch.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/hetero/executor.hpp"
#include "vbatch/service/service.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/rng.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace {

using namespace vbatch;
namespace svc = vbatch::service;
using perfbench::Metric;
using perfbench::SpanLog;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  svc::TraceGenConfig gen;  ///< seed is taken from --seed
  std::string pool;
  svc::ServiceConfig cfg;
  /// TimingOnly workloads run no numerics; the traced run factors this many
  /// of their launches in Full mode so the kernels layer is still measured
  /// on the workload's launch shapes. 0 for Full workloads (every launch is
  /// factored there).
  int kernels_sample = 0;
};

Workload replay_full() {
  Workload w;
  w.name = "replay_full";
  w.gen.count = 2000;
  w.gen.tenants = 4;
  w.gen.nmax = 128;
  w.gen.max_matrices = 16;
  w.pool = "cpu,k40c,p100";
  w.cfg.mode = sim::ExecMode::Full;
  w.cfg.coalesce.latency_budget = 1e-3;
  return w;
}

Workload replay_overload() {
  Workload w;
  w.name = "replay_overload";
  w.gen.count = 20000;
  w.gen.tenants = 8;
  w.gen.nmax = 256;
  w.gen.max_matrices = 16;
  w.gen.burst = 3.0;
  w.gen.deadline_frac = 0.25;
  w.gen.deadline_seconds = 2e-3;
  w.pool = "cpu,k40c,p100:4streams";
  w.cfg.mode = sim::ExecMode::TimingOnly;
  w.cfg.coalesce.latency_budget = 1e-3;
  w.cfg.admission.enabled = true;
  w.cfg.admission.max_queue = 192;
  w.cfg.admission.tenant_rate_gflops = 100.0;
  w.kernels_sample = 2;
  return w;
}

bool full_mode(const Workload& w) { return w.cfg.mode == sim::ExecMode::Full; }

// ---------------------------------------------------------------------------
// Set-up: thread pool, tuning profile, device pool, trace text, warm-up
// ---------------------------------------------------------------------------

/// A fresh pool per replay: the executors' device clocks carry over from
/// one call to the next, and the modelled seconds of a launch are only
/// bit-reproducible from the same clock history (NOTES.md, "Findings").
hetero::DevicePool fresh_pool(const Workload& w) { return hetero::DevicePool::parse(w.pool); }

struct Prepared {
  svc::Trace trace;
  double parse_seconds = 0.0;
};

void use_threads(unsigned threads) {
  util::set_host_threads(threads);
  (void)util::host_pool();  // (re)build the workers outside any timed window
}

Prepared set_up(const Workload& w, std::uint64_t seed, unsigned threads) {
  use_threads(threads);
  blas::micro::reset_tuning_profile();
  (void)blas::micro::active_profile();
  Prepared p;
  hetero::DevicePool pool = fresh_pool(w);

  svc::TraceGenConfig gen = w.gen;
  gen.seed = seed;
  const std::string text = svc::format_trace(svc::make_trace(gen));
  const auto t0 = Clock::now();
  p.trace = svc::parse_trace(text);
  p.parse_seconds = since(t0);

  // Warm-up: a replay of the first 5% of the trace fills caches and the
  // allocator before anything is timed.
  svc::Trace head;
  head.tenants = p.trace.tenants;
  head.requests.assign(p.trace.requests.begin(),
                       p.trace.requests.begin() + std::max(1, p.trace.count() / 20));
  (void)svc::replay_trace(pool, head, w.cfg);
  return p;
}

// ---------------------------------------------------------------------------
// Model fingerprint: the report values that must be bit-identical on every
// replay of one trace, whatever the host thread count.
// ---------------------------------------------------------------------------

struct ModelFingerprint {
  double makespan, flops, joules, goodput_flops, p50, p99, launch_seconds;
  int batches, accepted, shed, expired;
};

ModelFingerprint fingerprint(const svc::ServiceReport& r) {
  double launch_seconds = 0.0;
  for (const auto& b : r.batch_log) launch_seconds += b.seconds;
  return {r.makespan, r.flops, r.joules, r.goodput_flops, r.p50_latency, r.p99_latency,
          launch_seconds, r.batches, r.accepted, r.shed, r.expired};
}

bool same_bits(const ModelFingerprint& a, const ModelFingerprint& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Latencies of accepted (launched) requests: complete - submit, or
/// dispatch - submit for the queue-wait split.
std::vector<double> accepted_samples(const svc::ServiceReport& r, bool wait_only) {
  std::vector<double> v;
  for (const auto& o : r.outcomes)
    if (o.batch_id >= 0) v.push_back(wait_only ? o.queue_delay() : o.latency());
  return v;
}

// ---------------------------------------------------------------------------
// Launch reconstruction: each merged launch rebuilt from the report
// (RequestOutcome::batch_id, requests in admission order) plus the trace.
// ---------------------------------------------------------------------------

struct Launch {
  const svc::BatchRecord* record = nullptr;
  std::vector<const svc::Request*> requests;
  std::vector<int> sizes;
};

/// Counts a failed check and names it on stderr.
struct Checks {
  std::int64_t failed = 0;
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
};

std::vector<Launch> reconstruct(const svc::ServiceReport& r, const svc::Trace& trace,
                                Checks& checks) {
  std::map<std::uint64_t, const svc::Request*> by_id;
  for (const auto& req : trace.requests) by_id[req.id] = &req;
  std::vector<Launch> launches(r.batch_log.size());
  for (std::size_t i = 0; i < launches.size(); ++i) launches[i].record = &r.batch_log[i];
  for (const auto& o : r.outcomes) {
    if (o.batch_id < 0) continue;
    Launch& l = launches.at(static_cast<std::size_t>(o.batch_id));
    const svc::Request* req = by_id.at(o.id);
    l.requests.push_back(req);
    l.sizes.insert(l.sizes.end(), req->sizes.begin(), req->sizes.end());
  }
  for (const Launch& l : launches) {
    const auto& b = *l.record;
    checks.expect(b.id == &b - r.batch_log.data() &&
                      static_cast<int>(l.requests.size()) == b.requests &&
                      static_cast<int>(l.sizes.size()) == b.matrices,
                  "launch " + std::to_string(b.id) + " does not rebuild from the report");
    // The workloads generate double-precision potrf requests only; the
    // re-execution below replays exactly that launch shape.
    checks.expect(b.key.op == svc::Op::Potrf && b.key.prec == Precision::Double,
                  "launch " + std::to_string(b.id) + " is not a double potrf launch");
  }
  return launches;
}

/// The host queue the service builds a merged batch on: the pool's first
/// GPU's spec (K40c for CPU-only pools).
sim::DeviceSpec host_spec(const hetero::DevicePool& pool) {
  for (int i = 0; i < pool.size(); ++i)
    if (pool.executor(i).is_gpu())
      return static_cast<const hetero::GpuExecutor&>(pool.executor(i)).spec();
  return sim::DeviceSpec::k40c();
}

/// Fills a Full-mode batch the way the service does: each request from its
/// own payload seed, sequentially over its own matrices.
void fill_payloads(Batch<double>& batch, const Launch& l) {
  int k = 0;
  for (const svc::Request* r : l.requests) {
    Rng rng(r->payload_seed());
    for (std::size_t j = 0; j < r->sizes.size(); ++j, ++k) {
      MatrixView<double> v = batch.matrix(k);
      fill_spd(rng, v.data(), v.rows(), v.ld());
    }
  }
}

/// Residual of a Cholesky factor against its matrix, probed with a fixed
/// vector x (Freivalds' check, O(n^2) instead of forming L*L^T):
/// max|A*x - L*(L^T*x)| / max|A*x|. `l` holds L in its lower triangle.
double probe_residual(const double* a, const double* l, index_t n, index_t ld) {
  std::vector<double> x(static_cast<std::size_t>(n)), y(x.size(), 0.0), llx(x.size(), 0.0),
      ax(x.size(), 0.0);
  for (index_t i = 0; i < n; ++i) x[i] = 1.0 + 0.125 * static_cast<double>(i % 7);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) y[j] += l[i + j * ld] * x[i];
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) llx[i] += l[i + j * ld] * y[j];
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ax[i] += a[i + j * ld] * x[j];
  double err = 0.0, scale = 0.0;
  for (index_t i = 0; i < n; ++i) {
    err = std::max(err, std::fabs(ax[i] - llx[i]));
    scale = std::max(scale, std::fabs(ax[i]));
  }
  return err / scale;
}

/// Request id -> digest of its factor bytes, column-major, matrix by matrix.
using Digests = std::map<std::uint64_t, std::uint64_t>;

/// Checks every factor of a Full launch against its regenerated payload and
/// records one digest per request.
void check_factors(Batch<double>& batch, const Launch& l, Checks& checks, Digests& digests) {
  const auto info = batch.info();
  int k = 0;
  for (const svc::Request* r : l.requests) {
    Rng rng(r->payload_seed());
    std::uint64_t h = perfbench::digest(nullptr, 0);
    for (std::size_t j = 0; j < r->sizes.size(); ++j, ++k) {
      const MatrixView<double> f = batch.matrix(k);
      std::vector<double> a(static_cast<std::size_t>(f.ld() * f.cols()));
      fill_spd(rng, a.data(), f.rows(), f.ld());
      const double res = info[static_cast<std::size_t>(k)] == 0
                             ? probe_residual(a.data(), f.data(), f.rows(), f.ld())
                             : INFINITY;
      checks.expect(res < 1e-10, "request " + std::to_string(r->id) + " matrix " +
                                     std::to_string(j) + " residual " + std::to_string(res));
      for (index_t c = 0; c < f.cols(); ++c)
        h = perfbench::digest(f.data() + c * f.ld(), sizeof(double) * f.rows(), h);
    }
    digests[r->id] = h;
  }
}

/// The program's own output: one untimed replay of the trace with
/// keep_payloads on. Its model metrics must match the timed replays', every
/// factor it returns must pass the probe residual against the payload
/// regenerated here from the request's payload seed, and the result is one
/// digest per accepted request.
Digests program_factors(const Workload& w, const svc::Trace& trace, const ModelFingerprint& ref,
                        Checks& checks) {
  svc::ServiceConfig cfg = w.cfg;
  cfg.keep_payloads = true;
  hetero::DevicePool pool = fresh_pool(w);
  svc::ServiceReport r = svc::replay_trace(pool, trace, cfg);
  checks.expect(same_bits(fingerprint(r), ref), "model metrics differ with keep_payloads on");
  std::map<std::uint64_t, const svc::Request*> by_id;
  for (const auto& req : trace.requests) by_id[req.id] = &req;
  Digests digests;
  for (auto& o : r.outcomes) {
    if (o.batch_id < 0) continue;
    const svc::Request& req = *by_id.at(o.id);
    const std::string who = "request " + std::to_string(o.id);
    checks.expect(o.factors.size() == req.sizes.size(), who + " returned no factor bytes");
    Rng rng(req.payload_seed());
    std::uint64_t h = perfbench::digest(nullptr, 0);
    for (std::size_t j = 0; j < o.factors.size() && j < req.sizes.size(); ++j) {
      const index_t n = req.sizes[j];
      const auto& bytes = o.factors[j];
      std::vector<double> a(static_cast<std::size_t>(n * n)), f(a.size());
      fill_spd(rng, a.data(), n, n);
      const bool whole = bytes.size() == sizeof(double) * f.size();
      if (whole) std::memcpy(f.data(), bytes.data(), bytes.size());
      const double res = whole ? probe_residual(a.data(), f.data(), n, n) : INFINITY;
      checks.expect(res < 1e-10, who + " matrix " + std::to_string(j) +
                                     " program factor residual " + std::to_string(res));
      h = perfbench::digest(bytes.data(), bytes.size(), h);
    }
    digests[o.id] = h;
    std::vector<std::vector<unsigned char>>().swap(o.factors);
  }
  return digests;
}

/// Totals of one re-execution pass over every launch.
struct ReexecTotals {
  double flops = 0.0, joules = 0.0;
  int chunks = 0, steals = 0;
  std::vector<double> busy;           ///< per executor, summed over launches
  double overlap_weighted = 0.0;      ///< Σ busy × overlap
  std::int64_t kernels = 0, blocks = 0, early_exits = 0;
  /// Kernels layer: Full − TimingOnly hetero wall over the launches that ran
  /// in both modes, and those launches' flops.
  double numerics_seconds = 0.0, numerics_flops = 0.0;
  int numerics_launches = 0;
  Digests digests;                     ///< per request (Full only)
  std::vector<double> run_walls;       ///< hetero.run wall per launch
};

/// The workload-mode re-execution must reproduce the report bit for bit.
/// The cross-mode attribution passes (TimingOnly timing of a Full launch and
/// the reverse) are held to 1e-9 relative: the two modes disagree in the
/// last bits on some launches (NOTES.md, "Findings").
void expect_seconds(Checks& checks, const hetero::HeteroResult& hr, const Launch& l,
                    const char* what, bool exact) {
  const double want = l.record->seconds;
  const bool ok = exact ? std::memcmp(&hr.seconds, &want, sizeof(double)) == 0
                        : std::fabs(hr.seconds - want) <= 1e-9 * want;
  char msg[160];
  std::snprintf(msg, sizeof msg,
                "%s re-execution of launch %d modelled %.17g s, report says %.17g s", what,
                l.record->id, hr.seconds, want);
  checks.expect(ok, msg);
}

std::unique_ptr<SpanLog::Scope> span(SpanLog* log, const char* name) {
  return log ? std::make_unique<SpanLog::Scope>(*log, name) : nullptr;
}

/// Re-executes `launches` in order on a fresh pool in the workload's mode,
/// as the replay ran them (Batch build + payload fill, then the pool
/// launch), and checks each launch's modelled seconds against its
/// BatchRecord bit for bit. With `factors`, every Full factor is checked too;
/// the check evicts the caches between launches, so traced passes after the
/// first skip it. With a span log, both calls are wrapped in spans.
ReexecTotals reexecute(const Workload& w, const std::vector<Launch>& launches, SpanLog* log,
                       Checks& checks, bool factors) {
  hetero::DevicePool pool = fresh_pool(w);
  ReexecTotals t;
  t.busy.assign(static_cast<std::size_t>(pool.size()), 0.0);
  const sim::DeviceSpec spec = host_spec(pool);
  const bool full = full_mode(w);
  for (const Launch& l : launches) {
    auto launch_span = span(log, "launch");
    Queue q(spec, w.cfg.mode);
    std::unique_ptr<Batch<double>> batch;
    {
      auto s = span(log, "util.fill");
      batch = std::make_unique<Batch<double>>(q, l.sizes);
      if (full) fill_payloads(*batch, l);
    }
    hetero::HeteroResult hr;
    {
      const auto t0 = Clock::now();
      auto s = span(log, "hetero.run");
      hr = hetero::potrf_vbatched_hetero<double>(pool, w.cfg.uplo, *batch, w.cfg.hetero);
      t.run_walls.push_back(since(t0));
    }
    expect_seconds(checks, hr, l, full ? "Full" : "TimingOnly", true);
    t.flops += hr.flops;
    t.joules += hr.energy.joules;
    t.chunks += hr.chunks;
    t.steals += hr.steals;
    for (std::size_t e = 0; e < hr.executors.size() && e < t.busy.size(); ++e) {
      t.busy[e] += hr.executors[e].busy_seconds;
      t.overlap_weighted += hr.executors[e].busy_seconds * hr.executors[e].overlap;
    }
    if (full && factors) check_factors(*batch, l, checks, t.digests);
  }
  return t;
}

/// Attribution passes over the launches `reexecute` ran, in a loop of their
/// own so they do not disturb its timings: each launch in the other mode
/// (TimingOnly for Full workloads; Full for the first `kernels_sample`
/// launches of TimingOnly ones), which gives the kernels layer's numerics
/// time, and on a single simulated device, which gives the core and sim
/// layers. The cross-mode pass runs on its own fresh pool, so it sees the
/// same launch sequence as the replay.
void attribute(const Workload& w, const std::vector<Launch>& launches, SpanLog& log,
               Checks& checks, ReexecTotals& t) {
  hetero::DevicePool pool = fresh_pool(w);
  const sim::DeviceSpec spec = host_spec(pool);
  const bool full = full_mode(w);
  const std::size_t cross = full ? launches.size()
                                 : std::min(launches.size(),
                                            static_cast<std::size_t>(w.kernels_sample));
  for (std::size_t li = 0; li < launches.size(); ++li) {
    const Launch& l = launches[li];
    auto launch_span = span(&log, "attribute");
    if (li < cross) {
      Queue oq(spec, full ? sim::ExecMode::TimingOnly : sim::ExecMode::Full);
      Batch<double> ob(oq, l.sizes);
      if (!full) fill_payloads(ob, l);
      const auto t0 = Clock::now();
      hetero::HeteroResult hr;
      {
        auto s = span(&log, full ? "hetero.timing" : "kernels.sample");
        hr = hetero::potrf_vbatched_hetero<double>(pool, w.cfg.uplo, ob, w.cfg.hetero);
      }
      const double other = since(t0);
      t.numerics_seconds += full ? t.run_walls[li] - other : other - t.run_walls[li];
      t.numerics_flops += hr.flops;
      ++t.numerics_launches;
      expect_seconds(checks, hr, l, full ? "TimingOnly" : "Full sample", false);
      if (!full) {
        Digests unused;
        check_factors(ob, l, checks, unused);
      }
    }
    Queue cq(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
    Batch<double> cb(cq, l.sizes);
    {
      auto s = span(&log, "core.timing");
      (void)potrf_vbatched<double>(cq, w.cfg.uplo, cb, w.cfg.hetero.potrf);
    }
    for (const auto& rec : cq.device().timeline().records()) {
      ++t.kernels;
      t.blocks += rec.grid_blocks;
      t.early_exits += rec.early_exits;
    }
  }
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_path;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

unsigned wide_threads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Requests that reached a launch but did not complete cleanly.
std::int64_t request_errors(const svc::ServiceReport& r) { return r.failed + r.poisoned; }

void check_report(const svc::ServiceReport& r, const svc::Trace& trace, Checks& checks) {
  checks.expect(r.requests == trace.count() && r.accepted + r.shed + r.expired == r.requests,
                "accepted + shed + expired != submitted");
}

Result run_end_to_end(const Workload& w, const Args& a) {
  const unsigned wide = wide_threads();
  // One set-up before the replays, then one after every round of them, so
  // the set-up median samples the host over the whole run like the replay
  // medians do. The later set-ups are timed and discarded.
  std::vector<double> setups;
  auto t0 = Clock::now();
  const Prepared p = set_up(w, a.seed, wide);
  setups.push_back(since(t0));

  Checks checks;
  std::int64_t attempted = 0, errors = 0;
  std::map<unsigned, std::vector<double>> walls;  // replay wall by host thread count
  svc::ServiceReport report;
  std::optional<ModelFingerprint> ref;
  const auto t_start = Clock::now();
  while (since(t_start) < a.seconds || walls.size() < (wide > 1 ? 2u : 1u)) {
    for (const unsigned threads : {wide, 1u}) {
      use_threads(threads);
      hetero::DevicePool pool = fresh_pool(w);
      t0 = Clock::now();
      report = svc::replay_trace(pool, p.trace, w.cfg);
      walls[threads].push_back(since(t0));
      attempted += report.requests;
      errors += request_errors(report);
      const ModelFingerprint fp = fingerprint(report);
      if (!ref) ref = fp;
      checks.expect(same_bits(fp, *ref), "model metrics differ between replays");
      if (wide == 1) break;
    }
    t0 = Clock::now();
    (void)set_up(w, a.seed, wide);
    setups.push_back(since(t0));
  }
  check_report(report, p.trace, checks);

  // Re-execute every launch: modelled seconds bit-exact. For Full workloads
  // the program's own factors, from a keep_payloads replay at N and at 1
  // host threads, must pass the residual check and equal the re-execution's
  // factors bit for bit.
  const auto launches = reconstruct(report, p.trace, checks);
  use_threads(wide);
  const auto reexec = reexecute(w, launches, nullptr, checks, true);
  if (full_mode(w)) {
    const Digests at_wide = program_factors(w, p.trace, *ref, checks);
    checks.expect(at_wide == reexec.digests,
                  "program factors differ from the re-executed launches' factors");
    use_threads(1);
    checks.expect(program_factors(w, p.trace, *ref, checks) == at_wide,
                  "program factors differ between 1 and " + std::to_string(wide) + " threads");
  }

  const auto latency = perfbench::nearest_rank(accepted_samples(report, false), 50.0);
  const auto tail = perfbench::nearest_rank(accepted_samples(report, false), 99.0);
  checks.expect(latency.value == report.p50_latency && tail.value == report.p99_latency,
                "nearest-rank percentiles disagree with the report");
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu replays at %u threads + %zu at 1 thread, "
                       "%zu set-ups, model p99 over %zu accepted requests\n",
               w.name.c_str(), static_cast<unsigned long long>(a.seed), walls[wide].size(), wide,
               walls[1].size(), setups.size(), tail.samples);

  for (const auto& [threads, v] : walls) {
    std::fprintf(stderr, "perfbench: replay walls at %u thread(s), s:", threads);
    for (double x : v) std::fprintf(stderr, " %.3f", x);
    std::fprintf(stderr, "\n");
  }
  const double med_wide = perfbench::median(walls[wide]);
  const double med_one = perfbench::median(walls[1]);
  Result res;
  res.attempted = attempted;
  res.failed = errors + checks.failed;
  res.correct = res.failed == 0;
  res.metrics = {
      {"setup_s", perfbench::median(setups), "s"},
      {"host_rps", report.requests / med_wide, "req/s"},
      {"host_rps_1t", report.requests / med_one, "req/s"},
      {"host_gflops", report.flops / med_wide * 1e-9, "Gflop/s"},
      {"model_p50_ms", latency.value * 1e3, "ms"},
      {"model_p99_ms", tail.value * 1e3, "ms"},
      {"model_goodput_gflops", report.goodput_gflops(), "Gflop/s"},
  };
  return res;
}

/// Cost of recording one span, measured on a scratch log.
double seconds_per_span() {
  SpanLog scratch;
  constexpr int kSpans = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) SpanLog::Scope s(scratch, "calibrate");
  return since(t0) / kSpans;
}

void write_spans(const std::vector<SpanLog>& passes, const std::string& path) {
  std::ofstream out(path);
  out.precision(12);  // microsecond spans over a run of up to a minute
  for (std::size_t p = 0; p < passes.size(); ++p)
    for (const auto& s : passes[p].spans())
      out << "{\"pass\": " << p << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
          << ", \"start\": " << s.start << ", \"end\": " << s.end << "}\n";
}

/// How far the re-executed spans may overrun the replay wall, as a share
/// of it, before service.self_s fails its check. On replay_full single
/// traced passes read -13% to +10% from host speed noise alone; the median
/// over a run's passes stayed above -2% at 50 s and -10% at 4 s.
constexpr double kSelfSlack = 0.10;

Result run_traced(const Workload& w, const Args& a) {
  const unsigned wide = wide_threads();
  Prepared p = set_up(w, a.seed, wide);
  Checks checks;
  std::int64_t attempted = 0, errors = 0;
  std::vector<double> replay_wall, fill, run, self, timing, core, numerics;
  std::vector<SpanLog> passes;
  svc::ServiceReport report;
  ReexecTotals totals;
  const auto t_start = Clock::now();
  while (since(t_start) < a.seconds || passes.empty()) {
    hetero::DevicePool pool = fresh_pool(w);
    const auto t0 = Clock::now();
    report = svc::replay_trace(pool, p.trace, w.cfg);
    replay_wall.push_back(since(t0));
    attempted += report.requests;
    errors += request_errors(report);

    SpanLog& log = passes.emplace_back();
    const auto launches = reconstruct(report, p.trace, checks);
    totals = reexecute(w, launches, &log, checks, passes.size() == 1);
    attribute(w, launches, log, checks, totals);
    fill.push_back(log.total("util.fill"));
    run.push_back(log.total("hetero.run"));
    // Self time of the service layer in this pass: the replay wall less the
    // re-executed work the replay itself performs (payload build + launch).
    self.push_back(perfbench::remainder(replay_wall.back(), {fill.back(), run.back()}));
    timing.push_back(log.total(full_mode(w) ? "hetero.timing" : "hetero.run"));
    core.push_back(log.total("core.timing"));
    numerics.push_back(totals.numerics_seconds / std::max(1, totals.numerics_launches));
  }
  check_report(report, p.trace, checks);
  if (!a.spans_path.empty()) write_spans(passes, a.spans_path);

  const double wall = perfbench::median(replay_wall);
  const double fill_s = perfbench::median(fill);
  const double timing_s = perfbench::median(timing);
  const double core_s = perfbench::median(core);
  const double numerics_s = perfbench::median(numerics);
  const double self_s = perfbench::median(self);
  // The re-executed launches must account for the replay wall: their spans
  // may overrun it only by timing noise, not by work the replay never did.
  char msg[160];
  std::snprintf(msg, sizeof msg, "service.self_s %.4g s is below -%.0f%% of the %.4g s replay",
                self_s, 100.0 * kSelfSlack, wall);
  checks.expect(self_s >= -kSelfSlack * wall, msg);
  double busy_sum = 0.0, busy_max = 0.0;
  for (double b : totals.busy) {
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  const double busy_mean =
      busy_sum / static_cast<double>(std::max<std::size_t>(1, totals.busy.size()));
  const auto wait = perfbench::nearest_rank(accepted_samples(report, true), 99.0);
  const double spans_per_pass = static_cast<double>(passes.back().spans().size());
  // The layer split of the replay wall, as medians of per-pass shares (the
  // shares of one pass add up to 100%).
  const auto share = [&](const std::vector<double>& part) {
    std::vector<double> v;
    for (std::size_t i = 0; i < part.size(); ++i) v.push_back(100.0 * part[i] / replay_wall[i]);
    return perfbench::median(v);
  };
  std::vector<double> numerics_total;
  for (std::size_t i = 0; i < run.size(); ++i)
    numerics_total.push_back(full_mode(w) ? run[i] - timing[i] : 0.0);
  std::fprintf(stderr,
               "perfbench: layer split of the %.3f s replay: util.fill %.1f%%, kernels numerics "
               "%.1f%%, hetero TimingOnly %.1f%%, service self %.1f%% (%zu traced passes)\n",
               wall, share(fill), share(numerics_total), share(timing), share(self),
               passes.size());

  Result res;
  res.attempted = attempted;
  res.failed = errors + checks.failed;
  res.correct = res.failed == 0;
  res.metrics = {
      {"service.parse_s", p.parse_seconds, "s"},
      {"service.self_s", self_s, "s"},
      {"service.launches", static_cast<double>(report.batches), "count"},
      {"service.coalescing", report.coalescing_ratio, "ratio"},
      {"service.model_wait_p99_ms", wait.value * 1e3, "ms"},
      {"service.shed_frac", static_cast<double>(report.shed + report.expired) / report.requests,
       "ratio"},
      {"util.fill_s", fill_s, "s"},
      {"hetero.timing_s", timing_s, "s"},
      {"hetero.replication", timing_s / core_s, "ratio"},
      {"hetero.chunks", static_cast<double>(totals.chunks), "count"},
      {"hetero.steals", static_cast<double>(totals.steals), "count"},
      {"hetero.imbalance", busy_mean > 0.0 ? busy_max / busy_mean : 0.0, "ratio"},
      {"hetero.overlap", busy_sum > 0.0 ? totals.overlap_weighted / busy_sum : 0.0, "ratio"},
      {"core.timing_s", core_s, "s"},
      {"kernels.numerics_s", numerics_s, "s"},
      {"kernels.host_gflops",
       totals.numerics_flops / std::max(1, totals.numerics_launches) / numerics_s * 1e-9,
       "Gflop/s"},
      {"sim.kernels", static_cast<double>(totals.kernels), "count"},
      {"sim.blocks", static_cast<double>(totals.blocks), "count"},
      {"sim.blocks_per_s", static_cast<double>(totals.blocks) / core_s, "1/s"},
      {"sim.idle_block_frac",
       totals.blocks > 0 ? static_cast<double>(totals.early_exits) / totals.blocks : 0.0,
       "ratio"},
      {"energy.model_gflop_per_j",
       totals.joules > 0.0 ? totals.flops / totals.joules * 1e-9 : 0.0, "Gflop/J"},
      {"trace.overhead_frac", spans_per_pass * seconds_per_span() / wall, "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return res;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload replay_full|replay_overload --seed N\n"
               "                        --seconds S --trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = val;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || val[0] == '-') usage("--seed must be a whole number");
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
    } else if (arg == "--spans") {
      a.spans_path = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0.0 || a.trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  Workload w;
  if (a.workload == "replay_full") w = replay_full();
  else if (a.workload == "replay_overload") w = replay_overload();
  else usage(("unknown workload " + a.workload).c_str());

  try {
    const Result r = a.trace ? run_traced(w, a) : run_end_to_end(w, a);
    for (const Metric& m : r.metrics)
      std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%s\n",
                perfbench::result_json(r.correct, r.attempted, r.failed, r.metrics).c_str());
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
