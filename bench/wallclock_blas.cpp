// wallclock_blas — host wall-clock benchmark for the BLAS micro-kernel
// engine (docs/blas.md).
//
// Part 1 measures Gflop/s for the level-3 kernels the library's hot paths
// use — gemm NN, gemm NT (the fused-step rank-k shape), syrk and trsm —
// over the paper's size range, three ways on identical inputs:
//
//   ref     the *_ref loops (micro::Dispatch::ForceRef);
//   scalar  the packed engine pinned to Isa::Scalar with the default
//           profile — exactly the pre-vectorization engine;
//   blk     the packed engine under the active ISA and profile.
//
// It also measures the small-order kernels (blas/small_kernels.hpp) at every
// --sizes entry n <= 128, reference loops (ForceRef) against the production
// dispatch (Auto): potf2 on an n×n diagonal block, and the panel trsm of an
// n×32 panel (ib = 32, the fused step's widest diagonal block).
//
// Three regression gates ride on the sweep (evaluated only when the bearing
// sizes are in --sizes, so trimmed runs stay cheap):
//   * NT vector gate — on a vector ISA, blk NT-gemm must be >= 2x the
//     scalar engine at every n in {128, 256, 384};
//   * NN n=512 gate — blk NN at 512 must hold >= 0.9x its n=384 rate (the
//     balanced NC split removed the historical tail dip; this keeps it out);
//   * small-order gate — where the active ISA has small-order kernels
//     (avx2, avx512), potf2 at n = 32 and the panel trsm at m = 96 must
//     each run >= 2x the reference loops.
//
// Part 2 measures the end-to-end Full-mode wall clock of a vbatched
// Cholesky run with the engine disabled (ForceRef) and enabled (Auto, the
// production policy) for every requested size distribution, and re-checks
// the factorization residual gate ‖A − L·Lᵀ‖_F / (n·‖A‖_F) on every matrix
// in both configurations.
//
// Output: a human-readable table on stdout plus one JSON line appended to
// BENCH_blas.json (override with --out). The run fails (non-zero exit) on a
// numerics problem or on a failed regression gate.
//
// Usage:
//   wallclock_blas [--sizes n1,n2,...] [--batch N] [--nmax N]
//                  [--dist uniform,gaussian,skewed,cluster] [--reps N]
//                  [--seed N] [--isa scalar|sse2|neon|avx2|avx512] [--tune]
//                  [--out FILE]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/microkernel.hpp"
#include "vbatch/core/autotune.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/util/flops.hpp"
#include "vbatch/util/rng.hpp"

namespace {

using namespace vbatch;

struct Options {
  std::vector<int> sizes{8, 16, 32, 64, 96, 128, 192, 256, 384, 512};
  int batch = 300;
  int nmax = 384;
  std::vector<SizeDist> dists{SizeDist::Uniform};
  int reps = 2;
  std::uint64_t seed = 2016;
  std::string out = "BENCH_blas.json";
  bool tune = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf("usage: %s [--sizes n1,n2,...] [--batch N] [--nmax N]\n"
              "          [--dist uniform,gaussian,skewed,cluster] [--reps N] [--seed N]\n"
              "          [--isa scalar|sse2|neon|avx2|avx512] [--tune] [--out FILE]\n",
              argv0);
  std::exit(2);
}

std::vector<int> parse_sizes(const std::string& csv) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                                       : comma - pos);
    out.push_back(std::atoi(tok.c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<SizeDist> parse_dists(const std::string& csv, const char* argv0) {
  std::vector<SizeDist> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                                       : comma - pos);
    if (tok == "uniform") out.push_back(SizeDist::Uniform);
    else if (tok == "gaussian") out.push_back(SizeDist::Gaussian);
    else if (tok == "skewed") out.push_back(SizeDist::Skewed);
    else if (tok == "cluster") out.push_back(SizeDist::Cluster);
    else usage(argv0);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--sizes") o.sizes = parse_sizes(next());
    else if (arg == "--batch") o.batch = std::atoi(next());
    else if (arg == "--nmax") o.nmax = std::atoi(next());
    else if (arg == "--reps") o.reps = std::atoi(next());
    else if (arg == "--seed") o.seed = static_cast<std::uint64_t>(std::atoll(next()));
    else if (arg == "--out") o.out = next();
    else if (arg == "--tune") o.tune = true;
    else if (arg == "--dist") o.dists = parse_dists(next(), argv[0]);
    else if (arg == "--isa") {
      const auto isa = blas::micro::parse_isa(next());
      if (!isa) usage(argv[0]);
      blas::micro::set_isa(*isa);
    } else usage(argv[0]);
  }
  if (o.batch < 1 || o.nmax < 1 || o.reps < 1 || o.sizes.empty() || o.dists.empty())
    usage(argv[0]);
  for (int n : o.sizes)
    if (n < 1) usage(argv[0]);
  return o;
}

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timing sample of `fn` (which must redo the full operation each call):
// seconds per call, averaged over enough calls to amount to ~5e7 flops.
template <typename F>
double time_op(double flops, F&& fn) {
  const int reps = std::clamp(static_cast<int>(5e7 / std::max(flops, 1.0)), 1, 20000);
  const double t0 = now_seconds();
  for (int r = 0; r < reps; ++r) fn();
  return (now_seconds() - t0) / reps;
}

struct KernelSeries {
  std::vector<double> ref_gflops;
  std::vector<double> scalar_gflops;  ///< packed engine, Isa::Scalar (PR 2 engine)
  std::vector<double> blk_gflops;     ///< packed engine, active ISA + profile
};

// Best seconds per call of each kernel under one configuration.
struct KernelBest {
  double nn = 1e300, nt = 1e300, sy = 1e300, tr = 1e300;
};

// The inputs of one sweep size and the best timings of its three
// configurations (ref, scalar anchor, blk).
struct SweepCase {
  index_t n;
  std::vector<double> a, b, c, tri, rhs0;
  double gemm_flops, syrk_flops, trsm_flops;
  KernelBest ref, scalar, blk;

  SweepCase(Rng& rng, int ni)
      : n(ni),
        a(static_cast<std::size_t>(n * n)),
        b(a.size()),
        c(a.size()),
        tri(a.size()),
        rhs0(a.size()),
        gemm_flops(flops::gemm(n, n, n)),
        syrk_flops(flops::syrk(n, n)),
        trsm_flops(flops::trsm(n, n, false)) {
    std::vector<double> c0(a.size());  // drawn only to keep the input stream fixed
    fill_general(rng, a.data(), n, n, n);
    fill_general(rng, b.data(), n, n, n);
    fill_general(rng, c0.data(), n, n, n);
    fill_general(rng, rhs0.data(), n, n, n);
    fill_general(rng, tri.data(), n, n, n);
    MatrixView<double> triv(tri.data(), n, n, n);
    for (index_t d = 0; d < n; ++d) triv(d, d) = 4.0 + static_cast<double>(d);
  }

  // One sample of all four kernels under the current pins, folded into `best`.
  void measure(KernelBest& best) {
    ConstMatrixView<double> av(a.data(), n, n, n);
    ConstMatrixView<double> bv(b.data(), n, n, n);
    ConstMatrixView<double> triv(tri.data(), n, n, n);
    MatrixView<double> cv(c.data(), n, n, n);
    best.nn = std::min(best.nn, time_op(gemm_flops, [&] {
      blas::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, av, bv, 0.0, cv);
    }));
    best.nt = std::min(best.nt, time_op(gemm_flops, [&] {
      blas::gemm<double>(Trans::NoTrans, Trans::Trans, 1.0, av, bv, 0.0, cv);
    }));
    best.sy = std::min(best.sy, time_op(syrk_flops, [&] {
      blas::syrk<double>(Uplo::Lower, Trans::NoTrans, 1.0, av, 0.0, cv);
    }));
    best.tr = std::min(best.tr, time_op(trsm_flops, [&] {
      c = rhs0;
      blas::trsm<double>(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, 1.0, triv, cv);
    }));
  }
};

// One small-order size n: potf2 of an n×n SPD block and the panel solve
// X·Lᵀ = B of an n×kIb panel, with each configuration's best seconds.
struct SmallCase {
  static constexpr index_t kIb = 32;
  index_t n;
  std::vector<double> spd, work, tri, rhs0, rhs;
  double potf2_flops, trsm_flops;
  struct Best {
    double potf2 = 1e300, trsm = 1e300;
  } ref, vec;

  SmallCase(Rng& rng, int ni)
      : n(ni),
        spd(static_cast<std::size_t>(n * n)),
        work(spd.size()),
        tri(static_cast<std::size_t>(kIb * kIb)),
        rhs0(static_cast<std::size_t>(n * kIb)),
        rhs(rhs0.size()),
        potf2_flops(flops::potrf(n)),
        trsm_flops(flops::trsm(n, kIb, false)) {
    fill_spd(rng, spd.data(), n, n);
    fill_general(rng, rhs0.data(), n, kIb, n);
    fill_general(rng, tri.data(), kIb, kIb, kIb);
    MatrixView<double> triv(tri.data(), kIb, kIb, kIb);
    for (index_t d = 0; d < kIb; ++d) triv(d, d) = 4.0 + static_cast<double>(d);
  }

  void measure(Best& best) {
    best.potf2 = std::min(best.potf2, time_op(potf2_flops, [&] {
      work = spd;
      (void)blas::potf2<double>(Uplo::Lower, MatrixView<double>(work.data(), n, n, n));
    }));
    best.trsm = std::min(best.trsm, time_op(trsm_flops, [&] {
      rhs = rhs0;
      blas::trsm<double>(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, 1.0,
                         ConstMatrixView<double>(tri.data(), kIb, kIb, kIb),
                         MatrixView<double>(rhs.data(), n, kIb, n));
    }));
  }
};

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.3f", v[i]);
    out += buf;
    if (i + 1 < v.size()) out += ",";
  }
  return out + "]";
}

std::string json_int_array(const std::vector<int>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += std::to_string(v[i]);
    if (i + 1 < v.size()) out += ",";
  }
  return out + "]";
}

struct E2eResult {
  double wall_seconds = 0.0;
  double max_residual = 0.0;
  bool info_clean = true;
};

E2eResult run_e2e(const Options& o, const std::vector<int>& sizes) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
  Batch<double> batch(q, sizes);
  E2eResult r;
  r.wall_seconds = 1e300;
  std::vector<std::vector<double>> originals;
  for (int rep = 0; rep < o.reps; ++rep) {
    Rng rng(o.seed + 1);
    batch.fill_spd(rng);
    if (rep == 0) {
      originals.clear();
      for (int i = 0; i < batch.count(); ++i) originals.push_back(batch.copy_matrix(i));
    }
    const double t0 = now_seconds();
    potrf_vbatched<double>(q, Uplo::Lower, batch);
    r.wall_seconds = std::min(r.wall_seconds, now_seconds() - t0);
  }
  for (int info : batch.info())
    if (info != 0) r.info_clean = false;
  for (int i = 0; i < batch.count(); ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    const auto factor = batch.copy_matrix(i);
    const auto& orig = originals[static_cast<std::size_t>(i)];
    const index_t ld = static_cast<index_t>(factor.size()) / n;
    r.max_residual = std::max(
        r.max_residual,
        blas::potrf_residual<double>(Uplo::Lower,
                                     ConstMatrixView<double>(orig.data(), n, n, ld),
                                     ConstMatrixView<double>(factor.data(), n, n, ld)));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.tune) {
    BlasTuneSettings ts;
    ts.verbose = true;
    const BlasTuneResult tr = ensure_blas_tuned(ts);
    std::printf("wallclock_blas: tuning profile %s (%s)\n",
                tr.loaded_from_cache ? "loaded" : "swept", tr.cache_path.c_str());
  }
  const blas::micro::Isa isa = blas::micro::active_isa();
  const bool vector_isa = isa != blas::micro::Isa::Scalar;

  std::printf("wallclock_blas: isa=%s, sizes", to_string(isa));
  for (int n : o.sizes) std::printf(" %d", n);
  std::printf(", e2e batch=%d nmax=%d, reps=%d\n", o.batch, o.nmax, o.reps);

  KernelSeries gemm_nn, gemm_nt, syrk_s, trsm_s;
  Rng rng(o.seed);
  std::vector<SweepCase> cases;
  cases.reserve(o.sizes.size());
  for (int n : o.sizes) cases.emplace_back(rng, n);
  // Own stream, so the level-3 series keep their historical inputs.
  Rng small_rng(o.seed + 2);
  std::vector<SmallCase> small;
  for (int n : o.sizes)
    if (n <= 128) small.emplace_back(small_rng, n);

  // The sweep runs --reps rounds over every size and configuration, and
  // each (size, configuration) keeps its best sample. Interleaving spreads
  // every best over the whole sweep, so a slow stretch of a shared host
  // costs each series one sample instead of costing one series all of its
  // samples, which would skew the ratios the gates compare (blk vs scalar
  // at one size, blk n=512 vs blk n=384).
  for (int round = 0; round < o.reps; ++round) {
    for (SweepCase& sc : cases) {
      {
        blas::micro::DispatchGuard guard(blas::micro::Dispatch::ForceRef);
        sc.measure(sc.ref);
      }
      {
        // The scalar anchor: Isa::Scalar with the default profile is exactly
        // the pre-vectorization engine. The outer ProfileGuard restores any
        // tuned profile once the IsaGuard has switched the ISA back.
        blas::micro::ProfileGuard pguard(blas::micro::active_profile());
        blas::micro::IsaGuard iguard(blas::micro::Isa::Scalar);
        blas::micro::DispatchGuard guard(blas::micro::Dispatch::ForceBlocked);
        sc.measure(sc.scalar);
      }
      {
        blas::micro::DispatchGuard guard(blas::micro::Dispatch::ForceBlocked);
        sc.measure(sc.blk);
      }
    }
    for (SmallCase& sc : small) {
      {
        blas::micro::DispatchGuard guard(blas::micro::Dispatch::ForceRef);
        sc.measure(sc.ref);
      }
      blas::micro::DispatchGuard guard(blas::micro::Dispatch::Auto);
      sc.measure(sc.vec);
    }
  }

  std::printf("  %5s | %28s | %28s | %28s | %28s\n", "n", "gemm NN ref/sc/blk Gf/s",
              "gemm NT ref/sc/blk Gf/s", "syrk ref/sc/blk Gf/s", "trsm ref/sc/blk Gf/s");
  for (const SweepCase& sc : cases) {
    auto record = [&](std::vector<double> KernelSeries::*member, const KernelBest& best) {
      (gemm_nn.*member).push_back(sc.gemm_flops / best.nn * 1e-9);
      (gemm_nt.*member).push_back(sc.gemm_flops / best.nt * 1e-9);
      (syrk_s.*member).push_back(sc.syrk_flops / best.sy * 1e-9);
      (trsm_s.*member).push_back(sc.trsm_flops / best.tr * 1e-9);
    };
    record(&KernelSeries::ref_gflops, sc.ref);
    record(&KernelSeries::scalar_gflops, sc.scalar);
    record(&KernelSeries::blk_gflops, sc.blk);
    auto row = [](const KernelSeries& s) {
      static char buf[64];
      std::snprintf(buf, sizeof buf, "%8.2f/%8.2f/%8.2f", s.ref_gflops.back(),
                    s.scalar_gflops.back(), s.blk_gflops.back());
      return std::string(buf);
    };
    std::printf("  %5d | %s | %s | %s | %s\n", static_cast<int>(sc.n), row(gemm_nn).c_str(),
                row(gemm_nt).c_str(), row(syrk_s).c_str(), row(trsm_s).c_str());
  }

  // Minimum double-precision gemm speedup over the n >= 64 sizes (the
  // acceptance band); the NT shape is the fused-step hot path.
  double min_speedup_nn = 1e300, min_speedup_nt = 1e300;
  for (std::size_t i = 0; i < o.sizes.size(); ++i) {
    if (o.sizes[i] < 64) continue;
    min_speedup_nn = std::min(min_speedup_nn, gemm_nn.blk_gflops[i] / gemm_nn.ref_gflops[i]);
    min_speedup_nt = std::min(min_speedup_nt, gemm_nt.blk_gflops[i] / gemm_nt.ref_gflops[i]);
  }
  if (min_speedup_nn > 1e299) min_speedup_nn = 0.0;
  if (min_speedup_nt > 1e299) min_speedup_nt = 0.0;

  // Gate 1: vectorized NT-gemm >= 2x the scalar engine at the gate sizes
  // (only meaningful on a vector ISA; vacuous when none of the sizes ran).
  constexpr int kVectorGateSizes[] = {128, 256, 384};
  double min_vector_ratio_nt = 1e300;
  for (std::size_t i = 0; i < o.sizes.size(); ++i) {
    if (std::find(std::begin(kVectorGateSizes), std::end(kVectorGateSizes), o.sizes[i]) ==
        std::end(kVectorGateSizes))
      continue;
    min_vector_ratio_nt =
        std::min(min_vector_ratio_nt, gemm_nt.blk_gflops[i] / gemm_nt.scalar_gflops[i]);
  }
  const bool vector_gate_ran = vector_isa && min_vector_ratio_nt < 1e299;
  const bool nt_vector_2x_ok = !vector_gate_ran || min_vector_ratio_nt >= 2.0;
  if (min_vector_ratio_nt > 1e299) min_vector_ratio_nt = 0.0;

  // Gate 2: the n=512 NN rate must hold >= 0.9x the n=384 rate — the
  // balanced NC split removed the historical tail dip; keep it out.
  double nn512_ratio = 0.0;
  bool nn512_ok = true;
  {
    const auto it384 = std::find(o.sizes.begin(), o.sizes.end(), 384);
    const auto it512 = std::find(o.sizes.begin(), o.sizes.end(), 512);
    if (it384 != o.sizes.end() && it512 != o.sizes.end()) {
      const auto i384 = static_cast<std::size_t>(it384 - o.sizes.begin());
      const auto i512 = static_cast<std::size_t>(it512 - o.sizes.begin());
      nn512_ratio = gemm_nn.blk_gflops[i512] / gemm_nn.blk_gflops[i384];
      nn512_ok = nn512_ratio >= 0.9;
    }
  }

  // Small-order rows, and gate 3: where the active ISA has small-order
  // kernels, potf2 at n = 32 and the panel trsm at m = 96 run >= 2x the
  // reference loops.
  std::vector<int> small_sizes;
  std::vector<double> potf2_ref, potf2_vec, trsm_panel_ref, trsm_panel_vec;
  double small_min_ratio = 1e300;
  if (!small.empty())
    std::printf("  %5s | %19s | %19s   (trsm: n x %d panel)\n", "n", "potf2 ref/vec Gf/s",
                "trsm ref/vec Gf/s", static_cast<int>(SmallCase::kIb));
  for (const SmallCase& sc : small) {
    small_sizes.push_back(static_cast<int>(sc.n));
    potf2_ref.push_back(sc.potf2_flops / sc.ref.potf2 * 1e-9);
    potf2_vec.push_back(sc.potf2_flops / sc.vec.potf2 * 1e-9);
    trsm_panel_ref.push_back(sc.trsm_flops / sc.ref.trsm * 1e-9);
    trsm_panel_vec.push_back(sc.trsm_flops / sc.vec.trsm * 1e-9);
    std::printf("  %5d | %8.2f/%8.2f | %8.2f/%8.2f\n", static_cast<int>(sc.n), potf2_ref.back(),
                potf2_vec.back(), trsm_panel_ref.back(), trsm_panel_vec.back());
    if (sc.n == 32) small_min_ratio = std::min(small_min_ratio, sc.ref.potf2 / sc.vec.potf2);
    if (sc.n == 96) small_min_ratio = std::min(small_min_ratio, sc.ref.trsm / sc.vec.trsm);
  }
  const bool small_gate_ran = (isa == blas::micro::Isa::Avx2 || isa == blas::micro::Isa::Avx512) &&
                              small_min_ratio < 1e299;
  const bool small_2x_ok = !small_gate_ran || small_min_ratio >= 2.0;
  if (small_min_ratio > 1e299) small_min_ratio = 0.0;

  // End-to-end Full-mode wall clock, engine off vs on, per distribution.
  struct E2ePoint {
    SizeDist dist;
    E2eResult ref, blk;
  };
  std::vector<E2ePoint> e2e;
  bool residual_ok = true;
  for (SizeDist dist : o.dists) {
    Rng size_rng(o.seed);
    const auto e2e_sizes = make_sizes(dist, size_rng, o.batch, o.nmax);
    E2ePoint pt;
    pt.dist = dist;
    {
      blas::micro::DispatchGuard guard(blas::micro::Dispatch::ForceRef);
      pt.ref = run_e2e(o, e2e_sizes);
    }
    {
      blas::micro::DispatchGuard guard(blas::micro::Dispatch::Auto);
      pt.blk = run_e2e(o, e2e_sizes);
    }
    constexpr double kResidualGate = 1e-8;
    if (pt.ref.max_residual >= kResidualGate || pt.blk.max_residual >= kResidualGate ||
        !pt.ref.info_clean || !pt.blk.info_clean)
      residual_ok = false;
    std::printf("  e2e %-8s: ref %.3f s, blocked %.3f s, speedup %.2fx, "
                "max residual %.2e/%.2e\n",
                to_string(dist), pt.ref.wall_seconds, pt.blk.wall_seconds,
                pt.blk.wall_seconds > 0.0 ? pt.ref.wall_seconds / pt.blk.wall_seconds : 0.0,
                pt.ref.max_residual, pt.blk.max_residual);
    e2e.push_back(pt);
  }

  std::printf("  gemm double min speedup vs ref (n>=64): NN %.2fx, NT %.2fx\n", min_speedup_nn,
              min_speedup_nt);
  if (vector_gate_ran)
    std::printf("  NT vector gate (>=2.0x scalar engine at 128/256/384): %.2fx (%s)\n",
                min_vector_ratio_nt, nt_vector_2x_ok ? "PASS" : "FAIL");
  if (nn512_ratio > 0.0)
    std::printf("  NN n=512 gate (>=0.9x of n=384): %.2fx (%s)\n", nn512_ratio,
                nn512_ok ? "PASS" : "FAIL");
  if (small_gate_ran)
    std::printf("  small-order gate (>=2.0x ref: potf2 n=32, panel trsm m=96): %.2fx (%s)\n",
                small_min_ratio, small_2x_ok ? "PASS" : "FAIL");
  std::printf("  residual gates: %s\n", residual_ok ? "PASS" : "FAIL");

  std::string json = std::string("{\"bench\":\"wallclock_blas\",\"isa\":\"") + to_string(isa) +
                     "\",\"tuned\":" + (o.tune ? "true" : "false") +
                     ",\"sizes\":" + json_int_array(o.sizes);
  auto add_series = [&json](const char* name, const KernelSeries& s) {
    json += std::string(",\"") + name + "_ref_gflops\":" + json_array(s.ref_gflops);
    json += std::string(",\"") + name + "_scalar_gflops\":" + json_array(s.scalar_gflops);
    json += std::string(",\"") + name + "_blk_gflops\":" + json_array(s.blk_gflops);
  };
  add_series("gemm_nn", gemm_nn);
  add_series("gemm_nt", gemm_nt);
  add_series("syrk", syrk_s);
  add_series("trsm", trsm_s);
  json += ",\"small_sizes\":" + json_int_array(small_sizes);
  json += ",\"potf2_ref_gflops\":" + json_array(potf2_ref);
  json += ",\"potf2_vec_gflops\":" + json_array(potf2_vec);
  json += ",\"trsm_panel_ref_gflops\":" + json_array(trsm_panel_ref);
  json += ",\"trsm_panel_vec_gflops\":" + json_array(trsm_panel_vec);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                ",\"gemm_min_speedup_nn_64up\":%.3f,\"gemm_min_speedup_nt_64up\":%.3f,"
                "\"nt_vector_min_ratio\":%.3f,\"nt_vector_2x_ok\":%s,"
                "\"nn512_ratio\":%.3f,\"nn512_ok\":%s,"
                "\"small_min_ratio\":%.3f,\"small_2x_ok\":%s,"
                "\"e2e_batch\":%d,\"e2e_nmax\":%d,\"residual_ok\":%s,\"e2e\":[",
                min_speedup_nn, min_speedup_nt, min_vector_ratio_nt,
                nt_vector_2x_ok ? "true" : "false", nn512_ratio, nn512_ok ? "true" : "false",
                small_min_ratio, small_2x_ok ? "true" : "false", o.batch, o.nmax,
                residual_ok ? "true" : "false");
  json += buf;
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const E2ePoint& pt = e2e[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"dist\":\"%s\",\"ref_seconds\":%.6e,\"blocked_seconds\":%.6e,"
                  "\"speedup\":%.3f,\"max_residual_ref\":%.3e,\"max_residual_blocked\":%.3e}",
                  i ? "," : "", to_string(pt.dist), pt.ref.wall_seconds, pt.blk.wall_seconds,
                  pt.blk.wall_seconds > 0.0 ? pt.ref.wall_seconds / pt.blk.wall_seconds : 0.0,
                  pt.ref.max_residual, pt.blk.max_residual);
    json += buf;
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  if (std::FILE* f = std::fopen(o.out.c_str(), "a")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "warning: could not open %s for append\n", o.out.c_str());
  }

  if (!residual_ok) {
    std::fprintf(stderr, "FAILED: residual gate or info check failed\n");
    return 1;
  }
  if (!nt_vector_2x_ok || !nn512_ok || !small_2x_ok) {
    std::fprintf(stderr, "FAILED: performance regression gate failed\n");
    return 1;
  }
  return 0;
}
