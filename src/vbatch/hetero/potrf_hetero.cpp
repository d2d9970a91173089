#include "vbatch/hetero/potrf_hetero.hpp"

#include <algorithm>
#include <exception>

#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace vbatch::hetero {

namespace {

/// Gathered chunk-local metadata. The ChunkWork closures hold spans into
/// these vectors, so ChunkData must stay alive (and unmoved) for the whole
/// call — the driver stores them in a deque-like pre-sized vector.
template <typename T>
struct ChunkData {
  std::vector<T*> ptrs;
  std::vector<int> n;
  std::vector<int> lda;
  std::vector<int> info;  ///< chunk-local statuses, scattered back at the end
};

template <typename T>
HeteroResult hetero_impl(DevicePool& pool, Uplo uplo, Batch<T>& batch, int caller_max_n,
                         bool reduce_max, const HeteroOptions& opts) {
  require(pool.size() >= 1, "potrf_vbatched_hetero: empty device pool");
  auto prob = batch.problem();
  const int E = pool.size();
  const sim::ExecMode mode = batch.queue().mode();
  for (int e = 0; e < E; ++e) pool.executor(e).begin_call(mode);

  // Metadata sweep (validation + info reset, plus the max reduction for the
  // LAPACK-like interface) runs on executor 0; the sweep seconds become its
  // initial virtual clock so the schedule charges the cost faithfully.
  Queue& q0 = pool.executor(0).queue();
  const double sweep_t0 = q0.time();
  const int max_n = detail::potrf_sweep(q0.device(), prob.n, prob.lda, prob.info, reduce_max,
                                        caller_max_n, "potrf_vbatched_hetero");
  const double sweep_seconds = q0.time() - sweep_t0;

  // --- Pin the plan once, from the GLOBAL maximum against the reference
  // device; an Auto fused plan must also fit every executor, since work
  // stealing may route any chunk anywhere. Every chunk runs the same plan;
  // only its local max_n differs — which changes launch geometry (the
  // speedup) but never per-matrix math (the bit-identity guarantee).
  const Precision prec = precision_v<T>;
  std::vector<const sim::DeviceSpec*> specs;
  for (int e = 0; e < E; ++e) specs.push_back(&pool.executor(e).queue().spec());
  const detail::PotrfPlan plan = detail::resolve_potrf_plan(pool.reference_spec(), prec,
                                                            sizeof(T), max_n, opts.potrf, specs);

  // --- Chunk the size-sorted order and build the per-chunk work units.
  const std::vector<int> order = sort_indices_desc(prob.n);
  std::vector<int> sorted_n(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    sorted_n[i] = prob.n[static_cast<std::size_t>(order[i])];
  require(opts.chunks_per_executor >= 1,
          "potrf_vbatched_hetero: chunks_per_executor must be positive");
  const std::vector<Chunk> chunks =
      build_chunks(sorted_n, plan.nb, opts.chunks_per_executor * E);
  const int C = static_cast<int>(chunks.size());

  std::vector<ChunkData<T>> data(static_cast<std::size_t>(C));
  std::vector<ChunkWork> work(static_cast<std::size_t>(C));
  for (int c = 0; c < C; ++c) {
    const Chunk& ck = chunks[static_cast<std::size_t>(c)];
    ChunkData<T>& d = data[static_cast<std::size_t>(c)];
    d.ptrs.reserve(static_cast<std::size_t>(ck.count()));
    d.n.reserve(static_cast<std::size_t>(ck.count()));
    d.lda.reserve(static_cast<std::size_t>(ck.count()));
    for (int i = ck.begin; i < ck.end; ++i) {
      const std::size_t src = static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
      d.ptrs.push_back(prob.ptrs[src]);
      d.n.push_back(prob.n[src]);
      d.lda.push_back(prob.lda[src]);
    }
    d.info.assign(static_cast<std::size_t>(ck.count()), 0);

    ChunkWork& w = work[static_cast<std::size_t>(c)];
    w.n = d.n;
    w.flops = ck.flops;
    w.max_n = ck.max_n;
    w.prec = prec;
    const int chunk_max = ck.max_n;
    w.run = [&d, uplo, chunk_max, plan](Queue& q, std::span<int> info) -> double {
      if (chunk_max < 1) return 0.0;  // an all-empty tail chunk has no work
      VbatchedProblem<T> cp{d.ptrs.data(), d.n, d.lda, info};
      return detail::potrf_run<T>(q, uplo, cp, chunk_max, plan);
    };
  }

  // --- Estimate every (executor, chunk) pair: dry runs on the timing twins
  // (GPU) or the analytic CPU model. Exact by construction. The dry run
  // also yields the chunk's device occupancy — the overlap headroom the
  // multi-stream schedule exploits — and its launch log, which the commit
  // replays.
  std::vector<std::vector<ChunkEstimate>> dry(static_cast<std::size_t>(E));
  std::vector<std::vector<double>> est(static_cast<std::size_t>(E));
  std::vector<std::vector<double>> occ(static_cast<std::size_t>(E));
  std::vector<int> streams(static_cast<std::size_t>(E), 1);
  for (int e = 0; e < E; ++e) {
    dry[static_cast<std::size_t>(e)].resize(static_cast<std::size_t>(C));
    est[static_cast<std::size_t>(e)].resize(static_cast<std::size_t>(C));
    occ[static_cast<std::size_t>(e)].resize(static_cast<std::size_t>(C));
    streams[static_cast<std::size_t>(e)] = pool.executor(e).streams();
    for (int c = 0; c < C; ++c) {
      ChunkEstimate& ce = dry[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)];
      ce = pool.executor(e).estimate(work[static_cast<std::size_t>(c)]);
      est[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)] = ce.seconds;
      occ[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)] = ce.occupancy;
    }
  }

  // --- Out-of-core staging decision (docs/heterogeneous.md, "Out-of-core
  // streaming"). A chunk's staged footprint is the sum of its matrices'
  // stored columns — lda × n elements each way. A GPU executor streams when
  // forced (Staging::Streamed) or when the whole batch cannot be resident
  // inside its arena budget (Staging::Auto); the executor's budget was
  // resolved when the pool was built (docs/heterogeneous.md).
  std::vector<double> chunk_bytes(static_cast<std::size_t>(C), 0.0);
  double footprint = 0.0;
  for (int c = 0; c < C; ++c) {
    const ChunkData<T>& d = data[static_cast<std::size_t>(c)];
    double bytes = 0.0;
    for (std::size_t i = 0; i < d.n.size(); ++i)
      bytes += static_cast<double>(d.lda[i]) * static_cast<double>(d.n[i]) *
               static_cast<double>(sizeof(T));
    chunk_bytes[static_cast<std::size_t>(c)] = bytes;
    footprint += bytes;
  }
  std::vector<double> arena(static_cast<std::size_t>(E), 0.0);
  std::vector<char> streamed(static_cast<std::size_t>(E), 0);
  std::vector<std::vector<double>> h2d(static_cast<std::size_t>(E));
  std::vector<std::vector<double>> d2h(static_cast<std::size_t>(E));
  for (int e = 0; e < E; ++e) {
    Executor& ex = pool.executor(e);
    if (!ex.is_gpu()) continue;  // the CPU works in host memory: no staging
    const double budget = ex.arena_bytes();
    arena[static_cast<std::size_t>(e)] = budget;
    const bool wants = opts.staging == HeteroOptions::Staging::Streamed ||
                       (opts.staging == HeteroOptions::Staging::Auto && footprint > budget);
    if (opts.staging == HeteroOptions::Staging::Resident)
      require(footprint <= budget,
              "potrf_vbatched_hetero: batch footprint exceeds the staging arena with "
              "Staging::Resident (stream the pool or raise the arena budget)");
    if (!wants) continue;
    streamed[static_cast<std::size_t>(e)] = 1;
    const sim::DeviceSpec& spec = static_cast<GpuExecutor&>(ex).spec();
    h2d[static_cast<std::size_t>(e)].resize(static_cast<std::size_t>(C));
    d2h[static_cast<std::size_t>(e)].resize(static_cast<std::size_t>(C));
    for (int c = 0; c < C; ++c) {
      const double bytes = chunk_bytes[static_cast<std::size_t>(c)];
      h2d[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)] = spec.h2d_seconds(bytes);
      d2h[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)] = spec.d2h_seconds(bytes);
    }
  }
  const bool any_streamed =
      std::any_of(streamed.begin(), streamed.end(), [](char s) { return s != 0; });

  // --- Static partition (overlap-aware: a multi-stream executor absorbs
  // low-occupancy chunks at their slot share, not their serial seconds;
  // transfer-aware: a streaming executor also pays its non-overlappable
  // staging share), then the virtual-time work-stealing schedule.
  ScheduleParams sp;
  sp.owner = assign_chunks(effective_load(est, occ, streams, h2d, d2h, opts.prefetch),
                           opts.partition, E);
  sp.estimate = est;
  sp.executors = E;
  sp.work_stealing = opts.work_stealing;
  sp.steal = opts.steal;
  sp.seed = opts.steal_seed;
  sp.streams = streams;
  sp.occupancy = occ;
  if (any_streamed) {
    sp.h2d = std::move(h2d);
    sp.d2h = std::move(d2h);
    sp.chunk_bytes = chunk_bytes;
    sp.arena = arena;
    sp.prefetch = opts.prefetch;
  }
  sp.initial_clock.assign(static_cast<std::size_t>(E), 0.0);
  sp.initial_clock[0] = sweep_seconds;

  // Fault injection: the pool's spec (explicit, else the environment knob
  // resolved when the pool got its first executor).
  const fault::FaultPlan faults(pool.faults());
  sp.faults = faults.empty() ? nullptr : &faults;
  sp.retry = opts.retry;

  const ScheduleResult sched = run_schedule(
      sp,
      std::function<double(int, int, const StreamSlot&)>([&](int e, int c,
                                                             const StreamSlot& slot) {
        return pool.executor(e).execute(
            dry[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)], slot);
      }),
      [&](const fault::FaultEvent& ev) {
        // Make the wasted virtual time visible on the acting executor's
        // timing authority (GPU timeline records → profiler fault column
        // and energy integration; the CPU model is charged via busy). The
        // schedule position pins the record so overlapped streams report
        // their waste where it actually happened.
        if (ev.exec < 0) return;
        Executor& ex = pool.executor(ev.exec);
        if (ev.waste_seconds > 0.0)
          ex.charge_fault(std::string("fault.") + fault::to_string(ev.kind), ev.waste_seconds,
                          ev.start);
        if (ev.backoff_seconds > 0.0)
          ex.charge_fault("fault.backoff", ev.backoff_seconds, ev.start + ev.waste_seconds);
      });

  // --- Numerics (Full mode): the schedule committed every chunk's time
  // from its dry run; the factorizations run now, once per committed chunk,
  // spread across the host pool. Each chunk owns disjoint matrices and runs
  // on a private queue with its committing executor's spec, so the bits are
  // the same in any order and at any thread count; block loops nested in a
  // pool worker run inline. Poisoned chunks never run: their data stays
  // untouched.
  if (mode == sim::ExecMode::Full) {
    std::vector<int> done;
    for (int c = 0; c < C; ++c)
      if (sched.executed_by[static_cast<std::size_t>(c)] >= 0) done.push_back(c);
    std::vector<std::exception_ptr> errors(done.size());
    util::host_pool().parallel_for(static_cast<int>(done.size()), [&](int i) {
      const auto c = static_cast<std::size_t>(done[static_cast<std::size_t>(i)]);
      try {
        Queue q(pool.executor(sched.executed_by[c]).queue().spec(), sim::ExecMode::Full);
        work[c].run(q, data[c].info);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    });
    for (const std::exception_ptr& err : errors)
      if (err) std::rethrow_exception(err);
  }

  // --- Merge: scatter chunk-local statuses back to submission order. A
  // poisoned chunk (no surviving executor could complete it) marks every
  // one of its problems with the distinguished kInfoChunkLost code; its
  // matrices were never written (failed launches do not commit).
  for (int c = 0; c < C; ++c) {
    const Chunk& ck = chunks[static_cast<std::size_t>(c)];
    const ChunkData<T>& d = data[static_cast<std::size_t>(c)];
    const bool lost = sched.poisoned[static_cast<std::size_t>(c)] != 0;
    for (int i = ck.begin; i < ck.end; ++i)
      prob.info[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
          lost ? kInfoChunkLost : d.info[static_cast<std::size_t>(i - ck.begin)];
  }

  // --- Assemble the report: per-executor busy/flops/energy, pool totals.
  HeteroResult result;
  result.seconds = sched.makespan;
  result.flops = flops::potrf_batch(prob.n);
  result.path_taken = plan.path();
  result.chunks = C;
  result.retries = sched.retries_total;
  result.hangs = sched.hangs;
  result.executors_lost = sched.executors_lost;
  result.chunks_poisoned = sched.chunks_poisoned;
  result.backoff_seconds = sched.backoff_seconds;
  result.fault_events = sched.events;
  energy::EnergyMeter meter;
  for (int e = 0; e < E; ++e) {
    Executor& ex = pool.executor(e);
    ExecutorReport rep;
    rep.name = ex.name();
    rep.busy_seconds = sched.busy[static_cast<std::size_t>(e)];
    rep.finish_seconds = sched.finish[static_cast<std::size_t>(e)];
    rep.chunks = sched.chunks_run[static_cast<std::size_t>(e)];
    rep.stolen = sched.chunks_stolen[static_cast<std::size_t>(e)];
    rep.streams = ex.streams();
    rep.overlap = sched.occupied[static_cast<std::size_t>(e)] > 0.0
                      ? rep.busy_seconds / sched.occupied[static_cast<std::size_t>(e)]
                      : 1.0;
    rep.retries = sched.retries[static_cast<std::size_t>(e)];
    rep.lost = sched.lost[static_cast<std::size_t>(e)] != 0;
    if (!rep.lost) result.surviving_peak_gflops += ex.peak_gflops(prec);
    rep.streamed = streamed[static_cast<std::size_t>(e)] != 0;
    rep.h2d_seconds = sched.h2d_seconds[static_cast<std::size_t>(e)];
    rep.d2h_seconds = sched.d2h_seconds[static_cast<std::size_t>(e)];
    rep.h2d_bytes = sched.h2d_bytes[static_cast<std::size_t>(e)];
    rep.d2h_bytes = sched.d2h_bytes[static_cast<std::size_t>(e)];
    rep.pipeline_seconds = sched.pipeline[static_cast<std::size_t>(e)];
    for (int c = 0; c < C; ++c) {
      if (sched.executed_by[static_cast<std::size_t>(c)] == e) {
        rep.flops += chunks[static_cast<std::size_t>(c)].flops;
        rep.matrices += chunks[static_cast<std::size_t>(c)].count();
      }
    }
    const energy::EnergyResult active = ex.call_energy(prec, rep.busy_seconds, rep.flops);
    rep.joules = active.joules;
    meter.add(active);
    // Staging copies keep the DMA engines and the PCIe PHY powered for
    // their wire time — charged on top of the compute integration.
    rep.transfer_joules =
        ex.power().transfer_watts * (rep.h2d_seconds + rep.d2h_seconds);
    if (rep.transfer_joules > 0.0)
      meter.add(energy::EnergyResult{rep.transfer_joules, 0.0});
    meter.add_idle(ex.power(), sched.makespan - sched.finish[static_cast<std::size_t>(e)]);
    result.steals += rep.stolen;
    result.h2d_bytes += rep.h2d_bytes;
    result.d2h_bytes += rep.d2h_bytes;
    result.executors.push_back(std::move(rep));
  }
  meter.set_wall_seconds(sched.makespan);
  result.energy = meter.total();
  return result;
}

}  // namespace

template <typename T>
HeteroResult potrf_vbatched_hetero(DevicePool& pool, Uplo uplo, Batch<T>& batch,
                                   const HeteroOptions& opts) {
  return hetero_impl<T>(pool, uplo, batch, 0, /*reduce_max=*/true, opts);
}

template <typename T>
HeteroResult potrf_vbatched_hetero_max(DevicePool& pool, Uplo uplo, Batch<T>& batch, int max_n,
                                       const HeteroOptions& opts) {
  return hetero_impl<T>(pool, uplo, batch, max_n, /*reduce_max=*/false, opts);
}

template HeteroResult potrf_vbatched_hetero<float>(DevicePool&, Uplo, Batch<float>&,
                                                   const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero<double>(DevicePool&, Uplo, Batch<double>&,
                                                    const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero<std::complex<float>>(
    DevicePool&, Uplo, Batch<std::complex<float>>&, const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero<std::complex<double>>(
    DevicePool&, Uplo, Batch<std::complex<double>>&, const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero_max<float>(DevicePool&, Uplo, Batch<float>&, int,
                                                       const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero_max<double>(DevicePool&, Uplo, Batch<double>&, int,
                                                        const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero_max<std::complex<float>>(
    DevicePool&, Uplo, Batch<std::complex<float>>&, int, const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero_max<std::complex<double>>(
    DevicePool&, Uplo, Batch<std::complex<double>>&, int, const HeteroOptions&);

}  // namespace vbatch::hetero
