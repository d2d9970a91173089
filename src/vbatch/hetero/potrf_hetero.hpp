// Heterogeneous vbatched Cholesky: one variable-size batch split across a
// DevicePool of CPU and simulated-GPU executors.
//
// The paper targets "heterogeneous parallel architectures"; this entry
// point is the reproduction's answer for multi-device nodes. The batch is
// size-sorted, cut into nb-aligned chunks, statically partitioned by the
// executors' own cost estimates, then dynamically rebalanced by a
// deterministic work-stealing scheduler over the pool's virtual clocks
// (see partition.hpp / scheduler.hpp).
//
// Numerics guarantee: the entry points share the single-device front end
// (potrf_vbatched.hpp, namespace detail). The metadata sweep runs once, and
// the options resolve ONCE into one plan (path, blocking sizes) from the
// global maximum against DevicePool::reference_spec(); every chunk runs
// that plan. Each matrix's factorization depends only on its own data and
// the plan, so the factors and info array are bit-identical to the
// single-device path and invariant under every partition policy, steal
// schedule, and pool composition. Only the modelled time and energy
// change; that is the point.
//
// Both §III-A interfaces are provided: potrf_vbatched_hetero computes the
// global maximum with a device reduction (on executor 0, whose clock pays
// the sweep), potrf_vbatched_hetero_max takes it from the caller.
//
// Self-healing: when the pool carries a fault spec (DevicePool::set_faults,
// CLI --inject-faults, or the VBATCH_INJECT_FAULTS environment knob, which
// the pool reads once when it gets its first executor), the schedule runs
// under the deterministic recovery loop of scheduler.hpp — bounded retries
// with virtual-time backoff, LPT re-dispatch of chunks orphaned by
// executor loss, a watchdog converting hangs into loss. As
// long as one executor survives, the factors and info stay bit-identical
// to the fault-free run (numerics run after the schedule, once per chunk
// that committed); unrecoverable chunks poison their problems' info with
// kInfoChunkLost instead of throwing. See docs/robustness.md.
#pragma once

#include <string>
#include <vector>

#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/hetero/device_pool.hpp"
#include "vbatch/hetero/partition.hpp"
#include "vbatch/hetero/scheduler.hpp"

namespace vbatch::hetero {

struct HeteroOptions {
  PotrfOptions potrf;  ///< resolved once into the plan every chunk runs
  Partition partition = Partition::CostModel;
  StealPolicy steal = StealPolicy::MostLoaded;
  bool work_stealing = true;
  /// Static chunks per executor: more chunks = finer rebalancing, more
  /// per-chunk launch overhead. 4 balances the two for the paper's batches.
  int chunks_per_executor = 4;
  std::uint64_t steal_seed = 2016;
  /// Retry/backoff/watchdog bounds for fault recovery (docs/robustness.md).
  /// Only consulted when the pool carries a fault spec.
  fault::RetryPolicy retry;

  /// Out-of-core staging policy (docs/heterogeneous.md, "Out-of-core
  /// streaming"). Auto streams a GPU executor exactly when the batch
  /// footprint exceeds its arena budget; Streamed forces every GPU executor
  /// through the chunked pipeline (the testing/bench mode); Resident keeps
  /// the classic everything-fits schedule and throws if it doesn't.
  enum class Staging : std::uint8_t { Auto, Streamed, Resident };
  Staging staging = Staging::Auto;
  /// Double-buffered chunk prefetch on streaming executors: chunk k+1's H2D
  /// overlaps chunk k's compute. false = synchronous staging (the
  /// measurement baseline).
  bool prefetch = true;
};

/// Per-executor slice of a heterogeneous run.
struct ExecutorReport {
  std::string name;
  double busy_seconds = 0.0;    ///< modelled seconds executing chunks
  double finish_seconds = 0.0;  ///< virtual clock when the executor went idle
  double flops = 0.0;           ///< useful flops of the chunks it ran
  double joules = 0.0;          ///< active ∫P dt (idle tails are in the total)
  int chunks = 0;
  int stolen = 0;               ///< chunks acquired by stealing
  int matrices = 0;
  int streams = 1;              ///< concurrent stream slots (post-clamp)
  /// Overlap ratio: busy seconds over the union of busy intervals. 1.0 for
  /// a serial schedule; approaches `streams` under full overlap.
  double overlap = 1.0;
  int retries = 0;              ///< transient attempts wasted on this executor
  bool lost = false;            ///< permanently lost (death or hung watchdog)

  // --- Out-of-core staging slice (zeros for resident executors) ----------
  bool streamed = false;        ///< ran the chunked out-of-core pipeline
  double h2d_seconds = 0.0;     ///< committed host→device copy seconds
  double d2h_seconds = 0.0;     ///< committed device→host copy seconds
  double h2d_bytes = 0.0;       ///< bytes staged in
  double d2h_bytes = 0.0;       ///< bytes written back
  /// Union of compute + transfer intervals. (busy + h2d + d2h) / pipeline
  /// measures how much staging traffic the double buffering hid; 1.0 means
  /// everything overlapped, higher means exposed transfer time.
  double pipeline_seconds = 0.0;
  double transfer_joules = 0.0; ///< DMA/PHY energy of the staging copies
};

struct HeteroResult {
  double seconds = 0.0;  ///< pool makespan (max executor finish time)
  double flops = 0.0;
  PotrfPath path_taken = PotrfPath::Auto;
  int chunks = 0;
  int steals = 0;
  energy::EnergyResult energy;  ///< pool total: active + idle tails, over makespan
  std::vector<ExecutorReport> executors;
  double h2d_bytes = 0.0;       ///< pool-wide bytes staged host→device
  double d2h_bytes = 0.0;       ///< pool-wide bytes written back

  // --- Fault-recovery ledger (all zero/empty on a fault-free run) --------
  int retries = 0;              ///< transient attempts wasted pool-wide
  int hangs = 0;                ///< hung attempts the watchdog converted
  int executors_lost = 0;       ///< executors permanently lost mid-batch
  int chunks_poisoned = 0;      ///< chunks no survivor could complete
  /// Summed nominal peak of the executors that survived the call, in
  /// Gflop/s — the fault layer's capacity signal to the service admission
  /// controller (equals the pool peak on a fault-free run).
  double surviving_peak_gflops = 0.0;
  double backoff_seconds = 0.0; ///< total virtual retry backoff
  std::vector<fault::FaultEvent> fault_events;  ///< ordered recovery log

  [[nodiscard]] double gflops() const noexcept {
    return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  }
};

/// LAPACK-like interface: the global maximum is computed with a device
/// reduction on executor 0 (its clock pays the metadata sweep, mirroring
/// the single-device potrf_vbatched).
template <typename T>
HeteroResult potrf_vbatched_hetero(DevicePool& pool, Uplo uplo, Batch<T>& batch,
                                   const HeteroOptions& opts = {});

/// Expert interface: the caller supplies max_n (must dominate every size).
template <typename T>
HeteroResult potrf_vbatched_hetero_max(DevicePool& pool, Uplo uplo, Batch<T>& batch, int max_n,
                                       const HeteroOptions& opts = {});

}  // namespace vbatch::hetero
