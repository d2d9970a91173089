// Dynamic work-stealing scheduler over the pool's virtual clocks, with
// multi-stream chunk overlap and fault recovery.
//
// The simulator has no real concurrency to exploit — every device clock is
// modelled — so the scheduler is an event loop over virtual time: the
// earliest pending event (a chunk committing, or an executor with a free
// stream slot dispatching) fires next. An executor with work pops the
// *front* of its own deque (its biggest remaining chunk, since chunks
// follow the size-sorted order); an idle executor steals from the *back* of
// a victim's deque — the trailing, smallest chunks, which are the cheapest
// to migrate and the classic candidates for rebalancing a size-sorted
// batch.
//
// Multi-stream overlap (streams[e] > 1): an executor keeps up to streams[e]
// chunks in flight. A chunk dispatched while others are in flight contends
// for the device's modelled slot capacity — with occupancy occ and free
// share s = max(1 − Σ occ_inflight, 1/(inflight+1)), it progresses at rate
// min(1, s/occ), i.e. a low-occupancy chunk overlaps for free while
// device-filling chunks degrade gracefully to the serial makespan. A chunk
// commits (the execute callback) exactly once, at its modelled completion,
// in global virtual-time order — dispatch only reserves the slot — and the
// hetero driver runs each committed chunk's numerics once after the loop,
// so factors and info are bit-identical to the single-stream schedule for
// every stream count; only the virtual-time placement (and hence the
// makespan) changes. With
// streams[e] == 1 everywhere the loop reproduces the classic serial
// schedule clock-for-clock.
//
// Victim selection is deterministic: StealPolicy::MostLoaded picks the peer
// with the largest remaining modelled load, and all ties (and the Random
// policy) are resolved through one seeded xoshiro stream. Replaying a
// schedule with the same seed therefore reproduces the same chunk → device
// mapping exactly — and because the numerics of every chunk are identical
// on every executor, even a *different* schedule reproduces the same bits;
// only the modelled makespan moves.
//
// Out-of-core streaming (docs/heterogeneous.md, "Out-of-core streaming"):
// an executor whose h2d/d2h rows are set stages every chunk through a
// bounded arena instead of assuming residency. A streamed chunk's
// trajectory is fixed at dispatch: H2D on the executor's (serializing)
// host→device DMA lane as soon as the arena admits the chunk's bytes,
// compute once the copy lands and one of the streams[e] compute slots
// frees, write-back on the independent D2H lane — and the chunk commits
// (exactly once, in global virtual-time order) when the write-back
// completes. With prefetch on, the executor holds one extra
// pipeline slot, so chunk k+1's H2D overlaps chunk k's compute and chunk
// k-1's D2H (double buffering); with prefetch off the stages serialize per
// slot (synchronous staging — the bench baseline). Executors without
// transfer rows run the classic resident schedule clock-for-clock.
//
// Fault recovery (docs/robustness.md): when a FaultPlan is attached, every
// attempt is first checked against the injection oracle. A transient fault
// charges the attempt's modelled time plus a deterministic exponential
// backoff and the executor retries; after RetryPolicy::max_attempts
// failures the chunk is re-dispatched to the best surviving peer (LPT over
// current clocks). A hang charges the watchdog interval and converts into
// permanent executor loss; a scheduled death orphans the executor's deque,
// which is likewise re-dispatched — down to a single survivor (CPU-only as
// the last resort). A dying executor also aborts every chunk still in
// flight on its streams (they never committed, so they re-dispatch
// cleanly; the partial intervals are logged as InFlightLost waste). The
// execute callback runs only for the one successful attempt of each chunk
// — and the driver runs numerics only for committed chunks — so recovered
// runs stay bit-identical to fault-free ones; a
// chunk no survivor could complete is marked poisoned instead of aborting
// the call.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "vbatch/fault/fault_plan.hpp"
#include "vbatch/hetero/stream_slot.hpp"

namespace vbatch::hetero {

enum class StealPolicy : std::uint8_t { MostLoaded, Random };

[[nodiscard]] constexpr const char* to_string(StealPolicy p) noexcept {
  switch (p) {
    case StealPolicy::MostLoaded: return "most-loaded";
    case StealPolicy::Random: return "random";
  }
  return "?";
}

struct ScheduleParams {
  /// Chunk → owning executor from the static partitioner.
  std::vector<int> owner;
  /// estimate[e][c]: executor e's modelled seconds for chunk c — drives
  /// victim load ranking, orphan re-dispatch, and the time charged to a
  /// faulted attempt.
  std::vector<std::vector<double>> estimate;
  int executors = 1;
  bool work_stealing = true;
  StealPolicy steal = StealPolicy::MostLoaded;
  std::uint64_t seed = 2016;
  /// Per-executor clock offsets at t = 0 (e.g. executor 0 already spent the
  /// argument-check sweep before any chunk runs).
  std::vector<double> initial_clock;
  /// Per-executor concurrent stream slots (empty = one stream everywhere,
  /// the classic serial schedule). An executor with streams[e] = k keeps up
  /// to k chunks in flight, contending for the modelled slot capacity.
  std::vector<int> streams;
  /// occupancy[e][c]: fraction of executor e's device slots chunk c keeps
  /// busy, in (0, 1] (empty = 1.0 everywhere, i.e. no overlap headroom).
  /// Drives the per-chunk contention rate of overlapped dispatches.
  std::vector<std::vector<double>> occupancy;
  /// Fault injection oracle; null (or empty) = fault-free run.
  const fault::FaultPlan* faults = nullptr;
  /// Retry/backoff/watchdog bounds for the recovery loop.
  fault::RetryPolicy retry;

  // --- Out-of-core staging (empty = every executor resident, the classic
  //     schedule). h2d[e][c] / d2h[e][c] are the per-chunk staging seconds
  //     for executor e; an empty row e keeps that executor resident.
  std::vector<std::vector<double>> h2d;
  std::vector<std::vector<double>> d2h;
  /// chunk_bytes[c]: payload footprint a streamed chunk holds in the arena
  /// from H2D start to D2H completion. Required when any executor streams.
  std::vector<double> chunk_bytes;
  /// arena[e]: staging budget in bytes for streaming executors (<= 0 =
  /// unbounded). A chunk's H2D waits until the in-flight resident bytes
  /// plus its own fit the budget.
  std::vector<double> arena;
  /// Double-buffered prefetch: a streaming executor gets one extra pipeline
  /// slot, so the next chunk's H2D runs while the current one computes.
  /// false = synchronous staging (h2d → compute → d2h serialize per slot).
  bool prefetch = true;
};

struct ScheduleResult {
  double makespan = 0.0;            ///< max final clock over all executors
  std::vector<double> busy;         ///< per-executor seconds spent executing
  std::vector<double> finish;       ///< per-executor final clock
  std::vector<int> chunks_run;      ///< per-executor chunks completed
  std::vector<int> chunks_stolen;   ///< per-executor chunks acquired by stealing
  std::vector<int> executed_by;     ///< chunk → executor that completed it (-1 = poisoned)
  /// Per-executor union of its busy intervals (chunks and fault waste on
  /// any stream, overlaps counted once). busy / occupied is the overlap
  /// ratio: 1.0 for a serial schedule, up to streams[e] under full overlap.
  std::vector<double> occupied;
  /// Per-executor high-water mark of simultaneously in-flight chunks.
  std::vector<int> max_in_flight;

  // --- Out-of-core staging ledger (zeros when nobody streams) ------------
  std::vector<double> h2d_seconds;  ///< per-executor committed H2D seconds
  std::vector<double> d2h_seconds;  ///< per-executor committed D2H seconds
  std::vector<double> h2d_bytes;    ///< per-executor bytes staged in
  std::vector<double> d2h_bytes;    ///< per-executor bytes written back
  /// Per-executor union of compute + transfer intervals (the pipeline
  /// span). (busy + h2d + d2h) / pipeline measures how much of the staging
  /// traffic the schedule hid behind compute.
  std::vector<double> pipeline;
  /// Per-chunk committed staging placement {h2d_start, h2d_end, d2h_start,
  /// d2h_end} in virtual time; all zero for resident chunks. Tests use it
  /// to assert the arena budget and the per-direction lane serialization.
  std::vector<std::array<double, 4>> staging;

  // --- Fault-recovery ledger (all empty/zero on a fault-free run) --------
  std::vector<int> retries;         ///< per-executor transient attempts wasted
  std::vector<char> lost;           ///< per-executor permanent-loss flag
  std::vector<int> attempts;        ///< per-chunk total attempts (success included)
  std::vector<char> poisoned;       ///< per-chunk unrecoverable flag
  std::vector<fault::FaultEvent> events;  ///< ordered fault/recovery log
  int retries_total = 0;
  int hangs = 0;
  int executors_lost = 0;
  int chunks_poisoned = 0;
  double backoff_seconds = 0.0;     ///< total virtual backoff across the pool
};

/// Runs the virtual-time loop. `execute(e, c, slot)` must commit chunk c on
/// executor e in the given stream slot and return the serial modelled
/// seconds; it is called exactly once for the successful attempt of each
/// completed chunk (never for faulted or aborted-in-flight attempts, never
/// for poisoned chunks), in global commit order. `on_fault`, when set,
/// observes every fault event as it is logged — the hetero driver uses it
/// to charge wasted intervals to the GPU timelines.
[[nodiscard]] ScheduleResult run_schedule(
    const ScheduleParams& params,
    const std::function<double(int, int, const StreamSlot&)>& execute,
    const std::function<void(const fault::FaultEvent&)>& on_fault = {});

/// Slot-blind convenience overload (single-stream scheduling in tests and
/// callers that predate stream overlap).
[[nodiscard]] ScheduleResult run_schedule(
    const ScheduleParams& params, const std::function<double(int, int)>& execute,
    const std::function<void(const fault::FaultEvent&)>& on_fault = {});

}  // namespace vbatch::hetero
