// Service-level observability: per-launch batch log, per-tenant latency
// statistics, and the aggregate ServiceReport returned by trace replay and
// Service::drain (docs/service.md, "Metrics").
//
// Everything is computed from the per-request outcomes, so the report is as
// deterministic as the replay that produced it — the determinism tests
// memcmp whole reports across runs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "vbatch/service/coalescer.hpp"
#include "vbatch/service/request.hpp"

namespace vbatch::service {

/// One merged launch in the service timeline.
struct BatchRecord {
  int id = 0;                  ///< launch sequence number
  GroupKey key;                ///< (op, precision) of the merged batch
  FlushReason reason = FlushReason::Budget;
  int requests = 0;            ///< requests merged into this launch
  int matrices = 0;            ///< total matrices across those requests
  double dispatch_time = 0.0;  ///< service-clock instant the launch started
  double seconds = 0.0;        ///< modelled launch makespan
  double flops = 0.0;          ///< useful flops of the launch
  double joules = 0.0;         ///< modelled energy of the launch
};

/// Latency statistics of one tenant (seconds, submission → completion).
/// Latencies and flops/joules cover accepted (served) requests only; the
/// overload slice counts what admission shed.
struct TenantStats {
  std::string tenant;
  double weight = 1.0;
  int requests = 0;  ///< everything submitted (accepted + shed + expired)
  int failed = 0;    ///< numerical failures (info > 0)
  int poisoned = 0;  ///< fault-injection losses (kInfoChunkLost)
  double flops = 0.0;
  double joules = 0.0;
  std::vector<double> latencies;  ///< per served request, completion order

  // --- Overload slice (docs/service.md, "Overload & admission") ----------
  int accepted = 0;   ///< reached a launch (Ok / Failed / Poisoned)
  int shed = 0;       ///< RejectedTenantRate + RejectedQueueFull
  int expired = 0;    ///< RejectedDeadline (arrival or dispatch)
  int slo_total = 0;  ///< accepted requests that carried a deadline
  int slo_met = 0;    ///< ... and completed within it

  [[nodiscard]] double mean_latency() const noexcept;
  [[nodiscard]] double max_latency() const noexcept;
  /// Nearest-rank percentile (p in [0, 100]); 0 when no samples.
  [[nodiscard]] double percentile(double p) const;
  /// Fraction of deadline-carrying accepted requests served in time
  /// (1.0 when none carried a deadline).
  [[nodiscard]] double slo_attainment() const noexcept {
    return slo_total > 0 ? static_cast<double>(slo_met) / slo_total : 1.0;
  }
};

/// Aggregate result of a replay / service run.
struct ServiceReport {
  int requests = 0;  ///< everything submitted (accepted + shed + expired)
  int matrices = 0;
  int batches = 0;   ///< merged launches actually dispatched
  int failed = 0;    ///< requests with any info > 0
  int poisoned = 0;  ///< requests hit by injected faults
  double makespan = 0.0;  ///< last completion instant on the service clock
  double flops = 0.0;
  double joules = 0.0;
  /// accepted / batches — the headline coalescing win (1.0 = no merging).
  double coalescing_ratio = 0.0;
  double mean_queue_depth = 0.0;  ///< time-averaged pending requests
  int peak_queue_depth = 0;
  double p50_latency = 0.0;  ///< across accepted (served) requests, seconds
  double p99_latency = 0.0;

  // --- Overload slice (docs/service.md, "Overload & admission") ----------
  bool admission_enabled = false;
  int accepted = 0;   ///< requests that reached a launch
  int shed = 0;       ///< RejectedTenantRate + RejectedQueueFull
  int expired = 0;    ///< RejectedDeadline
  int slo_total = 0;  ///< accepted requests carrying a deadline
  int slo_met = 0;
  /// Flops of on-time useful completions (status Ok, deadline met or
  /// absent) — the goodput numerator; under overload this is what
  /// separates admission control from queue-everything collapse.
  double goodput_flops = 0.0;
  /// The admission controller's final pool-throughput estimate (Gflop/s).
  double capacity_gflops = 0.0;

  std::vector<BatchRecord> batch_log;        ///< dispatch order
  std::vector<TenantStats> tenants;          ///< registration order
  std::vector<RequestOutcome> outcomes;      ///< completion order

  [[nodiscard]] double gflops() const noexcept {
    return makespan > 0.0 ? flops / makespan * 1e-9 : 0.0;
  }
  /// On-time useful throughput in Gflop/s — the overload bench's gate
  /// currency (raw gflops() cannot distinguish admission from collapse:
  /// both eventually serve at capacity, but only admission serves work
  /// anyone still wants).
  [[nodiscard]] double goodput_gflops() const noexcept {
    return makespan > 0.0 ? goodput_flops / makespan * 1e-9 : 0.0;
  }
  [[nodiscard]] double slo_attainment() const noexcept {
    return slo_total > 0 ? static_cast<double>(slo_met) / slo_total : 1.0;
  }

  /// Fills the derived aggregates (counts, percentiles, coalescing ratio)
  /// from batch_log/outcomes. Idempotent.
  void finalize(const std::map<std::string, double>& tenant_weights);

  /// One-line summary ("42 reqs in 7 launches, 6.0x coalesced, ...").
  [[nodiscard]] std::string describe() const;

  /// Full report: summary, per-tenant table, batch log, latency histogram —
  /// rendered with the profiler table machinery.
  void print(std::ostream& os) const;
};

}  // namespace vbatch::service
