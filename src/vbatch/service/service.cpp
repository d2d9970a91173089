#include "vbatch/service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "vbatch/core/batch.hpp"
#include "vbatch/core/potrs_vbatched.hpp"
#include "vbatch/hetero/executor.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/rng.hpp"

namespace vbatch::service {

namespace {

/// Result of one merged launch, before the caller stamps the service-clock
/// times and batch id onto the outcomes.
struct LaunchResult {
  double seconds = 0.0;  ///< modelled seconds (factor + solve)
  double flops = 0.0;
  double joules = 0.0;
  std::vector<RequestOutcome> outcomes;  ///< admission order
  /// Per-executor permanent-loss flags from the fault layer — the capacity
  /// feedback the admission controller tightens on.
  std::vector<char> lost;
};

/// Resolves the admission config: an explicitly enabled config wins;
/// otherwise the VBATCH_ADMISSION env knob applies (mirroring the
/// VBATCH_INJECT_FAULTS precedence rule).
AdmissionConfig resolve_admission(const AdmissionConfig& explicit_cfg) {
  if (explicit_cfg.enabled) return explicit_cfg;
  if (const char* env = std::getenv("VBATCH_ADMISSION"); env != nullptr && *env != '\0')
    return parse_admission_spec(env);
  return explicit_cfg;
}

/// Nominal per-executor peaks seeding the capacity model. Double precision:
/// the conservative end — single-precision requests only make the estimate
/// safer, and calibration corrects it after the first launch anyway.
std::vector<double> executor_peaks(const hetero::DevicePool& pool) {
  std::vector<double> peaks;
  peaks.reserve(static_cast<std::size_t>(pool.size()));
  for (int e = 0; e < pool.size(); ++e)
    peaks.push_back(pool.executor(e).peak_gflops(Precision::Double));
  return peaks;
}

/// Outcome of a request shed by the admission layer at instant `t`: no
/// launch slice, zero latency (it never queued past the decision point).
RequestOutcome rejected_outcome(const Request& r, RequestStatus status, double t) {
  RequestOutcome o;
  o.id = r.id;
  o.tenant = r.tenant;
  o.status = status;
  o.submit_time = r.submit_time;
  o.dispatch_time = t;
  o.complete_time = t;
  o.deadline = r.deadline;
  o.flops = r.flops();
  return o;
}

template <typename T>
std::vector<unsigned char> to_bytes(const std::vector<T>& v) {
  std::vector<unsigned char> bytes(v.size() * sizeof(T));
  if (!bytes.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

/// Executes one coalesced flush as a single variable-size launch and
/// demultiplexes the per-request slices. Payload rule: every request is
/// filled from its own payload_seed, sequentially over its own matrices —
/// so its numerics are a pure function of the request, not of whatever the
/// coalescer merged it with.
template <typename T>
LaunchResult run_merged(hetero::DevicePool& pool, const Coalescer::Flush& flush,
                        const ServiceConfig& cfg) {
  std::vector<int> sizes;
  for (const Request& r : flush.admitted)
    sizes.insert(sizes.end(), r.sizes.begin(), r.sizes.end());
  const int total = static_cast<int>(sizes.size());

  // The host queue a merged batch lives on mirrors the pool's reference
  // device, so arena accounting and the potrs solve stage are charged
  // against a consistent device model.
  Queue q(pool.reference_spec(), cfg.mode);
  Batch<T> batch(q, sizes);
  if (q.full()) {
    int k = 0;
    for (const Request& r : flush.admitted) {
      Rng rng(r.payload_seed());
      for (std::size_t j = 0; j < r.sizes.size(); ++j, ++k) {
        MatrixView<T> v = batch.matrix(k);
        fill_spd(rng, v.data(), v.rows(), v.ld());
      }
    }
  }

  const auto hr = hetero::potrf_vbatched_hetero<T>(pool, cfg.uplo, batch, cfg.hetero);

  LaunchResult out;
  out.seconds = hr.seconds;
  out.flops = hr.flops;
  out.joules = hr.energy.joules;
  out.lost.reserve(hr.executors.size());
  for (const auto& rep : hr.executors) out.lost.push_back(rep.lost ? 1 : 0);

  // Posv requests continue into the vbatched triangular solve on the host
  // queue (matrices whose factorization failed or was poisoned are skipped
  // by potrs itself). The solve's modelled seconds extend the launch.
  std::unique_ptr<RectBatch<T>> rhs;
  if (flush.key.op == Op::Posv) {
    std::vector<int> cols;
    cols.reserve(sizes.size());
    for (const Request& r : flush.admitted)
      cols.insert(cols.end(), r.sizes.size(), r.nrhs);
    rhs = std::make_unique<RectBatch<T>>(q, sizes, cols);
    if (q.full()) {
      int k = 0;
      for (const Request& r : flush.admitted) {
        // A different stream than the SPD fill so A and B are independent.
        Rng rng(r.payload_seed() ^ 0xD1B54A32D192ED03ull);
        for (std::size_t j = 0; j < r.sizes.size(); ++j, ++k) {
          MatrixView<T> v = rhs->matrix(k);
          fill_general(rng, v.data(), v.rows(), v.cols(), v.ld());
        }
      }
    }
    const auto sr = potrs_vbatched<T>(q, cfg.uplo, batch, *rhs);
    out.seconds += sr.seconds;
    out.flops += sr.flops;
  }

  const std::span<const int> info = batch.info();
  int k = 0;
  for (const Request& r : flush.admitted) {
    RequestOutcome o;
    o.id = r.id;
    o.tenant = r.tenant;
    o.submit_time = r.submit_time;
    o.deadline = r.deadline;
    o.flops = r.flops();
    o.merged_with = total;
    o.info.assign(info.begin() + k, info.begin() + k + r.matrices());
    o.status = RequestStatus::Ok;
    for (int s : o.info) {
      if (s == kInfoChunkLost) {
        o.status = RequestStatus::Poisoned;
        break;
      }
      if (s != 0) o.status = RequestStatus::Failed;
    }
    // Energy slice: the launch's ∫P dt split by useful-flops share — the
    // same currency the fairness scheduler budgets with.
    o.joules = out.flops > 0.0 ? out.joules * (o.flops / out.flops) : 0.0;
    if (cfg.keep_payloads && q.full()) {
      for (int j = 0; j < r.matrices(); ++j) {
        // Payload bytes only for cleanly completed matrices: a poisoned
        // matrix's buffer holds whatever the aborted schedule left behind.
        o.factors.push_back(info[k + j] == 0 ? to_bytes(batch.copy_matrix(k + j))
                                             : std::vector<unsigned char>{});
        if (rhs)
          o.solutions.push_back(info[k + j] == 0 ? to_bytes(rhs->copy_matrix(k + j))
                                                 : std::vector<unsigned char>{});
      }
    }
    k += r.matrices();
    out.outcomes.push_back(std::move(o));
  }
  return out;
}

LaunchResult run_flush(hetero::DevicePool& pool, const Coalescer::Flush& flush,
                       const ServiceConfig& cfg) {
  return flush.key.prec == Precision::Single ? run_merged<float>(pool, flush, cfg)
                                             : run_merged<double>(pool, flush, cfg);
}

BatchRecord record_of(int id, const Coalescer::Flush& flush, const LaunchResult& lr,
                      double dispatch_time) {
  BatchRecord b;
  b.id = id;
  b.key = flush.key;
  b.reason = flush.reason;
  b.requests = static_cast<int>(flush.admitted.size());
  for (const Request& r : flush.admitted) b.matrices += r.matrices();
  b.dispatch_time = dispatch_time;
  b.seconds = lr.seconds;
  b.flops = lr.flops;
  b.joules = lr.joules;
  return b;
}

/// The one dispatcher core behind both front doors. It owns the coalescer,
/// the admission controller, the tenant weights, the batch sequence, the
/// outcomes, the batch log, the peak depth and the queue-depth integral,
/// and holds the single copy of every service step. Time only comes in as
/// arguments: replay_trace passes virtual instants, Service passes
/// steady_clock ones. Not thread-safe — Service serialises every call
/// behind one mutex except launch(), which reads only the pool and the
/// config and so runs outside it.
class Core {
 public:
  /// `declared` are the trace's tenant declarations (none in the live
  /// Service); cfg.tenant_weights override them.
  Core(hetero::DevicePool& pool, const ServiceConfig& cfg,
       const std::vector<std::pair<std::string, double>>& declared)
      : pool_(pool),
        cfg_(cfg),
        coalescer_(cfg.coalesce),
        admission_(resolve_admission(cfg.admission), executor_peaks(pool)) {
    for (const auto* list : {&declared, &cfg.tenant_weights})
      for (const auto& [tenant, weight] : *list) {
        coalescer_.set_weight(tenant, weight);
        admission_.set_weight(tenant, weight);
        weights_[tenant] = weight;
      }
  }

  [[nodiscard]] bool idle() const noexcept { return coalescer_.empty(); }
  [[nodiscard]] double next_ready() const noexcept { return coalescer_.next_ready(); }
  /// Completion instant of the last launch (the single-server pool frees up).
  [[nodiscard]] double busy_until() const noexcept { return busy_until_; }
  /// Terminal outcomes so far, in completion order.
  [[nodiscard]] const std::vector<RequestOutcome>& outcomes() const noexcept {
    return report_.outcomes;
  }

  /// Arrival at instant `t`: admission runs against the core's own backlog;
  /// an admitted request joins the coalescer, a shed one resolves at once
  /// with its named rejection status. Returns whether it was queued.
  bool arrive(const Request& r, double t) {
    advance(t);
    const QueueSnapshot snap{coalescer_.depth(), coalescer_.pending_bytes(),
                             coalescer_.pending_flops(), busy_until_};
    const AdmissionDecision verdict = admission_.admit(r, t, snap);
    if (verdict != AdmissionDecision::Admit) {
      report_.outcomes.push_back(rejected_outcome(r, status_of(verdict), t));
      return false;
    }
    coalescer_.add(r, t);
    report_.peak_queue_depth = std::max(report_.peak_queue_depth, coalescer_.depth());
    return true;
  }

  /// Pops the most urgent group ready at `t` (`force`: any pending group —
  /// the drain path); nullopt when none is. Deadline shedding happens here,
  /// before launch time is spent: what queued past its SLO resolves as
  /// RejectedDeadline (the shrunken launch may rescue the rest), so the
  /// returned flush is empty when every member expired.
  [[nodiscard]] std::optional<Coalescer::Flush> take(double t, bool force) {
    advance(t);
    auto flush = coalescer_.pop_ready(t, force);
    if (!flush) return flush;
    auto filtered = admission_.filter_deadlines(std::move(flush->admitted), t);
    for (const Request& r : filtered.dropped)
      report_.outcomes.push_back(rejected_outcome(r, RequestStatus::RejectedDeadline, t));
    flush->admitted = std::move(filtered.kept);
    return flush;
  }

  /// Runs a taken flush as one merged launch (reads only the pool and the
  /// config, never the core's queue state).
  [[nodiscard]] LaunchResult launch(const Coalescer::Flush& flush) const {
    return run_flush(pool_, flush, cfg_);
  }

  /// Records a launch dispatched at `t_dispatch` and finished at `t_done`.
  /// Capacity feedback: calibrate on the observed launch; an executor the
  /// fault layer reports permanently lost cuts the estimate and triggers
  /// one graceful-degradation shed pass over the queued backlog
  /// (lowest-weight tenants first), effective at the completion instant.
  void commit(const Coalescer::Flush& flush, const LaunchResult& lr, double t_dispatch,
              double t_done) {
    busy_until_ = t_done;
    const BatchRecord b = record_of(batch_seq_++, flush, lr, t_dispatch);
    for (RequestOutcome o : lr.outcomes) {
      o.dispatch_time = t_dispatch;
      o.complete_time = t_done;
      o.batch_id = b.id;
      report_.outcomes.push_back(std::move(o));
    }
    report_.batch_log.push_back(b);
    admission_.observe_launch(lr.flops, lr.seconds, lr.lost);
    if (!admission_.take_capacity_drop()) return;
    std::vector<PendingItem> backlog;
    for (const auto& p : coalescer_.pending())
      backlog.push_back(PendingItem{p.id, p.tenant, p.flops});
    for (std::uint64_t id : admission_.shed_plan(backlog)) {
      const Request victim = coalescer_.remove(id);
      report_.outcomes.push_back(
          rejected_outcome(victim, RequestStatus::RejectedQueueFull, t_done));
    }
  }

  /// The final report (call once, after the last step).
  [[nodiscard]] ServiceReport finish() {
    report_.finalize(weights_);
    report_.mean_queue_depth =
        report_.makespan > 0.0 ? depth_integral_ / report_.makespan : 0.0;
    report_.capacity_gflops = admission_.capacity_gflops();
    report_.admission_enabled = admission_.enabled();
    return std::move(report_);
  }

 private:
  /// Integrates the pending depth up to instant `t`.
  void advance(double t) {
    depth_integral_ += coalescer_.depth() * (t - last_event_);
    last_event_ = t;
  }

  hetero::DevicePool& pool_;
  const ServiceConfig& cfg_;
  Coalescer coalescer_;
  AdmissionController admission_;
  std::map<std::string, double> weights_;
  ServiceReport report_;
  int batch_seq_ = 0;
  double busy_until_ = 0.0;
  double last_event_ = 0.0;
  double depth_integral_ = 0.0;
};

}  // namespace

ServiceReport replay_trace(hetero::DevicePool& pool, const Trace& trace,
                           const ServiceConfig& cfg) {
  Core core(pool, cfg, trace.tenants);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t next = 0;
  while (next < trace.requests.size() || !core.idle()) {
    const double t_arrival =
        next < trace.requests.size() ? trace.requests[next].submit_time : kInf;
    // Earliest instant the pool could start the next merged launch: it must
    // be free AND some group must be flushable. Arrivals up to that instant
    // join the queue first — a busy pool is exactly what deepens batches
    // under load.
    const double t_dispatch = std::max(core.busy_until(), core.next_ready());
    if (t_arrival <= t_dispatch) {
      core.arrive(trace.requests[next++], t_arrival);
      continue;
    }
    const auto flush = core.take(t_dispatch, false);
    require(flush.has_value(), "replay_trace: internal scheduling error (no ready group)");
    if (flush->admitted.empty()) continue;
    const LaunchResult lr = core.launch(*flush);
    core.commit(*flush, lr, t_dispatch, t_dispatch + lr.seconds);
  }
  return core.finish();
}

// ---------------------------------------------------------------------------
// Wall-clock Service
// ---------------------------------------------------------------------------

namespace detail {
struct TicketState {
  std::uint64_t id = 0;
  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  bool done = false;
  RequestOutcome outcome;
};
}  // namespace detail

std::uint64_t JobTicket::id() const noexcept { return state_ ? state_->id : 0; }

bool JobTicket::done() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

struct Service::Impl {
  ServiceConfig cfg;
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();

  std::mutex mutex;  // guards core through report
  std::condition_variable wake;  // dispatcher: an arrival, or closing
  Core core;
  std::map<std::uint64_t, std::shared_ptr<detail::TicketState>> tickets;
  std::size_t published = 0;  // outcomes already handed to their tickets
  std::uint64_t next_id = 0;
  bool closing = false;
  std::optional<ServiceReport> report;
  std::thread worker;

  Impl(hetero::DevicePool& pool, ServiceConfig c) : cfg(std::move(c)), core(pool, cfg, {}) {}

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }

  /// Hands every new terminal outcome to its ticket (launch completions and
  /// rejections alike, so a shed request's JobTicket::wait returns instead
  /// of hanging). Caller holds `mutex`.
  void publish() {
    const std::vector<RequestOutcome>& out = core.outcomes();
    for (; published < out.size(); ++published) {
      detail::TicketState& st = *tickets.at(out[published].id);
      {
        std::lock_guard<std::mutex> tl(st.mutex);
        st.outcome = out[published];
        st.done = true;
      }
      st.cv.notify_all();
    }
  }

  /// The dispatcher thread: takes a flush under the lock, runs the launch
  /// outside it (submitters never block behind a launch), commits under the
  /// lock. Once closing, every pending group is forced out before exit.
  void loop() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      const double t_dispatch = now();
      if (auto flush = core.take(t_dispatch, closing)) {
        publish();
        if (flush->admitted.empty()) continue;
        lock.unlock();
        const LaunchResult lr = core.launch(*flush);
        const double t_done = now();
        lock.lock();
        core.commit(*flush, lr, t_dispatch, t_done);
        publish();
      } else if (closing) {
        return;
      } else {
        // Sleep until the next flush is due, an arrival moves it earlier,
        // or drain() closes intake.
        const double ready = core.next_ready();
        const auto woken = [&] { return closing || core.next_ready() != ready; };
        if (std::isfinite(ready))
          wake.wait_for(lock, std::chrono::duration<double>(ready - t_dispatch), woken);
        else
          wake.wait(lock, woken);
      }
    }
  }

  /// Closes intake and joins the dispatcher once it has drained the queue.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      closing = true;
    }
    wake.notify_all();
    if (worker.joinable()) worker.join();
  }
};

Service::Service(hetero::DevicePool& pool, ServiceConfig cfg)
    : impl_(std::make_unique<Impl>(pool, std::move(cfg))) {
  impl_->worker = std::thread([impl = impl_.get()] { impl->loop(); });
}

Service::~Service() { impl_->stop(); }

JobTicket Service::submit(Request r) {
  auto state = std::make_shared<detail::TicketState>();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  require(!impl_->closing, "Service: submit after drain");
  // Stamped under the lock, so coalescer arrivals stay monotone.
  r.submit_time = impl_->now();
  if (r.id == 0) r.id = ++impl_->next_id;
  else impl_->next_id = std::max(impl_->next_id, r.id);
  if (impl_->tickets.count(r.id) != 0)
    throw_error(Status::InvalidArgument,
                "Service: duplicate request id " + std::to_string(r.id));
  // A malformed request throws from arrive() here, to the caller, before
  // any ticket exists for it.
  const bool queued = impl_->core.arrive(r, r.submit_time);
  state->id = r.id;
  impl_->tickets.emplace(r.id, state);
  if (queued) impl_->wake.notify_one();
  else impl_->publish();
  return JobTicket(state);
}

RequestOutcome Service::wait(const JobTicket& ticket) const {
  require(ticket.valid(), "Service: wait on an empty JobTicket");
  detail::TicketState& st = *ticket.state_;
  std::unique_lock<std::mutex> lock(st.mutex);
  st.cv.wait(lock, [&st] { return st.done; });
  return st.outcome;
}

ServiceReport Service::drain() {
  impl_->stop();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->report) impl_->report = impl_->core.finish();
  return *impl_->report;
}

}  // namespace vbatch::service
