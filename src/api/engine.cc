#include "api/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "api/solver_registry.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/simd.h"

namespace htdp {
namespace engine_internal {

using Clock = std::chrono::steady_clock;

/// Shared monotonic epoch with the observability layer (satellite: rates
/// and uptimes derive from one steady clock, never wall time).
double MonotonicSeconds() { return obs::MonotonicSeconds(); }

/// Registry handles for the engine's exported metrics, resolved once.
/// Several Engines in one process (tests, sharded setups) share these --
/// the counters aggregate, which matches how stats() consumers sum them.
struct EngineMetrics {
  obs::Counter* submitted;
  obs::Counter* completed;
  obs::Counter* succeeded;
  obs::Counter* failed;
  obs::Counter* cancelled;
  obs::Counter* deadline_exceeded;
  obs::Counter* budget_rejected;
  obs::Counter* shed;
  obs::Counter* shed_expired;
  obs::Gauge* queue_depth;
  obs::Gauge* running;
  obs::Gauge* overloaded;
};

EngineMetrics& Met() {
  static EngineMetrics* metrics = [] {
    obs::MetricRegistry& r = obs::MetricRegistry::Global();
    auto* m = new EngineMetrics();
    m->submitted = r.GetCounter("htdp_engine_jobs_submitted_total",
                                "Jobs submitted to the Engine");
    m->completed = r.GetCounter("htdp_engine_jobs_completed_total",
                                "Jobs completed (all outcomes)");
    m->succeeded = r.GetCounter("htdp_engine_jobs_succeeded_total",
                                "Jobs that produced a FitResult");
    m->failed = r.GetCounter("htdp_engine_jobs_failed_total",
                             "Jobs that completed with an error");
    m->cancelled = r.GetCounter("htdp_engine_jobs_cancelled_total",
                                "Jobs cancelled before or during a fit");
    m->deadline_exceeded =
        r.GetCounter("htdp_engine_jobs_deadline_exceeded_total",
                     "Jobs that missed their deadline");
    m->budget_rejected =
        r.GetCounter("htdp_engine_jobs_budget_rejected_total",
                     "Submissions rejected by tenant budget admission");
    m->shed = r.GetCounter("htdp_engine_jobs_shed_total",
                           "Submissions shed by overload admission");
    m->shed_expired =
        r.GetCounter("htdp_engine_jobs_shed_expired_total",
                     "Queued jobs shed because their deadline expired");
    m->queue_depth =
        r.GetGauge("htdp_engine_queue_depth", "Jobs waiting in the queue");
    m->running =
        r.GetGauge("htdp_engine_jobs_running", "Jobs currently on a worker");
    m->overloaded = r.GetGauge("htdp_engine_overloaded",
                               "1 while the shed watermark latch is on");
    return m;
  }();
  return *metrics;
}

/// Per-tenant end-to-end fit latency (submit -> completion). The label
/// value "none" keeps untenanted jobs out of the empty-label series.
void ObserveFitLatency(const std::string& tenant, double seconds) {
  obs::MetricRegistry::Global()
      .GetHistogram("htdp_fit_latency_seconds",
                    "Job latency from submit to completion",
                    obs::MetricRegistry::LatencySecondsBuckets(),
                    {{"tenant", tenant.empty() ? "none" : tenant}})
      ->Observe(seconds);
}

/// Queue, counters and coordination state shared by the Engine and every
/// JobRecord. Held through shared_ptrs so a JobHandle's Cancel() can update
/// the queue/counters directly -- and safely even after the Engine object is
/// gone (by then stop is set and the queue empty, so Cancel degenerates to a
/// no-op).
///
/// ### Scheduler invariants (see docs/engine.md)
///
/// - One FIFO `queue`, guarded by `mu`: Submit appends, a worker pops the
///   front.
/// - Whoever takes a record out of `queue` under `mu` -- a worker's pop,
///   Cancel's erase, Shutdown's sweep -- claims it (`running`) or completes
///   it in that same critical section, so every job completes exactly once.
/// - `running` counts claimed jobs until their completion publishes, so
///   Drain()'s `queue.empty() && running == 0` is exact.
/// - Lock order: `mu` -> a record's mu, never the reverse.
struct EngineShared {
  std::mutex mu;
  std::condition_variable work_cv;  // backlog became non-empty / stopping
  std::condition_variable idle_cv;  // a job completed / left the backlog
  std::deque<std::shared_ptr<JobRecord>> queue;  // FIFO backlog
  bool stop = false;

  /// Tenant-budget ledger (Options::budgets). Not owned; set once at Engine
  /// construction and never mutated, so it is safe to read without `mu`.
  BudgetManager* budgets = nullptr;

  // Overload-admission knobs (set once at construction, read-only after) and
  // the watermark latch + per-tenant inflight counts (guarded by mu).
  std::size_t max_queue_depth = 0;
  std::size_t queue_resume_depth = 0;
  std::size_t max_inflight_per_tenant = 0;
  bool overloaded = false;
  std::map<std::string, std::size_t> tenant_inflight;

  // Counters (guarded by mu). Every submitted job increments `completed`
  // exactly once: at Submit for inline failures, in RunJob's finish, in
  // Cancel's queued branch, or in Shutdown's orphan sweep.
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t deadline_exceeded = 0;
  std::size_t budget_rejected = 0;
  std::size_t unavailable_rejected = 0;
  std::size_t shed_expired = 0;
  std::size_t running = 0;

  const double start_seconds = MonotonicSeconds();
};

/// Shared state of one submitted job. The Engine and every JobHandle copy
/// hold it through a shared_ptr; its own mutex/cv make Wait() independent
/// of the Engine's lifetime (the Engine completes all jobs before dying).
///
/// `done` and `result` are guarded by `mu` and set once, when the outcome
/// is published. Lock order: the EngineShared mu is always acquired before
/// a record's mu, never the other way around.
struct JobRecord {
  FitJob job;
  const Solver* solver = nullptr;  // resolved at Submit; null on lookup error
  std::shared_ptr<EngineShared> engine;  // null once completed inline
  std::atomic<bool> cancel{false};
  bool has_deadline = false;
  Clock::time_point deadline;

  /// obs::NowNanos() at Submit entry; start edge of the engine.queue_wait
  /// span and the origin of the per-tenant fit-latency observation.
  std::uint64_t submit_ns = 0;

  /// True while the job holds a tenant-budget reservation. Only the path
  /// that completes the job (see the EngineShared invariants) reads or
  /// clears it, so no extra synchronization is needed.
  bool charged = false;

  /// The open reservation backing `charged` (BudgetManager::Reserve at
  /// Submit). Closed exactly once: CommitIfCharged when the job released
  /// mechanism output, RefundIfCharged when it provably never ran.
  BudgetManager::ReservationId reservation = 0;

  /// True while the job counts against its tenant's inflight cap. Guarded
  /// by the ENGINE mutex (the count lives in EngineShared::tenant_inflight).
  bool counted_inflight = false;

  /// Aborts the tenant reservation of a job that released no mechanism
  /// output: the budget becomes available again (journaled as ABORT when
  /// the manager is durable). Call only from the completing path.
  void RefundIfCharged(BudgetManager* budgets) {
    if (!charged || budgets == nullptr) return;
    (void)budgets->Abort(reservation);
    charged = false;
  }

  /// Finalizes the reservation of a job whose fit ran (or may have run):
  /// the spend is permanent (journaled as COMMIT when the manager is
  /// durable). Call only from the completing path.
  void CommitIfCharged(BudgetManager* budgets) {
    if (!charged || budgets == nullptr) return;
    (void)budgets->Commit(reservation);
    charged = false;
  }

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::optional<StatusOr<FitResult>> result;

  /// Publishes the outcome and wakes Wait(). Called exactly once, by the
  /// path that owns the job's completion.
  void Complete(StatusOr<FitResult> outcome) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      result.emplace(std::move(outcome));
      done = true;
    }
    cv.notify_all();
  }

  std::string Describe() const {
    std::string what = "job";
    if (!job.tag.empty()) what += " \"" + job.tag + "\"";
    return what;
  }
};

/// Returns the job's slot in its tenant's inflight count. Caller must hold
/// the engine mutex; idempotent (every completion path calls it once).
void ReleaseTenantInflightLocked(EngineShared& engine, JobRecord& record) {
  if (!record.counted_inflight) return;
  record.counted_inflight = false;
  const auto it = engine.tenant_inflight.find(record.job.tenant);
  if (it != engine.tenant_inflight.end()) {
    if (it->second <= 1) {
      engine.tenant_inflight.erase(it);
    } else {
      --it->second;
    }
  }
}

}  // namespace engine_internal

using engine_internal::EngineShared;
using engine_internal::JobRecord;
using engine_internal::ReleaseTenantInflightLocked;

const std::string& JobHandle::tag() const {
  HTDP_CHECK(record_ != nullptr) << "JobHandle is empty";
  return record_->job.tag;
}

bool JobHandle::done() const {
  HTDP_CHECK(record_ != nullptr) << "JobHandle is empty";
  const std::lock_guard<std::mutex> lock(record_->mu);
  return record_->done;
}

void JobHandle::Cancel() {
  HTDP_CHECK(record_ != nullptr) << "JobHandle is empty";
  record_->cancel.store(true, std::memory_order_release);
  const std::shared_ptr<EngineShared> engine = record_->engine;
  if (engine == nullptr) return;  // completed inline at Submit
  // A job that has not started yet completes right here -- erased from the
  // queue with the counters updated -- so Wait()/done()/stats() all observe
  // the cancellation immediately, not after a worker drains to it. A job
  // missing from the queue was already claimed by a worker (it observes
  // `cancel` at its pre-run check or next iteration poll) or completed.
  bool completed = false;
  {
    const std::lock_guard<std::mutex> engine_lock(engine->mu);
    const auto it =
        std::find(engine->queue.begin(), engine->queue.end(), record_);
    if (it != engine->queue.end()) {
      engine->queue.erase(it);
      // Close the reservation before the result becomes observable so
      // Wait() never races the refund.
      record_->RefundIfCharged(engine->budgets);  // cancelled before running
      record_->Complete(Status::Cancelled(record_->Describe() +
                                          " cancelled before it started"));
      ++engine->completed;
      ++engine->cancelled;
      engine_internal::Met().completed->Increment();
      engine_internal::Met().cancelled->Increment();
      engine_internal::Met().queue_depth->Set(
          static_cast<double>(engine->queue.size()));
      ReleaseTenantInflightLocked(*engine, *record_);
      completed = true;
    }
  }
  if (completed) engine->idle_cv.notify_all();
}

const StatusOr<FitResult>& JobHandle::Wait() const& {
  HTDP_CHECK(record_ != nullptr) << "JobHandle is empty";
  std::unique_lock<std::mutex> lock(record_->mu);
  record_->cv.wait(lock, [&] { return record_->done; });
  return *record_->result;
}

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(Options options)
    : state_(std::make_shared<EngineShared>()) {
  state_->budgets = options.budgets;
  state_->max_queue_depth = options.max_queue_depth;
  if (options.max_queue_depth > 0) {
    state_->queue_resume_depth =
        options.queue_resume_depth > 0 &&
                options.queue_resume_depth < options.max_queue_depth
            ? options.queue_resume_depth
            : options.max_queue_depth / 2;
  }
  state_->max_inflight_per_tenant = options.max_inflight_per_tenant;
  const int workers =
      options.workers > 0 ? options.workers : NumWorkerThreads();
  worker_count_ = std::max(workers, 1);
  workers_.reserve(static_cast<std::size_t>(worker_count_));
  for (int i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  // Info-style series (value pinned to 1, the payload lives in the labels):
  // tags every metrics scrape with the SIMD ISA the kernel dispatcher
  // actually selected and the engine's worker count, so archived series
  // from different hosts or HTDP_SIMD settings stay attributable. A second
  // Engine with a different worker count adds its own labeled series
  // rather than clobbering this one.
  obs::MetricRegistry::Global()
      .GetGauge("htdp_runtime_info",
                "Runtime configuration tag; value is always 1",
                {{"simd", SimdEnabled() ? SimdInfo().isa : "off"},
                 {"threads", std::to_string(worker_count_)}})
      ->Set(1.0);
}

Engine::~Engine() { Shutdown(); }

JobHandle Engine::Submit(FitJob job) {
  auto record = std::make_shared<JobRecord>();
  record->job = std::move(job);
  record->submit_ns = obs::NowNanos();
  engine_internal::Met().submitted->Increment();
  if (record->job.deadline_seconds > 0.0) {
    record->has_deadline = true;
    record->deadline =
        engine_internal::Clock::now() +
        std::chrono::duration_cast<engine_internal::Clock::duration>(
            std::chrono::duration<double>(record->job.deadline_seconds));
  }

  // Resolve the solver up front so an unknown name fails fast with the
  // registry's typed Status (listing the known names) instead of occupying
  // a worker.
  if (record->job.solver != nullptr) {
    record->solver = record->job.solver;
  } else {
    StatusOr<const Solver*> found =
        SolverRegistry::Global().Find(record->job.solver_name);
    if (!found.ok()) {
      {
        const std::lock_guard<std::mutex> lock(state_->mu);
        ++state_->submitted;
        ++state_->completed;
        ++state_->failed;
        record->Complete(found.status());
      }
      engine_internal::Met().completed->Increment();
      engine_internal::Met().failed->Increment();
      state_->idle_cv.notify_all();
      return JobHandle(std::move(record));
    }
    record->solver = *found;
  }

  // Tenant-budget admission: reserve the job's spec.budget from its named
  // tenant before it can reach a worker. Rejections complete inline with
  // the manager's typed Status (kBudgetExhausted when the budget is spent,
  // kInvalidProblem for an unknown tenant or an Engine without a
  // BudgetManager) -- no work runs, no privacy is spent. Reservation takes
  // only the manager's own lock, never the engine mutex.
  if (!record->job.tenant.empty()) {
    StatusOr<BudgetManager::ReservationId> reservation =
        state_->budgets != nullptr
            ? state_->budgets->Reserve(record->job.tenant,
                                       record->job.spec.budget)
            : StatusOr<BudgetManager::ReservationId>(Status::InvalidProblem(
                  record->Describe() + " names tenant \"" +
                  record->job.tenant +
                  "\" but the Engine has no BudgetManager "
                  "(set Engine::Options::budgets)"));
    Status reserved = reservation.status();
    if (!reserved.ok()) {
      const bool exhausted =
          reserved.code() == StatusCode::kBudgetExhausted;
      {
        const std::lock_guard<std::mutex> lock(state_->mu);
        ++state_->submitted;
        ++state_->completed;
        ++state_->failed;
        if (exhausted) {
          ++state_->budget_rejected;
        }
        record->Complete(std::move(reserved));
      }
      engine_internal::Met().completed->Increment();
      engine_internal::Met().failed->Increment();
      if (exhausted) engine_internal::Met().budget_rejected->Increment();
      state_->idle_cv.notify_all();
      return JobHandle(std::move(record));
    }
    record->charged = true;
    record->reservation = reservation.value();
  }

  bool rejected = false;
  bool shed = false;
  {
    const std::lock_guard<std::mutex> lock(state_->mu);
    ++state_->submitted;
    if (state_->stop) {
      ++state_->completed;
      ++state_->cancelled;
      record->RefundIfCharged(state_->budgets);  // never ran
      record->Complete(Status::Cancelled(record->Describe() +
                                         " submitted after Engine shutdown"));
      rejected = true;
    } else if (Status admitted = AdmitLocked(*record); !admitted.ok()) {
      // Overload shedding: the queue watermark latch or the tenant inflight
      // cap refused the job. kUnavailable is retryable by contract -- the
      // job never ran, and the reservation is closed BEFORE the completion
      // publishes so no observer can see a shed job still holding budget.
      ++state_->completed;
      ++state_->failed;
      ++state_->unavailable_rejected;
      record->RefundIfCharged(state_->budgets);  // never ran
      record->Complete(std::move(admitted));
      rejected = true;
      shed = true;
    } else {
      record->engine = state_;
      state_->queue.push_back(record);
      engine_internal::Met().queue_depth->Set(
          static_cast<double>(state_->queue.size()));
      if (!record->job.tenant.empty() &&
          state_->max_inflight_per_tenant > 0) {
        ++state_->tenant_inflight[record->job.tenant];
        record->counted_inflight = true;
      }
    }
  }
  if (rejected) {
    engine_internal::Met().completed->Increment();
    if (shed) {
      engine_internal::Met().failed->Increment();
      engine_internal::Met().shed->Increment();
    } else {
      engine_internal::Met().cancelled->Increment();
    }
    state_->idle_cv.notify_all();
    return JobHandle(std::move(record));
  }
  state_->work_cv.notify_one();
  return JobHandle(std::move(record));
}

Status Engine::AdmitLocked(engine_internal::JobRecord& record) {
  // High/low watermark hysteresis: the latch flips on at max_queue_depth and
  // off once a drain cycle brings the queue back to queue_resume_depth, so
  // admission does not flap once per popped job at the boundary.
  if (state_->max_queue_depth > 0) {
    const std::size_t depth = state_->queue.size();
    if (state_->overloaded && depth <= state_->queue_resume_depth) {
      state_->overloaded = false;
      engine_internal::Met().overloaded->Set(0.0);
    }
    if (!state_->overloaded && depth >= state_->max_queue_depth) {
      state_->overloaded = true;
      engine_internal::Met().overloaded->Set(1.0);
    }
    if (state_->overloaded) {
      return Status::Unavailable(
          record.Describe() + " shed: queue depth " + std::to_string(depth) +
          " at cap " + std::to_string(state_->max_queue_depth) +
          "; retry after ~" +
          std::to_string(RetryAfterHintMs(depth + state_->running,
                                          worker_count_)) +
          " ms");
    }
  }
  if (state_->max_inflight_per_tenant > 0 && !record.job.tenant.empty()) {
    const auto it = state_->tenant_inflight.find(record.job.tenant);
    if (it != state_->tenant_inflight.end() &&
        it->second >= state_->max_inflight_per_tenant) {
      return Status::Unavailable(
          record.Describe() + " shed: tenant \"" + record.job.tenant +
          "\" already has " + std::to_string(it->second) +
          " jobs inflight (cap " +
          std::to_string(state_->max_inflight_per_tenant) + ")");
    }
  }
  return Status::Ok();
}

void Engine::WorkerMain() {
  for (;;) {
    std::shared_ptr<JobRecord> record;
    bool shed = false;
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->work_cv.wait(
          lock, [&] { return state_->stop || !state_->queue.empty(); });
      if (state_->queue.empty()) return;  // stopping; Shutdown swept the queue
      record = std::move(state_->queue.front());
      state_->queue.pop_front();
      engine_internal::Met().queue_depth->Set(
          static_cast<double>(state_->queue.size()));
      // Deadline-aware shedding: a job whose wall-clock deadline already
      // expired while it sat queued is completed right here -- the worker
      // immediately pops the next job instead of spinning up RunJob for a
      // fit that could only ever report kDeadlineExceeded. The reservation
      // closes BEFORE the completion publishes: a waiter that sees the shed
      // finds the budget already returned.
      if (record->has_deadline &&
          engine_internal::Clock::now() >= record->deadline) {
        record->RefundIfCharged(state_->budgets);  // never ran
        record->Complete(Status::DeadlineExceeded(
            record->Describe() + " deadline expired while queued; shed"));
        ++state_->completed;
        ++state_->deadline_exceeded;
        ++state_->shed_expired;
        engine_internal::Met().completed->Increment();
        engine_internal::Met().deadline_exceeded->Increment();
        engine_internal::Met().shed_expired->Increment();
        ReleaseTenantInflightLocked(*state_, *record);
        shed = true;
      } else {
        ++state_->running;  // claimed: no other path can complete it now
        engine_internal::Met().running->Set(
            static_cast<double>(state_->running));
      }
    }
    if (!shed) RunJob(*record);
    state_->idle_cv.notify_all();
  }
}

void Engine::RunJob(JobRecord& record) {
  // Queue wait is recorded retroactively from the submit stamp: the span
  // covers the full time the job sat before a worker picked it up.
  obs::RecordSpan("engine.queue_wait", record.submit_ns, obs::NowNanos());
  HTDP_TRACE_SPAN("engine.job");
  // Refunds the tenant reservation when the outcome proves no mechanism
  // output was released: the job never started, or the solver rejected it
  // in its up-front validation (every solver validates before its first
  // mechanism invocation; only kCancelled/kDeadlineExceeded can interrupt a
  // fit that already released iterations).
  const auto refund_if_unreleased = [&](const Status& status) {
    switch (status.code()) {
      case StatusCode::kInvalidProblem:
      case StatusCode::kBudgetExhausted:
      case StatusCode::kShapeMismatch:
      case StatusCode::kUnknownSolver:
        record.RefundIfCharged(state_->budgets);
        break;
      default:
        break;
    }
  };

  const auto finish = [&](StatusOr<FitResult> outcome,
                          std::size_t EngineShared::* counter) {
    // Whatever reservation the refund paths above left standing is now
    // final: the fit ran (or may have released iterations before a cancel/
    // deadline stop), so its spend commits. This happens BEFORE the
    // completion is published -- when Drain() returns, every reservation
    // is closed and the conservation invariant (open == 0) holds.
    record.CommitIfCharged(state_->budgets);
    // Export the obs counters BEFORE publishing the completion: a client
    // that sees its result and immediately scrapes METRICS must find this
    // job already counted (the registry is lock-free, so ordering is the
    // only synchronization the scrape gets).
    engine_internal::EngineMetrics& met = engine_internal::Met();
    met.completed->Increment();
    if (counter == &EngineShared::succeeded) {
      met.succeeded->Increment();
    } else if (counter == &EngineShared::failed) {
      met.failed->Increment();
    } else if (counter == &EngineShared::cancelled) {
      met.cancelled->Increment();
    } else if (counter == &EngineShared::deadline_exceeded) {
      met.deadline_exceeded->Increment();
    }
    engine_internal::ObserveFitLatency(
        record.job.tenant,
        static_cast<double>(obs::NowNanos() - record.submit_ns) * 1e-9);
    {
      // Publish the result and update the counters in one engine-mutex
      // critical section (engine mu -> record mu is the global lock order):
      // when Drain() sees running == 0 the result is already observable,
      // and when a waiter returns from Wait() the next stats() call --
      // which must acquire the engine mutex -- already includes this job.
      const std::lock_guard<std::mutex> lock(state_->mu);
      record.Complete(std::move(outcome));
      --state_->running;
      ++state_->completed;
      ++((*state_).*counter);
      ReleaseTenantInflightLocked(*state_, record);
      engine_internal::Met().running->Set(
          static_cast<double>(state_->running));
    }
  };

  if (record.cancel.load(std::memory_order_acquire)) {
    record.RefundIfCharged(state_->budgets);  // never ran
    finish(Status::Cancelled(record.Describe() +
                             " cancelled before it started"),
           &EngineShared::cancelled);
    return;
  }
  if (record.has_deadline &&
      engine_internal::Clock::now() >= record.deadline) {
    record.RefundIfCharged(state_->budgets);  // never ran
    finish(Status::DeadlineExceeded(record.Describe() +
                                    " missed its deadline while queued"),
           &EngineShared::deadline_exceeded);
    return;
  }

  // Wire cancellation + deadline into the solver's cooperative-stop hook,
  // composing with any caller-installed hook. The hook never touches the
  // RNG, so an unstopped fit is bit-identical to a sequential TryFit.
  SolverSpec spec = record.job.spec;
  const std::function<bool()> caller_stop = std::move(spec.should_stop);
  JobRecord* rec = &record;
  spec.should_stop = [rec, caller_stop] {
    if (rec->cancel.load(std::memory_order_relaxed)) return true;
    if (rec->has_deadline &&
        engine_internal::Clock::now() >= rec->deadline) {
      return true;
    }
    return caller_stop && caller_stop();
  };

  Rng rng = record.job.rng.has_value() ? *record.job.rng
                                       : Rng(record.job.seed);
  StatusOr<FitResult> result =
      record.solver->TryFit(record.job.problem, spec, rng);

  // Solver-produced errors get the job tag prefixed (Engine-generated
  // cancel/deadline statuses below already carry it via Describe()), so a
  // sweep's aggregated error log attributes every failure to its cell.
  const auto tagged = [&](const Status& status) {
    if (record.job.tag.empty()) return status;
    return Status::WithCode(status.code(),
                            record.Describe() + ": " + status.message());
  };

  if (result.ok()) {
    // Hold the documented deadline contract even when the fit never hit a
    // should_stop poll after the deadline passed (e.g. single-poll alg4):
    // a result delivered late is a deadline miss, not a success.
    if (record.has_deadline &&
        engine_internal::Clock::now() >= record.deadline) {
      finish(Status::DeadlineExceeded(record.Describe() +
                                      " finished after its deadline"),
             &EngineShared::deadline_exceeded);
    } else {
      finish(std::move(result), &EngineShared::succeeded);
    }
    return;
  }
  if (result.status().code() == StatusCode::kCancelled) {
    // Attribute the stop: an explicit Cancel() wins; otherwise a deadline
    // overrun mid-fit reports kDeadlineExceeded.
    if (!record.cancel.load(std::memory_order_acquire) &&
        record.has_deadline &&
        engine_internal::Clock::now() >= record.deadline) {
      finish(Status::DeadlineExceeded(record.Describe() +
                                      " missed its deadline mid-fit"),
             &EngineShared::deadline_exceeded);
    } else {
      finish(tagged(result.status()), &EngineShared::cancelled);
    }
    return;
  }
  refund_if_unreleased(result.status());
  finish(tagged(result.status()), &EngineShared::failed);
}

void Engine::Drain() {
  // Exact: a worker pops and claims a job in one critical section, and
  // RunJob publishes the result and decrements `running` in another.
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->idle_cv.wait(lock, [&] {
    return state_->queue.empty() && state_->running == 0;
  });
}

void Engine::Shutdown() {
  // Serializes concurrent Shutdown() callers (incl. the destructor) so the
  // join below runs exactly once.
  const std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    const std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->stop && workers_.empty()) return;  // already shut down
    state_->stop = true;
    // Complete the queued orphans while still holding the engine mutex:
    // taking them out of the queue makes this path their unique completion
    // owner. Jobs a worker already claimed are not orphans -- the join below
    // waits for them to finish.
    for (const std::shared_ptr<JobRecord>& record : state_->queue) {
      record->RefundIfCharged(state_->budgets);  // never ran
      record->Complete(Status::Cancelled(record->Describe() +
                                         " cancelled by Engine shutdown"));
      ++state_->completed;
      ++state_->cancelled;
      engine_internal::Met().completed->Increment();
      engine_internal::Met().cancelled->Increment();
      ReleaseTenantInflightLocked(*state_, *record);
    }
    state_->queue.clear();
    engine_internal::Met().queue_depth->Set(0.0);
  }
  state_->work_cv.notify_all();
  state_->idle_cv.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

EngineStats Engine::stats() const {
  EngineStats stats;
  const std::lock_guard<std::mutex> lock(state_->mu);
  stats.submitted = state_->submitted;
  stats.completed = state_->completed;
  stats.succeeded = state_->succeeded;
  stats.failed = state_->failed;
  stats.cancelled = state_->cancelled;
  stats.deadline_exceeded = state_->deadline_exceeded;
  stats.budget_rejected = state_->budget_rejected;
  stats.unavailable_rejected = state_->unavailable_rejected;
  stats.shed_expired = state_->shed_expired;
  stats.queue_depth = state_->queue.size();
  stats.running = state_->running;
  stats.overloaded = state_->overloaded;
  stats.uptime_seconds =
      engine_internal::MonotonicSeconds() - state_->start_seconds;
  stats.jobs_per_second = stats.uptime_seconds > 0.0
                              ? static_cast<double>(stats.completed) /
                                    stats.uptime_seconds
                              : 0.0;
  return stats;
}

std::uint32_t Engine::SuggestedRetryAfterMs() const {
  const std::lock_guard<std::mutex> lock(state_->mu);
  return RetryAfterHintMs(
      state_->queue.size() + state_->running,
      worker_count_);
}

}  // namespace htdp
