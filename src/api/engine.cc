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
/// - Complete() is the only function that publishes a result.
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
  // exactly once, in Complete().
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

  /// True while the job holds a tenant-budget reservation; `reservation`
  /// is the BudgetManager::Reserve id opened at Submit. Only Complete()
  /// closes it, so no extra synchronization is needed.
  bool charged = false;
  BudgetManager::ReservationId reservation = 0;

  /// Set by RunJob just before TryFit. Read only by the completing path.
  bool fit_ran = false;

  /// True while the job counts against its tenant's inflight cap. Guarded
  /// by the ENGINE mutex (the count lives in EngineShared::tenant_inflight).
  bool counted_inflight = false;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::optional<StatusOr<FitResult>> result;

  std::string Describe() const {
    std::string what = "job";
    if (!job.tag.empty()) what += " \"" + job.tag + "\"";
    return what;
  }
};

/// How a job ended. Each outcome bumps `completed` plus its row of
/// kOutcomeCounters, in EngineShared and in the exported metrics alike.
enum class Outcome {
  kSucceeded,
  kFailed,
  kBudgetRejected,    // tenant reservation refused at Submit
  kShed,              // queue cap or tenant inflight cap at Submit
  kCancelled,
  kDeadlineExceeded,
  kShedExpired,       // deadline passed while queued; shed at dequeue
};

struct OutcomeCounters {
  std::size_t EngineShared::* shared[2];
  obs::Counter* EngineMetrics::* exported[2];
};

constexpr OutcomeCounters kOutcomeCounters[] = {
    {{&EngineShared::succeeded}, {&EngineMetrics::succeeded}},
    {{&EngineShared::failed}, {&EngineMetrics::failed}},
    {{&EngineShared::failed, &EngineShared::budget_rejected},
     {&EngineMetrics::failed, &EngineMetrics::budget_rejected}},
    {{&EngineShared::failed, &EngineShared::unavailable_rejected},
     {&EngineMetrics::failed, &EngineMetrics::shed}},
    {{&EngineShared::cancelled}, {&EngineMetrics::cancelled}},
    {{&EngineShared::deadline_exceeded}, {&EngineMetrics::deadline_exceeded}},
    {{&EngineShared::deadline_exceeded, &EngineShared::shed_expired},
     {&EngineMetrics::deadline_exceeded, &EngineMetrics::shed_expired}},
};

/// True when `status` proves the fit released no mechanism output: every
/// solver validates before its first mechanism invocation, so these codes
/// can only come from that up-front check.
bool ReleasedNothing(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidProblem:
    case StatusCode::kBudgetExhausted:
    case StatusCode::kShapeMismatch:
    case StatusCode::kUnknownSolver:
      return true;
    default:
      return false;
  }
}

/// Completes `record` -- the only function that publishes a job's result.
/// `lock` is on engine.mu: held by callers that just took the record out of
/// the queue (or never queued it), free exactly when a worker completes a
/// job it claimed (RunJob). In order:
///  1. closes the tenant reservation: Commit when a worker ran TryFit and
///     the status does not prove that nothing was released, Abort
///     otherwise. The worker closes it (and observes the claimed job's
///     latency) before taking `mu`, so a durable journal's fsync never
///     stalls the queue;
///  2. under `mu`, counts the outcome, retires a claimed job from
///     `running`, returns the tenant's inflight slot and publishes;
///  3. after unlocking, wakes Drain() and runs FitJob::on_complete.
void Complete(EngineShared& engine, std::unique_lock<std::mutex>& lock,
              JobRecord& record, Outcome outcome, StatusOr<FitResult> result) {
  const bool claimed = !lock.owns_lock();
  if (record.charged && engine.budgets != nullptr) {
    if (record.fit_ran && !ReleasedNothing(result.status())) {
      (void)engine.budgets->Commit(record.reservation);
    } else {
      (void)engine.budgets->Abort(record.reservation);
    }
    record.charged = false;
  }
  if (claimed) {
    ObserveFitLatency(
        record.job.tenant,
        static_cast<double>(obs::NowNanos() - record.submit_ns) * 1e-9);
  }
  if (claimed) lock.lock();

  // The exported counters move before the publish: a client that sees its
  // result and immediately scrapes METRICS finds the job already counted.
  EngineMetrics& met = Met();
  ++engine.completed;
  met.completed->Increment();
  const OutcomeCounters& row = kOutcomeCounters[static_cast<int>(outcome)];
  for (std::size_t EngineShared::* counter : row.shared) {
    if (counter != nullptr) ++(engine.*counter);
  }
  for (obs::Counter* EngineMetrics::* counter : row.exported) {
    if (counter != nullptr) (met.*counter)->Increment();
  }
  if (claimed) {
    --engine.running;
    met.running->Set(static_cast<double>(engine.running));
  }
  if (record.counted_inflight) {
    record.counted_inflight = false;
    const auto it = engine.tenant_inflight.find(record.job.tenant);
    if (it != engine.tenant_inflight.end() && --it->second == 0) {
      engine.tenant_inflight.erase(it);
    }
  }
  {
    const std::lock_guard<std::mutex> record_lock(record.mu);
    record.result.emplace(std::move(result));
    record.done = true;
  }
  lock.unlock();
  record.cv.notify_all();
  engine.idle_cv.notify_all();
  const std::function<void()> on_complete = std::move(record.job.on_complete);
  if (on_complete) on_complete();
}

}  // namespace engine_internal

using engine_internal::Complete;
using engine_internal::EngineShared;
using engine_internal::JobRecord;
using engine_internal::Outcome;

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
  std::unique_lock<std::mutex> lock(engine->mu);
  const auto it =
      std::find(engine->queue.begin(), engine->queue.end(), record_);
  if (it == engine->queue.end()) return;
  engine->queue.erase(it);
  engine_internal::Met().queue_depth->Set(
      static_cast<double>(engine->queue.size()));
  Complete(*engine, lock, *record_, Outcome::kCancelled,
           Status::Cancelled(record_->Describe() +
                             " cancelled before it started"));
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
  Status refused;
  Outcome refused_as = Outcome::kFailed;
  if (record->job.solver != nullptr) {
    record->solver = record->job.solver;
  } else {
    StatusOr<const Solver*> found =
        SolverRegistry::Global().Find(record->job.solver_name);
    if (found.ok()) {
      record->solver = *found;
    } else {
      refused = found.status();
    }
  }

  // Tenant-budget admission: reserve the job's spec.budget from its named
  // tenant before it can reach a worker. Rejections complete inline with
  // the manager's typed Status (kBudgetExhausted when the budget is spent,
  // kInvalidProblem for an unknown tenant or an Engine without a
  // BudgetManager) -- no work runs, no privacy is spent. Reservation takes
  // only the manager's own lock, never the engine mutex.
  if (refused.ok() && !record->job.tenant.empty()) {
    StatusOr<BudgetManager::ReservationId> reservation =
        state_->budgets != nullptr
            ? state_->budgets->Reserve(record->job.tenant,
                                       record->job.spec.budget)
            : StatusOr<BudgetManager::ReservationId>(Status::InvalidProblem(
                  record->Describe() + " names tenant \"" +
                  record->job.tenant +
                  "\" but the Engine has no BudgetManager "
                  "(set Engine::Options::budgets)"));
    if (reservation.ok()) {
      record->charged = true;
      record->reservation = reservation.value();
    } else {
      refused = reservation.status();
      if (refused.code() == StatusCode::kBudgetExhausted) {
        refused_as = Outcome::kBudgetRejected;
      }
    }
  }

  std::unique_lock<std::mutex> lock(state_->mu);
  ++state_->submitted;
  if (!refused.ok()) {
    Complete(*state_, lock, *record, refused_as, std::move(refused));
  } else if (state_->stop) {
    Complete(*state_, lock, *record, Outcome::kCancelled,
             Status::Cancelled(record->Describe() +
                               " submitted after Engine shutdown"));
  } else if (Status admitted = AdmitLocked(*record); !admitted.ok()) {
    // Overload shedding: the queue watermark latch or the tenant inflight
    // cap refused the job. kUnavailable is retryable by contract -- the
    // job never ran, so Complete() returns its reservation.
    Complete(*state_, lock, *record, Outcome::kShed, std::move(admitted));
  } else {
    record->engine = state_;
    state_->queue.push_back(record);
    engine_internal::Met().queue_depth->Set(
        static_cast<double>(state_->queue.size()));
    if (!record->job.tenant.empty() && state_->max_inflight_per_tenant > 0) {
      ++state_->tenant_inflight[record->job.tenant];
      record->counted_inflight = true;
    }
    lock.unlock();
    state_->work_cv.notify_one();
  }
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
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->work_cv.wait(
          lock, [&] { return state_->stop || !state_->queue.empty(); });
      if (state_->stop) return;  // Shutdown sweeps the queue
      record = std::move(state_->queue.front());
      state_->queue.pop_front();
      engine_internal::Met().queue_depth->Set(
          static_cast<double>(state_->queue.size()));
      // Deadline-aware shedding: a job whose wall-clock deadline already
      // expired while it sat queued is completed right here -- the worker
      // immediately pops the next job instead of spinning up RunJob for a
      // fit that could only ever report kDeadlineExceeded.
      if (record->has_deadline &&
          engine_internal::Clock::now() >= record->deadline) {
        Complete(*state_, lock, *record, Outcome::kShedExpired,
                 Status::DeadlineExceeded(
                     record->Describe() +
                     " deadline expired while queued; shed"));
        continue;
      }
      ++state_->running;  // claimed: no other path can complete it now
      engine_internal::Met().running->Set(
          static_cast<double>(state_->running));
    }
    RunJob(*record);
  }
}

void Engine::RunJob(JobRecord& record) {
  // Queue wait is recorded retroactively from the submit stamp: the span
  // covers the full time the job sat before a worker picked it up.
  obs::RecordSpan("engine.queue_wait", record.submit_ns, obs::NowNanos());
  HTDP_TRACE_SPAN("engine.job");
  std::unique_lock<std::mutex> lock(state_->mu, std::defer_lock);
  const auto finish = [&](Outcome outcome, StatusOr<FitResult> result) {
    Complete(*state_, lock, record, outcome, std::move(result));
  };

  if (record.cancel.load(std::memory_order_acquire)) {
    finish(Outcome::kCancelled,
           Status::Cancelled(record.Describe() +
                             " cancelled before it started"));
    return;
  }
  if (record.has_deadline &&
      engine_internal::Clock::now() >= record.deadline) {
    finish(Outcome::kDeadlineExceeded,
           Status::DeadlineExceeded(record.Describe() +
                                    " missed its deadline while queued"));
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
  record.fit_ran = true;
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
      finish(Outcome::kDeadlineExceeded,
             Status::DeadlineExceeded(record.Describe() +
                                      " finished after its deadline"));
    } else {
      finish(Outcome::kSucceeded, std::move(result));
    }
    return;
  }
  if (result.status().code() == StatusCode::kCancelled) {
    // Attribute the stop: an explicit Cancel() wins; otherwise a deadline
    // overrun mid-fit reports kDeadlineExceeded.
    if (!record.cancel.load(std::memory_order_acquire) &&
        record.has_deadline &&
        engine_internal::Clock::now() >= record.deadline) {
      finish(Outcome::kDeadlineExceeded,
             Status::DeadlineExceeded(record.Describe() +
                                      " missed its deadline mid-fit"));
    } else {
      finish(Outcome::kCancelled, tagged(result.status()));
    }
    return;
  }
  finish(Outcome::kFailed, tagged(result.status()));
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
  std::unique_lock<std::mutex> lock(state_->mu);
  if (state_->stop && workers_.empty()) return;  // already shut down
  state_->stop = true;
  // Complete the queued orphans: popping one under the engine mutex makes
  // this path its unique completion owner, and workers leave the queue
  // alone once `stop` is set. Jobs a worker already claimed are not
  // orphans -- the join below waits for them (and their hooks) to finish.
  while (!state_->queue.empty()) {
    const std::shared_ptr<JobRecord> record = std::move(state_->queue.front());
    state_->queue.pop_front();
    engine_internal::Met().queue_depth->Set(
        static_cast<double>(state_->queue.size()));
    Complete(*state_, lock, *record, Outcome::kCancelled,
             Status::Cancelled(record->Describe() +
                               " cancelled by Engine shutdown"));
    lock.lock();
  }
  lock.unlock();
  state_->work_cv.notify_all();
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
