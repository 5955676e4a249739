#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/collectives.hpp"
#include "engine/cluster.hpp"
#include "engine/rdd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

/// \file aggregate.hpp
/// The aggregation paths the paper compares (Figure 16):
///
///  * `tree_aggregate`  — Spark's RDD.treeAggregate: a compute stage (one
///    task per partition, each result serialized), zero or more shuffle
///    combine rounds following Spark's exact partition-count schedule, and
///    a final serial reduce at the driver.
///  * the same with In-Memory Merge — the compute stage becomes a
///    *reduced-result stage*: task results merge into a shared per-executor
///    value before any serialization (paper Section 3.2), and the tree then
///    reduces one value per executor.
///  * `split_aggregate` — the paper's contribution (Section 3.1): a
///    reduced-result stage, then a SpawnRDD stage running ring
///    reduce-scatter over the scalable communicator, then a driver-side
///    collect + concatOp.
///
/// Both tree variants run one compute stage (detail::compute_stage) that
/// differs only in how a finished task ends; split_aggregate and
/// split_allreduce share one attempt loop (detail::split_job).
///
/// All paths execute the *real* user callbacks over real data; only time is
/// modeled. `bytes` callbacks return the modeled (paper-scale) wire size.

namespace sparker::engine {

/// User spec for tree aggregation (mirrors treeAggregate's callbacks, in
/// mutating form for C++ efficiency).
template <typename T, typename U>
struct TreeAggSpec {
  U zero{};
  std::function<void(U&, const T&)> seq_op;
  std::function<void(U&, const U&)> comb_op;
  /// Modeled serialized size of an aggregator.
  std::function<std::uint64_t(const U&)> bytes;
  /// Modeled compute time of folding one partition (the workload model).
  std::function<Duration(int pid, const std::vector<T>&)> partition_cost;
};

/// Additional callbacks for split aggregation (the SAI of Figure 6).
template <typename T, typename U, typename V>
struct SplitAggSpec {
  TreeAggSpec<T, U> base;
  /// splitOp: segment `i` of `n` from an aggregator.
  std::function<V(const U&, int i, int n)> split_op;
  /// reduceOp on segments.
  std::function<void(V&, const V&)> reduce_op;
  /// concatOp: segments sorted by index -> whole result.
  std::function<V(std::vector<std::pair<int, V>>&)> concat_op;
  /// Modeled serialized size of a segment.
  std::function<std::uint64_t(const V&)> v_bytes;

  // Optional compression hooks (src/comp): all three absent = the dense
  // path, byte-for-byte as before. With them, the tuner prices the
  // compressed ring (comm::AlgoId::kSparseRing) against the dense
  // algorithms, and when the sparse ring is dispatched the stage re-encodes
  // each freshly split segment density-optimally. The sparse path runs
  // inside the same attempt loop (detail::split_job), so it inherits fault
  // retry, membership boundaries and residual refold unchanged.
  /// Estimated nonzero fraction of an aggregator (the tuner's density
  /// input). Absent: density 1.0, which keeps kSparseRing dominated.
  std::function<double(const U&)> density_op;
  /// Re-encodes a split segment into its cheapest representation. Absent:
  /// segments ship exactly as split_op produced them, even on kSparseRing.
  std::function<V(V)> encode_op;
  /// Representation probe, for comp.switch trace attribution.
  std::function<bool(const V&)> is_sparse_op;
};

/// Timing/fault bookkeeping for one aggregation job.
struct AggMetrics {
  Time start = 0;
  Time compute_done = 0;  ///< end of the first (compute) stage.
  Time end = 0;
  int task_retries = 0;    ///< task-level retries (non-IMM path).
  int stage_restarts = 0;  ///< whole-stage restarts (IMM + ring stages).
  /// Attempts the SpawnRDD ring stage took (1 = fault-free).
  int ring_stage_attempts = 0;
  /// Simulated time lost to failed ring-stage attempts: wasted collective
  /// work, lost-partial recomputation, detection wait, backoff, and
  /// rescheduling.
  Duration recovery_time = 0;
  /// Speculative execution: duplicate attempts launched for straggling
  /// tasks, and how many of those duplicates finished before the original.
  int speculative_launches = 0;
  int speculative_wins = 0;

  Duration compute_time() const { return compute_done - start; }
  Duration reduce_time() const { return end - compute_done; }
  Duration total() const { return end - start; }
};

namespace detail {

/// Thrown inside a task attempt when the fault plan injects a failure.
struct TaskFailed {};

/// Publishes a job's AggMetrics into the cluster's MetricsRegistry on scope
/// exit (normal return or abort), so cluster-lifetime counters absorb the
/// per-job fields. Declare *after* the job's AggMetrics locals: the guard
/// reads them in its destructor. Under `EngineConfig::per_job_metrics` it
/// additionally publishes a `job.<id>.*` series keyed by the cluster-unique
/// job id — so concurrent or back-to-back jobs can never collide on a
/// metric name (the aggregate counters alone made interleaved jobs
/// indistinguishable).
struct JobMetricsGuard {
  Cluster* cl;
  const AggMetrics* m;
  const char* kind_counter;  ///< e.g. "agg.jobs.split".
  int job = -1;              ///< cluster-unique job id (next_job_id()).
  int tenant = -1;           ///< scheduler tenant, -1 for solo jobs.

  ~JobMetricsGuard() {
    obs::MetricsRegistry& reg = cl->metrics();
    reg.add("agg.jobs", 1);
    reg.add(kind_counter, 1);
    reg.add("agg.task_retries", m->task_retries);
    reg.add("agg.stage_restarts", m->stage_restarts);
    reg.add("agg.ring_stage_attempts", m->ring_stage_attempts);
    reg.add("agg.recovery_time_ns",
            static_cast<std::int64_t>(m->recovery_time));
    reg.add("agg.speculative_launches", m->speculative_launches);
    reg.add("agg.speculative_wins", m->speculative_wins);
    // An aborted job never sets `end`; only completed jobs land in the
    // duration histogram.
    if (m->end > m->start) {
      reg.histogram("agg.job_duration_ns")
          .observe(static_cast<std::int64_t>(m->end - m->start));
    }
    if (cl->config().per_job_metrics && job >= 0) {
      const std::string prefix = "job." + std::to_string(job) + ".";
      reg.add(prefix + "task_retries", m->task_retries);
      reg.add(prefix + "stage_restarts", m->stage_restarts);
      reg.add(prefix + "ring_stage_attempts", m->ring_stage_attempts);
      reg.add(prefix + "recovery_time_ns",
              static_cast<std::int64_t>(m->recovery_time));
      if (m->end > m->start) {
        reg.add(prefix + "duration_ns",
                static_cast<std::int64_t>(m->end - m->start));
      }
      if (tenant >= 0) reg.set_gauge(prefix + "tenant", tenant);
    }
  }
};

/// An aggregator sitting at an executor. Plain-stage results are already
/// serialized (Spark serializes every task result on completion); IMM
/// results stay live in the mutable object manager and pay their
/// serialization cost lazily, when first fetched.
template <typename U>
struct Blob {
  std::shared_ptr<U> value;
  std::uint64_t bytes = 0;
  int executor = 0;
  bool serialized = true;
};

/// Spark sends task results below this size inline with the status update;
/// larger results go through the BlockManager (spark.task.maxDirectResultSize
/// defaults to 1 MiB).
inline constexpr std::uint64_t kDirectResultLimit = 1ull << 20;

/// TaskId::attempt value marking speculative duplicates, far above any real
/// retry count so fault plans keyed on attempt numbers stay inert for them.
inline constexpr int kSpeculativeAttempt = 1 << 20;

/// The aggregator a split-stage collective's cost is sampled from (its
/// modeled bytes and density feed the tuner): the first stage-1 value
/// present — every executor's aggregator shares the spec's shape — or the
/// zero aggregator when no partition produced one. Deterministic, so every
/// stage attempt feeds the tuner the same inputs.
template <typename T, typename U, typename V>
const U& sample_aggregator(const SplitAggSpec<T, U, V>& spec,
                           const std::vector<std::shared_ptr<U>>& per_exec) {
  for (const auto& v : per_exec) {
    if (v) return *v;
  }
  return spec.base.zero;
}

/// Builds the SegOps a split-stage collective runs over, wiring in the
/// compression hooks when the attempt is `encoded` (sparse ring with an
/// encode_op): split re-encodes each segment density-optimally, and
/// reduce_into probes the representation around each merge so
/// dense<->sparse flips land in the trace as "comp.switch" instants
/// (fill-in growing past the byte crossover is exactly when they fire).
/// Because the representation lives inside V, v_bytes already reports the
/// compressed size — hop transport and merge sleeps get cheaper with no
/// further plumbing.
template <typename T, typename U, typename V>
comm::SegOps<V> make_seg_ops(Cluster& cl, int job, bool encoded, int exec_id,
                             int rank, const SplitAggSpec<T, U, V>& spec,
                             const std::shared_ptr<U>& local) {
  comm::SegOps<V> ops;
  if (encoded) {
    ops.split = [&spec, &local](int seg, int nseg) {
      return spec.encode_op(spec.split_op(*local, seg, nseg));
    };
  } else {
    ops.split = [&spec, &local](int seg, int nseg) {
      return spec.split_op(*local, seg, nseg);
    };
  }
  if (encoded && spec.is_sparse_op) {
    ops.reduce_into = [&cl, &spec, job, exec_id, rank](V& a, const V& b) {
      const bool was = spec.is_sparse_op(a);
      spec.reduce_op(a, b);
      const bool now = spec.is_sparse_op(a);
      if (was != now) {
        cl.trace().instant("comp", "comp.switch", obs::exec_pid(exec_id),
                           rank, {{"job", job}, {"sparse", now ? 1 : 0}});
      }
    };
  } else {
    ops.reduce_into = spec.reduce_op;
  }
  ops.bytes = spec.v_bytes;
  ops.concat = spec.concat_op;
  ops.merge_time = [&cl](std::uint64_t b) { return cl.merge_cost(b); };
  return ops;
}

/// First executor at or after `preferred`, in cyclic order, that `ok`
/// accepts; -1 if none does.
template <typename Ok>
int scan_executors(Cluster& cl, int preferred, Ok ok) {
  const int n = cl.num_executors();
  for (int i = 0; i < n; ++i) {
    const int cand = (preferred + i) % n;
    if (ok(cand)) return cand;
  }
  return -1;
}

/// Picks the executor a task actually runs on: the preferred one, or — if
/// the driver's health view rules it out (believed dead, or quarantined) —
/// the next usable executor in a deterministic scan (Spark reschedules lost
/// tasks on surviving executors). Note this consults the *health view*, not
/// the omniscient fault fabric: with heartbeats enabled a dead-but-undetected
/// executor still gets tasks, which then fail and retry — detection latency
/// costs real simulated time, as it does in Spark.
inline int schedule_executor(Cluster& cl, int preferred) {
  const int e = scan_executors(
      cl, preferred, [&cl](int c) { return cl.executor_usable(c); });
  if (e < 0) throw std::runtime_error("no usable executor to schedule task on");
  return e;
}

/// Dispatch + control hop + core slot + task setup, then the real seqOp
/// fold over the partition. Throws TaskFailed per the fault plan, or when
/// the fault fabric kills the executor before the task result is reported
/// (that check is deliberately omniscient: a lost result is a physical
/// fact, not a belief). `ran_on` receives the executor the task runs on as
/// soon as it is placed; `force_exec >= 0` pins the attempt to one executor
/// (speculative duplicates and eager refolds bypass locality preference).
template <typename T, typename U>
sim::Task<U> compute_attempt(Cluster& cl, CachedRdd<T>& rdd,
                             const TreeAggSpec<T, U>& spec, TaskId id,
                             int* ran_on, int force_exec = -1) {
  const int exec_id =
      force_exec >= 0 ? force_exec
                      : schedule_executor(cl, rdd.preferred_executor(id.task));
  *ran_on = exec_id;
  Executor& ex = cl.executor(exec_id);
  obs::TraceSink& tr = cl.trace();
  const Time attempt_start = cl.simulator().now();
  const obs::SpanId span =
      tr.begin("compute", "task", obs::exec_pid(exec_id), id.task,
               {{"job", id.job},
                {"stage", id.stage},
                {"task", id.task},
                {"attempt", id.attempt}});
  const Time dispatched =
      cl.driver_loop().enqueue(cl.spec().rates.task_dispatch);
  co_await cl.simulator().sleep_until(dispatched);
  co_await cl.simulator().sleep(cl.control_latency(exec_id));
  co_await ex.cores().acquire();
  sim::SemaphoreGuard slot(ex.cores());
  co_await cl.simulator().sleep(cl.spec().rates.task_overhead);
  const auto& part = rdd.partition(id.task);
  U agg = spec.zero;
  for (const T& row : part) spec.seq_op(agg, row);
  Duration cost =
      spec.partition_cost ? spec.partition_cost(id.task, part) : Duration{0};
  cost = static_cast<Duration>(static_cast<double>(cost) *
                               cl.config().stragglers.factor(exec_id) /
                               cl.spec().rates.core_speed);
  co_await cl.simulator().sleep(cost);
  // Fault-plan failure, or the executor died while this task was running
  // (that check is omniscient: a lost result is a physical fact).
  if (cl.config().faults.fails(id) || !cl.executor_alive(exec_id)) {
    tr.end(span, {{"failed", 1}});
    throw TaskFailed{};
  }
  cl.metrics().histogram("task.duration_ns")
      .observe(static_cast<std::int64_t>(cl.simulator().now() - attempt_start));
  tr.end(span);
  co_return agg;
}

/// One attempt of a compute stage, shared_ptr-owned by every task attempt it
/// spawns and by its speculation tick. *Losing* speculative attempts can
/// outlive the stage's coroutine frame — a loser resumes from its final
/// sleep after the stage has moved on — so all they touch lives here. The
/// references are job-lifetime: the job drains `attempts` before its frame
/// dies. The first attempt to `claim` a task wins it; everyone else drops
/// out.
template <typename T, typename U>
struct StageRun {
  struct TaskState {
    Time launched = 0;      ///< when the stage spawned the primary.
    bool done = false;      ///< some attempt claimed this task.
    bool speculated = false;  ///< a duplicate was launched.
    int primary_exec = -1;  ///< executor the primary attempt landed on.
  };
  Cluster& cl;
  CachedRdd<T>& rdd;
  const TreeAggSpec<T, U>& spec;
  int job;
  AggMetrics* m;
  bool imm;                  ///< finish policy: merge (IMM) or serialize.
  int stage_attempt;         ///< IMM stage attempt; 0 for plain.
  sim::WaitGroup& attempts;  ///< job-level count of live attempt frames.
  sim::WaitGroup wg;         ///< one unit per task, released by its claimer.
  std::exception_ptr error;  ///< the job aborts with this.
  bool failed = false;       ///< IMM: a task failed, the stage restarts.
  std::vector<TaskState> tasks;
  std::vector<Duration> durations;  ///< winners' durations (for the median).
  sim::Simulator::TimerHandle tick{};  ///< the speculation monitor, if armed.
  std::vector<int> ran_on;   ///< executor that reported each task.
  std::vector<Blob<U>> out;  ///< plain: each task's serialized result.

  StageRun(Cluster& c, CachedRdd<T>& r, const TreeAggSpec<T, U>& s, int j,
           AggMetrics* metrics, bool merge, int attempt, sim::WaitGroup& a)
      : cl(c), rdd(r), spec(s), job(j), m(metrics), imm(merge),
        stage_attempt(attempt), attempts(a), wg(c.simulator()),
        tasks(static_cast<std::size_t>(r.num_partitions())),
        ran_on(static_cast<std::size_t>(r.num_partitions()), -1),
        out(merge ? 0 : static_cast<std::size_t>(r.num_partitions())) {}

  bool claim(int t) {
    TaskState& ts = tasks[static_cast<std::size_t>(t)];
    if (ts.done) return false;
    ts.done = true;
    return true;
  }

  Duration running_median() const {
    std::vector<Duration> d = durations;
    const std::size_t mid = d.size() / 2;
    std::nth_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(mid),
                     d.end());
    return d[mid];
  }
};

/// One attempt at a compute-stage task: the primary (`force_exec < 0`) or a
/// speculative duplicate pinned to `force_exec`. The first attempt to claim
/// the task finishes it; under IMM the *claim happens before the merge*, so
/// exactly one attempt per task ever merges into the executor's shared value
/// — which keeps speculation idempotent. A failed primary retries (plain)
/// or fails the stage (IMM) unless its duplicate already won; a failed
/// duplicate loses quietly.
template <typename T, typename U>
sim::Task<void> stage_task(std::shared_ptr<StageRun<T, U>> run, int task,
                           int force_exec) {
  Cluster& cl = run->cl;
  const bool speculative = force_exec >= 0;
  auto& ts = run->tasks[static_cast<std::size_t>(task)];
  std::optional<U> agg;
  int spec_exec = -1;
  bool give_up = false;      // this attempt ends the task without a result.
  std::exception_ptr error;  // with give_up: the job aborts with this.
  for (int retry = 0; !agg && !give_up; ++retry) {
    const int attempt = speculative
                            ? kSpeculativeAttempt + run->stage_attempt
                            : run->stage_attempt + retry;
    try {
      agg.emplace(co_await compute_attempt(
          cl, run->rdd, run->spec, TaskId{run->job, 0, task, attempt},
          speculative ? &spec_exec : &ts.primary_exec, force_exec));
    } catch (const TaskFailed&) {
      if (speculative || ts.done) break;
      cl.health().record_failure(ts.primary_exec);
      if (!run->imm) {
        ++run->m->task_retries;
        if (retry + 1 < cl.config().max_task_attempts) continue;
        error = std::make_exception_ptr(
            std::runtime_error("task exceeded max attempts; job aborted"));
      }
      give_up = true;
    } catch (...) {
      if (speculative) break;
      error = std::current_exception();
      give_up = true;
    }
  }
  if ((!agg && !give_up) || !run->claim(task)) {
    run->attempts.done();
    co_return;  // lost the race.
  }
  if (give_up) {
    if (!error) {
      run->failed = true;
    } else if (!run->error) {
      run->error = error;
    }
    run->wg.done();
    run->attempts.done();
    co_return;
  }
  const int exec = speculative ? spec_exec : ts.primary_exec;
  run->durations.push_back(cl.simulator().now() - ts.launched);
  if (speculative) {
    ++run->m->speculative_wins;
    cl.trace().instant("compute", "spec.win", obs::exec_pid(exec), task,
                       {{"task", task}});
    if (ts.primary_exec >= 0) cl.health().record_straggler(ts.primary_exec);
  }
  try {
    const std::uint64_t nbytes = run->spec.bytes(*agg);
    const auto bytes_arg = static_cast<std::int64_t>(nbytes);
    if (run->imm) {
      auto& obj = cl.executor(exec).mutable_object(run->job, cl.simulator());
      co_await obj.lock->acquire();
      sim::SemaphoreGuard g(*obj.lock);
      if (!obj.value) obj.value = std::make_shared<U>(run->spec.zero);
      const obs::SpanId merge =
          cl.trace().begin("reduce", "imm.merge", obs::exec_pid(exec), task,
                           {{"job", run->job}, {"bytes", bytes_arg}});
      co_await cl.simulator().sleep(cl.merge_cost(nbytes));
      run->spec.comb_op(*std::static_pointer_cast<U>(obj.value), *agg);
      ++obj.merges;
      cl.trace().end(merge);
      // Status update carries only (executor id, object id).
      co_await cl.simulator().sleep(cl.control_latency(exec));
      (void)cl.driver_loop().enqueue(sim::microseconds(20));
    } else {
      // Vanilla Spark: each task serializes its result immediately upon
      // completion (exactly the overhead IMM removes).
      const obs::SpanId ser =
          cl.trace().begin("ser", "ser.result", obs::exec_pid(exec), task,
                           {{"job", run->job}, {"bytes", bytes_arg}});
      co_await cl.simulator().sleep(cl.ser_time(nbytes));
      cl.trace().end(ser);
      co_await cl.simulator().sleep(cl.control_latency(exec));
      (void)cl.driver_loop().enqueue(sim::microseconds(50));
      run->out[static_cast<std::size_t>(task)] =
          Blob<U>{std::make_shared<U>(std::move(*agg)), nbytes, exec,
                  /*serialized=*/true};
    }
    run->ran_on[static_cast<std::size_t>(task)] = exec;
  } catch (...) {
    if (!run->error) run->error = std::current_exception();
  }
  run->wg.done();
  run->attempts.done();
}

/// Arms the stage's speculation monitor: every `speculation_interval` it
/// looks for tasks running longer than `speculation_multiplier` x the
/// running median of completed durations (once `speculation_quantile` of
/// the stage has completed) and launches one duplicate of each on the first
/// *healthy* executor other than the primary's, in a deterministic scan.
/// The tick must be cancelled (`cl.simulator().cancel(run->tick)`) when the
/// stage attempt ends; cancelled events never run (their closures are
/// reclaimed eagerly).
template <typename T, typename U>
void arm_speculation_tick(std::shared_ptr<StageRun<T, U>> run, Time at) {
  Cluster& cl = run->cl;
  run->tick = cl.simulator().call_at_cancellable(
      at,
      [run, at] {
        Cluster& cl = run->cl;
        const HealthConfig& h = cl.config().health;
        const int p = static_cast<int>(run->tasks.size());
        const int need = std::max(
            1, static_cast<int>(std::ceil(h.speculation_quantile *
                                          static_cast<double>(p))));
        if (static_cast<int>(run->durations.size()) >= need) {
          const auto threshold = static_cast<Duration>(
              h.speculation_multiplier *
              static_cast<double>(run->running_median()));
          const Time now = cl.simulator().now();
          for (int t = 0; t < p; ++t) {
            auto& ts = run->tasks[static_cast<std::size_t>(t)];
            if (ts.done || ts.speculated || ts.primary_exec < 0) continue;
            if (now - ts.launched <= threshold) continue;
            int target = -1;
            for (int e = 0; e < cl.num_executors(); ++e) {
              if (e != ts.primary_exec && cl.health().healthy(e)) {
                target = e;
                break;
              }
            }
            if (target < 0) continue;  // nowhere healthy to duplicate onto.
            ts.speculated = true;
            cl.trace().instant(
                "compute", "spec.launch", obs::exec_pid(target), t,
                {{"task", t}, {"primary_exec", ts.primary_exec}});
            ++run->m->speculative_launches;
            run->attempts.add(1);
            cl.simulator().spawn(stage_task(run, t, target));
          }
        }
        arm_speculation_tick(run, at + h.speculation_interval);
      },
      run->tick);
}

/// A compute stage's output: one blob per task (plain) or per executor
/// holding a merged value (IMM), and the executor that reported each task.
template <typename U>
struct StageOut {
  std::vector<Blob<U>> blobs;
  std::vector<int> task_exec;
};

/// The compute stage: one task per partition folding it with the real
/// seqOp, finished by the stage's policy —
///
///  * plain (Spark): serialize the result and report it; a failed task
///    retries on its own, up to `max_task_attempts`;
///  * IMM (paper Section 3.2): merge the result into the executor's shared
///    value, unserialized, and report; any failure — an injected task fault,
///    or an executor dying with partials merged into it — clears the
///    partials and restarts the whole stage, up to `max_stage_attempts`.
///
/// Every task runs as a race (stage_task). Speculation only decides whether
/// the monitor tick is armed; without it the primary is each task's only
/// attempt and always wins. `attempts` is the job's count of attempt frames,
/// drained before the job's frame dies.
template <typename T, typename U>
sim::Task<StageOut<U>> compute_stage(Cluster& cl, CachedRdd<T>& rdd,
                                     const TreeAggSpec<T, U>& spec, int job,
                                     AggMetrics* m, bool imm,
                                     sim::WaitGroup& attempts) {
  const int p = rdd.num_partitions();
  obs::TraceSink& tr = cl.trace();
  for (int stage_attempt = 0;; ++stage_attempt) {
    obs::TraceSink::Scope stage_scope(
        tr, imm ? tr.begin("stage", "stage.compute", obs::kDriverPid, 0,
                           {{"job", job},
                            {"tasks", p},
                            {"imm", 1},
                            {"attempt", stage_attempt}})
                : tr.begin("stage", "stage.compute", obs::kDriverPid, 0,
                           {{"job", job}, {"tasks", p}, {"imm", 0}}));
    auto run = std::make_shared<StageRun<T, U>>(cl, rdd, spec, job, m, imm,
                                                stage_attempt, attempts);
    run->wg.add(p);
    const Time t0 = cl.simulator().now();
    for (int t = 0; t < p; ++t) {
      run->tasks[static_cast<std::size_t>(t)].launched = t0;
      attempts.add(1);
      cl.simulator().spawn(stage_task(run, t, -1));
    }
    if (cl.config().health.speculation) {
      arm_speculation_tick(run, t0 + cl.config().health.speculation_interval);
    }
    co_await run->wg.wait();
    cl.simulator().cancel(run->tick);
    if (run->error) {
      // Drain every attempt before throwing: zombies must not outlive the
      // job frame they reference.
      co_await attempts.wait();
      stage_scope.close({{"failed", 1}});
      std::rethrow_exception(run->error);
    }
    // An executor that died after absorbing partials loses them: that is a
    // stage failure too (no task-level recovery under IMM).
    if (imm && std::any_of(run->ran_on.begin(), run->ran_on.end(),
                           [&cl](int e) { return !cl.executor_alive(e); })) {
      run->failed = true;
    }
    if (!run->failed) {
      StageOut<U> out{std::move(run->out), std::move(run->ran_on)};
      for (int e = 0; imm && e < cl.num_executors(); ++e) {
        Executor& ex = cl.executor(e);
        auto& obj = ex.mutable_object(job, cl.simulator());
        if (obj.value) {
          auto val = std::static_pointer_cast<U>(obj.value);
          out.blobs.push_back(Blob<U>{val, spec.bytes(*val), e,
                                      /*serialized=*/false});
        }
        ex.clear_mutable_object(job);
      }
      stage_scope.close();
      co_return out;
    }
    ++m->stage_restarts;
    stage_scope.close({{"failed", 1}});
    tr.instant("recover", "stage.restart", obs::kDriverPid, 0,
               {{"job", job}, {"attempt", stage_attempt}});
    for (int e = 0; e < cl.num_executors(); ++e) {
      cl.executor(e).clear_mutable_object(job);
    }
    if (stage_attempt + 1 >= cl.config().max_stage_attempts) {
      co_await attempts.wait();
      throw std::runtime_error("stage exceeded max attempts; job aborted");
    }
  }
}

/// One shuffle-combine reduce task: fetch inputs (concurrently),
/// deserialize and merge them, re-serialize the result.
template <typename U>
sim::Task<Blob<U>> reduce_task(Cluster& cl, int job,
                               std::vector<Blob<U>> inputs, int dest_exec,
                               const std::function<void(U&, const U&)>& comb,
                               const std::function<std::uint64_t(const U&)>&
                                   bytes_of) {
  Executor& ex = cl.executor(dest_exec);
  const obs::SpanId span = cl.trace().begin(
      "reduce", "task.combine", obs::exec_pid(dest_exec), 0,
      {{"job", job}, {"inputs", static_cast<std::int64_t>(inputs.size())}});
  const Time dispatched =
      cl.driver_loop().enqueue(cl.spec().rates.task_dispatch);
  co_await cl.simulator().sleep_until(dispatched);
  co_await cl.simulator().sleep(cl.control_latency(dest_exec));
  co_await ex.cores().acquire();
  sim::SemaphoreGuard slot(ex.cores());
  co_await cl.simulator().sleep(cl.spec().rates.task_overhead);
  // Fetch all remote inputs concurrently (Spark pipelines shuffle fetches).
  // IMM results are not yet serialized: the source pays that cost now.
  sim::WaitGroup fetches(cl.simulator());
  for (const auto& in : inputs) {
    if (in.executor == dest_exec && in.serialized) continue;
    fetches.add(1);
    struct Fetch {
      static sim::Task<void> go(Cluster& cl, int from, int to,
                                std::uint64_t b, bool serialized,
                                sim::WaitGroup& wg) {
        if (!serialized) co_await cl.simulator().sleep(cl.ser_time(b));
        if (from != to) co_await cl.fetch_blob(from, to, b);
        wg.done();
      }
    };
    cl.simulator().spawn(Fetch::go(cl, in.executor, dest_exec, in.bytes,
                                   in.serialized, fetches));
  }
  co_await fetches.wait();
  std::optional<U> acc;
  for (auto& in : inputs) {
    co_await cl.simulator().sleep(cl.deser_time(in.bytes));
    if (!acc) {
      acc = *in.value;  // copy: inputs may be shared with other views
    } else {
      co_await cl.simulator().sleep(cl.merge_cost(in.bytes));
      comb(*acc, *in.value);
    }
  }
  const std::uint64_t out_bytes = bytes_of(*acc);
  co_await cl.simulator().sleep(cl.ser_time(out_bytes));
  co_await cl.simulator().sleep(cl.control_latency(dest_exec));
  (void)cl.driver_loop().enqueue(sim::microseconds(50));
  cl.trace().end(span, {{"bytes", static_cast<std::int64_t>(out_bytes)}});
  co_return Blob<U>{std::make_shared<U>(std::move(*acc)), out_bytes,
                    dest_exec};
}

/// Final serial reduce at the driver: results arrive (inline or via
/// BlockManager fetch) and are deserialized + merged one at a time through
/// the driver loop.
template <typename U>
sim::Task<U> driver_reduce(Cluster& cl, int job, std::vector<Blob<U>> inputs,
                           const std::function<void(U&, const U&)>& comb) {
  std::optional<U> acc;
  sim::WaitGroup wg(cl.simulator());
  wg.add(static_cast<std::int64_t>(inputs.size()));
  struct Arrive {
    static sim::Task<void> go(Cluster& cl, int job, Blob<U> in,
                              std::optional<U>& acc,
                              const std::function<void(U&, const U&)>& comb,
                              sim::WaitGroup& wg) {
      co_await cl.simulator().sleep(cl.control_latency(in.executor));
      if (!in.serialized) {
        co_await cl.simulator().sleep(cl.ser_time(in.bytes));
      }
      if (in.bytes > kDirectResultLimit) {
        co_await cl.fetch_blob(in.executor, Cluster::kDriver, in.bytes);
      }
      const Duration work =
          cl.driver_deser_time(in.bytes) + cl.driver_merge_cost(in.bytes);
      const Time done = cl.driver_loop().enqueue(work);
      // The driver loop is busy on this result over [done - work, done]
      // (enqueue may queue it behind other driver work).
      cl.trace().span_at("reduce", "reduce.driver", obs::kDriverPid, 0,
                         done - work, done,
                         {{"job", job},
                          {"from", in.executor},
                          {"bytes", static_cast<std::int64_t>(in.bytes)}});
      co_await cl.simulator().sleep_until(done);
      if (!acc) {
        acc = *in.value;
      } else {
        comb(*acc, *in.value);
      }
      wg.done();
    }
  };
  for (auto& in : inputs) {
    cl.simulator().spawn(Arrive::go(cl, job, in, acc, comb, wg));
  }
  co_await wg.wait();
  co_return std::move(*acc);
}

/// The fixed rank <-> executor picture of one ring-stage attempt, captured
/// immediately after the communicator is (re)built. Every decision the
/// attempt makes — which partials are outside the ring and must refold,
/// which executor holds which rank — reads this snapshot, never the live
/// `rank_of_executor` view: a kill or membership change during the
/// attempt's awaits would otherwise rebuild the communicator mid-attempt
/// and shear rank lookups away from the communicator the tasks run on.
struct RingSnapshot {
  comm::Communicator* sc = nullptr;
  int n = 0;
  std::vector<int> rank_exec;  ///< rank -> executor id.
  std::vector<int> exec_rank;  ///< executor id -> rank, -1 if outside.
};

/// Recomputes executor `e`'s partitions — partition data regenerates
/// deterministically, exactly like a Spark recompute — folding each into
/// the shared value of the executor it reran on. Ownership discipline: the
/// partition list is *moved out* before the first co_await, so no other
/// recovery path can claim the same partitions twice. The residual refold
/// places tasks through the health view (schedule_executor); the `eager`
/// one only on executors both usable and alive, handing back what it cannot
/// place yet for the next boundary's residual refold.
template <typename T, typename U, typename V>
sim::Task<void> refold_lost(Cluster& cl, CachedRdd<T>& rdd,
                            const SplitAggSpec<T, U, V>& spec, int job,
                            AggMetrics* m, int e, bool eager,
                            std::vector<std::shared_ptr<U>>& per_exec,
                            std::vector<std::vector<int>>& owned) {
  obs::TraceSink& tr = cl.trace();
  const std::vector<int> lost = std::move(owned[static_cast<std::size_t>(e)]);
  owned[static_cast<std::size_t>(e)].clear();
  per_exec[static_cast<std::size_t>(e)].reset();
  obs::TraceSink::Scope refold_scope(
      tr, tr.begin("recover", "recover.refold", obs::kDriverPid, 0,
                   {{"job", job},
                    {"executor", e},
                    {"partitions", static_cast<std::int64_t>(lost.size())}}));
  for (int pid : lost) {
    for (int attempt = 0;; ++attempt) {
      // Eager targets are re-picked per attempt: a dead-but-undetected
      // executor would burn the whole retry budget before the monitor even
      // declares it dead.
      const int target =
          eager ? scan_executors(cl, rdd.preferred_executor(pid),
                                 [&cl](int c) {
                                   return cl.executor_usable(c) &&
                                          cl.executor_alive(c);
                                 })
                : -1;
      if (eager && target < 0) {
        // Ownership moved here and moves back exactly once.
        owned[static_cast<std::size_t>(e)].push_back(pid);
        break;
      }
      int ran_on = -1;
      try {
        U agg = co_await compute_attempt(cl, rdd, spec.base,
                                         TaskId{job, 1, pid, attempt}, &ran_on,
                                         target);
        auto& dst = per_exec[static_cast<std::size_t>(ran_on)];
        if (!dst) dst = std::make_shared<U>(spec.base.zero);
        co_await cl.simulator().sleep(cl.merge_cost(spec.base.bytes(agg)));
        spec.base.comb_op(*dst, agg);
        owned[static_cast<std::size_t>(ran_on)].push_back(pid);
        break;
      } catch (const TaskFailed&) {
        cl.health().record_failure(ran_on);
        ++m->task_retries;
        if (attempt + 1 >= cl.config().max_task_attempts) {
          throw std::runtime_error("task exceeded max attempts; job aborted");
        }
      }
    }
  }
}

/// The stage boundary of one ring attempt, in load-bearing order:
///
///  1. membership sync — arrived joiners are admitted (warm-up transfer)
///     so the new ring can include them;
///  2. partial migration — each *draining* executor's merged partial moves
///     to its ring successor over the data plane (one fetch + one merge)
///     instead of being recomputed, and the drain completes;
///  3. the communicator is (re)built over the resulting membership and the
///     rank picture snapshotted before any further await;
///  4. residual refold — partials still held outside the rank set (dead or
///     otherwise departed holders) are recomputed onto survivors.
///
/// Fixing the rank set before the refold (3 before 4) is the PR-1 TOCTOU
/// fix: checking liveness before the rebuild would let a kill in between
/// slip an executor's partial out of the ring without recovery.
template <typename T, typename U, typename V>
sim::Task<RingSnapshot> ring_boundary(Cluster& cl, CachedRdd<T>& rdd,
                                      const SplitAggSpec<T, U, V>& spec,
                                      int job, AggMetrics* m,
                                      std::vector<std::shared_ptr<U>>& per_exec,
                                      std::vector<std::vector<int>>& owned,
                                      JobRing* job_ring) {
  obs::TraceSink& tr = cl.trace();
  co_await cl.sync_membership(/*complete_drains=*/false);
  const int num_exec = cl.num_executors();
  for (int d = 0; d < num_exec; ++d) {
    if (!cl.membership().draining(d)) continue;
    if (owned[static_cast<std::size_t>(d)].empty() || !cl.executor_alive(d)) {
      // Nothing to hand off — or the executor died mid-drain, in which case
      // its partials take the refold path below like any other loss.
      cl.membership().complete_drain(d);
      continue;
    }
    // Claim the partitions before the first co_await (same no-double-count
    // discipline as the refold paths).
    std::vector<int> pids = std::move(owned[static_cast<std::size_t>(d)]);
    owned[static_cast<std::size_t>(d)].clear();
    std::shared_ptr<U> value = std::move(per_exec[static_cast<std::size_t>(d)]);
    per_exec[static_cast<std::size_t>(d)].reset();
    const int succ = cl.ring_successor(d);
    if (succ < 0 || !value) {
      // No live successor to hand off to: fall back to recomputation.
      owned[static_cast<std::size_t>(d)] = std::move(pids);
      cl.membership().complete_drain(d);
      continue;
    }
    const std::uint64_t bytes = spec.base.bytes(*value);
    obs::TraceSink::Scope mig(
        tr, tr.begin("membership", "membership.migrate", obs::kDriverPid, 0,
                     {{"job", job},
                      {"from", d},
                      {"to", succ},
                      {"bytes", static_cast<std::int64_t>(bytes)},
                      {"partitions", static_cast<std::int64_t>(pids.size())}}));
    co_await cl.fetch_blob(d, succ, bytes);
    auto& dst = per_exec[static_cast<std::size_t>(succ)];
    if (!dst) dst = std::make_shared<U>(spec.base.zero);
    co_await cl.simulator().sleep(cl.merge_cost(bytes));
    spec.base.comb_op(*dst, *value);
    for (int pid : pids) {
      owned[static_cast<std::size_t>(succ)].push_back(pid);
    }
    cl.membership().note_migration(static_cast<int>(pids.size()));
    mig.close();
    cl.membership().complete_drain(d);
  }
  auto& sc = cl.ring_comm(job_ring);
  RingSnapshot ring;
  ring.sc = &sc;
  ring.n = sc.size();
  ring.exec_rank.assign(static_cast<std::size_t>(num_exec), -1);
  ring.rank_exec.resize(static_cast<std::size_t>(ring.n));
  for (int r = 0; r < ring.n; ++r) {
    const int e = cl.ring_executor_of_rank(job_ring, r);
    ring.rank_exec[static_cast<std::size_t>(r)] = e;
    ring.exec_rank[static_cast<std::size_t>(e)] = r;
  }
  for (int e = 0; e < num_exec; ++e) {
    if (ring.exec_rank[static_cast<std::size_t>(e)] < 0 &&
        !owned[static_cast<std::size_t>(e)].empty()) {
      co_await refold_lost(cl, rdd, spec, job, m, e, /*eager=*/false,
                           per_exec, owned);
    }
  }
  co_return ring;
}

/// Waits out heartbeat detection, then the exponential backoff before the
/// next ring attempt. With heartbeats on, the driver cannot yet tell which
/// member is dead — rebuilding immediately would re-include it and fail
/// again — so the wait (bounded by executor_timeout) lands in
/// recovery_time, which is exactly what makes detection latency a
/// measurable recovery component.
inline sim::Task<void> settle_and_backoff(Cluster& cl, int job,
                                          int ring_attempt, Duration backoff) {
  obs::TraceSink& tr = cl.trace();
  const obs::SpanId detect =
      tr.begin("detect", "detect.settle", obs::kDriverPid, 0,
               {{"job", job}, {"attempt", ring_attempt}});
  co_await cl.health().await_settled();
  tr.end(detect);
  const obs::SpanId pause =
      tr.begin("recover", "recover.backoff", obs::kDriverPid, 0,
               {{"job", job},
                {"attempt", ring_attempt},
                {"backoff_ns", static_cast<std::int64_t>(backoff)}});
  co_await cl.simulator().sleep(backoff);
  tr.end(pause);
}

/// Settle-then-backoff between failed ring-stage attempts, optionally
/// overlapped with an eager refold of partials lost with *physically dead*
/// executors (`EngineConfig::overlap_recovery`).
///
/// Sequential mode is settle_and_backoff alone. Overlapped mode wraps two
/// concurrent branches in one `recover.overlap` span: branch A is
/// settle_and_backoff; branch B recomputes partials whose holders the fault
/// fabric already killed — a lost partial is a physical fact, the same
/// omniscience compute_attempt itself uses — onto executors that are both
/// health-usable and alive. Partitions that cannot be placed yet are pushed
/// back for the next boundary's residual refold; since every claim is a
/// move, a partition is refolded by exactly one path. Results are
/// bit-identical either way; only the timing of the recomputation changes.
template <typename T, typename U, typename V>
sim::Task<void> recover_between_attempts(
    Cluster& cl, CachedRdd<T>& rdd, const SplitAggSpec<T, U, V>& spec, int job,
    int ring_attempt, AggMetrics* m,
    std::vector<std::shared_ptr<U>>& per_exec,
    std::vector<std::vector<int>>& owned) {
  obs::TraceSink& tr = cl.trace();
  const Duration backoff = cl.config().stage_retry_backoff
                           << (ring_attempt - 1);
  if (!cl.config().overlap_recovery) {
    co_await settle_and_backoff(cl, job, ring_attempt, backoff);
    co_return;
  }
  obs::TraceSink::Scope overlap(
      tr, tr.begin("recover", "recover.overlap", obs::kDriverPid, 0,
                   {{"job", job},
                    {"attempt", ring_attempt},
                    {"backoff_ns", static_cast<std::int64_t>(backoff)}}));
  sim::WaitGroup wg(cl.simulator());
  wg.add(2);
  std::exception_ptr error;
  struct Overlap {
    static sim::Task<void> branch(sim::Task<void> body, sim::WaitGroup& wg,
                                  std::exception_ptr& error) {
      try {
        co_await std::move(body);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      wg.done();
    }
    static sim::Task<void> eager_refold(
        Cluster& cl, CachedRdd<T>& rdd, const SplitAggSpec<T, U, V>& spec,
        int job, AggMetrics* m, std::vector<std::shared_ptr<U>>& per_exec,
        std::vector<std::vector<int>>& owned) {
      for (int e = 0; e < cl.num_executors(); ++e) {
        if (!cl.executor_alive(e) &&
            !owned[static_cast<std::size_t>(e)].empty()) {
          co_await refold_lost(cl, rdd, spec, job, m, e, /*eager=*/true,
                               per_exec, owned);
        }
      }
    }
  };
  cl.simulator().spawn(Overlap::branch(
      settle_and_backoff(cl, job, ring_attempt, backoff), wg, error));
  cl.simulator().spawn(Overlap::branch(
      Overlap::eager_refold(cl, rdd, spec, job, m, per_exec, owned), wg,
      error));
  co_await wg.wait();
  overlap.close();
  if (error) std::rethrow_exception(error);
}

/// The preamble every aggregation job shares: a fresh job id, the metrics
/// reset, the health and metrics guards, and the job span (tagged with the
/// tenant under a scheduler). Declare it first in the job frame: members
/// are destroyed in reverse — the span, then the metrics guard (which
/// publishes `*m`), then the health guard.
struct AggJob {
  AggMetrics local;
  AggMetrics* m;
  int job;
  HealthJobGuard health;
  JobMetricsGuard metrics;
  obs::TraceSink::Scope scope;

  AggJob(Cluster& cl, AggMetrics* out, const char* kind_counter,
         const char* span, const JobOptions& opt)
      : m(out ? out : &local),
        job(cl.next_job_id()),
        health(cl.health()),
        metrics{&cl, m, kind_counter, job, opt.tenant},
        scope(cl.trace(),
              opt.tenant >= 0
                  ? cl.trace().begin("job", span, obs::kDriverPid, 0,
                                     {{"job", job},
                                      {"tenant", opt.tenant},
                                      {"sched_job", opt.sched_job}})
                  : cl.trace().begin("job", span, obs::kDriverPid, 0,
                                     {{"job", job}})) {
    m->start = cl.simulator().now();
    m->task_retries = 0;
    m->stage_restarts = 0;
    m->ring_stage_attempts = 0;
    m->recovery_time = 0;
    m->speculative_launches = 0;
    m->speculative_wins = 0;
  }

  /// Emits the agg_compute / agg_reduce phase spans and closes the job span.
  void close(obs::TraceSink& tr) {
    tr.span_at("phase", "agg_compute", obs::kDriverPid, 0, m->start,
               m->compute_done, {{"job", job}});
    tr.span_at("phase", "agg_reduce", obs::kDriverPid, 0, m->compute_done,
               m->end, {{"job", job}});
    scope.close();
  }
};

/// What the ranks of one split-stage attempt hand the driver.
template <typename V>
struct RankResults {
  std::vector<std::pair<int, V>> segs;  ///< reduce-scatter: all segments.
  std::uint64_t bytes = 0;              ///< their modeled size.
  std::shared_ptr<V> replica;           ///< allreduce: rank 0's result.
};

/// One rank task of a split-stage attempt, as its per-rank body sees it.
template <typename T, typename U, typename V>
struct RankCtx {
  Cluster& cl;
  const SplitAggSpec<T, U, V>& spec;
  int job;
  comm::Communicator& sc;
  comm::AlgoId algo;
  bool encoded;  ///< sparse ring with an encode_op: segments ship encoded.
  int exec;
  int rank;  ///< in `sc`, fixed when the attempt's communicator was built.
  std::shared_ptr<U> local;
  comm::SegOps<V> ops;
};

/// What distinguishes split_aggregate from split_allreduce. Everything
/// else — stage 1, the ring-stage attempt loop with its boundary, retune
/// and recovery, and each rank task's prologue — is split_job's.
template <typename T, typename U, typename V>
struct SplitOp {
  const char* job_span;      ///< e.g. "job.split_aggregate".
  const char* kind_counter;  ///< e.g. "agg.jobs.split".
  const char* stage_span;    ///< the ring-stage attempt span.
  const char* abort_msg;     ///< thrown once max_stage_attempts fail.
  comm::CollectiveOp op;     ///< what retune_algo prices.
  /// Per rank, after the prologue and inside its core slot: run the
  /// collective and deliver this rank's share into the results.
  std::function<sim::Task<void>(RankCtx<T, U, V>&, RankResults<V>&)> rank_body;
  /// At the driver once every rank finished: the job's result.
  /// `dense_bytes` is the aggregator's modeled size.
  std::function<sim::Task<V>(Cluster&, const SplitAggSpec<T, U, V>&, int job,
                             bool encoded, std::uint64_t dense_bytes,
                             RankResults<V>&)>
      finish;
};

/// One rank task: dispatch, control hop, core slot (held across the
/// collective), task overhead, then the pass over the local aggregator that
/// cuts it into P*N segments — the codec's gather pass when `encoded`, which
/// emits the encoded segments directly — and the op's per-rank body. Any
/// failure lands in `error`; the catch-all is what keeps the WaitGroup
/// complete (no silent hang) when a fault strikes mid-collective.
template <typename T, typename U, typename V>
sim::Task<void> split_rank_task(const SplitOp<T, U, V>& op,
                                RankCtx<T, U, V> r, RankResults<V>& out,
                                sim::WaitGroup& wg, std::exception_ptr& error) {
  Cluster& cl = r.cl;
  try {
    const Time dispatched =
        cl.driver_loop().enqueue(cl.spec().rates.task_dispatch);
    co_await cl.simulator().sleep_until(dispatched);
    co_await cl.simulator().sleep(cl.control_latency(r.exec));
    Executor& ex = cl.executor(r.exec);
    co_await ex.cores().acquire();
    sim::SemaphoreGuard slot(ex.cores());
    co_await cl.simulator().sleep(cl.spec().rates.task_overhead);
    const std::uint64_t bytes = r.spec.base.bytes(*r.local);
    if (r.encoded) {
      // Priced at the codec scan bandwidth, in its own "comp" category.
      const obs::SpanId span = cl.trace().begin(
          "comp", "comp.encode", obs::exec_pid(r.exec), r.rank,
          {{"job", r.job}, {"bytes", static_cast<std::int64_t>(bytes)}});
      co_await cl.simulator().sleep(cl.codec_cost(bytes));
      cl.trace().end(span);
    } else {
      co_await cl.simulator().sleep(cl.merge_cost(bytes));
    }
    r.ops = make_seg_ops(cl, r.job, r.encoded, r.exec, r.rank, r.spec, r.local);
    co_await op.rank_body(r, out);
  } catch (...) {
    if (!error) error = std::current_exception();
  }
  wg.done();
}

/// A split-stage job (paper Figure 6): a reduced-result stage, then a
/// statically scheduled SpawnRDD stage running `op`'s collective over the
/// scalable communicator, then `op.finish` at the driver.
///
/// The SpawnRDD stage is fault-tolerant at *stage* granularity: if a
/// collective fails (an executor dies mid-ring, or a severed channel times
/// a recv out), the surviving per-executor merged values from stage 1 are
/// kept, any partials lost with dead executors are recomputed onto
/// survivors, the communicator is rebuilt over the surviving topology, and
/// the whole stage re-runs after an exponential backoff — up to
/// `max_stage_attempts` times. Attempt counts and the simulated time lost
/// to recovery land in AggMetrics (and, cluster-lifetime, in the metrics
/// registry).
template <typename T, typename U, typename V>
sim::Task<V> split_job(Cluster& cl, CachedRdd<T>& rdd,
                       const SplitAggSpec<T, U, V>& spec, AggMetrics* metrics,
                       JobOptions opt, SplitOp<T, U, V> op) {
  AggJob aj(cl, metrics, op.kind_counter, op.job_span, opt);
  AggMetrics* m = aj.m;
  const int job = aj.job;
  obs::TraceSink& tr = cl.trace();
  sim::WaitGroup spec_attempts(cl.simulator());

  // Job boundary: admit arrived joiners before stage 1 so they can take
  // compute tasks; no partials exist yet, so pending drains just complete.
  co_await cl.sync_membership(/*complete_drains=*/true);

  // Stage 1: reduced-result stage; exactly one aggregator per executor.
  co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
  StageOut<U> stage1 = co_await compute_stage(cl, rdd, spec.base, job, m,
                                              /*imm=*/true, spec_attempts);
  m->compute_done = cl.simulator().now();

  // Per-executor merged values, keyed by *executor id* (stable across
  // communicator rebuilds), plus which partitions fed each value — the
  // recovery bookkeeping for refolding lost partials.
  const int num_exec = cl.num_executors();
  std::vector<std::shared_ptr<U>> per_exec(static_cast<std::size_t>(num_exec));
  std::vector<std::vector<int>> owned(static_cast<std::size_t>(num_exec));
  for (auto& b : stage1.blobs) {
    per_exec[static_cast<std::size_t>(b.executor)] = b.value;
  }
  for (int t = 0; t < rdd.num_partitions(); ++t) {
    const int e = stage1.task_exec[static_cast<std::size_t>(t)];
    owned[static_cast<std::size_t>(e)].push_back(t);
  }

  // Stage 2: SpawnRDD — one task pinned to each live executor, retried at
  // stage granularity on collective failure. The concrete algorithm the
  // previous attempt ran: ring re-formation keeps it (hysteresis in
  // comm::retune_algo) unless the tuner's pick for the new ring size is
  // decisively better. kAuto = no prior attempt.
  comm::AlgoId prev_algo = comm::AlgoId::kAuto;
  for (int ring_attempt = 1;; ++ring_attempt) {
    m->ring_stage_attempts = ring_attempt;
    const Time attempt_start = cl.simulator().now();
    // The algorithm is resolved once per attempt (inside the try, after the
    // membership snapshot: kAuto depends on the live rank count), so every
    // rank of one collective runs the same algorithm. Declared here so the
    // failure path can stamp it on the closing span too.
    comm::AlgoId algo = cl.config().collective_algo;
    // The attempt span opens at attempt_start and, on failure, closes at
    // the instant the collective failure surfaces — making the failed span
    // plus the recovery spans that follow (detect.settle + recover.backoff,
    // or their recover.overlap wrapper) exactly the contiguous interval
    // recovery_time accrues (obs::recovery_from_trace reconstructs it).
    obs::TraceSink::Scope attempt_scope(
        tr, tr.begin("stage", op.stage_span, obs::kDriverPid, 0,
                     {{"job", job}, {"attempt", ring_attempt}}));
    try {
      co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
      // Stage boundary: membership sync, drained-partial migration, ring
      // (re)formation and residual refold, all against one rank snapshot
      // (see ring_boundary for why the ordering is load-bearing).
      const RingSnapshot ring = co_await ring_boundary(
          cl, rdd, spec, job, m, per_exec, owned, opt.ring);
      // Without a density_op the density is 1.0: dense specs never price
      // the sparse ring as a win.
      const U& sample = sample_aggregator(spec, per_exec);
      const std::uint64_t agg_bytes = spec.base.bytes(sample);
      algo = comm::retune_algo(
          op.op, cl.config().collective_algo, prev_algo,
          cl.collective_cost_inputs(
              agg_bytes, ring.n,
              spec.density_op ? spec.density_op(sample) : 1.0));
      prev_algo = algo;
      cl.metrics().add(std::string("agg.collective.") + comm::to_string(algo),
                       1);
      const bool encoded = algo == comm::AlgoId::kSparseRing &&
                           static_cast<bool>(spec.encode_op);
      RankResults<V> results;
      std::exception_ptr error;
      sim::WaitGroup wg(cl.simulator());
      wg.add(ring.n);
      for (int r = 0; r < ring.n; ++r) {
        const int e = ring.rank_exec[static_cast<std::size_t>(r)];
        auto localv = per_exec[static_cast<std::size_t>(e)];
        // Executors that received no partition contribute a zero aggregator.
        if (!localv) localv = std::make_shared<U>(spec.base.zero);
        cl.simulator().spawn(split_rank_task(
            op,
            RankCtx<T, U, V>{cl, spec, job, *ring.sc, algo, encoded, e, r,
                             std::move(localv), {}},
            results, wg, error));
      }
      co_await wg.wait();
      if (error) std::rethrow_exception(error);
      V result = co_await op.finish(cl, spec, job, encoded, agg_bytes, results);
      m->end = cl.simulator().now();
      attempt_scope.close({{"algo", static_cast<std::int64_t>(algo)}});
      aj.close(tr);
      co_await spec_attempts.wait();
      co_return result;
    } catch (const comm::CollectiveFailed&) {
      // Stage-level cleanup: the failed attempt's communicator (with any
      // stale in-flight messages) is retired; the next attempt gets a
      // fresh one over the surviving topology.
      cl.ring_invalidate(opt.ring);
      attempt_scope.close(
          {{"failed", 1}, {"algo", static_cast<std::int64_t>(algo)}});
    }
    // Only a failed attempt gets here (success returns from the try).
    ++m->stage_restarts;
    if (ring_attempt >= cl.config().max_stage_attempts) {
      co_await spec_attempts.wait();
      throw std::runtime_error(op.abort_msg);
    }
    // Settle-then-backoff — overlapped with eager refold of partials lost
    // with dead executors when overlap_recovery is on.
    co_await recover_between_attempts(cl, rdd, spec, job, ring_attempt, m,
                                      per_exec, owned);
    m->recovery_time += cl.simulator().now() - attempt_start;
  }
}

}  // namespace detail

/// Spark's treeAggregate (optionally with IMM in the compute stage,
/// per `cluster.config().agg_mode`). Returns the fully reduced aggregator.
template <typename T, typename U>
sim::Task<U> tree_aggregate(Cluster& cl, CachedRdd<T>& rdd,
                            const TreeAggSpec<T, U>& spec,
                            AggMetrics* metrics = nullptr,
                            const JobOptions& opt = {}) {
  detail::AggJob aj(cl, metrics, "agg.jobs.tree", "job.tree_aggregate", opt);
  AggMetrics* m = aj.m;
  const int job = aj.job;
  // Counts every racing attempt frame; drained before this frame dies so
  // losing speculative attempts never outlive the state they reference.
  sim::WaitGroup spec_attempts(cl.simulator());

  // Job boundary: admit arrived joiners (warm-up transfer) and complete
  // pending drains — a tree job holds no ring state to migrate.
  co_await cl.sync_membership(/*complete_drains=*/true);
  const bool imm = cl.config().agg_mode != AggMode::kTree;
  co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
  detail::StageOut<U> stage = co_await detail::compute_stage(
      cl, rdd, spec, job, m, imm, spec_attempts);
  std::vector<detail::Blob<U>> blobs = std::move(stage.blobs);
  m->compute_done = cl.simulator().now();

  // Spark's reduction schedule: scale = max(ceil(P^(1/depth)), 2); combine
  // rounds shrink the partition count while it stays above
  // scale + ceil(P/scale); then reduce at the driver.
  int num_partitions = static_cast<int>(blobs.size());
  const int depth = std::max(1, cl.config().tree_depth);
  const int scale = std::max(
      2, static_cast<int>(std::ceil(
             std::pow(static_cast<double>(num_partitions), 1.0 / depth))));
  while (num_partitions >
         scale + static_cast<int>(std::ceil(static_cast<double>(num_partitions) /
                                            scale))) {
    num_partitions /= scale;
    std::vector<std::vector<detail::Blob<U>>> groups(
        static_cast<std::size_t>(num_partitions));
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      groups[i % static_cast<std::size_t>(num_partitions)].push_back(
          std::move(blobs[i]));
    }
    co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
    std::vector<detail::Blob<U>> next(static_cast<std::size_t>(num_partitions));
    sim::WaitGroup wg(cl.simulator());
    wg.add(num_partitions);
    struct Combine {
      static sim::Task<void> go(Cluster& cl, int job,
                                std::vector<detail::Blob<U>> inputs,
                                int dest_exec, const TreeAggSpec<T, U>& spec,
                                detail::Blob<U>& out, sim::WaitGroup& wg) {
        out = co_await detail::reduce_task<U>(cl, job, std::move(inputs),
                                              dest_exec, spec.comb_op,
                                              spec.bytes);
        wg.done();
      }
    };
    for (int j = 0; j < num_partitions; ++j) {
      // Combine tasks round-robin over executors, placed through the health
      // view like compute tasks.
      const int dest = detail::schedule_executor(cl, j % cl.num_executors());
      cl.simulator().spawn(Combine::go(cl, job,
                                       std::move(groups[static_cast<std::size_t>(j)]),
                                       dest, spec,
                                       next[static_cast<std::size_t>(j)], wg));
    }
    co_await wg.wait();
    blobs = std::move(next);
  }

  co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
  U result = co_await detail::driver_reduce<U>(cl, job, std::move(blobs),
                                               spec.comb_op);
  m->end = cl.simulator().now();
  aj.close(cl.trace());
  // Drain losing speculative attempts (m->end is already recorded, so the
  // job's measured time excludes zombies running out their last attempt).
  co_await spec_attempts.wait();
  co_return result;
}

/// Sparker's splitAggregate (paper Figure 6): reduced-result stage, then a
/// statically scheduled SpawnRDD stage running ring reduce-scatter over the
/// scalable communicator, then collect + concatOp at the driver. Fault
/// tolerance and recovery: see detail::split_job.
template <typename T, typename U, typename V>
sim::Task<V> split_aggregate(Cluster& cl, CachedRdd<T>& rdd,
                             const SplitAggSpec<T, U, V>& spec,
                             AggMetrics* metrics = nullptr,
                             const JobOptions& opt = {}) {
  detail::SplitOp<T, U, V> op{
      "job.split_aggregate", "agg.jobs.split", "stage.ring",
      "ring stage exceeded max attempts; job aborted",
      comm::CollectiveOp::kReduceScatter, nullptr, nullptr};
  op.rank_body = [](detail::RankCtx<T, U, V>& r,
                    detail::RankResults<V>& out) -> sim::Task<void> {
    Cluster& cl = r.cl;
    auto segs = co_await comm::CollectiveRegistry<V>::instance().reduce_scatter(
        r.algo, r.sc, r.rank, r.ops);
    if (!cl.executor_alive(r.exec)) {
      throw comm::CollectiveFailed("executor died after reduce-scatter");
    }
    // Ship this task's P segments to the driver as its task result.
    std::uint64_t nbytes = 0;
    for (auto& [idx, v] : segs) nbytes += r.spec.v_bytes(v);
    const obs::SpanId ser = cl.trace().begin(
        "ser", "ser.result", obs::exec_pid(r.exec), r.rank,
        {{"job", r.job}, {"bytes", static_cast<std::int64_t>(nbytes)}});
    co_await cl.simulator().sleep(cl.ser_time(nbytes));
    cl.trace().end(ser);
    co_await cl.simulator().sleep(cl.control_latency(r.exec));
    if (nbytes > detail::kDirectResultLimit) {
      co_await cl.fetch_blob(r.exec, Cluster::kDriver, nbytes);
    }
    const Time done = cl.driver_loop().enqueue(cl.driver_deser_time(nbytes));
    co_await cl.simulator().sleep_until(done);
    for (auto& s : segs) out.segs.push_back(std::move(s));
    out.bytes += nbytes;
  };
  op.finish = [](Cluster& cl, const SplitAggSpec<T, U, V>& spec, int job,
                 bool encoded, std::uint64_t dense_bytes,
                 detail::RankResults<V>& out) -> sim::Task<V> {
    std::sort(out.segs.begin(), out.segs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Sparse ring only: the driver densifies the compressed segments
    // before concatenation — one codec scatter pass over the dense result
    // (an array codec, not generic JVM folding), attributed to "comp".
    if (encoded) {
      const Time t0 = cl.simulator().now();
      const Time decoded = cl.driver_loop().enqueue(cl.codec_cost(dense_bytes));
      co_await cl.simulator().sleep_until(decoded);
      cl.trace().span_at("comp", "comp.decode", obs::kDriverPid, 0, t0, decoded,
                         {{"job", job},
                          {"bytes", static_cast<std::int64_t>(dense_bytes)}});
    }
    const Time done = cl.driver_loop().enqueue(cl.driver_merge_cost(out.bytes));
    co_await cl.simulator().sleep_until(done);
    co_return spec.concat_op(out.segs);
  };
  return detail::split_job(cl, rdd, spec, metrics, opt, std::move(op));
}

/// Allreduce-flavoured split aggregation (extension; paper Section 6 notes
/// the driver becomes the new bottleneck once reduction scales — this
/// removes the driver from the data path entirely): a reduced-result
/// stage, then a Rabenseifner allreduce (ring reduce-scatter + ring
/// allgather) over the scalable communicator, leaving the fully reduced
/// value *resident on every executor*. The driver receives only a tiny
/// digest. If `result_key >= 0`, each executor's replica is stored in its
/// mutable object manager under that key so subsequent stages can use it
/// without a broadcast. Fault tolerance: the same stage-level retry and
/// recovery as split_aggregate (detail::split_job).
template <typename T, typename U, typename V>
sim::Task<V> split_allreduce(Cluster& cl, CachedRdd<T>& rdd,
                             const SplitAggSpec<T, U, V>& spec,
                             AggMetrics* metrics = nullptr,
                             std::int64_t result_key = -1,
                             const JobOptions& opt = {}) {
  detail::SplitOp<T, U, V> op{
      "job.split_allreduce", "agg.jobs.allreduce", "stage.allreduce",
      "allreduce stage exceeded max attempts; job aborted",
      comm::CollectiveOp::kAllreduce, nullptr, nullptr};
  // The lambda lives in `op`, inside split_job's frame, for as long as any
  // rank body it starts: its capture outlives every coroutine using it.
  op.rank_body = [result_key](detail::RankCtx<T, U, V>& r,
                              detail::RankResults<V>& out) -> sim::Task<void> {
    Cluster& cl = r.cl;
    V full = co_await comm::CollectiveRegistry<V>::instance().allreduce(
        r.algo, r.sc, r.rank, r.ops);
    if (!cl.executor_alive(r.exec)) {
      throw comm::CollectiveFailed("executor died after allreduce");
    }
    // Sparse ring only: every rank densifies its replica — one codec
    // scatter pass over the dense aggregator, attributed to "comp".
    if (r.encoded) {
      const std::uint64_t dense_bytes = r.spec.base.bytes(*r.local);
      const obs::SpanId dec = cl.trace().begin(
          "comp", "comp.decode", obs::exec_pid(r.exec), r.rank,
          {{"job", r.job}, {"bytes", static_cast<std::int64_t>(dense_bytes)}});
      co_await cl.simulator().sleep(cl.codec_cost(dense_bytes));
      cl.trace().end(dec);
    }
    // Assembling the replica is one pass over it.
    co_await cl.simulator().sleep(cl.merge_cost(r.spec.v_bytes(full)));
    // Only a digest (loss/status) travels to the driver.
    co_await cl.simulator().sleep(cl.control_latency(r.exec));
    (void)cl.driver_loop().enqueue(sim::microseconds(20));
    if (r.rank == 0) out.replica = std::make_shared<V>(full);
    if (result_key >= 0) {
      cl.executor(r.exec).mutable_object(result_key, cl.simulator()).value =
          std::make_shared<V>(std::move(full));
    }
  };
  op.finish = [](Cluster&, const SplitAggSpec<T, U, V>&, int, bool,
                 std::uint64_t, detail::RankResults<V>& out) -> sim::Task<V> {
    co_return std::move(*out.replica);
  };
  return detail::split_job(cl, rdd, spec, metrics, opt, std::move(op));
}

}  // namespace sparker::engine
