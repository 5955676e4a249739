// Engine tests: RDD semantics, agreement of tree / tree+IMM / split
// aggregation with a sequential reference, Spark's tree reduction schedule,
// fault-injection semantics (task retry vs stage restart), stragglers, and
// the timing relationships the paper's Figure 16 depends on.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/config.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace sparker::engine {
namespace {

using sim::Simulator;
using sim::Task;
using Vec = std::vector<std::int64_t>;

// A small test cluster (2 nodes x 2 executors x 2 cores) with GC off.
net::ClusterSpec small_spec(int nodes = 2) {
  net::ClusterSpec s = net::ClusterSpec::bic(nodes);
  s.executors_per_node = 2;
  s.cores_per_executor = 2;
  s.fabric.gc.enabled = false;
  return s;
}

// Rows are int64; the aggregator is a Vec of `dim` sums where row r adds
// (r % dim == i ? r : 0)... simpler: aggregator[i] += row * (i + 1).
TreeAggSpec<std::int64_t, Vec> sum_spec(int dim) {
  TreeAggSpec<std::int64_t, Vec> spec;
  spec.zero = Vec(static_cast<std::size_t>(dim), 0);
  spec.seq_op = [dim](Vec& u, const std::int64_t& row) {
    for (int i = 0; i < dim; ++i) {
      u[static_cast<std::size_t>(i)] += row * (i + 1);
    }
  };
  spec.comb_op = [](Vec& a, const Vec& b) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  };
  spec.bytes = [](const Vec& v) { return v.size() * sizeof(std::int64_t); };
  spec.partition_cost = [](int, const std::vector<std::int64_t>& rows) {
    return sim::microseconds(rows.size());
  };
  return spec;
}

SplitAggSpec<std::int64_t, Vec, Vec> split_sum_spec(int dim) {
  SplitAggSpec<std::int64_t, Vec, Vec> spec;
  spec.base = sum_spec(dim);
  spec.split_op = [](const Vec& u, int seg, int nseg) {
    const int len = static_cast<int>(u.size());
    const int base = len / nseg, rem = len % nseg;
    const int lo = seg * base + std::min(seg, rem);
    const int hi = lo + base + (seg < rem ? 1 : 0);
    return Vec(u.begin() + lo, u.begin() + hi);
  };
  spec.reduce_op = [](Vec& a, const Vec& b) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  };
  spec.concat_op = [](std::vector<std::pair<int, Vec>>& segs) {
    Vec out;
    for (auto& [idx, v] : segs) out.insert(out.end(), v.begin(), v.end());
    return out;
  };
  spec.v_bytes = [](const Vec& v) { return v.size() * sizeof(std::int64_t); };
  return spec;
}

std::function<std::vector<std::int64_t>(int)> row_gen(int rows_per_part) {
  return [rows_per_part](int pid) {
    std::vector<std::int64_t> rows(static_cast<std::size_t>(rows_per_part));
    for (int i = 0; i < rows_per_part; ++i) {
      rows[static_cast<std::size_t>(i)] = pid * 1000 + i;
    }
    return rows;
  };
}

Vec sequential_reference(CachedRdd<std::int64_t>& rdd,
                         const TreeAggSpec<std::int64_t, Vec>& spec) {
  Vec acc = spec.zero;
  for (int p = 0; p < rdd.num_partitions(); ++p) {
    Vec part_agg = spec.zero;
    for (auto r : rdd.partition(p)) spec.seq_op(part_agg, r);
    spec.comb_op(acc, part_agg);
  }
  return acc;
}

TEST(CachedRdd, PartitionAffinityRoundRobin) {
  CachedRdd<std::int64_t> rdd(10, 4, row_gen(3));
  EXPECT_EQ(rdd.num_partitions(), 10);
  EXPECT_EQ(rdd.preferred_executor(0), 0);
  EXPECT_EQ(rdd.preferred_executor(5), 1);
  EXPECT_EQ(rdd.preferred_executor(9), 1);
  EXPECT_EQ(rdd.count(), 30u);
}

TEST(CachedRdd, RegenerationIsDeterministic) {
  CachedRdd<std::int64_t> a(4, 2, row_gen(5));
  CachedRdd<std::int64_t> b(4, 2, row_gen(5));
  a.materialize();
  for (int p = 0; p < 4; ++p) EXPECT_EQ(a.partition(p), b.partition(p));
}

TEST(CachedRdd, InvalidArgsThrow) {
  EXPECT_THROW(CachedRdd<int>(0, 2, nullptr), std::invalid_argument);
  EXPECT_THROW(CachedRdd<int>(2, 0, nullptr), std::invalid_argument);
}

TEST(Cluster, ExecutorLayoutMatchesSpec) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  EXPECT_EQ(cl.num_executors(), 4);
  // Round-robin registration: executor 0 on host 0, executor 1 on host 1.
  EXPECT_EQ(cl.executor(0).host(), 0);
  EXPECT_EQ(cl.executor(1).host(), 1);
  EXPECT_EQ(cl.executor(2).host(), 0);
}

TEST(Cluster, RankMappingTopologyAware) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().topology_aware = true;
  // Sorted by hostname: ranks 0,1 on host 0; ranks 2,3 on host 1.
  auto& sc = cl.scalable_comm();
  EXPECT_EQ(sc.host_of(0), 0);
  EXPECT_EQ(sc.host_of(1), 0);
  EXPECT_EQ(sc.host_of(2), 1);
  EXPECT_EQ(sc.host_of(3), 1);
  // exec <-> rank round trip.
  for (int e = 0; e < cl.num_executors(); ++e) {
    EXPECT_EQ(cl.executor_of_rank(cl.rank_of_executor(e)), e);
  }
}

TEST(Cluster, RankMappingNotAwareInterleavesHosts) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().topology_aware = false;
  auto& sc = cl.scalable_comm();
  EXPECT_EQ(sc.host_of(0), 0);
  EXPECT_EQ(sc.host_of(1), 1);
  EXPECT_EQ(sc.host_of(2), 0);
  EXPECT_EQ(sc.host_of(3), 1);
}

class AggModeParity : public ::testing::TestWithParam<AggMode> {};

TEST_P(AggModeParity, MatchesSequentialReference) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().agg_mode = GetParam();
  cl.config().sai_parallelism = 2;
  CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(20));
  rdd.materialize();
  const auto tspec = sum_spec(37);  // odd dim: uneven segment splits
  const Vec want = sequential_reference(rdd, tspec);

  Vec got;
  if (GetParam() == AggMode::kSplit) {
    auto sspec = split_sum_spec(37);
    auto job = [&]() -> Task<Vec> {
      co_return co_await split_aggregate(cl, rdd, sspec);
    };
    got = sim.run_task(job());
  } else {
    auto job = [&]() -> Task<Vec> {
      co_return co_await tree_aggregate(cl, rdd, tspec);
    };
    got = sim.run_task(job());
  }
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(AllModes, AggModeParity,
                         ::testing::Values(AggMode::kTree, AggMode::kTreeImm,
                                           AggMode::kSplit));

class PartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSweep, SplitMatchesTreeForAnyPartitionCount) {
  const int parts = GetParam();
  const auto run = [parts](AggMode mode) {
    Simulator sim;
    Cluster cl(sim, small_spec());
    cl.config().agg_mode = mode;
    cl.config().sai_parallelism = 3;
    CachedRdd<std::int64_t> rdd(parts, cl.num_executors(), row_gen(7));
    if (mode == AggMode::kSplit) {
      auto sspec = split_sum_spec(23);
      auto job = [&]() -> Task<Vec> {
        co_return co_await split_aggregate(cl, rdd, sspec);
      };
      return sim.run_task(job());
    }
    auto tspec = sum_spec(23);
    auto job = [&]() -> Task<Vec> {
      co_return co_await tree_aggregate(cl, rdd, tspec);
    };
    return sim.run_task(job());
  };
  EXPECT_EQ(run(AggMode::kSplit), run(AggMode::kTree));
}

// 1 partition (fewer than executors), 3 (some executors idle), up to many.
INSTANTIATE_TEST_SUITE_P(Sweep, PartitionSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16, 31, 64));

TEST(TreeAggregate, MetricsArePopulated) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(50));
  auto spec = sum_spec(16);
  AggMetrics m;
  auto job = [&]() -> Task<Vec> {
    co_return co_await tree_aggregate(cl, rdd, spec, &m);
  };
  (void)sim.run_task(job());
  EXPECT_GT(m.compute_done, m.start);
  EXPECT_GT(m.end, m.compute_done);
  EXPECT_EQ(m.total(), m.compute_time() + m.reduce_time());
  EXPECT_EQ(m.task_retries, 0);
  EXPECT_EQ(m.stage_restarts, 0);
}

TEST(TreeAggregate, TaskFailureRetriesJustThatTask) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().agg_mode = AggMode::kTree;
  int failures_injected = 0;
  cl.config().faults.should_fail = [&](const TaskId& id) {
    if (id.stage == 0 && id.task == 3 && id.attempt == 0) {
      ++failures_injected;
      return true;
    }
    return false;
  };
  CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(10));
  auto spec = sum_spec(8);
  const Vec want = sequential_reference(rdd, spec);
  AggMetrics m;
  auto job = [&]() -> Task<Vec> {
    co_return co_await tree_aggregate(cl, rdd, spec, &m);
  };
  EXPECT_EQ(sim.run_task(job()), want);
  EXPECT_EQ(failures_injected, 1);
  EXPECT_EQ(m.task_retries, 1);
  EXPECT_EQ(m.stage_restarts, 0);
}

TEST(TreeAggregate, PersistentFailureAbortsJob) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().faults.should_fail = [](const TaskId& id) {
    return id.task == 0;  // fails every attempt
  };
  CachedRdd<std::int64_t> rdd(4, cl.num_executors(), row_gen(5));
  auto spec = sum_spec(4);
  auto job = [&]() -> Task<Vec> {
    co_return co_await tree_aggregate(cl, rdd, spec);
  };
  EXPECT_THROW(sim.run_task(job()), std::runtime_error);
}

TEST(ImmAggregate, FailureRestartsWholeStageAndStaysCorrect) {
  // Paper Section 3.2: with IMM a task failure clears the shared partials
  // and re-submits the whole stage — and the result must not double-count
  // the successful tasks of the failed attempt.
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().agg_mode = AggMode::kTreeImm;
  int failures_injected = 0;
  cl.config().faults.should_fail = [&](const TaskId& id) {
    if (id.stage == 0 && id.task == 5 && id.attempt == 0) {
      ++failures_injected;
      return true;
    }
    return false;
  };
  CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(12));
  auto spec = sum_spec(8);
  const Vec want = sequential_reference(rdd, spec);
  AggMetrics m;
  auto job = [&]() -> Task<Vec> {
    co_return co_await tree_aggregate(cl, rdd, spec, &m);
  };
  EXPECT_EQ(sim.run_task(job()), want);
  EXPECT_EQ(failures_injected, 1);
  EXPECT_EQ(m.stage_restarts, 1);
  EXPECT_EQ(m.task_retries, 0);
}

TEST(SplitAggregate, FailureRestartsStageAndStaysCorrect) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().agg_mode = AggMode::kSplit;
  cl.config().faults.should_fail = [](const TaskId& id) {
    return id.stage == 0 && id.task == 2 && id.attempt < 2;  // fail twice
  };
  CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(9));
  auto sspec = split_sum_spec(19);
  const Vec want = sequential_reference(rdd, sspec.base);
  AggMetrics m;
  auto job = [&]() -> Task<Vec> {
    co_return co_await split_aggregate(cl, rdd, sspec, &m);
  };
  EXPECT_EQ(sim.run_task(job()), want);
  EXPECT_EQ(m.stage_restarts, 2);
}

TEST(Stragglers, SlowExecutorDelaysComputeStage) {
  auto run = [](double slowdown) {
    Simulator sim;
    Cluster cl(sim, small_spec());
    cl.config().stragglers.slowdown[1] = slowdown;
    CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(40000));
    auto spec = sum_spec(8);
    AggMetrics m;
    auto job = [&]() -> Task<Vec> {
      co_return co_await tree_aggregate(cl, rdd, spec, &m);
    };
    (void)sim.run_task(job());
    return m.compute_time();
  };
  // Each partition costs ~40 ms; the straggling executor's tasks take
  // 160 ms instead, so the stage (gated by its slowest executor) stretches
  // by ~120 ms on top of fixed dispatch/scheduler overheads.
  EXPECT_GT(run(4.0), run(1.0) + sim::milliseconds(80));
}

TEST(Timing, SplitBeatsTreeForLargeAggregators) {
  // The headline effect: with paper-scale (modeled 64 MB) aggregators on
  // 8 nodes, split aggregation's reduction must be several times faster.
  auto reduce_time = [](AggMode mode) {
    Simulator sim;
    net::ClusterSpec spec = net::ClusterSpec::bic(8);
    spec.fabric.gc.enabled = false;
    Cluster cl(sim, spec);
    cl.config().agg_mode = mode;
    // Several tasks per executor so In-Memory Merge has results to merge.
    const int parts = cl.num_executors() * spec.cores_per_executor;
    CachedRdd<std::int64_t> rdd(parts, cl.num_executors(), row_gen(4));
    const int dim = 512;  // real elements (scaled down)
    const double scale = static_cast<double>(64ull << 20) / (dim * 8);
    AggMetrics m;
    if (mode == AggMode::kSplit) {
      auto sspec = split_sum_spec(dim);
      sspec.base.bytes = [scale](const Vec& v) {
        return static_cast<std::uint64_t>(v.size() * 8 * scale);
      };
      sspec.v_bytes = sspec.base.bytes;
      auto job = [&]() -> Task<Vec> {
        co_return co_await split_aggregate(cl, rdd, sspec, &m);
      };
      (void)sim.run_task(job());
    } else {
      auto tspec = sum_spec(dim);
      tspec.bytes = [scale](const Vec& v) {
        return static_cast<std::uint64_t>(v.size() * 8 * scale);
      };
      auto job = [&]() -> Task<Vec> {
        co_return co_await tree_aggregate(cl, rdd, tspec, &m);
      };
      (void)sim.run_task(job());
    }
    return m.reduce_time();
  };
  const auto tree = reduce_time(AggMode::kTree);
  const auto imm = reduce_time(AggMode::kTreeImm);
  const auto split = reduce_time(AggMode::kSplit);
  EXPECT_LT(split, imm);
  EXPECT_LT(imm, tree);
  EXPECT_GT(static_cast<double>(tree) / static_cast<double>(split), 3.0);
}

TEST(Timing, ImmSavesSerializationForManyTasksPerExecutor) {
  // With many tasks per executor and large aggregators, IMM's compute
  // stage should not be slower, and the end-to-end job should be faster.
  auto total_time = [](AggMode mode) {
    Simulator sim;
    net::ClusterSpec spec = net::ClusterSpec::bic(4);
    spec.fabric.gc.enabled = false;
    Cluster cl(sim, spec);
    cl.config().agg_mode = mode;
    const int parts = cl.num_executors() * spec.cores_per_executor * 2;
    CachedRdd<std::int64_t> rdd(parts, cl.num_executors(), row_gen(4));
    const int dim = 256;
    const double scale = static_cast<double>(32ull << 20) / (dim * 8);
    auto tspec = sum_spec(dim);
    tspec.bytes = [scale](const Vec& v) {
      return static_cast<std::uint64_t>(v.size() * 8 * scale);
    };
    AggMetrics m;
    auto job = [&]() -> Task<Vec> {
      co_return co_await tree_aggregate(cl, rdd, tspec, &m);
    };
    (void)sim.run_task(job());
    return m.total();
  };
  EXPECT_LT(total_time(AggMode::kTreeImm), total_time(AggMode::kTree));
}

TEST(Determinism, RepeatedRunsGiveIdenticalTimings) {
  auto run_once = [] {
    Simulator sim;
    Cluster cl(sim, small_spec());
    cl.config().agg_mode = AggMode::kSplit;
    CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(20));
    auto sspec = split_sum_spec(33);
    AggMetrics m;
    auto job = [&]() -> Task<Vec> {
      co_return co_await split_aggregate(cl, rdd, sspec, &m);
    };
    (void)sim.run_task(job());
    return m;
  };
  const AggMetrics a = run_once();
  const AggMetrics b = run_once();
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.compute_done, b.compute_done);
  EXPECT_EQ(a.end, b.end);
}

// ---- Placement follows the health view -------------------------------------

// An executor dead from t=0 (heartbeats off, so the driver knows at once)
// is never a task's home: its plain-stage tasks run elsewhere and report
// from there, and no combine round lands on it. Either slip sends the driver
// to fetch a result from the dead executor.
TEST(TreeAggregate, DeadExecutorHostsNoResultOrCombine) {
  EngineConfig cfg;
  cfg.agg_mode = AggMode::kTree;
  cfg.trace.enabled = true;
  cfg.fault_schedule.kill_executor(0, 1);
  Simulator sim;
  Cluster cl(sim, small_spec(), cfg);
  ASSERT_EQ(cl.num_executors(), 4);
  CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(10));
  const auto spec = sum_spec(8);
  const Vec want = sequential_reference(rdd, spec);
  auto job = [&]() -> Task<Vec> {
    co_return co_await tree_aggregate(cl, rdd, spec);
  };
  EXPECT_EQ(sim.run_task(job()), want);

  const int dead = obs::exec_pid(1);
  std::vector<int> task_pid(8, -1);
  for (const obs::TraceEvent& ev : cl.trace().events()) {
    if (ev.kind == obs::EventKind::kSpan && std::strcmp(ev.name, "task") == 0 &&
        !ev.has_arg("failed")) {
      task_pid.at(static_cast<std::size_t>(ev.tid)) = ev.pid;
    }
  }
  int ser_spans = 0, combines = 0;
  for (const obs::TraceEvent& ev : cl.trace().events()) {
    if (ev.kind != obs::EventKind::kSpan) continue;
    if (std::strcmp(ev.name, "ser.result") == 0) {
      ++ser_spans;
      EXPECT_EQ(ev.pid, task_pid.at(static_cast<std::size_t>(ev.tid)))
          << "task " << ev.tid;
    }
    if (std::strcmp(ev.cat, "fetch") == 0 ||
        std::strcmp(ev.name, "reduce.driver") == 0) {
      EXPECT_NE(ev.arg("from", -1), 1) << ev.name;
    }
    if (std::strcmp(ev.name, "task.combine") == 0) {
      ++combines;
      EXPECT_NE(ev.pid, dead);
    }
  }
  EXPECT_EQ(ser_spans, 8);
  EXPECT_GT(combines, 0);
}

// With every executor dead, placement itself fails. Under speculation the
// task runs as a race on both stage policies, and the error must still
// abort the job instead of escaping a detached task.
TEST(TreeAggregate, NoUsableExecutorAbortsJobUnderSpeculation) {
  for (const AggMode mode : {AggMode::kTree, AggMode::kTreeImm}) {
    EngineConfig cfg;
    cfg.agg_mode = mode;
    cfg.health.speculation = true;
    for (int e = 0; e < 4; ++e) cfg.fault_schedule.kill_executor(0, e);
    Simulator sim;
    Cluster cl(sim, small_spec(), cfg);
    CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(4));
    const auto spec = sum_spec(4);
    auto job = [&]() -> Task<Vec> {
      co_return co_await tree_aggregate(cl, rdd, spec);
    };
    EXPECT_THROW(sim.run_task(job()), std::runtime_error) << to_string(mode);
  }
}

// ---- Pinned stage behaviour ------------------------------------------------
//
// Golden timings, counters and kernel event counts for every aggregation
// path under the fault and health features the compute and ring stages
// implement. A change to how those stages schedule work is likely to move
// at least one of these numbers; a pure restructuring of the stage code
// moves none.

enum class PinPath { kTree, kTreeImm, kSplit, kAllreduce };
enum class PinCase {
  kClean,
  kTaskFailure,      // task 3's first attempt fails
  kKillMidRing,      // executor 2 dies 80% into the fault-free ring stage
  kKillMidRingOverlap,
  kStraggler,        // executor 1 runs 4x slower, speculation on
  kDecommission,     // executor 3 drains between two jobs; pins the 2nd
};

struct PinGolden {
  PinPath path;
  PinCase scenario;
  sim::Time compute_done;
  sim::Time end;
  int task_retries;
  int stage_restarts;
  int ring_stage_attempts;
  int speculative_launches;
  int speculative_wins;
  std::uint64_t events;
};

SplitAggSpec<std::int64_t, Vec, Vec> pin_spec() {
  auto spec = split_sum_spec(64);
  // ~4 MiB modeled aggregator so the ring stage spans real simulated time,
  // and 5 ms per row so stragglers outlast the speculation interval.
  spec.base.bytes = [](const Vec& v) { return v.size() * 8 * 8192; };
  spec.v_bytes = spec.base.bytes;
  spec.base.partition_cost = [](int, const std::vector<std::int64_t>& rows) {
    return sim::milliseconds(5 * static_cast<std::int64_t>(rows.size()));
  };
  return spec;
}

PinGolden run_pin(PinPath path, PinCase scenario, sim::Time kill_at) {
  EngineConfig cfg;
  cfg.agg_mode = path == PinPath::kTree      ? AggMode::kTree
                 : path == PinPath::kTreeImm ? AggMode::kTreeImm
                                             : AggMode::kSplit;
  cfg.sai_parallelism = 2;
  cfg.collective_timeout = sim::milliseconds(400);
  cfg.stage_retry_backoff = sim::milliseconds(10);
  switch (scenario) {
    case PinCase::kClean:
      break;
    case PinCase::kTaskFailure:
      cfg.faults.should_fail = [](const TaskId& id) {
        return id.stage == 0 && id.task == 3 && id.attempt == 0;
      };
      break;
    case PinCase::kKillMidRing:
    case PinCase::kKillMidRingOverlap:
      cfg.overlap_recovery = scenario == PinCase::kKillMidRingOverlap;
      cfg.fault_schedule.kill_executor(kill_at, 2);
      break;
    case PinCase::kStraggler:
      cfg.stragglers.slowdown[1] = 4.0;
      cfg.health.speculation = true;
      break;
    case PinCase::kDecommission:
      cfg.membership.decommission(sim::seconds(2), 3);
      break;
  }
  Simulator sim;
  Cluster cl(sim, small_spec(), cfg);
  CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(6));
  const auto spec = pin_spec();
  const Vec want = sequential_reference(rdd, spec.base);
  const int jobs = scenario == PinCase::kDecommission ? 2 : 1;
  AggMetrics m;
  auto campaign = [&]() -> Task<void> {
    for (int j = 0; j < jobs; ++j) {
      if (j > 0) {
        EXPECT_LT(m.end, sim::seconds(2)) << "job 1 must end before the drain";
        co_await sim.sleep_until(sim::seconds(3));
      }
      Vec got;
      if (path == PinPath::kSplit) {
        got = co_await split_aggregate(cl, rdd, spec, &m);
      } else if (path == PinPath::kAllreduce) {
        got = co_await split_allreduce(cl, rdd, spec, &m);
      } else {
        got = co_await tree_aggregate(cl, rdd, spec.base, &m);
      }
      EXPECT_EQ(got, want);
    }
  };
  sim.run_task(campaign());
  return PinGolden{path,
                   scenario,
                   m.compute_done,
                   m.end,
                   m.task_retries,
                   m.stage_restarts,
                   m.ring_stage_attempts,
                   m.speculative_launches,
                   m.speculative_wins,
                   sim.events_processed()};
}

// Plain tree under a decommission is left out on purpose: its placement
// follows the health view (see DeadExecutorHostsNoResultOrCombine), which
// moves a drained executor's results and combine tasks.
const PinGolden kPinGoldens[] = {
    // clang-format off
    // path, scenario, compute_done, end, task_retries, stage_restarts,
    // ring_stage_attempts, speculative_launches, speculative_wins, events
    {PinPath::kTree,      PinCase::kClean,               166319253,  436163173, 0, 0, 0, 0, 0,  260},
    {PinPath::kTree,      PinCase::kTaskFailure,         184981253,  454825173, 1, 0, 0, 0, 0,  264},
    {PinPath::kTree,      PinCase::kStraggler,           222301253,  533388413, 0, 0, 0, 2, 2,  547},
    {PinPath::kTreeImm,   PinCase::kClean,               164222101,  312608178, 0, 0, 0, 0, 0,  359},
    {PinPath::kTreeImm,   PinCase::kTaskFailure,         228464202,  376850279, 0, 1, 0, 0, 0,  414},
    {PinPath::kTreeImm,   PinCase::kStraggler,           220204101,  358803470, 0, 0, 0, 2, 2,  235},
    {PinPath::kTreeImm,   PinCase::kDecommission,       3178704101, 3317303470, 0, 0, 0, 0, 0,  577},
    {PinPath::kSplit,     PinCase::kClean,               164222101,  302881145, 0, 0, 1, 0, 0,  422},
    {PinPath::kSplit,     PinCase::kTaskFailure,         228464202,  367123246, 0, 1, 1, 0, 0,  477},
    {PinPath::kSplit,     PinCase::kKillMidRing,         164222101,  915408031, 0, 1, 2, 0, 0,  701},
    {PinPath::kSplit,     PinCase::kKillMidRingOverlap,  164222101,  905408031, 0, 1, 2, 0, 0,  704},
    {PinPath::kSplit,     PinCase::kStraggler,           220204101,  358863145, 0, 0, 1, 2, 2,  438},
    {PinPath::kSplit,     PinCase::kDecommission,       3178704101, 3319429455, 0, 0, 1, 0, 0,  825},
    {PinPath::kAllreduce, PinCase::kClean,               164222101,  307995537, 0, 0, 1, 0, 0,  729},
    {PinPath::kAllreduce, PinCase::kTaskFailure,         228464202,  372237638, 0, 1, 1, 0, 0,  784},
    {PinPath::kAllreduce, PinCase::kKillMidRing,         164222101,  918461420, 0, 1, 2, 0, 0,  932},
    {PinPath::kAllreduce, PinCase::kKillMidRingOverlap,  164222101,  908461420, 0, 1, 2, 0, 0,  935},
    {PinPath::kAllreduce, PinCase::kStraggler,           220204101,  363977537, 0, 0, 1, 2, 2,  745},
    {PinPath::kAllreduce, PinCase::kDecommission,       3178704101, 3318301531, 0, 0, 1, 0, 0, 1305},
    // clang-format on
};

TEST(StagePin, TimingsCountersAndEventsMatchGoldens) {
  for (const PinGolden& g : kPinGoldens) {
    sim::Time kill_at = 0;
    if (g.scenario == PinCase::kKillMidRing ||
        g.scenario == PinCase::kKillMidRingOverlap) {
      const PinGolden clean = run_pin(g.path, PinCase::kClean, 0);
      kill_at = clean.compute_done + (clean.end - clean.compute_done) * 4 / 5;
    }
    const PinGolden got = run_pin(g.path, g.scenario, kill_at);
    SCOPED_TRACE(::testing::Message()
                 << "path " << static_cast<int>(g.path) << " scenario "
                 << static_cast<int>(g.scenario));
    EXPECT_EQ(got.compute_done, g.compute_done);
    EXPECT_EQ(got.end, g.end);
    EXPECT_EQ(got.task_retries, g.task_retries);
    EXPECT_EQ(got.stage_restarts, g.stage_restarts);
    EXPECT_EQ(got.ring_stage_attempts, g.ring_stage_attempts);
    EXPECT_EQ(got.speculative_launches, g.speculative_launches);
    EXPECT_EQ(got.speculative_wins, g.speculative_wins);
    EXPECT_EQ(got.events, g.events);
  }
}

}  // namespace
}  // namespace sparker::engine
