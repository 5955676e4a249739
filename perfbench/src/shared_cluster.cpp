// shared-cluster: a seeded open-loop stream of splitAggregate campaigns from
// a batch tenant's elephants and three mice tenants, multiplexed by the
// fair-share scheduler onto one BIC cluster below saturation, with
// heartbeats and speculation on, a straggler, a degraded channel, a
// mid-stream decommission and join, and one executor killed before the
// first job. Concurrent per-job rings contend on the NICs — the multi-flow
// regime a single-flow pacing check misses — and this is the only workload
// that drives sched, health, membership, stage recovery and armed faults.
//
// The stream opens with two fixed jobs, submitted at the same time whatever
// the seed: a probe that places tasks on the killed executor, and a tree
// job homed away from it that stays active long enough for heartbeats to
// declare it dead. Heartbeat chains start at the first active job with a
// fresh grace period, so the probe keeps landing on the dead executor and
// aborts after max attempts (a program fault, counted as failed); the
// seeded stream starts after the detection and fails nothing.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "engine/aggregate.hpp"
#include "layers.hpp"
#include "sched/scheduler.hpp"
#include "sim/random.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace sparker;
using Vec = std::vector<std::int64_t>;

constexpr int kNodes = 4;  // 24 executors x 4 cores.
constexpr int kKilled = 5;
constexpr int kStraggler = 17;
constexpr int kDecommissioned = 11;
constexpr int kJoiner = 23;
constexpr sim::Time kKillAt = sim::milliseconds(100);
constexpr sim::Time kOpenAt = sim::milliseconds(200);  ///< probe + keeper.
constexpr sim::Time kStreamAt = sim::seconds(2);       ///< seeded stream.

constexpr int kStream = 480;
constexpr int kElephantEvery = 8;  ///< job i is an elephant when i % 8 == 0.
constexpr int kMiceTenants = 3;
constexpr sim::Duration kGap = sim::milliseconds(40);  ///< mean inter-arrival.

struct JobClass {
  int dim;
  int parts;
  int rows;
  std::uint64_t scale;     ///< modeled bytes per real byte.
  sim::Duration row_cost;  ///< modeled compute per row.
};
constexpr JobClass kMouse = {32, 24, 4, 16384, sim::milliseconds(1)};
constexpr JobClass kElephant = {64, 96, 8, 65536, sim::milliseconds(3)};
/// The keeper: 4 partitions homed on executors 0-3, one long task each.
constexpr JobClass kKeeper = {16, 4, 1, 1024, sim::milliseconds(1500)};

Vec partition_rows(const JobClass& jc, int pid) {
  Vec rows;
  for (int j = 0; j < jc.rows; ++j) rows.push_back(pid * jc.rows + j);
  return rows;
}

/// Closed form of a job's result: rows are 0..n-1 and seq_op adds
/// row + offset + i into slot i, so slot i sums to n(n-1)/2 + n(offset+i).
Vec closed_form(const JobClass& jc, std::int64_t offset) {
  const std::int64_t n = static_cast<std::int64_t>(jc.parts) * jc.rows;
  Vec out(static_cast<std::size_t>(jc.dim));
  for (int i = 0; i < jc.dim; ++i) {
    out[static_cast<std::size_t>(i)] = n * (n - 1) / 2 + n * (offset + i);
  }
  return out;
}

engine::SplitAggSpec<std::int64_t, Vec, Vec> make_spec(const JobClass& jc,
                                                       std::int64_t offset,
                                                       ClosureClock* clk) {
  engine::SplitAggSpec<std::int64_t, Vec, Vec> s;
  const int dim = jc.dim;
  s.base.zero = Vec(static_cast<std::size_t>(dim), 0);
  s.base.seq_op = [dim, offset, clk](Vec& u, const std::int64_t& row) {
    ScopedAdd t(&clk->closure_s);
    for (int i = 0; i < dim; ++i) {
      u[static_cast<std::size_t>(i)] += row + offset + i;
    }
  };
  s.base.comb_op = [clk](Vec& a, const Vec& b) {
    ScopedAdd t(&clk->closure_s);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  };
  const std::uint64_t scale = jc.scale;
  s.base.bytes = [scale](const Vec& v) {
    return static_cast<std::uint64_t>(v.size() * sizeof(std::int64_t)) *
           scale;
  };
  const sim::Duration row_cost = jc.row_cost;
  s.base.partition_cost = [row_cost](int, const std::vector<std::int64_t>& r) {
    return row_cost * r.size();
  };
  s.split_op = [clk](const Vec& u, int seg, int nseg) {
    ScopedAdd t(&clk->closure_s);
    const int len = static_cast<int>(u.size());
    const int base = len / nseg, rem = len % nseg;
    const int lo = seg * base + std::min(seg, rem);
    const int hi = lo + base + (seg < rem ? 1 : 0);
    return Vec(u.begin() + lo, u.begin() + hi);
  };
  s.reduce_op = s.base.comb_op;
  s.concat_op = [clk](std::vector<std::pair<int, Vec>>& segs) {
    ScopedAdd t(&clk->closure_s);
    Vec out;
    for (auto& [i, v] : segs) out.insert(out.end(), v.begin(), v.end());
    return out;
  };
  s.v_bytes = s.base.bytes;
  return s;
}

net::ClusterSpec cluster_spec() {
  net::ClusterSpec s = net::ClusterSpec::bic(kNodes);
  s.rates.scheduler_delay = sim::milliseconds(1);
  // A Sparker-style lightweight driver, as in the multi-tenant ablation:
  // with the stock per-task dispatch cost the serial driver loop, not the
  // cores and NICs the scheduler arbitrates, would bound the stream.
  s.rates.task_dispatch = sim::microseconds(100);
  return s;
}

engine::EngineConfig engine_config(bool traced) {
  engine::EngineConfig cfg = base_config(traced);
  cfg.agg_mode = engine::AggMode::kSplit;
  cfg.sai_parallelism = 2;
  cfg.health.heartbeats = true;
  cfg.health.speculation = true;
  cfg.stragglers.slowdown[kStraggler] = 3.0;
  const sim::Time span = kGap * kStream;
  cfg.fault_schedule.kill_executor(kKillAt, kKilled);
  cfg.fault_schedule.degrade_channel(kStreamAt + span / 5, 8, 9, -1, 4.0,
                                     span / 4);
  cfg.membership.decommission(kStreamAt + 2 * span / 5, kDecommissioned);
  cfg.membership.join(kStreamAt + 3 * span / 5, kJoiner);
  return cfg;
}

struct Submission {
  sim::Time at = 0;
  int tenant = 0;
  const JobClass* jc = nullptr;
  std::int64_t offset = 0;
  bool tree = false;  ///< the keeper runs treeAggregate.
};

/// The fixed opening pair, then the seeded stream: arrival i is drawn
/// uniformly inside its own kGap-wide slot, and the offset folded into each
/// job's values is seeded too.
std::vector<Submission> submissions(std::uint64_t seed) {
  std::vector<Submission> subs;
  subs.push_back({kOpenAt, 0, &kKeeper, 7, true});
  subs.push_back({kOpenAt, 1, &kMouse, 11, false});
  sim::Rng rng(seed);
  for (int i = 0; i < kStream; ++i) {
    const bool elephant = i % kElephantEvery == 0;
    Submission s;
    s.at = kStreamAt + kGap * static_cast<sim::Duration>(i) +
           static_cast<sim::Duration>(rng.next_double() *
                                      static_cast<double>(kGap));
    s.tenant = elephant ? 0 : 1 + i % kMiceTenants;
    s.jc = elephant ? &kElephant : &kMouse;
    s.offset = static_cast<std::int64_t>(rng.next_below(1000));
    subs.push_back(s);
  }
  return subs;
}

/// One scheduled job. A free coroutine, so its arguments live in the
/// coroutine frame rather than in the scheduler's std::function.
sim::Task<void> run_job(engine::Cluster& cl,
                        engine::CachedRdd<std::int64_t>& rdd,
                        const engine::SplitAggSpec<std::int64_t, Vec, Vec>& spec,
                        engine::JobOptions opt, Vec* out, bool tree) {
  engine::AggMetrics m;
  if (tree) {
    *out = co_await engine::tree_aggregate(cl, rdd, spec.base, &m, opt);
  } else {
    *out = co_await engine::split_aggregate(cl, rdd, spec, &m, opt);
  }
}

}  // namespace

Round shared_cluster_part(std::uint64_t seed, int /*part*/, bool traced,
                          HostTrace& ht) {
  Round r;
  ClosureClock clk;
  sim::Simulator simulator;
  std::unique_ptr<engine::Cluster> cl;
  std::unique_ptr<sched::JobScheduler> sched;
  std::unique_ptr<engine::CachedRdd<std::int64_t>> rdds[3];
  const JobClass* classes[3] = {&kMouse, &kElephant, &kKeeper};
  std::vector<Submission> subs;
  std::vector<engine::SplitAggSpec<std::int64_t, Vec, Vec>> specs;
  const double cluster_s = ht.time("cluster", [&] {
    cl = std::make_unique<engine::Cluster>(simulator, cluster_spec(),
                                           engine_config(traced));
    sched::SchedConfig sc;
    sc.policy = sched::PolicyId::kFairShare;
    sc.max_concurrent = 4;
    sc.max_queue = 1024;
    sc.tenant_weights = {{0, 0.5}};  // the batch tenant weighs less.
    sched = std::make_unique<sched::JobScheduler>(*cl, sc);
  });
  book_setup(r, cluster_s, ht.time("datagen", [&] {
    subs = submissions(seed);
    for (const Submission& s : subs) {
      specs.push_back(make_spec(*s.jc, s.offset, &clk));
    }
    for (int c = 0; c < 3; ++c) {
      const JobClass* jc = classes[c];
      rdds[c] = std::make_unique<engine::CachedRdd<std::int64_t>>(
          jc->parts, cl->num_executors(),
          [jc](int pid) { return partition_rows(*jc, pid); });
      rdds[c]->materialize();
    }
  }));

  auto rdd_of = [&](const JobClass* jc) -> engine::CachedRdd<std::int64_t>& {
    return *rdds[jc == &kMouse ? 0 : jc == &kElephant ? 1 : 2];
  };
  std::vector<Vec> values(subs.size());

  auto stream = [&]() -> sim::Task<void> {
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const Submission& s = subs[i];
      co_await simulator.sleep_until(s.at);
      sched::JobSpec js;
      js.tenant = s.tenant;
      js.aggregator_bytes =
          static_cast<std::uint64_t>(s.jc->dim) * sizeof(std::int64_t) *
          s.jc->scale;
      js.tasks = s.jc->parts;
      auto& rdd = rdd_of(s.jc);
      const auto& spec = specs[i];
      Vec* out = &values[i];
      engine::Cluster* c = cl.get();
      const bool tree = s.tree;
      sched->submit(js, [c, &rdd, &spec, out, tree](sched::JobContext& ctx) {
        return run_job(*c, rdd, spec, ctx.opt, out, tree);
      });
    }
    co_await sched->drain();
  };
  run_timed(simulator, stream(), r, ht);

  const auto& records = sched->records();
  sim::Time first = sim::kTimeNever, last = 0;
  std::vector<double> wait_ms, mice_ms;
  double net_bytes = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const sched::JobRecord& rec = records[i];
    ++r.attempted;
    first = std::min(first, rec.submitted);
    net_bytes += static_cast<double>(rec.net_bytes);
    if (!rec.done || rec.failed || rec.rejected != sched::Reject::kNone) {
      ++r.failed;
      continue;
    }
    last = std::max(last, rec.finished);
    const double ms = sim::to_seconds(rec.finished - rec.submitted) * 1e3;
    r.job_ms.push_back(ms);
    wait_ms.push_back(sim::to_seconds(rec.started - rec.submitted) * 1e3);
    if (rec.tenant != 0) mice_ms.push_back(ms);
  }
  r.sim_s = sim::to_seconds(last - first);
  r.modeled["sched.queue_wait_p50_ms"] = median(wait_ms);
  r.modeled["sched.job_p95_ms"] = percentile(r.job_ms, 0.95);
  r.modeled["sched.mice_p95_ms"] = percentile(mice_ms, 0.95);
  r.modeled["sched.completed"] = static_cast<double>(sched->completed());
  r.modeled["comm.net_bytes"] = net_bytes / 1e6;
  read_layers(*cl, last, r);

  ht.time("checks", [&] {
    for (std::size_t i = 0; i < records.size(); ++i) {
      const sched::JobRecord& rec = records[i];
      if (!rec.done || rec.failed) continue;
      r.check(check_identical("job " + std::to_string(i) + " vs closed form",
                              values[i],
                              closed_form(*subs[i].jc, subs[i].offset)));
    }
    for (int h = 0; h < cl->fabric().num_hosts(); ++h) {
      net::Host& host = cl->fabric().host(h);
      const double makespan = sim::to_seconds(last);
      r.check(check_at_most("host " + std::to_string(h) + " egress busy s",
                            sim::to_seconds(host.egress.total_busy()),
                            makespan));
      r.check(check_at_most("host " + std::to_string(h) + " ingress busy s",
                            sim::to_seconds(host.ingress.total_busy()),
                            makespan));
    }
  });
  r.host["bench.closure_wall_s"] = clk.closure_self_s();
  return r;
}

}  // namespace perfbench
