#pragma once

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "checks.hpp"
#include "comm/registry.hpp"
#include "engine/cluster.hpp"
#include "obs/export.hpp"
#include "report.hpp"
#include "sim/simulator.hpp"

/// \file layers.hpp
/// Reads the per-layer metrics of one finished simulation from the
/// program's public counters and, when the cluster was traced, from its
/// trace. Values of several simulations in a round add up; utilizations
/// take the maximum.

namespace perfbench {

/// Engine config every workload starts from. Traced rounds keep the
/// per-message network spans, because comm.ring_blocked_s is read from the
/// ring's ring.recv waits in them, and leave out only the kernel's
/// queue-depth counters (sim_counters), which would dominate the trace's
/// size without feeding any metric.
inline sparker::engine::EngineConfig base_config(bool traced) {
  sparker::engine::EngineConfig cfg;
  cfg.trace.enabled = traced;
  cfg.trace.net = true;
  cfg.trace.sim_counters = false;
  return cfg;
}

/// Books one set-up into the round: cluster construction plus input
/// generation, and the generation alone as data.gen_wall_s.
inline void book_setup(Round& r, double cluster_s, double gen_s) {
  r.setup_s += cluster_s + gen_s;
  r.host["data.gen_wall_s"] += gen_s;
}

/// Runs `task` to completion on `sim` and books its host time and kernel
/// events into the round.
template <typename T>
T run_timed(sparker::sim::Simulator& sim, sparker::sim::Task<T> task,
            Round& r, HostTrace& ht) {
  const std::uint64_t events0 = sim.events_processed();
  auto book = [&] {
    r.modeled["sim.events"] +=
        static_cast<double>(sim.events_processed() - events0);
  };
  if constexpr (std::is_void_v<T>) {
    r.wall_s += ht.time("run_task", [&] { sim.run_task(std::move(task)); });
    book();
  } else {
    std::optional<T> out;
    r.wall_s += ht.time("run_task",
                        [&] { out.emplace(sim.run_task(std::move(task))); });
    book();
    return std::move(*out);
  }
}

/// Adds the layers of `cl` over a simulation that lasted `makespan`.
inline void read_layers(sparker::engine::Cluster& cl,
                        sparker::sim::Duration makespan, Round& r) {
  using namespace sparker;
  auto& m = r.modeled;
  const double span_s = sim::to_seconds(makespan);

  double nic_busy = 0, max_util = 0;
  for (int h = 0; h < cl.fabric().num_hosts(); ++h) {
    net::Host& host = cl.fabric().host(h);
    for (const sim::FifoServer* q : {&host.egress, &host.ingress}) {
      const double busy = sim::to_seconds(q->total_busy());
      nic_busy += busy;
      if (span_s > 0) max_util = std::max(max_util, busy / span_s);
    }
  }
  m["net.nic_busy_s"] += nic_busy;
  m["net.driver_ingress_busy_s"] += sim::to_seconds(
      cl.fabric().host(cl.driver_host()).ingress.total_busy());
  m["net.max_nic_util"] = std::max(m["net.max_nic_util"], max_util);

  const obs::MetricsRegistry& reg = cl.metrics();
  for (comm::AlgoId a :
       comm::registered_algos(comm::CollectiveOp::kReduceScatter)) {
    m[std::string("comm.collectives.") + comm::to_string(a)] +=
        static_cast<double>(reg.counter_value(std::string("agg.collective.") +
                                              comm::to_string(a)));
  }
  m["engine.driver_busy_s"] += sim::to_seconds(cl.driver_loop().total_busy());
  m["engine.task_retries"] +=
      static_cast<double>(reg.counter_value("agg.task_retries"));
  m["engine.stage_restarts"] +=
      static_cast<double>(reg.counter_value("agg.stage_restarts"));
  m["engine.spec_launches"] +=
      static_cast<double>(reg.counter_value("agg.speculative_launches"));
  m["engine.spec_wins"] +=
      static_cast<double>(reg.counter_value("agg.speculative_wins"));
  m["engine.recovery_s"] +=
      static_cast<double>(reg.counter_value("agg.recovery_time_ns")) / 1e9;
  if (const obs::Histogram* h =
          reg.find_histogram("health.detection_latency_ns")) {
    m["engine.detection_latency_ms"] += h->mean() / 1e6;
  }

  const obs::TraceSink& sink = cl.trace();
  if (!sink.enabled()) return;
  auto& t = r.traced;
  const obs::DetailReport detail = obs::detail_report(sink);
  t["ser.sim_s"] += sim::to_seconds(detail.total.ser);
  t["comp.sim_s"] += sim::to_seconds(detail.total.comp);
  double blocked = 0;
  for (const auto& e : obs::flame_report(sink).executors) {
    blocked += sim::to_seconds(e.blocked);
  }
  t["comm.ring_blocked_s"] += blocked;
  double switches = 0;
  for (const obs::TraceEvent& ev : sink.events()) {
    if (ev.kind == obs::EventKind::kInstant &&
        std::strcmp(ev.name, "comp.switch") == 0) {
      ++switches;
    }
  }
  t["comp.switches"] += switches;
  t["engine.time_to_stable_ms"] +=
      sim::to_seconds(obs::membership_report(sink).max_time_to_stable) * 1e3;
  t["obs.trace_records"] += static_cast<double>(sink.size());

  const obs::SinkLintResult lint = obs::lint(sink);
  if (!lint.ok()) {
    r.check("trace lint: " + std::to_string(lint.open_spans) +
            " open spans, " + std::to_string(lint.negative_durations) +
            " negative durations, " +
            std::to_string(lint.collective_spans_missing_algo) +
            " collective spans without algo");
  }
  const obs::FileLintResult file =
      obs::lint_chrome_trace_text(obs::chrome_trace_json(sink));
  if (!file.ok()) {
    r.check("exported trace lint: " +
            (file.parsed ? std::to_string(file.unclosed) + " unclosed, " +
                               std::to_string(file.negative_durations) +
                               " negative durations"
                         : file.error));
  }
}

}  // namespace perfbench
