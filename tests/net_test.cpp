// Tests for the network fabric model: latency composition, stream-rate caps,
// NIC contention and incast, loopback, GC pauses, and FIFO delivery.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/cluster.hpp"
#include "net/connection.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"

namespace sparker::net {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::Task;
using sim::Time;

FabricParams quiet_fabric() {
  FabricParams p;
  p.host.nic_bw = 1000e6;    // 1 GB/s
  p.host.loopback_bw = 8e9;  // 8 GB/s
  p.inter_latency = sim::microseconds(10);
  p.intra_latency = sim::microseconds(1);
  p.gc.enabled = false;
  return p;
}

LinkParams plain_link(double stream_bw = 400e6) {
  LinkParams l;
  l.stream_bw = stream_bw;
  l.send_overhead = sim::microseconds(5);
  l.recv_overhead = sim::microseconds(5);
  l.per_chunk_cpu = 0;
  l.jvm = false;
  return l;
}

// Sends one message and returns its delivery time.
Time deliver_one(Fabric& fabric, Connection& c, std::uint64_t bytes) {
  Simulator& sim = fabric.simulator();
  Message m;
  m.bytes = bytes;
  c.post(m);
  auto recv = [](Connection& conn, Simulator& s) -> Task<Time> {
    (void)co_await conn.inbox().recv();
    co_return s.now();
  };
  return sim.run_task(recv(c, sim));
}

TEST(Connection, SmallMessageLatencyIsOverheadPlusPropagation) {
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection c(fabric, 0, 1, plain_link());
  const Time t = deliver_one(fabric, c, 8);
  // send_overhead(5us) + nic service (~8ns) + latency(10us) + ingress (~8ns)
  // + recv_overhead(5us) ~= 20us.
  EXPECT_GE(t, sim::microseconds(20));
  EXPECT_LE(t, sim::microseconds(21));
}

TEST(Connection, SingleStreamThroughputIsCapped) {
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection c(fabric, 0, 1, plain_link(400e6));
  const std::uint64_t bytes = 64ull << 20;  // 64 MB
  const Time t = deliver_one(fabric, c, bytes);
  const double rate = static_cast<double>(bytes) / sim::to_seconds(t);
  // Stream cap 400 MB/s on a 1 GB/s NIC: the stream is the bottleneck.
  EXPECT_NEAR(rate, 400e6, 20e6);
}

TEST(Connection, ParallelStreamsAggregateUpToNic) {
  // 4 x 400 MB/s streams on a 1 GB/s NIC must aggregate to ~1 GB/s.
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < 4; ++i) {
    conns.push_back(std::make_unique<Connection>(fabric, 0, 1, plain_link()));
  }
  const std::uint64_t bytes = 16ull << 20;  // 16 MB each, 64 MB total
  for (auto& c : conns) {
    Message m;
    m.bytes = bytes;
    c->post(m);
  }
  auto recv_all = [](std::vector<std::unique_ptr<Connection>>& cs,
                     Simulator& s) -> Task<Time> {
    for (auto& c : cs) (void)co_await c->inbox().recv();
    co_return s.now();
  };
  const Time t = sim.run_task(recv_all(conns, sim));
  const double rate = 4.0 * static_cast<double>(bytes) / sim::to_seconds(t);
  EXPECT_NEAR(rate, 1000e6, 60e6);
}

TEST(Connection, TwoStreamsDoNotExceedTwiceStreamRate) {
  // 2 x 400 MB/s on a 1 GB/s NIC: ~800 MB/s aggregate (stream-bound).
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection a(fabric, 0, 1, plain_link());
  Connection b(fabric, 0, 1, plain_link());
  const std::uint64_t bytes = 16ull << 20;
  Message m;
  m.bytes = bytes;
  a.post(m);
  b.post(m);
  auto recv_both = [](Connection& x, Connection& y,
                      Simulator& s) -> Task<Time> {
    (void)co_await x.inbox().recv();
    (void)co_await y.inbox().recv();
    co_return s.now();
  };
  const Time t = sim.run_task(recv_both(a, b, sim));
  const double rate = 2.0 * static_cast<double>(bytes) / sim::to_seconds(t);
  EXPECT_NEAR(rate, 800e6, 40e6);
}

TEST(Connection, IncastSharesReceiverIngress) {
  // 4 senders on distinct hosts -> one receiver: receiver NIC (1 GB/s) is
  // the bottleneck even though each sender could do 400 MB/s.
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 5);
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 1; i <= 4; ++i) {
    conns.push_back(std::make_unique<Connection>(fabric, i, 0, plain_link()));
  }
  const std::uint64_t bytes = 16ull << 20;
  for (auto& c : conns) {
    Message m;
    m.bytes = bytes;
    c->post(m);
  }
  auto recv_all = [](std::vector<std::unique_ptr<Connection>>& cs,
                     Simulator& s) -> Task<Time> {
    for (auto& c : cs) (void)co_await c->inbox().recv();
    co_return s.now();
  };
  const Time t = sim.run_task(recv_all(conns, sim));
  const double rate = 4.0 * static_cast<double>(bytes) / sim::to_seconds(t);
  EXPECT_NEAR(rate, 1000e6, 60e6);
}

TEST(Connection, LoopbackBypassesNicAndIsFast) {
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection local(fabric, 0, 0, plain_link());
  const std::uint64_t bytes = 64ull << 20;
  const Time t = deliver_one(fabric, local, bytes);
  const double rate = static_cast<double>(bytes) / sim::to_seconds(t);
  EXPECT_NEAR(rate, 8e9, 0.5e9);
  // NIC servers untouched.
  EXPECT_EQ(fabric.host(0).egress.jobs(), 0u);
  EXPECT_EQ(fabric.host(0).ingress.jobs(), 0u);
}

// One loopback hop in closed form: send overhead, intra-host latency, the
// memory copy, receive overhead.
Duration loopback_hop(const FabricParams& p, const LinkParams& l,
                      std::uint64_t bytes) {
  return l.send_overhead + p.intra_latency +
         sim::transfer_time(static_cast<double>(bytes), p.host.loopback_bw) +
         l.recv_overhead;
}

// Drains `n` messages from a connection, recording each delivery time.
Task<std::vector<Time>> delivery_times(Connection& c, Simulator& s, int n) {
  std::vector<Time> at;
  for (int i = 0; i < n; ++i) {
    (void)co_await c.inbox().recv();
    at.push_back(s.now());
  }
  co_return at;
}

TEST(Connection, LoopbackBurstIsDeliveredInClosedForm) {
  constexpr int kMsgs = 16;
  constexpr std::uint64_t kBytes = 1 << 20;
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection local(fabric, 0, 0, plain_link());
  for (int i = 0; i < kMsgs; ++i) {
    Message m;
    m.tag = i;
    m.bytes = kBytes;
    local.post(m);
  }
  const auto at = sim.run_task(delivery_times(local, sim, kMsgs));
  const Duration hop = loopback_hop(quiet_fabric(), plain_link(), kBytes);
  for (int k = 0; k < kMsgs; ++k) {
    EXPECT_EQ(at[static_cast<std::size_t>(k)], (k + 1) * hop) << "hop " << k;
  }
  EXPECT_EQ(local.bytes_delivered(), kMsgs * kBytes);
}

TEST(Connection, LoopbackBurstCostsOneKernelEventPerMessage) {
  // No receiver is parked on the inbox, so every kernel event the run
  // processes belongs to the connection itself.
  constexpr int kMsgs = 64;
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 1);
  Connection local(fabric, 0, 0, plain_link());
  for (int i = 0; i < kMsgs; ++i) {
    Message m;
    m.bytes = 4096 * static_cast<std::uint64_t>(i + 1);
    local.post(m);
  }
  EXPECT_EQ(sim.run(), static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(local.inbox().size(), static_cast<std::size_t>(kMsgs));
}

TEST(Connection, LoopbackFutureReadyQueuesFifoBehindEarlierHops) {
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 1);
  Connection local(fabric, 0, 0, plain_link());
  const Duration hop = loopback_hop(quiet_fabric(), plain_link(), 0);
  Message m;
  m.tag = 0;
  local.post(m);                   // copies over [0, hop]
  m.tag = 1;
  local.post_at(hop / 2, m);       // ready while tag 0 is in flight
  m.tag = 2;
  local.post_at(10 * hop, m);      // the link is idle again by then
  m.tag = 3;
  local.post_at(hop, m);           // ready earlier than tag 2: stays behind
  auto recv_all = [](Connection& c,
                     Simulator& s) -> Task<std::vector<std::pair<int, Time>>> {
    std::vector<std::pair<int, Time>> got;
    for (int i = 0; i < 4; ++i) {
      Message r = co_await c.inbox().recv();
      got.emplace_back(r.tag, s.now());
    }
    co_return got;
  };
  const auto got = sim.run_task(recv_all(local, sim));
  const std::vector<std::pair<int, Time>> want = {
      {0, hop}, {1, 2 * hop}, {2, 11 * hop}, {3, 12 * hop}};
  EXPECT_EQ(got, want);
}

TEST(Connection, RemoteFlowsOnTheNicDoNotDelayLoopback) {
  // Two paced remote flows saturate host 0's egress while a loopback burst
  // runs on the same host: loopback never touches the NIC servers.
  constexpr int kMsgs = 8;
  constexpr std::uint64_t kBytes = 256 * 1024;
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection out_a(fabric, 0, 1, plain_link());
  Connection out_b(fabric, 0, 1, plain_link());
  Connection local(fabric, 0, 0, plain_link());
  Message big;
  big.bytes = 16ull << 20;
  out_a.post(big);
  out_b.post(big);
  for (int i = 0; i < kMsgs; ++i) {
    Message m;
    m.bytes = kBytes;
    local.post(m);
  }
  const auto at = sim.run_task(delivery_times(local, sim, kMsgs));
  const Duration hop = loopback_hop(quiet_fabric(), plain_link(), kBytes);
  for (int k = 0; k < kMsgs; ++k) {
    EXPECT_EQ(at[static_cast<std::size_t>(k)], (k + 1) * hop) << "hop " << k;
  }
  sim.run();
  EXPECT_EQ(out_a.bytes_delivered() + out_b.bytes_delivered(), 2 * big.bytes);
  EXPECT_GT(sim.now(), at.back());  // the remote flows really overlapped
}

TEST(Connection, MessagesOnOneConnectionAreFifo) {
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection c(fabric, 0, 1, plain_link());
  for (int i = 0; i < 8; ++i) {
    Message m;
    m.tag = i;
    m.bytes = 1024 * static_cast<std::uint64_t>(8 - i);  // varied sizes
    c.post(m);
  }
  auto recv_all = [](Connection& conn) -> Task<std::vector<int>> {
    std::vector<int> tags;
    for (int i = 0; i < 8; ++i) {
      Message m = co_await conn.inbox().recv();
      tags.push_back(m.tag);
    }
    co_return tags;
  };
  auto tags = sim.run_task(recv_all(c));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(tags[static_cast<std::size_t>(i)], i);
}

TEST(Connection, ZeroByteMessageStillDelivers) {
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection c(fabric, 0, 1, plain_link());
  const Time t = deliver_one(fabric, c, 0);
  EXPECT_GT(t, 0u);
  EXPECT_LT(t, sim::microseconds(25));
}

TEST(Fabric, GcPauseStallsNic) {
  FabricParams p = quiet_fabric();
  p.gc.enabled = true;
  p.gc.bytes_threshold = 8e6;  // very low threshold to trigger quickly
  p.gc.pause = sim::milliseconds(10);
  Simulator sim;
  Fabric fabric(sim, p, 2);
  LinkParams l = plain_link();
  l.jvm = true;
  Connection c(fabric, 0, 1, l);
  const std::uint64_t bytes = 32ull << 20;
  const Time with_gc = deliver_one(fabric, c, bytes);

  // Same transfer with GC disabled.
  Simulator sim2;
  Fabric fabric2(sim2, quiet_fabric(), 2);
  Connection c2(fabric2, 0, 1, l);
  const Time without_gc = deliver_one(fabric2, c2, bytes);

  EXPECT_GT(with_gc, without_gc + sim::milliseconds(20));
}

TEST(Fabric, NonJvmLinksIgnoreGc) {
  FabricParams p = quiet_fabric();
  p.gc.enabled = true;
  p.gc.bytes_threshold = 1e6;
  p.gc.pause = sim::milliseconds(50);
  Simulator sim;
  Fabric fabric(sim, p, 2);
  LinkParams l = plain_link();
  l.jvm = false;
  Connection c(fabric, 0, 1, l);
  const std::uint64_t bytes = 8ull << 20;
  const Time t = deliver_one(fabric, c, bytes);
  // ~20 ms at 400 MB/s; no pauses.
  EXPECT_LT(t, sim::milliseconds(25));
}

TEST(ClusterSpec, PresetsMatchTable1) {
  const auto bic = ClusterSpec::bic();
  EXPECT_EQ(bic.num_nodes, 8);
  EXPECT_EQ(bic.executors_per_node, 6);
  EXPECT_EQ(bic.cores_per_executor, 4);
  EXPECT_EQ(bic.total_executors(), 48);
  EXPECT_EQ(bic.total_cores(), 192);

  const auto aws = ClusterSpec::aws();
  EXPECT_EQ(aws.num_nodes, 10);
  EXPECT_EQ(aws.executors_per_node, 12);
  EXPECT_EQ(aws.cores_per_executor, 8);
  EXPECT_EQ(aws.total_cores(), 960);
}

TEST(ClusterSpec, BicLatencyCalibration) {
  // One-way small-message latencies should match Figure 12 closely.
  const auto spec = ClusterSpec::bic();
  Simulator sim;
  Fabric fabric(sim, spec.fabric, 2);
  {
    Connection mpi(fabric, 0, 1, spec.mpi_link);
    const Time t = deliver_one(fabric, mpi, 8);
    EXPECT_NEAR(sim::to_micros(t), 15.94, 2.0);
  }
}

TEST(ClusterSpec, BicScLatencyCalibration) {
  const auto spec = ClusterSpec::bic();
  Simulator sim;
  Fabric fabric(sim, spec.fabric, 2);
  Connection sc(fabric, 0, 1, spec.sc_link);
  const Time t = deliver_one(fabric, sc, 8);
  EXPECT_NEAR(sim::to_micros(t), 72.73, 5.0);
}

TEST(ClusterSpec, BicBmLatencyCalibration) {
  const auto spec = ClusterSpec::bic();
  Simulator sim;
  Fabric fabric(sim, spec.fabric, 2);
  Connection bm(fabric, 0, 1, spec.bm_link);
  const Time t = deliver_one(fabric, bm, 8);
  EXPECT_NEAR(sim::to_micros(t), 3861.25, 80.0);
}

}  // namespace
}  // namespace sparker::net
