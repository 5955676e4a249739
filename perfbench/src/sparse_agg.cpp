// sparse-agg: repeated splitAggregate of sparse int64 updates on BIC
// (8 nodes) at a paper-scale modeled aggregator size, with algo=auto. Rows
// and aggregators are stored sparse, so host time goes to the comp codec
// and the ring rather than to dense adds in the benchmark. Two inputs:
//
//  * shared  — every row carries one seeded ~1% pattern, so the aggregator
//              stays ~1% dense from the first fold to the result;
//  * fill-in — partitions draw from 12 seeded ~14% patterns, one per
//              executor group, so partials fill in along the ring and cross
//              the 2/3 byte crossover into the dense representation.
//
// Each input is one part: its own cluster, jobs and checks.
//
// comp encode/merge/switch and the density-aware tuner do most of the work
// here; the driver and the ML closures stay idle.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "comp/sparse.hpp"
#include "engine/aggregate.hpp"
#include "layers.hpp"
#include "sim/random.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace sparker;
using AVec = comp::AdaptiveVector<std::int64_t>;
using Codec = comp::SparseCodec<std::int64_t>;

constexpr std::int64_t kDim = 1 << 18;  ///< real aggregator length.
/// Modeled dense aggregator: 2 GiB, the largest Figure 19 size.
constexpr double kModeledBytes = 2.0 * (1ull << 30);
constexpr double kBytesScale =
    kModeledBytes / static_cast<double>(kDim * sizeof(std::int64_t));
constexpr int kJobsPerInput = 6;

/// A sparse row or aggregator: sorted unique indices into [0, kDim).
struct SparseRow {
  std::vector<std::int32_t> idx;
  std::vector<std::int64_t> val;
};

/// a += b by a merge of the sorted index lists.
void merge_into(SparseRow& a, const SparseRow& b) {
  SparseRow out;
  out.idx.reserve(a.idx.size() + b.idx.size());
  out.val.reserve(a.idx.size() + b.idx.size());
  std::size_t i = 0, j = 0;
  while (i < a.idx.size() || j < b.idx.size()) {
    if (j == b.idx.size() || (i < a.idx.size() && a.idx[i] < b.idx[j])) {
      out.idx.push_back(a.idx[i]);
      out.val.push_back(a.val[i++]);
    } else if (i == a.idx.size() || b.idx[j] < a.idx[i]) {
      out.idx.push_back(b.idx[j]);
      out.val.push_back(b.val[j++]);
    } else {
      out.idx.push_back(a.idx[i]);
      out.val.push_back(a.val[i++] + b.val[j++]);
    }
  }
  a = std::move(out);
}

/// One index drawn in each `width`-wide slot of [0, kDim): a seeded pattern
/// whose density is 1/width in every ring segment alike.
std::vector<std::int32_t> stratified_pattern(int width, sim::Rng& rng) {
  std::vector<std::int32_t> idx;
  for (std::int64_t lo = 0; lo < kDim; lo += width) {
    const std::int64_t span = std::min<std::int64_t>(width, kDim - lo);
    idx.push_back(static_cast<std::int32_t>(
        lo + static_cast<std::int64_t>(
                 rng.next_below(static_cast<std::uint64_t>(span)))));
  }
  return idx;
}

/// Input make-up: `patterns` seeded patterns of density 1/width; partition
/// p holds `rows` rows on pattern p % patterns with seeded nonzero deltas.
struct Input {
  const char* name;
  int patterns;
  int width;
  int rows;
};
constexpr Input kInputs[] = {{"shared", 1, 100, 2}, {"fill-in", 12, 7, 1}};

std::vector<SparseRow> make_partition(
    const std::vector<std::vector<std::int32_t>>& patterns, const Input& in,
    std::uint64_t seed, int pid) {
  sim::Rng rng = sim::Rng(seed).split(static_cast<std::uint64_t>(pid) + 1);
  const auto& pattern = patterns[static_cast<std::size_t>(pid % in.patterns)];
  std::vector<SparseRow> rows(static_cast<std::size_t>(in.rows));
  for (SparseRow& row : rows) {
    row.idx = pattern;
    row.val.reserve(pattern.size());
    for (std::size_t k = 0; k < pattern.size(); ++k) {
      const auto d = static_cast<std::int64_t>(rng.next_below(198)) - 99;
      row.val.push_back(d >= 0 ? d + 1 : d);  // in [-99, 99] \ {0}
    }
  }
  return rows;
}

/// The split spec; every closure books its host time into `clk`.
engine::SplitAggSpec<SparseRow, SparseRow, AVec> make_spec(
    ClosureClock* clk, const net::ClusterSpec& spec) {
  engine::SplitAggSpec<SparseRow, SparseRow, AVec> s;
  s.base.seq_op = [clk](SparseRow& u, const SparseRow& row) {
    ScopedAdd t(&clk->closure_s);
    merge_into(u, row);
  };
  s.base.comb_op = s.base.seq_op;
  s.base.bytes = [clk](const SparseRow& u) {
    ScopedAdd t(&clk->closure_s);
    const auto bytes = std::min(Codec::sparse_bytes(u.idx.size()),
                                Codec::dense_bytes(kDim));
    return static_cast<std::uint64_t>(static_cast<double>(bytes) *
                                      kBytesScale);
  };
  // Folding a row costs its modeled index+value bytes at the merge rate.
  const double merge_bw = spec.rates.merge_bw;
  s.base.partition_cost = [clk, merge_bw](int,
                                          const std::vector<SparseRow>& rows) {
    ScopedAdd t(&clk->closure_s);
    double bytes = 0;
    for (const SparseRow& r : rows) {
      bytes += static_cast<double>(Codec::sparse_bytes(r.idx.size()));
    }
    return sim::transfer_time(bytes * kBytesScale, merge_bw);
  };
  s.split_op = [clk](const SparseRow& u, int seg, int nseg) {
    ScopedAdd t(&clk->closure_s);
    const std::int64_t base = kDim / nseg, rem = kDim % nseg;
    const std::int64_t lo = seg * base + std::min<std::int64_t>(seg, rem);
    const std::int64_t hi = lo + base + (seg < rem ? 1 : 0);
    std::vector<std::int64_t> dense(static_cast<std::size_t>(hi - lo), 0);
    auto it = std::lower_bound(u.idx.begin(), u.idx.end(), lo);
    for (; it != u.idx.end() && *it < hi; ++it) {
      const auto k = static_cast<std::size_t>(it - u.idx.begin());
      dense[static_cast<std::size_t>(*it - lo)] = u.val[k];
    }
    return AVec::dense(std::move(dense));
  };
  s.reduce_op = [clk](AVec& a, const AVec& b) {
    ScopedAdd t(&clk->closure_s);
    ScopedAdd m(&clk->merge_s);
    a.add(b);
  };
  s.concat_op = [clk](std::vector<std::pair<int, AVec>>& segs) {
    ScopedAdd t(&clk->closure_s);
    std::vector<std::int64_t> out;
    out.reserve(static_cast<std::size_t>(kDim));
    for (auto& [i, v] : segs) {
      std::vector<std::int64_t> d = std::move(v).to_dense();
      out.insert(out.end(), d.begin(), d.end());
    }
    return AVec::dense(std::move(out));
  };
  s.v_bytes = [clk](const AVec& v) {
    ScopedAdd t(&clk->closure_s);
    return static_cast<std::uint64_t>(
        static_cast<double>(v.serialized_bytes()) * kBytesScale);
  };
  s.density_op = [clk](const SparseRow& u) {
    ScopedAdd t(&clk->closure_s);
    return static_cast<double>(u.idx.size()) / static_cast<double>(kDim);
  };
  s.encode_op = [clk](AVec v) {
    ScopedAdd t(&clk->closure_s);
    ScopedAdd e(&clk->encode_s);
    return AVec::encode(std::move(v).to_dense());
  };
  s.is_sparse_op = [clk](const AVec& v) {
    ScopedAdd t(&clk->closure_s);
    return v.is_sparse();
  };
  return s;
}

/// The sequential fold every job must reproduce bit for bit.
std::vector<std::int64_t> sequential_fold(engine::CachedRdd<SparseRow>& rdd) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(kDim), 0);
  for (int p = 0; p < rdd.num_partitions(); ++p) {
    for (const SparseRow& row : rdd.partition(p)) {
      for (std::size_t k = 0; k < row.idx.size(); ++k) {
        out[static_cast<std::size_t>(row.idx[k])] += row.val[k];
      }
    }
  }
  return out;
}

}  // namespace

Round sparse_agg_part(std::uint64_t seed, int part, bool traced,
                      HostTrace& ht) {
  Round r;
  ClosureClock clk;
  const Input& in = kInputs[part];
  const std::uint64_t input_seed = seed * 2 + static_cast<std::uint64_t>(part);
  engine::EngineConfig cfg = base_config(traced);
  cfg.agg_mode = engine::AggMode::kSplit;
  cfg.collective_algo = comm::AlgoId::kAuto;
  const net::ClusterSpec spec = net::ClusterSpec::bic(8);
  sim::Simulator simulator;
  std::unique_ptr<engine::Cluster> cl;
  std::unique_ptr<engine::CachedRdd<SparseRow>> rdd;
  const double cluster_s = ht.time("cluster", [&] {
    cl = std::make_unique<engine::Cluster>(simulator, spec, cfg);
  });
  book_setup(r, cluster_s, ht.time("datagen", [&] {
    sim::Rng rng(input_seed);
    auto patterns = std::make_shared<std::vector<std::vector<std::int32_t>>>();
    for (int i = 0; i < in.patterns; ++i) {
      patterns->push_back(stratified_pattern(in.width, rng));
    }
    rdd = std::make_unique<engine::CachedRdd<SparseRow>>(
        spec.total_cores(), cl->num_executors(),
        [patterns, in, input_seed](int pid) {
          return make_partition(*patterns, in, input_seed, pid);
        });
    rdd->materialize();
  }));

  const auto job = make_spec(&clk, spec);
  std::vector<engine::AggMetrics> metrics(kJobsPerInput);
  auto campaign = [&]() -> sim::Task<std::vector<std::vector<std::int64_t>>> {
    std::vector<std::vector<std::int64_t>> results;
    for (int j = 0; j < kJobsPerInput; ++j) {
      AVec v = co_await engine::split_aggregate(
          *cl, *rdd, job, &metrics[static_cast<std::size_t>(j)]);
      results.push_back(std::move(v).to_dense());
    }
    co_return results;
  };
  const auto results = run_timed(simulator, campaign(), r, ht);
  r.sim_s += sim::to_seconds(simulator.now() - metrics.front().start);
  r.attempted += kJobsPerInput;
  for (const auto& m : metrics) {
    r.job_ms.push_back(sim::to_seconds(m.total()) * 1e3);
  }
  r.modeled["comm.net_bytes"] +=
      static_cast<double>(cl->scalable_comm().total_bytes_delivered()) / 1e6;
  read_layers(*cl, simulator.now(), r);
  std::string picks;
  for (comm::AlgoId a :
       comm::registered_algos(comm::CollectiveOp::kReduceScatter)) {
    const std::string name = comm::to_string(a);
    const auto n = cl->metrics().counter_value("agg.collective." + name);
    if (n > 0) picks += " " + name + " x" + std::to_string(n);
  }
  r.notes.push_back(std::string(in.name) + ": tuner picked" + picks);

  ht.time("checks", [&] {
    const std::vector<std::int64_t> want = sequential_fold(*rdd);
    for (std::size_t j = 0; j < results.size(); ++j) {
      r.check(check_identical(std::string(in.name) + " job " +
                                  std::to_string(j) + " vs sequential fold",
                              results[j], want));
    }
  });
  r.host["comp.encode_wall_s"] = clk.encode_s;
  r.host["comp.merge_wall_s"] = clk.merge_s;
  r.host["bench.closure_wall_s"] = clk.closure_self_s();
  return r;
}

}  // namespace perfbench
