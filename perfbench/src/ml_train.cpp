// ml-train: the Figure 17 comparison on the AWS preset. SVM-K and LDA-N
// train for 10 iterations each under treeAggregate (Spark) and under
// splitAggregate with the paper's P-channel ring (Sparker), one part each.
// This is the paper's headline result; it loads the sim kernel, NIC pacing,
// the driver loop, the EM closures and corpus generation, and leaves comp
// and sched idle.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "data/presets.hpp"
#include "layers.hpp"
#include "ml/lda.hpp"
#include "ml/train.hpp"
#include "ml/workload.hpp"
#include "obs/export.hpp"
#include "sim/random.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace sparker;

constexpr int kIterations = 10;
/// Loss and log-likelihood agreement between the program, the replay, and
/// tree vs split: the fold orders differ, so only rounding may separate them.
constexpr double kRelTol = 1e-9;

/// The seed picks the data and moves each preset's modeled row count by up
/// to +-0.5%, so modeled times are a function of the generated input and
/// not one constant for every seed.
data::DatasetPreset jittered(const data::DatasetPreset& base,
                             sim::Rng& rng) {
  data::DatasetPreset p = base;
  const double f = 1.0 + 0.01 * (rng.next_double() - 0.5);
  p.samples = static_cast<std::int64_t>(
      std::llround(static_cast<double>(base.samples) * f));
  return p;
}

/// The benchmark's own SVM trainer: a sequential hinge-subgradient fold
/// over the generated partitions plus MLlib's SGD update, written apart
/// from ml/gradient.hpp and ml/optimizer.hpp. Returns the per-iteration
/// objective train_linear reports.
std::vector<double> svm_replay(engine::CachedRdd<ml::LabeledPoint>& rdd,
                               std::int64_t dim, int iterations,
                               double step_size, double reg) {
  std::vector<double> w(static_cast<std::size_t>(dim), 0.0);
  std::vector<double> losses;
  for (int iter = 1; iter <= iterations; ++iter) {
    std::vector<double> grad(w.size(), 0.0);
    double loss_sum = 0, count = 0;
    for (int p = 0; p < rdd.num_partitions(); ++p) {
      for (const ml::LabeledPoint& pt : rdd.partition(p)) {
        const auto& x = pt.features;
        double margin = 0;
        for (std::size_t k = 0; k < x.indices.size(); ++k) {
          const auto i = static_cast<std::size_t>(x.indices[k]);
          if (i < w.size()) margin += w[i] * x.values[k];
        }
        const double y = pt.label > 0 ? 1.0 : -1.0;
        const double hinge = 1.0 - y * margin;
        if (hinge > 0) {
          for (std::size_t k = 0; k < x.indices.size(); ++k) {
            const auto i = static_cast<std::size_t>(x.indices[k]);
            if (i < grad.size()) grad[i] -= y * x.values[k];
          }
          loss_sum += hinge;
        }
        count += 1;
      }
    }
    const double n = std::max(1.0, count);
    double ww = 0;
    for (double v : w) ww += v * v;
    losses.push_back(loss_sum / n + 0.5 * reg * ww);
    const double step = step_size / std::sqrt(static_cast<double>(iter));
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] -= step * (grad[i] / n + reg * w[i]);
    }
  }
  return losses;
}

/// The benchmark's own EM for LDA: the same E-step fixed point and M-step
/// as MLlib's EM optimizer, folded sequentially over the generated
/// partitions, written apart from ml/lda.hpp. The initial topic-word matrix
/// is the program's documented start (uniform rows perturbed from
/// Rng(0xbe7abe7a)). Returns the log-likelihood of every iteration.
std::vector<double> lda_replay(engine::CachedRdd<data::Document>& rdd,
                               int topics, std::int64_t vocab, int iterations,
                               int inner, double alpha, double eta) {
  const auto k_n = static_cast<std::size_t>(topics);
  const auto v_n = static_cast<std::size_t>(vocab);
  std::vector<double> beta(k_n * v_n);
  sim::Rng init(0xbe7abe7aull);
  for (std::size_t k = 0; k < k_n; ++k) {
    double sum = 0;
    for (std::size_t w = 0; w < v_n; ++w) {
      beta[k * v_n + w] = 1.0 + 0.1 * init.next_double();
      sum += beta[k * v_n + w];
    }
    for (std::size_t w = 0; w < v_n; ++w) beta[k * v_n + w] /= sum;
  }
  std::vector<double> logliks;
  std::vector<double> theta(k_n), next(k_n), resp(k_n);
  for (int iter = 0; iter < iterations; ++iter) {
    std::vector<double> counts(k_n * v_n, 0.0);
    double loglik = 0;
    // Responsibilities of word w under theta; returns their normalizer.
    auto responsibilities = [&](std::size_t w) {
      double norm = 0;
      for (std::size_t k = 0; k < k_n; ++k) {
        resp[k] = theta[k] * beta[k * v_n + w];
        norm += resp[k];
      }
      return norm;
    };
    for (int p = 0; p < rdd.num_partitions(); ++p) {
      for (const data::Document& doc : rdd.partition(p)) {
        std::fill(theta.begin(), theta.end(), 1.0 / topics);
        for (int it = 0; it < inner; ++it) {
          std::fill(next.begin(), next.end(), alpha);
          for (std::size_t t = 0; t < doc.word_ids.size(); ++t) {
            const double norm =
                responsibilities(static_cast<std::size_t>(doc.word_ids[t]));
            if (norm <= 0) continue;
            for (std::size_t k = 0; k < k_n; ++k) {
              next[k] += doc.counts[t] * resp[k] / norm;
            }
          }
          double total = 0;
          for (double x : next) total += x;
          for (std::size_t k = 0; k < k_n; ++k) theta[k] = next[k] / total;
        }
        for (std::size_t t = 0; t < doc.word_ids.size(); ++t) {
          const auto w = static_cast<std::size_t>(doc.word_ids[t]);
          const double norm = responsibilities(w);
          if (norm <= 0) continue;
          for (std::size_t k = 0; k < k_n; ++k) {
            counts[k * v_n + w] += doc.counts[t] * resp[k] / norm;
          }
          loglik += doc.counts[t] * std::log(norm);
        }
      }
    }
    logliks.push_back(loglik);
    for (std::size_t k = 0; k < k_n; ++k) {
      double sum = 0;
      for (std::size_t w = 0; w < v_n; ++w) sum += counts[k * v_n + w] + eta;
      for (std::size_t w = 0; w < v_n; ++w) {
        beta[k * v_n + w] = (counts[k * v_n + w] + eta) / sum;
      }
    }
  }
  return logliks;
}

struct ModeRun {
  std::vector<double> history;  ///< SVM loss or LDA log-likelihood.
  ml::TimeBreakdown breakdown;
  double sim_s = 0;  ///< modeled training time.
};

/// Adds a TimeBreakdown under engine.<mode>.*, and checks it against the
/// trace's phase spans when the run was traced.
void add_breakdown(const char* mode, const ml::TimeBreakdown& b,
                   engine::Cluster& cl, Round& r) {
  const std::string p = std::string("engine.") + mode + ".";
  r.modeled[p + "driver_s"] += sim::to_seconds(b.driver);
  r.modeled[p + "non_agg_s"] += sim::to_seconds(b.non_agg);
  r.modeled[p + "broadcast_s"] += sim::to_seconds(b.broadcast);
  r.modeled[p + "agg_compute_s"] += sim::to_seconds(b.agg_compute);
  r.modeled[p + "agg_reduce_s"] += sim::to_seconds(b.agg_reduce);
  if (!cl.trace().enabled()) return;
  const obs::PhaseBreakdown t = obs::phase_breakdown(cl.trace());
  const std::vector<double> got = {
      static_cast<double>(t.driver), static_cast<double>(t.non_agg),
      static_cast<double>(t.broadcast), static_cast<double>(t.agg_compute),
      static_cast<double>(t.agg_reduce)};
  const std::vector<double> want = {
      static_cast<double>(b.driver), static_cast<double>(b.non_agg),
      static_cast<double>(b.broadcast), static_cast<double>(b.agg_compute),
      static_cast<double>(b.agg_reduce)};
  r.check(check_identical(p + "phase_breakdown vs TimeBreakdown", got, want));
}

/// Modeled duration of every aggregation job the cluster ran (the engine's
/// per-job metric series; solo jobs never queue).
void add_job_durations(engine::Cluster& cl, Round& r) {
  const std::int64_t jobs = cl.metrics().counter_value("agg.jobs");
  r.attempted += jobs;
  for (std::int64_t j = 0; j < jobs; ++j) {
    const std::int64_t ns = cl.metrics().counter_value(
        "job." + std::to_string(j) + ".duration_ns");
    if (ns > 0) {
      r.job_ms.push_back(static_cast<double>(ns) / 1e6);
    } else {
      ++r.failed;
    }
  }
}

template <typename Rdd, typename MakeRdd, typename Train>
ModeRun run_mode(engine::AggMode mode, bool traced, MakeRdd make_rdd,
                 Train train, Round& r, HostTrace& ht) {
  engine::EngineConfig cfg = base_config(traced);
  cfg.agg_mode = mode;
  cfg.collective_algo = comm::AlgoId::kRing;
  cfg.per_job_metrics = true;
  sim::Simulator simulator;
  std::unique_ptr<engine::Cluster> cl;
  std::unique_ptr<Rdd> rdd;
  const double cluster_s = ht.time("cluster", [&] {
    cl = std::make_unique<engine::Cluster>(simulator,
                                           net::ClusterSpec::aws(10), cfg);
  });
  book_setup(r, cluster_s, ht.time("datagen", [&] {
    rdd = make_rdd(cl->spec().total_cores(), cl->num_executors());
    rdd->materialize();
  }));
  ModeRun out = run_timed(simulator, train(*cl, *rdd), r, ht);
  out.sim_s = sim::to_seconds(simulator.now());
  r.sim_s += out.sim_s;
  const char* name = mode == engine::AggMode::kSplit ? "split" : "tree";
  add_breakdown(name, out.breakdown, *cl, r);
  add_job_durations(*cl, r);
  if (mode == engine::AggMode::kSplit) {
    r.modeled["comm.net_bytes"] +=
        static_cast<double>(cl->scalable_comm().total_bytes_delivered()) / 1e6;
  }
  read_layers(*cl, simulator.now(), r);
  return out;
}

}  // namespace

Round ml_train_part(std::uint64_t seed, int part, bool traced,
                    HostTrace& ht) {
  Round r;
  sim::Rng rng(seed);
  const data::DatasetPreset svm_data = jittered(data::kdd10(), rng);
  const data::DatasetPreset lda_data = jittered(data::nytimes(), rng);
  const bool lda = part >= 2;
  const engine::AggMode mode =
      part % 2 == 0 ? engine::AggMode::kTree : engine::AggMode::kSplit;
  const std::string name = std::string(lda ? "LDA-N " : "SVM-K ") +
                           engine::to_string(mode);

  ModeRun run;
  std::vector<double> replay;
  if (!lda) {
    ml::TrainConfig cfg;  // SVM-K, Table 3.
    cfg.model = ml::ModelKind::kSvm;
    cfg.iterations = kIterations;
    cfg.reg_param = 0.01;
    cfg.step_size = 1.0;
    run = run_mode<engine::CachedRdd<ml::LabeledPoint>>(
        mode, traced,
        [&](int parts, int execs) {
          return ml::make_classification_rdd(svm_data, parts, execs, seed);
        },
        [&](engine::Cluster& cl, engine::CachedRdd<ml::LabeledPoint>& rdd)
            -> sim::Task<ModeRun> {
          ml::TrainResult t = co_await ml::train_linear(cl, rdd, svm_data, cfg);
          co_return ModeRun{std::move(t.loss_history), t.breakdown};
        },
        r, ht);
    ht.time("checks", [&] {
      const net::ClusterSpec spec = net::ClusterSpec::aws(10);
      auto rdd = ml::make_classification_rdd(
          svm_data, spec.total_cores(), spec.total_executors(), seed);
      replay = svm_replay(*rdd, svm_data.real_features, kIterations,
                          cfg.step_size, cfg.reg_param);
      r.check(check_exact(name + " first hinge loss",
                          run.history.empty() ? 0.0 : run.history[0], 1.0));
    });
  } else {
    ml::LdaConfig cfg;  // LDA-N, Table 3.
    cfg.iterations = kIterations;
    run = run_mode<engine::CachedRdd<data::Document>>(
        mode, traced,
        [&](int parts, int execs) {
          return ml::make_corpus_rdd(lda_data, parts, execs, seed);
        },
        [&](engine::Cluster& cl, engine::CachedRdd<data::Document>& rdd)
            -> sim::Task<ModeRun> {
          ml::LdaResult t = co_await ml::train_lda(cl, rdd, lda_data, cfg);
          co_return ModeRun{std::move(t.loglik_history), t.breakdown};
        },
        r, ht);
    ht.time("checks", [&] {
      const net::ClusterSpec spec = net::ClusterSpec::aws(10);
      auto rdd = ml::make_corpus_rdd(lda_data, spec.total_cores(),
                                     spec.total_executors(), seed);
      replay = lda_replay(*rdd, cfg.num_topics_real, lda_data.real_features,
                          kIterations, cfg.e_step_inner, cfg.alpha, cfg.eta);
      r.check(check_non_decreasing(name + " log-likelihood", run.history));
    });
  }
  // Both modes match one replay, so tree and split agree to twice kRelTol.
  r.check(check_rel_close(name + " vs sequential replay", run.history, replay,
                          kRelTol));

  char note[128];
  std::snprintf(note, sizeof note, "%s: %.6f modeled s", name.c_str(),
                run.sim_s);
  r.notes.push_back(note);
  r.modeled["ml.iterations"] = static_cast<double>(run.history.size());
  if (mode == engine::AggMode::kSplit && !run.history.empty()) {
    r.modeled[lda ? "ml.final_loglik" : "ml.final_loss"] = run.history.back();
  }
  return r;
}

}  // namespace perfbench
