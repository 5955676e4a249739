#include "data/generators.hpp"

#include <algorithm>
#include <cmath>

namespace sparker::data {

using sim::Rng;

PlantedModel make_planted_model(const DatasetPreset& preset,
                                std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  PlantedModel m;
  m.weights.resize(static_cast<std::size_t>(preset.real_features));
  for (auto& w : m.weights) w = rng.next_gaussian();
  m.noise = 0.05;
  return m;
}

std::vector<ml::LabeledPoint> generate_classification_partition(
    const DatasetPreset& preset, const PlantedModel& model, int partition,
    std::int64_t count, std::uint64_t seed) {
  Rng rng = Rng(seed).split(static_cast<std::uint64_t>(partition) + 1);
  std::vector<ml::LabeledPoint> rows;
  rows.reserve(static_cast<std::size_t>(count));
  const auto dim = preset.real_features;
  for (std::int64_t i = 0; i < count; ++i) {
    ml::LabeledPoint p;
    p.features.dim = dim;
    const int nnz = preset.real_nnz;
    p.features.indices.reserve(static_cast<std::size_t>(nnz));
    p.features.values.reserve(static_cast<std::size_t>(nnz));
    // Uniform distinct indices (sorted); dim >> nnz so rejection is cheap.
    while (static_cast<int>(p.features.indices.size()) < nnz) {
      const auto idx = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(dim)));
      if (std::find(p.features.indices.begin(), p.features.indices.end(),
                    idx) == p.features.indices.end()) {
        p.features.indices.push_back(idx);
      }
    }
    std::sort(p.features.indices.begin(), p.features.indices.end());
    for (int k = 0; k < nnz; ++k) {
      p.features.values.push_back(rng.next_gaussian());
    }
    const double margin = ml::dot(model.weights, p.features);
    bool positive = margin > 0.0;
    if (rng.bernoulli(model.noise)) positive = !positive;
    p.label = positive ? 1.0 : 0.0;
    rows.push_back(std::move(p));
  }
  return rows;
}

PlantedTopics make_planted_topics(const DatasetPreset& preset, int num_topics,
                                  std::uint64_t seed) {
  Rng rng(seed ^ 0xabcdef1234567890ull);
  PlantedTopics t;
  t.num_topics = num_topics;
  const auto v = static_cast<std::size_t>(preset.real_features);
  t.topic_word.resize(static_cast<std::size_t>(num_topics));
  for (int k = 0; k < num_topics; ++k) {
    auto& dist = t.topic_word[static_cast<std::size_t>(k)];
    dist.assign(v, 0.01);  // smoothing floor
    // Each topic concentrates on a band of ~V/K words plus random spikes.
    const std::size_t band = std::max<std::size_t>(1, v / static_cast<std::size_t>(num_topics));
    const std::size_t start = static_cast<std::size_t>(k) * band % v;
    for (std::size_t j = 0; j < band; ++j) {
      dist[(start + j) % v] += 1.0 + rng.next_double();
    }
    double sum = 0.0;
    for (double x : dist) sum += x;
    for (double& x : dist) x /= sum;
  }
  return t;
}

// The inverse-CDF scan below is the hottest loop of corpus generation. On
// Intel cores whose microcode carries the JCC-erratum fix, a tight loop
// with a branch across a 32-byte boundary runs about 40% slower, so without
// a fixed loop alignment the generation time moved with the placement of
// unrelated code in the binary.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("align-loops=32")))
#endif
std::vector<Document> generate_corpus_partition(const DatasetPreset& preset,
                                                const PlantedTopics& topics,
                                                int partition,
                                                std::int64_t count,
                                                std::uint64_t seed) {
  Rng rng = Rng(seed).split(static_cast<std::uint64_t>(partition) + 101);
  std::vector<Document> docs;
  docs.reserve(static_cast<std::size_t>(count));
  const auto v = static_cast<std::uint64_t>(preset.real_features);
  for (std::int64_t d = 0; d < count; ++d) {
    // Two dominant topics per document.
    const int k1 = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(topics.num_topics)));
    const int k2 = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(topics.num_topics)));
    const double mix = 0.3 + 0.4 * rng.next_double();
    std::vector<std::int32_t> counts(static_cast<std::size_t>(v), 0);
    const int tokens = preset.real_nnz * 3;  // raw tokens; distinct ~real_nnz
    for (int t = 0; t < tokens; ++t) {
      const auto& dist =
          rng.bernoulli(mix)
              ? topics.topic_word[static_cast<std::size_t>(k1)]
              : topics.topic_word[static_cast<std::size_t>(k2)];
      // Inverse-CDF sample via linear scan on a random threshold; V_real is
      // small so this stays cheap and fully deterministic.
      double u = rng.next_double();
      std::size_t w = 0;
      for (; w + 1 < dist.size(); ++w) {
        u -= dist[w];
        if (u <= 0.0) break;
      }
      ++counts[w];
    }
    Document doc;
    for (std::size_t w = 0; w < counts.size(); ++w) {
      if (counts[w] > 0) {
        doc.word_ids.push_back(static_cast<std::int32_t>(w));
        doc.counts.push_back(counts[w]);
      }
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<SparseUpdate> generate_sparse_update_partition(
    std::int64_t dim, double density, int partition, int num_bands,
    std::int64_t count, std::uint64_t seed) {
  Rng rng = Rng(seed).split(static_cast<std::uint64_t>(partition) + 211);
  num_bands = std::max(1, num_bands);
  const std::int64_t band = partition % num_bands;
  const std::int64_t band_w = std::max<std::int64_t>(1, dim / num_bands);
  const std::int64_t lo = band * band_w;
  const auto nnz = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(density * static_cast<double>(dim) + 0.5), 1,
      dim);
  // Slot-sample one index per equal-width slot of a window that starts at
  // the partition's band: indices come out unique and (after the wrap sort)
  // sorted, with support spilling past the band only when density demands.
  const std::int64_t window = std::max(band_w, nnz);
  std::vector<SparseUpdate> updates;
  updates.reserve(static_cast<std::size_t>(count));
  for (std::int64_t u = 0; u < count; ++u) {
    SparseUpdate up;
    up.indices.reserve(static_cast<std::size_t>(nnz));
    up.deltas.reserve(static_cast<std::size_t>(nnz));
    for (std::int64_t j = 0; j < nnz; ++j) {
      const std::int64_t slot_lo = lo + j * window / nnz;
      const std::int64_t slot_hi = lo + (j + 1) * window / nnz;
      const std::int64_t span = std::max<std::int64_t>(1, slot_hi - slot_lo);
      const std::int64_t idx =
          (slot_lo + static_cast<std::int64_t>(
                         rng.next_below(static_cast<std::uint64_t>(span)))) %
          dim;
      up.indices.push_back(static_cast<std::int32_t>(idx));
      up.deltas.push_back(
          static_cast<std::int64_t>(rng.next_below(199)) - 99);
    }
    // The window can wrap past `dim`; restore sorted order (indices stay
    // unique: distinct slots map to distinct residues for window <= dim).
    std::vector<std::size_t> order(up.indices.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return up.indices[a] < up.indices[b];
    });
    SparseUpdate sorted;
    sorted.indices.reserve(up.indices.size());
    sorted.deltas.reserve(up.deltas.size());
    for (std::size_t i : order) {
      sorted.indices.push_back(up.indices[i]);
      sorted.deltas.push_back(up.deltas[i]);
    }
    updates.push_back(std::move(sorted));
  }
  return updates;
}

}  // namespace sparker::data
