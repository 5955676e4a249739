#pragma once

#include <cstdint>

#include "report.hpp"

/// \file workloads.hpp
/// Each workload is a fixed list of parts. A part is one or more
/// simulations with their own set-up and checks, run in a process of its
/// own; a round runs every part once. `traced` turns the program's trace on.

namespace perfbench {

struct Workload {
  int parts;
  Round (*run)(std::uint64_t seed, int part, bool traced, HostTrace& ht);
};

/// Parts: SVM-K tree, SVM-K split, LDA-N tree, LDA-N split.
Round ml_train_part(std::uint64_t seed, int part, bool traced, HostTrace& ht);
/// Parts: the `shared` input, the `fill-in` input.
Round sparse_agg_part(std::uint64_t seed, int part, bool traced,
                      HostTrace& ht);
/// One part: the whole stream on one cluster.
Round shared_cluster_part(std::uint64_t seed, int part, bool traced,
                          HostTrace& ht);

}  // namespace perfbench
