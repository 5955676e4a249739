// Runs one part of one workload — its simulations, set up from the seed,
// timed and checked — and prints it as one JSON record:
//
//   perfbench --workload <ml-train|sparse-agg|shared-cluster> --seed <n>
//             --part <k> --trace <0|1> [--trace-dir <dir> --round <r>]
//
// The record's "parts" field says how many parts the workload has. --trace 1
// turns the program's trace on (and lints it) and, with --trace-dir, writes
// the benchmark's own host-time spans there. run.py starts one process per
// part and turns the records into the benchmark's result. Exit status is 0
// only when every output check held.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string trace_dir;
  std::string round = "0";
  int part = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<ml-train|sparse-agg|shared-cluster> --seed <n> --part <k> "
               "--trace <0|1> [--trace-dir <dir> --round <r>]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const std::string key = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') {
        usage("--seed must be a whole number");
      }
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace must be 0 or 1");
      }
      o.trace = value[0] == '1';
    } else if (key == "--trace-dir") {
      o.trace_dir = value;
    } else if (key == "--round") {
      o.round = value;
    } else if (key == "--part") {
      o.part = std::atoi(value);
    } else {
      usage("unknown option " + key);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

Workload workload(const std::string& name) {
  if (name == "ml-train") return {4, ml_train_part};
  if (name == "sparse-agg") return {2, sparse_agg_part};
  if (name == "shared-cluster") return {1, shared_cluster_part};
  usage("unknown workload " + name);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload w = workload(opt.workload);
  if (opt.part < 0 || opt.part >= w.parts) usage("--part out of range");
  HostTrace ht(opt.trace);
  Round r;
  try {
    r = w.run(opt.seed, opt.part, opt.trace, ht);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opt.trace && !opt.trace_dir.empty()) {
    const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-round" + opt.round +
                             "-part" + std::to_string(opt.part) + ".host.json";
    if (!ht.write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: %s: check failed: %s\n",
                 opt.workload.c_str(), e.c_str());
  }
  print_round(r, w.parts);
  return r.errors.empty() ? 0 : 1;
}
