// Feeds every output check a correct and a wrong value: a check that never
// fires would let a broken program pass the benchmark. Exits non-zero if any
// check misbehaves.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "checks.hpp"

namespace {

int failures = 0;

void expect(bool fires, const std::string& result, const char* what) {
  const bool fired = !result.empty();
  if (fired != fires) {
    std::printf("FAIL %s: %s\n", what,
                fires ? "wrong value passed" : result.c_str());
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;
  const std::vector<double> replay = {1.0, 0.8125, 0.6};

  // ml-train: SVM loss against the sequential replay.
  expect(false, check_rel_close("loss", {1.0, 0.8125 * (1 + 1e-12), 0.6},
                                replay, 1e-9),
         "replay accepts rounding");
  expect(true, check_rel_close("loss", {1.0, 0.8126, 0.6}, replay, 1e-9),
         "replay rejects a wrong loss");
  expect(true, check_rel_close("loss", {1.0, 0.8125}, replay, 1e-9),
         "replay rejects a missing iteration");
  expect(true,
         check_rel_close("loss",
                         {1.0, std::numeric_limits<double>::quiet_NaN(), 0.6},
                         replay, 1e-9),
         "replay rejects NaN");
  // ml-train: the first hinge loss at w = 0.
  expect(false, check_exact("first loss", 1.0, 1.0), "first loss exact");
  expect(true, check_exact("first loss", std::nextafter(1.0, 2.0), 1.0),
         "first loss rejects off-by-one-ulp");
  // ml-train: EM log-likelihood.
  expect(false, check_non_decreasing("loglik", {-9.0, -8.5, -8.5, -8.0}),
         "loglik accepts monotone");
  expect(true, check_non_decreasing("loglik", {-9.0, -8.5, -8.6}),
         "loglik rejects a decrease");
  // sparse-agg / shared-cluster: bit-identical to the sequential fold.
  const std::vector<std::int64_t> fold = {3, 0, -7, 12};
  expect(false, check_identical("sum", std::vector<std::int64_t>{3, 0, -7, 12},
                                fold),
         "identical accepts equal");
  expect(true, check_identical("sum", std::vector<std::int64_t>{3, 0, -7, 13},
                               fold),
         "identical rejects one element");
  expect(true,
         check_identical("sum", std::vector<std::int64_t>{3, 0, -7}, fold),
         "identical rejects a short result");
  // shared-cluster: NIC busy time within the makespan.
  expect(false, check_at_most("nic busy", 2.5, 2.5), "busy at makespan");
  expect(true, check_at_most("nic busy", 2.5000001, 2.5),
         "busy over makespan");

  if (failures == 0) std::printf("check_test: all checks fire\n");
  return failures == 0 ? 0 : 1;
}
