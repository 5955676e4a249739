#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

/// \file checks.hpp
/// The output checks every workload runs. Each returns an empty string when
/// the check holds and a description of the first mismatch otherwise, so a
/// workload collects failures without stopping and check_test.cpp can feed
/// each check a wrong value. Nothing here depends on the simulator.

namespace perfbench {

inline std::string fmt_double(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// |got - want| <= rel_tol * max(|want|, tiny), element-wise.
inline std::string check_rel_close(const std::string& what,
                                   const std::vector<double>& got,
                                   const std::vector<double>& want,
                                   double rel_tol) {
  if (got.size() != want.size()) {
    return what + ": " + std::to_string(got.size()) + " values, expected " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max(std::fabs(want[i]), 1e-300);
    if (!(std::fabs(got[i] - want[i]) <= rel_tol * scale)) {
      return what + "[" + std::to_string(i) + "] = " + fmt_double(got[i]) +
             ", expected " + fmt_double(want[i]) + " within relative " +
             fmt_double(rel_tol);
    }
  }
  return "";
}

inline std::string check_exact(const std::string& what, double got,
                               double want) {
  if (got == want) return "";
  return what + " = " + fmt_double(got) + ", expected exactly " +
         fmt_double(want);
}

/// Every element >= its predecessor.
inline std::string check_non_decreasing(const std::string& what,
                                        const std::vector<double>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[i - 1]) {
      return what + " decreased at step " + std::to_string(i) + ": " +
             fmt_double(v[i - 1]) + " -> " + fmt_double(v[i]);
    }
  }
  return "";
}

/// Bit-identical vectors.
template <typename T>
std::string check_identical(const std::string& what, const std::vector<T>& got,
                            const std::vector<T>& want) {
  if (got.size() != want.size()) {
    return what + ": length " + std::to_string(got.size()) + ", expected " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) {
      return what + ": element " + std::to_string(i) + " differs";
    }
  }
  return "";
}

inline std::string check_at_most(const std::string& what, double got,
                                 double limit) {
  if (got <= limit) return "";
  return what + " = " + fmt_double(got) + " exceeds " + fmt_double(limit);
}

}  // namespace perfbench
