#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file report.hpp
/// What one round of a workload measures, the host-time spans the benchmark
/// records around its calls into the program, and the round's JSON record.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host-time spans around the benchmark's calls into each layer (data
/// generation, cluster construction, run_task, checks). Kept in memory and
/// written as Chrome trace JSON when the run ends; disabled, it records
/// nothing but still times.
class HostTrace {
 public:
  explicit HostTrace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Runs `fn`, records it as span `name` and returns its host seconds.
  template <typename F>
  double time(const char* name, F&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (enabled_) {
      spans_.push_back(
          {name, seconds_between(origin_, t0), seconds_between(t0, t1)});
    }
    return seconds_between(t0, t1);
  }

  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_s;
    double dur_s;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Accumulates host seconds spent in the benchmark's own closures. The
/// closures of a simulation run on one thread, so plain sums suffice.
struct ClosureClock {
  double closure_s = 0;  ///< every benchmark closure, comp calls included.
  double encode_s = 0;   ///< inside comp::AdaptiveVector::encode.
  double merge_s = 0;    ///< inside comp::AdaptiveVector::add.

  /// Self time of the closures: what is left after the comp calls.
  double closure_self_s() const { return closure_s - encode_s - merge_s; }
};

/// Scoped timer adding its lifetime to `*sink`.
class ScopedAdd {
 public:
  explicit ScopedAdd(double* sink) : sink_(sink), t0_(Clock::now()) {}
  ~ScopedAdd() { *sink_ += seconds_between(t0_, Clock::now()); }
  ScopedAdd(const ScopedAdd&) = delete;
  ScopedAdd& operator=(const ScopedAdd&) = delete;

 private:
  double* sink_;
  Clock::time_point t0_;
};

/// What one part of a round measured; run.py adds the parts of a round up.
struct Round {
  double setup_s = 0;  ///< host: cluster construction + input generation.
  double wall_s = 0;   ///< host: inside Simulator::run_task.
  double sim_s = 0;    ///< modeled: first submission to last result, summed.
  std::vector<double> job_ms;  ///< modeled duration of each completed job.
  std::int64_t attempted = 0;  ///< aggregation jobs submitted.
  std::int64_t failed = 0;     ///< aggregation jobs that aborted.
  std::vector<std::string> errors;  ///< failed output checks.
  std::vector<std::string> notes;   ///< reference figures, printed once.

  /// Per-layer metrics, split by how they may be compared across runs:
  /// modeled values must repeat exactly (traced or not); host values are
  /// wall-clock; traced values exist only when the round was traced.
  std::map<std::string, double> modeled;
  std::map<std::string, double> host;
  std::map<std::string, double> traced;

  void check(const std::string& failure) {
    if (!failure.empty()) errors.push_back(failure);
  }
};

double median(std::vector<double> v);
/// Percentile by linear interpolation between closest ranks, q in [0, 1].
double percentile(std::vector<double> v, double q);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Prints the record of one part of a `parts`-part workload as one JSON
/// object on the last line of standard output.
void print_round(const Round& r, int parts);

}  // namespace perfbench
