#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {

bool HostTrace::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"ph\":\"X\",\"cat\":\"bench\",\"name\":\"%s\","
                  "\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f}",
                  i ? "," : "", s.name, s.start_s * 1e6, s.dur_s * 1e6);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

namespace {

std::string json_number(double x) {
  // %.17g round-trips every double; JSON has no NaN or infinity.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(x) ? x : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(k) + ": " + json_number(v);
  }
  return out + "}";
}

template <typename T, typename F>
std::string json_list(const std::vector<T>& v, F item) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ", ";
    out += item(v[i]);
  }
  return out + "]";
}

}  // namespace

void print_round(const Round& r, int parts) {
  std::string line = "{\"parts\": " + std::to_string(parts);
  line += ", \"setup_s\": " + json_number(r.setup_s);
  line += ", \"wall_s\": " + json_number(r.wall_s);
  line += ", \"sim_s\": " + json_number(r.sim_s);
  line += ", \"peak_rss_mb\": " + json_number(peak_rss_mb());
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"job_ms\": " + json_list(r.job_ms, json_number);
  line += ", \"errors\": " + json_list(r.errors, json_string);
  line += ", \"notes\": " + json_list(r.notes, json_string);
  line += ", \"modeled\": " + json_map(r.modeled);
  line += ", \"host\": " + json_map(r.host);
  line += ", \"traced\": " + json_map(r.traced) + "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
