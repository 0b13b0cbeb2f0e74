#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

namespace {

// Spans the library emits today; each gets a span.<name>.self_s metric with
// '/' mapped to '.'. A span a later library version adds still shows in the
// printed table.
const char* const kLibrarySpans[] = {
    "cosim/build_influence", "cosim/solve",          "spectral/apply_influence",
    "batch/solve_all",       "batch/chunk",          "transient/solve",
    "transient/epoch",       "rtm/run",              "rtm/epoch",
    "spice/solve_dc",        "spice/gmin_ladder",    "spice/source_stepping",
    "spice/temp_stepping",   "spice/electrothermal_dc",
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The workload-specific per-layer metrics (BENCHMARK.json lists the same
// names, plus fail_frac, trace.* and span.*).
const LayerMetric kLayerMetrics[] = {
    {"thermal.backend_setup_s", "s"},
    {"floorplan.compile_s", "s"},
    {"thermal.influence_build_s", "s"},
    {"thermal.influence_builds", "count"},
    {"thermal.apply_s", "s"},
    {"thermal.applies", "count"},
    {"thermal.apply_us", "us"},
    {"thermal.apply_batch_s", "s"},
    {"thermal.batched_matvecs", "count"},
    {"thermal.apply_batch_us", "us"},
    {"floorplan.leakage_evals", "count"},
    {"floorplan.leakage_eval_s", "s"},
    {"core.picard_iterations", "count"},
    {"core.masked_iterations_saved", "count"},
    {"core.picard_self_s", "s"},
    {"thermal.transient_steps", "count"},
    {"thermal.transient_power_updates", "count"},
    {"thermal.power_update_ratio", "ratio"},
    {"thermal.step_interior_us", "us"},
    {"thermal.step_update_us", "us"},
    {"thermal.transient_step_s", "s"},
    {"thermal.readbacks", "count"},
    {"thermal.readback_s", "s"},
    {"rtm.epochs", "count"},
    {"rtm.interventions", "count"},
    {"rtm.policy_s", "s"},
    {"rtm.actuator_s", "s"},
    {"rtm.sensor_s", "s"},
    {"rtm.epoch_self_s", "s"},
    {"spice.newton_iterations", "count"},
    {"spice.rungs", "count"},
    {"spice.rungs_converged_ratio", "ratio"},
    {"spice.homotopy_steps", "count"},
    {"spice.outer_iterations", "count"},
    {"spice.us_per_newton", "us"},
    {"spice.solve_dc_s", "s"},
    {"spice.et_backend_s", "s"},
    {"spice.rail_err_max_v", "V"},
};

std::string span_metric_name(const std::string& span) {
  std::string name = "span." + span + ".self_s";
  std::replace(name.begin(), name.end(), '/', '.');
  return name;
}

}  // namespace

namespace {

bool cpu_held = false;

}  // namespace

CpuHold::CpuHold() { cpu_held = true; }
CpuHold::~CpuHold() { cpu_held = false; }

void next_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  static std::size_t at = 0;
  if (cpus.size() < 2 || cpu_held) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[at], &one);
  at = (at + 1) % cpus.size();
  // A refused move leaves the thread where it is; the measurement stays valid.
  (void)sched_setaffinity(0, sizeof one, &one);
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) throw std::runtime_error("metric " + name + " is not finite");
  entries_[name] = {value, unit};
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void RequestLatency::add(std::size_t request, double ms) {
  if (request >= count_.size()) {
    sum_ms_.resize(request + 1, 0.0);
    count_.resize(request + 1, 0);
  }
  sum_ms_[request] += ms;
  ++count_[request];
  ++samples_;
}

void RequestLatency::merge(const RequestLatency& other) {
  for (std::size_t k = 0; k < other.count_.size(); ++k) {
    if (other.count_[k] > 0) {
      if (k >= count_.size()) {
        sum_ms_.resize(k + 1, 0.0);
        count_.resize(k + 1, 0);
      }
      sum_ms_[k] += other.sum_ms_[k];
      count_[k] += other.count_[k];
    }
  }
  samples_ += other.samples_;
}

std::vector<double> RequestLatency::means_ms() const {
  std::vector<double> out;
  for (std::size_t k = 0; k < count_.size(); ++k) {
    if (count_[k] == 0) throw std::runtime_error("a request of the round never ran");
    out.push_back(sum_ms_[k] / static_cast<double>(count_[k]));
  }
  return out;
}

void report_end_to_end(Report& report, const Phase& phase, double setup_s) {
  if (phase.ops <= 0 || phase.busy_s <= 0.0 || phase.latency.samples() == 0) {
    throw std::runtime_error("timed phase completed no op");
  }
  const std::vector<double> means = phase.latency.means_ms();
  const double p50 = quantile(means, 0.5);
  const double p90 = quantile(means, 0.9);
  std::printf("timed phase: %lld ops in %.3f s on the clock; op latency p50 %.4f ms, "
              "p90 %.4f ms over the means of %zu requests (%lld samples); %lld failed\n",
              phase.ops, phase.busy_s, p50, p90, means.size(), phase.latency.samples(),
              phase.failed);
  report.set("setup_s", setup_s, "s");
  report.set("ops_per_s", static_cast<double>(phase.ops) / phase.busy_s, "1/s");
  report.set("op_p50_ms", p50, "ms");
  report.set("op_p90_ms", p90, "ms");
  report.set("ok_frac", 1.0 - static_cast<double>(phase.failed) / static_cast<double>(phase.ops),
             "ratio");
  report.set("max_rss_mb", max_rss_mb(), "MiB");
}

Profile profile(const std::vector<ptherm::telemetry::SpanEvent>& events) {
  std::vector<ptherm::telemetry::SpanEvent> sorted = events;
  // Parents start no later than their children and last at least as long.
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.duration_ns > b.duration_ns;
  });
  Profile p;
  struct Open {
    std::string name;
    std::int64_t end_ns;
  };
  std::vector<Open> stack;
  for (const auto& e : sorted) {
    while (!stack.empty() && stack.back().end_ns <= e.start_ns) stack.pop_back();
    const double dur = static_cast<double>(e.duration_ns) * 1e-9;
    SpanStat& s = p.spans[e.name];
    ++s.calls;
    s.total_s += dur;
    s.self_s += dur;
    if (stack.empty()) {
      p.top_level_s += dur;
    } else {
      p.spans[stack.back().name].self_s -= dur;
    }
    stack.push_back({e.name, e.start_ns + e.duration_ns});
  }
  return p;
}

void print_profile(std::ostream& os, const Profile& p, double timed_s) {
  std::vector<std::pair<std::string, SpanStat>> rows(p.spans.begin(), p.spans.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.self_s > b.second.self_s; });
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %10s %12s %12s %8s\n", "span", "calls", "total_s",
                "self_s", "self%");
  os << line;
  double self_sum = 0.0;
  for (const auto& [name, s] : rows) {
    self_sum += s.self_s;
    std::snprintf(line, sizeof line, "%-28s %10lld %12.6f %12.6f %7.2f%%\n", name.c_str(),
                  s.calls, s.total_s, s.self_s, 100.0 * s.self_s / timed_s);
    os << line;
  }
  std::snprintf(line, sizeof line,
                "coverage: top-level spans %.6f s of %.6f s timed (%.2f%%); self sum %.6f s\n",
                p.top_level_s, timed_s, 100.0 * p.top_level_s / timed_s, self_sum);
  os << line;
}

double span_total(const Profile& p, const std::string& name) {
  const auto it = p.spans.find(name);
  return it == p.spans.end() ? 0.0 : it->second.total_s;
}

double span_self(const Profile& p, const std::string& name) {
  const auto it = p.spans.find(name);
  return it == p.spans.end() ? 0.0 : it->second.self_s;
}

long long span_calls(const Profile& p, const std::string& name) {
  const auto it = p.spans.find(name);
  return it == p.spans.end() ? 0 : it->second.calls;
}

void report_trace(RunResult& result, const TracedPass& tp, const std::string& trace_file) {
  Report& report = result.metrics;
  const Phase& traced = tp.traced;
  std::cout << "self time per span (traced pass):\n";
  print_profile(std::cout, tp.prof, traced.busy_s);
  for (const auto& [name, s] : tp.prof.spans) {
    if (name.rfind("bench/", 0) != 0) report.set(span_metric_name(name), s.self_s, "s");
  }
  // Every traced run prints every per-layer metric; layers this workload
  // does not reach read 0.
  for (const auto& m : kLayerMetrics) {
    if (!report.has(m.name)) report.set(m.name, 0.0, m.unit);
  }
  for (const char* span : kLibrarySpans) {
    if (!report.has(span_metric_name(span))) report.set(span_metric_name(span), 0.0, "s");
  }
  report.set("fail_frac", static_cast<double>(traced.failed) / static_cast<double>(traced.ops),
             "ratio");
  report.set("trace.coverage", tp.prof.top_level_s / traced.busy_s, "ratio");
  const double traced_rate = static_cast<double>(traced.ops) / traced.busy_s;
  const double untraced_rate = static_cast<double>(tp.untraced.ops) / tp.untraced.busy_s;
  report.set("trace.overhead_frac", 1.0 - traced_rate / untraced_rate, "ratio");
  if (!trace_file.empty()) {
    std::ofstream out(trace_file);
    ptherm::telemetry::write_chrome_trace(out, tp.events);
    if (!out) throw std::runtime_error("cannot write " + trace_file);
    std::cout << "chrome trace: " << trace_file << " (" << tp.events.size() << " events)\n";
  }
  result.attempted = traced.ops;
  result.failed = traced.failed;
  if (!tp.complete) result.correct = false;
}

double max_rss_mb() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across exec, so a process
  // started from a larger parent process would report the parent's peak.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
