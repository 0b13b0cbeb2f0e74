// Shared machinery of the benchmark program: the closed-loop timer, the
// metric report, the span profile of a traced pass and the per-call
// calibration used for layer estimates. Everything here sits outside the
// library: it times calls into ptherm's public API and records spans from
// the benchmark's own code.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< op time the untraced pass measures
  bool trace = false;     ///< false: end-to-end metrics; true: per-layer metrics
  std::string trace_file;  ///< Chrome trace of the traced pass ("" = none)
};

/// Metrics by name, each with its unit. Printed as the program's last line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const { return entries_.count(name) != 0; }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> entries_;
};

/// Outcome of one workload run.
struct RunResult {
  long long attempted = 0;  ///< ops whose answer was checked
  long long failed = 0;     ///< ops whose answer failed its check
  /// Run-level verdict: every op was checked, and every cross-check the
  /// workload makes held (pass-through wrappers bitwise transparent,
  /// repeated work bitwise repeated, no trace event dropped). Per-op answer
  /// failures are counted in `failed`, not here.
  bool correct = true;
  Report metrics;
};

/// Linear-interpolated quantile (numpy's default), q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Per-op latency [ms] of a workload whose round repeats the same requests.
/// A request is identical work in every round, so the spread across its
/// repetitions is the machine's, not the program's. On a shared host the
/// machine switches between fast and slow phases of a second or so, and a
/// plain quantile of the pooled samples jumps between the two; each
/// request's mean over the run moves smoothly instead. op_p50_ms and
/// op_p90_ms are quantiles over the round's requests of those means (every
/// request runs equally often, since runs complete whole rounds). The memory
/// is one sum per request however many ops a run completes, so the
/// benchmark's own bookkeeping does not move max_rss_mb with machine speed.
class RequestLatency {
 public:
  void add(std::size_t request, double ms);
  void merge(const RequestLatency& other);
  [[nodiscard]] long long samples() const noexcept { return samples_; }
  [[nodiscard]] std::vector<double> means_ms() const;

 private:
  std::vector<double> sum_ms_;
  std::vector<long long> count_;
  long long samples_ = 0;
};

/// Accumulates the timed phase of a closed loop: the next op is issued only
/// after the previous one returned, and only op calls are on the clock.
struct Phase {
  long long ops = 0;           ///< ops completed, in the workload's unit
  long long failed = 0;        ///< ops whose answer failed its check
  double busy_s = 0.0;         ///< time on the clock
  RequestLatency latency;      ///< per-op latency by request of the round

  void add(const Phase& other) {
    ops += other.ops;
    failed += other.failed;
    busy_s += other.busy_s;
    latency.merge(other.latency);
  }
};

/// Adds the end-to-end metrics of an untraced phase to `report`.
void report_end_to_end(Report& report, const Phase& phase, double setup_s);

/// Moves the calling thread to the next CPU of the set it was allowed at
/// start, in turn; call it off the clock, between units of work. On a host
/// whose cores other tenants share, some of the CPUs this process may use
/// run at full speed at any moment and others about 1.6 times slower, and
/// each switches on its own every few seconds to minutes. A run that stays on one CPU inherits
/// that CPU's state; one that takes the CPUs in turn averages over all of
/// them. Does nothing when only one CPU is allowed, or inside a CpuHold.
void next_cpu();

/// Keeps the thread on its current CPU for its lifetime: next_cpu() does
/// nothing meanwhile.
class CpuHold {
 public:
  CpuHold();
  ~CpuHold();
  CpuHold(const CpuHold&) = delete;
  CpuHold& operator=(const CpuHold&) = delete;
};

/// Set-ups per run: at least kSetupRepeats, and more while their total stays
/// within kSetupBudgetS; setup_s is their median.
constexpr int kSetupRepeats = 7;
constexpr int kSetupMaxRepeats = 501;
constexpr double kSetupBudgetS = 0.5;

/// Median wall time of repeated calls of `fn` [s] (see kSetupRepeats).
template <class F>
double median_setup_s(F&& fn) {
  std::vector<double> t;
  double total = 0.0;
  while (t.size() < static_cast<std::size_t>(kSetupRepeats) ||
         (total < kSetupBudgetS && t.size() < static_cast<std::size_t>(kSetupMaxRepeats))) {
    next_cpu();
    const auto a = Clock::now();
    fn();
    t.push_back(seconds_between(a, Clock::now()));
    total += t.back();
  }
  return median(std::move(t));
}

/// Keeps `value` alive as far as the optimizer can tell, so a calibration
/// loop cannot drop the call that produced it.
template <class T>
inline void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Per-call time of `fn` [s]: calls it in growing batches until one batch
/// takes at least `min_s`, and divides. Used for layers the library calls
/// internally without a span; the result times the exact call count is the
/// layer's estimated time.
template <class F>
double per_call_s(F&& fn, double min_s = 10e-3) {
  fn();  // warm caches and lazy tables first
  for (long long reps = 1;; reps *= 4) {
    const auto a = Clock::now();
    for (long long r = 0; r < reps; ++r) fn();
    const double t = seconds_between(a, Clock::now());
    if (t >= min_s || reps >= (1LL << 24)) return t / static_cast<double>(reps);
  }
}

/// Per-span-name totals over a traced pass. Self time is a span's duration
/// minus the part of it covered by its child spans (single-threaded
/// containment).
struct SpanStat {
  long long calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

struct Profile {
  std::map<std::string, SpanStat> spans;
  double top_level_s = 0.0;  ///< time under spans no other span contains
};

[[nodiscard]] Profile profile(const std::vector<ptherm::telemetry::SpanEvent>& events);

/// Plain self-time table: span, calls, total, self, self share of `timed_s`.
void print_profile(std::ostream& os, const Profile& p, double timed_s);

/// Owns the Tracer of a traced pass. Tracing is on only between on() and
/// off(), so untraced and traced units of work can alternate and share one
/// event log.
class TraceSession {
 public:
  TraceSession() = default;
  ~TraceSession() { off(); }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void on() { ptherm::telemetry::set_tracer(&tracer_); }
  void off() { ptherm::telemetry::set_tracer(nullptr); }

  [[nodiscard]] std::vector<ptherm::telemetry::SpanEvent> events() const {
    return tracer_.events();
  }
  [[nodiscard]] std::size_t dropped() const { return tracer_.dropped_events(); }

 private:
  ptherm::telemetry::Tracer tracer_;
};

/// Switches tracing off for its lifetime: answer checks run off the clock and
/// must not appear in the trace either.
class UntracedScope {
 public:
  UntracedScope() : saved_(ptherm::telemetry::tracer()) { ptherm::telemetry::set_tracer(nullptr); }
  ~UntracedScope() { ptherm::telemetry::set_tracer(saved_); }
  UntracedScope(const UntracedScope&) = delete;
  UntracedScope& operator=(const UntracedScope&) = delete;

 private:
  ptherm::telemetry::Tracer* saved_;
};

/// The outcome of a traced comparison: the same fixed work run untraced and
/// traced, unit by unit.
struct TracedPass {
  Phase untraced;
  Phase traced;
  std::vector<ptherm::telemetry::SpanEvent> events;
  Profile prof;
  bool complete = true;  ///< the tracer dropped no event
};

/// Runs `units` units of fixed work twice over, alternating an untraced unit
/// with a traced one on the same CPU so that drift in machine speed hits both
/// sides alike. `unit(traced)` runs one unit and returns its phase.
template <class F>
TracedPass run_traced_pass(int units, F&& unit) {
  TracedPass out;
  TraceSession session;
  for (int i = 0; i < units; ++i) {
    next_cpu();
    const CpuHold hold;
    out.untraced.add(unit(false));
    session.on();
    const Phase p = unit(true);
    session.off();
    out.traced.add(p);
  }
  out.events = session.events();
  out.complete = session.dropped() == 0;
  out.prof = profile(out.events);
  return out;
}

/// Completes a traced run. Sets the trace-level metrics (fail_frac,
/// trace.coverage, trace.overhead_frac, span.<name>.self_s for every library
/// span), 0 for every per-layer metric the workload did not set, and the
/// traced pass's attempted/failed counts; clears `correct` if events were
/// dropped. Prints the self-time table and writes the Chrome trace when
/// `trace_file` is set.
void report_trace(RunResult& result, const TracedPass& tp, const std::string& trace_file);

/// Span time of `name` in `p` (0 when it never ran).
[[nodiscard]] double span_total(const Profile& p, const std::string& name);
[[nodiscard]] double span_self(const Profile& p, const std::string& name);
[[nodiscard]] long long span_calls(const Profile& p, const std::string& name);

/// Peak resident set of this process [MiB].
[[nodiscard]] double max_rss_mb();

// One entry point per workload.
RunResult run_steady_design(const Args& args);
RunResult run_mc_batch(const Args& args);
RunResult run_rtm_trace(const Args& args);
RunResult run_spice_dc(const Args& args);

}  // namespace perfbench
