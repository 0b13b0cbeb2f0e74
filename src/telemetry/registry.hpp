// Metrics registry: the "how much work happened" half of the telemetry
// layer. Named monotonic counters, gauges, and histogram summaries under a
// "subsystem/metric" naming scheme ("backend/cg_iterations",
// "spice/newton_iterations"), queryable as one snapshot and dumpable as
// JSONL or CSV for bench/run_bench.sh and bench/compare_bench.py.
//
// The per-subsystem stat structs (thermal::BackendCostStats, which the batch
// engine and the RTM loop also report in, and spice::SolveReport) register
// into this through the descriptor catalog in telemetry/counters.hpp — which
// is also how merging is defined: merging two stat sets is contribute()
// twice into one registry, not a hand-copied field list.
//
// Leaf module: standard library only.
#pragma once

#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace ptherm::telemetry {

/// Thread-safe named-metric store. Counter adds accumulate (monotonic by
/// convention: contributors only add nonnegative work counts), gauges hold
/// the last set value, histograms keep a streaming {count, sum, min, max}
/// summary. Heterogeneous lookup (std::less<>) keeps the hot add() path free
/// of temporary std::string allocations for existing keys.
class Registry {
 public:
  struct HistogramSummary {
    long long count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  /// Everything the registry holds, copied out under one lock.
  struct Snapshot {
    std::map<std::string, long long> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSummary> histograms;
  };

  void add(std::string_view name, long long delta);
  void set_gauge(std::string_view name, double value);
  void observe(std::string_view name, double value);

  /// Current value of counter `name` (0 if never added to).
  [[nodiscard]] long long counter(std::string_view name) const;

  [[nodiscard]] Snapshot snapshot() const;

  /// Adds every metric of `other` into this registry: counters and histogram
  /// summaries accumulate, gauges overwrite. snapshot()-then-merge is the
  /// cross-registry (e.g. per-thread sink) accumulation path.
  void merge(const Snapshot& other);

  void clear();

  /// Process-wide registry for call sites without a natural owner. Solver
  /// paths deliberately do NOT write here implicitly — stats flow through
  /// result structs and contribute() so runs stay reproducible — but tools
  /// and examples can use it as their one sink.
  static Registry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, long long, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, HistogramSummary, std::less<>> histograms_;
};

/// JSONL dump: one {"metric": ..., ...} object per line — counters first,
/// then gauges, then histograms, each alphabetical. Deterministic for a
/// given snapshot.
void write_jsonl(std::ostream& os, const Registry::Snapshot& snapshot);

/// CSV dump with header "metric,kind,value,count,sum,min,max"; counters and
/// gauges leave the histogram columns empty.
void write_csv(std::ostream& os, const Registry::Snapshot& snapshot);

}  // namespace ptherm::telemetry
