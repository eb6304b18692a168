#pragma once

// Shared pieces of the benchmark: options, seeded input generators, order
// statistics, the result record printed as the last stdout line, and the
// round loop every workload runs.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/task_graph.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< directory for the span dump; empty = no dump
};

/// Monotonic nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// Stateless 64-bit mix (splitmix64 finalizer over a ^ rotated b): derives
/// independent per-input seeds from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

/// Connected layered DAG with exactly `width` nodes per layer and `fan_in`
/// sampled predecessors per non-entry node (deduplicated); a node that no
/// sample picked gets one edge into the next layer, so fan-in stays near
/// `fan_in`. O(nodes * fan_in) to build, so it scales to 10^5 nodes; volumes
/// follow the paper's canonical randomization (workloads/synthetic.hpp).
[[nodiscard]] sts::TaskGraph make_layered(int layers, int width, int fan_in, std::uint64_t seed);

/// Appends `part` to `graph` as an independent connected component,
/// preserving kinds, declared outputs, volumes and edge insertion order, so
/// one component embedded in two graphs has one canonical partition form.
void append_component(sts::TaskGraph& graph, const sts::TaskGraph& part);

/// Order statistics over a copy of `values` (empty input reads 0).
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile `q` in (0, 1) of `values`. Throws when fewer
/// than ten samples lie beyond it: a tail with fewer samples is noise.
[[nodiscard]] double tail_percentile(std::vector<double> values, double q);

[[nodiscard]] double geomean(const std::vector<double>& values);

/// Prints min / median / max of per-round throughputs to stderr, so a run
/// shows how much its rounds agreed.
void report_spread(const char* workload, const std::vector<double>& round_ops_s);

/// Restricts this process (and every thread it starts afterwards) to one
/// CPU, the highest-numbered one it may run on. For closed loops with one
/// request in flight: every thread hand-off becomes a switch on that CPU
/// instead of a cross-CPU wake-up, whose latency on a virtual machine
/// depends on whether the host has the target vCPU scheduled.
void pin_to_one_cpu();

/// Peak resident set of this process in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// A metric BENCHMARK.json declares: its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The per-layer metrics BENCHMARK.json declares, in its order. The traced
/// run of every workload listed there prints each of them; a layer call the
/// workload never makes reads 0 (no calls, no time, no count). run.py checks
/// the printed names against BENCHMARK.json.
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// The record printed as the last line of stdout.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Adds every metric of `declared` not recorded yet with the value 0, and
  /// fails the run for a recorded metric `declared` lacks or gives another
  /// unit.
  void fill_unmeasured(const std::vector<MetricSpec>& declared);
  /// Counts one operation; a false `ok` counts it failed and prints `what`.
  void operation(bool ok, const std::string& what = {});
  /// A property of the whole run failed (not attributable to one operation).
  void fail_run(const std::string& what);

  [[nodiscard]] bool passed() const { return correct_ && failed_ == 0; }
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t failures_printed_ = 0;
  std::vector<Metric> metrics_;
};

/// The end-to-end timings every workload listed in BENCHMARK.json prints:
///   setup_s           `setup_s` as timed_setup measured it;
///   throughput_ops_s  median over rounds of the round's operations per second
///                     of timed work (`round_ops_s`);
///   latency_p50_ms    median wall time of one untraced operation (`latency_s`);
///   cold_latency_ms   median over rounds of the round's mean wall time of an
///                     operation that computed its schedule from nothing
///                     (`round_cold_mean_s`: a first-seen request; every
///                     schedule on cold_large);
///   peak_rss_mb       peak_rss_mb() at the end of the run.
void report_timings(Report& report, double setup_s, const std::vector<double>& round_ops_s,
                    const std::vector<double>& latency_s,
                    const std::vector<double>& round_cold_mean_s);

/// The schedule-quality metrics over a workload's fixed evaluation set (the
/// axes of the paper's Section 7): speedup_geomean (geometric mean of
/// T1/makespan), utilization_mean (mean PE utilization) and fifo_slots
/// (total FIFO capacity allocated, Eq. 5 plus slack).
void report_quality(Report& report, const std::vector<double>& speedups,
                    const std::vector<double>& utilizations, double fifo_slots);

/// Mean of `values` (empty input reads 0).
[[nodiscard]] double mean(const std::vector<double>& values);

/// Runs `setup` `repeats` times and returns the median wall time in
/// seconds; the state built by the last repetition is what the run uses.
[[nodiscard]] double timed_setup(int repeats, const std::function<void()>& setup);

/// Number of set-up repetitions whose median is reported as setup_s.
inline constexpr int kSetupRepeats = 5;

/// Calls `round(r)` for r = 0, 1, ... until `seconds` of wall time have
/// passed since the first call; always whole rounds, at least `min_rounds`.
/// Returns the number of rounds run.
int run_rounds(double seconds, int min_rounds, const std::function<void(int)>& round);

}  // namespace perfbench
