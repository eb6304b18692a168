// cold_large: serial cold streaming-rlx schedules (P = 64) of layered graphs
// with bounded fan-in, on a ladder of sizes from 10^3 to 10^5 nodes. No
// cache of any kind is on the path: this is the compile-time case, where the
// core partitioner dominates and the serving layers do nothing.
//
// A round schedules every rung once; every round repeats the same graphs, so
// each round's results must fingerprint identically to the first round's.
// The graphs do not depend on the run seed.
// The traced run replays each schedule as direct calls into the layers
// (canonicalization, partition, streaming schedule, FIFO sizing, metrics),
// checks that the replay fingerprints identically to the pipeline, and times
// the 10^5-node rung again at two lanes.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/buffer_sizing.hpp"
#include "core/partition.hpp"
#include "core/streaming_schedule.hpp"
#include "core/work_depth.hpp"
#include "metrics/metrics.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/result_fingerprint.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Rung {
  int layers;
  int width;
};

/// 10^3, 3*10^3, 10^4, 3*10^4 and 10^5 nodes. The layer count is fixed, so
/// the partitioner's ready set grows with the width.
constexpr Rung kLadder[] = {{50, 20}, {50, 60}, {50, 200}, {50, 600}, {50, 2000}};
constexpr int kFanIn = 4;
constexpr std::int64_t kPes = 64;
constexpr std::int64_t kLargest = 100'000;

sts::MachineConfig machine(std::int64_t lanes) {
  sts::MachineConfig m;
  m.num_pes = kPes;
  m.intra_threads = lanes;
  return m;
}

/// Properties every streaming schedule must have; empty when all hold.
std::string check_schedule(const sts::TaskGraph& graph, const sts::ScheduleResult& result) {
  if (!result.streaming || !result.buffers) return "no streaming schedule";
  if (!sts::partition_is_valid(graph, result.streaming->partition, kPes)) {
    return "partition_is_valid fails";
  }
  if (!(result.depth > sts::Rational(0)) || sts::Rational(result.makespan) < result.depth) {
    return "slr < 1: makespan below the streaming depth";
  }
  const sts::ScheduleMetrics& m = result.metrics;
  if (!(m.utilization > 0.0 && m.utilization <= 1.0)) return "utilization outside (0, 1]";
  if (!(m.speedup > 0.0 && m.speedup <= static_cast<double>(kPes))) return "speedup outside (0, P]";
  if (m.fifo_capacity <= 0) return "no FIFO capacity";
  return {};
}

/// Least-squares slope of log(y) against log(x).
double log_log_slope(const std::vector<double>& x, const std::vector<double>& y) {
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += std::log(x[i]);
    my += std::log(y[i]);
  }
  mx /= static_cast<double>(x.size());
  my /= static_cast<double>(y.size());
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (std::log(x[i]) - mx) * (std::log(y[i]) - my);
    sxx += (std::log(x[i]) - mx) * (std::log(x[i]) - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

}  // namespace

sts::ScheduleResult replay_streaming_rlx(const sts::TaskGraph& graph, std::int64_t pes,
                                         Tracer& tracer, std::int64_t request, std::int64_t tag) {
  sts::MachineConfig m;
  m.num_pes = pes;
  {
    const Scope span(&tracer, "pipeline.validate", request, tag);
    sts::validate_schedule_inputs(graph, m);
  }
  sts::Workspace ws(m.intra_threads);
  sts::CanonicalPartitionIndex index;
  {
    const Scope span(&tracer, "graph.canonical_partition_index", request, tag);
    index = sts::canonical_partition_index(graph);
  }
  sts::SpatialPartition partition;
  {
    const Scope span(&tracer, "core.partition", request, tag);
    partition = sts::partition_spatial_blocks(graph, pes, sts::PartitionVariant::kRLX, &ws, &index);
  }
  sts::ScheduleResult result;
  result.scheduler = "streaming-rlx";
  {
    const Scope span(&tracer, "core.streaming_schedule", request, tag);
    result.streaming = sts::schedule_streaming(graph, partition, &ws);
  }
  result.makespan = result.streaming->makespan;
  {
    const Scope span(&tracer, "core.buffer_sizing", request, tag);
    result.buffers = sts::compute_buffer_plan(graph, *result.streaming, m.default_fifo_capacity);
  }
  {
    const Scope span(&tracer, "metrics.compute", request, tag);
    result.depth = sts::streaming_depth(graph);
    result.metrics.speedup = sts::speedup(graph.total_work(), result.makespan);
    result.metrics.slr = sts::streaming_slr(result.makespan, result.depth);
    result.metrics.utilization = sts::streaming_utilization(graph, *result.streaming, pes);
    result.metrics.fifo_capacity = result.buffers->total_capacity;
  }
  return result;
}

Report run_cold_large(const Options& options) {
  Report report;
  std::vector<sts::TaskGraph> graphs;
  const double setup_s = timed_setup(kSetupRepeats, [&] {
    graphs.clear();
    for (std::size_t i = 0; i < std::size(kLadder); ++i) {
      // Fixed graph seeds (one per rung): the ladder is the evaluation set
      // the growth curve and the quality metrics are taken over, so they are
      // exact from run to run and the timings spread only with the host.
      graphs.push_back(make_layered(kLadder[i].layers, kLadder[i].width, kFanIn, i + 1));
      // Build the lazy adjacency now so every timed schedule starts alike.
      (void)graphs.back().profiles();
    }
  });

  Tracer tracer;
  std::vector<double> largest_blocks;
  std::vector<std::uint64_t> fingerprints(graphs.size(), 0);
  std::vector<sts::ScheduleMetrics> first_metrics(graphs.size());
  std::vector<double> largest_s;        // serial pipeline schedules of the 10^5 rung
  std::vector<double> largest_traced_s; // replayed (traced) schedules of the 10^5 rung
  std::vector<double> lanes2_s;
  std::vector<double> latency_s;        // every serial pipeline schedule
  std::vector<double> round_ops_s;      // schedules per second of each round's schedules
  std::vector<double> round_mean_s;     // mean schedule time of each round
  std::int64_t request = 0;

  run_rounds(options.seconds, 1, [&](int round) {
    double round_s = 0.0;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const sts::TaskGraph& graph = graphs[i];
      const auto nodes = static_cast<std::int64_t>(graph.node_count());
      const std::string what = "cold_large round " + std::to_string(round) + " rung " +
                               std::to_string(nodes) + ": ";
      ++request;
      std::string problem;
      const auto pipeline = [&](std::int64_t lanes, double& seconds) {
        const std::int64_t begin = now_ns();
        sts::ScheduleResult result = sts::schedule_by_name("streaming-rlx", graph, machine(lanes));
        seconds = seconds_between(begin, now_ns());
        return result;
      };
      double elapsed = 0.0;
      sts::ScheduleResult result;
      if (options.trace) {
        double traced = 0.0;
        sts::ScheduleResult replay;
        const auto run_replay = [&] {
          const std::int64_t begin = now_ns();
          {
            const Scope root(&tracer, "cold_schedule", request, nodes);
            replay = replay_streaming_rlx(graph, kPes, tracer, request, nodes);
          }
          traced = seconds_between(begin, now_ns());
        };
        // Alternate which runs first, so neither always reuses the memory
        // the other just freed.
        if (round % 2 == 0) {
          run_replay();
          result = pipeline(1, elapsed);
        } else {
          result = pipeline(1, elapsed);
          run_replay();
        }
        problem = check_schedule(graph, replay);
        if (problem.empty() && sts::result_fingerprint(replay) != sts::result_fingerprint(result)) {
          problem = "layer replay fingerprint differs from the pipeline's";
        }
        if (nodes == kLargest) {
          largest_traced_s.push_back(traced);
          largest_blocks.push_back(static_cast<double>(replay.streaming->partition.block_count()));
          double two_s = 0.0;
          const sts::ScheduleResult two = pipeline(2, two_s);
          lanes2_s.push_back(two_s);
          if (problem.empty() && sts::result_fingerprint(two) != sts::result_fingerprint(result)) {
            problem = "2-lane fingerprint differs from the serial one";
          }
        }
      } else {
        result = pipeline(1, elapsed);
        problem = check_schedule(graph, result);
      }
      if (nodes == kLargest) largest_s.push_back(elapsed);
      latency_s.push_back(elapsed);
      round_s += elapsed;
      if (round == 0) first_metrics[i] = result.metrics;
      const std::uint64_t fingerprint = sts::result_fingerprint(result);
      if (round == 0) {
        fingerprints[i] = fingerprint;
      } else if (problem.empty() && fingerprint != fingerprints[i]) {
        problem = "result differs from round 0 on the same graph";
      }
      report.operation(problem.empty(), what + problem);
    }
    const auto schedules = static_cast<double>(graphs.size());
    round_ops_s.push_back(schedules / round_s);
    round_mean_s.push_back(round_s / schedules);
  });

  if (options.trace) {
    std::vector<double> sizes;
    std::vector<double> partition_s;
    for (const sts::TaskGraph& graph : graphs) {
      const auto nodes = static_cast<std::int64_t>(graph.node_count());
      sizes.push_back(static_cast<double>(nodes));
      partition_s.push_back(median(tracer.self_seconds("core.partition", nodes)));
    }
    report.metric("core.partition_s", median(tracer.self_seconds("core.partition", kLargest)), "s");
    report.metric("core.partition_growth_exponent", log_log_slope(sizes, partition_s), "slope");
    report.metric("core.blocks", median(largest_blocks), "count");
    report.metric("core.streaming_schedule_s",
                  median(tracer.self_seconds("core.streaming_schedule", kLargest)), "s");
    report.metric("core.buffer_sizing_s", median(tracer.self_seconds("core.buffer_sizing", kLargest)),
                  "s");
    report.metric("metrics.compute_s", median(tracer.self_seconds("metrics.compute", kLargest)), "s");
    report.metric("graph.canonical_partition_index_s",
                  median(tracer.self_seconds("graph.canonical_partition_index", kLargest)), "s");
    report.metric("support.parallel.lanes2_s", median(lanes2_s), "s");
    report.metric("trace.unaccounted_share", tracer.unaccounted_share("cold_schedule"), "ratio");
    report.metric("trace.overhead_share", overhead_share(largest_traced_s, largest_s), "ratio");
    report.fill_unmeasured(kPerLayerMetrics);
    if (!options.trace_out.empty()) {
      tracer.write(options.trace_out, "cold_large-" + std::to_string(options.seed) + ".json");
    }
    return report;
  }

  std::vector<double> speedups;
  std::vector<double> utilizations;
  double fifo = 0.0;
  for (const sts::ScheduleMetrics& m : first_metrics) {
    speedups.push_back(m.speedup);
    utilizations.push_back(m.utilization);
    fifo += static_cast<double>(m.fifo_capacity);
  }
  std::fprintf(stderr, "cold_large: %zu rounds; the 10^5-node rung took a median %.4g s\n",
               round_ops_s.size(), median(largest_s));
  report_spread("cold_large", round_ops_s);
  // Every schedule is cold: the mean over the ladder is the cold latency.
  report_timings(report, setup_s, round_ops_s, latency_s, round_mean_s);
  report_quality(report, speedups, utilizations, fifo);
  return report;
}

}  // namespace perfbench
