#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "support/prng.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ ((b << 29) | (b >> 35)) ^ (b * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

sts::TaskGraph make_layered(int layers, int width, int fan_in, std::uint64_t seed) {
  sts::Prng rng(seed ^ 0x5851f42d4c957f2dULL);
  const auto nodes = static_cast<std::int32_t>(layers * width);
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  edges.reserve(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(fan_in));
  std::vector<bool> feeds(static_cast<std::size_t>(width));
  for (int l = 1; l < layers; ++l) {
    const auto prev_base = static_cast<std::int32_t>((l - 1) * width);
    const auto base = static_cast<std::int32_t>(l * width);
    feeds.assign(feeds.size(), false);
    for (std::int32_t v = base; v < base + width; ++v) {
      for (int k = 0; k < fan_in; ++k) {
        const auto u = static_cast<std::int32_t>(rng.uniform_int(0, width - 1));
        feeds[static_cast<std::size_t>(u)] = true;
        edges.emplace_back(prev_base + u, v);
      }
    }
    // A node no sample picked feeds one random node of the next layer, so
    // the graph is one connected component.
    for (std::int32_t u = 0; u < width; ++u) {
      if (!feeds[static_cast<std::size_t>(u)]) {
        edges.emplace_back(prev_base + u, base + static_cast<std::int32_t>(rng.uniform_int(0, width - 1)));
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return sts::canonical_from_topology(nodes, edges, seed);
}

void append_component(sts::TaskGraph& graph, const sts::TaskGraph& part) {
  using sts::NodeId;
  using sts::NodeKind;
  const auto base = static_cast<NodeId>(graph.node_count());
  for (NodeId v = 0; static_cast<std::size_t>(v) < part.node_count(); ++v) {
    switch (part.kind(v)) {
      case NodeKind::kSource:
        graph.add_source(part.declared_output(v));
        break;
      case NodeKind::kCompute: {
        const NodeId nv = graph.add_compute();
        if (part.declared_output(v) > 0) graph.declare_output(nv, part.declared_output(v));
        break;
      }
      case NodeKind::kBuffer: {
        const NodeId nv = graph.add_buffer();
        if (part.declared_output(v) > 0) graph.declare_output(nv, part.declared_output(v));
        break;
      }
      case NodeKind::kSink:
        graph.add_sink();
        break;
    }
  }
  for (const sts::Edge& edge : part.edges()) {
    graph.add_edge(base + edge.src, base + edge.dst, edge.volume);
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

double tail_percentile(std::vector<double> values, double q) {
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0 || values.size() - rank < 10) {
    throw std::runtime_error("tail_percentile: " + std::to_string(values.size()) +
                             " samples leave fewer than ten beyond p" +
                             std::to_string(q * 100.0));
  }
  std::sort(values.begin(), values.end());
  return values[rank - 1];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void report_spread(const char* workload, const std::vector<double>& round_ops_s) {
  if (round_ops_s.empty()) return;
  std::fprintf(stderr, "%s: %zu rounds, ops/s per round min %.4g median %.4g max %.4g\n", workload,
               round_ops_s.size(), *std::min_element(round_ops_s.begin(), round_ops_s.end()),
               median(round_ops_s), *std::max_element(round_ops_s.begin(), round_ops_s.end()));
}

void report_timings(Report& report, double setup_s, const std::vector<double>& round_ops_s,
                    const std::vector<double>& latency_s,
                    const std::vector<double>& round_cold_mean_s) {
  report.metric("setup_s", setup_s, "s");
  report.metric("throughput_ops_s", median(round_ops_s), "1/s");
  report.metric("latency_p50_ms", 1e3 * median(latency_s), "ms");
  report.metric("cold_latency_ms", 1e3 * median(round_cold_mean_s), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_quality(Report& report, const std::vector<double>& speedups,
                    const std::vector<double>& utilizations, double fifo_slots) {
  report.metric("speedup_geomean", geomean(speedups), "x");
  report.metric("utilization_mean", mean(utilizations), "ratio");
  report.metric("fifo_slots", fifo_slots, "slots");
}

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"core.partition_s", "s"},
    {"core.partition_growth_exponent", "slope"},
    {"core.blocks", "count"},
    {"core.streaming_schedule_s", "s"},
    {"core.buffer_sizing_s", "s"},
    {"metrics.compute_s", "s"},
    {"graph.canonical_partition_index_s", "s"},
    {"support.parallel.lanes2_s", "s"},
    {"support.json.parse_mb_s", "MB/s"},
    {"service.request.from_json_us", "us"},
    {"service.request.key_us", "us"},
    {"graph.canonical_fingerprint_us", "us"},
    {"service.response.to_json_us", "us"},
    {"service.submit_us", "us"},
    {"pipeline.cache.probe_us", "us"},
    {"pipeline.cache.hit_ratio", "ratio"},
    {"pipeline.cache.evictions", "count/1k_req"},
    {"sim.simulate_s", "s"},
    {"sim.ticks_executed", "count"},
    {"sim.bulk_jumps", "count"},
    {"net.roundtrip_us", "us"},
    {"net.transport_us", "us"},
    {"net.server.requests", "count"},
    {"trace.unaccounted_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};

void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      std::fprintf(stderr, "perfbench: could not pin to CPU %d; running unpinned\n", cpu);
    }
    return;
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) fail_run("metric " + name + " is not finite");
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::fill_unmeasured(const std::vector<MetricSpec>& declared) {
  for (const Metric& m : metrics_) {
    const auto it = std::find_if(declared.begin(), declared.end(),
                                 [&](const MetricSpec& d) { return m.name == d.name; });
    if (it == declared.end() || m.unit != it->unit) {
      fail_run("metric " + m.name + " [" + m.unit + "] is not declared with that unit");
    }
  }
  for (const MetricSpec& d : declared) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.name == d.name; });
    if (it == metrics_.end()) metrics_.push_back({d.name, 0.0, d.unit});
  }
}

void Report::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_printed_++ < 20) std::fprintf(stderr, "perfbench: failed operation: %s\n", what.c_str());
}

void Report::fail_run(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: failed check: %s\n", what.c_str());
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) out += ", ";
    first = false;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double timed_setup(int repeats, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    const std::int64_t begin = now_ns();
    setup();
    times.push_back(seconds_between(begin, now_ns()));
  }
  return median(std::move(times));
}

int run_rounds(double seconds, int min_rounds, const std::function<void(int)>& round) {
  const std::int64_t begin = now_ns();
  int rounds = 0;
  while (rounds < min_rounds || seconds_between(begin, now_ns()) < seconds) {
    round(rounds);
    ++rounds;
  }
  return rounds;
}

}  // namespace perfbench
