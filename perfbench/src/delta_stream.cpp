// delta_stream: a closed loop over a ScheduleService with the SubgraphCache
// on. The base graph has 10^5 nodes in 100 connected components. Eight of
// every ten requests are deltas (base_key plus a one-node edit, sent as a
// JSON envelope); the other two are whole in-memory requests that keep 90 of
// the base's components and replace 10 with components never seen before.
// Every request writes (a new base in the registry, fresh fragments for the
// partitions it touches) and reads (every untouched fragment), so graph
// canonicalization, the PartitionCanonMemo, the SubgraphCache and GraphEdit
// are all on the path.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph_edit.hpp"
#include "graph/serialization.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/result_fingerprint.hpp"
#include "pipeline/subgraph_cache.hpp"
#include "service/schedule_service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kComponents = 100;
constexpr int kLayers = 25;
constexpr int kWidth = 40;
constexpr int kFanIn = 3;
constexpr std::int64_t kPes = 64;
constexpr int kRoundSize = 10;
/// Positions of the whole requests within a round; the rest are deltas.
constexpr bool is_whole(int position) { return position % 5 == 4; }
/// Each whole request replaces every kReplaceEvery-th component.
constexpr int kReplaceEvery = 10;

sts::MachineConfig machine() {
  sts::MachineConfig m;
  m.num_pes = kPes;
  return m;
}

struct Base {
  std::vector<sts::TaskGraph> components;
  sts::TaskGraph graph;
  std::string digest;
  /// Per component: one exit compute node (no successors, declared output),
  /// the node a delta retunes.
  std::vector<sts::NodeId> exit_of;
};

Base make_base(std::uint64_t seed) {
  Base base;
  for (int c = 0; c < kComponents; ++c) {
    base.components.push_back(
        make_layered(kLayers, kWidth, kFanIn, mix_seed(seed, 5000 + static_cast<std::uint64_t>(c))));
  }
  for (const sts::TaskGraph& part : base.components) {
    const auto offset = static_cast<sts::NodeId>(base.graph.node_count());
    append_component(base.graph, part);
    sts::NodeId exit = -1;
    for (sts::NodeId v = 0; exit < 0 && static_cast<std::size_t>(v) < part.node_count(); ++v) {
      if (part.kind(v) == sts::NodeKind::kCompute && part.out_degree(v) == 0 &&
          part.declared_output(v) > 0) {
        exit = offset + v;
      }
    }
    if (exit < 0) throw std::runtime_error("delta_stream: component without an exit compute node");
    base.exit_of.push_back(exit);
  }
  (void)base.graph.profiles();
  sts::ScheduleRequest request;
  request.graph = base.graph;
  request.machine = machine();
  base.digest = request.key_digest();
  return base;
}

sts::ServiceConfig service_config() {
  sts::ServiceConfig config;
  config.num_workers = 2;
  // Whole-result entries weigh 10^5 each: room for a few, never a hit in
  // this stream (every request is new), so keep the memory small.
  config.cache_capacity = 400'000;
  config.base_registry_capacity = 8;
  // Room for the base's fragments plus as many again: every request touches
  // every base fragment, so only fragments no later request reads age out,
  // and the resident set stops growing after the first few rounds.
  config.subgraph_cache_capacity = 200'000;
  return config;
}

/// One request of a round, prepared before the timed loop.
struct Prepared {
  bool whole = false;
  std::string envelope;                 ///< delta: the JSON envelope
  std::vector<sts::GraphEdit> edits;    ///< delta: its edit list
  sts::ScheduleRequest request;         ///< whole: the in-memory request
  std::shared_ptr<const sts::TaskGraph> check_graph;  ///< set when sampled
};

/// The one-node edit of delta `index`: retune the exit output of a component
/// chosen by a stride walk, by a factor unique to the delta (so no delta
/// repeats an earlier request and hits the whole-result cache).
std::vector<sts::GraphEdit> delta_edits(const Base& base, std::int64_t index) {
  const auto c = static_cast<std::size_t>((index * 37) % kComponents);
  const sts::NodeId v = base.exit_of[c];
  return {sts::GraphEdit{sts::GraphEdit::Op::kSetOutput, sts::NodeKind::kCompute, v, -1, -1,
                         base.graph.declared_output(v) * (2 + index), ""}};
}

sts::TaskGraph whole_graph(const Base& base, std::uint64_t seed, std::int64_t index) {
  sts::TaskGraph graph;
  for (int c = 0; c < kComponents; ++c) {
    if ((c + index) % kReplaceEvery == 0) {
      append_component(graph, make_layered(kLayers, kWidth, kFanIn,
                                           mix_seed(seed, 9'000'000 + 1000 * static_cast<std::uint64_t>(index) +
                                                              static_cast<std::uint64_t>(c))));
    } else {
      append_component(graph, base.components[static_cast<std::size_t>(c)]);
    }
  }
  (void)graph.profiles();
  return graph;
}

std::vector<Prepared> prepare_round(const Base& base, std::uint64_t seed, int round) {
  std::vector<Prepared> out(kRoundSize);
  for (int i = 0; i < kRoundSize; ++i) {
    Prepared& p = out[static_cast<std::size_t>(i)];
    const std::int64_t index = static_cast<std::int64_t>(round) * kRoundSize + i;
    // Seeded sample: in round 0, one delta and one whole request are checked
    // against a cold schedule of the same graph built here.
    const bool sampled = round == 0 && (is_whole(i) ? i == 4 : i == static_cast<int>(seed % 4));
    p.whole = is_whole(i);
    if (p.whole) {
      p.request.graph = whole_graph(base, seed, index);
      p.request.machine = machine();
      if (sampled) p.check_graph = std::make_shared<const sts::TaskGraph>(p.request.graph);
    } else {
      p.edits = delta_edits(base, index);
      sts::ScheduleRequest delta;
      delta.base_key = base.digest;
      delta.edits = p.edits;
      delta.machine = machine();
      p.envelope = delta.to_json();
      if (sampled) {
        p.check_graph = std::make_shared<const sts::TaskGraph>(sts::apply_graph_edits(base.graph, p.edits));
      }
    }
  }
  return out;
}

std::string check_result(const sts::TaskGraph* graph, std::size_t nodes,
                         const sts::ScheduleResponse& response) {
  if (!response.ok()) return "request failed: " + response.error;
  const sts::ScheduleResult& r = *response.result;
  if (!r.streaming || r.streaming->timing.size() != nodes) return "no whole-graph streaming schedule";
  const sts::ScheduleMetrics& m = r.metrics;
  if (r.makespan <= 0 || !(m.speedup > 0.0 && m.speedup <= static_cast<double>(kPes)) ||
      !(m.utilization > 0.0 && m.utilization <= 1.0)) {
    return "schedule metrics out of range";
  }
  if (graph != nullptr && sts::result_fingerprint(r) !=
                              sts::result_fingerprint(sts::schedule_by_name("streaming-rlx", *graph, machine()))) {
    return "result differs from a cold schedule_by_name of the same graph";
  }
  return {};
}

}  // namespace

Report run_delta_stream(const Options& options) {
  Report report;
  std::unique_ptr<Base> base;
  std::unique_ptr<sts::ScheduleService> service;
  const double setup_s = timed_setup(kSetupRepeats, [&] {
    service.reset();
    base = std::make_unique<Base>(make_base(options.seed));
    service = std::make_unique<sts::ScheduleService>(service_config());
    sts::ScheduleRequest request;
    request.graph = base->graph;
    request.machine = machine();
    if (!service->schedule(std::move(request)).ok()) {
      throw std::runtime_error("delta_stream: base request failed");
    }
  });

  // The traced run replays each traced request's scheduling on a shadow
  // fragment cache warmed the same way as the service's.
  Tracer tracer;
  std::unique_ptr<sts::SubgraphCache> shadow;
  if (options.trace) {
    shadow = std::make_unique<sts::SubgraphCache>();
    (void)sts::schedule_with_subgraph_cache("streaming-rlx", base->graph, machine(), *shadow);
  }
  std::vector<double> latency_s;
  std::vector<double> traced_latency_s;
  std::vector<double> round_ops_s;  // requests per second of each round
  std::int64_t request = 0;
  const sts::ServiceStats before = service->stats();
  const std::size_t base_nodes = base->graph.node_count();

  run_rounds(options.seconds, 20, [&](int r) {
    std::vector<Prepared> round = prepare_round(*base, options.seed, r);
    std::vector<sts::ScheduleResponse> responses(round.size());
    std::vector<std::size_t> nodes(round.size(), base_nodes);
    const std::int64_t round_begin = now_ns();
    for (std::size_t i = 0; i < round.size(); ++i) {
      Prepared& p = round[i];
      if (p.whole) nodes[i] = p.request.graph.node_count();
      ++request;
      const bool traced = options.trace && i % 2 == 0;
      sts::TaskGraph whole;  // traced whole requests keep their graph for the replay
      if (traced && p.whole) whole = p.request.graph;
      const std::int64_t begin = now_ns();
      {
        const Scope root(traced ? &tracer : nullptr, "request", request);
        sts::ScheduleRequest submitted;
        if (p.whole) {
          submitted = std::move(p.request);
        } else {
          const Scope span(traced ? &tracer : nullptr, "service.request.from_json", request);
          submitted = sts::ScheduleRequest::from_json(p.envelope);
        }
        {
          const Scope span(traced ? &tracer : nullptr, "service.submit", request);
          responses[i] = service->submit(std::move(submitted)).wait();
        }
        const Scope span(traced ? &tracer : nullptr, "service.response.to_json", request);
        (void)responses[i].to_json();
      }
      (traced ? traced_latency_s : latency_s).push_back(seconds_between(begin, now_ns()));
      if (!traced) continue;
      if (!p.whole) {
        const Scope span(&tracer, "graph.edit_apply", request);
        whole = sts::apply_graph_edits(base->graph, p.edits);
      }
      const Scope span(&tracer, "pipeline.subgraph.schedule", request);
      (void)sts::schedule_with_subgraph_cache("streaming-rlx", whole, machine(), *shadow, !p.whole);
    }
    round_ops_s.push_back(static_cast<double>(round.size()) / seconds_between(round_begin, now_ns()));
    if (options.trace) {
      const Scope span(&tracer, "graph.canonical_partition_index", request);
      (void)sts::canonical_partition_index(base->graph);
    }
    for (std::size_t i = 0; i < round.size(); ++i) {
      const std::string problem = check_result(round[i].check_graph.get(), nodes[i], responses[i]);
      report.operation(problem.empty(), "delta_stream round " + std::to_string(r) + ": " + problem);
    }
  });

  const sts::ServiceStats after = service->stats();
  const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  const double hits = delta(before.subgraph.partition_hits, after.subgraph.partition_hits);
  const double misses = delta(before.subgraph.partition_misses, after.subgraph.partition_misses);
  const double canon_hits = delta(before.canon.hits, after.canon.hits);
  const double canon_misses = delta(before.canon.misses, after.canon.misses);
  const double requests = static_cast<double>(request);
  std::fprintf(stderr,
               "delta_stream: %.0f requests, partition hit ratio %.3f, canon memo hit ratio %.3f\n",
               requests, hits / (hits + misses), canon_hits / (canon_hits + canon_misses));

  if (options.trace) {
    report.metric("graph.edit_apply_us", 1e6 * median(tracer.self_seconds("graph.edit_apply")), "us");
    report.metric("graph.canonical_partition_index_s",
                  median(tracer.self_seconds("graph.canonical_partition_index")), "s");
    report.metric("pipeline.subgraph.schedule_s",
                  median(tracer.self_seconds("pipeline.subgraph.schedule")), "s");
    report.metric("pipeline.subgraph.partition_hit_ratio", hits / (hits + misses), "ratio");
    report.metric("pipeline.subgraph.fragments_assembled",
                  delta(before.subgraph.fragments_assembled, after.subgraph.fragments_assembled) / requests,
                  "count/req");
    report.metric("pipeline.canon_memo.hit_ratio", canon_hits / (canon_hits + canon_misses), "ratio");
    report.metric("service.submit_us", 1e6 * median(tracer.self_seconds("service.submit")), "us");
    report.metric("trace.unaccounted_share", tracer.unaccounted_share("request"), "ratio");
    report.metric("trace.overhead_share", overhead_share(traced_latency_s, latency_s), "ratio");
    if (!options.trace_out.empty()) {
      tracer.write(options.trace_out, "delta_stream-" + std::to_string(options.seed) + ".json");
    }
    return report;
  }

  report.metric("setup_s", setup_s, "s");
  report.metric("throughput_ops_s", median(round_ops_s), "1/s");
  report_spread("delta_stream", round_ops_s);
  report.metric("latency_p50_ms", 1e3 * median(latency_s), "ms");
  report.metric("latency_p95_ms", 1e3 * tail_percentile(latency_s, 0.95), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

}  // namespace perfbench
