// serve_mix: a closed loop (one client, one request in flight) over an
// in-process ScheduleService. Each request is an inline-graph envelope held
// as JSON text: decoded with ScheduleRequest::from_json, submitted, and
// answered with ScheduleResponse::to_json. Most requests hit the
// ScheduleCache, so the codec, key(), the cache probe and the submit path
// dominate; cold requests and evictions put the core passes and the
// simulator into the tail.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/serialization.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/result_fingerprint.hpp"
#include "service/schedule_service.hpp"
#include "sim/dataflow_sim.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"
#include "workloads.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {
namespace {

struct Topology {
  std::function<sts::TaskGraph(std::uint64_t)> make;
  std::int64_t pes[4];
};

/// The paper's evaluation topologies (Section 7.1) and PE sweeps, in the
/// fixed order the popularity ranks cycle through.
const std::vector<Topology>& topologies() {
  static const std::vector<Topology> kTopologies = {
      {[](std::uint64_t s) { return sts::make_fft(32, s); }, {32, 64, 96, 128}},
      {[](std::uint64_t s) { return sts::make_gaussian_elimination(16, s); }, {32, 64, 96, 128}},
      {[](std::uint64_t s) { return sts::make_cholesky(8, s); }, {32, 64, 96, 128}},
      {[](std::uint64_t s) { return sts::make_chain(8, s); }, {2, 4, 6, 8}},
  };
  return kTopologies;
}

enum class Kind { kRlx, kList, kRlxSim };

Scenario make_scenario(const sts::TaskGraph& graph, std::int64_t pes, Kind kind) {
  Scenario s;
  s.request.graph = graph;
  s.request.scheduler = kind == Kind::kList ? "list" : "streaming-rlx";
  s.request.machine.num_pes = pes;
  if (kind == Kind::kRlxSim) s.request.sim = sts::SimOptions{};
  s.envelope = s.request.to_json();
  s.key = s.request.key();
  sts::ScheduleResult reference = sts::schedule_by_name(s.request.scheduler, graph, s.request.machine);
  if (s.request.sim) {
    reference.sim =
        sts::simulate_streaming(graph, *reference.streaming, *reference.buffers, *s.request.sim);
    s.sim_makespan = reference.sim->makespan;
  }
  s.fingerprint = sts::result_fingerprint(reference);
  s.makespan = reference.makespan;
  s.speedup = reference.metrics.speedup;
  s.utilization = reference.metrics.utilization;
  s.fifo_capacity = reference.metrics.fifo_capacity;
  return s;
}

/// Zipf exponent of the hot-set popularity.
constexpr double kZipf = 1.0;

/// Scenario class of each popularity rank within a topology: eight rlx, eight
/// list and two simulated slots, the same for every run seed, so every seed
/// puts the same popularity mass on each class.
constexpr char kClassByRank[] = "RLRSLRLRLRLRSLRLRL";

}  // namespace

ServeMix::ServeMix(std::uint64_t seed) : seed_(seed) {
  // Per topology: two graphs x PE sweep x {rlx, list}, plus simulated rlx on
  // the first graph at the two smallest PE counts. The run seed shuffles the
  // scenarios of each class over that class's rank slots; ranks then
  // interleave the topologies in their fixed order.
  const std::vector<Topology>& topos = topologies();
  sts::Prng rng(mix_seed(seed, 7));
  const auto shuffle = [&](std::vector<int>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
  };
  const std::size_t per = sizeof(kClassByRank) - 1;
  hot_.resize(per * topos.size());
  for (std::size_t t = 0; t < topos.size(); ++t) {
    // Candidates per class, identified by (graph, PE index) = 4 * g + p.
    std::vector<int> rlx, list, sim;
    for (int id = 0; id < 8; ++id) {
      rlx.push_back(id);
      list.push_back(id);
    }
    sim = {0, 1};
    shuffle(rlx);
    shuffle(list);
    shuffle(sim);
    // Fixed graph seeds: the hot set is the evaluation set the quality
    // metrics are taken over, the same for every run seed.
    const sts::TaskGraph graphs[2] = {topos[t].make(1), topos[t].make(2)};
    std::vector<int> rlx_rank(8), list_rank(8);
    std::size_t next_rlx = 0, next_list = 0, next_sim = 0;
    for (std::size_t k = 0; k < per; ++k) {
      const std::size_t rank = k * topos.size() + t;
      const char cls = kClassByRank[k];
      const int id = cls == 'R' ? rlx[next_rlx++] : cls == 'L' ? list[next_list++] : sim[next_sim++];
      const Kind kind = cls == 'R' ? Kind::kRlx : cls == 'L' ? Kind::kList : Kind::kRlxSim;
      hot_[rank] = make_scenario(graphs[id / 4], topos[t].pes[id % 4], kind);
      if (cls == 'R') rlx_rank[static_cast<std::size_t>(id)] = static_cast<int>(rank);
      if (cls == 'L') list_rank[static_cast<std::size_t>(id)] = static_cast<int>(rank);
    }
    for (std::size_t id = 0; id < 8; ++id) pairs_.emplace_back(rlx_rank[id], list_rank[id]);
  }
  double total = 0.0;
  for (std::size_t r = 0; r < hot_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

ServeMix::Round ServeMix::round(int round) const {
  Round out;
  const std::vector<Topology>& topos = topologies();
  sts::Prng rng(mix_seed(seed_, 2'000'000 + static_cast<std::uint64_t>(round)));
  for (int i = 0; i < kRoundSize; ++i) {
    if (i % kColdEvery == kColdEvery - 1) {
      // Cold request k of this round: topology and PE count cycle, and the
      // class cycles rlx, rlx, list, sim, sim (2% of all requests simulate).
      const int k = i / kColdEvery;
      const std::size_t t = static_cast<std::size_t>(k) % topos.size();
      const Kind kind = (k % 5 < 2) ? Kind::kRlx : (k % 5 == 2 ? Kind::kList : Kind::kRlxSim);
      const std::uint64_t graph_seed =
          mix_seed(seed_, 3'000'000 + 1000 * static_cast<std::uint64_t>(round) + static_cast<std::uint64_t>(k));
      out.cold.push_back(make_scenario(topos[t].make(graph_seed), topos[t].pes[(k / 4) % 4], kind));
      out.order.push_back(-static_cast<int>(out.cold.size()));
    } else {
      const double u = rng.uniform();
      const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
      out.order.push_back(static_cast<int>(std::min<std::ptrdiff_t>(
          it - cumulative_.begin(), static_cast<std::ptrdiff_t>(hot_.size()) - 1)));
    }
  }
  return out;
}

std::string check_answer(const Scenario& scenario, const sts::ScheduleResult& result) {
  if (scenario.sim_makespan >= 0) {
    if (!result.sim) return "simulated request came back without a simulation";
    if (result.sim->deadlocked) return "simulation deadlocked under the Eq. 5 FIFO sizes";
    if (result.sim->tick_limit_reached) return "simulation hit its tick limit";
  }
  if (sts::result_fingerprint(result) != scenario.fingerprint) {
    return "result differs from the reference schedule_by_name";
  }
  return {};
}

void warm(sts::ScheduleBackend& backend, const ServeMix& mix) {
  for (auto it = mix.hot().rbegin(); it != mix.hot().rend(); ++it) {
    if (!backend.schedule(it->request).ok()) throw std::runtime_error("warming request failed");
  }
}

void report_hot_set_quality(const ServeMix& mix, Report& report) {
  std::vector<double> rlx;
  std::vector<double> list;
  std::vector<double> utilizations;
  double fifo = 0.0;
  for (const auto& [r, l] : mix.pairs()) {
    const Scenario& a = mix.hot()[static_cast<std::size_t>(r)];
    rlx.push_back(a.speedup);
    list.push_back(mix.hot()[static_cast<std::size_t>(l)].speedup);
    utilizations.push_back(a.utilization);
    fifo += static_cast<double>(a.fifo_capacity);
  }
  const double rlx_geomean = geomean(rlx);
  const double list_geomean = geomean(list);
  if (!(rlx_geomean > list_geomean)) {
    report.fail_run("streaming-rlx geomean speedup " + std::to_string(rlx_geomean) +
                    " is not above list's " + std::to_string(list_geomean));
  }
  std::fprintf(stderr, "hot set: geomean speedup streaming-rlx %.3f, list %.3f\n", rlx_geomean,
               list_geomean);
  report_quality(report, rlx, utilizations, fifo);
}

void trace_shadow_calls(ServeTrace& trace, std::int64_t request, const Scenario& s,
                        const sts::ScheduleCache& cache, bool missed,
                        const sts::ScheduleResponse* response) {
  Tracer& tracer = trace.tracer;
  if (response != nullptr) {
    sts::ScheduleRequest decoded;
    {
      const Scope span(&tracer, "service.request.from_json", request);
      decoded = sts::ScheduleRequest::from_json(s.envelope);
    }
    {
      const Scope span(&tracer, "service.request.key", request);
      (void)decoded.key();
    }
    const Scope span(&tracer, "service.response.to_json", request);
    (void)response->to_json();
  }
  {
    const std::int64_t parse_begin = now_ns();
    {
      const Scope span(&tracer, "support.json.parse", request);
      (void)sts::parse_json(s.envelope);
    }
    trace.parse_s += seconds_between(parse_begin, now_ns());
    trace.parsed_bytes += static_cast<double>(s.envelope.size());
  }
  {
    const Scope span(&tracer, "graph.canonical_fingerprint", request);
    (void)sts::canonical_fingerprint(s.request.graph);
  }
  {
    const Scope span(&tracer, "pipeline.cache.probe", request);
    (void)cache.contains(s.key);
  }
  if (!missed || s.request.scheduler != "streaming-rlx") return;
  sts::ScheduleResult replay;
  {
    const Scope root(&tracer, "miss_replay", request);
    replay = replay_streaming_rlx(s.request.graph, s.request.machine.num_pes, tracer, request, 0);
  }
  trace.blocks.push_back(static_cast<double>(replay.streaming->partition.block_count()));
  if (!s.request.sim) return;
  sts::SimResult sim;
  {
    const Scope span(&tracer, "sim.simulate", request);
    sim = sts::simulate_streaming(s.request.graph, *replay.streaming, *replay.buffers, *s.request.sim);
  }
  trace.sim_ticks.push_back(static_cast<double>(sim.ticks_executed));
  trace.sim_jumps.push_back(static_cast<double>(sim.bulk_jumps));
}

void report_serve_layers(Report& report, const ServeTrace& trace,
                         const sts::ScheduleCache::Stats& before,
                         const sts::ScheduleCache::Stats& after, double served) {
  const Tracer& tracer = trace.tracer;
  const auto us = [&](const char* name) { return 1e6 * median(tracer.self_seconds(name)); };
  const auto s = [&](const char* name) { return median(tracer.self_seconds(name)); };
  const double lookups = static_cast<double>((after.hits - before.hits) +
                                             (after.misses - before.misses) +
                                             (after.races - before.races));
  report.metric("support.json.parse_mb_s",
                trace.parse_s > 0.0 ? trace.parsed_bytes / trace.parse_s / 1e6 : 0.0, "MB/s");
  report.metric("service.request.from_json_us", us("service.request.from_json"), "us");
  report.metric("service.request.key_us", us("service.request.key"), "us");
  report.metric("graph.canonical_fingerprint_us", us("graph.canonical_fingerprint"), "us");
  report.metric("service.response.to_json_us", us("service.response.to_json"), "us");
  report.metric("service.submit_us", us("service.submit"), "us");
  report.metric("pipeline.cache.probe_us", us("pipeline.cache.probe"), "us");
  report.metric("pipeline.cache.hit_ratio",
                lookups > 0.0 ? static_cast<double>(after.hits - before.hits) / lookups : 0.0,
                "ratio");
  report.metric("pipeline.cache.evictions",
                1000.0 * static_cast<double>(after.evictions - before.evictions) / served,
                "count/1k_req");
  report.metric("core.partition_s", s("core.partition"), "s");
  report.metric("core.blocks", median(trace.blocks), "count");
  report.metric("core.streaming_schedule_s", s("core.streaming_schedule"), "s");
  report.metric("core.buffer_sizing_s", s("core.buffer_sizing"), "s");
  report.metric("metrics.compute_s", s("metrics.compute"), "s");
  report.metric("graph.canonical_partition_index_s", s("graph.canonical_partition_index"), "s");
  report.metric("sim.simulate_s", s("sim.simulate"), "s");
  report.metric("sim.ticks_executed", median(trace.sim_ticks), "count");
  report.metric("sim.bulk_jumps", median(trace.sim_jumps), "count");
}

namespace {

sts::ServiceConfig service_config() {
  sts::ServiceConfig config;
  config.num_workers = 2;
  config.cache_capacity = ServeMix::kCacheCapacity;
  config.subgraph_cache_capacity = 0;
  return config;
}

}  // namespace

Report run_serve_mix(const Options& options) {
  Report report;
  pin_to_one_cpu();
  std::unique_ptr<ServeMix> mix;
  std::unique_ptr<sts::ScheduleService> service;
  const double setup_s = timed_setup(kSetupRepeats, [&] {
    service.reset();
    mix = std::make_unique<ServeMix>(options.seed);
    service = std::make_unique<sts::ScheduleService>(service_config());
    warm(*service, *mix);
  });
  // The quality metrics come from the reference answers: every hot scenario
  // must be served exactly its reference, so those are the served values.
  for (const Scenario& s : mix->hot()) {
    const sts::ScheduleResponse response = service->schedule(s.request);
    report.operation(response.ok() && check_answer(s, *response.result).empty(),
                     "serve_mix hot scenario answer differs from its reference");
  }

  ServeTrace trace;
  Tracer& tracer = trace.tracer;
  std::vector<double> latency_s;         // untraced requests
  std::vector<double> traced_latency_s;  // traced requests (root spans)
  std::vector<double> round_ops_s;       // requests per second of each round
  std::vector<double> round_cold_mean_s; // mean untraced cold request of each round
  std::int64_t request = 0;
  std::int64_t cold = 0, simulated = 0, listed = 0;
  const sts::ScheduleCache::Stats cache_before = service->cache().stats();

  struct Answer {
    const Scenario* scenario;
    bool key_matches;
    sts::ScheduleResponse response;
  };
  std::vector<Answer> answers;
  answers.reserve(ServeMix::kRoundSize);

  const int rounds = run_rounds(options.seconds, 2, [&](int r) {
    const ServeMix::Round round = mix->round(r);
    answers.clear();
    std::vector<double> cold_s;
    const std::int64_t round_begin = now_ns();
    for (std::size_t i = 0; i < round.order.size(); ++i) {
      const int index = round.order[i];
      const Scenario& s = index >= 0 ? mix->hot()[static_cast<std::size_t>(index)]
                                     : round.cold[static_cast<std::size_t>(-index - 1)];
      ++request;
      const bool traced = options.trace && i % 2 == 0;
      if (!traced) {
        const std::int64_t begin = now_ns();
        sts::ScheduleRequest decoded = sts::ScheduleRequest::from_json(s.envelope);
        const bool key_matches = decoded.key() == s.key;
        sts::ScheduleResponse response = service->submit(std::move(decoded)).wait();
        const std::string body = response.to_json();
        const double elapsed = seconds_between(begin, now_ns());
        latency_s.push_back(elapsed);
        if (index < 0) cold_s.push_back(elapsed);
        answers.push_back({&s, key_matches && !body.empty(), std::move(response)});
        continue;
      }
      const std::uint64_t misses_before = service->cache().stats().misses;
      const std::int64_t begin = now_ns();
      bool key_matches = false;
      sts::ScheduleResponse response;
      {
        const Scope root(&tracer, "request", request);
        sts::ScheduleRequest decoded;
        {
          const Scope span(&tracer, "service.request.from_json", request);
          decoded = sts::ScheduleRequest::from_json(s.envelope);
        }
        {
          const Scope span(&tracer, "service.request.key", request);
          key_matches = decoded.key() == s.key;
        }
        {
          const Scope span(&tracer, "service.submit", request);
          response = service->submit(std::move(decoded)).wait();
        }
        const Scope span(&tracer, "service.response.to_json", request);
        key_matches = key_matches && !response.to_json().empty();
      }
      traced_latency_s.push_back(seconds_between(begin, now_ns()));
      trace_shadow_calls(trace, request, s, service->cache(),
                         service->cache().stats().misses != misses_before);
      answers.push_back({&s, key_matches, std::move(response)});
    }
    round_ops_s.push_back(static_cast<double>(round.order.size()) /
                          seconds_between(round_begin, now_ns()));
    round_cold_mean_s.push_back(mean(cold_s));
    // Checks, outside the timed loop.
    for (const Answer& a : answers) {
      std::string problem;
      if (!a.key_matches) problem = "decoded envelope key differs from the in-memory request's";
      else if (!a.response.ok()) problem = "request failed: " + a.response.error;
      else problem = check_answer(*a.scenario, *a.response.result);
      report.operation(problem.empty(), "serve_mix: " + problem);
    }
    cold += static_cast<std::int64_t>(round.cold.size());
    for (const int index : round.order) {
      const Scenario& s = index >= 0 ? mix->hot()[static_cast<std::size_t>(index)]
                                     : round.cold[static_cast<std::size_t>(-index - 1)];
      if (s.request.sim) ++simulated;
      if (s.request.scheduler == "list") ++listed;
    }
  });

  const sts::ScheduleCache::Stats cache_after = service->cache().stats();
  const double served = static_cast<double>(rounds) * ServeMix::kRoundSize;
  std::fprintf(stderr,
               "serve_mix: %d rounds, %.0f requests: %.1f%% cold, %.1f%% simulated, %.1f%% list, "
               "%llu cache hits, %llu misses, %llu evictions\n",
               rounds, served, 100.0 * static_cast<double>(cold) / served,
               100.0 * static_cast<double>(simulated) / served,
               100.0 * static_cast<double>(listed) / served,
               static_cast<unsigned long long>(cache_after.hits - cache_before.hits),
               static_cast<unsigned long long>(cache_after.misses - cache_before.misses),
               static_cast<unsigned long long>(cache_after.evictions - cache_before.evictions));

  if (options.trace) {
    report_serve_layers(report, trace, cache_before, cache_after, served);
    report.metric("trace.unaccounted_share", tracer.unaccounted_share("request"), "ratio");
    report.metric("trace.overhead_share", overhead_share(traced_latency_s, latency_s), "ratio");
    report.fill_unmeasured(kPerLayerMetrics);
    if (!options.trace_out.empty()) {
      tracer.write(options.trace_out, "serve_mix-" + std::to_string(options.seed) + ".json");
    }
    return report;
  }

  report_spread("serve_mix", round_ops_s);
  report_timings(report, setup_s, round_ops_s, latency_s, round_cold_mean_s);
  report_hot_set_quality(*mix, report);
  return report;
}

}  // namespace perfbench
