#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "pipeline/schedule_cache.hpp"
#include "pipeline/scheduler.hpp"
#include "service/backend.hpp"
#include "service/request.hpp"
#include "trace.hpp"

namespace perfbench {

[[nodiscard]] Report run_cold_large(const Options& options);
[[nodiscard]] Report run_serve_mix(const Options& options);
[[nodiscard]] Report run_delta_stream(const Options& options);
[[nodiscard]] Report run_wire(const Options& options);

/// The streaming-rlx pipeline at `pes` as direct calls into each layer, one
/// span per call (pipeline.validate, graph.canonical_partition_index,
/// core.partition, core.streaming_schedule, core.buffer_sizing,
/// metrics.compute), packed into the ScheduleResult the pipeline returns.
[[nodiscard]] sts::ScheduleResult replay_streaming_rlx(const sts::TaskGraph& graph,
                                                       std::int64_t pes, Tracer& tracer,
                                                       std::int64_t request, std::int64_t tag);

/// One serve_mix scenario: the in-memory request, its JSON envelope and key,
/// and the answer computed apart from the serving path (schedule_by_name,
/// plus simulate_streaming when the request asks for simulation).
struct Scenario {
  sts::ScheduleRequest request;
  std::string envelope;
  std::string key;
  std::uint64_t fingerprint = 0;
  std::int64_t makespan = 0;
  double speedup = 0.0;
  double utilization = 0.0;
  std::int64_t fifo_capacity = 0;
  std::int64_t sim_makespan = -1;  ///< -1 when the request does not simulate
};

/// The serve_mix traffic, shared with the wire workload. See README.md for
/// the shares; in short, per round of kRoundSize requests:
///   - every kColdEvery-th request is a scenario never seen before (cold),
///     cycling through the four paper topologies and their PE sweeps, split
///     into plain streaming-rlx, `list`, and simulated streaming-rlx;
///   - the rest draw from a hot set that is the same for every run seed
///     (paper topologies x graph seeds 1, 2 x PE sweep x {streaming-rlx,
///     list}, plus simulated variants) under a Zipf popularity whose rank
///     order interleaves the topologies in a fixed order, so every run seed
///     puts the same mass on each topology; the run seed orders the
///     scenarios within a topology and makes the cold requests.
class ServeMix {
 public:
  static constexpr int kRoundSize = 1000;
  static constexpr int kColdEvery = 20;
  /// Cache capacity in graph nodes, below the hot set's total weight, so
  /// the least popular hot scenarios are evicted and recomputed.
  static constexpr std::size_t kCacheCapacity = 6000;

  explicit ServeMix(std::uint64_t seed);

  [[nodiscard]] const std::vector<Scenario>& hot() const { return hot_; }

  /// Requests of round `round`: `order[i]` indexes hot() when >= 0 and
  /// `cold[-order[i] - 1]` otherwise.
  struct Round {
    std::vector<Scenario> cold;
    std::vector<int> order;
  };
  [[nodiscard]] Round round(int round) const;

  /// Scenario pairs (streaming-rlx, list) on the same graph and PE count
  /// within the hot set, as indexes into hot().
  [[nodiscard]] const std::vector<std::pair<int, int>>& pairs() const { return pairs_; }

 private:
  std::uint64_t seed_;
  std::vector<Scenario> hot_;
  std::vector<double> cumulative_;  ///< Zipf CDF over hot_ (hot_ is in rank order)
  std::vector<std::pair<int, int>> pairs_;
};

/// Submits every hot scenario of `mix` once, least popular first, so the
/// most popular ones are the most recently used when the timed loop starts.
void warm(sts::ScheduleBackend& backend, const ServeMix& mix);

/// Speedup, utilization and FIFO capacity of the streaming-rlx scenarios of
/// the hot set (the same for every run seed), with the paper's check that
/// streaming beats the list baseline on the same graphs and PE counts
/// (Fig. 10); a failed check fails the run.
void report_hot_set_quality(const ServeMix& mix, Report& report);

/// What a traced serve-path run gathers beside its spans.
struct ServeTrace {
  Tracer tracer;
  double parsed_bytes = 0.0;
  double parse_s = 0.0;
  std::vector<double> blocks;     ///< per streaming-rlx miss replay
  std::vector<double> sim_ticks;  ///< per simulated miss
  std::vector<double> sim_jumps;
};

/// Times, apart from request `request` and on its inputs, the layers the
/// serving path gives no boundary to time at: parse_json of the envelope,
/// canonical_fingerprint of the graph, a probe of `cache`, and, when the
/// request `missed` the cache and asks for streaming-rlx, the layer replay
/// plus simulate_streaming. With a `response`, the request codec ran out of
/// reach (on the server), so from_json, key() and the response's to_json
/// are timed here too.
void trace_shadow_calls(ServeTrace& trace, std::int64_t request, const Scenario& scenario,
                        const sts::ScheduleCache& cache, bool missed,
                        const sts::ScheduleResponse* response = nullptr);

/// The serve-path per-layer metrics shared by serve_mix and wire: codec,
/// key, fingerprint, submit, cache, and the core, metrics and sim passes of
/// the misses. `served` is the number of requests of the timed rounds.
void report_serve_layers(Report& report, const ServeTrace& trace,
                         const sts::ScheduleCache::Stats& before,
                         const sts::ScheduleCache::Stats& after, double served);

/// Empty when `result` is the answer `scenario` expects (same fingerprint;
/// a simulated request finished without deadlock), else what differs.
[[nodiscard]] std::string check_answer(const Scenario& scenario, const sts::ScheduleResult& result);

}  // namespace perfbench
