// wire: the serve_mix traffic sent through a RemoteBackend as POSTs over one
// loopback keep-alive connection to an StsServer in front of a
// ScheduleService. The only workload with the net layer on the path: HTTP
// framing, the epoll loop, the hand-off to the responder, and the client
// lane. Closed loop, one request in flight.

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/remote_backend.hpp"
#include "net/sts_server.hpp"
#include "service/schedule_service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Backend decorator for the traced run: resolves each request on the
/// wrapped service synchronously and remembers when it started and ended,
/// so the client can split its round trip into serve time and transport.
/// The server's responder calls it; one request is in flight at a time.
class TimedBackend final : public sts::ScheduleBackend {
 public:
  explicit TimedBackend(std::shared_ptr<sts::ScheduleBackend> inner) : inner_(std::move(inner)) {}

  sts::ServiceAdmission submit(sts::ScheduleRequest request) override {
    const std::int64_t begin = now_ns();
    sts::ServiceAdmission admission = inner_->submit(std::move(request));
    sts::Settled settled;
    if (admission.accepted()) {
      settled = admission.future.settled();
    } else {
      settled.rejected = admission.rejected;
    }
    const std::int64_t end = now_ns();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      last_ = {begin, end};
    }
    std::promise<sts::Settled> ready;
    ready.set_value(std::move(settled));
    return sts::ServiceAdmission{sts::ServiceFuture(ready.get_future()), std::nullopt};
  }
  void wait_idle() override { inner_->wait_idle(); }
  [[nodiscard]] Snapshot stats_snapshot() const override { return inner_->stats_snapshot(); }
  [[nodiscard]] std::size_t worker_count() const noexcept override { return inner_->worker_count(); }

  /// Start and end of the most recent serve.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> last() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return last_;
  }

 private:
  std::shared_ptr<sts::ScheduleBackend> inner_;
  mutable std::mutex mutex_;
  std::pair<std::int64_t, std::int64_t> last_{0, 0};
};

struct Stack {
  std::shared_ptr<sts::ScheduleService> service;
  std::shared_ptr<TimedBackend> timed;  ///< traced run only
  std::unique_ptr<sts::StsServer> server;
  std::unique_ptr<sts::RemoteBackend> client;

  Stack(bool traced) {
    sts::ServiceConfig config;
    config.num_workers = 1;
    config.cache_capacity = ServeMix::kCacheCapacity;
    config.subgraph_cache_capacity = 0;
    service = std::make_shared<sts::ScheduleService>(config);
    std::shared_ptr<sts::ScheduleBackend> backend = service;
    if (traced) backend = timed = std::make_shared<TimedBackend>(service);
    sts::ServerConfig server_config;
    server_config.responders = 1;
    server = std::make_unique<sts::StsServer>(backend, server_config);
    sts::RemoteConfig remote;
    remote.port = server->port();
    remote.connections = 1;
    client = std::make_unique<sts::RemoteBackend>(remote);
  }
  ~Stack() {
    client.reset();
    if (server) server->stop();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

/// The reply carries only a summary; it must equal the reference computed
/// in process by schedule_by_name on the same graph.
std::string check_reply(const Scenario& s, const sts::ScheduleResponse& response) {
  if (!response.ok()) return "request failed: " + response.error;
  const sts::ScheduleResult& r = *response.result;
  if (r.makespan != s.makespan || r.metrics.speedup != s.speedup ||
      r.metrics.fifo_capacity != s.fifo_capacity) {
    return "reply makespan/speedup/fifo_capacity differ from the in-process schedule";
  }
  if (s.sim_makespan >= 0 && (!r.sim || r.sim->deadlocked || r.sim->makespan != s.sim_makespan)) {
    return "reply simulation differs from the in-process simulation";
  }
  return {};
}

}  // namespace

Report run_wire(const Options& options) {
  Report report;
  pin_to_one_cpu();
  std::unique_ptr<ServeMix> mix;
  std::unique_ptr<Stack> stack;
  const double setup_s = timed_setup(kSetupRepeats, [&] {
    stack.reset();
    mix = std::make_unique<ServeMix>(options.seed);
    stack = std::make_unique<Stack>(options.trace);
    warm(*stack->client, *mix);
  });

  ServeTrace trace;
  Tracer& tracer = trace.tracer;
  std::vector<double> latency_s;          // untraced requests
  std::vector<double> traced_latency_s;   // traced requests (root spans)
  std::vector<double> round_ops_s;        // requests per second of each round
  std::vector<double> round_cold_mean_s;  // mean untraced cold request of each round
  std::int64_t request = 0;
  const std::uint64_t server_requests_before = stack->server->stats().requests;
  const sts::ScheduleCache::Stats cache_before = stack->service->cache().stats();

  const int rounds = run_rounds(options.seconds, 2, [&](int r) {
    const ServeMix::Round round = mix->round(r);
    std::vector<const Scenario*> scenarios;
    std::vector<sts::ScheduleRequest> requests;
    for (const int index : round.order) {
      scenarios.push_back(index >= 0 ? &mix->hot()[static_cast<std::size_t>(index)]
                                     : &round.cold[static_cast<std::size_t>(-index - 1)]);
      requests.push_back(scenarios.back()->request);
    }
    std::vector<sts::ScheduleResponse> responses(requests.size());
    std::vector<double> cold_s;
    const std::int64_t round_begin = now_ns();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ++request;
      const bool traced = options.trace && i % 2 == 0;
      const std::int64_t begin = now_ns();
      if (!traced) {
        responses[i] = stack->client->submit(std::move(requests[i])).wait();
        const double elapsed = seconds_between(begin, now_ns());
        latency_s.push_back(elapsed);
        if (round.order[i] < 0) cold_s.push_back(elapsed);
        continue;
      }
      const std::uint64_t misses_before = stack->service->cache().stats().misses;
      {
        const Scope root(&tracer, "request", request);
        const std::int32_t roundtrip = tracer.open("net.roundtrip", request);
        responses[i] = stack->client->submit(std::move(requests[i])).wait();
        tracer.close(roundtrip);
        const auto [serve_begin, serve_end] = stack->timed->last();
        tracer.record("service.submit", serve_begin, serve_end, roundtrip, request);
      }
      traced_latency_s.push_back(seconds_between(begin, now_ns()));
      trace_shadow_calls(trace, request, *scenarios[i], stack->service->cache(),
                         stack->service->cache().stats().misses != misses_before, &responses[i]);
    }
    round_ops_s.push_back(static_cast<double>(requests.size()) /
                          seconds_between(round_begin, now_ns()));
    round_cold_mean_s.push_back(mean(cold_s));
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const std::string problem = check_reply(*scenarios[i], responses[i]);
      report.operation(problem.empty(), "wire: " + problem);
    }
  });
  const double server_requests =
      static_cast<double>(stack->server->stats().requests - server_requests_before);
  const sts::ScheduleCache::Stats cache_after = stack->service->cache().stats();

  if (options.trace) {
    report_serve_layers(report, trace, cache_before, cache_after,
                        static_cast<double>(rounds) * ServeMix::kRoundSize);
    report.metric("net.roundtrip_us", 1e6 * median(tracer.durations("net.roundtrip")), "us");
    report.metric("net.transport_us", 1e6 * median(tracer.self_seconds("net.roundtrip")), "us");
    report.metric("net.server.requests", server_requests, "count");
    report.metric("trace.unaccounted_share", tracer.unaccounted_share("request"), "ratio");
    report.metric("trace.overhead_share", overhead_share(traced_latency_s, latency_s), "ratio");
    report.fill_unmeasured(kPerLayerMetrics);
    if (!options.trace_out.empty()) {
      tracer.write(options.trace_out, "wire-" + std::to_string(options.seed) + ".json");
    }
    return report;
  }

  report_spread("wire", round_ops_s);
  report_timings(report, setup_s, round_ops_s, latency_s, round_cold_mean_s);
  // Every reply's makespan, speedup and FIFO capacity were checked equal to
  // its reference's (the reply carries no utilization), so the hot set's
  // reference quality is that of the schedules the client was served.
  report_hot_set_quality(*mix, report);
  return report;
}

}  // namespace perfbench
