// E-FL — Flight-recorder overhead: the tail-latency forensics tap must be
// cheap enough to leave always-on. The same warm serving workload (the
// bench_serve phase-1 configuration) runs with the flight recorder disabled
// and enabled in *interleaved* rounds — off/on/off/on/... — so host noise
// (thermal drift, cache state, background load) lands on both arms equally
// instead of biasing whichever arm ran second. Tracing is enabled in both
// arms: that is the production configuration the recorder taps into, and it
// keeps the comparison to the recorder's own marginal cost (a policy check
// and one relaxed counter bump per completion; the trace sweep runs only
// on the rare retained request), not the span machinery's.
//
// Rates are served requests per *process CPU second*
// (CLOCK_PROCESS_CPUTIME_ID), not per wall second: the recorder's cost is
// CPU work, and on a shared (possibly single-core) host, wall throughput
// mostly measures the neighbors and the scheduler. CPU time does not
// advance while descheduled, so the metric is immune to both.
//
// The headline overhead estimate is the interquartile mean of the
// per-pair rate deltas: each off round is immediately followed (or
// preceded — the order alternates) by its on round, so drift lands on
// both arms, and the IQ mean discards outlier pairs a preemption mangled.
// It is unbiased but not free: the run prints the interquartile range of
// its own paired deltas beside the IQ mean as that run's measured noise
// (on a shared host it is often wider than the overhead itself), and the
// gap between the per-arm best rounds (noise only ever subtracts from a
// rate) is reported alongside as flight_overhead_bestarm_pct.
//
// The gate: flight_on_per_s within the regression threshold of its
// committed baseline, like every other *_per_s. The claim checked (the IQ
// mean is recorded as flight_overhead_pct): enabled costs < 1% of warm q/s,
// which this run supports only when its upper quartile is below 1%.

#include <algorithm>
#include <atomic>
#include <ctime>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/serve/query_server.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"

namespace {

using namespace tsdm;
using tsdm_bench::BenchReporter;
using tsdm_bench::Fmt;
using tsdm_bench::FmtInt;
using tsdm_bench::Table;

struct Workload {
  GridNetworkSpec spec;
  RoadNetwork net;
  EdgeCentricModel model{0};
  std::vector<RouteQuery> queries;

  PathCostModel BaseModel() const {
    const EdgeCentricModel* m = &model;
    return [m](const std::vector<int>& edges, double depart) {
      return m->PathCostDistribution(edges, depart, 32);
    };
  }
};

Workload BuildWorkload() {
  Workload w;
  w.spec.rows = 6;
  w.spec.cols = 6;
  Rng rng(1234);
  w.net = GenerateGridNetwork(w.spec, &rng);

  w.model = EdgeCentricModel(static_cast<int>(w.net.NumEdges()));
  TrafficSimulator sim(&w.net, TrafficSpec{});
  for (int e = 0; e < static_cast<int>(w.net.NumEdges()); ++e) {
    for (int rep = 0; rep < 8; ++rep) {
      TripObservation trip;
      trip.edge_path = {e};
      trip.depart_seconds = 8 * 3600.0;
      trip.edge_times = {sim.SampleEdgeTime(e, trip.depart_seconds, &rng)};
      w.model.AddTrip(trip);
    }
  }
  Status built = w.model.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "model build failed: %s\n", built.ToString().c_str());
    std::exit(1);
  }

  for (int od = 0; od < 64; ++od) {
    int r0 = od % w.spec.rows;
    int c1 = (od / w.spec.rows) % w.spec.cols;
    RouteQuery q;
    q.source = GridNodeId(w.spec, r0, 0);
    q.target = GridNodeId(w.spec, w.spec.rows - 1 - r0 % w.spec.rows, c1);
    if (q.source == q.target) {
      q.target = GridNodeId(w.spec, w.spec.rows - 1, w.spec.cols - 1);
    }
    q.k = 4;
    for (int b = 0; b < 2; ++b) {
      q.depart_seconds = 8 * 3600.0 + b * 900.0;
      q.arrival_deadline_seconds = q.depart_seconds + 1800.0;
      w.queries.push_back(q);
    }
  }
  return w;
}

/// CPU seconds consumed by the whole process (all threads). WaitIdle
/// sleeps between polls, so during a burst this is almost entirely the
/// workers' serving compute — the quantity the recorder's overhead adds to.
double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One warm burst: `repeat` rounds of the query set, open-loop, drained.
/// Returns served requests and process-CPU seconds.
struct BurstResult {
  uint64_t served = 0;
  double cpu = 0.0;
};

BurstResult RunBurst(QueryServer* server, const Workload& w, int repeat) {
  // Drain every few repeats: an unbounded open loop would overflow the
  // admission queue and turn the round into a shed storm — every shed is a
  // retention, which is the recorder's stress mode, not the warm healthy
  // hot path this bench claims a number for.
  constexpr int kChunk = 16;  // kChunk * |queries| stays under queue cap
  ServeStatsSnapshot before = server->Stats();
  const double cpu0 = CpuSeconds();
  for (int r = 0; r < repeat; ++r) {
    for (const RouteQuery& q : w.queries) {
      QueryServer::SubmitOptions opts;
      opts.queue_budget_seconds = 120.0;
      (void)server->Submit(q, nullptr, opts);
    }
    if ((r + 1) % kChunk == 0 || r + 1 == repeat) server->WaitIdle();
  }
  BurstResult res;
  res.cpu = CpuSeconds() - cpu0;
  ServeStatsSnapshot after = server->Stats();
  res.served = (after.completed + after.failed) -
               (before.completed + before.failed);
  return res;
}

}  // namespace

int main() {
  BenchReporter reporter("flight");
  Workload w = BuildWorkload();
  reporter.Info("network", "6x6 grid");
  reporter.Info("workload",
                "64 OD pairs x 2 buckets, k=4, warm caches, 2 workers");
  reporter.Info("method",
                "paired off/on rounds, rates per process-CPU second, "
                "tracing enabled in both arms");

  TraceRecorder::Global().SetCapacity(1 << 15);
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();

  // Production-shaped retention: a 50 ms SLO no warm request breaches, plus
  // a sparse head sample — so the measured cost is the honest hot path
  // (span capture + a discard per completion), not a retain-everything
  // stress mode.
  FlightRecorder::Options fopts;
  fopts.slo_threshold_seconds = 0.050;
  fopts.head_sample_every = 1024;
  FlightRecorder::Global().Configure(fopts);
  FlightRecorder::Global().Disable();

  QueryServer::Options opts;
  opts.initial_workers = 2;
  opts.autoscale_enabled = false;
  opts.queue.capacity = 4096;
  opts.cost.segment_edges = 8;
  QueryServer server(&w.net, w.BaseModel(), opts);
  if (!server.Start().ok()) return 1;
  RunBurst(&server, w, 2);  // warm the caches; neither arm pays this

  constexpr int kRoundsPerArm = 32;
  constexpr int kRepeat = 100;
  uint64_t served_off = 0, served_on = 0;
  double off_per_s = 0.0, on_per_s = 0.0;  // best round per arm
  std::vector<double> pair_overhead_pct;
  pair_overhead_pct.reserve(kRoundsPerArm);
  for (int pair = 0; pair < kRoundsPerArm; ++pair) {
    // Alternate which arm runs first within the pair: back-to-back bursts
    // are not exchangeable (allocator and cache state warm the second
    // burst), and a fixed order folds that asymmetry straight into the
    // estimate. Alternation flips its sign pair to pair, so the median
    // cancels it.
    BurstResult off, on;
    if (pair % 2 == 0) {
      FlightRecorder::Global().Disable();
      off = RunBurst(&server, w, kRepeat);
      FlightRecorder::Global().Enable();
      on = RunBurst(&server, w, kRepeat);
    } else {
      FlightRecorder::Global().Enable();
      on = RunBurst(&server, w, kRepeat);
      FlightRecorder::Global().Disable();
      off = RunBurst(&server, w, kRepeat);
    }
    const double off_rate =
        off.cpu > 0.0 ? static_cast<double>(off.served) / off.cpu : 0.0;
    const double on_rate =
        on.cpu > 0.0 ? static_cast<double>(on.served) / on.cpu : 0.0;
    served_off += off.served;
    served_on += on.served;
    if (off_rate > off_per_s) off_per_s = off_rate;
    if (on_rate > on_per_s) on_per_s = on_rate;
    if (off_rate > 0.0) {
      pair_overhead_pct.push_back(100.0 * (off_rate - on_rate) / off_rate);
    }
  }
  FlightRecorder::Global().Disable();
  FlightStatsSnapshot fs = FlightRecorder::Global().Stats();
  server.Stop();
  TraceRecorder::Global().Disable();

  // Secondary estimate: relative gap between the per-arm best rounds.
  const double bestarm_pct =
      off_per_s > 0.0 ? 100.0 * (off_per_s - on_per_s) / off_per_s : 0.0;

  // Headline estimate — interquartile mean of the pair deltas: as
  // outlier-robust as the median (a preempted round cannot drag the
  // estimate), but averages the middle half instead of picking one
  // sample, so it converges faster.
  // The quartiles are the ends of that middle half: their spread is this
  // run's noise on the estimate.
  std::sort(pair_overhead_pct.begin(), pair_overhead_pct.end());
  double overhead_pct = 0.0;
  double lower_pct = 0.0;
  double upper_pct = 0.0;
  if (!pair_overhead_pct.empty()) {
    const size_t q = pair_overhead_pct.size() / 4;
    double sum = 0.0;
    size_t count = 0;
    for (size_t i = q; i < pair_overhead_pct.size() - q; ++i) {
      sum += pair_overhead_pct[i];
      ++count;
    }
    overhead_pct = sum / static_cast<double>(count);
    lower_pct = pair_overhead_pct[q];
    upper_pct = pair_overhead_pct[pair_overhead_pct.size() - 1 - q];
  }

  Table table("E-FL flight recorder on/off (best of paired rounds)",
              {"arm", "served", "best_per_cpu_s"});
  table.Row({"off", FmtInt(static_cast<long>(served_off)), Fmt(off_per_s, 0)});
  table.Row({"on", FmtInt(static_cast<long>(served_on)), Fmt(on_per_s, 0)});
  std::printf(
      "flight overhead: %.2f%% of warm q/s (CPU, IQ mean of %zu paired "
      "rounds, quartiles %.2f%% / %.2f%%), best-arm gap %.2f%%\n",
      overhead_pct, pair_overhead_pct.size(), lower_pct, upper_pct,
      bestarm_pct);
  std::printf("claim < 1%% overhead: %s (upper quartile %.2f%%)\n",
              upper_pct < 1.0 ? "supported" : "not shown by this run",
              upper_pct);
  std::printf(
      "recorder books: observed=%llu retained=%llu discarded=%llu "
      "spans_captured=%llu\n",
      static_cast<unsigned long long>(fs.observed),
      static_cast<unsigned long long>(fs.RetainedTotal()),
      static_cast<unsigned long long>(fs.discarded),
      static_cast<unsigned long long>(fs.spans_captured));

  reporter.Metric("flight_off_per_s", off_per_s);
  reporter.Metric("flight_on_per_s", on_per_s);
  reporter.Metric("flight_overhead_pct", overhead_pct);
  reporter.Metric("flight_overhead_bestarm_pct", bestarm_pct);
  reporter.Metric("flight_observed", static_cast<double>(fs.observed));
  reporter.Metric("flight_spans_captured",
                  static_cast<double>(fs.spans_captured));

  std::printf(
      "\nexpected shape: the on and off arms are within noise of each other "
      "(< 1%% overhead where the upper quartile allows the claim) — an "
      "unremarkable completion costs a policy check "
      "plus one relaxed counter bump, no lock; spans stay in the trace "
      "ring and are swept out only for the rare retained request.\n");
  reporter.Write();
  return 0;
}
