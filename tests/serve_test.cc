#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/obs/metrics_export.h"
#include "src/obs/trace.h"
#include "src/serve/autoscale_controller.h"
#include "src/serve/query_server.h"
#include "src/serve/request_queue.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"

namespace tsdm {
namespace {

ServeRequest MakeRequest(uint64_t id, int /*snapshot*/ = 0,
                         double budget_seconds = 0.25) {
  ServeRequest req;
  req.id = id;
  req.enqueue_ns = TraceRecorder::NowNs();
  req.queue_budget_seconds = budget_seconds;
  return req;
}

// --- RequestQueue --------------------------------------------------------

TEST(RequestQueueTest, AdmitsUntilCapacityThenSheds) {
  RequestQueue::Options opts;
  opts.capacity = 2;
  RequestQueue queue(opts);

  EXPECT_TRUE(queue.Push(MakeRequest(1)).ok());
  EXPECT_TRUE(queue.Push(MakeRequest(2)).ok());
  Status shed = queue.Push(MakeRequest(3));
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);

  RequestQueue::Stats stats = queue.GetStats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed_capacity, 1u);
  EXPECT_EQ(stats.depth, 2u);

  // Popping frees capacity again — depth stays bounded, never the backlog.
  std::vector<ServeRequest> out;
  EXPECT_EQ(queue.PopBatch(TraceRecorder::NowNs(), 10, &out), 2u);
  EXPECT_TRUE(queue.Push(MakeRequest(4)).ok());
}

TEST(RequestQueueTest, ShedsExpiredRequestsAtPop) {
  RequestQueue queue;
  std::atomic<int> shed_callbacks{0};

  ServeRequest stale = MakeRequest(1, 0, /*budget_seconds=*/0.001);
  stale.on_done = [&shed_callbacks](const RouteAnswer& answer) {
    EXPECT_EQ(answer.status.code(), StatusCode::kResourceExhausted);
    shed_callbacks.fetch_add(1);
  };
  ServeRequest live = MakeRequest(2, 0, /*budget_seconds=*/60.0);
  ASSERT_TRUE(queue.Push(std::move(stale)).ok());
  ASSERT_TRUE(queue.Push(std::move(live)).ok());

  // Pop "one second later": the stale request is shed, the live one
  // delivered.
  uint64_t later = TraceRecorder::NowNs() + 1000000000ull;
  std::vector<ServeRequest> out;
  EXPECT_EQ(queue.PopBatch(later, 10, &out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 2u);
  EXPECT_EQ(shed_callbacks.load(), 1);
  EXPECT_EQ(queue.GetStats().shed_expired, 1u);
}

TEST(RequestQueueTest, ZeroBudgetMeansNoExpiry) {
  RequestQueue queue;
  ASSERT_TRUE(queue.Push(MakeRequest(1, 0, /*budget_seconds=*/0.0)).ok());
  uint64_t much_later = TraceRecorder::NowNs() + 3600ull * 1000000000ull;
  std::vector<ServeRequest> out;
  EXPECT_EQ(queue.PopBatch(much_later, 10, &out), 1u);
}

// The dispatcher samples `now` before PopBatch takes the lock, so a request
// admitted in between is popped with `now_ns` earlier than its enqueue
// stamp. Its age must clamp to zero rather than wrap to a huge unsigned
// value: not shed, never dequeued before it was enqueued, and its
// queue-wait span is empty rather than negative.
TEST(RequestQueueTest, PopBeforeEnqueueStampDoesNotWrap) {
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();
  RequestQueue queue;
  std::atomic<int> shed_callbacks{0};
  const uint64_t now = TraceRecorder::NowNs();
  ServeRequest req = MakeRequest(7, 0, /*budget_seconds=*/0.001);
  req.enqueue_ns = now + 1000000ull;  // admitted 1 ms after `now`
  req.trace = TraceContext{7, 0};
  req.on_done = [&shed_callbacks](const RouteAnswer&) {
    shed_callbacks.fetch_add(1);
  };
  const uint64_t enqueue_ns = req.enqueue_ns;
  ASSERT_TRUE(queue.Push(std::move(req)).ok());

  std::vector<ServeRequest> out;
  EXPECT_EQ(queue.PopBatch(now, 10, &out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(shed_callbacks.load(), 0);
  EXPECT_EQ(queue.GetStats().shed_expired, 0u);
  EXPECT_GE(out[0].dequeue_ns, out[0].enqueue_ns);
  const uint64_t dequeue_ns = out[0].dequeue_ns;

  std::vector<TraceEvent> spans = TraceRecorder::Global().Snapshot();
  TraceRecorder::Global().Disable();
  TraceRecorder::Global().Clear();
  int queue_waits = 0;
  for (const TraceEvent& ev : spans) {
    if (ev.name != "serve/queue_wait" || ev.request_id != 7) continue;
    ++queue_waits;
    // The span ends where the request was dequeued, so it tiles with the
    // batch-wait span that starts there.
    EXPECT_EQ(ev.start_ns, enqueue_ns);
    EXPECT_EQ(ev.start_ns + ev.dur_ns, dequeue_ns);
  }
  EXPECT_EQ(queue_waits, 1);
}

TEST(RequestQueueTest, CloseDrainsAndRejects) {
  RequestQueue queue;
  std::atomic<int> drained{0};
  for (uint64_t i = 0; i < 3; ++i) {
    ServeRequest req = MakeRequest(i);
    req.on_done = [&drained](const RouteAnswer& answer) {
      EXPECT_EQ(answer.status.code(), StatusCode::kFailedPrecondition);
      drained.fetch_add(1);
    };
    ASSERT_TRUE(queue.Push(std::move(req)).ok());
  }

  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(drained.load(), 3);

  Status rejected = queue.Push(MakeRequest(9));
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);

  RequestQueue::Stats stats = queue.GetStats();
  EXPECT_EQ(stats.shed_closed, 4u);  // 3 drained + 1 rejected
  EXPECT_EQ(stats.depth, 0u);
  queue.Close();  // idempotent
}

// --- AutoscaleController -------------------------------------------------

TEST(AutoscaleControllerTest, ClampsToWorkerBounds) {
  ThreadPool pool(2);
  AutoscaleController::Options opts;
  opts.min_workers = 1;
  opts.max_workers = 4;
  opts.per_worker_capacity = 10.0;
  AutoscaleController controller(&pool, nullptr, opts);

  // A demand burst far beyond max_workers * capacity clamps at the top.
  EXPECT_EQ(controller.OnInterval(1000.0), 4);
  EXPECT_EQ(pool.NumThreads(), 4);
  EXPECT_GE(controller.scale_events(), 1);

  // Sustained silence (past the reactive lookback) shrinks to the floor.
  int workers = 4;
  for (int i = 0; i < 10; ++i) workers = controller.OnInterval(0.0);
  EXPECT_EQ(workers, 1);
  EXPECT_EQ(pool.NumThreads(), 1);
  EXPECT_EQ(controller.history().size(), 11u);
}

TEST(AutoscaleControllerTest, ModerateDemandLandsBetweenBounds) {
  ThreadPool pool(1);
  AutoscaleController::Options opts;
  opts.min_workers = 1;
  opts.max_workers = 8;
  opts.per_worker_capacity = 10.0;
  AutoscaleController controller(&pool, nullptr, opts);
  // Reactive provisions recent peak + headroom: 30 req/interval at 10 per
  // worker needs ceil(30 * 1.15 / 10) = 4 workers.
  int workers = 0;
  for (int i = 0; i < 3; ++i) workers = controller.OnInterval(30.0);
  EXPECT_EQ(workers, 4);
}

// --- QueryServer end to end ----------------------------------------------

struct ServeFixture {
  GridNetworkSpec spec;
  RoadNetwork net;
  EdgeCentricModel model;

  ServeFixture() : spec(MakeSpec()), net(MakeNet(spec)), model(0) {
    // Train the edge-centric model on every edge so any route has
    // coverage; one slot's observations are enough (empty slots borrow the
    // global distribution).
    model = EdgeCentricModel(static_cast<int>(net.NumEdges()));
    TrafficSimulator sim(&net, TrafficSpec{});
    Rng rng(11);
    for (int e = 0; e < static_cast<int>(net.NumEdges()); ++e) {
      for (int rep = 0; rep < 8; ++rep) {
        TripObservation trip;
        trip.edge_path = {e};
        trip.depart_seconds = 8 * 3600.0;
        trip.edge_times = {sim.SampleEdgeTime(e, trip.depart_seconds, &rng)};
        model.AddTrip(trip);
      }
    }
    Status built = model.Build();
    EXPECT_TRUE(built.ok()) << built.ToString();
  }

  static GridNetworkSpec MakeSpec() {
    GridNetworkSpec spec;
    spec.rows = 5;
    spec.cols = 5;
    return spec;
  }
  static RoadNetwork MakeNet(const GridNetworkSpec& spec) {
    Rng rng(3);
    return GenerateGridNetwork(spec, &rng);
  }

  PathCostModel BaseModel() const {
    const EdgeCentricModel* m = &model;
    return [m](const std::vector<int>& edges, double depart) {
      return m->PathCostDistribution(edges, depart, 32);
    };
  }
};

TEST(QueryServerTest, AnswersQueriesAndWarmsCaches) {
  ServeFixture fx;
  QueryServer::Options opts;
  opts.initial_workers = 2;
  opts.autoscale_enabled = false;
  QueryServer server(&fx.net, fx.BaseModel(), opts);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());  // double start rejected

  std::atomic<int> ok_answers{0};
  std::atomic<int> bad_answers{0};
  const int kQueries = 60;
  for (int i = 0; i < kQueries; ++i) {
    RouteQuery query;
    query.source = GridNodeId(fx.spec, 0, 0);
    query.target = GridNodeId(fx.spec, 4, (i % 2) ? 4 : 3);
    query.k = 3;
    query.depart_seconds = 8 * 3600.0;
    query.arrival_deadline_seconds = query.depart_seconds + 1200.0;
    QueryServer::SubmitOptions sopts;
    sopts.queue_budget_seconds = 30.0;
    sopts.client_request_id = static_cast<uint64_t>(i + 1);
    Status s = server.Submit(
        query,
        [&ok_answers, &bad_answers](const RouteAnswer& answer) {
          if (answer.status.ok()) {
            EXPECT_FALSE(answer.route.edges.empty());
            // SubmitOptions::client_request_id is echoed verbatim.
            EXPECT_GT(answer.client_request_id, 0u);
            EXPECT_GT(answer.cost_mean_seconds, 0.0);
            EXPECT_GE(answer.on_time_probability, 0.0);
            EXPECT_LE(answer.on_time_probability, 1.0);
            EXPECT_GT(answer.num_candidates, 0);
            ok_answers.fetch_add(1);
          } else {
            bad_answers.fetch_add(1);
          }
        },
        sopts);
    ASSERT_TRUE(s.ok());
  }
  server.WaitIdle();

  EXPECT_EQ(ok_answers.load(), kQueries);
  EXPECT_EQ(bad_answers.load(), 0);

  ServeStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.TotalShed(), 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, static_cast<uint64_t>(kQueries));
  // Only two OD pairs and one time bucket: almost everything after the
  // first queries is served from the sub-path cache.
  EXPECT_GT(stats.cache_hits, stats.cache_misses);
  EXPECT_GT(stats.CacheHitRate(), 0.5);
  EXPECT_EQ(stats.e2e_latency.count(), static_cast<uint64_t>(kQueries));

  server.Stop();
  // Submit after stop is rejected, not queued.
  Status rejected = server.Submit(RouteQuery{}, nullptr);
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
}

TEST(QueryServerTest, UnreachableTargetFailsCleanly) {
  ServeFixture fx;
  QueryServer::Options opts;
  opts.autoscale_enabled = false;
  QueryServer server(&fx.net, fx.BaseModel(), opts);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> failures{0};
  RouteQuery query;
  query.source = GridNodeId(fx.spec, 0, 0);
  query.target = 100000;  // no such node
  QueryServer::SubmitOptions unreachable_opts;
  unreachable_opts.queue_budget_seconds = 30.0;
  ASSERT_TRUE(server
                  .Submit(query,
                          [&failures](const RouteAnswer& answer) {
                            EXPECT_FALSE(answer.status.ok());
                            failures.fetch_add(1);
                          },
                          unreachable_opts)
                  .ok());
  server.WaitIdle();
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(server.Stats().failed, 1u);
}

// Overload the server from several producers against a tiny queue: every
// admitted request must reach exactly one terminal state, the shed
// accounting must add up, and (under TSan) producers, dispatcher, workers
// and the autoscaler must not race.
TEST(QueryServerTest, MultiProducerOverloadShedsAndBalances) {
  ServeFixture fx;
  QueryServer::Options opts;
  opts.queue.capacity = 16;
  opts.batch.max_batch = 4;
  opts.initial_workers = 2;
  opts.autoscale_enabled = true;
  opts.autoscale.min_workers = 1;
  opts.autoscale.max_workers = 4;
  opts.autoscale_interval_seconds = 0.005;
  QueryServer server(&fx.net, fx.BaseModel(), opts);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<uint64_t> callbacks{0};
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> shed_at_submit{0};
  const int kProducers = 4;
  const int kPerProducer = 300;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        RouteQuery query;
        query.source = GridNodeId(fx.spec, 0, p % 5);
        query.target = GridNodeId(fx.spec, 4, (p + i) % 5);
        query.k = 2;
        query.depart_seconds = 8 * 3600.0;
        QueryServer::SubmitOptions tight;
        tight.queue_budget_seconds = 0.05;
        Status s = server.Submit(
            query, [&callbacks](const RouteAnswer&) { callbacks.fetch_add(1); },
            tight);
        if (s.ok()) {
          accepted.fetch_add(1);
        } else {
          EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
          shed_at_submit.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server.WaitIdle();
  server.Stop();

  ServeStatsSnapshot stats = server.Stats();
  const uint64_t total =
      static_cast<uint64_t>(kProducers) * static_cast<uint64_t>(kPerProducer);
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.admitted, accepted.load());
  EXPECT_EQ(stats.shed_capacity, shed_at_submit.load());
  // Exactly one callback per admitted request: served, expired, or drained.
  EXPECT_EQ(callbacks.load(), stats.admitted);
  EXPECT_EQ(stats.completed + stats.failed + stats.shed_expired +
                stats.shed_closed,
            stats.admitted);
  // Queue depth was bounded the whole time, so it ends bounded too.
  EXPECT_LE(stats.queue_depth, opts.queue.capacity);
  EXPECT_GE(stats.workers, 1);
  EXPECT_LE(stats.workers, 4);
}

TEST(QueryServerTest, ServeMetricsAppearInExports) {
  ServeFixture fx;
  QueryServer::Options opts;
  opts.autoscale_enabled = false;
  QueryServer server(&fx.net, fx.BaseModel(), opts);
  ASSERT_TRUE(server.Start().ok());
  std::atomic<int> done{0};
  RouteQuery query;
  query.source = GridNodeId(fx.spec, 0, 0);
  query.target = GridNodeId(fx.spec, 4, 4);
  QueryServer::SubmitOptions export_opts;
  export_opts.queue_budget_seconds = 30.0;
  ASSERT_TRUE(
      server.Submit(query, [&done](const RouteAnswer&) { done.fetch_add(1); },
                    export_opts)
          .ok());
  server.WaitIdle();
  ServeStatsSnapshot stats = server.Stats();

  std::string prom = MetricsExporter::Describe(stats).ToPrometheus();
  EXPECT_NE(prom.find("tsdm_serve_submitted_total 1"), std::string::npos);
  EXPECT_NE(prom.find("tsdm_serve_admitted_total 1"), std::string::npos);
  EXPECT_NE(prom.find("tsdm_serve_shed_total{reason=\"capacity\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("tsdm_serve_cache_lookups_total{outcome=\"hit\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("tsdm_serve_workers"), std::string::npos);
  EXPECT_NE(prom.find("tsdm_serve_latency_seconds_count"), std::string::npos);

  std::string json = MetricsExporter::Describe(stats).ToJson();
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"serve\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit_rate\""), std::string::npos);
  EXPECT_EQ(done.load(), 1);
}

// Regression (run under TSan by scripts/check.sh): Stats() must be safe to
// call from any thread at any point of the Stop() drain, and concurrent
// Stop() calls — owner + destructor + monitoring hooks — must collapse to
// one shutdown instead of a double join. Before the lifecycle lock,
// `started_` was a plain bool and two racing Stops both joined the
// dispatcher.
TEST(QueryServerTest, StatsDuringConcurrentStopIsSafe) {
  ServeFixture fx;
  QueryServer::Options opts;
  opts.autoscale_enabled = false;
  opts.queue.capacity = 64;
  QueryServer server(&fx.net, fx.BaseModel(), opts);
  ASSERT_TRUE(server.Start().ok());

  // Keep the queue busy so Stop() has a real drain to race against.
  std::atomic<bool> submitting{true};
  std::thread producer([&] {
    QueryServer::SubmitOptions sopts;
    sopts.queue_budget_seconds = 0.01;
    int i = 0;
    while (submitting.load(std::memory_order_acquire)) {
      RouteQuery query;
      query.source = GridNodeId(fx.spec, 0, 0);
      query.target = GridNodeId(fx.spec, 4, (i++ % 2) ? 4 : 3);
      query.k = 2;
      query.depart_seconds = 8 * 3600.0;
      (void)server.Submit(query, nullptr, sopts);
    }
  });

  std::atomic<bool> hammering{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      // Mid-race snapshots are torn by design — Stats() reads each atomic
      // at a different instant, so cross-counter inequalities do not hold
      // while the producer races the readers. What does hold is that every
      // counter is monotone within one reader's view.
      ServeStatsSnapshot prev;
      while (hammering.load(std::memory_order_acquire)) {
        ServeStatsSnapshot snap = server.Stats();
        EXPECT_GE(snap.submitted, prev.submitted);
        EXPECT_GE(snap.admitted, prev.admitted);
        EXPECT_GE(snap.completed, prev.completed);
        EXPECT_GE(snap.failed, prev.failed);
        EXPECT_GE(snap.shed_expired, prev.shed_expired);
        EXPECT_GE(snap.shed_closed, prev.shed_closed);
        prev = snap;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Two threads race the shutdown while Stats() is being hammered.
  std::thread stopper_a([&] { server.Stop(); });
  std::thread stopper_b([&] { server.Stop(); });
  stopper_a.join();
  stopper_b.join();
  submitting.store(false, std::memory_order_release);
  producer.join();
  // Stats stays valid after shutdown too.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  hammering.store(false, std::memory_order_release);
  for (auto& t : readers) t.join();

  ServeStatsSnapshot stats = server.Stats();
  // Every admitted request reached a terminal state (served, expired, or
  // drained at close — shed_closed additionally counts rejected post-close
  // submits, hence >=), and nothing terminal was fabricated.
  EXPECT_GE(stats.completed + stats.failed + stats.shed_expired +
                stats.shed_closed,
            stats.admitted);
  EXPECT_LE(stats.completed + stats.failed + stats.shed_expired,
            stats.admitted);
  // Idempotent after the race, and restartable.
  server.Stop();
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
}

// The deprecated pre-SubmitOptions 3-arg (trailing double) overload was
// removed after its one-release grace period; the 2-arg convenience now
// comes from the QueryService base and must default every option — in
// particular the 0.25 s queue budget and an unset client_request_id.
TEST(QueryServerTest, BaseSubmitConvenienceUsesDefaultOptions) {
  ServeFixture fx;
  QueryServer::Options opts;
  opts.autoscale_enabled = false;
  QueryServer server(&fx.net, fx.BaseModel(), opts);
  ASSERT_TRUE(server.Start().ok());
  std::atomic<int> done{0};
  std::atomic<uint64_t> echoed{1};
  RouteQuery query;
  query.source = GridNodeId(fx.spec, 0, 0);
  query.target = GridNodeId(fx.spec, 4, 4);
  // Through the base-class surface: what a shard-oblivious caller holding
  // only a QueryService* can express.
  QueryService& service = server;
  ASSERT_TRUE(service
                  .Submit(query,
                          [&](const RouteAnswer& answer) {
                            EXPECT_TRUE(answer.status.ok());
                            echoed.store(answer.client_request_id);
                            done.fetch_add(1);
                          })
                  .ok());
  server.WaitIdle();
  EXPECT_EQ(done.load(), 1);
  // The convenience surface has no client_request_id: it stays unset.
  EXPECT_EQ(echoed.load(), 0u);
  EXPECT_EQ(server.Stats().completed, 1u);
}

// QueueFull must agree with what Push admits: a capacity of 0 is clamped
// to 1, so an empty queue still takes one request and is full only after.
TEST(QueryServerTest, QueueFullMatchesClampedCapacity) {
  ServeFixture fx;
  QueryServer::Options opts;
  opts.autoscale_enabled = false;
  opts.queue.capacity = 0;
  QueryServer server(&fx.net, fx.BaseModel(), opts);
  EXPECT_FALSE(server.QueueFull());
  RouteQuery query;
  query.source = GridNodeId(fx.spec, 0, 0);
  query.target = GridNodeId(fx.spec, 4, 4);
  // Not started: the admitted request stays queued until Stop drains it.
  ASSERT_TRUE(server.Submit(query, [](const RouteAnswer&) {}).ok());
  EXPECT_TRUE(server.QueueFull());
  server.Stop();
}

// --- Run-to-completion workers ------------------------------------------

RouteQuery GridQuery(const ServeFixture& fx, int i) {
  RouteQuery query;
  query.source = GridNodeId(fx.spec, 0, 0);
  query.target = GridNodeId(fx.spec, 4, (i % 2) ? 4 : 3);
  query.k = 2;
  query.depart_seconds = 8 * 3600.0;
  return query;
}

QueryServer::SubmitOptions LongBudget() {
  QueryServer::SubmitOptions sopts;
  sopts.queue_budget_seconds = 30.0;
  return sopts;
}

// Size rule: with no linger, one worker pops runs of at most max_batch, so
// 10 requests queued before Start are served as runs of 4, 4 and 2.
TEST(QueryServerBatchTest, RunsAreCappedAtMaxBatch) {
  ServeFixture fx;
  QueryServer::Options opts;
  opts.initial_workers = 1;
  opts.autoscale_enabled = false;
  opts.batch.max_batch = 4;
  opts.batch.max_wait_seconds = 0.0;
  QueryServer server(&fx.net, fx.BaseModel(), opts);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server.Submit(GridQuery(fx, i), nullptr, LongBudget()).ok());
  }
  ASSERT_TRUE(server.Start().ok());
  server.WaitIdle();

  ServeStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.max_batch, 4u);
  EXPECT_EQ(stats.batched_requests, 10u);
}

// Age rule: a lone request waits for company until it is max_wait past
// admission, so its queue + batch stages add up to at least max_wait.
TEST(QueryServerBatchTest, LoneRequestWaitsOutMaxWait) {
  ServeFixture fx;
  QueryServer::Options opts;
  opts.initial_workers = 1;
  opts.autoscale_enabled = false;
  opts.batch.max_batch = 100;
  opts.batch.max_wait_seconds = 0.005;
  QueryServer server(&fx.net, fx.BaseModel(), opts);
  ASSERT_TRUE(server.Start().ok());

  RouteAnswer answer;
  ASSERT_TRUE(server
                  .Submit(GridQuery(fx, 0),
                          [&answer](const RouteAnswer& a) { answer = a; },
                          LongBudget())
                  .ok());
  server.WaitIdle();
  ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
  EXPECT_GE(answer.stages.queue_ns + answer.stages.batch_ns, 5000000u);
  EXPECT_EQ(server.Stats().batches, 1u);
}

// Lost-wake-up stress (run under TSan and ASan by scripts/check.sh): one
// worker with no linger drains four bursty producers, so the queue empties
// over and over and the drain task releases and re-acquires its slot
// constantly. A Push racing a release must still get its request served.
// A lost wake-up is only visible once nobody submits again, so the
// producers pause after every burst and the server must go idle on its own:
// each pause is one chance to catch a request stranded in the queue.
TEST(QueryServerBatchTest, NoLostWakeUpUnderBurstyProducers) {
  ServeFixture fx;
  QueryServer::Options opts;
  opts.initial_workers = 1;
  opts.autoscale_enabled = false;
  opts.batch.max_wait_seconds = 0.0;
  QueryServer server(&fx.net, fx.BaseModel(), opts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  constexpr int kBurst = 10;
  std::vector<std::atomic<int>> calls(kProducers * kPerProducer);
  std::vector<char> admitted(kProducers * kPerProducer, 0);
  std::vector<Rng> rngs;
  for (int p = 0; p < kProducers; ++p) rngs.emplace_back(100 + p);

  // WaitIdle under a watchdog: a stranded request would make it block
  // forever, so on timeout Stop sheds the queue to unblock it.
  auto idle_within_deadline = [&server] {
    std::atomic<bool> idle{false};
    std::thread waiter([&] {
      server.WaitIdle();
      idle.store(true);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!idle.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const bool ok = idle.load();
    if (!ok) server.Stop();
    waiter.join();
    return ok;
  };

  for (int first = 0; first < kPerProducer; first += kBurst) {
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = first; i < first + kBurst; ++i) {
          const size_t slot = static_cast<size_t>(p * kPerProducer + i);
          Status s = server.Submit(
              GridQuery(fx, i),
              [&calls, slot](const RouteAnswer&) { calls[slot].fetch_add(1); },
              LongBudget());
          admitted[slot] = s.ok() ? 1 : 0;
          std::this_thread::sleep_for(
              std::chrono::microseconds(rngs[p].Int(0, 50)));
        }
      });
    }
    for (auto& t : producers) t.join();
    if (!idle_within_deadline()) {
      ADD_FAILURE() << "WaitIdle hung after the burst at " << first
                    << ": a queued request lost its wake-up";
      break;
    }
  }

  uint64_t admitted_count = 0;
  for (size_t i = 0; i < calls.size(); ++i) {
    admitted_count += static_cast<uint64_t>(admitted[i]);
    EXPECT_EQ(calls[i].load(), admitted[i] ? 1 : 0) << "request " << i;
  }
  ServeStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.admitted, admitted_count);
  EXPECT_EQ(stats.shed_closed, 0u);
  server.Stop();
}

// A drain task serves one run and resubmits itself rather than looping
// until the queue is empty: ThreadPool::Resize joins a retiring worker only
// when its current task ends, so a looping task would hold autoscale
// scale-down (and the control lock Stats() reads under) for as long as the
// backlog lasts.
TEST(QueryServerBatchTest, PoolShrinksWhileBacklogIsServed) {
  ServeFixture fx;
  QueryServer::Options opts;
  opts.initial_workers = 4;
  opts.autoscale_enabled = true;
  opts.autoscale.min_workers = 1;
  opts.autoscale.max_workers = 4;
  // Any observed demand fits one worker, so the first review shrinks the
  // pool to its floor.
  opts.autoscale.per_worker_capacity = 1e9;
  opts.autoscale_interval_seconds = 0.005;
  opts.batch.max_batch = 1;
  opts.batch.max_wait_seconds = 0.0;
  QueryServer server(&fx.net, fx.BaseModel(), opts);

  // 300 requests at >= 1 ms each take >= 75 ms on 4 workers: 15 intervals.
  constexpr int kBacklog = 300;
  for (int i = 0; i < kBacklog; ++i) {
    ASSERT_TRUE(server
                    .Submit(GridQuery(fx, i),
                            [](const RouteAnswer&) {
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(1));
                            },
                            LongBudget())
                    .ok());
  }
  ASSERT_TRUE(server.Start().ok());

  bool shrank_with_backlog = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    ServeStatsSnapshot stats = server.Stats();
    if (stats.workers == 1 && stats.scale_events >= 1) {
      // The resize has returned; the backlog must still be there.
      shrank_with_backlog = server.Stats().queue_depth > 0;
      break;
    }
    if (stats.queue_depth == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(shrank_with_backlog);

  server.WaitIdle();
  EXPECT_EQ(server.Stats().completed, static_cast<uint64_t>(kBacklog));
  server.Stop();
}

// --- Multi-tenant scheduling ---------------------------------------------

ServeRequest MakeTenantRequest(uint64_t id, const std::string& tenant,
                               int priority, double budget_seconds = 60.0) {
  ServeRequest req = MakeRequest(id, 0, budget_seconds);
  req.tenant = tenant;
  req.priority = priority;
  return req;
}

const RequestQueue::TenantStats* FindTenant(const RequestQueue::Stats& stats,
                                            const std::string& name) {
  for (const auto& [n, ts] : stats.tenants) {
    if (n == name) return &ts;
  }
  return nullptr;
}

const TenantServeStats* FindTenant(const ServeStatsSnapshot& snap,
                                   const std::string& name) {
  for (const TenantServeStats& t : snap.tenants) {
    if (t.tenant == name) return &t;
  }
  return nullptr;
}

TEST(RequestQueueTenantTest, DeficitRoundRobinTracksWeights) {
  RequestQueue::Options opts;
  opts.capacity = 1024;
  opts.drr_quantum = 8.0;
  opts.tenants["heavy"].weight = 3.0;
  opts.tenants["light"].weight = 1.0;
  RequestQueue queue(opts);

  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(queue.Push(MakeTenantRequest(i, "heavy", 0)).ok());
    ASSERT_TRUE(queue.Push(MakeTenantRequest(1000 + i, "light", 0)).ok());
  }

  // Drain a saturated prefix: while both tenants stay backlogged, the
  // dispatch ratio must track the 3:1 weight ratio, not the 1:1 arrival
  // ratio.
  const uint64_t now = TraceRecorder::NowNs();
  std::vector<ServeRequest> out;
  size_t popped_total = 0;
  while (popped_total < 160) {
    size_t n = queue.PopBatch(now, 32, &out);
    ASSERT_GT(n, 0u);
    popped_total += n;
  }

  RequestQueue::Stats stats = queue.GetStats();
  const RequestQueue::TenantStats* heavy = FindTenant(stats, "heavy");
  const RequestQueue::TenantStats* light = FindTenant(stats, "light");
  ASSERT_NE(heavy, nullptr);
  ASSERT_NE(light, nullptr);
  EXPECT_EQ(heavy->popped + light->popped, popped_total);
  ASSERT_GT(light->popped, 0u);
  const double ratio = static_cast<double>(heavy->popped) /
                       static_cast<double>(light->popped);
  EXPECT_GE(ratio, 2.5) << heavy->popped << ":" << light->popped;
  EXPECT_LE(ratio, 3.5) << heavy->popped << ":" << light->popped;
}

TEST(RequestQueueTenantTest, QuotaCapsOneTenantWithoutStarvingOthers) {
  RequestQueue::Options opts;
  opts.capacity = 64;
  opts.tenants["greedy"].quota = 4;
  RequestQueue queue(opts);

  int greedy_ok = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    if (queue.Push(MakeTenantRequest(i, "greedy", 0)).ok()) ++greedy_ok;
  }
  EXPECT_EQ(greedy_ok, 4);  // quota, not capacity, is the binding limit

  // Another tenant is untouched by the flooder's quota sheds.
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.Push(MakeTenantRequest(100 + i, "polite", 0)).ok());
  }

  RequestQueue::Stats stats = queue.GetStats();
  const RequestQueue::TenantStats* greedy = FindTenant(stats, "greedy");
  const RequestQueue::TenantStats* polite = FindTenant(stats, "polite");
  ASSERT_NE(greedy, nullptr);
  ASSERT_NE(polite, nullptr);
  EXPECT_EQ(greedy->admitted, 4u);
  EXPECT_EQ(greedy->shed_capacity, 6u);
  EXPECT_EQ(greedy->depth, 4u);
  EXPECT_EQ(polite->admitted, 5u);
  EXPECT_EQ(polite->shed_capacity, 0u);
  EXPECT_EQ(stats.shed_capacity, 6u);
  EXPECT_EQ(stats.depth, 9u);
}

TEST(RequestQueueTenantTest, OverloadEvictsLowestClassNewestFirst) {
  RequestQueue::Options opts;
  opts.capacity = 3;
  RequestQueue queue(opts);

  std::vector<uint64_t> evicted;
  auto tracked = [&evicted](uint64_t id, int priority) {
    ServeRequest req = MakeTenantRequest(id, "", priority);
    req.on_done = [&evicted, id](const RouteAnswer& answer) {
      EXPECT_EQ(answer.status.code(), StatusCode::kResourceExhausted);
      // Satellite invariant: every typed shed carries the tenant id.
      EXPECT_EQ(answer.tenant_id, "default");
      evicted.push_back(id);
    };
    return req;
  };

  ASSERT_TRUE(queue.Push(tracked(1, 0)).ok());
  ASSERT_TRUE(queue.Push(tracked(2, 0)).ok());
  ASSERT_TRUE(queue.Push(tracked(3, 1)).ok());

  // Full queue, premium arrival: the newest request of the lowest occupied
  // class below it (id 2, class 0) is displaced — its callback fires with
  // a typed shed before Push returns.
  EXPECT_TRUE(queue.Push(tracked(10, 2)).ok());
  ASSERT_EQ(evicted, (std::vector<uint64_t>{2}));

  // Full queue, best-effort arrival: nothing below class 0 exists, so the
  // arrival itself is shed and nothing already queued is touched.
  EXPECT_EQ(queue.Push(tracked(11, 0)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(evicted.size(), 1u);

  // Standard arrival displaces the remaining best-effort request (id 1),
  // not the equal-or-higher classes.
  EXPECT_TRUE(queue.Push(tracked(12, 1)).ok());
  ASSERT_EQ(evicted, (std::vector<uint64_t>{2, 1}));

  RequestQueue::Stats stats = queue.GetStats();
  EXPECT_EQ(stats.shed_evicted, 2u);
  EXPECT_EQ(stats.shed_capacity, 1u);
  EXPECT_EQ(stats.depth, 3u);

  // The survivors are exactly {3, 10, 12}, highest class first.
  std::vector<ServeRequest> out;
  EXPECT_EQ(queue.PopBatch(TraceRecorder::NowNs(), 10, &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 10u);
}

// Regression for the shed-attribution invariant (property-tested here,
// relied on by the Prometheus export and the shard aggregation): after any
// mix of quota sheds, capacity sheds, evictions, expiries, and a close
// drain, every global counter equals the sum of the per-tenant counters.
TEST(RequestQueueTenantTest, PerTenantCountersSumToGlobals) {
  RequestQueue::Options opts;
  opts.capacity = 6;
  opts.tenants["a"].quota = 2;
  RequestQueue queue(opts);

  uint64_t id = 0;
  // Quota sheds for "a" (only 2 admitted).
  for (int i = 0; i < 5; ++i) (void)queue.Push(MakeTenantRequest(++id, "a", 0));
  // One doomed request whose budget expires before the pop below — shed
  // while the queue is still uncontended, so nothing can evict it first.
  (void)queue.Push(MakeTenantRequest(++id, "b", 0, /*budget_seconds=*/1e-9));
  std::vector<ServeRequest> out;
  queue.PopBatch(TraceRecorder::NowNs() + 1000000ull, 3, &out);

  // Refill to capacity, then overload: capacity sheds for same-class
  // arrivals, evictions for higher-class ones.
  for (int i = 0; i < 4; ++i) (void)queue.Push(MakeTenantRequest(++id, "b", 1));
  for (int i = 0; i < 4; ++i) (void)queue.Push(MakeTenantRequest(++id, "c", 0));
  for (int i = 0; i < 3; ++i) (void)queue.Push(MakeTenantRequest(++id, "c", 3));
  // Anonymous tenant lands under the reserved "default" name.
  (void)queue.Push(MakeTenantRequest(++id, "", 0));
  queue.Close();

  RequestQueue::Stats stats = queue.GetStats();
  RequestQueue::TenantStats sum;
  for (const auto& [name, ts] : stats.tenants) {
    EXPECT_FALSE(name.empty());  // "" was normalized to "default"
    sum.submitted += ts.submitted;
    sum.admitted += ts.admitted;
    sum.shed_capacity += ts.shed_capacity;
    sum.shed_expired += ts.shed_expired;
    sum.shed_closed += ts.shed_closed;
    sum.shed_evicted += ts.shed_evicted;
    sum.depth += ts.depth;
  }
  EXPECT_EQ(sum.submitted, stats.submitted);
  EXPECT_EQ(sum.admitted, stats.admitted);
  EXPECT_EQ(sum.shed_capacity, stats.shed_capacity);
  EXPECT_EQ(sum.shed_expired, stats.shed_expired);
  EXPECT_EQ(sum.shed_closed, stats.shed_closed);
  EXPECT_EQ(sum.shed_evicted, stats.shed_evicted);
  EXPECT_EQ(sum.depth, stats.depth);
  // The mix actually exercised every shed path.
  EXPECT_GT(stats.shed_capacity, 0u);
  EXPECT_GT(stats.shed_expired, 0u);
  EXPECT_GT(stats.shed_closed, 0u);
  EXPECT_GT(stats.shed_evicted, 0u);
  EXPECT_NE(FindTenant(stats, "default"), nullptr);
}

TEST(QueryServerTest, TenantBreakdownSumsToGlobalsAndExports) {
  ServeFixture fx;
  QueryServer::Options opts;
  opts.initial_workers = 2;
  opts.autoscale_enabled = false;
  QueryServer server(&fx.net, fx.BaseModel(), opts);
  ASSERT_TRUE(server.Start().ok());

  auto submit = [&](const std::string& tenant, int priority, int count) {
    for (int i = 0; i < count; ++i) {
      RouteQuery query;
      query.source = GridNodeId(fx.spec, 0, i % 5);
      query.target = GridNodeId(fx.spec, 4, (i + 1) % 5);
      query.k = 2;
      query.depart_seconds = 8 * 3600.0;
      QueryServer::SubmitOptions sopts;
      sopts.queue_budget_seconds = 30.0;
      sopts.tenant_id = tenant;
      sopts.priority = priority;
      ASSERT_TRUE(server.Submit(query, nullptr, sopts).ok());
    }
  };
  submit("premium", 2, 20);
  submit("batch", 0, 20);
  submit("", 0, 10);  // anonymous -> "default"
  server.WaitIdle();

  ServeStatsSnapshot snap = server.Stats();
  ASSERT_EQ(snap.tenants.size(), 3u);
  // Sorted by tenant name.
  EXPECT_EQ(snap.tenants[0].tenant, "batch");
  EXPECT_EQ(snap.tenants[1].tenant, "default");
  EXPECT_EQ(snap.tenants[2].tenant, "premium");

  uint64_t submitted = 0, admitted = 0, completed = 0, failed = 0;
  uint64_t latency_count = 0;
  for (const TenantServeStats& t : snap.tenants) {
    submitted += t.submitted;
    admitted += t.admitted;
    completed += t.completed;
    failed += t.failed;
    latency_count += t.e2e_latency.count();
  }
  EXPECT_EQ(submitted, snap.submitted);
  EXPECT_EQ(admitted, snap.admitted);
  EXPECT_EQ(completed, snap.completed);
  EXPECT_EQ(failed, snap.failed);
  EXPECT_EQ(latency_count, snap.e2e_latency.count());
  EXPECT_EQ(FindTenant(snap, "premium")->completed, 20u);
  EXPECT_EQ(FindTenant(snap, "default")->completed, 10u);

  std::string prom = MetricsExporter::Describe(snap).ToPrometheus();
  EXPECT_NE(prom.find("tsdm_serve_tenant_submitted_total{tenant=\"premium\"} 20"),
            std::string::npos);
  EXPECT_NE(prom.find("tsdm_serve_tenant_completed_total{tenant=\"batch\"} 20"),
            std::string::npos);
  EXPECT_NE(
      prom.find("tsdm_serve_tenant_shed_total{tenant=\"default\",reason=\"evicted\"} 0"),
      std::string::npos);
  EXPECT_NE(prom.find("tsdm_serve_tenant_latency_seconds_count{tenant=\"premium\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("tsdm_serve_shed_total{reason=\"evicted\"}"),
            std::string::npos);

  std::string json = MetricsExporter::Describe(snap).ToJson();
  EXPECT_NE(json.find("\"tenants\""), std::string::npos);
  EXPECT_NE(json.find("\"premium\""), std::string::npos);
  EXPECT_NE(json.find("\"shed_evicted\""), std::string::npos);

  server.Stop();
}

// --- AutoscaleController satellites --------------------------------------

TEST(AutoscaleControllerTest, ZeroArrivalIntervalsHoldTheFloorQuietly) {
  ThreadPool pool(3);
  AutoscaleController::Options opts;
  opts.min_workers = 2;
  opts.max_workers = 6;
  opts.per_worker_capacity = 10.0;
  AutoscaleController controller(&pool, nullptr, opts);

  // An idle server: every review interval observes zero arrivals. The
  // controller must neither crash nor thrash — one shrink to the floor,
  // then steady state.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(controller.OnInterval(0.0), 2);
  }
  EXPECT_EQ(pool.NumThreads(), 2);
  EXPECT_EQ(controller.scale_events(), 1);
  // Negative arrivals (clock skew artifacts) are clamped to zero demand.
  EXPECT_EQ(controller.OnInterval(-5.0), 2);
  EXPECT_EQ(controller.history().back(), 0.0);
}

TEST(AutoscaleControllerTest, HistoryIsBoundedByMaxHistory) {
  ThreadPool pool(1);
  AutoscaleController::Options opts;
  opts.max_history = 4;
  opts.per_worker_capacity = 10.0;
  AutoscaleController controller(&pool, nullptr, opts);
  for (int i = 1; i <= 10; ++i) {
    controller.OnInterval(static_cast<double>(i));
  }
  // Only the newest max_history samples survive, oldest evicted first.
  ASSERT_EQ(controller.history().size(), 4u);
  EXPECT_EQ(controller.history().front(), 7.0);
  EXPECT_EQ(controller.history().back(), 10.0);
}

TEST(AutoscaleControllerTest, ClampBoundariesAreExactAndQuiet) {
  ThreadPool pool(1);
  AutoscaleController::Options opts;
  opts.min_workers = 2;
  opts.max_workers = 4;
  opts.per_worker_capacity = 10.0;
  AutoscaleController controller(&pool, nullptr, opts);

  // Below the floor's demand: clamps *up* to min_workers, never below.
  EXPECT_EQ(controller.OnInterval(1.0), 2);
  // Far beyond the ceiling: clamps to max_workers exactly.
  EXPECT_EQ(controller.OnInterval(10000.0), 4);
  const int events_at_max = controller.scale_events();
  // Still beyond the ceiling: the clamped size is unchanged, so no resize
  // and no scale event — the controller does not thrash at the boundary.
  EXPECT_EQ(controller.OnInterval(20000.0), 4);
  EXPECT_EQ(controller.scale_events(), events_at_max);
}

// --- StreamForecastPolicy ------------------------------------------------

TEST(StreamForecastPolicyTest, RejectsEmptyHistoryAndIsIdempotent) {
  StreamForecastPolicy policy;
  EXPECT_FALSE(policy.Decide({}, 1).ok());

  std::vector<double> history = {10.0, 12.0, 14.0, 16.0};
  Result<ScalingDecision> first = policy.Decide(history, 1);
  ASSERT_TRUE(first.ok());
  // Same history again: the incremental absorber has nothing new to eat
  // and must return the identical capacity (no double counting).
  Result<ScalingDecision> second = policy.Decide(history, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->capacity, second->capacity);
}

TEST(StreamForecastPolicyTest, CapacityNeverDropsBelowHeadroomTimesLatest) {
  StreamForecastPolicy::Options popts;
  popts.headroom = 1.5;
  StreamForecastPolicy policy(popts);
  // Falling demand: the trend points down, but the latest-observation
  // floor keeps the fleet provisioned for what is actually arriving.
  std::vector<double> history;
  for (double v : {100.0, 80.0, 60.0, 40.0, 30.0}) {
    history.push_back(v);
    Result<ScalingDecision> d = policy.Decide(history, 1);
    ASSERT_TRUE(d.ok());
    EXPECT_GE(d->capacity, 1.5 * history.back() - 1e-9);
  }
}

TEST(StreamForecastPolicyTest, SurvivesTruncatedHistory) {
  StreamForecastPolicy policy;
  std::vector<double> history = {5.0, 10.0, 15.0, 20.0, 25.0};
  ASSERT_TRUE(policy.Decide(history, 1).ok());
  // A shrunk history (the controller's max_history eviction) must not trip
  // the incremental-absorption bookkeeping.
  history.assign({30.0, 35.0});
  Result<ScalingDecision> d = policy.Decide(history, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_GE(d->capacity, history.back());
}

TEST(AutoscaleControllerTest, ForecastPolicyLeadsAReactiveOneOnARamp) {
  // The pre-scaling claim in miniature: on a steady linear ramp, the Holt
  // trend projects next interval's demand, so the forecast controller
  // requests capacity above the reactive controller's recent-peak view.
  ThreadPool reactive_pool(1);
  ThreadPool forecast_pool(1);
  AutoscaleController::Options opts;
  opts.min_workers = 1;
  opts.max_workers = 16;
  opts.per_worker_capacity = 10.0;
  AutoscaleController reactive(&reactive_pool, nullptr, opts);
  AutoscaleController forecast(
      &forecast_pool, std::make_unique<StreamForecastPolicy>(), opts);

  for (int i = 1; i <= 20; ++i) {
    const double demand = 10.0 * i;  // +10 per interval, forever upward
    reactive.OnInterval(demand);
    forecast.OnInterval(demand);
  }
  // Both saw the same history; the trend-follower provisions further ahead
  // of the latest observation than the peak-chaser on the rising edge.
  EXPECT_GT(forecast.last_capacity(), 200.0);  // above the latest demand
  EXPECT_GE(forecast_pool.NumThreads(), reactive_pool.NumThreads());
}

}  // namespace
}  // namespace tsdm
