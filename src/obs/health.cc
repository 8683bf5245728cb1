#include "src/obs/health.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/stream/stream_stage.h"

namespace tsdm {

namespace {

constexpr const char* kMetricNames[HealthMonitor::kNumMetrics] = {
    "queue_depth", "arrival_rate", "shed_rate", "cache_hit_rate",
    "latency_mean"};

constexpr const char* kStageNames[4] = {"queue", "batch", "cache", "exec"};

/// Retained samples per watched metric.
constexpr size_t kRingCapacity = 256;

/// Anomaly detector: EW-MAD, which resists the level shifts a server's load
/// curve goes through.
constexpr double kAnomalyThreshold = 6.0;
constexpr double kEwLambda = 0.05;

/// Any one anomalous metric degrades; two at once are unhealthy.
constexpr int kDegradedAnomalousMetrics = 1;
constexpr int kUnhealthyAnomalousMetrics = 2;

/// SLO burn that makes the state at least Degraded: spending exactly the
/// error budget.
constexpr double kBurnDegraded = 1.0;

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(Sampler sampler, Options options)
    : options_(options),
      sampler_(std::move(sampler)),
      buffer_(kNumMetrics, kRingCapacity) {
  pipeline_.Emplace<OnlineAnomalyStage>(OnlineAnomalyStage::Mode::kMad,
                                        kAnomalyThreshold, kEwLambda);
  pipeline_.Reset(kNumMetrics);
  snapshot_.metrics.resize(kNumMetrics);
  for (size_t i = 0; i < kNumMetrics; ++i) {
    snapshot_.metrics[i].name = kMetricNames[i];
  }
  snapshot_.slo_objective_seconds = options_.slo_p95_objective_seconds;
}

HealthMonitor::~HealthMonitor() { Stop(); }

Status HealthMonitor::Start() {
  std::unique_lock<std::mutex> lock(run_mu_);
  if (running_) {
    return Status::FailedPrecondition("HealthMonitor: already running");
  }
  running_ = true;
  thread_ = std::thread([this] { RunLoop(); });
  return Status::OK();
}

void HealthMonitor::Stop() {
  {
    std::unique_lock<std::mutex> lock(run_mu_);
    if (!running_ && !thread_.joinable()) return;
    running_ = false;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void HealthMonitor::RunLoop() {
  std::unique_lock<std::mutex> lock(run_mu_);
  while (running_) {
    wake_.wait_for(
        lock, std::chrono::duration<double>(options_.sample_interval_seconds),
        [this] { return !running_; });
    if (!running_) break;
    // Sample outside the lifecycle lock so Stop never waits on a sampler.
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

HealthState HealthMonitor::Judge(int hot_metrics, double burn) const {
  if (hot_metrics >= kUnhealthyAnomalousMetrics ||
      burn >= options_.burn_unhealthy) {
    return HealthState::kUnhealthy;
  }
  if (hot_metrics >= kDegradedAnomalousMetrics || burn >= kBurnDegraded) {
    return HealthState::kDegraded;
  }
  return HealthState::kHealthy;
}

void HealthMonitor::SampleOnce() {
  ServeStatsSnapshot now = sampler_();

  // Derive one observation per watched metric. Counters become interval
  // deltas (rates), ratio metrics become interval ratios carrying their
  // last value through empty intervals — a quiet interval is "nothing
  // changed", not "the hit rate collapsed to zero".
  double values[kNumMetrics] = {};
  values[0] = static_cast<double>(now.queue_depth);
  uint64_t interval_count = 0;
  if (have_prev_) {
    values[1] = static_cast<double>(now.submitted - prev_.submitted);
    values[2] = static_cast<double>(now.TotalShed() - prev_.TotalShed());
    const uint64_t d_lookups = (now.cache_hits + now.cache_misses) -
                               (prev_.cache_hits + prev_.cache_misses);
    last_hit_rate_ =
        d_lookups > 0
            ? static_cast<double>(now.cache_hits - prev_.cache_hits) /
                  static_cast<double>(d_lookups)
            : last_hit_rate_;
    interval_count = now.e2e_latency.count() - prev_.e2e_latency.count();
    last_latency_mean_ =
        interval_count > 0
            ? (now.e2e_latency.total_seconds() -
               prev_.e2e_latency.total_seconds()) /
                  static_cast<double>(interval_count)
            : last_latency_mean_;
  } else {
    values[1] = 0.0;
    values[2] = 0.0;
    last_hit_rate_ = now.CacheHitRate();
    last_latency_mean_ = now.e2e_latency.MeanSeconds();
    interval_count = now.e2e_latency.count();
  }
  values[3] = last_hit_rate_;
  values[4] = last_latency_mean_;

  // SLO burn over the interval: what fraction of this interval's answered
  // requests blew the latency objective, relative to the error budget.
  const double objective = options_.slo_p95_objective_seconds;
  const uint64_t d_above =
      now.e2e_latency.CountAbove(objective) -
      (have_prev_ ? prev_.e2e_latency.CountAbove(objective) : 0);
  const double violation =
      interval_count > 0
          ? static_cast<double>(d_above) / static_cast<double>(interval_count)
          : 0.0;
  const double burn =
      violation / std::max(1e-12, options_.slo_error_budget);

  // Critical-path attribution: which stage's total time grew the most
  // this interval — same rule as ServeStatsSnapshot::SlowestStage, applied
  // to deltas so it names the *current* bottleneck, not the historic one.
  const double stage_now[4] = {
      now.stage_queue.total_seconds(), now.stage_batch.total_seconds(),
      now.stage_cache.total_seconds(), now.stage_exec.total_seconds()};
  const double stage_prev[4] = {
      have_prev_ ? prev_.stage_queue.total_seconds() : 0.0,
      have_prev_ ? prev_.stage_batch.total_seconds() : 0.0,
      have_prev_ ? prev_.stage_cache.total_seconds() : 0.0,
      have_prev_ ? prev_.stage_exec.total_seconds() : 0.0};
  int offender = -1;
  double stage_sum = 0.0;
  for (int i = 0; i < 4; ++i) {
    const double delta = std::max(0.0, stage_now[i] - stage_prev[i]);
    stage_sum += delta;
    if (delta > 0.0 &&
        (offender < 0 ||
         delta > stage_now[offender] - stage_prev[offender])) {
      offender = i;
    }
  }

  // Feed the observations through the streaming path exactly as sensor
  // ticks would flow: per-metric ring, then the anomaly pipeline.
  const bool alarms_armed = samples_ >= options_.warmup_samples;
  for (size_t i = 0; i < kNumMetrics; ++i) {
    buffer_.Push(i, static_cast<int64_t>(samples_), values[i]);
  }
  double scores[kNumMetrics] = {};
  bool anomalous[kNumMetrics] = {};
  Tick tick;
  TickRecord rec;
  while (buffer_.Poll(&tick)) {
    rec.tick = tick;
    if (!pipeline_.ProcessTick(&rec).ok()) continue;
    if (tick.sensor < kNumMetrics) {
      scores[tick.sensor] = rec.anomaly_score;
      anomalous[tick.sensor] = rec.is_anomaly && alarms_armed;
    }
  }

  int hot = 0;
  for (size_t i = 0; i < kNumMetrics; ++i) hot += anomalous[i] ? 1 : 0;

  // Transition bookkeeping happens under the snapshot lock, but the
  // notification runs unlocked: the flight recorder freezes a dump, which
  // must not hold mu_ while a Snapshot() reader waits.
  bool transitioned = false;
  HealthTransition transition;
  HealthSnapshot at_transition;
  {
    std::unique_lock<std::mutex> lock(mu_);
    snapshot_.samples = samples_ + 1;
    for (size_t i = 0; i < kNumMetrics; ++i) {
      MetricVerdict& v = snapshot_.metrics[i];
      v.value = values[i];
      v.score = scores[i];
      v.anomalous = anomalous[i];
      if (anomalous[i]) {
        ++v.anomalies;
        ++snapshot_.anomalies_total;
      }
    }
    snapshot_.violation_fraction = violation;
    snapshot_.burn_rate = burn;
    snapshot_.top_offender = offender < 0 ? "" : kStageNames[offender];
    snapshot_.top_offender_share =
        offender < 0 || stage_sum <= 0.0
            ? 0.0
            : (stage_now[offender] - stage_prev[offender]) / stage_sum;
    const HealthState next = Judge(hot, burn);
    if (next != snapshot_.state) {
      transition.sample = samples_ + 1;
      transition.at_ns = TraceRecorder::NowNs();
      transition.from = snapshot_.state;
      transition.to = next;
      transition.top_offender = snapshot_.top_offender;
      transition.burn_rate = burn;
      snapshot_.transitions.push_back(transition);
      const size_t keep = std::max<size_t>(1, options_.transition_history);
      while (snapshot_.transitions.size() > keep) {
        snapshot_.transitions.erase(snapshot_.transitions.begin());
      }
      ++snapshot_.transitions_total;
      transitioned = true;
    }
    snapshot_.state = next;
    if (transitioned) at_transition = snapshot_;
  }

  prev_ = std::move(now);
  have_prev_ = true;
  ++samples_;

  if (transitioned) {
    FlightRecorder::Global().OnHealthTransition(transition, at_transition);
  }
}

HealthSnapshot HealthMonitor::Snapshot() const {
  std::unique_lock<std::mutex> lock(mu_);
  return snapshot_;
}

}  // namespace tsdm
