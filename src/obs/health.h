#ifndef TSDM_OBS_HEALTH_H_
#define TSDM_OBS_HEALTH_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/serve_stats.h"
#include "src/stream/stream_buffer.h"
#include "src/stream/stream_pipeline.h"

namespace tsdm {

/// Overall verdict of the self-monitor, ordered by severity.
enum class HealthState {
  kHealthy = 0,
  kDegraded = 1,   ///< at least one watched metric is anomalous
  kUnhealthy = 2,  ///< multiple metrics anomalous, or the SLO burn is severe
};

const char* HealthStateName(HealthState state);

/// One state change of the self-monitor: when it happened (sampling round
/// + trace-origin clock), what it went from/to, and the evidence of the
/// moment — the stage whose time grew the most and the SLO burn rate. A
/// bounded ring of these rides in every HealthSnapshot, so /health and the
/// flight recorder's black-box dump can show *when* a degradation started,
/// not just the current state.
struct HealthTransition {
  uint64_t sample = 0;  ///< sampling round the transition was judged on
  uint64_t at_ns = 0;   ///< TraceRecorder::NowNs at the transition
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
  std::string top_offender;  ///< stage attribution at the transition
  double burn_rate = 0.0;    ///< SLO burn at the transition
};

/// Latest judgment of one watched operational metric.
struct MetricVerdict {
  std::string name;
  double value = 0.0;      ///< latest sampled value
  double score = 0.0;      ///< prequential anomaly score of that sample
  bool anomalous = false;  ///< latest sample flagged (post-warmup)
  uint64_t anomalies = 0;  ///< flagged samples since Start (post-warmup)
};

/// One coherent picture of the serving layer's health, as judged by the
/// repo's own streaming analytics.
struct HealthSnapshot {
  HealthState state = HealthState::kHealthy;
  uint64_t samples = 0;  ///< monitor sampling rounds so far
  std::vector<MetricVerdict> metrics;

  // SLO tracking over the most recent sampling interval.
  double slo_objective_seconds = 0.0;  ///< the latency objective watched
  double violation_fraction = 0.0;  ///< fraction of interval requests above it
  double burn_rate = 0.0;  ///< violation_fraction / error budget (1 = on budget)

  // Critical-path attribution: the stage whose total time grew the most
  // over the last interval — where a degradation is coming from.
  std::string top_offender;
  double top_offender_share = 0.0;  ///< its share of interval stage time

  uint64_t anomalies_total = 0;  ///< flagged samples across all metrics

  /// The most recent state transitions, oldest first, bounded by
  /// HealthMonitor::kTransitionHistory. transitions_total keeps counting past
  /// the window, so "has anything flapped since?" survives the trim.
  std::vector<HealthTransition> transitions;
  uint64_t transitions_total = 0;
};

/// Watches a QueryServer (or anything that can produce ServeStatsSnapshots)
/// with tsdm's own time-series machinery — the observability layer eating
/// the analytics it serves. Every sampling round the monitor:
///
///   1. pulls a ServeStatsSnapshot from the injected sampler,
///   2. derives one value per watched metric (queue depth, arrival rate,
///      shed rate, cache hit rate, mean request latency — rates and means
///      are interval deltas, so each sample is one observation of "how is
///      the server doing *right now*"),
///   3. pushes each value into a per-metric StreamBuffer ring and runs the
///      ticks through a StreamPipeline with an OnlineAnomalyStage
///      (EW-MAD), exactly as sensor data would flow,
///   4. tracks the p95 latency SLO's burn rate from interval deltas of the
///      e2e histogram's CountAbove(objective), and attributes interval
///      stage time to the slowest component via the stage histograms.
///
/// Anomalous metrics and the burn rate combine into a HealthState:
/// Degraded when any watched metric trips (or the burn exceeds budget),
/// Unhealthy when several trip at once (or the burn is a multiple of
/// budget). The first `warmup_samples` rounds never alarm — the detector
/// is still learning what normal looks like.
///
/// Thread-safety: Start spawns one background sampling thread; Snapshot is
/// safe from any thread. SampleOnce is for deterministic tests and single-
/// threaded embedding (never call it while the background thread runs).
class HealthMonitor {
 public:
  struct Options {
    double sample_interval_seconds = 0.05;
    /// Samples before any alarm may fire (detector warmup).
    uint64_t warmup_samples = 8;

    // SLO: at most `slo_error_budget` of requests may exceed the latency
    // objective; burn rate 1.0 means exactly spending that budget (and
    // makes the state at least Degraded).
    double slo_p95_objective_seconds = 0.05;
    double slo_error_budget = 0.05;
  };

  static constexpr double kBurnUnhealthy = 2.0;  ///< burn >= this -> Unhealthy
  /// Transitions kept in HealthSnapshot::transitions (oldest trimmed).
  static constexpr size_t kTransitionHistory = 16;

  using Sampler = std::function<ServeStatsSnapshot()>;

  /// `sampler` is called once per round (from the background thread after
  /// Start) and must be safe to call concurrently with the serving path —
  /// QueryServer::Stats is. The monitor is constructed stopped.
  explicit HealthMonitor(Sampler sampler)
      : HealthMonitor(std::move(sampler), Options()) {}
  HealthMonitor(Sampler sampler, Options options);
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Spawns the sampling thread. FailedPrecondition if already running.
  Status Start();

  /// Joins the sampling thread. Idempotent; the destructor calls it.
  void Stop();

  /// Runs one sampling round synchronously (test / manual-drive entry).
  void SampleOnce();

  /// Copies the latest health picture; safe from any thread.
  HealthSnapshot Snapshot() const;

  /// The watched metrics, in verdict order.
  static constexpr size_t kNumMetrics = 5;

 private:
  void RunLoop();
  HealthState Judge(int hot_metrics, double burn) const;

  Options options_;
  Sampler sampler_;

  // Sampling state (touched only by the sampling thread / SampleOnce).
  StreamBuffer buffer_;
  StreamPipeline pipeline_;
  uint64_t samples_ = 0;
  bool have_prev_ = false;
  ServeStatsSnapshot prev_;
  double last_hit_rate_ = 0.0;
  double last_latency_mean_ = 0.0;

  // Published picture, guarded for concurrent Snapshot readers.
  mutable std::mutex mu_;
  HealthSnapshot snapshot_;

  // Background thread lifecycle.
  std::mutex run_mu_;
  std::condition_variable wake_;
  std::thread thread_;
  bool running_ = false;
};

}  // namespace tsdm

#endif  // TSDM_OBS_HEALTH_H_
