#ifndef TSDM_SERVE_AUTOSCALE_CONTROLLER_H_
#define TSDM_SERVE_AUTOSCALE_CONTROLLER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/decision/scaling/autoscaler.h"
#include "src/stream/stream_stage.h"

namespace tsdm {

/// Trend-following autoscale policy over the *live* arrival stream: wraps
/// the streaming Holt forecaster (OnlineForecastStage) and provisions for
/// its `horizon`-step-ahead projection, level + horizon * trend. While a
/// surge is still ramping the trend term projects past the latest
/// observation, so capacity moves *before* the peak arrives — the
/// pre-scaling behavior the replay bench asserts (scale-up timestamp <
/// peak-arrival timestamp). ReactivePolicy, by contrast, can only chase
/// the peak after it has been observed.
///
/// Incremental contract: each Decide call absorbs the history samples it
/// has not seen yet (the controller appends exactly one per review
/// interval), so repeated Decide calls cost O(1) — no refitting over the
/// whole history like PredictivePolicy.
class StreamForecastPolicy : public AutoscalePolicy {
 public:
  struct Options {
    double headroom = 1.1;  ///< multiplier on the projected demand
  };

  StreamForecastPolicy() : StreamForecastPolicy(Options()) {}
  explicit StreamForecastPolicy(Options options);

  std::string Name() const override { return "stream-forecast"; }
  Result<ScalingDecision> Decide(const std::vector<double>& demand_history,
                                 int horizon) override;

 private:
  Options options_;
  OnlineForecastStage forecaster_;
  size_t absorbed_ = 0;  ///< prefix of the history already fed to the stage
};

/// Closes the MagicScaler loop ([6]): the serve loop's *observed* arrival
/// rate becomes the demand history an AutoscalePolicy forecasts over, and
/// the resulting capacity decision becomes an actual ThreadPool::Resize —
/// the decision/scaling layer finally scales something real instead of a
/// simulated trace.
///
/// Units: demand is requests per review interval; one worker is assumed to
/// serve `per_worker_capacity` requests per interval, so workers =
/// ceil(capacity / per_worker_capacity), clamped to [min_workers,
/// max_workers].
///
/// The policy forecasts one review interval ahead. Driven from a single
/// control thread (the serve autoscale timer) — the same restriction
/// ThreadPool::Resize carries.
class AutoscaleController {
 public:
  struct Options {
    int min_workers = 1;
    int max_workers = 8;
    /// Requests one worker handles per review interval; calibrate from a
    /// measured per-request service time.
    double per_worker_capacity = 100.0;
    /// Demand history retained (oldest dropped beyond this).
    size_t max_history = 4096;
  };

  /// The pool must outlive the controller. `policy` defaults to
  /// ReactivePolicy when null — PredictivePolicy needs seasons of history
  /// that a fresh server does not have yet.
  AutoscaleController(ThreadPool* pool, std::unique_ptr<AutoscalePolicy> policy)
      : AutoscaleController(pool, std::move(policy), Options()) {}
  AutoscaleController(ThreadPool* pool,
                      std::unique_ptr<AutoscalePolicy> policy,
                      Options options);

  /// Records the arrivals observed over the last review interval, asks the
  /// policy for the next capacity, and resizes the pool if the clamped
  /// worker count changed. Returns the pool's (possibly new) worker count.
  int OnInterval(double arrivals);

  int workers() const { return pool_->NumThreads(); }
  int scale_events() const { return scale_events_; }
  /// Last capacity the policy asked for (pre-clamping), for observability.
  double last_capacity() const { return last_capacity_; }
  const std::vector<double>& history() const { return history_; }
  const Options& options() const { return options_; }

 private:
  ThreadPool* pool_;
  std::unique_ptr<AutoscalePolicy> policy_;
  Options options_;
  std::vector<double> history_;
  double last_capacity_ = 0.0;
  int scale_events_ = 0;
};

}  // namespace tsdm

#endif  // TSDM_SERVE_AUTOSCALE_CONTROLLER_H_
