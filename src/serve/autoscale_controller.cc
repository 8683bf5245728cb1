#include "src/serve/autoscale_controller.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/obs/trace.h"

namespace tsdm {

namespace {

/// Holt level smoothing of StreamForecastPolicy (higher = faster tracking).
constexpr double kForecastAlpha = 0.4;
/// Holt trend smoothing of StreamForecastPolicy.
constexpr double kForecastBeta = 0.2;
/// Review intervals the controller's policy forecasts over.
constexpr int kForecastHorizon = 1;

}  // namespace

StreamForecastPolicy::StreamForecastPolicy(Options options)
    : options_(options), forecaster_(kForecastAlpha, kForecastBeta) {
  options_.headroom = std::max(1.0, options_.headroom);
  // One "sensor": the aggregate arrival rate. Reset cannot fail for a
  // nonzero sensor count.
  (void)forecaster_.Reset(1);
}

Result<ScalingDecision> StreamForecastPolicy::Decide(
    const std::vector<double>& demand_history, int horizon) {
  if (demand_history.empty()) {
    return Status::InvalidArgument("stream-forecast: empty demand history");
  }
  // Absorb the unseen suffix. The controller normally appends one sample
  // per interval, but a truncated history (max_history eviction) restarts
  // absorbed_ bookkeeping from the shrunk length rather than replaying.
  if (absorbed_ > demand_history.size()) absorbed_ = demand_history.size() - 1;
  for (; absorbed_ < demand_history.size(); ++absorbed_) {
    TickRecord rec;
    rec.tick.sensor = 0;
    rec.tick.timestamp = static_cast<int64_t>(absorbed_);
    rec.tick.value = demand_history[absorbed_];
    (void)forecaster_.OnTick(&rec);
  }
  const double projected = forecaster_.ForecastAhead(0, std::max(1, horizon));
  const double latest = demand_history.back();
  // Provision for the worse of "what we just saw" and "where the trend is
  // heading" — the floor keeps a flat-but-high load provisioned while the
  // projection handles the rising edge.
  ScalingDecision decision;
  decision.capacity =
      options_.headroom * std::max(latest, std::isnan(projected) ? latest
                                                                 : projected);
  return decision;
}

AutoscaleController::AutoscaleController(
    ThreadPool* pool, std::unique_ptr<AutoscalePolicy> policy,
    Options options)
    : pool_(pool), policy_(std::move(policy)), options_(options) {
  if (policy_ == nullptr) policy_ = std::make_unique<ReactivePolicy>();
  options_.min_workers = std::max(1, options_.min_workers);
  options_.max_workers = std::max(options_.min_workers, options_.max_workers);
  options_.per_worker_capacity = std::max(1e-9, options_.per_worker_capacity);
}

int AutoscaleController::OnInterval(double arrivals) {
  history_.push_back(std::max(0.0, arrivals));
  if (history_.size() > options_.max_history) {
    history_.erase(history_.begin(),
                   history_.begin() +
                       static_cast<long>(history_.size() -
                                         options_.max_history));
  }
  Result<ScalingDecision> decision =
      policy_->Decide(history_, kForecastHorizon);
  // A policy that cannot decide yet (e.g. empty history edge cases) keeps
  // the current size — the serve loop must never die to a scaling hiccup.
  if (!decision.ok()) return pool_->NumThreads();
  last_capacity_ = decision->capacity;

  int wanted = static_cast<int>(
      std::ceil(decision->capacity / options_.per_worker_capacity));
  wanted = std::clamp(wanted, options_.min_workers, options_.max_workers);
  int current = pool_->NumThreads();
  if (wanted != current) {
    TraceSpan span("serve/resize", wanted);
    pool_->Resize(wanted);
    ++scale_events_;
  }
  return pool_->NumThreads();
}

}  // namespace tsdm
