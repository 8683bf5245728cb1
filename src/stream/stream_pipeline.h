#ifndef TSDM_STREAM_STREAM_PIPELINE_H_
#define TSDM_STREAM_STREAM_PIPELINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram_ext.h"
#include "src/common/status.h"
#include "src/stream/stream_buffer.h"
#include "src/stream/stream_stage.h"

namespace tsdm {

/// Drives an ordered list of StreamStages over ticks, one at a time — the
/// streaming twin of core's Pipeline. Per-stage latency/failure counters
/// land in the same StageMetricsRegistry/LatencyHistogram types the batch
/// executor reports through, so one metrics surface covers both paths.
///
/// Threading contract: producers push into a StreamBuffer concurrently;
/// exactly one consumer thread calls ProcessTick/Drain. Reset must happen
/// before ticks flow; the hot path (ProcessTick on sized stages) performs
/// no heap allocation — metric slots are resolved to raw pointers at Reset
/// and every histogram bin is preallocated.
class StreamPipeline {
 public:
  StreamPipeline& AddStage(std::unique_ptr<StreamStage> stage);

  /// Fluent in-place construction, mirroring Pipeline::Emplace.
  template <typename StageT, typename... Args>
  StreamPipeline& Emplace(Args&&... args) {
    return AddStage(std::make_unique<StageT>(std::forward<Args>(args)...));
  }

  size_t NumStages() const { return stages_.size(); }
  StreamStage& StageAt(size_t i) const { return *stages_[i]; }

  /// Sizes every stage for `num_sensors` and resolves metric slots. Must
  /// be called (once, or again to restart) before ProcessTick; clears all
  /// metrics.
  Status Reset(size_t num_sensors);

  /// Runs every stage over one tick record (rec->tick must be set; the
  /// other slots are reset here). Stops at the first failing stage — the
  /// failure is counted in that stage's metrics and returned.
  ///
  /// Latency is timed from shared samples: one clock read before the first
  /// stage and one after each stage, so stage i's end is stage i+1's start.
  /// The stage latencies telescope to the tick latency (a failed tick closes
  /// at the end of the stage that failed), with no untimed gaps between.
  Status ProcessTick(TickRecord* rec);

  /// Convenience: wraps `tick` in a record and processes it.
  Status ProcessTick(const Tick& tick) {
    TickRecord rec;
    rec.tick = tick;
    return ProcessTick(&rec);
  }

  /// Polls `buffer` dry, processing every tick through the pipeline. *rec
  /// is reused as scratch and holds the last processed record. Returns the
  /// number of ticks processed; stops early on a stage failure.
  size_t Drain(StreamBuffer* buffer, TickRecord* rec);

  /// Serializes the pipeline's analytic state — every stage's per-sensor
  /// state plus the tick counter — into a versioned little-endian blob.
  /// Restoring the blob into a pipeline built from identically-configured
  /// stages (same types, order, and constructor parameters) reproduces
  /// subsequent ProcessTick outputs bitwise; the WAL replay recovery and
  /// snapshot/restore property tests assert exactly that. Metrics and
  /// latency histograms are observability, not state, and are not saved.
  Status SaveState(std::vector<uint8_t>* out) const;

  /// Inverse of SaveState. Requires the same stage list to have been added;
  /// runs Reset(num_sensors from the blob) and then restores each stage, so
  /// metrics restart from zero while the analytic state continues exactly
  /// where the snapshot left it.
  Status RestoreState(const uint8_t* data, size_t size);

  uint64_t ticks_processed() const { return ticks_; }
  /// End-to-end per-tick latency across all stages.
  const LatencyHistogram& tick_latency() const { return tick_latency_; }
  /// Per-stage latency/failure metrics (same table format as the batch
  /// executor's BatchReport).
  const StageMetricsRegistry& metrics() const { return registry_; }

 private:
  std::vector<std::unique_ptr<StreamStage>> stages_;
  std::vector<StageMetrics*> slots_;  // registry entries, fixed at Reset
  std::vector<std::string> names_;    // stable stage names for trace spans
  StageMetricsRegistry registry_;
  LatencyHistogram tick_latency_;
  uint64_t ticks_ = 0;
  size_t num_sensors_ = 0;
  bool ready_ = false;
};

}  // namespace tsdm

#endif  // TSDM_STREAM_STREAM_PIPELINE_H_
