#include "src/stream/stream_pipeline.h"

#include <chrono>

#include "src/common/bytes.h"
#include "src/obs/trace.h"

namespace tsdm {

namespace {

constexpr uint32_t kStateMagic = 0x53505354;  // "TSPS"
constexpr uint32_t kStateVersion = 1;

}  // namespace

StreamPipeline& StreamPipeline::AddStage(std::unique_ptr<StreamStage> stage) {
  stages_.push_back(std::move(stage));
  ready_ = false;  // the new stage needs a Reset before ticks flow
  return *this;
}

Status StreamPipeline::Reset(size_t num_sensors) {
  registry_ = StageMetricsRegistry();
  tick_latency_ = LatencyHistogram();
  slots_.clear();
  slots_.reserve(stages_.size());
  names_.clear();
  names_.reserve(stages_.size());
  ticks_ = 0;
  num_sensors_ = num_sensors;
  for (auto& stage : stages_) {
    TSDM_RETURN_IF_ERROR(stage->Reset(num_sensors));
    // Resolving the registry slot (and the stage name the trace spans
    // reference) here keeps the per-tick path free of map lookups and
    // string allocation while tracing is disabled.
    slots_.push_back(&registry_.ForStage(stage->Name()));
    names_.push_back(stage->Name());
  }
  ready_ = true;
  return Status::OK();
}

Status StreamPipeline::ProcessTick(TickRecord* rec) {
  if (!ready_) {
    return Status::FailedPrecondition(
        "StreamPipeline: Reset(num_sensors) must run before ticks");
  }
  // Reset the output slots, keeping the tick itself.
  Tick tick = rec->tick;
  *rec = TickRecord();
  rec->tick = tick;

  using Clock = std::chrono::steady_clock;
  auto seconds = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  TraceSpan tick_span("stream/tick", static_cast<int64_t>(rec->tick.sensor));
  // Stage i ends where stage i+1 starts: one clock sample per boundary.
  const Clock::time_point tick_start = Clock::now();
  Clock::time_point stage_start = tick_start;
  for (size_t i = 0; i < stages_.size(); ++i) {
    Status status;
    {
      TraceSpan stage_span(names_[i]);
      status = stages_[i]->OnTick(rec);
    }
    const Clock::time_point stage_end = Clock::now();
    StageMetrics* slot = slots_[i];
    slot->latency.Add(seconds(stage_end - stage_start));
    ++slot->invocations;
    if (!status.ok()) {
      ++slot->failures;
      tick_latency_.Add(seconds(stage_end - tick_start));
      return status;
    }
    stage_start = stage_end;
  }
  tick_latency_.Add(seconds(stage_start - tick_start));
  ++ticks_;
  return Status::OK();
}

size_t StreamPipeline::Drain(StreamBuffer* buffer, TickRecord* rec) {
  size_t processed = 0;
  while (buffer->Poll(&rec->tick)) {
    if (!ProcessTick(rec).ok()) break;
    ++processed;
  }
  return processed;
}

Status StreamPipeline::SaveState(std::vector<uint8_t>* out) const {
  if (!ready_) {
    return Status::FailedPrecondition(
        "StreamPipeline: Reset must run before SaveState");
  }
  PutU32(out, kStateMagic);
  PutU32(out, kStateVersion);
  PutU64(out, num_sensors_);
  PutU64(out, ticks_);
  PutU32(out, static_cast<uint32_t>(stages_.size()));
  std::vector<uint8_t> blob;
  for (size_t i = 0; i < stages_.size(); ++i) {
    const std::string& name = names_[i];
    PutU32(out, static_cast<uint32_t>(name.size()));
    out->insert(out->end(), name.begin(), name.end());
    blob.clear();
    TSDM_RETURN_IF_ERROR(stages_[i]->SaveState(&blob));
    PutU64(out, blob.size());
    out->insert(out->end(), blob.begin(), blob.end());
  }
  return Status::OK();
}

Status StreamPipeline::RestoreState(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint32_t magic = 0, version = 0, num_stages = 0;
  uint64_t num_sensors = 0, ticks = 0;
  if (!reader.ReadU32(&magic) || !reader.ReadU32(&version) ||
      !reader.ReadU64(&num_sensors) || !reader.ReadU64(&ticks) ||
      !reader.ReadU32(&num_stages)) {
    return Status::InvalidArgument("StreamPipeline: state blob truncated");
  }
  if (magic != kStateMagic) {
    return Status::InvalidArgument("StreamPipeline: bad state magic");
  }
  if (version != kStateVersion) {
    return Status::InvalidArgument("StreamPipeline: unsupported state version");
  }
  if (num_stages != stages_.size()) {
    return Status::InvalidArgument(
        "StreamPipeline: stage count mismatch — restore requires the same "
        "pipeline construction");
  }
  // Reset sizes every stage and resolves metric slots (and names_); the
  // per-stage restores below then overwrite the fresh analytic state.
  TSDM_RETURN_IF_ERROR(Reset(static_cast<size_t>(num_sensors)));
  for (size_t i = 0; i < stages_.size(); ++i) {
    uint32_t name_len = 0;
    if (!reader.ReadU32(&name_len)) {
      return Status::InvalidArgument("StreamPipeline: state blob truncated");
    }
    const uint8_t* name_bytes = reader.ReadSpan(name_len);
    if (name_bytes == nullptr) {
      return Status::InvalidArgument("StreamPipeline: state blob truncated");
    }
    std::string name(reinterpret_cast<const char*>(name_bytes), name_len);
    if (name != names_[i]) {
      return Status::InvalidArgument(
          "StreamPipeline: stage order mismatch — saved '" + name +
          "', pipeline has '" + names_[i] + "' at position " +
          std::to_string(i));
    }
    uint64_t blob_len = 0;
    if (!reader.ReadU64(&blob_len)) {
      return Status::InvalidArgument("StreamPipeline: state blob truncated");
    }
    const uint8_t* blob = reader.ReadSpan(static_cast<size_t>(blob_len));
    if (blob == nullptr && blob_len != 0) {
      return Status::InvalidArgument("StreamPipeline: state blob truncated");
    }
    TSDM_RETURN_IF_ERROR(
        stages_[i]->RestoreState(blob, static_cast<size_t>(blob_len)));
  }
  if (!reader.Done()) {
    return Status::InvalidArgument("StreamPipeline: trailing state bytes");
  }
  ticks_ = ticks;
  return Status::OK();
}

}  // namespace tsdm
