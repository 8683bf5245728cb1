#include "src/ingest/ingest_service.h"

#include <chrono>
#include <utility>

namespace tsdm {

IngestService::IngestService(IngestOptions options)
    : options_(std::move(options)), parser_(options_.num_sensors) {}

Status IngestService::Start() {
  if (started_) return Status::FailedPrecondition("ingest: already started");
  if (options_.num_sensors == 0) {
    return Status::InvalidArgument("ingest: num_sensors must be > 0");
  }
  buffer_ = std::make_unique<StreamBuffer>(
      options_.num_sensors, options_.buffer_capacity, options_.drop_policy);
  auto anomaly = std::make_unique<OnlineAnomalyStage>(
      options_.anomaly_mode, options_.anomaly_threshold,
      options_.anomaly_ew_lambda);
  auto forecast = std::make_unique<OnlineForecastStage>(options_.holt_alpha,
                                                        options_.holt_beta);
  anomaly_ = anomaly.get();
  forecast_ = forecast.get();
  pipeline_.Emplace<WelfordStatsStage>();
  pipeline_.AddStage(std::move(anomaly));
  pipeline_.AddStage(std::move(forecast));
  TSDM_RETURN_IF_ERROR(pipeline_.Reset(options_.num_sensors));
  started_ = true;

  if (options_.wal_dir.empty()) return Status::OK();

  // Replay the valid prefix of any existing log through the same apply path
  // live ticks take, reconstructing the pre-crash stream state exactly.
  auto t0 = std::chrono::steady_clock::now();
  WalScanReport scan;
  TSDM_RETURN_IF_ERROR(WalReader::Scan(
      options_.wal_dir,
      [this](const WalRecord& record) {
        TickMsg msg;
        TSDM_RETURN_IF_ERROR(
            DecodeTickPayload(record.payload, record.size, &msg));
        if (msg.sensor >= options_.num_sensors) {
          return Status::OutOfRange("ingest: replayed sensor out of range");
        }
        recovery_.last_seq = msg.seq;
        recovery_.has_seq = true;
        ++recovery_.ticks_replayed;
        return ApplyTick(msg.ToTick());
      },
      &scan));
  recovery_.torn_records_skipped = scan.torn_records;
  recovery_.segments_scanned = scan.segments;
  recovery_.bytes_scanned = scan.bytes_scanned;
  recovery_.last_lsn = scan.last_lsn;
  recovery_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (recovery_.has_seq) parser_.PrimeSequence(recovery_.last_seq);

  // Appends always go to a brand-new segment: never write after a
  // possibly-torn tail.
  wal_ = std::make_unique<WalWriter>(options_.wal_dir, options_.wal);
  return wal_->Open(scan.next_segment_index, scan.last_lsn + 1);
}

Status IngestService::ApplyTick(const Tick& tick) {
  if (!buffer_->Push(tick)) {
    return Status::ResourceExhausted("ingest: buffer rejected tick");
  }
  if (!buffer_->Poll(&scratch_.tick)) {
    return Status::Internal("ingest: pushed tick vanished");
  }
  return pipeline_.ProcessTick(&scratch_);
}

Result<size_t> IngestService::IngestBytes(const uint8_t* data, size_t size) {
  if (!started_) return Status::FailedPrecondition("ingest: not started");
  if (dead_) return Status::FailedPrecondition("ingest: service is dead");
  parsed_.clear();
  parser_.Consume(data, size, &parsed_);
  size_t applied = 0;
  for (const TickMsg& msg : parsed_) {
    if (wal_ != nullptr) {
      uint8_t payload[kTickPayloadSize];
      EncodeTickPayload(msg, payload);
      Status status = wal_->Append(payload, kTickPayloadSize);
      if (status.ok() && options_.sync_every_ticks != 0 &&
          ++ticks_since_sync_ >= options_.sync_every_ticks) {
        ticks_since_sync_ = 0;
        status = wal_->Sync();
      }
      if (!status.ok()) {
        // A failed append or sync is a failed disk: the tick was
        // acknowledged to nobody, and the log may already hold it, so
        // processing it or anything after it would fork the state from
        // the log. Die.
        dead_ = true;
        return status;
      }
    }
    TSDM_RETURN_IF_ERROR(ApplyTick(msg.ToTick()));
    ++applied;
  }
  return applied;
}

Status IngestService::Sync() {
  if (!started_ || dead_) {
    return Status::FailedPrecondition("ingest: not running");
  }
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

Status IngestService::Stop() {
  if (!started_ || dead_) {
    return Status::FailedPrecondition("ingest: not running");
  }
  dead_ = true;
  if (wal_ == nullptr) return Status::OK();
  return wal_->Close();
}

void IngestService::ArmCrash(CrashPoint point, uint64_t record_ordinal) {
  if (wal_ != nullptr) wal_->ArmCrash(point, record_ordinal);
}

IngestStatsSnapshot IngestService::Stats() const {
  IngestStatsSnapshot snapshot;
  snapshot.parser = parser_.stats();
  snapshot.wal_enabled = wal_ != nullptr;
  if (wal_ != nullptr) snapshot.wal = wal_->stats();
  snapshot.recovery = recovery_;
  snapshot.ticks_processed = pipeline_.ticks_processed();
  snapshot.anomaly_alarms = anomaly_ != nullptr ? anomaly_->alarms() : 0;
  snapshot.buffer_dropped = buffer_ != nullptr ? buffer_->dropped() : 0;
  return snapshot;
}

}  // namespace tsdm
