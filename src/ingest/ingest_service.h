#ifndef TSDM_INGEST_INGEST_SERVICE_H_
#define TSDM_INGEST_INGEST_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/ingest/tick_parser.h"
#include "src/ingest/wal.h"
#include "src/stream/stream_buffer.h"
#include "src/stream/stream_pipeline.h"
#include "src/stream/stream_stage.h"

namespace tsdm {

/// Configuration of the durable ingestion tier.
struct IngestOptions {
  size_t num_sensors = 0;  ///< required, > 0

  /// Durability. With wal_dir empty the WAL is disabled (parse + process
  /// only — the configuration the ingest bench uses as its speed-of-light).
  std::string wal_dir;
  WalOptions wal;
  /// msync cadence in ticks (0 = only explicit Sync). A process crash loses
  /// no acknowledged ticks regardless (the page cache survives the
  /// process); this cadence — and WalOptions::synchronous, which makes each
  /// sync a blocking MS_SYNC — only narrows what a *machine* crash can
  /// lose.
  uint64_t sync_every_ticks = 256;

  /// Retention ring behind the pipeline (SnapshotSensor windows).
  size_t buffer_capacity = 256;
  DropPolicy drop_policy = DropPolicy::kDropOldest;

  /// Stage parameters (must match across restarts for replay to land in
  /// the same state — they are configuration, not logged state).
  OnlineAnomalyStage::Mode anomaly_mode = OnlineAnomalyStage::Mode::kMad;
  double anomaly_threshold = 8.0;
  double anomaly_ew_lambda = 0.05;
  double holt_alpha = 0.3;
  double holt_beta = 0.1;
};

/// What Start() recovered from the log before accepting new bytes.
struct RecoveryReport {
  uint64_t ticks_replayed = 0;
  uint64_t torn_records_skipped = 0;
  uint64_t segments_scanned = 0;
  uint64_t bytes_scanned = 0;
  uint64_t last_lsn = 0;
  uint32_t last_seq = 0;    ///< highest tick sequence number replayed
  bool has_seq = false;     ///< false when the log was empty
  double seconds = 0.0;     ///< wall-clock replay time
};

/// Counter snapshot for MetricsExporter (tsdm_ingest_* families).
struct IngestStatsSnapshot {
  TickParserStats parser;
  bool wal_enabled = false;
  WalWriterStats wal;
  RecoveryReport recovery;
  uint64_t ticks_processed = 0;
  uint64_t anomaly_alarms = 0;
  uint64_t buffer_dropped = 0;
};

/// The feed-handler front end of the streaming subsystem: raw length-prefixed
/// tick bytes in, durably logged and fully processed stream state out.
///
/// Per accepted tick the service does, in order: (1) append the 24-byte tick
/// payload to the WAL — durability precedes processing, so the log is always
/// a superset of the processed stream; (2) push into the retention
/// StreamBuffer and poll it back out (preserving the buffer's retained
/// window semantics); (3) run the StreamPipeline (Welford stats → online
/// anomaly → Holt forecast). Because the pipeline is deterministic, the
/// WAL's valid prefix replayed through the same code path reconstructs the
/// exact pre-crash state — bitwise, including EW-MAD and Holt internals —
/// which is what Start() does on restart before accepting new bytes.
///
/// After a crash the upstream feed must resend from recovery().last_seq + 1
/// (the standard gap-request handshake); the parser is primed so replayed
/// sequence numbers are not re-accepted as duplicates.
///
/// Single-threaded by design: one ingestion thread owns the parser, the WAL
/// writer, and the pipeline, exactly like the stream consumer contract.
class IngestService {
 public:
  explicit IngestService(IngestOptions options);

  /// Builds the pipeline, replays any existing WAL (see recovery()), and
  /// opens a fresh segment for appends. Must be called exactly once before
  /// IngestBytes.
  Status Start();

  /// Parses `size` bytes and applies every accepted tick (log → buffer →
  /// pipeline). Returns the number of ticks applied. Fails on WAL errors —
  /// a failed append or group-commit sync, including armed crash points —
  /// after such a failure the service is dead and every later call returns
  /// FailedPrecondition, mirroring a crashed process.
  Result<size_t> IngestBytes(const uint8_t* data, size_t size);

  /// Forces an msync of the WAL.
  Status Sync();

  /// Syncs and closes the WAL. The service cannot be restarted; build a new
  /// one over the same wal_dir instead (that is the restart path).
  Status Stop();

  /// Arms a WAL crash point (test harness; see CrashPoint).
  void ArmCrash(CrashPoint point, uint64_t record_ordinal);

  bool dead() const { return dead_; }
  const RecoveryReport& recovery() const { return recovery_; }
  const IngestOptions& options() const { return options_; }

  StreamPipeline& pipeline() { return pipeline_; }
  const StreamPipeline& pipeline() const { return pipeline_; }
  StreamBuffer& buffer() { return *buffer_; }
  const TickParser& parser() const { return parser_; }

  /// The anomaly and forecast stages, for reading alarms / ForecastNext.
  const OnlineAnomalyStage& anomaly_stage() const { return *anomaly_; }
  const OnlineForecastStage& forecast_stage() const { return *forecast_; }

  IngestStatsSnapshot Stats() const;

 private:
  /// The single apply path shared by live ingest and replay: buffer push,
  /// poll, pipeline. Determinism of recovery rests on this being the only
  /// way a tick reaches the pipeline.
  Status ApplyTick(const Tick& tick);

  IngestOptions options_;
  bool started_ = false;
  bool dead_ = false;
  TickParser parser_;
  std::unique_ptr<WalWriter> wal_;  // null when durability is disabled
  std::unique_ptr<StreamBuffer> buffer_;
  StreamPipeline pipeline_;
  OnlineAnomalyStage* anomaly_ = nullptr;    // owned by pipeline_
  OnlineForecastStage* forecast_ = nullptr;  // owned by pipeline_
  RecoveryReport recovery_;
  TickRecord scratch_;
  std::vector<TickMsg> parsed_;  // reused per IngestBytes call
  uint64_t ticks_since_sync_ = 0;
};

}  // namespace tsdm

#endif  // TSDM_INGEST_INGEST_SERVICE_H_
