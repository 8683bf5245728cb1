#ifndef TSDM_OBS_FLIGHT_RECORDER_H_
#define TSDM_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/health.h"
#include "src/obs/trace.h"
#include "src/serve/request_queue.h"
#include "src/serve/serve_stats.h"

namespace tsdm {

/// Terminal fate of a completed request, as the flight recorder sees it.
enum class FlightOutcome {
  kCompleted = 0,  ///< answered with Status::OK
  kShed = 1,       ///< typed admission/overload shed (capacity, expiry, ...)
  kFailed = 2,     ///< answered non-OK for any other reason (model error, ...)
};

/// Why a completed request's trace was retained. The policy is retroactive
/// ("tail-based"): the decision is made at completion time, when the
/// outcome and the end-to-end latency are known — not at the head, when
/// they are not.
enum class FlightRetainReason {
  kSloBreach = 0,   ///< e2e latency >= Options::slo_threshold_seconds
  kShed = 1,        ///< the request was shed
  kError = 2,       ///< the request failed
  kHeadSample = 3,  ///< 1-in-N head sample (baseline for comparison)
};

const char* FlightOutcomeName(FlightOutcome outcome);
const char* FlightRetainReasonName(FlightRetainReason reason);

/// One completed request's black-box record: the linked span tree captured
/// while the request was in flight, plus the terminal answer's outcome,
/// latency attribution, and tenant/shard ownership.
struct FlightRecord {
  uint64_t request_id = 0;  ///< trace request id (0 = tracing was disabled)
  uint64_t seq = 0;         ///< global retention order (monotonic)
  std::string tenant;
  int shard = -1;  ///< SubmitOptions::shard of the serving shard (-1 = none)
  FlightOutcome outcome = FlightOutcome::kCompleted;
  FlightRetainReason reason = FlightRetainReason::kHeadSample;
  StatusCode status_code = StatusCode::kOk;
  std::string status_message;
  double e2e_seconds = 0.0;
  StageBreakdown stages;
  uint64_t client_request_id = 0;
  uint64_t completed_ns = 0;  ///< TraceRecorder::NowNs at completion
  uint64_t spans_dropped = 0;  ///< spans lost to max_spans_per_record
  bool complete = false;       ///< OnComplete has been applied
  /// Every span recorded under this request id, in arrival order. Late
  /// spans (a worker's exec span closes after the completion callback
  /// fires) keep appending while the record sits in the retained ring.
  std::vector<TraceEvent> spans;

  /// Which open-table shard owns the record's span vector (internal;
  /// SIZE_MAX for records synthesized at completion with no spans).
  size_t open_shard = SIZE_MAX;
};

/// One coherent snapshot of the recorder's self-metrics — the shape
/// MetricsExporter::FlightTo* serializes (tsdm_flight_* families).
struct FlightStatsSnapshot {
  bool enabled = false;
  uint64_t observed = 0;         ///< completions seen
  uint64_t retained_slo = 0;     ///< retained: SLO breach
  uint64_t retained_shed = 0;    ///< retained: shed
  uint64_t retained_error = 0;   ///< retained: error
  uint64_t retained_sample = 0;  ///< retained: 1-in-N head sample
  /// Completions that retained nothing. Derived (observed minus every
  /// retained-reason counter) rather than counted, so the discard hot path
  /// pays one atomic bump, not two; duplicate completions land here.
  uint64_t discarded = 0;
  uint64_t evicted = 0;          ///< retained then displaced from the ring
  uint64_t open_overflow = 0;    ///< spans dropped: open table at capacity
  uint64_t spans_captured = 0;
  uint64_t spans_dropped = 0;  ///< spans over max_spans_per_record
  uint64_t dumps = 0;          ///< black-box dumps frozen
  size_t open_requests = 0;    ///< in-flight + retained records in the table
  size_t retained_records = 0;

  uint64_t RetainedTotal() const {
    return retained_slo + retained_shed + retained_error + retained_sample;
  }
};

/// Always-on tail-latency forensics: a bounded, lock-cheap ring of
/// *completed request records* with retroactive retention.
///
/// While a request is in flight its spans cost the recorder *nothing*:
/// they sit in the TraceRecorder's own thread buffers, and the tap on the
/// span hot path is a few relaxed loads and a branch. When the request
/// completes (QueryServer's worker, the queue's shed paths, or the shard
/// router's merge call OnComplete with the terminal RouteAnswer), the
/// retention policy decides retroactively:
///
///   keep iff  e2e >= slo_threshold_seconds   (tail evidence)
///         or  the request was shed/errored   (failure evidence)
///         or  it hit the 1-in-N head sample  (baseline for comparison)
///
/// A discard — the healthy high-throughput case — costs two relaxed
/// counter bumps, no lock. Only a *retained* completion pays: its spans
/// are swept out of the TraceRecorder (CollectRequest reads every
/// thread's unflushed buffer plus the global ring) into a record in a
/// sharded open table, which then accepts late spans (the root span
/// closes right after the completion callback) for a short window before
/// the table entry is tombstoned. So the requests an operator will
/// actually ask about ("show me the last 50 over-SLO requests") are here,
/// whole span tree included, even though nobody knew to sample them at
/// the head — while the other 1023-in-1024 pay nanoseconds. The sweep
/// sees spans the TraceRecorder has not flushed yet; only a ring that
/// already overflowed (tsdm_trace_dropped_total) can cost a retained
/// record spans.
///
/// The retained ring is bounded (Options::capacity) with *per-tenant
/// reservoir slots*: when full, the victim is the oldest record of a
/// tenant holding more than Options::reserved_per_tenant slots — a noisy
/// tenant's flood evicts its own records first and can never push another
/// tenant below its reserve.
///
/// On every HealthMonitor transition *into* Degraded/Unhealthy the
/// recorder freezes a "black-box dump": one JSON artifact with the
/// trigger, the health picture, a serve-stats snapshot plus its delta
/// since the previous dump, and every retained trace — retrievable over
/// the wire via GET /debug/flight (latest dump) and GET /debug/traces?n=K
/// (Chrome-trace JSON of the K most recent retained traces, byte-identical
/// per event to TraceRecorder::ToChromeTraceJson).
///
/// Thread-safety: every method is safe from any thread. Configure/Clear
/// are for quiesced moments (no completions in flight); enabling costs one
/// relaxed atomic load per recorded span and per completion when disabled.
class FlightRecorder {
 public:
  struct Options {
    /// Retained ring capacity (completed records kept).
    size_t capacity = 256;
    /// Ring slots a tenant is guaranteed against eviction by *other*
    /// tenants' retention pressure.
    size_t reserved_per_tenant = 8;
    /// Span cap per record; over-cap spans are counted, not kept.
    size_t max_spans_per_record = 96;
    /// Retain any request whose end-to-end latency reaches this.
    double slo_threshold_seconds = 0.050;
    /// Head-sample one completion in N as a healthy baseline (0 = none).
    uint64_t head_sample_every = 0;
  };

  /// The process-global recorder the TraceRecorder tap and the serve-tier
  /// completion hooks report to. Never destroyed (same rationale as
  /// TraceRecorder::Global: hooks may fire during shutdown).
  static FlightRecorder& Global();

  /// Replaces the options and clears all state. Call while disabled.
  void Configure(const Options& options);

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Drops every open record, retained record, dump, and counter.
  void Clear();

  /// TraceRecorder::Record tap. The common case — no request retained
  /// recently, no manually staged records — is a few relaxed loads and a
  /// branch: spans stay in the TraceRecorder's own buffers and are only
  /// collected (CollectRequest) if their request retains. The table path
  /// runs solely inside the short late-span window after a retention, to
  /// catch spans that close after their request's completion callback.
  static void MaybeRecordSpan(const TraceEvent& ev) {
    if (!Enabled() || ev.request_id == 0) return;
    // tap_armed_ mirrors (pending_open_ != 0 || span_gate_ != 0) as a
    // single *static* flag, so the common case — no staged records, no
    // late-span window — is one relaxed load with no Global() guard and
    // no gate reads. The flag is read-mostly (written only around
    // retentions and staging), so the load stays in shared cache state.
    if (tap_armed_.load(std::memory_order_relaxed) == 0) return;
    Global().OnLateSpan(ev);
  }

  /// Completion-hook guard, mirroring MaybeRecordSpan.
  static void MaybeComplete(uint64_t request_id, int shard,
                            const RouteAnswer& answer) {
    if (Enabled()) Global().OnComplete(request_id, shard, answer);
  }

  /// Appends a closed span to the request's open record, creating it on
  /// first span. This is the *manual staging* path (tests, embedders
  /// recording spans without a TraceRecorder); the production pipeline
  /// stages nothing per span — OnComplete collects a retained request's
  /// spans from the TraceRecorder instead.
  void OnSpan(const TraceEvent& ev);

  /// Applies the terminal answer to the request's record and runs the
  /// retention policy. `request_id` is the trace request id (0 when
  /// tracing is disabled — the record is then outcome-only, no span tree);
  /// `shard` is the serving shard (-1 = unsharded / router-level).
  void OnComplete(uint64_t request_id, int shard, const RouteAnswer& answer);

  /// Copies the `n` most recent retained records, newest first.
  std::vector<FlightRecord> Retained(size_t n) const;

  /// Chrome trace-event JSON of the `n` most recent retained traces. Each
  /// event is serialized by the exact same code path as
  /// TraceRecorder::ToChromeTraceJson (byte-identical per event), so every
  /// downstream trace viewer/tool works unchanged — this is what
  /// GET /debug/traces?n=K returns.
  std::string ToChromeTraceJson(size_t n) const;

  /// Source of the serve-stats snapshot embedded in black-box dumps
  /// (QueryServer::Stats / ShardRouter::Stats). Also captures the delta
  /// baseline: the first dump's delta is measured from this call.
  void SetStatsSource(std::function<ServeStatsSnapshot()> source);

  /// HealthMonitor notification. Freezes a black-box dump iff the
  /// transition worsens into Degraded or Unhealthy (to > from) — a
  /// recovery transition changes no evidence, so it only shows up in the
  /// health transition ring, not as a dump.
  void OnHealthTransition(const HealthTransition& transition,
                          const HealthSnapshot& health);

  /// The latest black-box dump artifact ("" when none has been frozen).
  std::string LatestDumpJson() const;

  FlightStatsSnapshot Stats() const;

 private:
  /// Sharded open-record table: spans hash to a shard by request id, so
  /// concurrent workers closing spans for different requests take
  /// different locks.
  struct OpenShard {
    mutable std::mutex mu;
    /// request id -> record; a nullptr value is a tombstone marking a
    /// recently discarded/evicted request, so its late spans (the exec
    /// span closes after the completion callback) are dropped instead of
    /// resurrecting a half-empty record.
    std::unordered_map<uint64_t, std::shared_ptr<FlightRecord>> records;
    std::deque<uint64_t> tombstones;  ///< FIFO of tombstoned ids
  };

  static constexpr size_t kOpenShards = 16;
  /// Bound on concurrently open (in-flight + retained) records across the
  /// table; spans for new requests beyond it are dropped + counted.
  static constexpr size_t kMaxOpenRequests = 4096;
  static constexpr size_t kTombstoneWindow = 128;
  /// How many completions after a retention the table keeps accepting late
  /// spans for it. Late spans (the root span closes right after the
  /// completion callback, on the same thread) arrive within one or two
  /// completions; the window is generous so they always land, yet short
  /// enough that the span hot path returns to its loads-only fast path.
  static constexpr uint64_t kLateSpanWindow = 64;
  /// Ring of the most recently retained request ids, read lock-free by the
  /// span tap while the late-span window is open: a span whose request is
  /// not in the ring bails with a handful of relaxed loads instead of
  /// paying a shard lock + table lookup. Sized past the number of
  /// retentions that can plausibly share one window in production (window
  /// 64 completions, retention ~1-in-SLO-breach).
  static constexpr size_t kRecentRetained = 8;

  FlightRecorder() = default;

  OpenShard& ShardFor(uint64_t request_id) {
    return shards_[request_id % kOpenShards];
  }
  /// Append-only tap body for spans closing inside the late-span window:
  /// lands on an existing table record, never creates one.
  void OnLateSpan(const TraceEvent& ev);
  /// Pulls the request's spans out of the TraceRecorder (buffers + ring)
  /// and merges them into `rec` under its shard lock, deduping by span id
  /// and honoring max_spans_per_record. Runs once per retention.
  void MergeTraceSpans(const std::shared_ptr<FlightRecord>& rec);
  /// Tracks `rec` as open for late spans and tombstones retentions older
  /// than kLateSpanWindow, so the table stays bounded and the tap's fast
  /// path re-closes.
  void AgeLateOpen(uint64_t request_id, uint64_t observed_at);
  /// Replaces the entry with a tombstone, bounding the tombstone FIFO
  /// (shard lock held).
  static void TombstoneLocked(OpenShard* sh, uint64_t request_id);
  /// Recomputes tap_armed_ from pending_open_/span_gate_. Called after
  /// every mutation of either; the recompute-then-recheck shape keeps the
  /// flag conservative under races (a disarm racing a concurrent retention
  /// re-arms), at worst costing a handful of best-effort late spans.
  void RearmTap();
  /// Inserts `rec` into the retained ring and evicts per the reservoir
  /// policy; evicted records are tombstoned out of the open table.
  void RetainRecord(const std::shared_ptr<FlightRecord>& rec);
  void BuildDump(const HealthTransition& transition,
                 const HealthSnapshot& health);

  // Hot-path knobs held in atomics so OnSpan/OnComplete read them without
  // a lock (Configure may race a draining pipeline).
  std::atomic<uint64_t> slo_threshold_ns_{50u * 1000u * 1000u};
  std::atomic<uint64_t> head_sample_every_{0};
  /// every-1 when head_sample_every is a power of two (the sampling test
  /// becomes a mask instead of a 64-bit division), ~0 otherwise.
  std::atomic<uint64_t> head_sample_mask_{~0ull};
  std::atomic<size_t> max_spans_per_record_{96};
  std::atomic<size_t> capacity_{256};
  std::atomic<size_t> reserved_per_tenant_{8};

  OpenShard shards_[kOpenShards];

  /// Span-tap gate block, isolated on its own cache line: MaybeRecordSpan
  /// reads both gates on every closed span, so they must not share a line
  /// with the per-completion counters below — a span reading a line the
  /// completion path just wrote would cache-miss on every span.
  ///
  /// pending_open_: records staged via OnSpan that have not completed yet.
  /// Zero in the production pipeline (which stages nothing per span) — the
  /// completion fast path skips the table entirely while this is zero.
  alignas(64) std::atomic<size_t> pending_open_{0};
  /// Nonzero while the late-span window is open: set to
  /// observed + kLateSpanWindow on each retention, CAS-closed back to 0 by
  /// the first completion at/past that mark. Written only around
  /// retentions (rare), so span-tap reads stay in shared cache state.
  std::atomic<uint64_t> span_gate_{0};
  /// Most recently retained request ids (round-robin), written only at
  /// retention. OnLateSpan consults this before touching any lock.
  std::atomic<uint64_t> recent_retained_[kRecentRetained] = {};
  std::atomic<size_t> recent_idx_{0};
  /// FIFO of (request_id, observed_ at retention) for open retained
  /// records, drained by AgeLateOpen. Lock order: late_mu_ -> shard mu.
  std::mutex late_mu_;
  std::deque<std::pair<uint64_t, uint64_t>> late_open_;

  mutable std::mutex ring_mu_;
  std::deque<std::shared_ptr<FlightRecord>> retained_;  ///< oldest first
  std::map<std::string, size_t> tenant_counts_;
  /// Atomic (not ring_mu_-guarded): the seq is stamped in OnComplete while
  /// the record's owning shard lock is held, before ring insertion.
  std::atomic<uint64_t> next_seq_{0};

  mutable std::mutex dump_mu_;
  std::function<ServeStatsSnapshot()> stats_source_;
  ServeStatsSnapshot last_dump_stats_;
  std::string latest_dump_json_;

  /// The one per-completion counter, on its own cache line so the span
  /// tap's gate reads never touch it. There is no discarded counter — the
  /// snapshot derives discards from observed minus the retained reasons —
  /// so an unremarkable completion pays exactly one atomic bump.
  alignas(64) std::atomic<uint64_t> observed_{0};
  std::atomic<uint64_t> retained_slo_{0};
  std::atomic<uint64_t> retained_shed_{0};
  std::atomic<uint64_t> retained_error_{0};
  std::atomic<uint64_t> retained_sample_{0};
  std::atomic<uint64_t> evicted_{0};
  std::atomic<uint64_t> open_overflow_{0};
  std::atomic<uint64_t> spans_captured_{0};
  std::atomic<uint64_t> spans_dropped_{0};
  std::atomic<uint64_t> dumps_{0};

  static std::atomic<bool> enabled_;
  /// 1 iff pending_open_ != 0 || span_gate_ != 0 (maintained by RearmTap).
  /// Static so the span tap reads it without the Global() accessor's
  /// magic-static guard — the tap is the only per-span cost when nothing
  /// was recently retained, and it must stay a load and a branch.
  static std::atomic<uint32_t> tap_armed_;
};

}  // namespace tsdm

#endif  // TSDM_OBS_FLIGHT_RECORDER_H_
