#ifndef TSDM_OBS_FLIGHT_RECORDER_H_
#define TSDM_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
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
  /// Every span recorded under this request id: the ones swept out of the
  /// TraceRecorder at retention, then late spans (a worker's exec span and
  /// the socket layer's net/request root close after the completion
  /// callback fires), appended while the late-span window is open.
  std::vector<TraceEvent> spans;
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
  uint64_t spans_captured = 0;
  uint64_t spans_dropped = 0;  ///< spans over max_spans_per_record
  uint64_t dumps = 0;          ///< black-box dumps frozen
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
/// span hot path is two relaxed loads and a branch. When the request
/// completes (QueryServer's worker, the queue's shed paths, or the shard
/// router's merge call OnComplete with the terminal RouteAnswer), the
/// retention policy decides retroactively:
///
///   keep iff  e2e >= slo_threshold_seconds   (tail evidence)
///         or  the request was shed/errored   (failure evidence)
///         or  it hit the 1-in-N head sample  (baseline for comparison)
///
/// A discard — the healthy high-throughput case — costs one relaxed
/// counter bump, no lock. Only a *retained* completion pays: its record
/// enters the retained ring, takes one of the kRecentRetained late-span
/// slots, and has its spans swept out of the TraceRecorder
/// (CollectRequest reads every thread's unflushed buffer plus the global
/// ring). The retention also opens the late-span window for the next
/// kLateSpanWindow completions: spans that close after the completion
/// callback (the worker's exec span, the socket layer's net/request root)
/// land on their record while it still holds a slot. So the requests an
/// operator will actually ask about ("show me the last 50 over-SLO
/// requests") are here, whole span tree included, even though nobody knew
/// to sample them at the head — while the other 1023-in-1024 pay
/// nanoseconds. Only a ring that already overflowed
/// (tsdm_trace_dropped_total) can cost a retained record spans.
///
/// The retained ring is bounded (Options::capacity) with *per-tenant
/// reservoir slots*: when full, the victim is the oldest record of a
/// tenant holding more than Options::reserved_per_tenant slots — a noisy
/// tenant's flood evicts its own records first and can never push another
/// tenant below its reserve.
///
/// On every HealthMonitor transition *into* Degraded/Unhealthy the
/// recorder freezes a "black-box dump": one JSON artifact with the
/// trigger, the health picture, the monitor's serve-stats sample that
/// judged the transition plus its delta over the sampling interval in
/// which the state flipped, and every retained trace — retrievable over
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

  /// Drops every retained record, late-span slot, dump, and counter.
  void Clear();

  /// TraceRecorder::Record tap. The common case — no request retained
  /// recently — is two relaxed loads and a branch: spans stay in the
  /// TraceRecorder's own buffers and are only collected (CollectRequest)
  /// if their request retains. Past the gate, the tap runs solely inside
  /// the short late-span window after a retention, to catch spans that
  /// close after their request's completion callback.
  static void MaybeRecordSpan(const TraceEvent& ev) {
    if (!Enabled() || ev.request_id == 0) return;
    if (span_gate_.load(std::memory_order_relaxed) == 0) return;
    Global().OnLateSpan(ev);
  }

  /// Completion-hook guard, mirroring MaybeRecordSpan.
  static void MaybeComplete(uint64_t request_id, int shard,
                            const RouteAnswer& answer) {
    if (Enabled()) Global().OnComplete(request_id, shard, answer);
  }

  /// Runs the retention policy on the request's terminal answer and, if
  /// it retains, records it. `request_id` is the trace request id (0 when
  /// tracing is disabled — the record is then outcome-only, no span tree);
  /// `shard` is the serving shard (-1 = unsharded / router-level). A
  /// second completion of a request id still in the ring is a discard:
  /// the first completion wins.
  void OnComplete(uint64_t request_id, int shard, const RouteAnswer& answer);

  /// Copies the `n` most recent retained records, newest first.
  std::vector<FlightRecord> Retained(size_t n) const;

  /// Chrome trace-event JSON of the `n` most recent retained traces. Each
  /// event is serialized by the exact same code path as
  /// TraceRecorder::ToChromeTraceJson (byte-identical per event), so every
  /// downstream trace viewer/tool works unchanged — this is what
  /// GET /debug/traces?n=K returns.
  std::string ToChromeTraceJson(size_t n) const;

  /// HealthMonitor notification. Freezes a black-box dump iff the
  /// transition worsens into Degraded or Unhealthy (to > from) — a
  /// recovery transition changes no evidence, so it only shows up in the
  /// health transition ring, not as a dump. `serve` is the monitor's
  /// sample that judged the transition and `prev_serve` the one before it
  /// (zero on the first sample): the dump's serve section and its delta
  /// over the interval in which the state flipped.
  void OnHealthTransition(const HealthTransition& transition,
                          const HealthSnapshot& health,
                          const ServeStatsSnapshot& serve,
                          const ServeStatsSnapshot& prev_serve);

  /// The latest black-box dump artifact ("" when none has been frozen).
  std::string LatestDumpJson() const;

  FlightStatsSnapshot Stats() const;

 private:
  /// How many completions after a retention the tap keeps routing spans
  /// to the late-span slots. Late spans (the root span closes right after
  /// the completion callback) arrive within one or two completions; the
  /// window is generous so they always land, yet short enough that the
  /// span hot path returns to its loads-only fast path.
  static constexpr uint64_t kLateSpanWindow = 64;
  /// The most recently retained requests that still accept late spans.
  /// Sized past the number of retentions that can plausibly share one
  /// window in production (window 64 completions, retention ~1-in-SLO-
  /// breach).
  static constexpr size_t kRecentRetained = 8;

  /// One late-span slot: a recently retained record and its request id.
  struct LateSlot {
    /// Written under late_mu_, read lock-free by the tap's pre-filter: a
    /// span whose request holds no slot bails on a handful of relaxed
    /// loads instead of taking the lock.
    std::atomic<uint64_t> request_id{0};
    std::shared_ptr<FlightRecord> record;  ///< guarded by late_mu_
  };

  FlightRecorder() = default;

  /// Tap body for spans closing inside the late-span window: appends to
  /// the record in the span's slot, never creates one.
  void OnLateSpan(const TraceEvent& ev);
  /// Pulls the request's spans out of the TraceRecorder (buffers + ring)
  /// and merges them into `rec`, deduping by span id. Runs once per
  /// retention.
  void MergeTraceSpans(const std::shared_ptr<FlightRecord>& rec);
  /// Appends `ev` to `rec` or counts it over max_spans_per_record
  /// (late_mu_ held).
  void AppendSpanLocked(FlightRecord* rec, TraceEvent ev);
  /// Inserts `rec` into the retained ring, stamps its seq and evicts per
  /// the reservoir policy. Returns false, inserting nothing, when a record
  /// of the same nonzero request id is already retained.
  bool RetainRecord(const std::shared_ptr<FlightRecord>& rec);
  void BuildDump(const HealthTransition& transition,
                 const HealthSnapshot& health, const ServeStatsSnapshot& serve,
                 const ServeStatsSnapshot& prev_serve);

  // Hot-path knobs held in atomics so OnComplete reads them without a lock
  // (Configure may race a draining pipeline).
  std::atomic<uint64_t> slo_threshold_ns_{50u * 1000u * 1000u};
  std::atomic<uint64_t> head_sample_every_{0};
  /// every-1 when head_sample_every is a power of two (the sampling test
  /// becomes a mask instead of a 64-bit division), ~0 otherwise.
  std::atomic<uint64_t> head_sample_mask_{~0ull};
  std::atomic<size_t> max_spans_per_record_{96};
  std::atomic<size_t> capacity_{256};
  std::atomic<size_t> reserved_per_tenant_{8};

  /// Guards slot publication and the span vector of every published
  /// record: the tap's late appends, the retention sweep's merge, and
  /// Retained's copies. On its own cache line so late-span locking never
  /// invalidates the knobs every completion reads.
  alignas(64) mutable std::mutex late_mu_;
  LateSlot late_slots_[kRecentRetained];
  size_t next_late_slot_ = 0;  ///< round-robin cursor (late_mu_)

  mutable std::mutex ring_mu_;
  std::deque<std::shared_ptr<FlightRecord>> retained_;  ///< oldest first
  std::map<std::string, size_t> tenant_counts_;
  uint64_t next_seq_ = 0;  ///< stamped at ring insertion (ring_mu_)

  mutable std::mutex dump_mu_;
  std::string latest_dump_json_;

  /// The one per-completion counter, on its own cache line so the span
  /// tap's slot reads never touch it. There is no discarded counter — the
  /// snapshot derives discards from observed minus the retained reasons —
  /// so an unremarkable completion pays exactly one atomic bump.
  alignas(64) std::atomic<uint64_t> observed_{0};
  std::atomic<uint64_t> retained_slo_{0};
  std::atomic<uint64_t> retained_shed_{0};
  std::atomic<uint64_t> retained_error_{0};
  std::atomic<uint64_t> retained_sample_{0};
  std::atomic<uint64_t> evicted_{0};
  std::atomic<uint64_t> spans_captured_{0};
  std::atomic<uint64_t> spans_dropped_{0};
  std::atomic<uint64_t> dumps_{0};

  static std::atomic<bool> enabled_;
  /// The late-span gate: accept late spans until completion number N
  /// (observed at retention + kLateSpanWindow); 0 = closed. Set on each
  /// retention, CAS-closed by the first completion at/past the mark.
  /// Static so the span tap reads it without the Global() accessor's
  /// magic-static guard, and written only around retentions (rare), so
  /// the tap's load stays in shared cache state.
  static std::atomic<uint64_t> span_gate_;
};

}  // namespace tsdm

#endif  // TSDM_OBS_FLIGHT_RECORDER_H_
