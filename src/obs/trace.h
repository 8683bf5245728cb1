#ifndef TSDM_OBS_TRACE_H_
#define TSDM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tsdm {

struct ThreadTraceBuffer;

/// Links a span into a per-request trace tree. A request acquires a
/// context at its root span (request_id identifies the request across
/// threads, parent_span_id the span a child should attach under); the
/// context travels with the request — through queues, batchers, and
/// worker hand-offs — so spans recorded on different threads at different
/// times still assemble into one tree per request.
///
/// Zero is the null value for both fields: request_id 0 marks a span that
/// belongs to no request, parent_span_id 0 marks a root.
struct TraceContext {
  uint64_t request_id = 0;
  uint64_t parent_span_id = 0;

  bool ForRequest() const { return request_id != 0; }
};

/// One closed span: a named interval on one thread, optionally tagged with
/// a small integer argument (shard index, attempt number, sensor id, ...)
/// and linked into a request tree via (request_id, span_id, parent_span_id).
struct TraceEvent {
  static constexpr int64_t kNoArg = INT64_MIN;

  std::string name;
  uint64_t start_ns = 0;  ///< steady-clock ns since the recorder's origin
  uint64_t dur_ns = 0;
  uint32_t tid = 0;  ///< recorder-assigned dense thread index
  int64_t arg = kNoArg;
  uint64_t span_id = 0;         ///< process-unique (0 for unlinked spans)
  uint64_t parent_span_id = 0;  ///< 0 = root
  uint64_t request_id = 0;      ///< 0 = not part of a request
  /// Workload tenant the span's request belongs to ("" = unattributed).
  /// Exported as an "args" attribute so a Chrome-trace view can be
  /// filtered per tenant — the tracing arm of multi-tenant attribution.
  std::string tenant;
};

/// Total deterministic export order: (start_ns, tid, dur_ns desc — parents
/// before children, span_id). The span-id tiebreak makes the order unique,
/// so two exports of the same event set serialize identically.
bool ChromeTraceEventBefore(const TraceEvent& a, const TraceEvent& b);

/// Serializes one closed span as a Chrome trace-event object ("X" phase,
/// ts/dur in microseconds, request/span/parent linkage under "args"),
/// appending to *out. THE single source of event-formatting truth: the
/// TraceRecorder export and the flight recorder's /debug/traces export
/// both call this, which is what makes their events byte-identical.
void AppendChromeTraceEvent(const TraceEvent& ev, std::string* out);

/// Sorts `events` into export order and wraps them in the Chrome
/// trace-event envelope ("catapult" JSON; load from chrome://tracing or
/// https://ui.perfetto.dev).
std::string ChromeTraceJsonFromEvents(std::vector<TraceEvent> events);

/// Process-wide trace sink. Threads accumulate closed spans into private
/// thread-local buffers (one uncontended per-buffer mutex hold on the hot
/// path — contended only while a CollectRequest sweep is reading); buffers
/// are batch-flushed into a bounded global ring under a mutex when they fill,
/// when a thread exits, or on Snapshot/FlushCurrentThread. The ring never
/// grows past its capacity — overflow drops the newest events and counts
/// them (dropped(), exported as `tsdm_trace_dropped_total`), so tracing
/// a long run has bounded memory. Size the ring to the run with
/// SetCapacity before enabling.
///
/// Recording is off by default. When disabled, a TraceSpan costs one
/// relaxed atomic load and a branch — cheap enough to leave the
/// instrumentation permanently compiled into serving hot paths (bench_stream
/// demonstrates the disabled overhead stays under 2% of a tick).
class TraceRecorder {
 public:
  /// The process-global recorder every TraceSpan reports to. Never
  /// destroyed, so thread-local buffer destructors may flush at any point
  /// of shutdown.
  static TraceRecorder& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all recorded events and raises the ring capacity to
  /// `max_events`. Call while no traced spans are in flight.
  void SetCapacity(size_t max_events);

  /// Discards every recorded event (ring + the calling thread's buffer).
  /// Buffers still held by *other* live threads are invalidated via a
  /// generation bump: their stale events are discarded on their next flush
  /// instead of leaking into the new trace.
  void Clear();

  /// Flushes the calling thread's buffer into the ring.
  void FlushCurrentThread();

  /// Flushes the calling thread, then returns a copy of the ring sorted by
  /// (start_ns, tid). Events buffered by other still-live threads are not
  /// visible until those threads flush or exit.
  std::vector<TraceEvent> Snapshot();

  /// Copies every buffered event linked to `request_id` — from *all* live
  /// threads' buffers (under their per-buffer locks) and from the global
  /// ring — without flushing anything. This is the flight recorder's
  /// retention sweep: it runs once per *retained* request, off the span
  /// hot path, and sees spans other threads have not flushed yet. An event
  /// flushed mid-sweep can be returned twice (buffer copy + ring copy);
  /// callers dedup by span id.
  ///
  /// `min_start_ns` bounds the ring scan: batches flushed before it cannot
  /// contain a span that *started* at/after it (spans close before they
  /// flush), so the scan skips straight to the first batch flushed at or
  /// after `min_start_ns`. Pass the request's start time (minus slack);
  /// 0 scans the whole ring.
  std::vector<TraceEvent> CollectRequest(uint64_t request_id,
                                         uint64_t min_start_ns = 0);

  /// Events lost to ring overflow since the last Clear. Exported as
  /// `tsdm_trace_dropped_total`: a nonzero value means the ring
  /// (SetCapacity) is undersized for the run and the trace is incomplete.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Allocates a process-unique span id (never 0). Used by TraceSpan and by
  /// retrospective RecordSpan calls.
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Allocates a process-unique request id (never 0; 0 means "not
  /// traced"). The one allocator every front door roots a request tree
  /// with — the socket server, the shard router and the query server — so
  /// servers sharing a process never hand out the same id, and the flight
  /// recorder (which keys records by request id) never merges two
  /// requests' spans or drops one's completion as a duplicate.
  uint64_t NextRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Chrome trace-event JSON ("catapult" format): load the returned string
  /// from chrome://tracing or https://ui.perfetto.dev. One complete ("X")
  /// event per span, ts/dur in microseconds; request/span/parent ids are
  /// emitted under "args" so the per-request tree survives the export.
  std::string ToChromeTraceJson();

  /// Called by ~TraceSpan; public so the thread-buffer machinery can reach
  /// it, not part of the user API.
  void Record(std::string name, uint64_t start_ns, uint64_t end_ns,
              int64_t arg, uint64_t span_id = 0, uint64_t parent_span_id = 0,
              uint64_t request_id = 0, std::string tenant = {});

  /// Records a retrospective span — an interval that already elapsed, e.g.
  /// the queue wait between a request's admission and its dequeue, where no
  /// RAII scope existed. Returns the allocated span id (0 when recording is
  /// disabled, in which case nothing is recorded). `tenant` attaches the
  /// multi-tenant attribute ("" = none).
  uint64_t RecordSpan(std::string_view name, uint64_t start_ns,
                      uint64_t end_ns, const TraceContext& ctx,
                      int64_t arg = TraceEvent::kNoArg,
                      std::string_view tenant = {});

  /// Monotonic ns since the process-wide trace origin.
  static uint64_t NowNs();

 private:
  friend struct ThreadTraceBuffer;

  void FlushBuffer(std::vector<TraceEvent>* events, uint64_t generation);
  void RegisterBuffer(ThreadTraceBuffer* buffer);
  void DeregisterBuffer(ThreadTraceBuffer* buffer);

  /// Live thread buffers, so CollectRequest can sweep events other threads
  /// have not flushed. Lock order: registry_mu_ -> buffer mu; and a buffer
  /// mu may be held when taking mu_ (flush) — never the reverse.
  std::mutex registry_mu_;
  std::vector<ThreadTraceBuffer*> buffers_;

  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  /// Flush watermarks: (ring size after the flush, flush time). Lets
  /// CollectRequest binary-search for the first batch that could contain a
  /// span starting at/after a given time instead of scanning the ring.
  std::vector<std::pair<size_t, uint64_t>> ring_batches_;
  size_t capacity_ = 1 << 16;
  uint64_t generation_ = 0;
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint32_t> next_tid_{0};
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> next_request_id_{1};

  static std::atomic<bool> enabled_;
};

/// RAII span: names the enclosing scope in the trace. Construction samples
/// the clock only when the recorder is enabled; destruction hands the
/// closed span to the calling thread's buffer. Spans on one thread nest
/// with scope structure, which the exported trace preserves exactly; spans
/// constructed with a TraceContext additionally link into that request's
/// tree, and ChildContext() extends the tree across threads.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name, int64_t arg = TraceEvent::kNoArg)
      : TraceSpan(name, TraceContext{}, arg) {}

  TraceSpan(std::string_view name, const TraceContext& ctx,
            int64_t arg = TraceEvent::kNoArg) {
    if (TraceRecorder::Enabled()) {
      name_ = name;
      arg_ = arg;
      active_ = true;
      request_id_ = ctx.request_id;
      parent_span_id_ = ctx.parent_span_id;
      span_id_ = TraceRecorder::Global().NextSpanId();
      start_ns_ = TraceRecorder::NowNs();
    }
  }

  ~TraceSpan() {
    if (active_) {
      TraceRecorder::Global().Record(std::move(name_), start_ns_,
                                     TraceRecorder::NowNs(), arg_, span_id_,
                                     parent_span_id_, request_id_,
                                     std::move(tenant_));
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches the multi-tenant attribute to this span (no-op while the
  /// recorder is disabled). Call once, before the scope closes.
  void SetTenant(std::string_view tenant) {
    if (active_) tenant_ = tenant;
  }

  /// Context for spans that should hang under this one (same request, this
  /// span as parent). Null when recording was disabled at construction —
  /// children then record nothing either, so the tree stays consistent.
  TraceContext ChildContext() const {
    return TraceContext{request_id_, span_id_};
  }

 private:
  std::string name_;
  std::string tenant_;
  uint64_t start_ns_ = 0;
  int64_t arg_ = TraceEvent::kNoArg;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  uint64_t request_id_ = 0;
  bool active_ = false;
};

}  // namespace tsdm

#endif  // TSDM_OBS_TRACE_H_
