#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/obs/metrics_export.h"

namespace tsdm {

std::atomic<bool> FlightRecorder::enabled_{false};
std::atomic<uint32_t> FlightRecorder::tap_armed_{0};

namespace {

/// The status codes the serve tier sheds with: queue/quota full or
/// displaced (ResourceExhausted), closed/draining (FailedPrecondition),
/// shard down / partial scatter (Unavailable). Same partition the shard
/// router's transport-failure rule uses.
bool IsShedCode(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kFailedPrecondition ||
         code == StatusCode::kUnavailable;
}

std::string U64(uint64_t v) { return std::to_string(v); }

/// Fills a record's completion-side fields. For table-resident records the
/// caller holds the owning shard lock (the span vector may be appending
/// concurrently); standalone records have no concurrent writers.
void FillOutcome(FlightRecord* rec, uint64_t seq, int shard,
                 const RouteAnswer& answer, FlightOutcome outcome,
                 FlightRetainReason reason, double e2e_seconds) {
  rec->seq = seq;
  rec->tenant = answer.tenant_id.empty() ? "default" : answer.tenant_id;
  rec->shard = shard;
  rec->outcome = outcome;
  rec->reason = reason;
  rec->status_code = answer.status.code();
  rec->status_message = answer.status.message();
  rec->e2e_seconds = e2e_seconds;
  rec->stages = answer.stages;
  rec->client_request_id = answer.client_request_id;
  rec->completed_ns = TraceRecorder::NowNs();
  rec->complete = true;
}

void AppendRecordJson(const FlightRecord& rec, std::string* out) {
  *out += "{\"request_id\":" + U64(rec.request_id);
  *out += ",\"seq\":" + U64(rec.seq);
  *out += ",\"tenant\":\"" + JsonEscape(rec.tenant) + "\"";
  *out += ",\"shard\":" + std::to_string(rec.shard);
  *out += ",\"outcome\":\"";
  *out += FlightOutcomeName(rec.outcome);
  *out += "\",\"reason\":\"";
  *out += FlightRetainReasonName(rec.reason);
  *out += "\",\"status_code\":" +
          std::to_string(static_cast<int>(rec.status_code));
  *out += ",\"status_message\":\"" + JsonEscape(rec.status_message) + "\"";
  *out += ",\"e2e_seconds\":" + JsonNumber(rec.e2e_seconds);
  *out += ",\"stages\":{\"queue_ns\":" + U64(rec.stages.queue_ns) +
          ",\"batch_ns\":" + U64(rec.stages.batch_ns) +
          ",\"cache_ns\":" + U64(rec.stages.cache_ns) +
          ",\"exec_ns\":" + U64(rec.stages.exec_ns) + "}";
  *out += ",\"client_request_id\":" + U64(rec.client_request_id);
  *out += ",\"completed_ns\":" + U64(rec.completed_ns);
  *out += ",\"spans_dropped\":" + U64(rec.spans_dropped);
  *out += ",\"spans\":[";
  std::vector<TraceEvent> spans = rec.spans;
  std::sort(spans.begin(), spans.end(), ChromeTraceEventBefore);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i) *out += ",";
    AppendChromeTraceEvent(spans[i], out);
  }
  *out += "]}";
}

}  // namespace

const char* FlightOutcomeName(FlightOutcome outcome) {
  switch (outcome) {
    case FlightOutcome::kCompleted:
      return "completed";
    case FlightOutcome::kShed:
      return "shed";
    case FlightOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

const char* FlightRetainReasonName(FlightRetainReason reason) {
  switch (reason) {
    case FlightRetainReason::kSloBreach:
      return "slo_breach";
    case FlightRetainReason::kShed:
      return "shed";
    case FlightRetainReason::kError:
      return "error";
    case FlightRetainReason::kHeadSample:
      return "head_sample";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::Global() {
  // Deliberately leaked, like TraceRecorder::Global: the span tap and the
  // serve tier's completion hooks may fire from thread-exit paths after
  // static destruction would have torn a normal singleton down.
  static FlightRecorder* global = new FlightRecorder();
  return *global;
}

void FlightRecorder::Configure(const Options& options) {
  const double slo = options.slo_threshold_seconds;
  // <= 0 means "retain every completion" (the comparison e2e >= 0 always
  // holds) — the deterministic-test and capture-everything mode.
  slo_threshold_ns_.store(
      slo <= 0.0 ? 0 : static_cast<uint64_t>(slo * 1e9),
      std::memory_order_relaxed);
  head_sample_every_.store(options.head_sample_every,
                           std::memory_order_relaxed);
  const uint64_t every = options.head_sample_every;
  head_sample_mask_.store(
      every > 0 && (every & (every - 1)) == 0 ? every - 1 : ~0ull,
      std::memory_order_relaxed);
  max_spans_per_record_.store(std::max<size_t>(1, options.max_spans_per_record),
                              std::memory_order_relaxed);
  capacity_.store(std::max<size_t>(1, options.capacity),
                  std::memory_order_relaxed);
  reserved_per_tenant_.store(options.reserved_per_tenant,
                             std::memory_order_relaxed);
  Clear();
}

void FlightRecorder::Clear() {
  for (size_t i = 0; i < kOpenShards; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    shards_[i].records.clear();
    shards_[i].tombstones.clear();
  }
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    retained_.clear();
    tenant_counts_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    latest_dump_json_.clear();
    last_dump_stats_ = ServeStatsSnapshot{};
  }
  {
    std::lock_guard<std::mutex> lock(late_mu_);
    late_open_.clear();
  }
  pending_open_.store(0, std::memory_order_relaxed);
  span_gate_.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i < kRecentRetained; ++i) {
    recent_retained_[i].store(0, std::memory_order_relaxed);
  }
  recent_idx_.store(0, std::memory_order_relaxed);
  RearmTap();
  observed_.store(0, std::memory_order_relaxed);
  retained_slo_.store(0, std::memory_order_relaxed);
  retained_shed_.store(0, std::memory_order_relaxed);
  retained_error_.store(0, std::memory_order_relaxed);
  retained_sample_.store(0, std::memory_order_relaxed);
  evicted_.store(0, std::memory_order_relaxed);
  open_overflow_.store(0, std::memory_order_relaxed);
  spans_captured_.store(0, std::memory_order_relaxed);
  spans_dropped_.store(0, std::memory_order_relaxed);
  dumps_.store(0, std::memory_order_relaxed);
}

void FlightRecorder::RearmTap() {
  const bool armed = pending_open_.load(std::memory_order_relaxed) != 0 ||
                     span_gate_.load(std::memory_order_relaxed) != 0;
  tap_armed_.store(armed ? 1 : 0, std::memory_order_relaxed);
  // A disarm can race a concurrent retention's arm and land second; the
  // recheck narrows that window to nanoseconds. A lost arm costs only
  // best-effort late spans for one window — never a wrong record.
  if (!armed && (pending_open_.load(std::memory_order_relaxed) != 0 ||
                 span_gate_.load(std::memory_order_relaxed) != 0)) {
    tap_armed_.store(1, std::memory_order_relaxed);
  }
}

void FlightRecorder::TombstoneLocked(OpenShard* sh, uint64_t request_id) {
  auto it = sh->records.find(request_id);
  if (it != sh->records.end() && it->second != nullptr) {
    it->second = nullptr;
    sh->tombstones.push_back(request_id);
  }
  while (sh->tombstones.size() > kTombstoneWindow) {
    sh->records.erase(sh->tombstones.front());
    sh->tombstones.pop_front();
  }
}

void FlightRecorder::OnSpan(const TraceEvent& ev) {
  OpenShard& sh = ShardFor(ev.request_id);
  const size_t max_spans =
      max_spans_per_record_.load(std::memory_order_relaxed);
  constexpr size_t shard_cap = kMaxOpenRequests / kOpenShards;
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.records.find(ev.request_id);
  if (it == sh.records.end()) {
    if (sh.records.size() - sh.tombstones.size() >= shard_cap) {
      open_overflow_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto rec = std::make_shared<FlightRecord>();
    rec->request_id = ev.request_id;
    rec->open_shard = ev.request_id % kOpenShards;
    it = sh.records.emplace(ev.request_id, std::move(rec)).first;
    pending_open_.fetch_add(1, std::memory_order_relaxed);
    RearmTap();
  }
  if (it->second == nullptr) return;  // tombstone: late span, record gone
  FlightRecord& rec = *it->second;
  if (rec.spans.size() >= max_spans) {
    ++rec.spans_dropped;
    spans_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  rec.spans.push_back(ev);
  spans_captured_.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::OnLateSpan(const TraceEvent& ev) {
  // Lock-free pre-filter: inside the late-span window the tap routes every
  // span here, but only spans of the few recently retained requests can
  // land — everything else bails on a handful of relaxed loads. Skipped
  // while records are manually staged (tests), whose ids are not listed.
  if (pending_open_.load(std::memory_order_relaxed) == 0) {
    bool recent = false;
    for (size_t i = 0; i < kRecentRetained; ++i) {
      if (recent_retained_[i].load(std::memory_order_relaxed) ==
          ev.request_id) {
        recent = true;
        break;
      }
    }
    if (!recent) return;
  }
  OpenShard& sh = ShardFor(ev.request_id);
  const size_t max_spans =
      max_spans_per_record_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.records.find(ev.request_id);
  // Append-only: spans for requests nobody retained (or staged) belong to
  // the TraceRecorder's buffers, not here.
  if (it == sh.records.end() || it->second == nullptr) return;
  FlightRecord& rec = *it->second;
  if (rec.spans.size() >= max_spans) {
    ++rec.spans_dropped;
    spans_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  rec.spans.push_back(ev);
  spans_captured_.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::OnComplete(uint64_t request_id, int shard,
                                const RouteAnswer& answer) {
  const uint64_t n = observed_.fetch_add(1, std::memory_order_relaxed);
  // Close the late-span window once enough completions have passed the
  // retention that opened it. CAS so a concurrent retention re-opening the
  // gate is never clobbered by a stale close.
  uint64_t gate = span_gate_.load(std::memory_order_relaxed);
  if (gate != 0 && n >= gate) {
    span_gate_.compare_exchange_strong(gate, 0, std::memory_order_relaxed);
    RearmTap();
  }
  const uint64_t slo_ns = slo_threshold_ns_.load(std::memory_order_relaxed);

  // End-to-end latency source: the telescoping stage breakdown when the
  // request was served (exact to the ns), the queue+service sum for sheds.
  // The SLO test stays in integer ns on the served path; doubles (and the
  // seconds-valued fallback) only enter for sheds with no stage clock.
  const uint64_t total_ns = answer.stages.TotalNs();

  FlightOutcome outcome = FlightOutcome::kCompleted;
  if (!answer.status.ok()) {
    outcome = IsShedCode(answer.status.code()) ? FlightOutcome::kShed
                                               : FlightOutcome::kFailed;
  }

  // Retroactive retention: the whole point of the flight recorder is that
  // this decision happens *after* the outcome is known.
  bool retain = true;
  FlightRetainReason reason = FlightRetainReason::kHeadSample;
  if (outcome == FlightOutcome::kShed) {
    reason = FlightRetainReason::kShed;
  } else if (outcome == FlightOutcome::kFailed) {
    reason = FlightRetainReason::kError;
  } else if (total_ns > 0 ? total_ns >= slo_ns
                          : answer.queue_seconds + answer.service_seconds >=
                                1e-9 * static_cast<double>(slo_ns)) {
    reason = FlightRetainReason::kSloBreach;
  } else {
    const uint64_t every = head_sample_every_.load(std::memory_order_relaxed);
    const uint64_t mask = head_sample_mask_.load(std::memory_order_relaxed);
    if (every > 0 && (mask != ~0ull ? (n & mask) == 0 : n % every == 0)) {
      reason = FlightRetainReason::kHeadSample;
    } else {
      retain = false;
    }
  }

  if (!retain) {
    // The production fast path: nothing is staged per span and nothing is
    // counted (the snapshot derives discards), so an unremarkable
    // completion has already paid its whole cost — the observed_ bump at
    // entry. The table walk runs only when OnSpan-staged records exist
    // (tests / manual staging), preserving fill-then-tombstone semantics.
    if (request_id != 0 &&
        pending_open_.load(std::memory_order_relaxed) != 0) {
      OpenShard& sh = ShardFor(request_id);
      std::lock_guard<std::mutex> lock(sh.mu);
      auto it = sh.records.find(request_id);
      if (it != sh.records.end() && it->second != nullptr) {
        if (it->second->complete) return;  // duplicate completion
        const double e2e_seconds =
            total_ns > 0 ? 1e-9 * static_cast<double>(total_ns)
                         : answer.queue_seconds + answer.service_seconds;
        FillOutcome(it->second.get(),
                    next_seq_.fetch_add(1, std::memory_order_relaxed), shard,
                    answer, outcome, reason, e2e_seconds);
        pending_open_.fetch_sub(1, std::memory_order_relaxed);
        TombstoneLocked(&sh, request_id);
        RearmTap();
      }
    }
    return;
  }
  const double e2e_seconds =
      total_ns > 0 ? 1e-9 * static_cast<double>(total_ns)
                   : answer.queue_seconds + answer.service_seconds;

  std::shared_ptr<FlightRecord> rec;
  bool in_table = false;
  if (request_id != 0) {
    OpenShard& sh = ShardFor(request_id);
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.records.find(request_id);
    if (it != sh.records.end()) {
      if (it->second == nullptr) {
        // Tombstoned (evicted, or a late duplicate of a discarded
        // request): fall through to a standalone record.
      } else if (it->second->complete) {
        return;  // duplicate completion; first wins
      } else {
        rec = it->second;  // staged spans ride along
        pending_open_.fetch_sub(1, std::memory_order_relaxed);
        in_table = true;
      }
    } else {
      // Enter the table *at retention*: the entry exists to receive late
      // spans (the ones that close after this callback) for a short
      // window, not to stage per-span state for every request.
      rec = std::make_shared<FlightRecord>();
      rec->request_id = request_id;
      rec->open_shard = request_id % kOpenShards;
      sh.records.emplace(request_id, rec);
      in_table = true;
    }
    if (rec != nullptr) {
      FillOutcome(rec.get(), next_seq_.fetch_add(1, std::memory_order_relaxed),
                  shard, answer, outcome, reason, e2e_seconds);
    }
  }
  if (rec == nullptr) {
    // Request id 0 (tracing disabled) or a tombstoned id: keep an
    // outcome-only record — the tail evidence an operator needs most
    // survives even without the tree.
    rec = std::make_shared<FlightRecord>();
    rec->request_id = request_id;
    FillOutcome(rec.get(), next_seq_.fetch_add(1, std::memory_order_relaxed),
                shard, answer, outcome, reason, e2e_seconds);
  }
  if (in_table) {
    // Open the late-span window before sweeping, so a span racing this
    // completion lands via the table if the sweep misses it. The id goes
    // into the recent-retained ring first: once the gate opens, the tap
    // consults the ring, and a late span of *this* request must match.
    recent_retained_[recent_idx_.fetch_add(1, std::memory_order_relaxed) %
                     kRecentRetained]
        .store(request_id, std::memory_order_relaxed);
    span_gate_.store(n + kLateSpanWindow, std::memory_order_relaxed);
    RearmTap();
    MergeTraceSpans(rec);
    AgeLateOpen(request_id, n);
  }
  switch (reason) {
    case FlightRetainReason::kSloBreach:
      retained_slo_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlightRetainReason::kShed:
      retained_shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlightRetainReason::kError:
      retained_error_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlightRetainReason::kHeadSample:
      retained_sample_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  RetainRecord(rec);
}

void FlightRecorder::MergeTraceSpans(const std::shared_ptr<FlightRecord>& rec) {
  // The sweep reads the TraceRecorder's locks; the record's shard lock is
  // deliberately NOT held across it (lock-order hygiene with the tap).
  // Bound the ring scan: no span of this request can have started before
  // the request did, so skip batches flushed earlier than completion time
  // minus twice the e2e latency (clock-skew/stage-rounding headroom) and
  // 1 ms of slack.
  uint64_t min_start_ns = 0;
  if (rec->completed_ns > 0 && rec->e2e_seconds >= 0.0) {
    const uint64_t lookback =
        2 * static_cast<uint64_t>(rec->e2e_seconds * 1e9) + 1000000;
    if (rec->completed_ns > lookback) {
      min_start_ns = rec->completed_ns - lookback;
    }
  }
  std::vector<TraceEvent> collected =
      TraceRecorder::Global().CollectRequest(rec->request_id, min_start_ns);
  if (collected.empty()) return;
  const size_t max_spans =
      max_spans_per_record_.load(std::memory_order_relaxed);
  OpenShard& sh = shards_[rec->open_shard];
  std::lock_guard<std::mutex> lock(sh.mu);
  // Dedup by span id: the sweep can return a flush-raced event twice, and
  // a late span may have raced in through the table already.
  std::unordered_set<uint64_t> seen;
  seen.reserve(rec->spans.size() + collected.size());
  for (const TraceEvent& ev : rec->spans) seen.insert(ev.span_id);
  for (TraceEvent& ev : collected) {
    if (ev.span_id != 0 && !seen.insert(ev.span_id).second) continue;
    if (rec->spans.size() >= max_spans) {
      ++rec->spans_dropped;
      spans_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    rec->spans.push_back(std::move(ev));
    spans_captured_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FlightRecorder::AgeLateOpen(uint64_t request_id, uint64_t observed_at) {
  std::lock_guard<std::mutex> lock(late_mu_);
  late_open_.emplace_back(request_id, observed_at);
  while (!late_open_.empty() &&
         late_open_.front().second + kLateSpanWindow < observed_at) {
    const uint64_t old = late_open_.front().first;
    late_open_.pop_front();
    OpenShard& sh = ShardFor(old);
    std::lock_guard<std::mutex> slock(sh.mu);
    TombstoneLocked(&sh, old);
  }
}

void FlightRecorder::RetainRecord(const std::shared_ptr<FlightRecord>& rec) {
  const size_t cap = std::max<size_t>(1, capacity_.load(std::memory_order_relaxed));
  const size_t reserve = reserved_per_tenant_.load(std::memory_order_relaxed);
  std::vector<std::shared_ptr<FlightRecord>> victims;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    retained_.push_back(rec);
    ++tenant_counts_[rec->tenant];
    while (retained_.size() > cap) {
      // Reservoir eviction: the victim is the *oldest* record whose tenant
      // holds more than its reserve — or, failing that, the oldest record
      // of the inserting tenant itself (a flooding tenant displaces its
      // own evidence before touching anyone else's). Only when every
      // tenant sits at/below reserve (capacity < tenants * reserve) does
      // plain FIFO apply.
      size_t victim = 0;
      for (size_t i = 0; i < retained_.size(); ++i) {
        const auto& r = retained_[i];
        if (tenant_counts_[r->tenant] > reserve || r->tenant == rec->tenant) {
          victim = i;
          break;
        }
      }
      std::shared_ptr<FlightRecord> v = retained_[victim];
      retained_.erase(retained_.begin() + static_cast<long>(victim));
      auto tc = tenant_counts_.find(v->tenant);
      if (tc != tenant_counts_.end() && --tc->second == 0) {
        tenant_counts_.erase(tc);
      }
      victims.push_back(std::move(v));
    }
  }
  for (const auto& v : victims) {
    evicted_.fetch_add(1, std::memory_order_relaxed);
    if (v->open_shard < kOpenShards) {
      OpenShard& sh = shards_[v->open_shard];
      std::lock_guard<std::mutex> lock(sh.mu);
      TombstoneLocked(&sh, v->request_id);
    }
  }
}

std::vector<FlightRecord> FlightRecorder::Retained(size_t n) const {
  std::vector<std::shared_ptr<FlightRecord>> refs;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    const size_t take = std::min(n, retained_.size());
    refs.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      refs.push_back(retained_[retained_.size() - 1 - i]);  // newest first
    }
  }
  std::vector<FlightRecord> out;
  out.reserve(refs.size());
  for (const auto& r : refs) {
    if (r->open_shard < kOpenShards) {
      // Table-resident: late spans may still be appending under the shard
      // lock, so the copy takes it too.
      std::lock_guard<std::mutex> lock(shards_[r->open_shard].mu);
      out.push_back(*r);
    } else {
      out.push_back(*r);
    }
  }
  return out;
}

std::string FlightRecorder::ToChromeTraceJson(size_t n) const {
  std::vector<FlightRecord> records = Retained(n);
  std::vector<TraceEvent> events;
  size_t total = 0;
  for (const FlightRecord& rec : records) total += rec.spans.size();
  events.reserve(total);
  for (FlightRecord& rec : records) {
    for (TraceEvent& ev : rec.spans) events.push_back(std::move(ev));
  }
  return ChromeTraceJsonFromEvents(std::move(events));
}

void FlightRecorder::SetStatsSource(
    std::function<ServeStatsSnapshot()> source) {
  ServeStatsSnapshot baseline = source ? source() : ServeStatsSnapshot{};
  std::lock_guard<std::mutex> lock(dump_mu_);
  stats_source_ = std::move(source);
  // The first dump's delta is measured from here, not from process zero —
  // "what changed leading into the degradation", not "everything ever".
  last_dump_stats_ = std::move(baseline);
}

void FlightRecorder::OnHealthTransition(const HealthTransition& transition,
                                        const HealthSnapshot& health) {
  if (!Enabled()) return;
  // Dump only on worsening transitions into Degraded/Unhealthy: recovery
  // (and the Unhealthy -> Degraded step of one) changes no evidence, and
  // a single forced degradation must produce exactly one dump.
  if (static_cast<int>(transition.to) <= static_cast<int>(transition.from)) {
    return;
  }
  if (transition.to == HealthState::kHealthy) return;
  BuildDump(transition, health);
}

void FlightRecorder::BuildDump(const HealthTransition& transition,
                               const HealthSnapshot& health) {
  std::function<ServeStatsSnapshot()> src;
  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    src = stats_source_;
  }
  // The sampler is user code (QueryServer::Stats) — call it unlocked.
  ServeStatsSnapshot stats = src ? src() : ServeStatsSnapshot{};
  std::vector<FlightRecord> records =
      Retained(capacity_.load(std::memory_order_relaxed));
  const uint64_t dump_seq = dumps_.fetch_add(1, std::memory_order_relaxed) + 1;

  std::string out;
  out.reserve(records.size() * 1024 + 4096);
  out += "{\"schema_version\":1,\"kind\":\"flight_dump\"";
  out += ",\"dump_seq\":" + U64(dump_seq);
  out += ",\"trigger\":{\"sample\":" + U64(transition.sample);
  out += ",\"at_ns\":" + U64(transition.at_ns);
  out += ",\"from\":\"";
  out += HealthStateName(transition.from);
  out += "\",\"to\":\"";
  out += HealthStateName(transition.to);
  out += "\",\"top_offender\":\"" + JsonEscape(transition.top_offender) + "\"";
  out += ",\"burn_rate\":" + JsonNumber(transition.burn_rate) + "}";
  out += ",\"health\":" + MetricsExporter::HealthToJson(health);
  out += ",\"serve\":" + MetricsExporter::ServeToJson(stats);

  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    const ServeStatsSnapshot& prev = last_dump_stats_;
    auto delta = [](uint64_t now, uint64_t then) {
      return now >= then ? now - then : 0;
    };
    out += ",\"serve_delta\":{";
    out += "\"submitted\":" + U64(delta(stats.submitted, prev.submitted));
    out += ",\"admitted\":" + U64(delta(stats.admitted, prev.admitted));
    out += ",\"completed\":" + U64(delta(stats.completed, prev.completed));
    out += ",\"failed\":" + U64(delta(stats.failed, prev.failed));
    out += ",\"shed\":" + U64(delta(stats.TotalShed(), prev.TotalShed()));
    out += ",\"queue_depth\":" + U64(stats.queue_depth);
    out += ",\"tenants\":{";
    bool first = true;
    for (const TenantServeStats& t : stats.tenants) {
      const TenantServeStats* was = nullptr;
      for (const TenantServeStats& p : prev.tenants) {
        if (p.tenant == t.tenant) {
          was = &p;
          break;
        }
      }
      if (!first) out += ",";
      first = false;
      out += "\"" + JsonEscape(t.tenant) + "\":{";
      out += "\"submitted\":" +
             U64(delta(t.submitted, was ? was->submitted : 0));
      out += ",\"shed\":" +
             U64(delta(t.TotalShed(), was ? was->TotalShed() : 0));
      out += ",\"completed\":" +
             U64(delta(t.completed, was ? was->completed : 0));
      out += ",\"queue_depth\":" + U64(t.queue_depth);
      out += "}";
    }
    out += "}}";
    out += ",\"retained_records\":" + U64(records.size());
    out += ",\"traces\":[";
    for (size_t i = 0; i < records.size(); ++i) {
      if (i) out += ",";
      AppendRecordJson(records[i], &out);
    }
    out += "]}";
    last_dump_stats_ = std::move(stats);
    latest_dump_json_ = std::move(out);
  }
}

std::string FlightRecorder::LatestDumpJson() const {
  std::lock_guard<std::mutex> lock(dump_mu_);
  return latest_dump_json_;
}

FlightStatsSnapshot FlightRecorder::Stats() const {
  FlightStatsSnapshot s;
  s.enabled = Enabled();
  s.observed = observed_.load(std::memory_order_relaxed);
  s.retained_slo = retained_slo_.load(std::memory_order_relaxed);
  s.retained_shed = retained_shed_.load(std::memory_order_relaxed);
  s.retained_error = retained_error_.load(std::memory_order_relaxed);
  s.retained_sample = retained_sample_.load(std::memory_order_relaxed);
  // Derived, not counted: the discard path bumps only observed_.
  const uint64_t retained_total = s.retained_slo + s.retained_shed +
                                  s.retained_error + s.retained_sample;
  s.discarded = s.observed >= retained_total ? s.observed - retained_total : 0;
  s.evicted = evicted_.load(std::memory_order_relaxed);
  s.open_overflow = open_overflow_.load(std::memory_order_relaxed);
  s.spans_captured = spans_captured_.load(std::memory_order_relaxed);
  s.spans_dropped = spans_dropped_.load(std::memory_order_relaxed);
  s.dumps = dumps_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kOpenShards; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    s.open_requests +=
        shards_[i].records.size() - shards_[i].tombstones.size();
  }
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    s.retained_records = retained_.size();
  }
  return s;
}

}  // namespace tsdm
