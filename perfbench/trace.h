// Benchmark-side spans. The benchmark wraps each call it makes into a
// layer's public function in a span; the program itself is not
// instrumented. A span records its name, start, end, parent span and
// request id. Spans are kept in memory (up to a cap) and written out when
// the run ends; per-name totals and self times are aggregated exactly, cap
// or not.
//
// Self time of a span is its duration minus the time its direct children
// cover. Spans of one SpanLog are opened and closed by one thread in LIFO
// order, so children never overlap and their durations simply add.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the same log's records, -1 = root
  uint64_t request_id = 0;
};

/// Per-name aggregate over every closed span of that name.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;

  double MeanNs() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / count;
  }
  double SelfMeanNs() const {
    return count == 0 ? 0.0 : static_cast<double>(self_ns) / count;
  }
};

/// Single-thread span log. A disabled log records nothing and reads no
/// clock, so the same driving code runs traced and untraced.
class SpanLog {
 public:
  SpanLog(bool enabled, size_t keep_records)
      : enabled_(enabled), keep_(keep_records) {}

  bool enabled() const { return enabled_; }

  /// Opens a span at time `t`. `name` must be a string literal.
  void Open(const char* name, uint64_t request_id, uint64_t t) {
    Frame f;
    f.name = name;
    f.start_ns = t;
    f.record = -1;
    if (records_.size() < keep_) {
      f.record = static_cast<int64_t>(records_.size());
      SpanRecord r;
      r.name = name;
      r.start_ns = t;
      r.parent = stack_.empty() ? -1 : stack_.back().record;
      r.request_id = request_id;
      records_.push_back(r);
    }
    stack_.push_back(f);
  }

  /// Closes the innermost open span at time `t`.
  void Close(uint64_t t) {
    Frame f = stack_.back();
    stack_.pop_back();
    const uint64_t dur = t >= f.start_ns ? t - f.start_ns : 0;
    SpanTotals& totals = totals_[f.name];
    ++totals.count;
    totals.total_ns += dur;
    totals.self_ns += dur >= f.child_ns ? dur - f.child_ns : 0;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.record >= 0) records_[static_cast<size_t>(f.record)].end_ns = t;
  }

  /// Totals for `name` (all zero when no such span closed).
  SpanTotals Totals(const char* name) const {
    SpanTotals sum;
    for (const auto& [key, t] : totals_) {
      if (std::strcmp(key, name) != 0) continue;
      sum.count += t.count;
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
    }
    return sum;
  }

  /// Adds another log's aggregates into this one (records are not moved).
  void MergeTotals(const SpanLog& other) {
    for (const auto& [name, t] : other.totals_) {
      SpanTotals& mine = totals_[name];
      mine.count += t.count;
      mine.total_ns += t.total_ns;
      mine.self_ns += t.self_ns;
    }
  }

  const std::vector<SpanRecord>& records() const { return records_; }

  /// Writes the kept records as CSV: name,start_ns,end_ns,parent,request_id.
  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name,start_ns,end_ns,parent,request_id\n");
    for (const SpanRecord& r : records_) {
      std::fprintf(f, "%s,%llu,%llu,%lld,%llu\n", r.name,
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns),
                   static_cast<long long>(r.parent),
                   static_cast<unsigned long long>(r.request_id));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Frame {
    const char* name = nullptr;
    uint64_t start_ns = 0;
    uint64_t child_ns = 0;
    int64_t record = -1;
  };

  bool enabled_;
  size_t keep_;
  std::vector<Frame> stack_;
  std::vector<SpanRecord> records_;
  /// Keyed by the literal's address (cheap on the hot path); Totals()
  /// folds entries whose names compare equal.
  std::unordered_map<const char*, SpanTotals> totals_;
};

/// RAII span on the steady clock; a no-op on a disabled log.
class Span {
 public:
  Span(SpanLog* log, const char* name, uint64_t request_id = 0)
      : log_(log->enabled() ? log : nullptr) {
    if (log_ != nullptr) log_->Open(name, request_id, NowNs());
  }
  ~Span() {
    if (log_ != nullptr) log_->Close(NowNs());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
