#include "perfbench/common.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"peak_per_s", "1/s"},
      {"p50_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"net.wire_minus_inproc_p50_us", "us"},
      {"net.frame_parse_ns", "ns"},
      {"net.answer_encode_ns", "ns"},
      {"net.bytes_per_query", "bytes"},
      {"net.shed_queue_full", "count"},
      {"net.shed_deadline", "count"},
      {"shard.scatter_share", "ratio"},
      {"shard.probes_per_scatter", "count"},
      {"shard.router_minus_single_p50_us", "us"},
      {"shard.partial_errors", "count"},
      {"serve.inproc_p50_us", "us"},
      {"serve.stage_queue_mean_us", "us"},
      {"serve.stage_batch_mean_us", "us"},
      {"serve.stage_cache_mean_us", "us"},
      {"serve.stage_exec_mean_us", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_evictions_per_query", "count"},
      {"serve.shed_expired", "count"},
      {"serve.shed_capacity", "count"},
      {"routing.kshortest_us", "us"},
      {"routing.score_us", "us"},
      {"routing.candidates_per_query", "count"},
      {"routing.self_us_per_query", "us"},
      {"uncertainty.segment_miss_us", "us"},
      {"uncertainty.compose_us", "us"},
      {"uncertainty.convolve_ns", "ns"},
      {"uncertainty.convolve_bin_pairs_per_query", "count"},
      {"uncertainty.self_us_per_query", "us"},
      {"ingest.parse_ns_per_tick", "ns"},
      {"ingest.wal_append_ns_per_tick", "ns"},
      {"ingest.wal_sync_us", "us"},
      {"ingest.wal_bytes_per_tick", "bytes"},
      {"ingest.replay_mb_per_s", "MB/s"},
      {"ingest.rejected_frames", "count"},
      {"stream.process_ns_per_tick", "ns"},
      {"stream.push_ns", "ns"},
      {"stream.poll_ns", "ns"},
      {"stream.backlog_max", "count"},
      {"stream.dropped", "count"},
      {"load.send_late_p99_us", "us"},
      {"bench.trace_overhead_pct", "%"},
  };
  return kMetrics;
}

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::Figure(const std::string& name, double value,
                    const std::string& unit) {
  std::printf("# metric %s = %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Info(const std::string& key, const std::string& value) {
  std::printf("# %s: %s\n", key.c_str(), value.c_str());
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::printf("# CHECK FAILED: %s\n", why.c_str());
}

void Report::Attempted(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::ErrorReason(const std::string& reason, uint64_t count) {
  std::printf("# errors[%s] = %llu\n", reason.c_str(),
              static_cast<unsigned long long>(count));
}

namespace {

/// Shortest round-trip decimal form of a double (%.17g is exact).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int Report::Emit(bool trace) {
  const std::vector<MetricDef>& defs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const MetricDef& def : defs) {
    auto it = values_.find(def.name);
    double value = 0.0;
    if (it != values_.end()) {
      value = it->second;
    } else if (!trace) {
      Fail(std::string("end-to-end metric not measured: ") + def.name);
    }
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name,
                  JsonNumber(value).c_str(), def.unit);
    metrics += entry;
  }
  if (attempted_ == 0) Fail("no operation attempted");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct_ ? "true" : "false",
      static_cast<unsigned long long>(attempted_ == 0 ? 1 : attempted_),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

void SleepUntilNs(uint64_t t_ns) {
  // std::chrono::steady_clock is CLOCK_MONOTONIC on Linux, so the absolute
  // deadline lines up with NowNs().
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(t_ns % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void SetTightTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double PeakRssMb() {
  rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostSteal::HostSteal() : thread_([this] { Loop(); }) {}

HostSteal::~HostSteal() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

bool HostSteal::Read(Sample* out) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return false;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return false;
  out->t_ns = NowNs();
  out->total = 0;
  for (unsigned long long x : v) out->total += x;
  out->steal = v[7];
  return true;
}

void HostSteal::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    Sample s;
    lock.unlock();
    const bool ok = Read(&s);
    lock.lock();
    if (!ok) return;  // no /proc/stat: every window counts as quiet
    samples_.push_back(s);
    wake_.wait_for(lock, std::chrono::milliseconds(100), [this] { return stop_; });
  }
}

double HostSteal::Share(uint64_t start_ns, uint64_t end_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2) return 0.0;
  // The last sample at or before the start and the first at or after the
  // end bracket the window.
  size_t a = 0;
  while (a + 1 < samples_.size() && samples_[a + 1].t_ns <= start_ns) ++a;
  size_t b = a + 1;
  while (b + 1 < samples_.size() && samples_[b].t_ns < end_ns) ++b;
  const uint64_t total = samples_[b].total - samples_[a].total;
  return total == 0 ? 0.0
                    : static_cast<double>(samples_[b].steal - samples_[a].steal) /
                          static_cast<double>(total);
}

double HostSteal::RunShare() const {
  return Share(0, ~uint64_t{0});
}

std::vector<Window> HostSteal::Quiet(const std::vector<Window>& windows) const {
  std::vector<std::pair<double, size_t>> by_steal;
  for (size_t i = 0; i < windows.size(); ++i) {
    by_steal.push_back({Share(windows[i].start_ns, windows[i].end_ns), i});
  }
  std::stable_sort(by_steal.begin(), by_steal.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  const size_t floor = std::max<size_t>(3, (windows.size() + 3) / 4);
  size_t keep = 0;
  while (keep < by_steal.size() && by_steal[keep].first <= kMaxShare) ++keep;
  if (keep < floor) keep = std::min(floor, by_steal.size());
  std::vector<size_t> kept;
  for (size_t i = 0; i < keep; ++i) kept.push_back(by_steal[i].second);
  std::sort(kept.begin(), kept.end());
  std::vector<Window> out;
  for (size_t i : kept) out.push_back(windows[i]);
  return out;
}

size_t HostSteal::CountQuiet(const std::vector<Window>& windows) const {
  size_t n = 0;
  for (const Window& w : windows) {
    if (Share(w.start_ns, w.end_ns) <= kMaxShare) ++n;
  }
  return n;
}

double HostSteal::QuietMedian(const std::vector<Window>& windows,
                              const std::string& what, Report* report) const {
  const std::vector<Window> quiet = Quiet(windows);
  std::vector<double> values;
  for (const Window& w : quiet) values.push_back(w.value);
  char spread[96];
  std::snprintf(spread, sizeof(spread), " (quartiles %.6g, %.6g)",
                Percentile(values, 0.25), Percentile(values, 0.75));
  report->Info("quiet windows " + what,
               std::to_string(quiet.size()) + "/" +
                   std::to_string(windows.size()) + spread);
  return MedianValue(quiet);
}

void LoadGenerator::AddLateness(const std::vector<TimedSample>& late) {
  if (late.empty()) return;
  uint64_t origin = ~uint64_t{0};
  for (const TimedSample& s : late) origin = std::min(origin, s.due_ns);
  for (const Window& w : WindowPercentiles(late, origin, 500000000ull, 20, 0.99)) {
    late_p99s_.push_back(w);
  }
  paced_sends_ += late.size();
}

void LoadGenerator::UseThreads(int threads, int connections) {
  if (threads > max_threads_) max_threads_ = threads;
  if (connections > max_connections_) max_connections_ = connections;
}

double LoadGenerator::Validate(const HostSteal& host, Report* report) const {
  const int nproc = AvailableCpus();
  report->Info("client_threads", std::to_string(max_threads_));
  report->Info("client_connections", std::to_string(max_connections_));
  report->Info("paced_sends", std::to_string(paced_sends_));
  const double late_p99 = SendLateP99Us(host, report);
  char late[64];
  std::snprintf(late, sizeof(late), "%.2f us (bound %.0f us)", late_p99,
                kSendLateP99BoundUs);
  report->Info("load.send_late_p99", late);
  if (max_threads_ > nproc || max_connections_ > nproc) {
    report->Fail("load generator uses more threads or connections than nproc");
  }
  if (late_p99 > kSendLateP99BoundUs) {
    report->Fail("load generator sent too late at p99");
  }
  return late_p99;
}

}  // namespace perfbench
