// E-S1 — Streaming serving path. P producer threads (1/2/4/8) push
// synthetic sensor ticks into the per-sensor StreamBuffer rings while a
// single consumer drains them through the three-stage StreamPipeline
// (Welford stats -> online z-score anomaly -> Holt online forecast).
// Expected shape: millions of ticks/sec through the consumer with
// single-digit-microsecond per-tick p50/p95; ingest throughput grows with
// producer count until the consumer saturates, after which backpressure
// shows up as drops (kDropOldest keeps serving the freshest data) rather
// than as producer stalls. A final pair of runs demonstrates the tracing
// instrumentation: with the recorder disabled (the default) the span
// checks cost well under 2% of a tick; enabling it prices the full
// Chrome-trace capture. Every run checks its accounting: each pushed tick
// is accepted (kDropOldest) and either processed or counted dropped; the
// program exits non-zero otherwise.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/obs/trace.h"
#include "src/stream/stream_buffer.h"
#include "src/stream/stream_pipeline.h"
#include "src/stream/stream_stage.h"

namespace {

using namespace tsdm;
using tsdm_bench::BenchReporter;
using tsdm_bench::Fmt;
using tsdm_bench::Stopwatch;
using tsdm_bench::Table;

constexpr size_t kSensors = 64;
constexpr size_t kCapacity = 512;
constexpr size_t kTotalTicks = 400000;

double TickValue(size_t sensor, size_t step, Rng* rng) {
  double base = 10.0 + static_cast<double>(sensor % 7);
  double season = 5.0 * std::sin(2.0 * 3.14159265358979 *
                                 static_cast<double>(step) / 288.0);
  return base + season + rng->Normal(0.0, 0.5);
}

struct RunStats {
  double wall = 0.0;
  uint64_t pushed = 0;
  uint64_t accepted = 0;
  size_t processed = 0;
  uint64_t dropped = 0;
  uint64_t alarms = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  std::string metrics_table;

  double TicksPerSec() const {
    return wall > 0.0 ? static_cast<double>(processed) / wall : 0.0;
  }
};

/// Under kDropOldest every push is admitted, and every admitted tick is
/// processed or evicted. Prints a run that breaks this; returns whether it
/// held.
bool CheckAccounting(const std::string& run, const RunStats& stats) {
  if (stats.accepted == stats.pushed &&
      stats.processed + stats.dropped == stats.pushed) {
    return true;
  }
  std::fprintf(stderr,
               "FAIL %s: pushed %llu, accepted %llu, processed %zu, "
               "dropped %llu\n",
               run.c_str(), static_cast<unsigned long long>(stats.pushed),
               static_cast<unsigned long long>(stats.accepted),
               stats.processed, static_cast<unsigned long long>(stats.dropped));
  return false;
}

RunStats RunOnce(int producers) {
  StreamBuffer buffer(kSensors, kCapacity, DropPolicy::kDropOldest);
  StreamPipeline pipeline;
  pipeline.Emplace<WelfordStatsStage>()
      .Emplace<OnlineAnomalyStage>(OnlineAnomalyStage::Mode::kZScore, 6.0)
      .Emplace<OnlineForecastStage>();
  if (!pipeline.Reset(kSensors).ok()) return {};

  std::atomic<bool> done{false};
  Stopwatch watch;

  // Each producer owns the sensors congruent to its id, so ticks of one
  // sensor arrive in order and producers contend only on the buffer's
  // per-sensor ring locks they share with the consumer.
  std::vector<std::thread> threads;
  size_t ticks_per_sensor = kTotalTicks / kSensors;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(1234 + static_cast<uint64_t>(p));
      for (size_t step = 0; step < ticks_per_sensor; ++step) {
        for (size_t s = p; s < kSensors; s += static_cast<size_t>(producers)) {
          buffer.Push(s, static_cast<int64_t>(step), TickValue(s, step, &rng));
        }
      }
    });
  }

  TickRecord rec;
  size_t processed = 0;
  std::thread consumer([&] {
    while (true) {
      size_t n = pipeline.Drain(&buffer, &rec);
      processed += n;
      if (n == 0) {
        if (done.load(std::memory_order_acquire)) {
          processed += pipeline.Drain(&buffer, &rec);
          break;
        }
        std::this_thread::yield();
      }
    }
  });

  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  RunStats stats;
  stats.wall = watch.Seconds();
  stats.pushed = ticks_per_sensor * kSensors;
  stats.accepted = buffer.accepted();
  stats.processed = processed;
  stats.dropped = buffer.dropped();
  stats.alarms =
      static_cast<const OnlineAnomalyStage&>(pipeline.StageAt(1)).alarms();
  stats.p50_us = 1e6 * pipeline.tick_latency().QuantileSeconds(0.5);
  stats.p95_us = 1e6 * pipeline.tick_latency().QuantileSeconds(0.95);
  stats.metrics_table = pipeline.metrics().ToTable();
  return stats;
}

/// ns per TraceSpan construct+destruct while the recorder is disabled —
/// the whole cost tracing adds to an untraced run.
double DisabledSpanNs() {
  constexpr int kIters = 5000000;
  Stopwatch watch;
  for (int i = 0; i < kIters; ++i) {
    TraceSpan span("bench/disabled-probe");
    asm volatile("" ::: "memory");  // keep the span from folding away
  }
  return 1e9 * watch.Seconds() / kIters;
}

}  // namespace

int main() {
  std::printf("hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());
  BenchReporter reporter("stream");
  reporter.Info("sensors", std::to_string(kSensors));
  reporter.Info("ticks", std::to_string(kTotalTicks));
  reporter.Metric("bytes_processed",
                  static_cast<double>(kTotalTicks * sizeof(Tick)));

  Table table("E-S1 streaming serving: " + std::to_string(kSensors) +
                  " sensors, " + std::to_string(kTotalTicks) +
                  " ticks, 3-stage stream pipeline",
              {"producers", "wall_s", "ticks_per_s", "p50_us", "p95_us",
               "dropped", "alarms"});

  std::string last_metrics;
  bool accounted = true;
  for (int producers : {1, 2, 4, 8}) {
    RunStats stats = RunOnce(producers);
    accounted &= CheckAccounting(std::to_string(producers) + " producers",
                                 stats);
    table.Row({std::to_string(producers), Fmt(stats.wall),
               Fmt(stats.TicksPerSec(), 0), Fmt(stats.p50_us, 2),
               Fmt(stats.p95_us, 2), std::to_string(stats.dropped),
               std::to_string(stats.alarms)});
    reporter.Metric("ticks_per_s_p" + std::to_string(producers),
                    stats.TicksPerSec());
    if (producers == 1) {
      reporter.Metric("tick_p50_us", stats.p50_us);
      reporter.Metric("tick_p95_us", stats.p95_us);
    }
    last_metrics = stats.metrics_table;
  }

  std::printf("\nper-stage metrics at 8 producers:\n%s", last_metrics.c_str());

  // --- Tracing overhead -------------------------------------------------
  // Four spans guard each tick (1 tick + 3 stages). Disabled, each span is
  // one relaxed atomic load; the measured per-span cost relative to the
  // p50 tick pins the "disabled tracing <= 2%" budget. Enabled, the same
  // run prices full capture (clock samples + event buffering).
  RunStats off = RunOnce(1);
  double span_ns = DisabledSpanNs();
  double disabled_pct =
      off.p50_us > 0.0 ? 100.0 * (4.0 * span_ns) / (1e3 * off.p50_us) : 0.0;
  TraceRecorder::Global().SetCapacity(1 << 16);
  TraceRecorder::Global().Enable();
  RunStats on = RunOnce(1);
  TraceRecorder::Global().Disable();
  accounted &= CheckAccounting("trace off", off);
  accounted &= CheckAccounting("trace on", on);
  uint64_t trace_events =
      TraceRecorder::Global().Snapshot().size() +
      TraceRecorder::Global().dropped();
  TraceRecorder::Global().Clear();

  Table trace_table("E-S1 tracing overhead (1 producer)",
                    {"mode", "ticks_per_s", "p50_us", "overhead"});
  trace_table.Row({"trace off", Fmt(off.TicksPerSec(), 0), Fmt(off.p50_us, 2),
                   Fmt(disabled_pct, 2) + "% (est)"});
  double enabled_pct =
      off.TicksPerSec() > 0.0
          ? 100.0 * (off.TicksPerSec() - on.TicksPerSec()) / off.TicksPerSec()
          : 0.0;
  trace_table.Row({"trace on", Fmt(on.TicksPerSec(), 0), Fmt(on.p50_us, 2),
                   Fmt(enabled_pct, 1) + "%"});
  std::printf(
      "\ndisabled span cost: %.1f ns x 4 spans/tick = %.2f%% of the %.2f us "
      "p50 tick (budget: 2%%); enabled capture recorded %llu events\n",
      span_ns, disabled_pct, off.p50_us,
      static_cast<unsigned long long>(trace_events));

  reporter.Metric("disabled_span_ns", span_ns);
  reporter.Metric("disabled_overhead_pct", disabled_pct);
  reporter.Metric("ticks_per_s_trace_on", on.TicksPerSec());

  std::printf(
      "\nexpected shape: the consumer serves millions of ticks/sec with "
      "p50/p95 per-tick latency in the low microseconds at every producer "
      "count; when %zu producers outrun the single consumer the drop "
      "counter rises (freshness-preserving backpressure) while per-tick "
      "latency stays flat; alarm counts stay near zero on this clean "
      "synthetic feed; disabled tracing stays within its 2%% budget.\n",
      static_cast<size_t>(8));
  reporter.Write();
  if (!accounted) {
    std::fprintf(stderr, "FAIL: tick accounting broken (see above)\n");
    return 1;
  }
  std::printf("accounting: every run pushed = accepted = processed + "
              "dropped\n");
  return 0;
}
