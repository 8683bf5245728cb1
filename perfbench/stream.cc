// stream_fanin: three producer threads push ticks for disjoint sensors into
// one StreamBuffer (kDropOldest); one consumer polls and runs the
// StreamPipeline. The only workload with concurrent writers to the buffer.
//
// Untraced run: unpaced producers give peak_per_s (ticks the consumer
// processes per second, median over eight sub-windows per block); producers paced at
// the nominal rate give p50/p99 from each tick's producer stamp (its due
// time) to ProcessTick returning, and the dropped ticks as errors.
//
// Traced run: the nominal phase again (backlog and drops), then the
// unpaced phase untraced and traced, with spans around every Push, Poll and
// ProcessTick.
//
// Checks on every phase: pushed = processed + dropped, and each sensor's
// ticks reach the pipeline in the order they were pushed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/stream/stream_buffer.h"
#include "src/stream/stream_pipeline.h"
#include "src/stream/stream_stage.h"

namespace perfbench {
namespace {

using namespace tsdm;

constexpr int kProducers = 3;
constexpr size_t kSensors = 48;  // 16 per producer
constexpr size_t kCapacity = 256;
constexpr double kNominalPerProducer = 20000.0;  // ticks/s per producer
constexpr size_t kValueTable = 1 << 18;          // values cycled per producer

/// Per-producer value tables, generated from the seed during set-up.
struct StreamSetup {
  std::vector<std::vector<double>> values;
};

StreamSetup BuildSetup(uint64_t seed) {
  StreamSetup s;
  for (int p = 0; p < kProducers; ++p) {
    Rng rng(seed * 1000003 + static_cast<uint64_t>(p));
    std::vector<double> v(kValueTable);
    for (size_t i = 0; i < kValueTable; ++i) {
      const double season = 5.0 * std::sin(2.0 * 3.14159265358979 *
                                            static_cast<double>(i) / 288.0);
      v[i] = 10.0 + p + season + rng.Normal(0.0, 0.5);
    }
    s.values.push_back(std::move(v));
  }
  return s;
}

std::unique_ptr<StreamPipeline> MakePipeline() {
  auto pipeline = std::make_unique<StreamPipeline>();
  pipeline->Emplace<WelfordStatsStage>()
      .Emplace<OnlineAnomalyStage>(OnlineAnomalyStage::Mode::kMad, 8.0, 0.05)
      .Emplace<OnlineForecastStage>();
  (void)pipeline->Reset(kSensors);
  return pipeline;
}

/// Sensor of producer p's i-th tick: producers own disjoint sensor sets.
size_t SensorOf(int p, uint64_t i) {
  return static_cast<size_t>(p) +
         kProducers * static_cast<size_t>(i % (kSensors / kProducers));
}

struct PhaseResult {
  uint64_t pushed = 0;
  uint64_t processed = 0;
  uint64_t dropped = 0;
  uint64_t order_violations = 0;
  size_t backlog_max = 0;
  std::vector<TimedSample> samples;  ///< nominal only, latency in us
  uint64_t origin_ns = 0;
  std::vector<TimedSample> late;
  std::vector<Window> rates;  ///< unpaced only: ticks/s per sub-window
  SpanLog spans{false, 0};
};

/// Runs one phase. Paced: each producer pushes at kNominalPerProducer,
/// stamping each tick with its due time. Unpaced: producers push as fast as
/// they can for `seconds`. With `trace`, every Push, Poll and ProcessTick is
/// wrapped in a span.
PhaseResult RunPhase(const StreamSetup& setup, bool paced, double seconds,
                     bool trace) {
  PhaseResult r;
  StreamBuffer buffer(kSensors, kCapacity, DropPolicy::kDropOldest);
  std::unique_ptr<StreamPipeline> pipeline = MakePipeline();
  std::vector<SpanLog> producer_logs;
  for (int p = 0; p < kProducers; ++p) producer_logs.emplace_back(trace, 20000);
  SpanLog consumer_log(trace, 60000);

  std::atomic<bool> producers_done{false};
  std::vector<uint64_t> pushed(kProducers, 0);
  std::vector<std::vector<TimedSample>> late(kProducers);
  const double period_ns = 1e9 / kNominalPerProducer;
  const uint64_t origin = NowNs() + 2000000;
  const uint64_t end = origin + static_cast<uint64_t>(seconds * 1e9);
  r.origin_ns = origin;
  // Reserved here, not grown inside the producer and consumer threads:
  // growth there spreads allocations over per-thread malloc arenas and
  // makes peak RSS depend on timing.
  const size_t per_producer =
      paced ? static_cast<size_t>(seconds * kNominalPerProducer) + 64 : 0;
  r.samples.reserve(kProducers * per_producer);
  for (auto& l : late) l.reserve(per_producer);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::vector<double>& values = setup.values[static_cast<size_t>(p)];
      SpanLog* log = &producer_logs[static_cast<size_t>(p)];
      auto push = [&](uint64_t i, int64_t stamp) {
        Tick t{SensorOf(p, i), stamp, values[i % kValueTable]};
        Span span(log, "stream.push");
        buffer.Push(t);
      };
      if (paced) {
        pushed[p] = PacedLoop(origin, period_ns, end, &late[p],
                              [&](uint64_t i, uint64_t due) {
                                push(i, static_cast<int64_t>(due));
                              });
      } else {
        SleepUntilNs(origin);
        uint64_t i = 0;
        // Stamps only need to rise per sensor here; check the clock every
        // 1024 pushes.
        while ((i & 1023) != 0 || NowNs() < end) {
          push(i, static_cast<int64_t>(i));
          ++i;
        }
        pushed[p] = i;
      }
    });
  }

  std::thread consumer([&] {
    std::vector<int64_t> last(kSensors, -1);
    TickRecord rec;
    // Unpaced throughput: processed counts in eight sub-windows of the run.
    constexpr int kWindows = 8;
    std::vector<uint64_t> in_window(kWindows, 0);
    const double width = static_cast<double>(end - origin) / kWindows;
    for (;;) {
      const uint64_t t0 = trace ? NowNs() : 0;
      const bool got = buffer.Poll(&rec.tick);
      if (trace) {
        consumer_log.Open(got ? "stream.poll" : "stream.poll_empty", 0, t0);
        consumer_log.Close(NowNs());
      }
      if (!got) {
        if (producers_done.load(std::memory_order_acquire) &&
            buffer.NumUnconsumed() == 0) {
          break;
        }
        std::this_thread::yield();
        continue;
      }
      {
        Span span(&consumer_log, "stream.process");
        (void)pipeline->ProcessTick(&rec);
      }
      const uint64_t now = NowNs();
      ++r.processed;
      const size_t sensor = rec.tick.sensor;
      if (rec.tick.timestamp <= last[sensor]) ++r.order_violations;
      last[sensor] = rec.tick.timestamp;
      if (paced) {
        const uint64_t due = static_cast<uint64_t>(rec.tick.timestamp);
        r.samples.push_back({due, 1e-3 * static_cast<double>(now - due)});
      } else if (now >= origin && now < end) {
        const size_t w = static_cast<size_t>(static_cast<double>(now - origin) / width);
        ++in_window[std::min<size_t>(w, kWindows - 1)];
      }
    }
    if (!paced) {
      for (int w = 0; w < kWindows; ++w) {
        Window win;
        win.start_ns = origin + static_cast<uint64_t>(w * width);
        win.end_ns = origin + static_cast<uint64_t>((w + 1) * width);
        win.value = static_cast<double>(in_window[static_cast<size_t>(w)]) /
                    (width * 1e-9);
        r.rates.push_back(win);
      }
    }
  });

  // The control thread samples the backlog while paced producers run. In
  // an unpaced phase the four busy threads already fill the CPUs.
  if (!paced) SleepUntilNs(end);
  while (NowNs() < end) {
    r.backlog_max = std::max(r.backlog_max, buffer.NumUnconsumed());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& t : producers) t.join();
  producers_done.store(true, std::memory_order_release);
  consumer.join();

  for (int p = 0; p < kProducers; ++p) {
    r.pushed += pushed[p];
    r.late.insert(r.late.end(), late[p].begin(), late[p].end());
    r.spans.MergeTotals(producer_logs[static_cast<size_t>(p)]);
  }
  r.spans.MergeTotals(consumer_log);
  r.dropped = buffer.dropped();
  return r;
}

void CheckPhase(const PhaseResult& r, const std::string& phase, Report* report) {
  if (r.pushed != r.processed + r.dropped) {
    report->Fail(phase + ": pushed " + std::to_string(r.pushed) +
                 " != processed " + std::to_string(r.processed) +
                 " + dropped " + std::to_string(r.dropped));
  }
  if (r.order_violations > 0) {
    report->Fail(phase + ": " + std::to_string(r.order_violations) +
                 " ticks out of per-sensor order");
  }
  report->Info("check " + phase,
               "pushed " + std::to_string(r.pushed) + " = processed " +
                   std::to_string(r.processed) + " + dropped " +
                   std::to_string(r.dropped) + "; per-sensor order kept");
}

}  // namespace

int RunStreamWorkload(const RunArgs& args, Report* report, LoadGenerator* load) {
  report->Info("nominal_rate",
               std::to_string(kProducers * kNominalPerProducer) +
                   " ticks/s from " + std::to_string(kProducers) + " producers");
  load->UseThreads(kProducers, 0);

  // The untraced run alternates nominal-rate and unpaced blocks (see
  // BlockPlan); a timed throw-away set-up follows every second block.
  const int blocks = args.trace ? 1 : 8;
  const double nominal_s = (args.trace ? 0.35 : 0.55) * args.seconds / blocks;
  const double unpaced_s = (args.trace ? 0.25 : 0.35) * args.seconds / blocks;
  auto timed_setup = [&](StreamSetup* out) {
    Window w;
    w.start_ns = NowNs();
    *out = BuildSetup(args.seed);
    w.end_ns = NowNs();
    w.value = 1e-9 * static_cast<double>(w.end_ns - w.start_ns);
    return w;
  };
  std::vector<Window> setups;
  StreamSetup setup;
  setups.push_back(timed_setup(&setup));

  std::vector<Window> p50s, p95s, p99s, rates;
  uint64_t pushed = 0, dropped = 0, unpaced_drops = 0;
  size_t backlog_max = 0;
  const HostSteal& host = *args.host;
  const BlockPlan plan(blocks, 0.9 * args.seconds);
  int b = 0;
  for (; plan.More(b, p99s, host); ++b) {
    PhaseResult nominal = RunPhase(setup, true, nominal_s, false);
    CheckPhase(nominal, "nominal block", report);
    load->AddLateness(nominal.late);
    for (const Window& w : WindowPercentiles(nominal.samples, nominal.origin_ns,
                                             500000000ull, 27000, 0.5)) {
      p50s.push_back(w);
    }
    for (const Window& w : WindowPercentiles(nominal.samples, nominal.origin_ns,
                                             500000000ull, 27000, 0.95)) {
      p95s.push_back(w);
    }
    for (const Window& w : WindowPercentiles(nominal.samples, nominal.origin_ns,
                                             500000000ull, 27000, 0.99)) {
      p99s.push_back(w);
    }
    pushed += nominal.pushed;
    dropped += nominal.dropped;
    backlog_max = std::max(backlog_max, nominal.backlog_max);

    PhaseResult unpaced = RunPhase(setup, false, unpaced_s, false);
    CheckPhase(unpaced, "unpaced block", report);
    rates.insert(rates.end(), unpaced.rates.begin(), unpaced.rates.end());
    unpaced_drops += unpaced.dropped;
    if (!args.trace && b % 2 == 1) {
      StreamSetup scratch;
      setups.push_back(timed_setup(&scratch));
    }
  }
  report->Info("blocks", std::to_string(b));
  report->Set("setup_s", host.QuietMedian(setups, "setup_s", report));
  report->Set("p50_us", host.QuietMedian(p50s, "p50_us", report));
  report->Figure("p95_us", host.QuietMedian(p95s, "p95_us", report), "us");
  report->Figure("p99_us", host.QuietMedian(p99s, "p99_us", report), "us");
  report->Info("latency windows", std::to_string(p99s.size()));
  report->Attempted(pushed, dropped);
  report->ErrorReason("dropped", dropped);
  report->Figure("error_rate",
                 pushed == 0 ? 0.0 : static_cast<double>(dropped) / pushed,
                 "ratio");
  const double per_s = host.QuietMedian(rates, "peak_per_s", report);
  report->Set("peak_per_s", per_s);
  report->Figure("ticks_per_s", per_s, "1/s");
  report->Info("unpaced drops", std::to_string(unpaced_drops));

  if (args.trace) {
    PhaseResult traced = RunPhase(setup, false, unpaced_s, true);
    CheckPhase(traced, "unpaced traced", report);
    const double traced_per_s = MedianValue(traced.rates);
    report->Set("stream.process_ns_per_tick",
                traced.spans.Totals("stream.process").MeanNs());
    report->Set("stream.push_ns", traced.spans.Totals("stream.push").MeanNs());
    report->Set("stream.poll_ns", traced.spans.Totals("stream.poll").MeanNs());
    report->Set("stream.backlog_max", static_cast<double>(backlog_max));
    report->Set("stream.dropped", static_cast<double>(dropped));
    report->Set("bench.trace_overhead_pct",
                traced_per_s > 0.0 ? 100.0 * (per_s / traced_per_s - 1.0) : 0.0);
  }
  return 0;
}

}  // namespace perfbench
