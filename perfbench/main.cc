// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload <route_cold|ingest_wal|stream_fanin>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//   perfbench --selftest
//
// Human-readable `#` lines describe the run; the last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/common.h"
#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <route_cold|ingest_wal|"
               "stream_fanin> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n       perfbench --selftest\n");
  return 2;
}

// --- Self-test of the statistics and span helpers ----------------------

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

int SelfTest() {
  // Nearest-rank percentiles on 1..100 and on a small odd set.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Near(Percentile(hundred, 0.5), 50.0), "p50 of 1..100 is 50");
  Expect(Near(Percentile(hundred, 0.99), 99.0), "p99 of 1..100 is 99");
  Expect(Near(Percentile(hundred, 1.0), 100.0), "p100 of 1..100 is 100");
  Expect(Near(Percentile(hundred, 0.0), 1.0), "p0 of 1..100 is 1");
  Expect(Near(Percentile({7.0, 1.0, 3.0}, 0.5), 3.0), "p50 of {1,3,7} is 3");
  Expect(Near(Percentile({}, 0.5), 0.0), "empty percentile is 0");
  Expect(Near(Median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median averages");

  // Windowed p99: three 1000-sample windows; the middle one holds a stall.
  // The plain p99 follows the stall, the windowed one does not.
  std::vector<TimedSample> samples;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1000; ++i) {
      const double latency = (w == 1 && i >= 900) ? 5000.0 : 10.0 + i % 10;
      samples.push_back({static_cast<uint64_t>(w * 1000 + i), latency});
    }
  }
  // A ragged last window of 10 samples is skipped (min 500).
  for (int i = 0; i < 10; ++i) samples.push_back({3000u + i, 1e6});
  const std::vector<Window> windows =
      WindowPercentiles(samples, 0, 1000, 500, 0.99);
  Expect(windows.size() == 3 && windows[1].start_ns == 1000 &&
             windows[1].end_ns == 2000 && Near(windows[1].value, 5000.0),
         "windows carry their interval and p99");
  Expect(Near(MedianValue(windows), 19.0),
         "windowed p99 is the median window's p99");
  std::vector<double> all;
  for (const TimedSample& s : samples) all.push_back(s.latency);
  Expect(Percentile(all, 0.99) >= 5000.0, "plain p99 follows the stall");

  // Self time: request [0,100] with children decode [10,20] and work
  // [20,90]; work has a child miss [30,70]. Self: request 20, decode 10,
  // work 30, miss 40.
  SpanLog log(true, 16);
  log.Open("request", 7, 0);
  log.Open("decode", 7, 10);
  log.Close(20);
  log.Open("work", 7, 20);
  log.Open("miss", 7, 30);
  log.Close(70);
  log.Close(90);
  log.Close(100);
  Expect(log.Totals("request").self_ns == 20, "request self time");
  Expect(log.Totals("decode").self_ns == 10, "decode self time");
  Expect(log.Totals("work").self_ns == 30, "work self time");
  Expect(log.Totals("miss").self_ns == 40, "miss self time");
  Expect(log.Totals("work").total_ns == 70, "work total time");
  Expect(log.records().size() == 4 && log.records()[3].parent == 2 &&
             log.records()[1].parent == 0 && log.records()[0].parent == -1 &&
             log.records()[2].request_id == 7,
         "span records keep parent and request id");
  SpanLog other(true, 0);
  other.Open("decode", 8, 0);
  other.Close(5);
  log.MergeTotals(other);
  Expect(log.Totals("decode").count == 2 && log.Totals("decode").total_ns == 15,
         "merged totals add");
  SpanLog off(false, 16);
  { Span span(&off, "request"); }
  Expect(off.Totals("request").count == 0 && off.records().empty(),
         "a disabled log records nothing");

  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return SelfTest();
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || args.seconds <= 0.0) return Usage();
  if (args.work_dir.empty()) args.work_dir = ".bench_build/work";
  std::filesystem::create_directories(args.work_dir);

  // Every sleep-paced generator thread inherits the 1 ns timer slack.
  SetTightTimerSlack();

  // Samples host steal for the whole run (see HostSteal).
  HostSteal host;
  args.host = &host;
  Report report;
  LoadGenerator load;
  report.Info("workload", args.workload);
  report.Info("seed", std::to_string(args.seed));
  report.Info("seconds", std::to_string(args.seconds));
  report.Info("trace", args.trace ? "1" : "0");
  report.Info("nproc", std::to_string(AvailableCpus()));
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  const char* rev = std::getenv("PERFBENCH_GIT_REV");
  report.Info("git_rev", rev != nullptr && *rev != '\0' ? rev : "unknown");

  int rc = 0;
  if (args.workload == "route_cold") {
    rc = RunRouteWorkload(args, &report, &load);
  } else if (args.workload == "ingest_wal") {
    rc = RunIngestWorkload(args, &report, &load);
  } else if (args.workload == "stream_fanin") {
    rc = RunStreamWorkload(args, &report, &load);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return Usage();
  }
  if (rc != 0) return rc;

  report.Set("load.send_late_p99_us", load.Validate(host, &report));
  char steal[32];
  std::snprintf(steal, sizeof(steal), "%.1f%%", 100.0 * host.RunShare());
  report.Info("host steal over the run", steal);
  report.Set("peak_rss_mb", PeakRssMb());
  report.Figure("peak_rss_mb", PeakRssMb(), "MB");
  return report.Emit(args.trace);
}
