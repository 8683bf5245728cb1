// Shared plumbing for the perfbench workloads: run arguments, the report
// that prints the final result line, open-loop pacing and process facts.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/trace.h"

namespace perfbench {

class HostSteal;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WAL segments and span dumps (inside the
  /// checkout; created by the caller).
  std::string work_dir;
  /// The run's steal sampler (set by main).
  const HostSteal* host = nullptr;
};

/// One metric the result line can carry, with its unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: printed with --trace 0, one value per workload. The
/// windowed p95 and p99 are printed as figures but not gated (see README).
const std::vector<MetricDef>& EndToEndMetrics();
/// Per-layer metrics: printed with --trace 1. A layer the workload does not
/// run reports 0.
const std::vector<MetricDef>& PerLayerMetrics();

/// Collects a run's outcome and prints it: human-readable `#` lines as
/// things happen, then one JSON object as the last line of stdout.
class Report {
 public:
  /// Records a metric from either table.
  void Set(const std::string& name, double value);
  /// Prints a workload-specific end-to-end figure by name and unit (such
  /// as peak_qps or recovery_s) without putting it in the result line.
  void Figure(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  /// Marks the run incorrect and says why.
  void Fail(const std::string& why);
  /// Counts operations attempted at the nominal rate and how many failed.
  void Attempted(uint64_t attempted, uint64_t failed);
  /// Prints a failure count under its reason (printed even when zero so
  /// the reasons are always visible).
  void ErrorReason(const std::string& reason, uint64_t count);

  bool correct() const { return correct_; }

  /// Prints the result line for the mode; returns the process exit code.
  int Emit(bool trace);

 private:
  std::map<std::string, double> values_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Sleeps until the steady clock reads `t_ns` (absolute; returns at once
/// if already past).
void SleepUntilNs(uint64_t t_ns);

/// Lowers this thread's timer slack to 1 ns so sleeps wake on time. Threads
/// created afterwards inherit it.
void SetTightTimerSlack();

/// CPUs this process may run on.
int AvailableCpus();

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// CPU time the hypervisor gave to other tenants while this machine wanted
/// it ("steal" in /proc/stat), sampled every 100 ms by a background thread
/// for the whole run. A window in which the host ran someone else on our
/// CPUs measures the host, not the program, so every windowed metric is
/// taken over the quiet windows only.
class HostSteal {
 public:
  /// A window is quiet when at most this share of CPU time was stolen.
  static constexpr double kMaxShare = 0.03;

  HostSteal();
  ~HostSteal();
  HostSteal(const HostSteal&) = delete;
  HostSteal& operator=(const HostSteal&) = delete;

  /// Share of CPU time stolen over [start_ns, end_ns), at the sampling
  /// resolution; 0 when /proc/stat cannot be read.
  double Share(uint64_t start_ns, uint64_t end_ns) const;

  /// The windows with a steal share of at most kMaxShare. When fewer than a
  /// quarter of them (or fewer than three) qualify, the quarter with the
  /// least steal, at least three, instead.
  std::vector<Window> Quiet(const std::vector<Window>& windows) const;

  /// How many of `windows` have a steal share of at most kMaxShare.
  size_t CountQuiet(const std::vector<Window>& windows) const;

  /// Median value over Quiet(windows); prints how many windows were kept.
  double QuietMedian(const std::vector<Window>& windows,
                     const std::string& what, Report* report) const;

  /// Steal share over the whole run so far.
  double RunShare() const;

 private:
  struct Sample {
    uint64_t t_ns = 0;
    uint64_t total = 0;  ///< all CPU time, jiffies
    uint64_t steal = 0;  ///< stolen CPU time, jiffies
  };
  static bool Read(Sample* out);
  void Loop();

  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;  // last: it uses the members above
};

/// Load-generator bookkeeping shared by every workload: how late each
/// paced send went out, and how many client threads and connections the
/// generator used. A run whose generator exceeds nproc, or sends later
/// than the bound at p99, is not a valid measurement.
class LoadGenerator {
 public:
  /// Sleep-paced sends run tens to a few hundred microseconds late; a
  /// generator later than this at p99 is not keeping its schedule.
  static constexpr double kSendLateP99BoundUs = 5000.0;

  /// Adds one phase's sends (due time and lateness in us) as the p99 of
  /// each half-second window of the phase. Only the windows are kept: the
  /// raw samples of a whole run would make peak RSS depend on how many
  /// sends happened to sleep.
  void AddLateness(const std::vector<TimedSample>& late);
  void UseThreads(int threads, int connections);
  /// p99 lateness per half-second window, median over the quiet windows.
  double SendLateP99Us(const HostSteal& host, Report* report) const {
    return host.QuietMedian(late_p99s_, "load.send_late_p99", report);
  }
  /// Checks the bounds and prints the generator facts; fails `report`
  /// when a bound is exceeded. Returns the send-late p99.
  double Validate(const HostSteal& host, Report* report) const;

 private:
  std::vector<Window> late_p99s_;
  uint64_t paced_sends_ = 0;
  int max_threads_ = 0;
  int max_connections_ = 0;
};

/// The blocks of an untraced run. The run alternates its phases in
/// `planned` blocks, so a stretch of host contention lands in a minority of
/// every metric's windows. While host steal leaves fewer than half of the
/// key metric's windows quiet, up to as many blocks again are added, within
/// twice the planned time.
class BlockPlan {
 public:
  BlockPlan(int planned, double planned_seconds)
      : planned_(planned),
        start_ns_(NowNs()),
        limit_ns_(start_ns_ + static_cast<uint64_t>(2e9 * planned_seconds)) {}

  int planned() const { return planned_; }

  /// Whether to run block `done` (0-based), given the key metric's windows
  /// so far.
  bool More(int done, const std::vector<Window>& key,
            const HostSteal& host) const {
    if (done < planned_) return true;
    if (done >= 2 * planned_ || NowNs() >= limit_ns_) return false;
    return 2 * host.CountQuiet(key) < key.size();
  }

 private:
  int planned_;
  uint64_t start_ns_;
  uint64_t limit_ns_;
};

/// Runs `body(i, due_ns)` for i = 0, 1, ... with call i due at
/// origin + i * period, sleeping until each is due. Calls that come due
/// while an earlier one runs go out back to back, still timed from their
/// due time. Stops when the next call would be due at or after `end_ns`. Lateness of each
/// wake-up (the generator's own delay, not the system's) is appended to
/// *late, in us. Returns the number of calls made.
template <typename Fn>
uint64_t PacedLoop(uint64_t origin_ns, double period_ns, uint64_t end_ns,
                   std::vector<TimedSample>* late, Fn&& body) {
  uint64_t i = 0;
  for (;; ++i) {
    const uint64_t due =
        origin_ns + static_cast<uint64_t>(static_cast<double>(i) * period_ns);
    if (due >= end_ns) break;
    if (NowNs() < due) {
      SleepUntilNs(due);
      late->push_back({due, 1e-3 * static_cast<double>(NowNs() - due)});
    }
    body(i, due);
  }
  return i;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
