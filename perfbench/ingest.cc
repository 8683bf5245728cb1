// ingest_wal: a seeded traffic-simulator tick feed sent into an
// IngestService with the WAL on (default group commit), in socket-sized
// chunks, ending with a restart that replays the WAL.
//
// One live service takes the whole feed, so the run creates one WAL and
// deletes it once: creating and deleting WAL files per repetition made the
// file system stall the timed phases. The untraced run alternates unpaced
// blocks (a fixed number of ticks as fast as IngestBytes takes them, timed
// in sub-windows; the ticks/s of the quiet ones together is peak_per_s)
// with blocks at the nominal tick rate (each
// chunk timed from its due time to IngestBytes returning: p50/p99). The
// restart gives recovery_s and must rebuild StreamPipeline state bitwise
// equal to the live service's.
//
// Traced run: one block of each, the restart, and a layer drive that runs a
// feed prefix through TickParser, WalWriter, StreamBuffer and StreamPipeline
// in the order IngestService calls them, with a span around each call. The
// drive's final pipeline state must equal an IngestService's on the same
// prefix.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/ingest/ingest_service.h"
#include "src/ingest/tick_codec.h"
#include "src/ingest/tick_parser.h"
#include "src/ingest/wal.h"
#include "src/sim/road_gen.h"
#include "src/sim/tick_feed.h"
#include "src/sim/traffic_sim.h"
#include "src/stream/stream_buffer.h"
#include "src/stream/stream_pipeline.h"
#include "src/stream/stream_stage.h"

namespace perfbench {
namespace {

using namespace tsdm;

constexpr size_t kSensors = 64;
constexpr int kStepSeconds = 30;
constexpr size_t kChunkBytes = 1024;  // one socket read
/// Nominal offered load: ticks per second, delivered as kChunkBytes chunks.
constexpr double kNominalTicksPerSec = 100000.0;
/// Ticks per unpaced block.
constexpr size_t kUnpacedTicks = 200000;
/// Throughput sub-windows per unpaced block: the unit in which host steal
/// is filtered out.
constexpr size_t kUnpacedWindows = 8;
/// Ticks in the layer drive's feed prefix.
constexpr size_t kDriveTicks = 100000;

struct IngestSetup {
  std::vector<uint8_t> feed;
  std::string wal_root;
};

/// Generates the feed and creates the WAL root directory `wal_root`. The
/// feed holds the planned blocks and a quarter more; a run that adds blocks
/// under host contention stops when it runs out.
IngestSetup BuildSetup(uint64_t seed, int blocks, double nominal_seconds,
                       const std::string& wal_root) {
  IngestSetup s;
  Rng rng(seed);
  GridNetworkSpec gspec;
  RoadNetwork network = GenerateGridNetwork(gspec, &rng);
  TrafficSimulator sim(&network, TrafficSpec{});
  std::vector<int> edges =
      rng.SampleWithoutReplacement(static_cast<int>(network.NumEdges()),
                                   static_cast<int>(kSensors));
  std::sort(edges.begin(), edges.end());
  const double ticks =
      1.25 * (kNominalTicksPerSec * nominal_seconds +
              static_cast<double>(blocks) * static_cast<double>(kUnpacedTicks));
  const int steps = static_cast<int>(std::ceil(ticks / kSensors));
  s.feed = GenerateTrafficTickFeed(sim, edges, steps, kStepSeconds, &rng);
  s.wal_root = wal_root;
  std::filesystem::remove_all(s.wal_root);
  std::filesystem::create_directories(s.wal_root);
  return s;
}

IngestOptions ServiceOptions(const std::string& wal_dir) {
  IngestOptions o;
  o.num_sensors = kSensors;
  o.wal_dir = wal_dir;
  return o;
}

std::vector<uint8_t> PipelineState(const StreamPipeline& pipeline) {
  std::vector<uint8_t> state;
  (void)pipeline.SaveState(&state);
  return state;
}

/// The live service and how far into the feed it has got.
struct LiveFeed {
  std::unique_ptr<IngestService> service;
  size_t next_chunk = 0;
  uint64_t nominal_ticks = 0;  ///< ticks offered at the nominal rate
  uint64_t wal_errors = 0;
  std::vector<Window> rates;  ///< unpaced ticks/s, per sub-window
  std::vector<Window> p50s;   ///< per window, us
  std::vector<Window> p95s;   ///< per window, us
  std::vector<Window> p99s;   ///< per window, us
  std::vector<TimedSample> late;
  uint64_t chunks_timed = 0;

  size_t ChunksLeft(const std::vector<uint8_t>& feed) const {
    return feed.size() / kChunkBytes - next_chunk;
  }
  /// Ticks in the feed up to the chunks delivered so far.
  uint64_t TicksOffered() const {
    return next_chunk * kChunkBytes / kTickFrameSize;
  }
  bool Ingest(const std::vector<uint8_t>& feed, Report* report) {
    Result<size_t> applied = service->IngestBytes(
        feed.data() + next_chunk * kChunkBytes, kChunkBytes);
    ++next_chunk;
    if (applied.ok()) return true;
    ++wal_errors;
    report->Info("ingest error", applied.status().ToString());
    return false;
  }
};

bool StartLive(const std::string& wal_dir, LiveFeed* live, Report* report) {
  std::filesystem::remove_all(wal_dir);
  live->service = std::make_unique<IngestService>(ServiceOptions(wal_dir));
  if (!live->service->Start().ok()) {
    report->Fail("ingest service did not start");
    return false;
  }
  return true;
}

/// Delivers the next kUnpacedTicks of feed as fast as the service takes
/// them and records the ticks/s of each of kUnpacedWindows sub-windows.
void UnpacedBlock(const std::vector<uint8_t>& feed, LiveFeed* live,
                  Report* report) {
  const size_t per_window =
      kUnpacedTicks / kUnpacedWindows * kTickFrameSize / kChunkBytes;
  for (size_t k = 0; k < kUnpacedWindows; ++k) {
    const size_t chunks = std::min(live->ChunksLeft(feed), per_window);
    if (chunks == 0 || live->wal_errors > 0) break;
    const uint64_t before = live->service->pipeline().ticks_processed();
    Window w;
    w.start_ns = NowNs();
    for (size_t i = 0; i < chunks && live->wal_errors == 0; ++i) {
      live->Ingest(feed, report);
    }
    w.end_ns = NowNs();
    const double ticks = static_cast<double>(
        live->service->pipeline().ticks_processed() - before);
    w.value = ticks / (1e-9 * static_cast<double>(w.end_ns - w.start_ns));
    live->rates.push_back(w);
  }
  (void)live->service->Sync();
}

/// Delivers the next `seconds` of feed, one chunk every period, and adds
/// the block's per-window p50 and p99 from each chunk's due time to
/// IngestBytes returning.
void NominalBlock(const std::vector<uint8_t>& feed, double seconds,
                  LiveFeed* live, Report* report) {
  const double ticks_per_chunk =
      static_cast<double>(kChunkBytes) / static_cast<double>(kTickFrameSize);
  const double period_ns = 1e9 * ticks_per_chunk / kNominalTicksPerSec;
  const size_t chunks = std::min<size_t>(
      live->ChunksLeft(feed), static_cast<size_t>(seconds * 1e9 / period_ns));
  std::vector<TimedSample> samples;
  const uint64_t origin = NowNs() + 1000000;
  const uint64_t end_ns =
      origin + static_cast<uint64_t>(static_cast<double>(chunks) * period_ns);
  const uint64_t offered_before = live->TicksOffered();
  PacedLoop(origin, period_ns, end_ns, &live->late, [&](uint64_t, uint64_t due) {
    if (live->wal_errors > 0 || !live->Ingest(feed, report)) return;
    samples.push_back({due, 1e-3 * static_cast<double>(NowNs() - due)});
  });
  live->nominal_ticks += live->TicksOffered() - offered_before;
  live->chunks_timed += samples.size();
  // Windows of 1000 chunks: short enough that the occasional file-system
  // stall of the WAL's mapped pages lands in a minority of them.
  const uint64_t window = static_cast<uint64_t>(1000.0 * period_ns);
  for (const Window& w : WindowPercentiles(samples, origin, window, 900, 0.5)) {
    live->p50s.push_back(w);
  }
  for (const Window& w : WindowPercentiles(samples, origin, window, 900, 0.95)) {
    live->p95s.push_back(w);
  }
  for (const Window& w : WindowPercentiles(samples, origin, window, 900, 0.99)) {
    live->p99s.push_back(w);
  }
}

/// Ticks per second over the quiet sub-windows taken together. A WAL
/// segment rotation costs milliseconds, and a sub-window holds one or two
/// of them, so the sub-windows' rates fall into two groups and their median
/// jumps between the groups from run to run; the pooled rate counts every
/// rotation once.
double PooledRate(const std::vector<Window>& windows, const HostSteal& host,
                  Report* report) {
  const std::vector<Window> quiet = host.Quiet(windows);
  report->Info("quiet windows peak_per_s", std::to_string(quiet.size()) + "/" +
                                               std::to_string(windows.size()));
  double ticks = 0.0;
  double seconds = 0.0;
  for (const Window& w : quiet) {
    const double s = 1e-9 * static_cast<double>(w.end_ns - w.start_ns);
    ticks += w.value * s;
    seconds += s;
  }
  return seconds > 0.0 ? ticks / seconds : 0.0;
}

/// Restarts a fresh service over `wal_dir`; it must recover the live state
/// bitwise. Returns how long Start() took and fills the replay throughput.
double MeasureRecovery(const std::string& wal_dir,
                       const std::vector<uint8_t>& live_state,
                       double* replay_mb_per_s, Report* report) {
  IngestService restarted(ServiceOptions(wal_dir));
  const uint64_t t0 = NowNs();
  Status st = restarted.Start();
  const double seconds = 1e-9 * static_cast<double>(NowNs() - t0);
  if (!st.ok()) {
    report->Fail("restart: " + st.ToString());
    return 0.0;
  }
  const RecoveryReport& rec = restarted.recovery();
  *replay_mb_per_s =
      rec.seconds > 0.0
          ? 1e-6 * static_cast<double>(rec.bytes_scanned) / rec.seconds
          : 0.0;
  if (PipelineState(restarted.pipeline()) != live_state) {
    report->Fail("recovered pipeline state differs from the live service");
  } else {
    report->Info("check recovery", "recovered state bitwise equal");
  }
  (void)restarted.Stop();
  return seconds;
}

/// Layer drive: IngestService's per-tick path spelled out over its public
/// components — parse a chunk, then per tick: WAL append (sync every 256),
/// buffer push, poll, pipeline.
struct DriveResult {
  double wall_s = 0.0;
  uint64_t ticks = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  std::vector<uint8_t> state;
};

DriveResult RunLayerDrive(const std::vector<uint8_t>& bytes,
                          const std::string& wal_dir, SpanLog* log,
                          Report* report) {
  DriveResult res;
  const IngestOptions defaults = ServiceOptions(wal_dir);
  std::filesystem::remove_all(wal_dir);
  TickParser parser(kSensors);
  WalWriter wal(wal_dir, defaults.wal);
  StreamBuffer buffer(kSensors, defaults.buffer_capacity, defaults.drop_policy);
  StreamPipeline pipeline;
  pipeline.Emplace<WelfordStatsStage>();
  pipeline.Emplace<OnlineAnomalyStage>(defaults.anomaly_mode,
                                       defaults.anomaly_threshold,
                                       defaults.anomaly_ew_lambda);
  pipeline.Emplace<OnlineForecastStage>(defaults.holt_alpha, defaults.holt_beta);
  if (!wal.Open().ok() || !pipeline.Reset(kSensors).ok()) {
    report->Fail("layer drive set-up failed");
    return res;
  }
  std::vector<TickMsg> msgs;
  std::vector<uint8_t> payload;
  TickRecord rec;
  uint64_t since_sync = 0;
  bool ok = true;
  const uint64_t t0 = NowNs();
  for (size_t pos = 0; pos < bytes.size() && ok; pos += kChunkBytes) {
    const size_t n = std::min(kChunkBytes, bytes.size() - pos);
    msgs.clear();
    {
      Span span(log, "ingest.parse");
      parser.Consume(bytes.data() + pos, n, &msgs);
    }
    for (const TickMsg& msg : msgs) {
      {
        Span span(log, "ingest.wal_append");
        payload.clear();
        EncodeTickPayload(msg, &payload);
        ok = wal.Append(payload.data(), static_cast<uint32_t>(payload.size()))
                 .ok();
      }
      if (ok && ++since_sync >= defaults.sync_every_ticks) {
        since_sync = 0;
        Span span(log, "ingest.wal_sync");
        ok = wal.Sync().ok();
      }
      {
        Span span(log, "stream.push");
        ok = ok && buffer.Push(msg.ToTick());
      }
      {
        Span span(log, "stream.poll");
        ok = ok && buffer.Poll(&rec.tick);
      }
      {
        Span span(log, "stream.process");
        ok = ok && pipeline.ProcessTick(&rec).ok();
      }
      if (!ok) break;
      ++res.ticks;
    }
  }
  res.wall_s = 1e-9 * static_cast<double>(NowNs() - t0);
  if (!ok) report->Fail("layer drive: a layer call failed");
  res.wal_records = wal.stats().records;
  res.wal_bytes = wal.stats().appended_bytes;
  (void)wal.Close();
  res.state = PipelineState(pipeline);
  std::filesystem::remove_all(wal_dir);
  return res;
}

/// Pipeline state of a fresh IngestService fed `bytes` in chunks: the
/// reference the layer drive is checked against.
std::vector<uint8_t> ServiceState(const std::vector<uint8_t>& bytes,
                                  const std::string& wal_dir, Report* report) {
  std::filesystem::remove_all(wal_dir);
  std::vector<uint8_t> state;
  {
    IngestService service(ServiceOptions(wal_dir));
    if (!service.Start().ok()) {
      report->Fail("reference ingest service did not start");
      return state;
    }
    for (size_t pos = 0; pos < bytes.size(); pos += kChunkBytes) {
      if (!service.IngestBytes(bytes.data() + pos,
                               std::min(kChunkBytes, bytes.size() - pos))
               .ok()) {
        report->Fail("reference ingest failed");
        return state;
      }
    }
    state = PipelineState(service.pipeline());
  }
  std::filesystem::remove_all(wal_dir);
  return state;
}

}  // namespace

int RunIngestWorkload(const RunArgs& args, Report* report, LoadGenerator* load) {
  // The untraced run alternates unpaced and nominal-rate blocks (see
  // BlockPlan); a timed throw-away set-up follows every second block.
  const int blocks = args.trace ? 1 : 8;
  const double nominal_s = (args.trace ? 0.35 : 0.6) * args.seconds;
  report->Info("nominal_rate", std::to_string(kNominalTicksPerSec) +
                                   " ticks/s in " + std::to_string(kChunkBytes) +
                                   " B chunks");
  load->UseThreads(1, 0);
  const HostSteal& host = *args.host;

  const std::string wal_root = args.work_dir + "/wal-" + args.workload;
  auto timed_setup = [&](const std::string& root, IngestSetup* out) {
    Window w;
    w.start_ns = NowNs();
    *out = BuildSetup(args.seed, blocks, nominal_s, root);
    w.end_ns = NowNs();
    w.value = 1e-9 * static_cast<double>(w.end_ns - w.start_ns);
    return w;
  };
  std::vector<Window> setups;
  IngestSetup setup;
  setups.push_back(timed_setup(wal_root, &setup));
  report->Info("feed", std::to_string(setup.feed.size() / kTickFrameSize) +
                           " ticks");

  LiveFeed live;
  if (!StartLive(wal_root + "/live", &live, report)) return 0;
  const BlockPlan plan(blocks, 0.75 * args.seconds);
  int b = 0;
  for (; plan.More(b, live.p99s, host) && live.ChunksLeft(setup.feed) > 0;
       ++b) {
    UnpacedBlock(setup.feed, &live, report);
    NominalBlock(setup.feed, nominal_s / blocks, &live, report);
    if (!args.trace && b % 2 == 1) {
      IngestSetup scratch;
      setups.push_back(timed_setup(wal_root + "-setup", &scratch));
    }
  }
  std::filesystem::remove_all(wal_root + "-setup");
  report->Info("blocks", std::to_string(b));
  report->Set("setup_s", host.QuietMedian(setups, "setup_s", report));
  const double per_s = PooledRate(live.rates, host, report);
  report->Set("peak_per_s", per_s);
  report->Figure("ticks_per_s", per_s, "1/s");

  load->AddLateness(live.late);
  report->Set("p50_us", host.QuietMedian(live.p50s, "p50_us", report));
  report->Figure("p95_us", host.QuietMedian(live.p95s, "p95_us", report), "us");
  report->Figure("p99_us", host.QuietMedian(live.p99s, "p99_us", report), "us");
  report->Info("latency samples", std::to_string(live.chunks_timed) +
                                      " chunks in " +
                                      std::to_string(live.p99s.size()) +
                                      " windows");
  const uint64_t offered = live.TicksOffered();
  const uint64_t processed = live.service->pipeline().ticks_processed();
  const uint64_t rejected = live.service->parser().stats().RejectedTotal();
  const uint64_t lost = live.wal_errors > 0 ? offered - processed : 0;
  report->Attempted(live.nominal_ticks, rejected + lost);
  report->ErrorReason("rejected_frames", rejected);
  report->ErrorReason("wal_errors", live.wal_errors);
  report->Figure("error_rate",
                 live.nominal_ticks == 0
                     ? 0.0
                     : static_cast<double>(rejected + lost) / live.nominal_ticks,
                 "ratio");
  if (processed + rejected + lost != offered) {
    report->Fail("ticks processed + failed != ticks offered");
  }

  // Restart: replay the live service's WAL.
  const std::vector<uint8_t> live_state = PipelineState(live.service->pipeline());
  (void)live.service->Stop();
  double replay_mb_per_s = 0.0;
  const double recovery_s = MeasureRecovery(wal_root + "/live", live_state,
                                            &replay_mb_per_s, report);
  report->Figure("recovery_s", recovery_s, "s");

  if (args.trace) {
    const std::vector<uint8_t> prefix(
        setup.feed.begin(),
        setup.feed.begin() +
            static_cast<long>(std::min(setup.feed.size(),
                                       kDriveTicks * kTickFrameSize)));
    const std::vector<uint8_t> service_state =
        ServiceState(prefix, wal_root + "/reference", report);
    SpanLog off(false, 0);
    DriveResult untraced =
        RunLayerDrive(prefix, wal_root + "/drive", &off, report);
    SpanLog log(true, 200000);
    DriveResult traced =
        RunLayerDrive(prefix, wal_root + "/drive", &log, report);
    const bool equal =
        traced.state == service_state && untraced.state == service_state;
    report->Info("check layer drive", equal ? "pipeline state bitwise equal to "
                                              "IngestService on the same feed"
                                            : "state differs");
    if (!equal) report->Fail("layer drive state differs from IngestService");
    const std::string spans_path =
        args.work_dir + "/spans-" + args.workload + ".csv";
    if (log.WriteCsv(spans_path)) report->Info("spans", spans_path);

    const double ticks = static_cast<double>(std::max<uint64_t>(1, traced.ticks));
    report->Set("ingest.parse_ns_per_tick",
                static_cast<double>(log.Totals("ingest.parse").total_ns) / ticks);
    report->Set("ingest.wal_append_ns_per_tick",
                log.Totals("ingest.wal_append").MeanNs());
    report->Set("ingest.wal_sync_us", 1e-3 * log.Totals("ingest.wal_sync").MeanNs());
    report->Set("ingest.wal_bytes_per_tick",
                traced.wal_records == 0
                    ? 0.0
                    : static_cast<double>(traced.wal_bytes) / traced.wal_records);
    report->Set("ingest.replay_mb_per_s", replay_mb_per_s);
    report->Set("ingest.rejected_frames", static_cast<double>(rejected));
    report->Set("stream.process_ns_per_tick",
                log.Totals("stream.process").MeanNs());
    report->Set("stream.push_ns", log.Totals("stream.push").MeanNs());
    report->Set("stream.poll_ns", log.Totals("stream.poll").MeanNs());
    report->Set("bench.trace_overhead_pct",
                untraced.wall_s > 0.0
                    ? 100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s
                    : 0.0);
  }
  std::filesystem::remove_all(wal_root);
  return 0;
}

}  // namespace perfbench
