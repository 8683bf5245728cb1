// The three perfbench workloads. Each sets itself up (five times; the
// median set-up time is setup_s), measures for RunArgs::seconds, checks its
// outputs, and records metrics into the report. A non-zero return means the
// workload could not run at all.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/common.h"

namespace perfbench {

/// route_cold.
int RunRouteWorkload(const RunArgs& args, Report* report, LoadGenerator* load);
/// ingest_wal.
int RunIngestWorkload(const RunArgs& args, Report* report, LoadGenerator* load);
/// stream_fanin.
int RunStreamWorkload(const RunArgs& args, Report* report, LoadGenerator* load);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
