#include "src/load/replayer.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <thread>
#include <utility>

#include "src/obs/trace.h"

namespace tsdm {

namespace {

/// Shared completion state for one in-process replay run: answer slots in
/// trace order plus the countdown the replayer blocks on. Callbacks run on
/// worker and producer threads, so everything lives under one mutex.
struct ReplayState {
  std::mutex mu;
  std::condition_variable done_cv;
  uint64_t outstanding = 0;
  uint64_t answered_ok = 0;
  uint64_t answered_error = 0;
  std::map<std::string, std::pair<uint64_t, uint64_t>> tenant_answered;
  bool collect = false;
  std::vector<RouteAnswer> answers;
};

void SleepUntilDue(double at_seconds, double speed, uint64_t start_ns) {
  if (speed <= 0.0) return;  // as-fast-as-possible mode
  // Open-loop pacing: sleep until the query's scheduled offset. Never
  // sleeps on answers — a system falling behind keeps receiving load.
  const double due_s = at_seconds / speed;
  const double elapsed_s =
      1e-9 * static_cast<double>(TraceRecorder::NowNs() - start_ns);
  if (due_s > elapsed_s) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(due_s - elapsed_s));
  }
}

}  // namespace

Result<TraceReplayer::Report> TraceReplayer::Replay(
    const std::vector<TimedQuery>& trace, QueryService* service) {
  if (service == nullptr) {
    return Status::InvalidArgument("replay: null service");
  }
  Report report;
  auto state = std::make_shared<ReplayState>();
  state->collect = options_.collect_answers;
  if (state->collect) state->answers.resize(trace.size());

  const uint64_t start_ns = TraceRecorder::NowNs();
  for (size_t i = 0; i < trace.size(); ++i) {
    const TimedQuery& q = trace[i];
    SleepUntilDue(q.at_seconds, options_.speed, start_ns);
    const std::string tenant = TenantOrDefault(q.tenant);
    ++report.offered;
    ++report.tenants[tenant].offered;

    SubmitOptions submit;
    submit.queue_budget_seconds = options_.queue_budget_seconds;
    submit.priority = q.priority;
    submit.tenant_id = q.tenant;
    submit.client_request_id = static_cast<uint64_t>(i) + 1;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      ++state->outstanding;
    }
    Status st = service->Submit(
        q.query,
        [state, i, tenant](const RouteAnswer& answer) {
          std::lock_guard<std::mutex> lock(state->mu);
          if (state->collect) state->answers[i] = answer;
          auto& [ok, err] = state->tenant_answered[tenant];
          if (answer.status.ok()) {
            ++state->answered_ok;
            ++ok;
          } else {
            ++state->answered_error;
            ++err;
          }
          if (--state->outstanding == 0) state->done_cv.notify_all();
        },
        submit);
    if (st.ok()) {
      ++report.accepted;
      ++report.tenants[tenant].accepted;
    } else {
      // Front-door rejection: the callback was not retained; fill the
      // answer slot here so the answer set still covers the whole trace.
      ++report.rejected;
      ++report.tenants[tenant].rejected;
      std::lock_guard<std::mutex> lock(state->mu);
      --state->outstanding;
      if (state->collect) {
        state->answers[i].status = st;
        state->answers[i].client_request_id = submit.client_request_id;
        state->answers[i].tenant_id = tenant;
      }
    }
  }

  // Drain: every accepted request answers exactly once.
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] { return state->outstanding == 0; });
  }
  report.wall_seconds =
      1e-9 * static_cast<double>(TraceRecorder::NowNs() - start_ns);
  report.answered_ok = state->answered_ok;
  report.answered_error = state->answered_error;
  for (const auto& [tenant, counts] : state->tenant_answered) {
    report.tenants[tenant].answered_ok = counts.first;
    report.tenants[tenant].answered_error = counts.second;
  }
  if (state->collect) report.answers = std::move(state->answers);
  return report;
}

}  // namespace tsdm
