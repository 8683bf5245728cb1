#include "src/serve/request_queue.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/bytes.h"
#include "src/obs/trace.h"
#include "src/serve/query_service.h"

namespace tsdm {

namespace {

/// Fires a request's callback with a shed/drain answer and closes the
/// request's trace tree with a terminal `serve/shed` span (arg = status
/// code, tenant attribute attached), so an admitted-then-shed request is
/// visible in the trace instead of just vanishing. The lock must NOT be
/// held: callbacks are user code.
void AnswerShed(const ServeRequest& req, Status status) {
  const uint64_t now_ns = TraceRecorder::NowNs();
  TraceRecorder::Global().RecordSpan("serve/shed", req.enqueue_ns, now_ns,
                                     req.trace,
                                     static_cast<int64_t>(status.code()),
                                     req.tenant);
  RouteAnswer answer = AnswerUnserved(
      std::move(status), req.trace.request_id, req.shard,
      req.client_request_id, req.tenant,
      now_ns >= req.enqueue_ns ? now_ns - req.enqueue_ns : 0,
      req.kind == RequestKind::kRoute);
  if (req.on_done) req.on_done(answer);
}

bool Expired(const ServeRequest& req, uint64_t now_ns) {
  if (req.queue_budget_seconds <= 0.0) return false;
  return static_cast<double>(now_ns - req.enqueue_ns) >
         req.queue_budget_seconds * 1e9;
}

int ClampPriority(int priority) {
  return std::clamp(priority, 0, RequestQueue::kPriorityClasses - 1);
}

}  // namespace

void PutRouteQueryFields(const RouteQuery& query, std::vector<uint8_t>* out) {
  PutU32(out, static_cast<uint32_t>(query.source));
  PutU32(out, static_cast<uint32_t>(query.target));
  PutU32(out, static_cast<uint32_t>(query.k));
  PutU32(out, 0);  // reserved
  PutF64(out, query.depart_seconds);
  PutF64(out, query.arrival_deadline_seconds);
}

void GetRouteQueryFields(const uint8_t* p, RouteQuery* out) {
  out->source = static_cast<int>(GetU32(p));
  out->target = static_cast<int>(GetU32(p + 4));
  out->k = static_cast<int>(GetU32(p + 8));
  out->depart_seconds = GetF64(p + 16);
  out->arrival_deadline_seconds = GetF64(p + 24);
}

RequestQueue::RequestQueue(Options options) : options_(std::move(options)) {
  options_.capacity = std::max<size_t>(1, options_.capacity);
  options_.drr_quantum = std::max(1e-6, options_.drr_quantum);
  for (auto& [name, cls] : options_.tenants) {
    (void)name;
    cls.weight = std::max(1e-6, cls.weight);
  }
}

RequestQueue::Tenant* RequestQueue::TenantFor(const std::string& name) {
  auto it = tenant_index_.find(name);
  if (it != tenant_index_.end()) return tenants_[it->second].get();
  auto tenant = std::make_unique<Tenant>();
  tenant->name = name;
  auto cls = options_.tenants.find(name);
  tenant->cls = cls != options_.tenants.end() ? cls->second : TenantClass{};
  tenant_index_[name] = tenants_.size();
  tenants_.push_back(std::move(tenant));
  return tenants_.back().get();
}

ServeRequest RequestQueue::PopHighest(Tenant* t) {
  for (int c = kPriorityClasses - 1; c >= 0; --c) {
    if (t->buckets[c].empty()) continue;
    ServeRequest req = std::move(t->buckets[c].front());
    t->buckets[c].pop_front();
    --t->stats.depth;
    --class_depth_[c];
    --total_depth_;
    return req;
  }
  // Unreachable while the depth bookkeeping is consistent.
  return ServeRequest{};
}

Status RequestQueue::Push(ServeRequest&& req) {
  req.priority = ClampPriority(req.priority);
  if (req.tenant.empty()) req.tenant = kDefaultTenant;
  ServeRequest victim;
  bool have_victim = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Tenant* tenant = TenantFor(req.tenant);
    ++stats_.submitted;
    ++tenant->stats.submitted;
    if (closed_) {
      ++stats_.shed_closed;
      ++tenant->stats.shed_closed;
      return Status::FailedPrecondition("serve: queue closed");
    }
    if (tenant->cls.quota > 0 && tenant->stats.depth >= tenant->cls.quota) {
      ++stats_.shed_capacity;
      ++tenant->stats.shed_capacity;
      return Status::ResourceExhausted("serve: tenant '" + req.tenant +
                                       "' at quota");
    }
    if (total_depth_ >= options_.capacity) {
      // Overload: shed lowest priority first. If a strictly lower class
      // than the arrival has queued work, displace its newest request (the
      // one with the least sunk waiting time) from the deepest tenant —
      // the hog pays first. Otherwise the arrival itself is shed.
      int victim_class = -1;
      for (int c = 0; c < req.priority; ++c) {
        if (class_depth_[c] > 0) {
          victim_class = c;
          break;
        }
      }
      if (victim_class < 0) {
        ++stats_.shed_capacity;
        ++tenant->stats.shed_capacity;
        return Status::ResourceExhausted("serve: request queue at capacity");
      }
      Tenant* deepest = nullptr;
      for (auto& t : tenants_) {
        if (t->buckets[victim_class].empty()) continue;
        if (deepest == nullptr || t->stats.depth > deepest->stats.depth) {
          deepest = t.get();
        }
      }
      victim = std::move(deepest->buckets[victim_class].back());
      deepest->buckets[victim_class].pop_back();
      --deepest->stats.depth;
      --class_depth_[victim_class];
      --total_depth_;
      ++stats_.shed_evicted;
      ++deepest->stats.shed_evicted;
      have_victim = true;
    }
    const int cls = req.priority;
    tenant->buckets[cls].push_back(std::move(req));
    ++tenant->stats.depth;
    ++class_depth_[cls];
    ++total_depth_;
    ++stats_.admitted;
    ++tenant->stats.admitted;
  }
  available_.notify_one();
  if (have_victim) {
    AnswerShed(victim,
               Status::ResourceExhausted(
                   "serve: displaced by a higher-priority request"));
  }
  return Status::OK();
}

size_t RequestQueue::PopBatch(uint64_t now_ns, size_t max_n,
                              std::vector<ServeRequest>* out) {
  std::vector<ServeRequest> expired;
  size_t delivered = 0;
  const size_t first_new = out->size();
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Deficit round-robin: each sweep credits every backlogged tenant
    // quantum * weight and drains while its deficit covers unit-cost pops.
    // Sweeps repeat until the request budget or the backlog is exhausted —
    // deficits strictly grow for backlogged tenants each sweep, so the
    // loop always progresses.
    while (delivered < max_n && total_depth_ > 0) {
      const size_t n = tenants_.size();
      for (size_t i = 0; i < n && delivered < max_n && total_depth_ > 0;
           ++i) {
        Tenant& t = *tenants_[(rr_start_ + i) % n];
        if (t.stats.depth == 0) {
          t.deficit = 0.0;
          continue;
        }
        t.deficit = std::min(t.deficit + options_.drr_quantum * t.cls.weight,
                             options_.drr_quantum * t.cls.weight +
                                 static_cast<double>(t.stats.depth));
        while (t.deficit >= 1.0 && t.stats.depth > 0 && delivered < max_n) {
          ServeRequest req = PopHighest(&t);
          // `now_ns` is sampled before the lock is taken, so a request
          // admitted in between carries a later enqueue stamp. Clamp to it
          // so the unsigned age cannot wrap and the wait is never negative.
          const uint64_t pop_ns = std::max(now_ns, req.enqueue_ns);
          if (Expired(req, pop_ns)) {
            // Expiry consumes no deficit: the tenant should not lose its
            // turn to requests nobody will be answered for.
            ++stats_.shed_expired;
            ++t.stats.shed_expired;
            expired.push_back(std::move(req));
            continue;
          }
          t.deficit -= 1.0;
          ++t.stats.popped;
          req.dequeue_ns = pop_ns;
          out->push_back(std::move(req));
          ++delivered;
        }
      }
      if (n > 0) rr_start_ = (rr_start_ + 1) % n;
    }
  }
  // Each delivered request's queue wait is over: record it retrospectively
  // as a child of the request's submit span (outside the lock — span
  // recording may flush to the trace ring).
  for (size_t i = first_new; i < out->size(); ++i) {
    const ServeRequest& req = (*out)[i];
    TraceRecorder::Global().RecordSpan("serve/queue_wait", req.enqueue_ns,
                                       req.dequeue_ns, req.trace,
                                       static_cast<int64_t>(req.id),
                                       req.tenant);
  }
  for (const auto& req : expired) {
    AnswerShed(req, Status::ResourceExhausted(
                        "serve: queueing budget exceeded, request shed"));
  }
  return delivered;
}

bool RequestQueue::WaitForWork(double timeout_seconds) const {
  std::unique_lock<std::mutex> lock(mu_);
  available_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                      [this] { return closed_ || total_depth_ > 0; });
  return total_depth_ > 0;
}

void RequestQueue::Close() {
  std::vector<ServeRequest> drained;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) return;
    closed_ = true;
    for (auto& t : tenants_) {
      for (int c = kPriorityClasses - 1; c >= 0; --c) {
        for (auto& req : t->buckets[c]) {
          ++stats_.shed_closed;
          ++t->stats.shed_closed;
          drained.push_back(std::move(req));
        }
        t->buckets[c].clear();
      }
      t->stats.depth = 0;
      t->deficit = 0.0;
    }
    class_depth_.fill(0);
    total_depth_ = 0;
  }
  available_.notify_all();
  for (const auto& req : drained) {
    AnswerShed(req, Status::FailedPrecondition("serve: queue closed"));
  }
}

bool RequestQueue::closed() const {
  std::unique_lock<std::mutex> lock(mu_);
  return closed_;
}

bool RequestQueue::Full() const {
  std::unique_lock<std::mutex> lock(mu_);
  return total_depth_ >= options_.capacity;
}

RequestQueue::Stats RequestQueue::GetStats() const {
  std::unique_lock<std::mutex> lock(mu_);
  Stats out = stats_;
  out.depth = total_depth_;
  out.tenants.reserve(tenant_index_.size());
  for (const auto& [name, slot] : tenant_index_) {
    out.tenants.emplace_back(name, tenants_[slot]->stats);
  }
  return out;
}

}  // namespace tsdm
