#include "src/load/load_trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/common/bytes.h"

namespace tsdm {

void EncodeLoadTraceHeader(std::vector<uint8_t>* out) {
  out->insert(out->end(), kLoadTraceFileMagic, kLoadTraceFileMagic + 4);
  PutU32(out, kLoadTraceVersion);
}

void EncodeLoadTraceRecord(const TimedQuery& q, std::vector<uint8_t>* out) {
  const size_t tenant_len = std::min<size_t>(q.tenant.size(), 255);
  const size_t start = LoadTraceFormat::Begin(out);
  PutF64(out, q.at_seconds);
  PutU8(out, static_cast<uint8_t>(std::clamp(q.priority, 0, 255)));
  PutU8(out, static_cast<uint8_t>(tenant_len));
  out->insert(out->end(), q.tenant.begin(),
              q.tenant.begin() + static_cast<long>(tenant_len));
  PutU32(out, static_cast<uint32_t>(q.query.source));
  PutU32(out, static_cast<uint32_t>(q.query.target));
  PutU32(out, static_cast<uint32_t>(q.query.k));
  PutU32(out, static_cast<uint32_t>(q.query.snapshot_id));
  PutF64(out, q.query.depart_seconds);
  PutF64(out, q.query.arrival_deadline_seconds);
  LoadTraceFormat::End(start, out);
}

FrameVerdict<LoadTraceParserStats> LoadTraceSpec::Decode(
    const uint8_t* p, size_t size, LoadTraceParserStats*,
    std::vector<TimedQuery>* out) {
  // The length window guarantees the fixed fields are present; the tenant
  // length must account for exactly the rest.
  const size_t tenant_len = p[9];
  if (size != kLoadTraceFixedPayload + tenant_len) {
    return {&Stats::rejected_bad_payload,
            Status::InvalidArgument("load trace: malformed record payload")};
  }
  TimedQuery& q = out->emplace_back();
  q.at_seconds = GetF64(p);
  q.priority = p[8];
  q.tenant.assign(reinterpret_cast<const char*>(p + 10), tenant_len);
  const uint8_t* f = p + 10 + tenant_len;
  q.query.source = static_cast<int>(GetU32(f));
  q.query.target = static_cast<int>(GetU32(f + 4));
  q.query.k = static_cast<int>(GetU32(f + 8));
  q.query.snapshot_id = static_cast<int>(GetU32(f + 12));
  q.query.depart_seconds = GetF64(f + 16);
  q.query.arrival_deadline_seconds = GetF64(f + 24);
  return {};
}

Status WriteTraceFile(const std::string& path,
                      const std::vector<TimedQuery>& queries) {
  std::vector<uint8_t> bytes;
  bytes.reserve(kLoadTraceHeaderSize + queries.size() * 64);
  EncodeLoadTraceHeader(&bytes);
  for (const TimedQuery& q : queries) EncodeLoadTraceRecord(q, &bytes);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("load trace: cannot open " + path +
                            " for writing");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const int close_rc = std::fclose(f);
  if (written != bytes.size() || close_rc != 0) {
    return Status::Internal("load trace: short write to " + path);
  }
  return Status::OK();
}

Result<std::vector<TimedQuery>> ReadTraceFile(const std::string& path,
                                              LoadTraceParserStats* stats) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("load trace: cannot open " + path);
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  if (bytes.size() < kLoadTraceHeaderSize ||
      std::memcmp(bytes.data(), kLoadTraceFileMagic, 4) != 0) {
    return Status::InvalidArgument("load trace: " + path +
                                   " is not a TSWT trace file");
  }
  const uint32_t version = GetU32(bytes.data() + 4);
  if (version != kLoadTraceVersion) {
    return Status::InvalidArgument("load trace: unsupported version " +
                                   std::to_string(version));
  }
  LoadTraceParser parser;
  std::vector<TimedQuery> out;
  parser.Consume(bytes.data() + kLoadTraceHeaderSize,
                 bytes.size() - kLoadTraceHeaderSize, &out);
  if (stats != nullptr) *stats = parser.stats();
  return out;
}

std::function<void(const RouteQuery&, const SubmitOptions&, uint64_t)>
LoadTraceRecorder::Observer() {
  return [this](const RouteQuery& query, const SubmitOptions& options,
                uint64_t enqueue_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!have_first_) {
      first_ns_ = enqueue_ns;
      have_first_ = true;
    }
    TimedQuery q;
    q.at_seconds = enqueue_ns >= first_ns_
                       ? 1e-9 * static_cast<double>(enqueue_ns - first_ns_)
                       : 0.0;
    q.tenant = options.tenant_id;
    q.priority = options.priority;
    q.query = query;
    recorded_.push_back(std::move(q));
  };
}

std::vector<TimedQuery> LoadTraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

Status LoadTraceRecorder::WriteTo(const std::string& path) const {
  return WriteTraceFile(path, Snapshot());
}

}  // namespace tsdm
