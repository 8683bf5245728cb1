#include "src/serve/path_cost_cache.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace tsdm {

PathCostCache::PathCostCache(Options options) : options_(options) {
  const size_t shards = static_cast<size_t>(std::max(1, options.shards));
  options_.shards = static_cast<int>(shards);
  const size_t per_shard = std::max<size_t>(1, options_.capacity / shards);
  for (size_t i = 0; i < shards; ++i) shards_.emplace_back(per_shard);
}

bool PathCostCache::Lookup(const std::vector<int>& subpath, int bucket,
                           Histogram* out) {
  Key key{subpath, bucket};
  Shard& shard = shards_[ShardIndex(key)];
  std::unique_lock<std::mutex> lock(shard.mu);
  const Histogram* hit = shard.lru.Get(key);
  if (hit == nullptr) {
    ++shard.misses;
    return false;
  }
  ++shard.hits;
  *out = *hit;
  return true;
}

void PathCostCache::Insert(const std::vector<int>& subpath, int bucket,
                           Histogram dist) {
  Key key{subpath, bucket};
  Shard& shard = shards_[ShardIndex(key)];
  std::unique_lock<std::mutex> lock(shard.mu);
  shard.evictions += shard.lru.Put(std::move(key), std::move(dist));
}

void PathCostCache::Clear() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard.mu);
    shard.lru.clear();
  }
}

PathCostCache::Stats PathCostCache::GetStats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.size += shard.lru.size();
  }
  return stats;
}

std::vector<size_t> PathCostCache::ShardSizes() const {
  std::vector<size_t> sizes;
  sizes.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard.mu);
    sizes.push_back(shard.lru.size());
  }
  return sizes;
}

CachedPathCostModel::CachedPathCostModel(PathCostModel base,
                                         PathCostCache* cache,
                                         Options options)
    : base_(std::move(base)), cache_(cache), options_(options) {
  options_.segment_edges = std::max(1, options_.segment_edges);
}

Result<Histogram> CachedPathCostModel::Query(const std::vector<int>& edge_path,
                                             double depart_seconds,
                                             const TraceContext& ctx) const {
  // Recorded retrospectively at the end so the span's arg can carry the
  // miss count this query actually saw (a TraceSpan's arg is fixed at
  // construction). An empty path records none.
  const uint64_t start_ns =
      TraceRecorder::Enabled() ? TraceRecorder::NowNs() : 0;
  const std::vector<std::vector<int>> segments =
      SplitSegments(edge_path, options_.segment_edges);
  const int bucket = cache_->BucketFor(depart_seconds);
  int64_t misses = 0;
  Result<Histogram> total = FoldSegments(
      segments.size(),
      [&](size_t i) {
        bool from_cache = false;
        Result<Histogram> dist = SegmentCost(segments[i], bucket, &from_cache);
        if (!from_cache) ++misses;
        return dist;
      },
      options_.result_bins);
  if (start_ns != 0 && !segments.empty()) {
    TraceRecorder::Global().RecordSpan("serve/path_cost", start_ns,
                                       TraceRecorder::NowNs(), ctx, misses);
  }
  return total;
}

std::vector<std::vector<int>> CachedPathCostModel::SplitSegments(
    const std::vector<int>& edge_path, int segment_edges) {
  const size_t seg = static_cast<size_t>(std::max(1, segment_edges));
  std::vector<std::vector<int>> segments;
  segments.reserve((edge_path.size() + seg - 1) / seg);
  for (size_t start = 0; start < edge_path.size(); start += seg) {
    const size_t end = std::min(edge_path.size(), start + seg);
    segments.emplace_back(edge_path.begin() + static_cast<long>(start),
                          edge_path.begin() + static_cast<long>(end));
  }
  return segments;
}

Result<Histogram> CachedPathCostModel::SegmentCost(
    const std::vector<int>& segment, int bucket, bool* from_cache) const {
  Histogram dist;
  if (cache_->Lookup(segment, bucket, &dist)) {
    if (from_cache != nullptr) *from_cache = true;
    return dist;
  }
  if (from_cache != nullptr) *from_cache = false;
  Result<Histogram> computed = base_(segment, cache_->BucketTime(bucket));
  if (!computed.ok()) return computed.status();
  Histogram d = std::move(computed).value();
  cache_->Insert(segment, bucket, d);
  return d;
}

Histogram CachedPathCostModel::ComposeSegments(std::vector<Histogram> segments,
                                               int result_bins) {
  Histogram total = std::move(segments.front());
  for (size_t i = 1; i < segments.size(); ++i) {
    total = total.Convolve(segments[i], result_bins);
  }
  return total;
}

}  // namespace tsdm
