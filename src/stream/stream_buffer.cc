#include "src/stream/stream_buffer.h"

namespace tsdm {

namespace {

// Increments a counter only its ring's lock holder writes: a load and a
// store, not a locked read-modify-write.
void Bump(std::atomic<uint64_t>* counter) {
  counter->store(counter->load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
}

}  // namespace

StreamBuffer::StreamBuffer(size_t num_sensors, size_t capacity,
                           DropPolicy policy)
    : rings_(num_sensors),
      capacity_(capacity == 0 ? 1 : capacity),
      policy_(policy) {
  for (Ring& ring : rings_) {
    ring.timestamps.resize(capacity_);
    ring.values.resize(capacity_);
  }
}

bool StreamBuffer::Push(const Tick& tick) {
  if (tick.sensor >= rings_.size()) return false;
  Ring& ring = rings_[tick.sensor];
  std::lock_guard<std::mutex> lock(ring.mu);
  if (ring.unconsumed == capacity_) {
    Bump(&ring.dropped);
    if (policy_ == DropPolicy::kDropNewest) return false;
    // kDropOldest: evict the oldest unconsumed tick; the slot it occupied
    // is reclaimed by the write below once head wraps onto it.
    --ring.unconsumed;
  }
  ring.timestamps[ring.head] = tick.timestamp;
  ring.values[ring.head] = tick.value;
  ring.head = (ring.head + 1) % capacity_;
  if (ring.fill < capacity_) ++ring.fill;
  ++ring.unconsumed;
  Bump(&ring.accepted);
  return true;
}

bool StreamBuffer::Poll(Tick* out) {
  size_t n = rings_.size();
  if (n == 0) return false;
  size_t start = poll_cursor_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    size_t s = (start + i) % n;
    Ring& ring = rings_[s];
    std::lock_guard<std::mutex> lock(ring.mu);
    if (ring.unconsumed == 0) continue;
    size_t idx = (ring.head + capacity_ - ring.unconsumed) % capacity_;
    out->sensor = s;
    out->timestamp = ring.timestamps[idx];
    out->value = ring.values[idx];
    --ring.unconsumed;
    poll_cursor_.store((s + 1) % n, std::memory_order_relaxed);
    return true;
  }
  return false;
}

uint64_t StreamBuffer::accepted() const {
  uint64_t total = 0;
  for (const Ring& ring : rings_) {
    total += ring.accepted.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t StreamBuffer::dropped() const {
  uint64_t total = 0;
  for (const Ring& ring : rings_) {
    total += ring.dropped.load(std::memory_order_relaxed);
  }
  return total;
}

size_t StreamBuffer::NumUnconsumed() const {
  size_t total = 0;
  for (const Ring& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring.mu);
    total += ring.unconsumed;
  }
  return total;
}

size_t StreamBuffer::SensorFill(size_t s) const {
  if (s >= rings_.size()) return 0;
  std::lock_guard<std::mutex> lock(rings_[s].mu);
  return rings_[s].fill;
}

void StreamBuffer::SnapshotSensor(size_t s, std::vector<double>* values,
                                  std::vector<int64_t>* timestamps) const {
  values->clear();
  if (timestamps != nullptr) timestamps->clear();
  if (s >= rings_.size()) return;
  const Ring& ring = rings_[s];
  std::lock_guard<std::mutex> lock(ring.mu);
  values->reserve(ring.fill);
  if (timestamps != nullptr) timestamps->reserve(ring.fill);
  size_t oldest = (ring.head + capacity_ - ring.fill) % capacity_;
  for (size_t i = 0; i < ring.fill; ++i) {
    size_t idx = (oldest + i) % capacity_;
    values->push_back(ring.values[idx]);
    if (timestamps != nullptr) timestamps->push_back(ring.timestamps[idx]);
  }
}

}  // namespace tsdm
