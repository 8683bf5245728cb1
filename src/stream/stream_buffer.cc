#include "src/stream/stream_buffer.h"

#include <algorithm>

namespace tsdm {

namespace {

// Increments a counter only its ring's lock holder writes: a load and a
// store, not a locked read-modify-write.
void Bump(std::atomic<uint64_t>* counter) {
  counter->store(counter->load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
}

// Spin iterations before a contended locker parks. A ring's critical
// section is a handful of loads and stores, so a holder that is running
// releases well within this; one that was preempted is waited out parked.
constexpr int kSpinIterations = 128;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Holds a ring's lock word for its scope: the three-state futex mutex of
// Drepper's "Futexes Are Tricky" (0 free, 1 held, 2 held with waiters),
// with a bounded spin before parking. Unlock wakes a waiter only when the
// word says one may be parked.
class RingLock {
 public:
  explicit RingLock(std::atomic<uint32_t>& word) : word_(word) {
    uint32_t state = 0;
    if (word_.compare_exchange_strong(state, 1, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      return;
    }
    for (int i = 0; i < kSpinIterations; ++i) {
      CpuRelax();
      state = word_.load(std::memory_order_relaxed);
      if (state == 0 &&
          word_.compare_exchange_weak(state, 1, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
    // Park. Taking the word as 2 keeps the next unlock waking a waiter,
    // since others may still be parked behind this one.
    if (state != 2) state = word_.exchange(2, std::memory_order_acquire);
    while (state != 0) {
      word_.wait(2, std::memory_order_relaxed);
      state = word_.exchange(2, std::memory_order_acquire);
    }
  }

  ~RingLock() {
    if (word_.exchange(0, std::memory_order_release) == 2) word_.notify_one();
  }

  RingLock(const RingLock&) = delete;
  RingLock& operator=(const RingLock&) = delete;

 private:
  std::atomic<uint32_t>& word_;
};

}  // namespace

StreamBuffer::StreamBuffer(size_t num_sensors, size_t capacity,
                           DropPolicy policy)
    : rings_(num_sensors),
      capacity_(capacity == 0 ? 1 : capacity),
      policy_(policy) {
  slots_.resize(num_sensors * capacity_);
  for (size_t s = 0; s < num_sensors; ++s) {
    rings_[s].slots = slots_.data() + s * capacity_;
  }
}

bool StreamBuffer::Push(const Tick& tick) {
  if (tick.sensor >= rings_.size()) return false;
  Ring& ring = rings_[tick.sensor];
  RingLock lock(ring.lock);
  if (ring.unconsumed == capacity_) {
    Bump(&ring.dropped);
    if (policy_ == DropPolicy::kDropNewest) return false;
    // kDropOldest: evict the oldest unconsumed tick; the slot it occupied
    // is reclaimed by the write below once head wraps onto it.
    --ring.unconsumed;
  }
  ring.slots[ring.head] = Slot{tick.timestamp, tick.value};
  if (++ring.head == capacity_) ring.head = 0;
  ++ring.unconsumed;
  Bump(&ring.accepted);
  return true;
}

bool StreamBuffer::Poll(Tick* out) {
  const size_t n = rings_.size();
  size_t s = poll_cursor_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i, s = s + 1 == n ? 0 : s + 1) {
    Ring& ring = rings_[s];
    RingLock lock(ring.lock);
    if (ring.unconsumed == 0) continue;
    const size_t idx = ring.head >= ring.unconsumed
                           ? ring.head - ring.unconsumed
                           : ring.head + capacity_ - ring.unconsumed;
    out->sensor = s;
    out->timestamp = ring.slots[idx].timestamp;
    out->value = ring.slots[idx].value;
    --ring.unconsumed;
    poll_cursor_.store(s + 1 == n ? 0 : s + 1, std::memory_order_relaxed);
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
    RingLock lock(ring.lock);
    total += ring.unconsumed;
  }
  return total;
}

size_t StreamBuffer::SensorFill(size_t s) const {
  if (s >= rings_.size()) return 0;
  return static_cast<size_t>(std::min<uint64_t>(
      rings_[s].accepted.load(std::memory_order_relaxed), capacity_));
}

void StreamBuffer::SnapshotSensor(size_t s, std::vector<double>* values,
                                  std::vector<int64_t>* timestamps) const {
  values->clear();
  if (timestamps != nullptr) timestamps->clear();
  if (s >= rings_.size()) return;
  // Reserved before the lock, so the copy below never allocates while
  // producers wait.
  values->reserve(capacity_);
  if (timestamps != nullptr) timestamps->reserve(capacity_);
  const Ring& ring = rings_[s];
  RingLock lock(ring.lock);
  const size_t fill = static_cast<size_t>(std::min<uint64_t>(
      ring.accepted.load(std::memory_order_relaxed), capacity_));
  size_t idx = ring.head >= fill ? ring.head - fill
                                 : ring.head + capacity_ - fill;
  for (size_t i = 0; i < fill; ++i) {
    values->push_back(ring.slots[idx].value);
    if (timestamps != nullptr) timestamps->push_back(ring.slots[idx].timestamp);
    if (++idx == capacity_) idx = 0;
  }
}

}  // namespace tsdm
