#ifndef TSDM_STREAM_STREAM_BUFFER_H_
#define TSDM_STREAM_STREAM_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace tsdm {

/// One observation arriving on the streaming serving path: sensor `sensor`
/// reported `value` at `timestamp`.
struct Tick {
  size_t sensor = 0;
  int64_t timestamp = 0;
  double value = 0.0;
};

/// What Push does when a sensor's ring already holds `capacity` unconsumed
/// ticks — the explicit backpressure contract of the ingest path.
enum class DropPolicy {
  /// Overwrite the oldest unconsumed tick (favor freshness; the consumer
  /// loses the tail of a burst it could not keep up with).
  kDropOldest,
  /// Reject the incoming tick (favor continuity; the producer's newest
  /// observation is lost instead).
  kDropNewest,
};

/// Fixed-capacity per-sensor tick rings: the ingest edge of the streaming
/// subsystem. Producers Push concurrently (one lock per sensor, so
/// producers on different sensors do not contend); a consumer Polls ticks
/// out in per-sensor FIFO order and feeds them to a StreamPipeline.
///
/// Each ring doubles as a retention window: the most recent `capacity`
/// ticks of every sensor stay readable (SnapshotSensor) after consumption
/// until overwritten, which is what SnapshotToContext (src/core) uses to
/// hand a live stream to the batch Fig. 1 pipeline.
///
/// No allocation after construction: Push, Poll, and the drop bookkeeping
/// all run on preallocated storage, and no lock is held across an
/// allocation.
///
/// A ring's whole state is one 64-byte line: its lock word, head, unconsumed
/// count, accepted/dropped counters and a pointer to its {timestamp, value}
/// slots, so Push and Poll touch that line plus one slot line. Rings are
/// cache-line aligned, so producers on neighbouring sensors do not
/// false-share, and the consumer's poll cursor sits on its own line. The
/// ring lock spins a bounded number of `pause` iterations and then parks on
/// the lock word (futex-backed `std::atomic::wait`), so a critical section
/// of a few stores is waited out on the CPU, while a holder that was
/// preempted costs its waiters no CPU. accepted() and dropped() take no
/// lock: each is a sum of relaxed loads, exact once producers have
/// quiesced.
class StreamBuffer {
 public:
  StreamBuffer(size_t num_sensors, size_t capacity,
               DropPolicy policy = DropPolicy::kDropOldest);

  size_t num_sensors() const { return rings_.size(); }
  size_t capacity() const { return capacity_; }
  DropPolicy policy() const { return policy_; }

  /// Ingests one tick (thread-safe). Returns false only when the tick was
  /// rejected (ring full under kDropNewest, or sensor out of range); under
  /// kDropOldest the push always lands but may evict an unconsumed tick
  /// (counted in dropped()).
  bool Push(const Tick& tick);
  bool Push(size_t sensor, int64_t timestamp, double value) {
    return Push(Tick{sensor, timestamp, value});
  }

  /// Pops the oldest unconsumed tick of some sensor, round-robin across
  /// sensors so no sensor starves. Per-sensor order is strict FIFO;
  /// cross-sensor order is approximate arrival order. Returns false when
  /// every ring is drained. Thread-safe (normally one consumer).
  bool Poll(Tick* out);

  /// Ticks admitted into a ring.
  uint64_t accepted() const;
  /// Ticks lost to backpressure: evictions under kDropOldest, rejections
  /// under kDropNewest.
  uint64_t dropped() const;

  /// Ticks admitted but not yet polled, summed over sensors.
  size_t NumUnconsumed() const;

  /// Number of retained ticks of sensor s (<= capacity), consumed or not.
  size_t SensorFill(size_t s) const;

  /// Copies sensor s's retained window (oldest -> newest) into *values and
  /// optionally *timestamps. Vectors are resized to the fill; reusing the
  /// same vectors across calls avoids reallocation in steady state.
  void SnapshotSensor(size_t s, std::vector<double>* values,
                      std::vector<int64_t>* timestamps = nullptr) const;

 private:
  struct Slot {
    int64_t timestamp;
    double value;
  };

  struct alignas(64) Ring {
    // 0 free, 1 held, 2 held with waiters parked on it.
    mutable std::atomic<uint32_t> lock{0};
    Slot* slots = nullptr;  // capacity slots in slots_
    size_t head = 0;        // next write slot
    size_t unconsumed = 0;  // admitted but not yet polled
    // Written only under the lock; atomic so accepted()/dropped() and
    // SensorFill read lock-free. Retention never shrinks, so a ring's fill
    // is min(accepted, capacity).
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> dropped{0};
  };
  static_assert(sizeof(Ring) == 64, "a ring's state is one cache line");

  std::vector<Ring> rings_;
  std::vector<Slot> slots_;  // num_sensors x capacity, ring-major
  size_t capacity_;
  DropPolicy policy_;
  alignas(64) std::atomic<size_t> poll_cursor_{0};  // consumer-only
};

}  // namespace tsdm

#endif  // TSDM_STREAM_STREAM_BUFFER_H_
