#include "rts/ring.h"

#include <cstring>
#include <memory>

#include "common/logging.h"

namespace gigascope::rts {

void ConsumerWaker::Park(std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (signal_.exchange(false, std::memory_order_acq_rel)) return;
  parked_.store(true, std::memory_order_release);
  cv_.wait_for(lock, timeout, [this] {
    return signal_.load(std::memory_order_acquire);
  });
  parked_.store(false, std::memory_order_relaxed);
  signal_.store(false, std::memory_order_relaxed);
}

void ConsumerWaker::Wake() {
  signal_.store(true, std::memory_order_release);
  if (parked_.load(std::memory_order_acquire)) {
    // Lock/unlock pairs the notify with the consumer's predicate check so
    // the wait cannot sleep through it; only taken while a consumer parks.
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_one();
  }
}

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

size_t ClampedCapacity(size_t capacity, const ShmRingOptions& shm) {
  if (!shm.enabled) return capacity;
  // Shm slots carry a fixed payload region each, so unbounded capacities
  // (tests subscribe with 1<<20) clamp to the configured ceiling. Lazy
  // page allocation makes even the ceiling cheap until slots are used.
  const size_t ceiling = shm.max_slots == 0 ? 1 : shm.max_slots;
  return capacity < ceiling ? capacity : ceiling;
}

/// Minimum per-slot payload region: headers plus any punctuation must
/// always fit in a single slot (punctuations are never dropped).
constexpr size_t kMinSlotBytes = 512;

/// Single-writer increment (the control-block analogue of
/// telemetry::Counter::Add — no RMW needed, each counter has exactly one
/// writer).
inline void CounterAdd(std::atomic<uint64_t>* counter, uint64_t n) {
  counter->store(counter->load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
}

}  // namespace

RingChannel::RingChannel(size_t capacity, const ShmRingOptions& shm)
    : capacity_(ClampedCapacity(capacity, shm)),
      mask_(NextPowerOfTwo(capacity_ == 0 ? 1 : capacity_) - 1) {
  GS_CHECK(capacity > 0);
  const size_t slot_count = mask_ + 1;
  if (!shm.enabled) {
    heap_ctrl_ = std::make_unique<RingControl>();
    ctrl_ = heap_ctrl_.get();
    slots_ = std::allocator<StreamBatch>().allocate(slot_count);
    return;
  }
  shm_slot_bytes_ =
      shm.slot_bytes < kMinSlotBytes ? kMinSlotBytes : shm.slot_bytes;
  arena_base_ = sizeof(RingControl) + slot_count * sizeof(ShmSlot);
  shm_ = ShmSegment::Create(arena_base_ + slot_count * shm_slot_bytes_);
  ctrl_ = new (shm_->data()) RingControl();
  shm_slots_ = shm_->As<ShmSlot>(sizeof(RingControl));
  for (size_t s = 0; s < slot_count; ++s) new (&shm_slots_[s]) ShmSlot();
}

RingChannel::~RingChannel() {
  if (slots_ == nullptr) return;
  std::destroy_n(slots_, slots_built_);
  std::allocator<StreamBatch>().deallocate(slots_, mask_ + 1);
}

bool RingChannel::TryPush(StreamBatch&& batch) {
  if (batch.items.empty()) return true;  // nothing to enqueue
  // The slots this push needs. Planning happens before the space check so
  // a batch needing N slots fails atomically when fewer than N are free.
  size_t oversize = 0;
  const size_t slots = shm_ == nullptr ? 1 : PlanShmChunks(batch, &oversize);
  const uint64_t head = ctrl_->head.load(std::memory_order_relaxed);
  if (head - cached_tail_ + slots > capacity_) {
    // Refresh the cached tail; acquire pairs with the consumer's release
    // store so the slots we are about to overwrite are truly vacated.
    cached_tail_ = ctrl_->tail.load(std::memory_order_acquire);
    // The batch has not been touched: the caller keeps ownership and can
    // retry with the very same object (the old by-value API consumed the
    // message even on failure, which made retry loops re-send a
    // moved-from shell).
    if (head - cached_tail_ + slots > capacity_) return false;
  }
  size_t messages = 0;
  for (size_t c = 0; c < slots; ++c) {
    messages += StoreSlot(head + c, &batch, c);
  }
  batch.items.clear();
  // Messages no slot can hold could never be delivered at any occupancy:
  // dropped here, counted apart from ring-full drops.
  if (oversize > 0) CounterAdd(&ctrl_->oversize_dropped, oversize);
  if (slots == 0) return true;  // every message was oversize
  ctrl_->head.store(head + slots, std::memory_order_release);
  const size_t occupancy = static_cast<size_t>(
      head + slots - ctrl_->tail.load(std::memory_order_relaxed));
  CounterAdd(&ctrl_->pushed, messages);
  if (occupancy > ctrl_->high_water.load(std::memory_order_relaxed)) {
    ctrl_->high_water.store(occupancy, std::memory_order_relaxed);
  }
  batch_size_.Record(messages);
  occupancy_.Record(occupancy);
  if (ConsumerWaker* waker = waker_.get()) waker->Wake();
  return true;
}

size_t RingChannel::PlanShmChunks(const StreamBatch& batch,
                                  size_t* oversize) {
  chunk_ends_.clear();
  size_t run_bytes = 0;
  bool run_open = false;
  for (size_t i = 0; i < batch.items.size(); ++i) {
    const size_t need = ShmEncodedMessageSize(batch.items[i]);
    if (need > shm_slot_bytes_) {
      ++*oversize;  // skipped by StoreSlot too
      continue;
    }
    if (run_open && run_bytes + need > shm_slot_bytes_) {
      chunk_ends_.push_back(i);
      run_bytes = 0;
    }
    run_open = true;
    run_bytes += need;
  }
  if (run_open) chunk_ends_.push_back(batch.items.size());
  return chunk_ends_.size();
}

size_t RingChannel::StoreSlot(uint64_t position, StreamBatch* batch,
                              size_t chunk) {
  const size_t s = position & mask_;
  if (shm_ == nullptr) {
    const size_t messages = batch->items.size();
    if (s < slots_built_) {
      slots_[s] = std::move(*batch);
    } else {
      GS_CHECK(s == slots_built_);  // first lap: positions are monotone
      new (&slots_[s]) StreamBatch(std::move(*batch));
      ++slots_built_;
    }
    return messages;
  }
  push_scratch_.clear();
  uint32_t count = 0;
  const size_t begin = chunk == 0 ? 0 : chunk_ends_[chunk - 1];
  for (size_t i = begin; i < chunk_ends_[chunk]; ++i) {
    const StreamMessage& message = batch->items[i];
    if (ShmEncodedMessageSize(message) > shm_slot_bytes_) continue;
    ShmEncodeMessage(message, &push_scratch_);
    ++count;
  }
  ShmSlot& slot = shm_slots_[s];
  slot.offset = ArenaOffset(s);
  slot.len = static_cast<uint32_t>(push_scratch_.size());
  slot.msg_count = count;
  std::memcpy(shm_->As<uint8_t>(slot.offset), push_scratch_.data(),
              push_scratch_.size());
  // Publication stamp: written (release) only after the payload bytes are
  // complete, validated by the consumer before it touches them.
  uint64_t seq = position + 1;
  if (torn_arm_ != 0 && ++slot_pubs_ >= torn_arm_) {
    seq = 0;  // fault injection: a stamp no consumer position accepts
    torn_arm_ = 0;
  }
  slot.seq.store(seq, std::memory_order_release);
  return count;
}

bool RingChannel::TryPush(StreamMessage&& message) {
  StreamBatch batch;
  batch.items.push_back(std::move(message));
  if (TryPush(std::move(batch))) return true;
  message = std::move(batch.items.front());  // restore: no-consume contract
  return false;
}

bool RingChannel::TryPush(const StreamMessage& message) {
  StreamBatch batch;
  batch.items.push_back(message);
  return TryPush(std::move(batch));
}

bool RingChannel::PushOrDrop(StreamBatch&& batch) {
  if (parked_punct_.has_value()) {
    if (batch.has_punctuation()) {
      // The batch's own punctuation carries a bound at least as new as the
      // parked one (bounds are non-decreasing on a stream), so the parked
      // punctuation is superseded — dropping it loses no information.
      parked_punct_.reset();
    } else {
      // Ride the parked punctuation at the tail of this batch. It now
      // follows tuples that were produced after it, which is safe: its
      // bound ("no future tuple below v") still holds after any later
      // tuple.
      batch.items.push_back(std::move(*parked_punct_));
      parked_punct_.reset();
    }
  }
  if (batch.items.empty()) return true;
  if (TryPush(std::move(batch))) return true;
  // Full ring: the tuples drop here — as early in the chain as possible,
  // per §4/§5 — but the punctuation must not, or downstream group-close
  // stalls until the next one happens to arrive. Park it for the next
  // push.
  size_t tuples = batch.items.size();
  if (batch.has_punctuation()) {
    --tuples;
    parked_punct_ = std::move(batch.items.back());
  }
  if (tuples > 0) CounterAdd(&ctrl_->dropped, tuples);
  batch.items.clear();
  return false;
}

bool RingChannel::PushOrDrop(StreamMessage message) {
  StreamBatch batch;
  batch.items.push_back(std::move(message));
  return PushOrDrop(std::move(batch));
}

bool RingChannel::FlushParked() {
  if (!parked_punct_.has_value()) return true;
  StreamBatch batch;
  batch.items.push_back(std::move(*parked_punct_));
  parked_punct_.reset();
  if (TryPush(std::move(batch))) return true;
  parked_punct_ = std::move(batch.items.back());  // still full: re-park
  return false;
}

bool RingChannel::LoadSlot(uint64_t position, StreamBatch* out) {
  const size_t s = position & mask_;
  if (shm_ == nullptr) {
    *out = std::move(slots_[s]);
    return true;
  }
  ShmSlot& slot = shm_slots_[s];
  // Validate before touching the payload: the stamp proves the producer
  // finished writing this lap's bytes, and the bounds prove the header
  // itself is sane. A producer that died mid-write (or fault injection)
  // fails here; the slot is torn — skipped, never delivered as garbage.
  const uint64_t seq = slot.seq.load(std::memory_order_acquire);
  if (seq != position + 1 || slot.offset != ArenaOffset(s) ||
      slot.len > shm_slot_bytes_) {
    return false;
  }
  ByteSpan bytes(shm_->As<uint8_t>(slot.offset), slot.len);
  if (ShmDecodeBatch(bytes, slot.msg_count, out)) return true;
  out->items.clear();
  return false;
}

bool RingChannel::PopSlot(StreamBatch* out) {
  for (;;) {
    out->items.clear();
    const uint64_t tail = ctrl_->tail.load(std::memory_order_relaxed);
    // The head cache is process-local while the tail may be shared: after
    // a fork handoff (adoption, or a restarted child) this process's cache
    // can lag the tail another process advanced. Trust it only when it is
    // strictly ahead of the tail; `<=` (not `==`) is what makes the
    // emptiness check safe across the handoff — otherwise a stale cache
    // reads unpublished slots and walks the tail past the head forever.
    if (cached_head_ <= tail) {
      // Acquire pairs with the producer's release store: the slot
      // contents written before the head advanced are visible here.
      cached_head_ = ctrl_->head.load(std::memory_order_acquire);
      if (cached_head_ <= tail) return false;
    }
    const bool loaded = LoadSlot(tail, out);
    ctrl_->tail.store(tail + 1, std::memory_order_release);
    if (!loaded) {
      CounterAdd(&ctrl_->torn, 1);
      continue;  // torn slot skipped; try the next one
    }
    CounterAdd(&ctrl_->popped, out->items.size());
    // Past the arming position: this slot was pushed after the handoff,
    // so the lost prefix cannot extend into it — the gap ends here even
    // without a punctuation (see BeginResync).
    if (resync_ && tail >= resync_end_) resync_ = false;
    if (!resync_) return true;
    ApplyResyncGate(out);
    if (!out->items.empty()) return true;
    // Whole slot discarded by the gate; keep popping toward the
    // punctuation boundary.
  }
}

void RingChannel::ApplyResyncGate(StreamBatch* out) {
  size_t drop = 0;
  while (drop < out->items.size() &&
         out->items[drop].kind != StreamMessage::Kind::kPunctuation) {
    ++drop;
  }
  const bool punctuation = drop < out->items.size();
  if (drop > 0) {
    CounterAdd(&ctrl_->resync_dropped, drop);
    out->items.erase(out->items.begin(),
                     out->items.begin() + static_cast<ptrdiff_t>(drop));
  }
  // The punctuation re-establishes ordering for everything that follows:
  // the new consumer incarnation starts clean at a window boundary.
  if (punctuation) resync_ = false;
}

void RingChannel::BeginResync() {
  resync_ = true;
  // Everything already pushed belongs to the dead incarnation's in-flight
  // span; everything after this head position post-dates the handoff.
  resync_end_ = ctrl_->head.load(std::memory_order_acquire);
  // Any staged remainder belonged to the dead incarnation's batch.
  size_t staged_tuples = 0;
  for (size_t i = staged_index_; i < staged_.items.size(); ++i) {
    if (staged_.items[i].kind == StreamMessage::Kind::kTuple) {
      ++staged_tuples;
    }
  }
  CounterAdd(&ctrl_->resync_dropped, staged_tuples);
  staged_.items.clear();
  staged_index_ = 0;
}

void RingChannel::ArmTornFault(uint64_t nth) {
  GS_CHECK(shm_ != nullptr);  // the heap backend has no serialized form
  torn_arm_ = nth == 0 ? 1 : nth;
  slot_pubs_ = 0;
}

bool RingChannel::TryPop(StreamBatch* out) {
  if (staged_index_ < staged_.items.size()) {
    // Hand over the remainder of a partially drained batch first so the
    // batch- and message-level pop APIs interleave in FIFO order.
    out->items.assign(
        std::make_move_iterator(staged_.items.begin() + staged_index_),
        std::make_move_iterator(staged_.items.end()));
    staged_.items.clear();
    staged_index_ = 0;
    return true;
  }
  return PopSlot(out);
}

bool RingChannel::TryPop(StreamMessage* out) {
  while (staged_index_ >= staged_.items.size()) {
    staged_.items.clear();
    staged_index_ = 0;
    if (!PopSlot(&staged_)) return false;
  }
  *out = std::move(staged_.items[staged_index_++]);
  return true;
}

size_t RingChannel::size() const {
  // Load tail first: head can only grow afterwards, so the difference is
  // never negative.
  const uint64_t tail = ctrl_->tail.load(std::memory_order_acquire);
  const uint64_t head = ctrl_->head.load(std::memory_order_acquire);
  return static_cast<size_t>(head - tail);
}

}  // namespace gigascope::rts
