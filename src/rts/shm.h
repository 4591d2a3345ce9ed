#ifndef GIGASCOPE_RTS_SHM_H_
#define GIGASCOPE_RTS_SHM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "rts/tuple.h"

namespace gigascope::rts {

/// An anonymous POSIX shared-memory mapping that survives fork(): the
/// parent maps it before spawning workers and every child inherits the
/// same physical pages (MAP_SHARED), so atomics placed inside are the
/// cross-process synchronization primitive — the paper's §4 shared-memory
/// ring substrate.
///
/// The segment is created with shm_open under a unique private name and
/// immediately shm_unlink'ed: the mapping keeps it alive, nothing leaks
/// into /dev/shm past process death (crash included), and no other process
/// can race on the name. Pages are allocated lazily by the kernel, so a
/// generously sized segment costs only what is actually touched.
class ShmSegment {
 public:
  /// Maps `bytes` of zero-initialized shared memory. Dies (GS_CHECK) when
  /// the kernel refuses both shm_open and the MAP_ANONYMOUS fallback —
  /// both failing means the host cannot run multi-process mode at all.
  static std::unique_ptr<ShmSegment> Create(size_t bytes);

  ~ShmSegment();
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  void* data() const { return data_; }
  size_t size() const { return size_; }

  template <typename T>
  T* As(size_t byte_offset = 0) const {
    return reinterpret_cast<T*>(static_cast<uint8_t*>(data_) + byte_offset);
  }

 private:
  ShmSegment(void* data, size_t size) : data_(data), size_(size) {}
  void* data_;
  size_t size_;
};

/// Sizing knobs for shm-backed ring channels (EngineOptions::process maps
/// onto this). Every channel the registry creates while `enabled` carries
/// its slots in a ShmSegment instead of a heap vector.
struct ShmRingOptions {
  bool enabled = false;
  /// Upper bound on slot count per shm ring: heap rings accept any
  /// capacity (tests subscribe with 1<<20), but shm slots carry a fixed
  /// payload region each, so the registry clamps. Lazily allocated pages
  /// keep even this bound cheap until slots are actually used.
  size_t max_slots = 32768;
  /// Fixed serialized-payload bytes per slot. Batches larger than this
  /// split across slots; a single message that cannot fit is dropped and
  /// counted (oversize_dropped) — it could never be delivered.
  size_t slot_bytes = 16 * 1024;
};

/// Per-slot header. The payload lives in the segment's arena at
/// `offset` — slot i owns the fixed region [i * slot_bytes, (i+1) *
/// slot_bytes) — and `seq` is the publication stamp: the producer stores
/// seq = head_index + 1 (release) only after the payload bytes are
/// complete, and the consumer validates it before touching the bytes. A
/// mismatch means the slot is torn (half-written at producer death).
struct ShmSlot {
  std::atomic<uint64_t> seq{0};
  uint64_t offset = 0;     // payload start, bytes from segment base
  uint32_t len = 0;        // serialized payload length
  uint32_t msg_count = 0;  // messages in this batch chunk
};

/// Serialized size of one StreamMessage in the slot wire format
/// (kind u8 + weight u32 + trace_id u64 + trace_ns u64 + len u32 + bytes).
size_t ShmEncodedMessageSize(const StreamMessage& message);

/// Appends `message` to `out` in the slot wire format.
void ShmEncodeMessage(const StreamMessage& message, ByteBuffer* out);

/// Decodes `count` messages from `bytes` into `out->items` (appending).
/// Bounds-checked everywhere: returns false on any truncation or overrun,
/// which the ring treats as a torn slot. Never crashes on garbage.
bool ShmDecodeBatch(ByteSpan bytes, uint32_t count, StreamBatch* out);

}  // namespace gigascope::rts

#endif  // GIGASCOPE_RTS_SHM_H_
