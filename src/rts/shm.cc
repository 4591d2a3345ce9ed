#include "rts/shm.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"

namespace gigascope::rts {

namespace {

/// Process-wide suffix so two engines in one process never collide on a
/// segment name (the name only exists for the instant between shm_open
/// and shm_unlink, but uniqueness keeps even that instant race-free).
std::atomic<uint64_t> segment_seq{0};

void* MapSharedAnonymousFallback(size_t bytes) {
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  return mem == MAP_FAILED ? nullptr : mem;
}

}  // namespace

std::unique_ptr<ShmSegment> ShmSegment::Create(size_t bytes) {
  GS_CHECK(bytes > 0);
  char name[64];
  std::snprintf(name, sizeof(name), "/gigascope.%d.%llu",
                static_cast<int>(getpid()),
                static_cast<unsigned long long>(
                    segment_seq.fetch_add(1, std::memory_order_relaxed)));
  void* mem = nullptr;
  int fd = shm_open(name, O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd >= 0) {
    // Unlink immediately: the mapping below is the only reference, so the
    // kernel reclaims the segment when the last process exits — crash
    // included. Nothing ever lingers in /dev/shm.
    shm_unlink(name);
    if (ftruncate(fd, static_cast<off_t>(bytes)) == 0) {
      void* mapped = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                          fd, 0);
      if (mapped != MAP_FAILED) mem = mapped;
    }
    close(fd);
  }
  if (mem == nullptr) {
    // Hosts without a POSIX shm mount: an anonymous MAP_SHARED mapping is
    // equally fork-inheritable, it just cannot be named (we never need the
    // name after setup anyway).
    mem = MapSharedAnonymousFallback(bytes);
  }
  GS_CHECK(mem != nullptr);
  return std::unique_ptr<ShmSegment>(new ShmSegment(mem, bytes));
}

ShmSegment::~ShmSegment() { munmap(data_, size_); }

size_t ShmEncodedMessageSize(const StreamMessage& message) {
  return 1 + 4 + 8 + 8 + 4 + message.payload.size();
}

void ShmEncodeMessage(const StreamMessage& message, ByteBuffer* out) {
  ByteWriter writer(out);
  writer.PutU8(static_cast<uint8_t>(message.kind));
  writer.PutU32Le(message.weight);
  writer.PutU64Le(message.trace_id);
  writer.PutU64Le(static_cast<uint64_t>(message.trace_ns));
  writer.PutU32Le(static_cast<uint32_t>(message.payload.size()));
  writer.PutBytes(message.payload.data(), message.payload.size());
}

bool ShmDecodeBatch(ByteSpan bytes, uint32_t count, StreamBatch* out) {
  ByteReader reader(bytes);
  for (uint32_t i = 0; i < count; ++i) {
    StreamMessage message;
    uint8_t kind = 0;
    uint32_t len = 0;
    uint64_t trace_ns_bits = 0;
    if (!reader.GetU8(&kind) || kind > 1) return false;
    message.kind = static_cast<StreamMessage::Kind>(kind);
    if (!reader.GetU32Le(&message.weight)) return false;
    if (!reader.GetU64Le(&message.trace_id)) return false;
    if (!reader.GetU64Le(&trace_ns_bits)) return false;
    message.trace_ns = static_cast<int64_t>(trace_ns_bits);
    if (!reader.GetU32Le(&len)) return false;
    if (reader.remaining() < len) return false;
    message.payload.assign(reader.Rest().data(), reader.Rest().data() + len);
    reader.Skip(len);
    out->items.push_back(std::move(message));
  }
  // Trailing garbage means the header lied about the chunk; torn.
  return reader.remaining() == 0;
}

}  // namespace gigascope::rts
