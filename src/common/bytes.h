#ifndef GIGASCOPE_COMMON_BYTES_H_
#define GIGASCOPE_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gigascope {

/// Non-owning view of a byte buffer (packet payloads, tuple bodies).
using ByteSpan = std::basic_string_view<uint8_t>;

/// Owning byte buffer.
using ByteBuffer = std::vector<uint8_t>;

// Tuple fields are packed little-endian, which must be host order: every
// little-endian read and write below is one memcpy.
static_assert(std::endian::native == std::endian::little,
              "tuple packing assumes a little-endian host");

/// Serializes fixed-width integers into a growing buffer.
///
/// Network header fields are written big-endian (wire order); tuple fields
/// are written little-endian (host order).
class ByteWriter {
 public:
  explicit ByteWriter(ByteBuffer* out) : out_(out) {}
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16Be(uint16_t v);
  void PutU32Be(uint32_t v);
  void PutU16Le(uint16_t v) { PutBytes(&v, sizeof(v)); }
  void PutU32Le(uint32_t v) { PutBytes(&v, sizeof(v)); }
  void PutU64Le(uint64_t v) { PutBytes(&v, sizeof(v)); }
  void PutBytes(const void* data, size_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + len);
  }

  size_t size() const { return out_->size(); }

 private:
  ByteBuffer* out_;
};

/// Deserializes fixed-width integers from a byte view, with bounds checks.
///
/// All getters return false (leaving the output untouched) when fewer bytes
/// remain than requested; callers treat that as a truncated packet.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data), pos_(0) {}

  bool GetU8(uint8_t* v);
  bool GetU16Be(uint16_t* v);
  bool GetU32Be(uint32_t* v);
  bool GetU16Le(uint16_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetU32Le(uint32_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetU64Le(uint64_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetBytes(void* out, size_t len) {
    if (remaining() < len) return false;
    std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool Skip(size_t len);

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

  /// View of the unread suffix.
  ByteSpan Rest() const { return data_.substr(pos_); }

 private:
  ByteSpan data_;
  size_t pos_;
};

/// Formats an IPv4 address (host byte order) as dotted quad.
std::string Ipv4ToString(uint32_t addr);

/// Parses a dotted-quad IPv4 address into host byte order.
Result<uint32_t> ParseIpv4(std::string_view text);

/// FNV-1a 64-bit hash over a byte range; the RTS group-hash primitive.
uint64_t Fnv1a64(const void* data, size_t len);

}  // namespace gigascope

#endif  // GIGASCOPE_COMMON_BYTES_H_
