#include "rts/tuple.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace gigascope::rts {

using expr::Value;
using gsql::DataType;

namespace {

/// Reads one field of type `type` at the reader's position; false when the
/// field overruns the buffer.
bool DecodeValue(ByteReader& reader, DataType type, Value* out) {
  switch (type) {
    case DataType::kBool: {
      uint8_t v = 0;
      if (!reader.GetU8(&v)) return false;
      *out = Value::Bool(v != 0);
      return true;
    }
    case DataType::kInt: {
      uint64_t v = 0;
      if (!reader.GetU64Le(&v)) return false;
      *out = Value::Int(static_cast<int64_t>(v));
      return true;
    }
    case DataType::kUint: {
      uint64_t v = 0;
      if (!reader.GetU64Le(&v)) return false;
      *out = Value::Uint(v);
      return true;
    }
    case DataType::kFloat: {
      double d = 0;
      if (!reader.GetBytes(&d, sizeof(d))) return false;
      *out = Value::Float(d);
      return true;
    }
    case DataType::kIp: {
      uint32_t v = 0;
      if (!reader.GetU32Le(&v)) return false;
      *out = Value::Ip(v);
      return true;
    }
    case DataType::kString: {
      uint32_t len = 0;
      if (!reader.GetU32Le(&len) || reader.remaining() < len) return false;
      *out = Value::String(
          std::string(reinterpret_cast<const char*>(reader.Rest().data()), len));
      reader.Skip(len);
      return true;
    }
  }
  return false;
}

size_t ValueSize(const Value& value) {
  switch (value.type()) {
    case DataType::kBool: return 1;
    case DataType::kIp: return 4;
    case DataType::kString: return 4 + value.string_value().size();
    default: return 8;
  }
}

/// Packs `value` at `p`; returns the end of the field.
uint8_t* StoreValue(const Value& value, uint8_t* p) {
  switch (value.type()) {
    case DataType::kBool:
      *p = value.bool_value() ? 1 : 0;
      return p + 1;
    case DataType::kInt: {
      const int64_t v = value.int_value();
      std::memcpy(p, &v, sizeof(v));
      return p + sizeof(v);
    }
    case DataType::kUint: {
      const uint64_t v = value.uint_value();
      std::memcpy(p, &v, sizeof(v));
      return p + sizeof(v);
    }
    case DataType::kFloat: {
      const double d = value.float_value();
      std::memcpy(p, &d, sizeof(d));
      return p + sizeof(d);
    }
    case DataType::kIp: {
      const uint32_t v = value.ip_value();
      std::memcpy(p, &v, sizeof(v));
      return p + sizeof(v);
    }
    case DataType::kString: {
      const std::string& s = value.string_value();
      const uint32_t len = static_cast<uint32_t>(s.size());
      std::memcpy(p, &len, sizeof(len));
      if (len > 0) std::memcpy(p + sizeof(len), s.data(), len);
      return p + sizeof(len) + len;
    }
  }
  return p;
}

Status Truncated(DataType type) {
  return Status::ParseError(std::string("truncated tuple (") +
                            gsql::DataTypeName(type) + " field)");
}

}  // namespace

TupleCodec::TupleCodec(const gsql::StreamSchema& schema) : schema_(schema) {
  size_t offset = 0;
  for (size_t f = 0; f < schema_.num_fields(); ++f) {
    fixed_offsets_.push_back(offset);
    std::optional<size_t> width = FixedTypeWidth(schema_.field(f).type);
    if (!width.has_value()) return;
    offset += *width;
  }
  fixed_offsets_.push_back(offset);
}

void TupleCodec::Encode(const Row& row, ByteBuffer* out) const {
  GS_CHECK(row.size() == schema_.num_fields());
  for (size_t f = 0; f < row.size(); ++f) {
    GS_CHECK(row[f].type() == schema_.field(f).type);
  }
  // Sized once; each field is then one store at its offset.
  const size_t start = out->size();
  out->resize(start + EncodedSize(row));
  uint8_t* p = out->data() + start;
  for (const Value& value : row) p = StoreValue(value, p);
}

void TupleCodec::AppendValue(const Value& value, ByteBuffer* out) {
  const size_t start = out->size();
  out->resize(start + ValueSize(value));
  StoreValue(value, out->data() + start);
}

Result<Row> TupleCodec::Decode(ByteSpan bytes) const {
  ByteReader reader(bytes);
  Row row(schema_.num_fields());
  for (size_t f = 0; f < row.size(); ++f) {
    const DataType type = schema_.field(f).type;
    if (!DecodeValue(reader, type, &row[f])) return Truncated(type);
  }
  if (reader.remaining() != 0) {
    return Status::ParseError("tuple has trailing bytes");
  }
  return row;
}

std::optional<size_t> TupleCodec::OffsetIn(ByteSpan bytes,
                                           size_t field) const {
  // Up to the first STRING every offset is fixed; past it, each string's
  // length prefix says where the next field starts.
  const size_t known = std::min(field, fixed_offsets_.size() - 1);
  size_t pos = fixed_offsets_[known];
  if (pos > bytes.size()) return std::nullopt;
  for (size_t f = known; f < field; ++f) {
    const DataType type = schema_.field(f).type;
    if (type == DataType::kString) {
      uint32_t len = 0;
      if (bytes.size() - pos < sizeof(len)) return std::nullopt;
      std::memcpy(&len, bytes.data() + pos, sizeof(len));
      pos += sizeof(len);
      if (bytes.size() - pos < len) return std::nullopt;
      pos += len;
    } else {
      const size_t width = *FixedTypeWidth(type);
      if (bytes.size() - pos < width) return std::nullopt;
      pos += width;
    }
  }
  return pos;
}

bool TupleCodec::WellFormed(ByteSpan bytes) const {
  return OffsetIn(bytes, schema_.num_fields()) == bytes.size();
}

Result<Value> TupleCodec::DecodeField(ByteSpan bytes, size_t field) const {
  if (field >= schema_.num_fields()) {
    return Status::InvalidArgument("field index out of range");
  }
  std::optional<size_t> offset = OffsetIn(bytes, field);
  if (!offset.has_value()) {
    return Status::ParseError("truncated tuple before the field");
  }
  ByteReader reader(bytes.substr(*offset));
  const DataType type = schema_.field(field).type;
  Value value;
  if (!DecodeValue(reader, type, &value)) return Truncated(type);
  return value;
}

std::optional<size_t> TupleCodec::FixedTypeWidth(gsql::DataType type) {
  switch (type) {
    case DataType::kBool: return 1;
    case DataType::kInt:
    case DataType::kUint:
    case DataType::kFloat: return 8;
    case DataType::kIp: return 4;
    case DataType::kString: return std::nullopt;
  }
  return std::nullopt;
}

std::optional<size_t> TupleCodec::FixedFieldOffset(size_t field) const {
  if (field >= schema_.num_fields() || field >= fixed_offsets_.size()) {
    return std::nullopt;  // out of range, or behind a variable-width field
  }
  return fixed_offsets_[field];
}

std::optional<TupleCodec::ByteRange> TupleCodec::CopyableField(
    size_t field) const {
  std::optional<size_t> offset = FixedFieldOffset(field);
  if (!offset.has_value()) return std::nullopt;
  const DataType type = schema_.field(field).type;
  if (type == DataType::kBool) return std::nullopt;
  std::optional<size_t> width = FixedTypeWidth(type);
  if (!width.has_value()) return std::nullopt;
  return ByteRange{*offset, *width};
}

size_t TupleCodec::EncodedSize(const Row& row) const {
  size_t size = 0;
  for (const Value& value : row) size += ValueSize(value);
  return size;
}

}  // namespace gigascope::rts
