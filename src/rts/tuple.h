#ifndef GIGASCOPE_RTS_TUPLE_H_
#define GIGASCOPE_RTS_TUPLE_H_

#include <optional>
#include <vector>

#include "common/bytes.h"
#include "expr/type.h"
#include "gsql/schema.h"

namespace gigascope::rts {

/// A decoded tuple: one Value per schema field.
using Row = std::vector<expr::Value>;

/// Packs and unpacks tuples of one schema ("the fields of its tuples are
/// packed in a standard fashion", §2.2). The packed form is what crosses
/// the shared-memory channels between query nodes.
///
/// Layout: fields in schema order. BOOL = 1 byte; INT/UINT/FLOAT = 8 bytes
/// little-endian; IP = 4 bytes; STRING = u32 length + bytes. Every type's
/// default value packs as all-zero bytes (an empty STRING is a zero
/// length), so a zero-filled buffer of the right length is a tuple of
/// defaults.
class TupleCodec {
 public:
  explicit TupleCodec(const gsql::StreamSchema& schema);

  const gsql::StreamSchema& schema() const { return schema_; }

  /// Serializes `row` (must match the schema arity and field types).
  void Encode(const Row& row, ByteBuffer* out) const;

  /// Deserializes a packed tuple; fails on truncation or overrun.
  Result<Row> Decode(ByteSpan bytes) const;

  /// Whether Decode would accept `bytes`: every field fits, every string
  /// length stays inside the buffer, and nothing trails the last field.
  /// Checks lengths only; no field is decoded.
  bool WellFormed(ByteSpan bytes) const;

  /// Decodes field `field` alone out of a well-formed packed tuple,
  /// skipping any strings before it by their lengths.
  Result<expr::Value> DecodeField(ByteSpan bytes, size_t field) const;

  /// Encoded size of `row` in bytes.
  size_t EncodedSize(const Row& row) const;

  /// Byte offset of field `field` in every encoded tuple of this schema,
  /// when all preceding fields are fixed-width (no strings); nullopt when
  /// the offset varies per row or `field` is out of range. Lets a filter
  /// read one field straight out of the packed bytes without decoding the
  /// whole row (the columnar fast path in ops/select_project).
  std::optional<size_t> FixedFieldOffset(size_t field) const;

  /// Encoded width in bytes of a fixed-width type; nullopt for strings.
  static std::optional<size_t> FixedTypeWidth(gsql::DataType type);

  /// A field whose packed bytes can be copied as its value.
  struct ByteRange {
    size_t offset = 0;
    size_t width = 0;
  };
  /// Where field `field` sits when copying its bytes reproduces what
  /// Decode-then-Encode would: a fixed offset, a fixed width, and not a
  /// BOOL (decoding normalizes a BOOL byte to 0/1). nullopt otherwise.
  std::optional<ByteRange> CopyableField(size_t field) const;

  /// Appends `value` packed as one field of its own type.
  static void AppendValue(const expr::Value& value, ByteBuffer* out);

 private:
  /// Offset of field `field` in `bytes` (field == num_fields: the end of
  /// the tuple), walking string lengths; nullopt when a field before it
  /// overruns the buffer.
  std::optional<size_t> OffsetIn(ByteSpan bytes, size_t field) const;

  gsql::StreamSchema schema_;
  /// fixed_offsets_[f] = FixedFieldOffset(f) for every f up to and
  /// including the first STRING field (or the end of the tuple).
  std::vector<size_t> fixed_offsets_;
};

/// A message flowing on a stream channel: a tuple or a punctuation
/// (ordering-update token, §3 "Unblocking Operators").
///
/// The trace context piggybacks on the message: when the inject thread
/// samples a packet (telemetry::Tracer), every message derived from it —
/// through LFTA pre-aggregation, the rings, and the HFTA operators —
/// carries the originating trace id and inject timestamp, so operators can
/// record per-hop spans and the terminal node the inject→emit latency.
/// trace_id 0 (the default) means untraced; the hot path only ever
/// copies the two words.
struct StreamMessage {
  enum class Kind : uint8_t { kTuple, kPunctuation };
  Kind kind = Kind::kTuple;
  ByteBuffer payload;
  uint64_t trace_id = 0;
  int64_t trace_ns = 0;  // inject time, in the tracer's epoch
  /// How many offered tuples this message stands for. 1 normally; under
  /// L1 load shedding a surviving source tuple carries the sampling rate
  /// in force when it was injected (its Horvitz-Thompson weight), and
  /// aggregation folds COUNT/SUM with it. Stamped at the sampling
  /// decision — not read at fold time — so a backlog of pre-shed tuples
  /// is never retroactively scaled.
  uint32_t weight = 1;
};

/// The unit a ring slot carries: zero or more tuples followed by at most
/// one punctuation, in stream order. Batching amortizes the per-message
/// ring handoff and operator dispatch over many tuples while preserving
/// the paper's §2 ordering semantics — everything inside a batch stays in
/// the order it was produced, and a punctuation always closes its batch
/// (nothing in this batch follows it, so its ordering guarantee covers
/// exactly the tuples that preceded it on the stream).
struct StreamBatch {
  std::vector<StreamMessage> items;

  size_t size() const { return items.size(); }
  bool empty() const { return items.empty(); }

  /// True when the batch ends in a punctuation. Producers maintain the
  /// invariant that a punctuation can only be the last item.
  bool has_punctuation() const {
    return !items.empty() &&
           items.back().kind == StreamMessage::Kind::kPunctuation;
  }
};

}  // namespace gigascope::rts

#endif  // GIGASCOPE_RTS_TUPLE_H_
