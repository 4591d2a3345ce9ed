#ifndef GIGASCOPE_OPS_GROUP_LAYOUT_H_
#define GIGASCOPE_OPS_GROUP_LAYOUT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "expr/ir.h"
#include "expr/type.h"

namespace gigascope::ops {

/// One evaluated aggregate argument: a fixed-width value as a word (the
/// INT/UINT/FLOAT bits; IP and BOOL zero-extended), a STRING as its text.
/// COUNT(*) takes none and ignores it.
struct FoldArg {
  uint64_t word = 0;
  std::string_view text;

  static FoldArg Of(const expr::Value& value);
};

/// Whether two packed keys are the same group: equal bytes.
inline bool SameKey(ByteSpan a, ByteSpan b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// The packed form of an aggregation group, shared by both group stores
/// (§3: the LFTA's table holds fixed-size entries).
///
/// A group's key is its key fields packed in the output codec's layout
/// (rts::TupleCodec), so an emitted tuple is the key bytes followed by the
/// aggregates. Two keys are the same group exactly when their bytes are
/// equal: a FLOAT key groups by bit pattern, so -0.0 and 0.0 are separate
/// groups, as are NaNs with different bits.
///
/// A group's running aggregates are one 8-byte cell per aggregate: COUNT
/// and SUM (INT wraps modulo 2^64, like the VM; FLOAT adds doubles) and
/// fixed-width MIN/MAX. A MIN/MAX over a STRING keeps its extremum in a
/// boxed text cell beside the words.
class GroupLayout {
 public:
  /// `specs` use only COUNT/SUM/MIN/MAX (the planner decomposes AVG); a
  /// SUM's result type follows its argument (INT, FLOAT, else UINT).
  GroupLayout(std::vector<gsql::DataType> key_types,
              std::vector<expr::AggregateSpec> specs);

  gsql::DataType key_type(size_t i) const { return key_types_[i]; }
  /// Words per group (one per aggregate) and text cells per group.
  size_t num_words() const { return specs_.size(); }
  size_t num_texts() const { return num_texts_; }
  /// Size of the shortest packed key (every STRING key field empty); the
  /// size of every key when no key field is a STRING.
  size_t min_key_size() const { return min_key_size_; }

  /// The bytes of key field `i` inside the packed key `key`.
  ByteSpan KeyField(ByteSpan key, size_t i) const;

  /// The hash the LFTA table indexes by: FNV-1a-combined Value::Hash of
  /// each key field, the same number a decoded key row hashes to.
  uint64_t KeyHash(ByteSpan key) const;

  /// Value::Compare on packed field `i` (INT signed, UINT/IP unsigned,
  /// FLOAT by `<`, so NaN compares equal to everything).
  int CompareField(size_t i, ByteSpan a, ByteSpan b) const;

  /// Output order of two distinct keys: field by field as Value::Compare,
  /// except that FLOAT fields order by IEEE-754 totalOrder (-0.0 before
  /// 0.0, negative NaNs first, positive NaNs last), so distinct keys never
  /// tie.
  bool KeyLess(ByteSpan a, ByteSpan b) const;

  /// Opens a group with its first tuple: cells start empty, then fold it.
  void Start(uint64_t* words, std::string* texts, const FoldArg* args,
             uint64_t weight) const;

  /// Folds one tuple standing for `weight` input tuples (Horvitz-Thompson:
  /// under 1-in-k source sampling the LFTA folds survivors with weight k,
  /// so COUNT adds k and SUM adds k*v — unbiased estimates of the
  /// unsampled aggregate). MIN/MAX are order statistics and take the value
  /// unweighted.
  void Fold(uint64_t* words, std::string* texts, const FoldArg* args,
            uint64_t weight) const;

  /// Appends one output tuple to `out`: the key bytes, then each
  /// aggregate in the output codec's layout.
  void Emit(ByteSpan key, const uint64_t* words, const std::string* texts,
            ByteBuffer* out) const;

 private:
  std::vector<gsql::DataType> key_types_;
  /// key_offsets_[i] is field i's offset in every key, for every field up
  /// to and including the first STRING.
  std::vector<size_t> key_offsets_;
  std::vector<expr::AggregateSpec> specs_;
  /// text_cell_[a]: index of aggregate a's text cell (STRING MIN/MAX).
  std::vector<uint32_t> text_cell_;
  size_t num_texts_ = 0;
  size_t min_key_size_ = 0;
  size_t fixed_cell_bytes_ = 0;  // encoded size of the non-STRING cells
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_GROUP_LAYOUT_H_
