#ifndef GIGASCOPE_OPS_AGGREGATE_H_
#define GIGASCOPE_OPS_AGGREGATE_H_

#include <optional>
#include <string>
#include <vector>

#include "expr/codegen.h"
#include "expr/vm.h"
#include "ops/group_layout.h"
#include "rts/node.h"
#include "rts/punctuation.h"
#include "rts/tuple.h"

namespace gigascope::ops {

/// Lowers a numeric bound by `band` (saturating for unsigned types):
/// on a banded-increasing stream, a value v only guarantees that no future
/// value falls below v - band.
expr::Value ReduceByBand(const expr::Value& value, uint64_t band);

/// Maps a punctuation bound on input field `source` through `fn`, an
/// order-preserving function of that field alone: `fn` is evaluated on a
/// synthetic row whose only meaningful field is the bounded one (the rest
/// hold defaults), so the result bounds `fn`'s output. nullopt when the
/// evaluation fails or misses.
std::optional<expr::Value> TranslateBound(
    expr::Evaluator* vm, const expr::CompiledExpr& fn,
    const gsql::StreamSchema& input_schema, size_t source,
    const expr::Value& bound, const std::vector<expr::Value>* params);

/// The aggregation core shared by both halves of a split aggregation (§3):
/// the LFTA's direct-mapped pre-aggregation and the HFTA's ordered
/// group-by (which also serves unsplit aggregation and the superaggregate
/// re-merging LFTA partials). It polls input batches, packs each tuple's
/// group key and reads its aggregate arguments, tracks the ordered key's
/// epoch (its running maximum), translates input punctuations into bounds
/// on the ordered key, and publishes the tuples the store emits.
///
/// Keys and arguments come straight from the input bytes where they can:
/// a key that is a plain load of a copyable field (rts::TupleCodec::
/// CopyableField) is a memcpy into the packed key, and such an argument is
/// read as a word. Only when some key or argument needs the VM is the
/// input decoded into a Row.
///
/// A subclass supplies only its group store and close policy: how a tuple
/// folds in (Fold), what an ordered-key advance or a translated
/// punctuation closes (OnAdvance, OnPunctuation), and how end-of-stream
/// empties the store (CloseAll).
class AggregateNode : public rts::QueryNode {
 public:
  struct Spec {
    std::string name;
    gsql::StreamSchema input_schema;
    gsql::StreamSchema output_schema;  // keys then aggregates
    std::vector<expr::CompiledExpr> keys;
    std::vector<expr::AggregateSpec> agg_specs;
    std::vector<std::optional<expr::CompiledExpr>> agg_args;  // per spec
    int ordered_key = -1;
    /// Band width of the ordered key: groups close only once the key's
    /// running maximum exceeds them by more than the band (0 = monotone).
    uint64_t ordered_key_band = 0;
    /// The single input field the ordered key depends on, through which
    /// input punctuations translate into key bounds; -1 otherwise.
    int ordered_key_source = -1;
    /// Upper bound on messages per published output batch.
    size_t output_batch = 64;
  };

  size_t Poll(size_t budget) final;
  void Flush() final;

 protected:
  AggregateNode(Spec spec, rts::Subscription input,
                rts::StreamRegistry* registry, rts::ParamBlock params);

  /// Folds one tuple into the group store: `key` is its packed group key,
  /// `args` one argument per aggregate.
  virtual void Fold(ByteSpan key, const FoldArg* args, uint32_t weight) = 0;
  /// A tuple's ordered key rose above the epoch (called before the epoch
  /// moves to it and before the tuple folds).
  virtual void OnAdvance(const expr::Value& ordered) = 0;
  /// An input punctuation translated to a lower bound on the ordered key.
  virtual void OnPunctuation(const expr::Value& bound) = 0;
  /// End of stream: emits every open group.
  virtual void CloseAll() = 0;

  /// Publishes one output tuple (a group's key bytes and aggregates).
  void EmitTuple(ByteBuffer tuple);
  /// Emits a punctuation bounding the ordered key.
  void EmitPunctuation(const expr::Value& bound);

  const Spec& spec() const { return spec_; }
  const GroupLayout& layout() const { return layout_; }
  /// Running maximum of the ordered key (nullopt before the first tuple).
  const std::optional<expr::Value>& epoch() const { return epoch_; }
  void set_epoch(expr::Value epoch);

 private:
  /// One step of packing a key: copy `width` input bytes at `offset`
  /// (adjacent copyable keys merged into one run), or, with width 0,
  /// evaluate key `key` with the VM and pack its value.
  struct KeyStep {
    size_t offset = 0;
    size_t width = 0;
    size_t key = 0;
  };

  void ProcessTuple(const ByteBuffer& payload, uint32_t weight);
  void ProcessPunctuation(const ByteBuffer& payload);

  Spec spec_;
  rts::Subscription input_;
  rts::ParamBlock params_;
  rts::TupleCodec input_codec_;
  rts::TupleCodec output_codec_;
  rts::BatchWriter writer_;
  expr::Evaluator vm_;
  GroupLayout layout_;
  std::vector<KeyStep> key_steps_;
  /// Per aggregate, the input bytes a plain-load argument is read from
  /// (width 0: COUNT(*), or evaluated by the VM).
  std::vector<rts::TupleCodec::ByteRange> arg_reads_;
  bool needs_row_ = false;  // some key or argument runs on the VM
  ByteBuffer key_;                       // the current tuple's packed key
  std::vector<FoldArg> args_;            // its arguments
  std::vector<expr::Value> arg_values_;  // VM results args_ may point into
  std::optional<expr::Value> epoch_;
  ByteBuffer epoch_key_;  // epoch_ packed, compared per tuple
};

/// Ordered group-by/aggregation (§2.1): the group key contains an ordered
/// attribute; when a tuple arrives whose ordered key exceeds every open
/// group, the groups below it (less the band) close and flush in key
/// order, followed by a punctuation on the close bound; a translated input
/// punctuation closes the groups below it and is forwarded. With no
/// ordered key (ordered_key = -1) the state is unbounded and emits only on
/// Flush() — permitted but warned about, as in the paper.
///
/// This node serves both as the HFTA-side full aggregation and as the
/// superaggregate of a split aggregation (the specs then re-aggregate the
/// LFTA's subaggregate columns, merging partials in place).
///
/// Open groups live in a flat open-addressing table keyed by packed key
/// bytes: groups sit densely in arrival order (keys in one byte arena,
/// cells beside them), and a linear-probing index maps key hashes to them.
/// A close sorts the closing groups with GroupLayout::KeyLess and compacts
/// the survivors.
class OrderedAggregateNode : public AggregateNode {
 public:
  OrderedAggregateNode(Spec spec, rts::Subscription input,
                       rts::StreamRegistry* registry, rts::ParamBlock params);

  void RegisterTelemetry(telemetry::Registry* metrics) const override;

  size_t open_groups() const { return groups_.size(); }
  uint64_t groups_flushed() const { return groups_flushed_.value(); }

 private:
  struct Group {
    size_t key_offset = 0;  // into keys_
    size_t key_size = 0;
    uint64_t hash = 0;
  };

  void Fold(ByteSpan key, const FoldArg* args, uint32_t weight) override;
  void OnAdvance(const expr::Value& ordered) override;
  void OnPunctuation(const expr::Value& bound) override;
  void CloseAll() override { FlushGroups(std::nullopt); }

  /// Flushes groups whose ordered key is strictly below `bound` (all groups
  /// when bound is nullopt), in key order.
  void FlushGroups(const std::optional<expr::Value>& bound);
  /// Rebuilds the index over groups_ with `slots` entries.
  void Reindex(size_t slots);

  ByteSpan KeyOf(const Group& group) const {
    return ByteSpan(keys_.data() + group.key_offset, group.key_size);
  }
  uint64_t* WordsOf(size_t g) {
    return words_.data() + g * layout().num_words();
  }
  std::string* TextsOf(size_t g) {
    return texts_.data() + g * layout().num_texts();
  }

  std::vector<Group> groups_;
  ByteBuffer keys_;
  std::vector<uint64_t> words_;
  std::vector<std::string> texts_;
  /// Power-of-two linear-probing index: group number + 1, 0 = empty.
  std::vector<uint32_t> index_;
  std::vector<uint32_t> closing_;  // FlushGroups scratch
  telemetry::Counter groups_flushed_;
  /// Mirrors groups_.size() so other threads can read the gauge without
  /// touching the (unsynchronized) group table.
  telemetry::Counter open_groups_;
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_AGGREGATE_H_
