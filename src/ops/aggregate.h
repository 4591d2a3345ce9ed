#ifndef GIGASCOPE_OPS_AGGREGATE_H_
#define GIGASCOPE_OPS_AGGREGATE_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/codegen.h"
#include "expr/vm.h"
#include "rts/node.h"
#include "rts/punctuation.h"
#include "rts/tuple.h"

namespace gigascope::ops {

/// Running state of one group's aggregates (COUNT/SUM/MIN/MAX; AVG is
/// decomposed by the planner).
class GroupAccumulator {
 public:
  explicit GroupAccumulator(const std::vector<expr::AggregateSpec>* specs);

  /// Folds one input tuple in. `args[i]` is the evaluated argument of
  /// spec i (nullopt for COUNT(*)). `weight` is the number of input tuples
  /// this one stands for (Horvitz-Thompson): under 1-in-k source sampling
  /// the LFTA folds survivors with weight k, so COUNT adds k and SUM adds
  /// k*v — unbiased estimates of the unsampled aggregate. MIN/MAX are
  /// order statistics and take the value unweighted.
  void Update(const std::vector<std::optional<expr::Value>>& args,
              uint64_t weight = 1);

  /// Merges another accumulator of the same spec list (superaggregation).
  void Merge(const GroupAccumulator& other);

  /// Produces the aggregate values in spec order.
  rts::Row Finalize() const;

  uint64_t rows() const { return rows_; }

 private:
  const std::vector<expr::AggregateSpec>* specs_;
  uint64_t rows_ = 0;
  struct Cell {
    uint64_t count = 0;
    int64_t sum_int = 0;
    uint64_t sum_uint = 0;
    double sum_float = 0;
    std::optional<expr::Value> extremum;
  };
  std::vector<Cell> cells_;
};

/// Lowers a numeric bound by `band` (saturating for unsigned types):
/// on a banded-increasing stream, a value v only guarantees that no future
/// value falls below v - band.
expr::Value ReduceByBand(const expr::Value& value, uint64_t band);

/// Hash/equality over key rows, for group maps.
struct RowHash {
  size_t operator()(const rts::Row& row) const;
};
struct RowEq {
  bool operator()(const rts::Row& a, const rts::Row& b) const;
};

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
/// re-merging LFTA partials). It polls input batches, decodes each tuple,
/// evaluates group keys and aggregate arguments, tracks the ordered key's
/// epoch (its running maximum), translates input punctuations into bounds
/// on the ordered key, and encodes keys plus finalized aggregates.
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

  /// Evaluated aggregate arguments, one per spec (nullopt for COUNT(*)).
  using Args = std::vector<std::optional<expr::Value>>;

  size_t Poll(size_t budget) final;
  void Flush() final;

 protected:
  AggregateNode(Spec spec, rts::Subscription input,
                rts::StreamRegistry* registry, rts::ParamBlock params);

  /// Folds one evaluated tuple into the group store.
  virtual void Fold(rts::Row keys, const Args& args, uint32_t weight) = 0;
  /// A tuple's ordered key rose above the epoch (called before the epoch
  /// moves to it and before the tuple folds).
  virtual void OnAdvance(const expr::Value& ordered) = 0;
  /// An input punctuation translated to a lower bound on the ordered key.
  virtual void OnPunctuation(const expr::Value& bound) = 0;
  /// End of stream: emits every open group.
  virtual void CloseAll() = 0;

  /// Encodes keys followed by finalized aggregates as one output tuple.
  void EmitGroup(const rts::Row& keys, const rts::Row& aggs);
  /// Emits a punctuation bounding the ordered key.
  void EmitPunctuation(const expr::Value& bound);

  const Spec& spec() const { return spec_; }
  /// Running maximum of the ordered key (nullopt before the first tuple).
  const std::optional<expr::Value>& epoch() const { return epoch_; }
  void set_epoch(expr::Value epoch) { epoch_ = std::move(epoch); }

 private:
  void ProcessTuple(const ByteBuffer& payload, uint32_t weight);
  void ProcessPunctuation(const ByteBuffer& payload);

  Spec spec_;
  rts::Subscription input_;
  rts::ParamBlock params_;
  rts::TupleCodec input_codec_;
  rts::TupleCodec output_codec_;
  rts::BatchWriter writer_;
  expr::Evaluator vm_;
  std::optional<expr::Value> epoch_;
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
/// LFTA's subaggregate columns).
class OrderedAggregateNode : public AggregateNode {
 public:
  OrderedAggregateNode(Spec spec, rts::Subscription input,
                       rts::StreamRegistry* registry, rts::ParamBlock params);

  void RegisterTelemetry(telemetry::Registry* metrics) const override;

  size_t open_groups() const { return groups_.size(); }
  uint64_t groups_flushed() const { return groups_flushed_.value(); }

 private:
  void Fold(rts::Row keys, const Args& args, uint32_t weight) override;
  void OnAdvance(const expr::Value& ordered) override;
  void OnPunctuation(const expr::Value& bound) override;
  void CloseAll() override { FlushGroups(std::nullopt); }

  /// Flushes groups whose ordered key is strictly below `bound` (all groups
  /// when bound is nullopt), in key order.
  void FlushGroups(const std::optional<expr::Value>& bound);

  std::unordered_map<rts::Row, GroupAccumulator, RowHash, RowEq> groups_;
  telemetry::Counter groups_flushed_;
  /// Mirrors groups_.size() so other threads can read the gauge without
  /// touching the (unsynchronized) group map.
  telemetry::Counter open_groups_;
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_AGGREGATE_H_
