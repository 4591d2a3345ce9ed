#ifndef GIGASCOPE_OPS_LFTA_AGG_H_
#define GIGASCOPE_OPS_LFTA_AGG_H_

#include <optional>
#include <utility>
#include <vector>

#include "ops/aggregate.h"
#include "rts/shed_state.h"

namespace gigascope::ops {

/// Largest `log2_slots` a DirectMappedAggTable accepts (16M slots).
inline constexpr int kMaxLftaHashLog2 = 24;

/// The LFTA's small direct-mapped aggregation hash table (§3).
///
/// No chaining: a hash collision ejects the incumbent group, which is
/// written to the output stream as a partial (sub)aggregate; the HFTA
/// superaggregate re-merges partials. Because of temporal locality,
/// aggregation is effective at early data reduction even with a small
/// table — the property ablated by bench/e3_lfta_hash.
class DirectMappedAggTable {
 public:
  /// `log2_slots`, in [0, kMaxLftaHashLog2], gives 2^log2_slots slots.
  DirectMappedAggTable(int log2_slots,
                       const std::vector<expr::AggregateSpec>* specs);

  /// Folds a tuple into the group with `keys`, weighted by `weight`
  /// (Horvitz-Thompson scaling under source sampling). When a different
  /// group occupies the slot, returns the ejected (keys,
  /// accumulator-finalized values) pair.
  std::optional<std::pair<rts::Row, rts::Row>> Upsert(
      rts::Row keys, const std::vector<std::optional<expr::Value>>& args,
      uint64_t weight = 1);

  /// Removes and returns all occupied groups (epoch close), in slot order.
  std::vector<std::pair<rts::Row, rts::Row>> DrainAll();

  /// Force-evicts the least-recently-touched groups until at most `target`
  /// remain (L3 shedding). Evictees are partials — always safe, the HFTA
  /// re-merges them — returned coldest first.
  std::vector<std::pair<rts::Row, rts::Row>> EvictColdest(size_t target);

  size_t num_slots() const { return slots_.size(); }
  size_t occupied() const { return static_cast<size_t>(occupied_.value()); }
  uint64_t updates() const { return updates_.value(); }
  uint64_t evictions() const { return evictions_.value(); }
  uint64_t shed_evictions() const { return shed_evictions_.value(); }

 private:
  struct Slot {
    bool used = false;
    uint64_t last_touch = 0;  // tick of the last Upsert into this slot
    rts::Row keys;
    std::optional<GroupAccumulator> acc;
  };

  const std::vector<expr::AggregateSpec>* specs_;
  std::vector<Slot> slots_;
  size_t mask_;
  uint64_t tick_ = 0;  // advances once per Upsert; orders slot coldness
  // Telemetry counters: written by the owning LFTA thread only, readable
  // from any thread via the engine's stats snapshots.
  telemetry::Counter occupied_;
  telemetry::Counter updates_;
  telemetry::Counter evictions_;
  telemetry::Counter shed_evictions_;
};

/// LFTA-side pre-aggregation node: the aggregation core over a
/// DirectMappedAggTable. A collision ejects the incumbent group as a
/// partial at once; an ordered-key advance (from a tuple, or a punctuation
/// above the epoch) drains every group in slot order and emits the new
/// epoch less the band as a punctuation — feeding the HFTA superaggregate.
class LftaAggregateNode : public AggregateNode {
 public:
  /// `shed` (optional) is the engine's shared shedding state: the node
  /// reads the epoch coarsening factor and table cap from it on the fly
  /// (the sampling weight rides on each message). Reads are relaxed
  /// atomics; the node runs on the same thread as the controller that
  /// writes them (the inject thread).
  LftaAggregateNode(Spec spec, int log2_slots, rts::Subscription input,
                    rts::StreamRegistry* registry, rts::ParamBlock params,
                    const rts::ShedState* shed = nullptr);

  void RegisterTelemetry(telemetry::Registry* metrics) const override;

  const DirectMappedAggTable& table() const { return table_; }

 private:
  void Fold(rts::Row keys, const Args& args, uint32_t weight) override;
  /// Counts an ordered-key advance to `new_epoch` and drains once every
  /// `epoch_coarsen` advances (L2 shedding; factor 1 = drain every time).
  void OnAdvance(const expr::Value& new_epoch) override;
  /// A punctuation above the epoch counts as an advance to it.
  void OnPunctuation(const expr::Value& bound) override;
  void CloseAll() override;
  /// Applies the L3 occupancy cap, force-evicting coldest groups.
  void EnforceTableCap();

  DirectMappedAggTable table_;
  const rts::ShedState* shed_;
  uint32_t epoch_advances_ = 0;  // ordered-key advances since last drain
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_LFTA_AGG_H_
