#ifndef GIGASCOPE_OPS_LFTA_AGG_H_
#define GIGASCOPE_OPS_LFTA_AGG_H_

#include <string>
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
///
/// A slot holds a group's packed key bytes and its accumulator cells
/// (GroupLayout), in flat arrays: every slot has the same key room, the
/// size of the widest key seen (fixed when no key field is a STRING). A
/// key lands in slot GroupLayout::KeyHash & mask. Ejected and drained
/// groups come out as output tuples: the key bytes followed by the
/// aggregates.
class DirectMappedAggTable {
 public:
  /// `log2_slots`, in [0, kMaxLftaHashLog2], gives 2^log2_slots slots.
  DirectMappedAggTable(int log2_slots, const GroupLayout* layout);

  /// Folds a tuple into the group with packed key `key`, weighted by
  /// `weight` (Horvitz-Thompson scaling under source sampling). When a
  /// different group occupies the slot, replaces `*ejected` with that
  /// group's output tuple and returns true.
  bool Upsert(ByteSpan key, const FoldArg* args, uint64_t weight,
              ByteBuffer* ejected);

  /// Removes every occupied group (epoch close) and returns their output
  /// tuples in slot order.
  std::vector<ByteBuffer> DrainAll();

  /// Force-evicts the least-recently-touched groups until at most `target`
  /// remain (L3 shedding). Evictees are partials — always safe, the HFTA
  /// re-merges them — returned coldest first.
  std::vector<ByteBuffer> EvictColdest(size_t target);

  /// The slot the group with packed key `key` lands in.
  size_t SlotOf(ByteSpan key) const { return layout_->KeyHash(key) & mask_; }

  size_t num_slots() const { return slots_.size(); }
  size_t occupied() const { return static_cast<size_t>(occupied_.value()); }
  uint64_t updates() const { return updates_.value(); }
  uint64_t evictions() const { return evictions_.value(); }
  uint64_t shed_evictions() const { return shed_evictions_.value(); }

 private:
  struct Slot {
    uint64_t last_touch = 0;  // tick of the last Upsert into this slot
    uint32_t key_size = 0;
    bool used = false;
  };

  ByteSpan KeyOf(size_t slot) const {
    return ByteSpan(keys_.data() + slot * key_stride_, slots_[slot].key_size);
  }
  uint64_t* WordsOf(size_t slot) {
    return words_.data() + slot * layout_->num_words();
  }
  std::string* TextsOf(size_t slot) {
    return texts_.data() + slot * layout_->num_texts();
  }
  /// Widens every slot's key room to at least `size` bytes (a STRING key
  /// longer than any before it).
  void WidenKeys(size_t size);
  /// Empties slot `slot` into a fresh output tuple.
  ByteBuffer Take(size_t slot);

  const GroupLayout* layout_;
  std::vector<Slot> slots_;
  ByteBuffer keys_;                 // key_stride_ bytes of key room per slot
  size_t key_stride_;
  std::vector<uint64_t> words_;     // num_words() cells per slot
  std::vector<std::string> texts_;  // num_texts() text cells per slot
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
  void Fold(ByteSpan key, const FoldArg* args, uint32_t weight) override;
  /// Counts an ordered-key advance to `new_epoch` and drains once every
  /// `epoch_coarsen` advances (L2 shedding; factor 1 = drain every time).
  void OnAdvance(const expr::Value& new_epoch) override;
  /// A punctuation above the epoch counts as an advance to it.
  void OnPunctuation(const expr::Value& bound) override;
  void CloseAll() override;
  /// Applies the L3 occupancy cap, force-evicting coldest groups.
  void EnforceTableCap();

  DirectMappedAggTable table_;
  ByteBuffer ejected_;  // Upsert's output buffer
  const rts::ShedState* shed_;
  uint32_t epoch_advances_ = 0;  // ordered-key advances since last drain
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_LFTA_AGG_H_
