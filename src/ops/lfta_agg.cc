#include "ops/lfta_agg.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "telemetry/metric_names.h"

namespace gigascope::ops {

using expr::Value;

DirectMappedAggTable::DirectMappedAggTable(int log2_slots,
                                           const GroupLayout* layout)
    : layout_(layout), key_stride_(layout->min_key_size()) {
  GS_CHECK(log2_slots >= 0 && log2_slots <= kMaxLftaHashLog2);
  const size_t slots = size_t{1} << log2_slots;
  slots_.resize(slots);
  keys_.resize(slots * key_stride_);
  words_.resize(slots * layout_->num_words());
  texts_.resize(slots * layout_->num_texts());
  mask_ = slots - 1;
}

void DirectMappedAggTable::WidenKeys(size_t size) {
  const size_t stride = std::max(size, 2 * key_stride_);
  ByteBuffer keys(slots_.size() * stride);
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].key_size == 0) continue;
    std::memcpy(keys.data() + s * stride, keys_.data() + s * key_stride_,
                slots_[s].key_size);
  }
  keys_ = std::move(keys);
  key_stride_ = stride;
}

bool DirectMappedAggTable::Upsert(ByteSpan key, const FoldArg* args,
                                  uint64_t weight, ByteBuffer* ejected) {
  ++updates_;
  const size_t s = SlotOf(key);
  Slot& slot = slots_[s];
  bool ejecting = false;
  if (slot.used && !SameKey(KeyOf(s), key)) {
    // Collision: eject the incumbent as a partial aggregate (§3).
    ++evictions_;
    ejected->clear();
    layout_->Emit(KeyOf(s), WordsOf(s), TextsOf(s), ejected);
    ejecting = true;
    slot.used = false;
    --occupied_;
  }
  slot.last_touch = ++tick_;
  if (slot.used) {
    layout_->Fold(WordsOf(s), TextsOf(s), args, weight);
  } else {
    if (key.size() > key_stride_) WidenKeys(key.size());
    slot.used = true;
    slot.key_size = static_cast<uint32_t>(key.size());
    if (!key.empty()) {
      std::memcpy(keys_.data() + s * key_stride_, key.data(), key.size());
    }
    layout_->Start(WordsOf(s), TextsOf(s), args, weight);
    ++occupied_;
  }
  return ejecting;
}

ByteBuffer DirectMappedAggTable::Take(size_t slot) {
  ByteBuffer tuple;
  layout_->Emit(KeyOf(slot), WordsOf(slot), TextsOf(slot), &tuple);
  slots_[slot].used = false;
  return tuple;
}

std::vector<ByteBuffer> DirectMappedAggTable::DrainAll() {
  std::vector<ByteBuffer> out;
  out.reserve(occupied());
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].used) out.push_back(Take(s));
  }
  occupied_.Set(0);
  return out;
}

std::vector<ByteBuffer> DirectMappedAggTable::EvictColdest(size_t target) {
  std::vector<ByteBuffer> out;
  if (occupied() <= target) return out;
  size_t to_evict = occupied() - target;
  // Collect used slots ordered by last_touch and evict the oldest. The scan
  // is O(slots); callers amortize it by evicting a chunk below the cap.
  std::vector<size_t> used;
  used.reserve(occupied());
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].used) used.push_back(i);
  }
  std::partial_sort(used.begin(), used.begin() + to_evict, used.end(),
                    [this](size_t a, size_t b) {
                      return slots_[a].last_touch < slots_[b].last_touch;
                    });
  out.reserve(to_evict);
  for (size_t i = 0; i < to_evict; ++i) {
    out.push_back(Take(used[i]));
    ++evictions_;
    ++shed_evictions_;
    --occupied_;
  }
  return out;
}

LftaAggregateNode::LftaAggregateNode(Spec spec, int log2_slots,
                                     rts::Subscription input,
                                     rts::StreamRegistry* registry,
                                     rts::ParamBlock params,
                                     const rts::ShedState* shed)
    : AggregateNode(std::move(spec), std::move(input), registry,
                    std::move(params)),
      table_(log2_slots, &layout()),
      shed_(shed) {}

void LftaAggregateNode::Fold(ByteSpan key, const FoldArg* args,
                             uint32_t weight) {
  if (table_.Upsert(key, args, weight, &ejected_)) {
    EmitTuple(std::move(ejected_));
  }
  EnforceTableCap();
}

void LftaAggregateNode::OnAdvance(const Value& new_epoch) {
  // L2 shedding: batch several ordered-key advances into one drain, cutting
  // per-epoch drain + punctuation cost. Coarsening delays window closes but
  // never loses them — every coarsen-th advance still drains everything and
  // emits the punctuation for the newest bound.
  uint32_t coarsen = shed_ ? shed_->EpochCoarsen() : 1;
  if (coarsen > 1 && ++epoch_advances_ < coarsen) return;
  epoch_advances_ = 0;
  // Draining everything is always safe — drained groups are partial
  // aggregates the HFTA re-merges — but the ordering promise must honour
  // the band: late arrivals within it will re-open groups below new_epoch.
  CloseAll();
  EmitPunctuation(ReduceByBand(new_epoch, spec().ordered_key_band));
}

void LftaAggregateNode::OnPunctuation(const Value& bound) {
  if (epoch().has_value() && bound.Compare(*epoch()) <= 0) return;
  OnAdvance(bound);
  set_epoch(bound);
}

void LftaAggregateNode::EnforceTableCap() {
  uint32_t cap_pct = shed_ ? shed_->TableCapPct() : 100;
  if (cap_pct >= 100) return;
  size_t cap = table_.num_slots() * cap_pct / 100;
  if (table_.occupied() <= cap) return;
  // Evict a chunk below the cap (not just one) so the O(slots) coldness
  // scan amortizes over many upserts.
  size_t target = cap - cap / 8;
  for (ByteBuffer& tuple : table_.EvictColdest(target)) {
    EmitTuple(std::move(tuple));
  }
}

void LftaAggregateNode::CloseAll() {
  for (ByteBuffer& tuple : table_.DrainAll()) EmitTuple(std::move(tuple));
}

void LftaAggregateNode::RegisterTelemetry(
    telemetry::Registry* metrics) const {
  QueryNode::RegisterTelemetry(metrics);
  metrics->RegisterReader(name(), telemetry::metric::kLftaUpdates,
                          [this] { return table_.updates(); });
  metrics->RegisterReader(name(), telemetry::metric::kLftaEvictions,
                          [this] { return table_.evictions(); });
  metrics->RegisterReader(name(), telemetry::metric::kLftaOccupied, [this] {
    return static_cast<uint64_t>(table_.occupied());
  });
  metrics->RegisterReader(name(), telemetry::metric::kLftaShedEvictions,
                          [this] { return table_.shed_evictions(); });
}

}  // namespace gigascope::ops
