#include "ops/lfta_agg.h"

#include <algorithm>

#include "common/logging.h"
#include "telemetry/metric_names.h"

namespace gigascope::ops {

using expr::Value;

DirectMappedAggTable::DirectMappedAggTable(
    int log2_slots, const std::vector<expr::AggregateSpec>* specs)
    : specs_(specs) {
  GS_CHECK(log2_slots >= 0 && log2_slots <= kMaxLftaHashLog2);
  slots_.resize(size_t{1} << log2_slots);
  mask_ = slots_.size() - 1;
}

std::optional<std::pair<rts::Row, rts::Row>> DirectMappedAggTable::Upsert(
    rts::Row keys, const std::vector<std::optional<Value>>& args,
    uint64_t weight) {
  ++updates_;
  size_t slot_index = RowHash{}(keys) & mask_;
  Slot& slot = slots_[slot_index];
  std::optional<std::pair<rts::Row, rts::Row>> ejected;

  if (slot.used && !RowEq{}(slot.keys, keys)) {
    // Collision: eject the incumbent as a partial aggregate (§3).
    ++evictions_;
    ejected.emplace(std::move(slot.keys), slot.acc->Finalize());
    slot.used = false;
    --occupied_;
  }
  if (!slot.used) {
    slot.used = true;
    slot.keys = std::move(keys);
    slot.acc.emplace(specs_);
    ++occupied_;
  }
  slot.last_touch = ++tick_;
  slot.acc->Update(args, weight);
  return ejected;
}

std::vector<std::pair<rts::Row, rts::Row>> DirectMappedAggTable::DrainAll() {
  std::vector<std::pair<rts::Row, rts::Row>> out;
  out.reserve(occupied());
  for (Slot& slot : slots_) {
    if (!slot.used) continue;
    out.emplace_back(std::move(slot.keys), slot.acc->Finalize());
    slot.used = false;
    slot.acc.reset();
  }
  occupied_.Set(0);
  return out;
}

std::vector<std::pair<rts::Row, rts::Row>> DirectMappedAggTable::EvictColdest(
    size_t target) {
  std::vector<std::pair<rts::Row, rts::Row>> out;
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
    Slot& slot = slots_[used[i]];
    out.emplace_back(std::move(slot.keys), slot.acc->Finalize());
    slot.used = false;
    slot.acc.reset();
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
      table_(log2_slots, &this->spec().agg_specs),
      shed_(shed) {}

void LftaAggregateNode::Fold(rts::Row keys, const Args& args,
                             uint32_t weight) {
  auto ejected = table_.Upsert(std::move(keys), args, weight);
  if (ejected.has_value()) EmitGroup(ejected->first, ejected->second);
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
  for (const auto& [keys, aggs] : table_.EvictColdest(target)) {
    EmitGroup(keys, aggs);
  }
}

void LftaAggregateNode::CloseAll() {
  for (const auto& [keys, aggs] : table_.DrainAll()) EmitGroup(keys, aggs);
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
