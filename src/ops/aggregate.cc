#include "ops/aggregate.h"

#include <algorithm>

#include "common/logging.h"
#include "expr/vm.h"
#include "telemetry/metric_names.h"

namespace gigascope::ops {

using expr::AggFn;
using expr::AggregateSpec;
using expr::Value;
using gsql::DataType;

namespace {

/// sum + v * weight modulo 2^64, as the VM does INT arithmetic: a signed
/// overflow would be undefined behaviour.
int64_t WrapAdd(int64_t sum, int64_t v, uint64_t weight = 1) {
  return static_cast<int64_t>(static_cast<uint64_t>(sum) +
                              static_cast<uint64_t>(v) * weight);
}

}  // namespace

GroupAccumulator::GroupAccumulator(const std::vector<AggregateSpec>* specs)
    : specs_(specs), cells_(specs->size()) {}

void GroupAccumulator::Update(
    const std::vector<std::optional<Value>>& args, uint64_t weight) {
  rows_ += weight;
  for (size_t i = 0; i < specs_->size(); ++i) {
    const AggregateSpec& spec = (*specs_)[i];
    Cell& cell = cells_[i];
    switch (spec.fn) {
      case AggFn::kCount:
        cell.count += weight;
        break;
      case AggFn::kSum: {
        GS_CHECK(args[i].has_value());
        const Value& v = *args[i];
        switch (v.type()) {
          case DataType::kInt:
            cell.sum_int = WrapAdd(cell.sum_int, v.int_value(), weight);
            break;
          case DataType::kUint:
            cell.sum_uint += v.uint_value() * weight;
            break;
          case DataType::kFloat:
            cell.sum_float += v.float_value() * static_cast<double>(weight);
            break;
          default:
            cell.sum_uint += v.uint_value() * weight;
            break;
        }
        break;
      }
      case AggFn::kMin:
      case AggFn::kMax: {
        GS_CHECK(args[i].has_value());
        const Value& v = *args[i];
        if (!cell.extremum.has_value()) {
          cell.extremum = v;
        } else {
          int cmp = v.Compare(*cell.extremum);
          if ((spec.fn == AggFn::kMin && cmp < 0) ||
              (spec.fn == AggFn::kMax && cmp > 0)) {
            cell.extremum = v;
          }
        }
        break;
      }
      case AggFn::kAvg:
        GS_CHECK(false && "AVG must be decomposed by the planner");
        break;
    }
  }
}

void GroupAccumulator::Merge(const GroupAccumulator& other) {
  GS_CHECK(specs_ == other.specs_ || specs_->size() == other.specs_->size());
  rows_ += other.rows_;
  for (size_t i = 0; i < cells_.size(); ++i) {
    const AggregateSpec& spec = (*specs_)[i];
    Cell& cell = cells_[i];
    const Cell& in = other.cells_[i];
    switch (spec.fn) {
      case AggFn::kCount:
        cell.count += in.count;
        break;
      case AggFn::kSum:
        cell.sum_int = WrapAdd(cell.sum_int, in.sum_int);
        cell.sum_uint += in.sum_uint;
        cell.sum_float += in.sum_float;
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        if (in.extremum.has_value()) {
          if (!cell.extremum.has_value()) {
            cell.extremum = in.extremum;
          } else {
            int cmp = in.extremum->Compare(*cell.extremum);
            if ((spec.fn == AggFn::kMin && cmp < 0) ||
                (spec.fn == AggFn::kMax && cmp > 0)) {
              cell.extremum = in.extremum;
            }
          }
        }
        break;
      case AggFn::kAvg:
        break;
    }
  }
}

rts::Row GroupAccumulator::Finalize() const {
  rts::Row out;
  out.reserve(specs_->size());
  for (size_t i = 0; i < specs_->size(); ++i) {
    const AggregateSpec& spec = (*specs_)[i];
    const Cell& cell = cells_[i];
    switch (spec.fn) {
      case AggFn::kCount:
        out.push_back(Value::Uint(cell.count));
        break;
      case AggFn::kSum:
        switch (spec.result_type) {
          case DataType::kInt: out.push_back(Value::Int(cell.sum_int)); break;
          case DataType::kFloat:
            out.push_back(Value::Float(cell.sum_float));
            break;
          default:
            out.push_back(Value::Uint(cell.sum_uint));
            break;
        }
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        out.push_back(cell.extremum.value_or(
            Value::Default(spec.result_type)));
        break;
      case AggFn::kAvg:
        out.push_back(Value::Float(0));
        break;
    }
  }
  return out;
}

expr::Value ReduceByBand(const expr::Value& value, uint64_t band) {
  if (band == 0) return value;
  switch (value.type()) {
    case DataType::kUint:
      return Value::Uint(value.uint_value() >= band
                             ? value.uint_value() - band
                             : 0);
    case DataType::kInt:
      return Value::Int(value.int_value() - static_cast<int64_t>(band));
    case DataType::kFloat:
      return Value::Float(value.float_value() - static_cast<double>(band));
    default:
      return value;
  }
}

size_t RowHash::operator()(const rts::Row& row) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Value& value : row) {
    h ^= value.Hash();
    h *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(h);
}

bool RowEq::operator()(const rts::Row& a, const rts::Row& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type() || a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

std::optional<Value> TranslateBound(expr::Evaluator* vm,
                                    const expr::CompiledExpr& fn,
                                    const gsql::StreamSchema& input_schema,
                                    size_t source, const Value& bound,
                                    const std::vector<Value>* params) {
  rts::Row synthetic;
  synthetic.reserve(input_schema.num_fields());
  for (size_t f = 0; f < input_schema.num_fields(); ++f) {
    synthetic.push_back(Value::Default(input_schema.field(f).type));
  }
  synthetic[source] = bound;
  expr::EvalContext ctx;
  ctx.row0 = &synthetic;
  ctx.params = params;
  expr::EvalOutput out;
  if (!vm->Eval(fn, ctx, &out).ok() || !out.has_value) return std::nullopt;
  return std::move(out.value);
}

AggregateNode::AggregateNode(Spec spec, rts::Subscription input,
                             rts::StreamRegistry* registry,
                             rts::ParamBlock params)
    : QueryNode(spec.name),
      spec_(std::move(spec)),
      input_(std::move(input)),
      params_(std::move(params)),
      input_codec_(spec_.input_schema),
      output_codec_(spec_.output_schema),
      writer_(registry, spec_.name, spec_.output_batch) {
  RegisterInput(input_);
}

size_t AggregateNode::Poll(size_t budget) {
  size_t processed = 0;
  rts::StreamBatch batch;
  // Batch-at-a-time: one pop per ring slot, then a tight loop over its
  // messages (the budget may overshoot by at most one batch).
  while (processed < budget && input_->TryPop(&batch)) {
    for (rts::StreamMessage& message : batch.items) {
      ++processed;
      BeginMessage(message);
      if (message.kind == rts::StreamMessage::Kind::kTuple) {
        ProcessTuple(message.payload, message.weight);
      } else {
        ProcessPunctuation(message.payload);
      }
      EndMessage();
    }
  }
  writer_.Flush();
  return processed;
}

void AggregateNode::ProcessTuple(const ByteBuffer& payload,
                                 uint32_t weight) {
  ++tuples_in_;
  auto row = input_codec_.Decode(ByteSpan(payload.data(), payload.size()));
  if (!row.ok()) {
    ++eval_errors_;
    return;
  }
  expr::EvalContext ctx;
  ctx.row0 = &row.value();
  ctx.params = params_.get();

  rts::Row keys;
  keys.reserve(spec_.keys.size());
  for (const expr::CompiledExpr& key : spec_.keys) {
    expr::EvalOutput out;
    if (!vm_.Eval(key, ctx, &out).ok()) {
      ++eval_errors_;
      return;
    }
    if (!out.has_value) return;  // partial miss discards the tuple
    keys.push_back(std::move(out.value));
  }

  if (spec_.ordered_key >= 0) {
    const Value& ordered = keys[static_cast<size_t>(spec_.ordered_key)];
    if (epoch_.has_value() && ordered.Compare(*epoch_) > 0) {
      OnAdvance(ordered);
    }
    if (!epoch_.has_value() || ordered.Compare(*epoch_) > 0) {
      epoch_ = ordered;
    }
  }

  Args args(spec_.agg_specs.size());
  for (size_t i = 0; i < spec_.agg_args.size(); ++i) {
    if (!spec_.agg_args[i].has_value()) continue;
    expr::EvalOutput out;
    if (!vm_.Eval(*spec_.agg_args[i], ctx, &out).ok()) {
      ++eval_errors_;
      return;
    }
    if (!out.has_value) return;
    args[i] = std::move(out.value);
  }

  // Under L1 sampling a source tuple stands for `weight` offered ones
  // (stamped on the message at the sampling decision); folding with it
  // keeps COUNT/SUM unbiased. LFTA partials and operator output carry 1.
  Fold(std::move(keys), args, weight);
}

void AggregateNode::ProcessPunctuation(const ByteBuffer& payload) {
  if (spec_.ordered_key < 0 || spec_.ordered_key_source < 0) return;
  auto punctuation = rts::DecodePunctuation(
      ByteSpan(payload.data(), payload.size()), spec_.input_schema);
  if (!punctuation.ok()) return;
  const size_t source = static_cast<size_t>(spec_.ordered_key_source);
  auto bound = punctuation->BoundFor(source);
  if (!bound.has_value()) return;
  std::optional<Value> key_bound = TranslateBound(
      &vm_, spec_.keys[static_cast<size_t>(spec_.ordered_key)],
      spec_.input_schema, source, *bound, params_.get());
  if (key_bound.has_value()) OnPunctuation(*key_bound);
}

void AggregateNode::EmitGroup(const rts::Row& keys, const rts::Row& aggs) {
  rts::Row out = keys;
  out.insert(out.end(), aggs.begin(), aggs.end());
  rts::StreamMessage message;
  message.kind = rts::StreamMessage::Kind::kTuple;
  output_codec_.Encode(out, &message.payload);
  // Closed groups and ejected partials inherit the trace context of the
  // message that emitted them, so a traced tuple's e2e latency spans
  // inject → group close and the span chain crosses the LFTA table.
  StampOutput(&message);
  writer_.Write(std::move(message));
  ++tuples_out_;
}

void AggregateNode::EmitPunctuation(const Value& bound) {
  rts::Punctuation punctuation;
  punctuation.bounds.emplace_back(static_cast<size_t>(spec_.ordered_key),
                                  bound);
  rts::StreamMessage message =
      rts::MakePunctuationMessage(punctuation, spec_.output_schema);
  StampOutput(&message);
  writer_.Write(std::move(message));
}

void AggregateNode::Flush() {
  CloseAll();
  writer_.Flush();  // Flush may run outside a Poll round
}

OrderedAggregateNode::OrderedAggregateNode(Spec spec, rts::Subscription input,
                                           rts::StreamRegistry* registry,
                                           rts::ParamBlock params)
    : AggregateNode(std::move(spec), std::move(input), registry,
                    std::move(params)) {}

void OrderedAggregateNode::Fold(rts::Row keys, const Args& args,
                                uint32_t weight) {
  auto it = groups_.find(keys);
  if (it == groups_.end()) {
    it = groups_.emplace(std::move(keys),
                         GroupAccumulator(&spec().agg_specs)).first;
    open_groups_.Set(groups_.size());
  }
  it->second.Update(args, weight);
}

void OrderedAggregateNode::OnAdvance(const Value& ordered) {
  // A tuple whose ordered key exceeds all open groups closes them (§2.1).
  // For a banded key the guarantee is weaker — late tuples up to `band`
  // below the running maximum may still arrive — so only groups below
  // (key - band) close.
  OnPunctuation(ReduceByBand(ordered, spec().ordered_key_band));
}

void OrderedAggregateNode::OnPunctuation(const Value& bound) {
  // An upstream punctuation is a hard guarantee, not band-relative.
  FlushGroups(bound);
  EmitPunctuation(bound);
}

void OrderedAggregateNode::FlushGroups(const std::optional<Value>& bound) {
  const int ordered_key = spec().ordered_key;
  std::vector<const rts::Row*> to_flush;
  for (const auto& [keys, acc] : groups_) {
    if (!bound.has_value() || ordered_key < 0 ||
        keys[static_cast<size_t>(ordered_key)].Compare(*bound) < 0) {
      to_flush.push_back(&keys);
    }
  }
  // Deterministic output order.
  std::sort(to_flush.begin(), to_flush.end(),
            [](const rts::Row* a, const rts::Row* b) {
              for (size_t i = 0; i < a->size() && i < b->size(); ++i) {
                if ((*a)[i].type() != (*b)[i].type()) continue;
                int cmp = (*a)[i].Compare((*b)[i]);
                if (cmp != 0) return cmp < 0;
              }
              return a->size() < b->size();
            });
  for (const rts::Row* keys : to_flush) {
    auto it = groups_.find(*keys);
    EmitGroup(it->first, it->second.Finalize());
    ++groups_flushed_;
    groups_.erase(it);
  }
  open_groups_.Set(groups_.size());
}

void OrderedAggregateNode::RegisterTelemetry(
    telemetry::Registry* metrics) const {
  QueryNode::RegisterTelemetry(metrics);
  metrics->Register(name(), telemetry::metric::kOpenGroups, &open_groups_);
  metrics->Register(name(), telemetry::metric::kGroupsFlushed,
                    &groups_flushed_);
}

}  // namespace gigascope::ops
