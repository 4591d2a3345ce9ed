#include "ops/aggregate.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "expr/vm.h"
#include "telemetry/metric_names.h"

namespace gigascope::ops {

using expr::AggFn;
using expr::AggregateSpec;
using expr::Value;
using gsql::DataType;

namespace {

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Hash of a packed key for the HFTA group index: a word-at-a-time
/// multiply-xorshift (the output order comes from the close-time sort, so
/// any well-mixed hash will do).
uint64_t MixHash(ByteSpan key) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ key.size();
  size_t i = 0;
  for (; i + sizeof(uint64_t) <= key.size(); i += sizeof(uint64_t)) {
    h = (h ^ Load64(key.data() + i)) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
  }
  if (i < key.size()) {
    uint64_t tail = 0;
    std::memcpy(&tail, key.data() + i, key.size() - i);
    h = (h ^ tail) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
  }
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 32);
}

/// The output types of a spec's group keys: its output schema's leading
/// fields.
std::vector<DataType> KeyTypes(const AggregateNode::Spec& spec) {
  GS_CHECK(spec.output_schema.num_fields() >= spec.keys.size());
  std::vector<DataType> types;
  for (size_t k = 0; k < spec.keys.size(); ++k) {
    types.push_back(spec.output_schema.field(k).type);
  }
  return types;
}

}  // namespace

expr::Value ReduceByBand(const expr::Value& value, uint64_t band) {
  if (band == 0) return value;
  switch (value.type()) {
    case DataType::kUint:
      return Value::Uint(value.uint_value() >= band
                             ? value.uint_value() - band
                             : 0);
    case DataType::kInt: {
      // Saturates at INT64_MIN, as UINT saturates at 0: `room` is the
      // distance from INT64_MIN to the value, and a band may exceed
      // INT64_MAX.
      const uint64_t v = static_cast<uint64_t>(value.int_value());
      const uint64_t room =
          v - static_cast<uint64_t>(std::numeric_limits<int64_t>::min());
      return Value::Int(band >= room ? std::numeric_limits<int64_t>::min()
                                     : static_cast<int64_t>(v - band));
    }
    case DataType::kFloat:
      return Value::Float(value.float_value() - static_cast<double>(band));
    default:
      return value;
  }
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
      writer_(registry, spec_.name, spec_.output_batch),
      layout_(KeyTypes(spec_), spec_.agg_specs) {
  RegisterInput(input_);
  const size_t num_keys = spec_.keys.size();
  GS_CHECK(spec_.output_schema.num_fields() ==
           num_keys + spec_.agg_specs.size());
  GS_CHECK(spec_.agg_args.size() == spec_.agg_specs.size());
  for (size_t a = 0; a < spec_.agg_specs.size(); ++a) {
    const AggregateSpec& agg = spec_.agg_specs[a];
    GS_CHECK(spec_.output_schema.field(num_keys + a).type ==
             (agg.fn == AggFn::kCount ? DataType::kUint : agg.result_type));
  }

  // A key that is a plain load of a copyable field of its own type is a
  // byte copy; adjacent copies merge into one run.
  for (size_t k = 0; k < num_keys; ++k) {
    std::optional<size_t> field = expr::PlainFieldLoad(spec_.keys[k]);
    std::optional<rts::TupleCodec::ByteRange> range;
    if (field.has_value() && *field < spec_.input_schema.num_fields() &&
        spec_.input_schema.field(*field).type == layout_.key_type(k)) {
      range = input_codec_.CopyableField(*field);
    }
    if (!range.has_value()) {
      key_steps_.push_back({0, 0, k});
      needs_row_ = true;
    } else if (!key_steps_.empty() && key_steps_.back().width > 0 &&
               key_steps_.back().offset + key_steps_.back().width ==
                   range->offset) {
      key_steps_.back().width += range->width;
    } else {
      key_steps_.push_back({range->offset, range->width, k});
    }
  }
  for (const std::optional<expr::CompiledExpr>& arg : spec_.agg_args) {
    std::optional<rts::TupleCodec::ByteRange> range;
    if (arg.has_value()) {
      std::optional<size_t> field = expr::PlainFieldLoad(*arg);
      if (field.has_value() && *field < spec_.input_schema.num_fields()) {
        range = input_codec_.CopyableField(*field);
      }
      if (!range.has_value()) needs_row_ = true;
    }
    arg_reads_.push_back(range.value_or(rts::TupleCodec::ByteRange{}));
  }
  args_.resize(spec_.agg_specs.size());
  arg_values_.resize(spec_.agg_specs.size());
}

void AggregateNode::set_epoch(Value epoch) {
  epoch_key_.clear();
  rts::TupleCodec::AppendValue(epoch, &epoch_key_);
  epoch_ = std::move(epoch);
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
  const ByteSpan in(payload.data(), payload.size());
  rts::Row row;
  expr::EvalContext ctx;
  if (needs_row_) {
    auto decoded = input_codec_.Decode(in);
    if (!decoded.ok()) {
      ++eval_errors_;
      return;
    }
    row = std::move(decoded).value();
    ctx.row0 = &row;
    ctx.params = params_.get();
  } else if (!input_codec_.WellFormed(in)) {
    ++eval_errors_;
    return;
  }

  key_.clear();
  for (const KeyStep& step : key_steps_) {
    if (step.width > 0) {
      key_.insert(key_.end(), in.data() + step.offset,
                  in.data() + step.offset + step.width);
      continue;
    }
    expr::EvalOutput out;
    if (!vm_.Eval(spec_.keys[step.key], ctx, &out).ok()) {
      ++eval_errors_;
      return;
    }
    if (!out.has_value) return;  // partial miss discards the tuple
    GS_CHECK(out.value.type() == layout_.key_type(step.key));
    rts::TupleCodec::AppendValue(out.value, &key_);
  }
  const ByteSpan key(key_.data(), key_.size());

  if (spec_.ordered_key >= 0) {
    const size_t ordered_key = static_cast<size_t>(spec_.ordered_key);
    const ByteSpan ordered = layout_.KeyField(key, ordered_key);
    if (!epoch_.has_value() ||
        layout_.CompareField(ordered_key, ordered,
                             ByteSpan(epoch_key_.data(), epoch_key_.size())) >
            0) {
      Value value = output_codec_.DecodeField(key, ordered_key).value();
      if (epoch_.has_value()) OnAdvance(value);
      epoch_key_.assign(ordered.begin(), ordered.end());
      epoch_ = std::move(value);
    }
  }

  for (size_t a = 0; a < args_.size(); ++a) {
    const rts::TupleCodec::ByteRange& read = arg_reads_[a];
    if (read.width == sizeof(uint64_t)) {
      args_[a].word = Load64(in.data() + read.offset);
    } else if (read.width == sizeof(uint32_t)) {
      args_[a].word = Load32(in.data() + read.offset);
    } else if (spec_.agg_args[a].has_value()) {
      expr::EvalOutput out;
      if (!vm_.Eval(*spec_.agg_args[a], ctx, &out).ok()) {
        ++eval_errors_;
        return;
      }
      if (!out.has_value) return;
      arg_values_[a] = std::move(out.value);
      args_[a] = FoldArg::Of(arg_values_[a]);
    }
  }

  // Under L1 sampling a source tuple stands for `weight` offered ones
  // (stamped on the message at the sampling decision); folding with it
  // keeps COUNT/SUM unbiased. LFTA partials and operator output carry 1.
  Fold(key, args_.data(), weight);
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

void AggregateNode::EmitTuple(ByteBuffer tuple) {
  rts::StreamMessage message;
  message.kind = rts::StreamMessage::Kind::kTuple;
  message.payload = std::move(tuple);
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
                    std::move(params)) {
  index_.assign(64, 0);
}

void OrderedAggregateNode::Fold(ByteSpan key, const FoldArg* args,
                                uint32_t weight) {
  const uint64_t hash = MixHash(key);
  size_t mask = index_.size() - 1;
  size_t i = hash & mask;
  for (; index_[i] != 0; i = (i + 1) & mask) {
    const size_t g = index_[i] - 1;
    const Group& group = groups_[g];
    if (group.hash == hash && SameKey(KeyOf(group), key)) {
      layout().Fold(WordsOf(g), TextsOf(g), args, weight);
      return;
    }
  }
  // A new group. Keep the index at most 3/4 full so probes stay short.
  if ((groups_.size() + 1) * 4 > index_.size() * 3) {
    Reindex(index_.size() * 2);
    mask = index_.size() - 1;
    for (i = hash & mask; index_[i] != 0; i = (i + 1) & mask) {
    }
  }
  const size_t g = groups_.size();
  groups_.push_back({keys_.size(), key.size(), hash});
  keys_.insert(keys_.end(), key.begin(), key.end());
  words_.resize(words_.size() + layout().num_words());
  texts_.resize(texts_.size() + layout().num_texts());
  index_[i] = static_cast<uint32_t>(g + 1);
  layout().Start(WordsOf(g), TextsOf(g), args, weight);
  open_groups_.Set(groups_.size());
}

void OrderedAggregateNode::Reindex(size_t slots) {
  index_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (size_t g = 0; g < groups_.size(); ++g) {
    size_t i = groups_[g].hash & mask;
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = static_cast<uint32_t>(g + 1);
  }
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
  ByteBuffer bound_key;
  if (bound.has_value()) rts::TupleCodec::AppendValue(*bound, &bound_key);
  closing_.clear();
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (!bound.has_value() || ordered_key < 0 ||
        layout().CompareField(
            static_cast<size_t>(ordered_key),
            layout().KeyField(KeyOf(groups_[g]),
                              static_cast<size_t>(ordered_key)),
            ByteSpan(bound_key.data(), bound_key.size())) < 0) {
      closing_.push_back(static_cast<uint32_t>(g));
    }
  }
  if (closing_.empty()) return;
  // Deterministic output order.
  std::sort(closing_.begin(), closing_.end(), [this](uint32_t a, uint32_t b) {
    return layout().KeyLess(KeyOf(groups_[a]), KeyOf(groups_[b]));
  });
  for (uint32_t g : closing_) {
    ByteBuffer tuple;
    layout().Emit(KeyOf(groups_[g]), WordsOf(g), TextsOf(g), &tuple);
    EmitTuple(std::move(tuple));
    ++groups_flushed_;
  }

  // Compact the survivors (usually none: an advance closes every group
  // below the new epoch) and rebuild the index over them.
  if (closing_.size() < groups_.size()) {
    std::vector<bool> closed(groups_.size(), false);
    for (uint32_t g : closing_) closed[g] = true;
    std::vector<Group> groups;
    ByteBuffer keys;
    std::vector<uint64_t> words;
    std::vector<std::string> texts;
    const size_t num_words = layout().num_words();
    const size_t num_texts = layout().num_texts();
    for (size_t g = 0; g < groups_.size(); ++g) {
      if (closed[g]) continue;
      const ByteSpan key = KeyOf(groups_[g]);
      groups.push_back({keys.size(), key.size(), groups_[g].hash});
      keys.insert(keys.end(), key.begin(), key.end());
      words.insert(words.end(), WordsOf(g), WordsOf(g) + num_words);
      for (size_t t = 0; t < num_texts; ++t) {
        texts.push_back(std::move(TextsOf(g)[t]));
      }
    }
    groups_ = std::move(groups);
    keys_ = std::move(keys);
    words_ = std::move(words);
    texts_ = std::move(texts);
  } else {
    groups_.clear();
    keys_.clear();
    words_.clear();
    texts_.clear();
  }
  Reindex(index_.size());
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
