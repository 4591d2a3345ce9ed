// Differential test of the packed-key aggregation nodes. Seeded random
// queries over seeded random streams run through LftaAggregateNode and
// OrderedAggregateNode and through a naive reference that decodes every
// tuple, evaluates every key and argument with the VM, and keeps groups as
// decoded Value rows in a std::map. Every emitted message must match byte
// for byte, punctuations included.
//
// Key types: UINT, INT (negative and extreme values), IP (above 2^31),
// STRING (empty and non-ASCII bytes) and FLOAT (-0.0, 0.0 and NaNs with
// different bits, which are distinct groups that sort in IEEE-754
// totalOrder); keys are field loads mixed with computed keys (t/60,
// u%7). Aggregates: COUNT, SUM (INT wrapping, UINT, FLOAT), MIN and MAX
// (INT, IP, STRING, FLOAT), with message weights above 1. The LFTA runs
// under changing L2 epoch coarsening and L3 table caps; streams carry
// translated input punctuations, banded-increasing keys and malformed
// payloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "expr/codegen.h"
#include "expr/vm.h"
#include "ops/aggregate.h"
#include "ops/lfta_agg.h"
#include "rts/punctuation.h"
#include "rts/registry.h"
#include "rts/shed_state.h"

namespace gigascope::ops {
namespace {

using expr::AggFn;
using expr::AggregateSpec;
using expr::IrPtr;
using expr::Value;
using gsql::BinaryOp;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

enum InputField : size_t { kT, kU, kI, kIp, kS, kF, kLen, kNumFields };

StreamSchema InputSchema() {
  std::vector<FieldDef> fields = {
      {"t", DataType::kUint, OrderSpec::Increasing()},
      {"u", DataType::kUint, OrderSpec::None()},
      {"i", DataType::kInt, OrderSpec::None()},
      {"ip", DataType::kIp, OrderSpec::None()},
      {"s", DataType::kString, OrderSpec::None()},
      {"f", DataType::kFloat, OrderSpec::None()},
      {"len", DataType::kUint, OrderSpec::None()}};
  return StreamSchema("in", StreamKind::kStream, fields);
}

DataType InputType(size_t field) {
  return InputSchema().field(field).type;
}

IrPtr Load(size_t field) {
  return expr::MakeFieldRef(0, field, InputType(field),
                            InputSchema().field(field).name);
}

expr::CompiledExpr MustCompile(const IrPtr& ir) {
  auto compiled = expr::Compile(ir);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

/// A randomly drawn aggregation query and how to run it.
struct Query {
  AggregateNode::Spec spec;
  bool lfta = false;
  int log2_slots = 0;
  std::string text;  // for failure messages
  uint64_t band_in_t = 0;  // how far t may run behind its maximum
};

Query RandomQuery(Rng& rng, bool lfta, int index) {
  Query query;
  query.lfta = lfta;
  query.log2_slots = std::vector<int>{0, 2, 4, 8}[rng.NextBelow(4)];
  AggregateNode::Spec& spec = query.spec;
  spec.name = "agg" + std::to_string(index);
  spec.input_schema = InputSchema();

  struct Key {
    IrPtr ir;
    DataType type;
    std::string text;
  };
  std::vector<Key> candidates = {
      {Load(kU), DataType::kUint, "u"},
      {Load(kI), DataType::kInt, "i"},
      {Load(kIp), DataType::kIp, "ip"},
      {Load(kS), DataType::kString, "s"},
      {Load(kF), DataType::kFloat, "f"},
      {expr::MakeBinaryIr(BinaryOp::kMod, DataType::kUint, Load(kU),
                          expr::MakeConst(Value::Uint(7))),
       DataType::kUint, "u%7"}};
  std::vector<Key> keys;
  // Zero leaves the ordered key alone, or no key at all.
  const size_t num_keys = rng.NextBelow(4);
  while (keys.size() < num_keys) {
    const Key& key = candidates[rng.NextBelow(candidates.size())];
    bool taken = false;
    for (const Key& k : keys) taken = taken || k.text == key.text;
    if (!taken) keys.push_back(key);
  }
  // The ordered key: t/60 (computed), or t itself (a load), possibly
  // banded; one query in ten has none.
  const uint64_t pick = rng.NextBelow(10);
  if (pick != 0) {
    Key ordered{Load(kT), DataType::kUint, "t"};
    if (pick < 5) {
      ordered = Key{expr::MakeBinaryIr(BinaryOp::kDiv, DataType::kUint,
                                       Load(kT),
                                       expr::MakeConst(Value::Uint(60))),
                    DataType::kUint, "t/60"};
    }
    if (pick >= 8) {
      spec.ordered_key_band = 5;
      query.band_in_t = 5;
    }
    const size_t at = rng.NextBelow(keys.size() + 1);
    keys.insert(keys.begin() + static_cast<std::ptrdiff_t>(at), ordered);
    spec.ordered_key = static_cast<int>(at);
    spec.ordered_key_source = kT;
  }

  std::vector<FieldDef> fields;
  query.text = "GROUP BY";
  for (size_t k = 0; k < keys.size(); ++k) {
    spec.keys.push_back(MustCompile(keys[k].ir));
    fields.push_back({"k" + std::to_string(k), keys[k].type,
                      static_cast<int>(k) == spec.ordered_key
                          ? OrderSpec::Increasing()
                          : OrderSpec::None()});
    query.text += " " + keys[k].text;
  }

  struct Agg {
    AggFn fn;
    IrPtr arg;  // null for COUNT(*)
    DataType type;
    std::string text;
  };
  std::vector<Agg> aggs = {
      {AggFn::kCount, nullptr, DataType::kUint, "count(*)"},
      {AggFn::kSum, Load(kLen), DataType::kUint, "sum(len)"},
      {AggFn::kSum, Load(kI), DataType::kInt, "sum(i)"},
      {AggFn::kSum, Load(kF), DataType::kFloat, "sum(f)"},
      {AggFn::kMin, Load(kI), DataType::kInt, "min(i)"},
      {AggFn::kMax, Load(kIp), DataType::kIp, "max(ip)"},
      {AggFn::kMin, Load(kS), DataType::kString, "min(s)"},
      {AggFn::kMax, Load(kS), DataType::kString, "max(s)"},
      {AggFn::kMax, Load(kF), DataType::kFloat, "max(f)"},
      {AggFn::kMin, Load(kF), DataType::kFloat, "min(f)"},
      {AggFn::kMax,
       expr::MakeBinaryIr(BinaryOp::kMul, DataType::kUint, Load(kLen),
                          expr::MakeConst(Value::Uint(2))),
       DataType::kUint, "max(len*2)"}};
  const size_t num_aggs = 1 + rng.NextBelow(4);
  query.text += " SELECT";
  for (size_t a = 0; a < num_aggs; ++a) {
    const Agg& agg = aggs[rng.NextBelow(aggs.size())];
    AggregateSpec agg_spec;
    agg_spec.fn = agg.fn;
    agg_spec.result_type = agg.type;
    spec.agg_specs.push_back(agg_spec);
    if (agg.arg == nullptr) {
      spec.agg_args.emplace_back();
    } else {
      spec.agg_args.emplace_back(MustCompile(agg.arg));
    }
    fields.push_back({"a" + std::to_string(a), agg.type, OrderSpec::None()});
    query.text += " " + agg.text;
  }
  spec.output_schema = StreamSchema(spec.name, StreamKind::kStream, fields);
  if (lfta) {
    query.text +=
        " (LFTA, 2^" + std::to_string(query.log2_slots) + " slots)";
  }
  return query;
}

// --- The reference: decoded rows, the VM, a std::map ---

uint64_t TotalOrderBits(double d) {
  const uint64_t bits = std::bit_cast<uint64_t>(d);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

/// Group identity and output order: Value::Compare per field, except that
/// FLOAT keys order (and so tell apart) by IEEE-754 totalOrder.
struct KeyLess {
  bool operator()(const rts::Row& a, const rts::Row& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].type() == DataType::kFloat) {
        const uint64_t x = TotalOrderBits(a[i].float_value());
        const uint64_t y = TotalOrderBits(b[i].float_value());
        if (x != y) return x < y;
        continue;
      }
      const int cmp = a[i].Compare(b[i]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  }
};

uint64_t ValueRowHash(const rts::Row& keys) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Value& value : keys) {
    h ^= value.Hash();
    h *= 0x100000001b3ULL;
  }
  return h;
}

class Reference {
 public:
  Reference(const Query& query, const rts::ShedState* shed)
      : query_(query),
        spec_(query.spec),
        input_codec_(spec_.input_schema),
        output_codec_(spec_.output_schema),
        shed_(shed) {
    if (query.lfta) slots_.resize(size_t{1} << query.log2_slots);
  }

  void Process(const rts::StreamMessage& message) {
    ByteSpan bytes(message.payload.data(), message.payload.size());
    if (message.kind == rts::StreamMessage::Kind::kPunctuation) {
      if (spec_.ordered_key < 0) return;
      auto punctuation = rts::DecodePunctuation(bytes, spec_.input_schema);
      ASSERT_TRUE(punctuation.ok());
      auto bound = punctuation->BoundFor(kT);
      ASSERT_TRUE(bound.has_value());
      std::optional<Value> key_bound = TranslateBound(
          &vm_, spec_.keys[static_cast<size_t>(spec_.ordered_key)],
          spec_.input_schema, kT, *bound, &params_);
      ASSERT_TRUE(key_bound.has_value());
      OnPunctuation(*key_bound);
      return;
    }
    ++tuples_in_;
    auto row = input_codec_.Decode(bytes);
    if (!row.ok()) {
      ++eval_errors_;
      return;
    }
    expr::EvalContext ctx;
    ctx.row0 = &row.value();
    ctx.params = &params_;
    rts::Row keys;
    for (const expr::CompiledExpr& key : spec_.keys) {
      expr::EvalOutput out;
      ASSERT_TRUE(vm_.Eval(key, ctx, &out).ok());
      keys.push_back(out.value);
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
    std::vector<Value> args(spec_.agg_specs.size());
    for (size_t a = 0; a < args.size(); ++a) {
      if (!spec_.agg_args[a].has_value()) continue;
      expr::EvalOutput out;
      ASSERT_TRUE(vm_.Eval(*spec_.agg_args[a], ctx, &out).ok());
      args[a] = out.value;
    }
    if (query_.lfta) {
      Upsert(std::move(keys), args, message.weight);
    } else {
      auto it = groups_.find(keys);
      if (it == groups_.end()) {
        it = groups_.emplace(std::move(keys), Start(args)).first;
      }
      FoldInto(&it->second, args, message.weight);
    }
  }

  void Flush() {
    if (query_.lfta) {
      DrainAll();
    } else {
      CloseBelow(std::nullopt);
    }
  }

  const std::vector<std::string>& out() const { return out_; }
  uint64_t tuples_in() const { return tuples_in_; }
  uint64_t eval_errors() const { return eval_errors_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Slot {
    bool used = false;
    uint64_t touch = 0;
    rts::Row keys;
    std::vector<Value> cells;
  };

  std::vector<Value> Start(const std::vector<Value>& args) const {
    std::vector<Value> cells;
    for (size_t a = 0; a < spec_.agg_specs.size(); ++a) {
      const AggregateSpec& agg = spec_.agg_specs[a];
      cells.push_back(agg.fn == AggFn::kMin || agg.fn == AggFn::kMax
                          ? args[a]
                          : Value::Default(agg.result_type));
    }
    return cells;
  }

  void FoldInto(std::vector<Value>* cells, const std::vector<Value>& args,
                uint64_t weight) const {
    for (size_t a = 0; a < cells->size(); ++a) {
      const AggregateSpec& agg = spec_.agg_specs[a];
      Value& cell = (*cells)[a];
      const Value& v = args[a];
      switch (agg.fn) {
        case AggFn::kCount:
          cell = Value::Uint(cell.uint_value() + weight);
          break;
        case AggFn::kSum:
          if (agg.result_type == DataType::kInt) {
            cell = Value::Int(static_cast<int64_t>(
                static_cast<uint64_t>(cell.int_value()) +
                static_cast<uint64_t>(v.int_value()) * weight));
          } else if (agg.result_type == DataType::kFloat) {
            cell = Value::Float(cell.float_value() +
                                v.float_value() * static_cast<double>(weight));
          } else {
            cell = Value::Uint(cell.uint_value() + v.uint_value() * weight);
          }
          break;
        case AggFn::kMin:
          if (v.Compare(cell) < 0) cell = v;
          break;
        case AggFn::kMax:
          if (v.Compare(cell) > 0) cell = v;
          break;
        case AggFn::kAvg:
          FAIL() << "AVG is decomposed by the planner";
      }
    }
  }

  void EmitGroup(const rts::Row& keys, const std::vector<Value>& cells) {
    rts::Row row = keys;
    row.insert(row.end(), cells.begin(), cells.end());
    ByteBuffer bytes;
    output_codec_.Encode(row, &bytes);
    std::string line = "T";
    for (const Value& value : row) line += " " + value.ToString();
    out_.push_back(line + " |" + Hex(bytes));
  }

  void EmitPunctuation(const Value& bound) {
    rts::Punctuation punctuation;
    punctuation.bounds.emplace_back(static_cast<size_t>(spec_.ordered_key),
                                    bound);
    rts::StreamMessage message =
        rts::MakePunctuationMessage(punctuation, spec_.output_schema);
    out_.push_back("P " + bound.ToString() + " |" + Hex(message.payload));
  }

  void OnAdvance(const Value& ordered) {
    if (!query_.lfta) {
      OnPunctuation(ReduceByBand(ordered, spec_.ordered_key_band));
      return;
    }
    const uint32_t coarsen = shed_->EpochCoarsen();
    if (coarsen > 1 && ++advances_ < coarsen) return;
    advances_ = 0;
    DrainAll();
    EmitPunctuation(ReduceByBand(ordered, spec_.ordered_key_band));
  }

  void OnPunctuation(const Value& bound) {
    if (query_.lfta) {
      if (epoch_.has_value() && bound.Compare(*epoch_) <= 0) return;
      OnAdvance(bound);
      epoch_ = bound;
      return;
    }
    CloseBelow(bound);
    EmitPunctuation(bound);
  }

  void CloseBelow(const std::optional<Value>& bound) {
    const int ok = spec_.ordered_key;
    for (auto it = groups_.begin(); it != groups_.end();) {
      if (!bound.has_value() || ok < 0 ||
          it->first[static_cast<size_t>(ok)].Compare(*bound) < 0) {
        EmitGroup(it->first, it->second);
        it = groups_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void Upsert(rts::Row keys, const std::vector<Value>& args,
              uint64_t weight) {
    Slot& slot = slots_[ValueRowHash(keys) & (slots_.size() - 1)];
    KeyLess less;
    if (slot.used && (less(slot.keys, keys) || less(keys, slot.keys))) {
      EmitGroup(slot.keys, slot.cells);
      ++evictions_;
      slot.used = false;
    }
    if (!slot.used) {
      slot.used = true;
      slot.keys = std::move(keys);
      slot.cells = Start(args);
    }
    slot.touch = ++tick_;
    FoldInto(&slot.cells, args, weight);
    // L3: above the cap, evict the coldest groups down to 7/8 of it.
    const uint32_t cap_pct = shed_->TableCapPct();
    if (cap_pct >= 100) return;
    const size_t cap = slots_.size() * cap_pct / 100;
    std::vector<size_t> used;
    for (size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].used) used.push_back(s);
    }
    if (used.size() <= cap) return;
    std::sort(used.begin(), used.end(), [this](size_t a, size_t b) {
      return slots_[a].touch < slots_[b].touch;
    });
    const size_t evict = used.size() - (cap - cap / 8);
    for (size_t n = 0; n < evict; ++n) {
      Slot& cold = slots_[used[n]];
      EmitGroup(cold.keys, cold.cells);
      ++evictions_;
      cold.used = false;
    }
  }

  void DrainAll() {
    for (Slot& slot : slots_) {
      if (!slot.used) continue;
      EmitGroup(slot.keys, slot.cells);
      slot.used = false;
    }
  }

  static std::string Hex(const ByteBuffer& bytes) {
    static const char kDigits[] = "0123456789abcdef";
    std::string hex;
    for (uint8_t byte : bytes) {
      hex += kDigits[byte >> 4];
      hex += kDigits[byte & 15];
    }
    return hex;
  }

  const Query& query_;
  const AggregateNode::Spec& spec_;
  rts::TupleCodec input_codec_;
  rts::TupleCodec output_codec_;
  const rts::ShedState* shed_;
  expr::Evaluator vm_;
  std::vector<Value> params_;
  std::optional<Value> epoch_;
  std::map<rts::Row, std::vector<Value>, KeyLess> groups_;
  std::vector<Slot> slots_;
  uint64_t tick_ = 0;
  uint32_t advances_ = 0;
  std::vector<std::string> out_;
  uint64_t tuples_in_ = 0;
  uint64_t eval_errors_ = 0;
  uint64_t evictions_ = 0;
};

/// Renders one message the node emitted the way Reference does.
std::string Render(const rts::StreamMessage& message,
                   const StreamSchema& schema) {
  ByteSpan bytes(message.payload.data(), message.payload.size());
  std::string line;
  if (message.kind == rts::StreamMessage::Kind::kTuple) {
    auto row = rts::TupleCodec(schema).Decode(bytes);
    if (!row.ok()) return "T <undecodable>";
    line = "T";
    for (const Value& value : *row) line += " " + value.ToString();
  } else {
    auto punctuation = rts::DecodePunctuation(bytes, schema);
    if (!punctuation.ok() || punctuation->bounds.size() != 1) {
      return "P <undecodable>";
    }
    line = "P " + punctuation->bounds[0].second.ToString();
  }
  static const char kDigits[] = "0123456789abcdef";
  line += " |";
  for (uint8_t byte : message.payload) {
    line += kDigits[byte >> 4];
    line += kDigits[byte & 15];
  }
  return line;
}

// --- Random streams ---

Value RandomValue(Rng& rng, size_t field) {
  switch (field) {
    case kU:
      return Value::Uint(rng.NextBelow(6));
    case kI: {
      const std::vector<int64_t> values = {
          -3, -2, -1, 0, 1, 2, 3, std::numeric_limits<int64_t>::min(),
          std::numeric_limits<int64_t>::max()};
      return Value::Int(values[rng.NextBelow(values.size())]);
    }
    case kIp: {
      const std::vector<uint32_t> values = {0x0a000001, 0x0a000002,
                                            0xc0a80001, 0xffffffff, 0};
      return Value::Ip(values[rng.NextBelow(values.size())]);
    }
    case kS: {
      const std::vector<std::string> values = {"", "a", "ab", "b",
                                               "\xff", "a\x80"};
      return Value::String(values[rng.NextBelow(values.size())]);
    }
    case kF: {
      const std::vector<double> values = {
          -0.0,
          0.0,
          1.5,
          -2.25,
          std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          std::bit_cast<double>(uint64_t{0x7ff8000000000123})};
      return Value::Float(values[rng.NextBelow(values.size())]);
    }
    default:
      return Value::Uint(rng.NextBelow(1500));
  }
}

/// One seeded stream: tuples with increasing (or banded) t, weights up to
/// 4, punctuations on t, and a few malformed payloads.
std::vector<rts::StreamMessage> RandomStream(Rng& rng, size_t n,
                                             uint64_t band_in_t) {
  const StreamSchema schema = InputSchema();
  rts::TupleCodec codec(schema);
  std::vector<rts::StreamMessage> stream;
  uint64_t max_t = 1000;
  for (size_t m = 0; m < n; ++m) {
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 3) {
      rts::Punctuation punctuation;
      punctuation.bounds.emplace_back(
          kT, Value::Uint(max_t - band_in_t + rng.NextBelow(2)));
      stream.push_back(rts::MakePunctuationMessage(punctuation, schema));
      continue;
    }
    max_t += rng.NextBelow(25);
    rts::Row row;
    row.push_back(Value::Uint(max_t - rng.NextBelow(band_in_t + 1)));
    for (size_t f = kU; f < kNumFields; ++f) {
      row.push_back(RandomValue(rng, f));
    }
    rts::StreamMessage message;
    codec.Encode(row, &message.payload);
    if (kind < 4) message.payload.pop_back();  // malformed: truncated
    if (rng.NextBelow(3) == 0) {
      message.weight = 2 + static_cast<uint32_t>(rng.NextBelow(3));
    }
    stream.push_back(std::move(message));
  }
  return stream;
}

void RunQuery(const Query& query, uint64_t seed) {
  SCOPED_TRACE(query.text + " seed " + std::to_string(seed));
  Rng rng(seed);
  rts::StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(InputSchema()).ok());
  ASSERT_TRUE(registry.DeclareStream(query.spec.output_schema).ok());
  auto input = registry.Subscribe("in", 1 << 16);
  ASSERT_TRUE(input.ok());
  rts::ShedState shed;
  auto params = std::make_shared<std::vector<Value>>();
  std::unique_ptr<AggregateNode> node;
  const LftaAggregateNode* lfta = nullptr;
  if (query.lfta) {
    auto lfta_node = std::make_unique<LftaAggregateNode>(
        query.spec, query.log2_slots, *input, &registry, params, &shed);
    lfta = lfta_node.get();
    node = std::move(lfta_node);
  } else {
    node = std::make_unique<OrderedAggregateNode>(query.spec, *input,
                                                  &registry, params);
  }
  auto output = registry.Subscribe(query.spec.name, 1 << 16);
  ASSERT_TRUE(output.ok());
  Reference reference(query, &shed);

  const std::vector<rts::StreamMessage> stream =
      RandomStream(rng, 1500, query.band_in_t);
  size_t next = 0;
  while (next < stream.size()) {
    if (query.lfta && rng.NextBelow(4) == 0) {
      shed.epoch_coarsen.store(
          std::vector<uint32_t>{1, 1, 2, 3}[rng.NextBelow(4)]);
      shed.table_cap_pct.store(
          std::vector<uint32_t>{100, 100, 50, 25}[rng.NextBelow(4)]);
    }
    const size_t chunk = 1 + rng.NextBelow(80);
    for (size_t m = next; m < std::min(stream.size(), next + chunk); ++m) {
      registry.Publish("in", stream[m]);
      reference.Process(stream[m]);
    }
    next += chunk;
    node->Poll(1 << 20);
  }
  node->Flush();
  reference.Flush();

  std::vector<std::string> got;
  rts::StreamMessage message;
  while ((*output)->TryPop(&message)) {
    got.push_back(Render(message, query.spec.output_schema));
  }
  ASSERT_EQ(got.size(), reference.out().size());
  for (size_t m = 0; m < got.size(); ++m) {
    ASSERT_EQ(got[m], reference.out()[m]) << "message " << m;
  }
  EXPECT_EQ(node->tuples_in(), reference.tuples_in());
  EXPECT_EQ(node->eval_errors(), reference.eval_errors());
  if (lfta != nullptr) {
    EXPECT_EQ(lfta->table().evictions(), reference.evictions());
  }
}

TEST(PackedAggregateDiffTest, HftaMatchesReference) {
  Rng rng(0x5eed);
  for (int q = 0; q < 40; ++q) {
    RunQuery(RandomQuery(rng, /*lfta=*/false, q), 1000 + q);
  }
}

TEST(PackedAggregateDiffTest, LftaMatchesReference) {
  Rng rng(0x1f7a);
  for (int q = 0; q < 40; ++q) {
    RunQuery(RandomQuery(rng, /*lfta=*/true, q), 2000 + q);
  }
}

}  // namespace
}  // namespace gigascope::ops
