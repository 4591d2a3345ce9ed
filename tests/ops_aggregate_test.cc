#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "common/rng.h"
#include "expr/codegen.h"
#include "ops/aggregate.h"
#include "ops/lfta_agg.h"
#include "rts/punctuation.h"
#include "rts/shed_state.h"

namespace gigascope::ops {
namespace {

using expr::AggFn;
using expr::AggregateSpec;
using expr::CompiledExpr;
using expr::Value;
using gsql::BinaryOp;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

StreamSchema InputSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"t", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"key", DataType::kUint, OrderSpec::None()});
  fields.push_back({"len", DataType::kUint, OrderSpec::None()});
  return StreamSchema("in", StreamKind::kStream, fields);
}

StreamSchema AggOutputSchema(const std::string& name) {
  std::vector<FieldDef> fields;
  fields.push_back({"tb", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"key", DataType::kUint, OrderSpec::None()});
  fields.push_back({"cnt", DataType::kUint, OrderSpec::None()});
  fields.push_back({"total", DataType::kUint, OrderSpec::None()});
  return StreamSchema(name, StreamKind::kStream, fields);
}

CompiledExpr MustCompile(const expr::IrPtr& ir) {
  auto compiled = expr::Compile(ir);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

/// SELECT t/10 AS tb, key, count(*), sum(len) GROUP BY tb, key.
OrderedAggregateNode::Spec MakeSpec(const std::string& name) {
  OrderedAggregateNode::Spec spec;
  spec.name = name;
  spec.input_schema = InputSchema();
  spec.output_schema = AggOutputSchema(name);
  spec.keys.push_back(MustCompile(expr::MakeBinaryIr(
      BinaryOp::kDiv, DataType::kUint,
      expr::MakeFieldRef(0, 0, DataType::kUint, "t"),
      expr::MakeConst(Value::Uint(10)))));
  spec.keys.push_back(
      MustCompile(expr::MakeFieldRef(0, 1, DataType::kUint, "key")));
  AggregateSpec count;
  count.fn = AggFn::kCount;
  count.result_type = DataType::kUint;
  spec.agg_specs.push_back(count);
  AggregateSpec sum;
  sum.fn = AggFn::kSum;
  sum.arg = expr::MakeFieldRef(0, 2, DataType::kUint, "len");
  sum.result_type = DataType::kUint;
  spec.agg_specs.push_back(sum);
  spec.agg_args.emplace_back();  // count(*): no arg
  spec.agg_args.emplace_back(
      MustCompile(expr::MakeFieldRef(0, 2, DataType::kUint, "len")));
  spec.ordered_key = 0;
  spec.ordered_key_source = 0;
  return spec;
}

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.DeclareStream(InputSchema()).ok());
    ASSERT_TRUE(registry_.DeclareStream(AggOutputSchema("agg")).ok());
    params_ = std::make_shared<std::vector<Value>>();
    auto input = registry_.Subscribe("in", 1024);
    ASSERT_TRUE(input.ok());
    node_ = std::make_unique<OrderedAggregateNode>(MakeSpec("agg"), *input,
                                                   &registry_, params_);
    auto output = registry_.Subscribe("agg", 1024);
    ASSERT_TRUE(output.ok());
    output_ = *output;
    codec_ = std::make_unique<rts::TupleCodec>(AggOutputSchema("agg"));
  }

  void Send(uint64_t t, uint64_t key, uint64_t len) {
    rts::TupleCodec codec(InputSchema());
    rts::StreamMessage message;
    codec.Encode({Value::Uint(t), Value::Uint(key), Value::Uint(len)},
                 &message.payload);
    registry_.Publish("in", message);
  }

  std::vector<rts::Row> ReceiveAll() {
    std::vector<rts::Row> rows;
    rts::StreamMessage message;
    while (output_->TryPop(&message)) {
      if (message.kind != rts::StreamMessage::Kind::kTuple) continue;
      auto row = codec_->Decode(
          ByteSpan(message.payload.data(), message.payload.size()));
      if (row.ok()) rows.push_back(std::move(row).value());
    }
    return rows;
  }

  rts::StreamRegistry registry_;
  rts::ParamBlock params_;
  std::unique_ptr<OrderedAggregateNode> node_;
  rts::Subscription output_;
  std::unique_ptr<rts::TupleCodec> codec_;
};

TEST_F(AggregateTest, GroupsAccumulateUntilEpochCloses) {
  Send(1, 100, 10);
  Send(2, 100, 20);
  Send(3, 200, 5);
  node_->Poll(100);
  // Bucket 0 still open: nothing emitted.
  EXPECT_TRUE(ReceiveAll().empty());
  EXPECT_EQ(node_->open_groups(), 2u);

  // Bucket 1 arrives: bucket-0 groups close and flush.
  Send(12, 100, 1);
  node_->Poll(100);
  auto rows = ReceiveAll();
  ASSERT_EQ(rows.size(), 2u);
  // Sorted by (tb, key): (0,100,cnt=2,sum=30) then (0,200,cnt=1,sum=5).
  EXPECT_EQ(rows[0][0].uint_value(), 0u);
  EXPECT_EQ(rows[0][1].uint_value(), 100u);
  EXPECT_EQ(rows[0][2].uint_value(), 2u);
  EXPECT_EQ(rows[0][3].uint_value(), 30u);
  EXPECT_EQ(rows[1][1].uint_value(), 200u);
  EXPECT_EQ(rows[1][2].uint_value(), 1u);
  EXPECT_EQ(rows[1][3].uint_value(), 5u);
  EXPECT_EQ(node_->open_groups(), 1u);
}

TEST_F(AggregateTest, FlushEmitsOpenGroups) {
  Send(1, 100, 10);
  Send(5, 200, 20);
  node_->Poll(100);
  node_->Flush();
  auto rows = ReceiveAll();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(node_->open_groups(), 0u);
}

TEST_F(AggregateTest, PunctuationClosesGroups) {
  Send(1, 100, 10);
  Send(3, 200, 20);
  node_->Poll(100);
  ASSERT_TRUE(ReceiveAll().empty());

  // Punctuation: t >= 50, so bucket 5 is the floor; buckets < 5 close.
  rts::Punctuation punctuation;
  punctuation.bounds.emplace_back(0, Value::Uint(50));
  registry_.Publish("in", rts::MakePunctuationMessage(punctuation,
                                                      InputSchema()));
  node_->Poll(100);
  auto rows = ReceiveAll();
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(node_->open_groups(), 0u);
}

TEST_F(AggregateTest, EmitsPunctuationDownstreamOnEpochAdvance) {
  Send(1, 100, 10);
  Send(12, 100, 10);
  node_->Poll(100);
  // Look for a punctuation on the output stream bounding tb.
  bool saw_punctuation = false;
  rts::StreamMessage message;
  auto sub = registry_.Subscribe("agg", 64);
  // (Subscribe happened after publish; pull again through a new round.)
  Send(25, 100, 1);
  node_->Poll(100);
  while ((*sub)->TryPop(&message)) {
    if (message.kind == rts::StreamMessage::Kind::kPunctuation) {
      auto punctuation = rts::DecodePunctuation(
          ByteSpan(message.payload.data(), message.payload.size()),
          AggOutputSchema("agg"));
      ASSERT_TRUE(punctuation.ok());
      auto bound = punctuation->BoundFor(0);
      ASSERT_TRUE(bound.has_value());
      EXPECT_EQ(bound->uint_value(), 2u);  // 25/10
      saw_punctuation = true;
    }
  }
  EXPECT_TRUE(saw_punctuation);
}

TEST_F(AggregateTest, MinMaxAggregates) {
  OrderedAggregateNode::Spec spec;
  spec.name = "mm";
  spec.input_schema = InputSchema();
  std::vector<FieldDef> fields;
  fields.push_back({"tb", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"lo", DataType::kUint, OrderSpec::None()});
  fields.push_back({"hi", DataType::kUint, OrderSpec::None()});
  spec.output_schema = StreamSchema("mm", StreamKind::kStream, fields);
  spec.keys.push_back(MustCompile(expr::MakeBinaryIr(
      BinaryOp::kDiv, DataType::kUint,
      expr::MakeFieldRef(0, 0, DataType::kUint, "t"),
      expr::MakeConst(Value::Uint(10)))));
  AggregateSpec min_spec;
  min_spec.fn = AggFn::kMin;
  min_spec.result_type = DataType::kUint;
  AggregateSpec max_spec;
  max_spec.fn = AggFn::kMax;
  max_spec.result_type = DataType::kUint;
  spec.agg_specs = {min_spec, max_spec};
  spec.agg_args.emplace_back(
      MustCompile(expr::MakeFieldRef(0, 2, DataType::kUint, "len")));
  spec.agg_args.emplace_back(
      MustCompile(expr::MakeFieldRef(0, 2, DataType::kUint, "len")));
  spec.ordered_key = 0;
  spec.ordered_key_source = 0;

  ASSERT_TRUE(registry_.DeclareStream(spec.output_schema).ok());
  auto input = registry_.Subscribe("in", 64);
  ASSERT_TRUE(input.ok());
  OrderedAggregateNode node(std::move(spec), *input, &registry_, params_);
  auto output = registry_.Subscribe("mm", 64);

  Send(1, 0, 50);
  Send(2, 0, 10);
  Send(3, 0, 90);
  node.Poll(100);
  node.Flush();
  rts::TupleCodec codec(StreamSchema("mm", StreamKind::kStream, fields));
  rts::StreamMessage message;
  rts::Row row;
  bool got = false;
  while ((*output)->TryPop(&message)) {
    if (message.kind != rts::StreamMessage::Kind::kTuple) continue;
    auto decoded = codec.Decode(
        ByteSpan(message.payload.data(), message.payload.size()));
    ASSERT_TRUE(decoded.ok());
    row = *decoded;
    got = true;
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(row[1].uint_value(), 10u);
  EXPECT_EQ(row[2].uint_value(), 90u);
}

// --- Accumulator arithmetic ---

// INT sums wrap modulo 2^64 like the VM's INT arithmetic, instead of
// overflowing int64 (undefined behaviour). The superaggregate merges a
// partial by folding its value in.
TEST(GroupLayoutTest, IntSumWrapsOnOverflow) {
  AggregateSpec sum;
  sum.fn = AggFn::kSum;
  sum.result_type = DataType::kInt;
  GroupLayout layout({}, {sum});
  const int64_t max = std::numeric_limits<int64_t>::max();
  const FoldArg arg = FoldArg::Of(Value::Int(max));

  uint64_t twice = 0;
  layout.Start(&twice, nullptr, &arg, 1);
  layout.Fold(&twice, nullptr, &arg, 1);
  EXPECT_EQ(static_cast<int64_t>(twice), -2);

  uint64_t weighted = 0;
  layout.Start(&weighted, nullptr, &arg, 3);
  EXPECT_EQ(static_cast<int64_t>(weighted), max - 2);

  uint64_t once = 0;
  layout.Start(&once, nullptr, &arg, 1);
  uint64_t merged = 0;
  layout.Start(&merged, nullptr, &arg, 1);
  const FoldArg partial = FoldArg::Of(Value::Int(static_cast<int64_t>(once)));
  layout.Fold(&merged, nullptr, &partial, 1);
  EXPECT_EQ(static_cast<int64_t>(merged), -2);
}

// A band lowers an INT bound saturating at INT64_MIN, as UINT saturates at
// 0: `value - band` would overflow near INT64_MIN, and a band above
// INT64_MAX does not fit an int64.
TEST(ReduceByBandTest, IntSaturatesAtMinimum) {
  const int64_t min = std::numeric_limits<int64_t>::min();
  const int64_t max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(ReduceByBand(Value::Int(10), 3).int_value(), 7);
  EXPECT_EQ(ReduceByBand(Value::Int(-5), 10).int_value(), -15);
  EXPECT_EQ(ReduceByBand(Value::Int(min + 5), 10).int_value(), min);
  EXPECT_EQ(ReduceByBand(Value::Int(min + 10), 10).int_value(), min);
  EXPECT_EQ(ReduceByBand(Value::Int(0), uint64_t{1} << 63).int_value(), min);
  EXPECT_EQ(ReduceByBand(Value::Int(-1), UINT64_MAX).int_value(), min);
  EXPECT_EQ(ReduceByBand(Value::Int(max), (uint64_t{1} << 63) + 1).int_value(),
            -2);
  EXPECT_EQ(ReduceByBand(Value::Int(max), UINT64_MAX).int_value(), min);
  EXPECT_EQ(ReduceByBand(Value::Uint(3), 10).uint_value(), 0u);
}

/// The LFTA slot hash of a key row: FNV-1a over each value's Value::Hash.
uint64_t ValueRowHash(const rts::Row& keys) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Value& value : keys) {
    h ^= value.Hash();
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The packed-key hash is the number the decoded key row hashes to, for
// every key type, so LFTA slots (and with them collisions, evictions and
// the emitted partials) do not depend on how the key was built.
TEST(GroupLayoutTest, KeyHashMatchesValueHashes) {
  const std::vector<DataType> types = {DataType::kBool, DataType::kInt,
                                       DataType::kUint, DataType::kFloat,
                                       DataType::kIp,   DataType::kString};
  std::vector<FieldDef> fields;
  for (size_t i = 0; i < types.size(); ++i) {
    fields.push_back({"k" + std::to_string(i), types[i], OrderSpec::None()});
  }
  rts::TupleCodec codec(StreamSchema("k", StreamKind::kStream, fields));
  GroupLayout layout(types, {});
  Rng rng(11);
  for (int n = 0; n < 500; ++n) {
    std::string text(rng.NextBelow(12), 'a');
    for (char& c : text) c = static_cast<char>('a' + rng.NextBelow(26));
    rts::Row keys = {
        Value::Bool(rng.NextBelow(2) == 1),
        Value::Int(static_cast<int64_t>(rng.Next())),
        Value::Uint(rng.Next()),
        Value::Float(static_cast<double>(rng.Next() % 1000) - 500.5),
        Value::Ip(static_cast<uint32_t>(rng.Next())),
        Value::String(text)};
    ByteBuffer packed;
    codec.Encode(keys, &packed);
    EXPECT_EQ(layout.KeyHash(ByteSpan(packed.data(), packed.size())),
              ValueRowHash(keys));
  }
}

// --- Direct-mapped LFTA table ---

AggregateSpec CountSpec() {
  AggregateSpec count;
  count.fn = AggFn::kCount;
  count.result_type = DataType::kUint;
  return count;
}

ByteBuffer UintKey(uint64_t v) {
  ByteBuffer key(sizeof(v));
  std::memcpy(key.data(), &v, sizeof(v));
  return key;
}

ByteSpan Span(const ByteBuffer& bytes) {
  return ByteSpan(bytes.data(), bytes.size());
}

/// Decodes a (UINT key, COUNT) group tuple the table emitted.
rts::Row DecodeCountGroup(const ByteBuffer& tuple) {
  std::vector<FieldDef> fields = {{"key", DataType::kUint, OrderSpec::None()},
                                  {"cnt", DataType::kUint, OrderSpec::None()}};
  rts::TupleCodec codec(StreamSchema("g", StreamKind::kStream, fields));
  auto row = codec.Decode(Span(tuple));
  EXPECT_TRUE(row.ok());
  return row.ok() ? *row : rts::Row{};
}

TEST(DirectMappedTableTest, UpsertAndDrain) {
  GroupLayout layout({DataType::kUint}, {CountSpec()});
  DirectMappedAggTable table(4, &layout);  // 16 slots

  FoldArg args[1];
  ByteBuffer ejected;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(table.Upsert(Span(UintKey(7)), args, 1, &ejected));
  }
  EXPECT_EQ(table.occupied(), 1u);
  auto drained = table.DrainAll();
  ASSERT_EQ(drained.size(), 1u);
  rts::Row group = DecodeCountGroup(drained[0]);
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].uint_value(), 7u);
  EXPECT_EQ(group[1].uint_value(), 3u);
  EXPECT_EQ(table.occupied(), 0u);
}

TEST(DirectMappedTableTest, CollisionEjectsIncumbent) {
  GroupLayout layout({DataType::kUint}, {CountSpec()});
  DirectMappedAggTable table(0, &layout);  // 1 slot: every new key collides

  FoldArg args[1];
  ByteBuffer ejected;
  EXPECT_FALSE(table.Upsert(Span(UintKey(1)), args, 1, &ejected));
  ASSERT_TRUE(table.Upsert(Span(UintKey(2)), args, 1, &ejected));
  rts::Row group = DecodeCountGroup(ejected);
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].uint_value(), 1u);
  EXPECT_EQ(group[1].uint_value(), 1u);
  EXPECT_EQ(table.evictions(), 1u);
}

TEST(DirectMappedTableTest, EvictionRateDropsWithTableSize) {
  GroupLayout layout({DataType::kUint}, {CountSpec()});

  auto run = [&layout](int log2_slots) {
    DirectMappedAggTable table(log2_slots, &layout);
    FoldArg args[1];
    ByteBuffer ejected;
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
      table.Upsert(Span(UintKey(rng.NextBelow(256))), args, 1, &ejected);
    }
    return table.evictions();
  };
  uint64_t small = run(3);
  uint64_t large = run(10);
  EXPECT_GT(small, large * 2);
}

// --- LFTA pre-aggregation node: the exact message sequence it emits ---

class LftaAggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.DeclareStream(InputSchema()).ok());
    ASSERT_TRUE(registry_.DeclareStream(AggOutputSchema("lagg")).ok());
    params_ = std::make_shared<std::vector<Value>>();
  }

  void Build(int log2_slots, OrderedAggregateNode::Spec spec,
             const rts::ShedState* shed = nullptr) {
    log2_slots_ = log2_slots;
    auto input = registry_.Subscribe("in", 1024);
    ASSERT_TRUE(input.ok());
    node_ = std::make_unique<LftaAggregateNode>(
        std::move(spec), log2_slots, *input, &registry_, params_, shed);
    auto output = registry_.Subscribe("lagg", 1024);
    ASSERT_TRUE(output.ok());
    output_ = *output;
  }

  void Build(int log2_slots, const rts::ShedState* shed = nullptr) {
    Build(log2_slots, MakeSpec("lagg"), shed);
  }

  void Send(uint64_t t, uint64_t key, uint64_t len, uint32_t weight = 1) {
    rts::TupleCodec codec(InputSchema());
    rts::StreamMessage message;
    message.weight = weight;
    codec.Encode({Value::Uint(t), Value::Uint(key), Value::Uint(len)},
                 &message.payload);
    registry_.Publish("in", message);
  }

  void SendPunctuation(uint64_t t) {
    rts::Punctuation punctuation;
    punctuation.bounds.emplace_back(0, Value::Uint(t));
    registry_.Publish("in",
                      rts::MakePunctuationMessage(punctuation, InputSchema()));
  }

  /// Every message emitted so far, in order: "T tb key cnt total" for a
  /// partial, "P field>=bound ..." for a punctuation.
  std::vector<std::string> Received() {
    std::vector<std::string> out;
    rts::TupleCodec codec(AggOutputSchema("lagg"));
    rts::StreamMessage message;
    while (output_->TryPop(&message)) {
      ByteSpan bytes(message.payload.data(), message.payload.size());
      if (message.kind == rts::StreamMessage::Kind::kTuple) {
        auto row = codec.Decode(bytes);
        EXPECT_TRUE(row.ok());
        if (!row.ok()) continue;
        std::string line = "T";
        for (const Value& v : *row) line += " " + v.ToString();
        out.push_back(line);
      } else {
        auto punctuation =
            rts::DecodePunctuation(bytes, AggOutputSchema("lagg"));
        EXPECT_TRUE(punctuation.ok());
        if (!punctuation.ok()) continue;
        std::string line = "P";
        for (const auto& [field, bound] : punctuation->bounds) {
          line += " " + std::to_string(field) + ">=" + bound.ToString();
        }
        out.push_back(line);
      }
    }
    return out;
  }

  static std::string Partial(uint64_t tb, uint64_t key, uint64_t cnt,
                             uint64_t total) {
    return "T " + std::to_string(tb) + " " + std::to_string(key) + " " +
           std::to_string(cnt) + " " + std::to_string(total);
  }

  /// The table slot group (tb, key) lands in.
  size_t SlotOf(uint64_t tb, uint64_t key) const {
    rts::Row keys = {Value::Uint(tb), Value::Uint(key)};
    return ValueRowHash(keys) & ((size_t{1} << log2_slots_) - 1);
  }

  /// The first `n` keys >= 100 whose groups in bucket `tb` occupy
  /// pairwise distinct slots.
  std::vector<uint64_t> DistinctSlotKeys(uint64_t tb, size_t n) const {
    std::vector<uint64_t> keys;
    std::vector<size_t> used;
    for (uint64_t key = 100; keys.size() < n; ++key) {
      size_t slot = SlotOf(tb, key);
      if (std::find(used.begin(), used.end(), slot) != used.end()) continue;
      used.push_back(slot);
      keys.push_back(key);
    }
    return keys;
  }

  rts::StreamRegistry registry_;
  rts::ParamBlock params_;
  int log2_slots_ = 0;
  std::unique_ptr<LftaAggregateNode> node_;
  rts::Subscription output_;
};

TEST_F(LftaAggregateTest, CollisionEjectsIncumbentPartialAtOnce) {
  Build(0);  // one slot: every new group collides
  Send(1, 100, 10);
  Send(2, 100, 20, /*weight=*/3);
  node_->Poll(100);
  EXPECT_TRUE(Received().empty());
  Send(3, 200, 5);
  node_->Poll(100);
  EXPECT_EQ(Received(), std::vector<std::string>{Partial(0, 100, 4, 70)});
  EXPECT_EQ(node_->table().evictions(), 1u);
  EXPECT_EQ(node_->table().occupied(), 1u);
  EXPECT_EQ(node_->tuples_in(), 3u);
  EXPECT_EQ(node_->tuples_out(), 1u);
}

TEST_F(LftaAggregateTest, AdvanceDrainsInSlotOrderThenBandedPunctuation) {
  OrderedAggregateNode::Spec spec = MakeSpec("lagg");
  spec.ordered_key_band = 1;
  Build(4, std::move(spec));
  std::vector<uint64_t> keys = DistinctSlotKeys(0, 3);
  for (uint64_t key : keys) Send(5, key, key);
  Send(7, keys[0], 1);
  node_->Poll(100);
  EXPECT_TRUE(Received().empty());

  Send(35, keys[1], 2);  // tb 0 -> 3
  node_->Poll(100);
  std::vector<uint64_t> by_slot = keys;
  std::sort(by_slot.begin(), by_slot.end(), [this](uint64_t a, uint64_t b) {
    return SlotOf(0, a) < SlotOf(0, b);
  });
  std::vector<std::string> expected;
  for (uint64_t key : by_slot) {
    expected.push_back(key == keys[0] ? Partial(0, key, 2, key + 1)
                                      : Partial(0, key, 1, key));
  }
  expected.push_back("P 0>=2");  // new epoch 3, reduced by the band of 1
  EXPECT_EQ(Received(), expected);
  EXPECT_EQ(node_->table().occupied(), 1u);  // the tuple that advanced

  Send(36, keys[1], 2);  // same bucket: no advance
  node_->Poll(100);
  EXPECT_TRUE(Received().empty());
}

TEST_F(LftaAggregateTest, PunctuationDrainsOnlyAboveTheEpoch) {
  Build(4);
  Send(15, 100, 10);  // epoch tb=1
  node_->Poll(100);
  SendPunctuation(5);   // tb 0: below the epoch
  SendPunctuation(19);  // tb 1: at the epoch
  node_->Poll(100);
  EXPECT_TRUE(Received().empty());
  EXPECT_EQ(node_->table().occupied(), 1u);

  SendPunctuation(25);  // tb 2: drains
  node_->Poll(100);
  EXPECT_EQ(Received(),
            (std::vector<std::string>{Partial(1, 100, 1, 10), "P 0>=2"}));
  EXPECT_EQ(node_->table().occupied(), 0u);

  Send(21, 100, 1);  // tb 2 is now the epoch: no drain
  node_->Poll(100);
  EXPECT_TRUE(Received().empty());
}

TEST_F(LftaAggregateTest, EpochCoarseningDrainsEveryKthAdvance) {
  rts::ShedState shed;
  shed.epoch_coarsen.store(3);
  Build(12, &shed);
  for (uint64_t tb = 0; tb < 3; ++tb) {
    Send(tb * 10, 100, 1);
    node_->Poll(100);
    EXPECT_TRUE(Received().empty()) << "bucket " << tb;
  }
  ASSERT_NE(SlotOf(0, 100), SlotOf(1, 100));
  ASSERT_NE(SlotOf(0, 100), SlotOf(2, 100));
  ASSERT_NE(SlotOf(1, 100), SlotOf(2, 100));
  EXPECT_EQ(node_->table().occupied(), 3u);

  Send(30, 100, 1);  // third advance: drains everything
  node_->Poll(100);
  std::vector<uint64_t> tbs = {0, 1, 2};
  std::sort(tbs.begin(), tbs.end(), [this](uint64_t a, uint64_t b) {
    return SlotOf(a, 100) < SlotOf(b, 100);
  });
  std::vector<std::string> expected;
  for (uint64_t tb : tbs) expected.push_back(Partial(tb, 100, 1, 1));
  expected.push_back("P 0>=3");
  EXPECT_EQ(Received(), expected);

  Send(40, 100, 1);
  Send(50, 100, 1);
  node_->Poll(100);
  EXPECT_TRUE(Received().empty());
  Send(60, 100, 1);
  node_->Poll(100);
  std::vector<std::string> second = Received();
  ASSERT_EQ(second.size(), 4u);
  EXPECT_EQ(second.back(), "P 0>=6");
}

TEST_F(LftaAggregateTest, TableCapEvictsColdestPartials) {
  rts::ShedState shed;
  shed.table_cap_pct.store(50);
  Build(3, &shed);  // 8 slots, cap 4
  std::vector<uint64_t> keys = DistinctSlotKeys(0, 5);
  for (size_t i = 0; i < 4; ++i) Send(1, keys[i], 10 + i);
  Send(2, keys[0], 1);  // keys[0] is now the hottest, keys[1] the coldest
  node_->Poll(100);
  EXPECT_TRUE(Received().empty());
  EXPECT_EQ(node_->table().occupied(), 4u);

  Send(3, keys[4], 1);
  node_->Poll(100);
  EXPECT_EQ(Received(), std::vector<std::string>{Partial(0, keys[1], 1, 11)});
  EXPECT_EQ(node_->table().occupied(), 4u);
  EXPECT_EQ(node_->table().shed_evictions(), 1u);
}

TEST_F(LftaAggregateTest, FlushDrainsWithoutPunctuation) {
  Build(4);
  std::vector<uint64_t> keys = DistinctSlotKeys(0, 2);
  Send(1, keys[0], 3);
  Send(2, keys[1], 4);
  node_->Poll(100);
  node_->Flush();
  std::vector<std::string> expected = {Partial(0, keys[0], 1, 3),
                                       Partial(0, keys[1], 1, 4)};
  if (SlotOf(0, keys[1]) < SlotOf(0, keys[0])) {
    std::swap(expected[0], expected[1]);
  }
  EXPECT_EQ(Received(), expected);
  EXPECT_EQ(node_->table().occupied(), 0u);
}

TEST_F(LftaAggregateTest, FailingKeyExpressionCountsOneEvalError) {
  OrderedAggregateNode::Spec spec = MakeSpec("lagg");
  spec.keys[1] = MustCompile(expr::MakeBinaryIr(
      BinaryOp::kDiv, DataType::kUint,
      expr::MakeFieldRef(0, 1, DataType::kUint, "key"),
      expr::MakeFieldRef(0, 2, DataType::kUint, "len")));
  Build(4, std::move(spec));
  Send(1, 100, 0);  // key / 0
  Send(2, 100, 10);
  node_->Poll(100);
  EXPECT_EQ(node_->eval_errors(), 1u);
  EXPECT_EQ(node_->tuples_in(), 2u);
  EXPECT_EQ(node_->table().occupied(), 1u);
  node_->Flush();
  EXPECT_EQ(Received(), std::vector<std::string>{Partial(0, 10, 1, 10)});
}

// --- Banded ordered keys (§2.1: Netflow start times are
// banded-increasing(30); groups must survive the band) ---

StreamSchema BandedInputSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"bt", DataType::kUint, OrderSpec::Banded(10)});
  fields.push_back({"v", DataType::kUint, OrderSpec::None()});
  return StreamSchema("bin", StreamKind::kStream, fields);
}

class BandedAggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.DeclareStream(BandedInputSchema()).ok());
    OrderedAggregateNode::Spec spec;
    spec.name = "bagg";
    spec.input_schema = BandedInputSchema();
    std::vector<FieldDef> out_fields;
    out_fields.push_back({"bt", DataType::kUint, OrderSpec::Banded(10)});
    out_fields.push_back({"cnt", DataType::kUint, OrderSpec::None()});
    spec.output_schema = StreamSchema("bagg", StreamKind::kStream,
                                      out_fields);
    spec.keys.push_back(
        MustCompile(expr::MakeFieldRef(0, 0, DataType::kUint, "bt")));
    AggregateSpec count;
    count.fn = AggFn::kCount;
    count.result_type = DataType::kUint;
    spec.agg_specs.push_back(count);
    spec.agg_args.emplace_back();
    spec.ordered_key = 0;
    spec.ordered_key_band = 10;
    spec.ordered_key_source = 0;
    ASSERT_TRUE(registry_.DeclareStream(spec.output_schema).ok());
    auto input = registry_.Subscribe("bin", 1024);
    ASSERT_TRUE(input.ok());
    params_ = std::make_shared<std::vector<Value>>();
    node_ = std::make_unique<OrderedAggregateNode>(std::move(spec), *input,
                                                   &registry_, params_);
    auto output = registry_.Subscribe("bagg", 1024);
    ASSERT_TRUE(output.ok());
    output_ = *output;
  }

  void Send(uint64_t bt) {
    rts::TupleCodec codec(BandedInputSchema());
    rts::StreamMessage message;
    codec.Encode({Value::Uint(bt), Value::Uint(1)}, &message.payload);
    registry_.Publish("bin", message);
  }

  std::vector<std::pair<uint64_t, uint64_t>> ReceiveGroups() {
    std::vector<std::pair<uint64_t, uint64_t>> groups;
    rts::TupleCodec codec(registry_.GetSchema("bagg").value());
    rts::StreamMessage message;
    while (output_->TryPop(&message)) {
      if (message.kind != rts::StreamMessage::Kind::kTuple) continue;
      auto row = codec.Decode(
          ByteSpan(message.payload.data(), message.payload.size()));
      if (row.ok()) {
        groups.emplace_back((*row)[0].uint_value(), (*row)[1].uint_value());
      }
    }
    return groups;
  }

  rts::StreamRegistry registry_;
  rts::ParamBlock params_;
  std::unique_ptr<OrderedAggregateNode> node_;
  rts::Subscription output_;
};

TEST_F(BandedAggregateTest, GroupsWithinBandStayOpen) {
  Send(15);
  Send(20);  // advance by 5 < band: nothing may close
  node_->Poll(100);
  EXPECT_TRUE(ReceiveGroups().empty());
  EXPECT_EQ(node_->open_groups(), 2u);
}

TEST_F(BandedAggregateTest, LateTupleWithinBandJoinsItsGroup) {
  Send(15);
  Send(20);
  Send(12);  // late, within band 10 of the max (20)
  Send(12);
  node_->Poll(100);
  EXPECT_EQ(node_->open_groups(), 3u);
  // Advance far enough to close everything below 35-10=25.
  Send(35);
  node_->Poll(100);
  auto groups = ReceiveGroups();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::pair<uint64_t, uint64_t>{12, 2}));
  EXPECT_EQ(groups[1], (std::pair<uint64_t, uint64_t>{15, 1}));
  EXPECT_EQ(groups[2], (std::pair<uint64_t, uint64_t>{20, 1}));
}

TEST_F(BandedAggregateTest, CloseBoundTrailsByBand) {
  Send(100);
  Send(109);
  Send(111);  // close bound = 101: flushes only the group at 100
  node_->Poll(100);
  auto groups = ReceiveGroups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].first, 100u);
  EXPECT_EQ(node_->open_groups(), 2u);
}

TEST_F(BandedAggregateTest, PunctuationIsAuthoritativeDespiteBand) {
  Send(100);
  Send(105);
  node_->Poll(100);
  // An upstream punctuation is a hard guarantee (not band-relative).
  rts::Punctuation punctuation;
  punctuation.bounds.emplace_back(0, Value::Uint(200));
  registry_.Publish("bin", rts::MakePunctuationMessage(
                               punctuation, BandedInputSchema()));
  node_->Poll(100);
  EXPECT_EQ(ReceiveGroups().size(), 2u);
  EXPECT_EQ(node_->open_groups(), 0u);
}

}  // namespace
}  // namespace gigascope::ops
