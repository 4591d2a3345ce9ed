#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "expr/codegen.h"
#include "ops/select_project.h"
#include "rts/punctuation.h"

namespace gigascope::ops {
namespace {

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
  fields.push_back({"v", DataType::kUint, OrderSpec::None()});
  return StreamSchema("in", StreamKind::kStream, fields);
}

StreamSchema OutputSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"tb", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"v2", DataType::kUint, OrderSpec::None()});
  return StreamSchema("out", StreamKind::kStream, fields);
}

CompiledExpr MustCompile(const expr::IrPtr& ir) {
  auto compiled = expr::Compile(ir);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

class SelectProjectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.DeclareStream(InputSchema()).ok());
    ASSERT_TRUE(registry_.DeclareStream(OutputSchema()).ok());

    SelectProjectNode::Spec spec;
    spec.name = "out";
    spec.input_schema = InputSchema();
    spec.output_schema = OutputSchema();
    // WHERE v > 10
    spec.predicate = MustCompile(expr::MakeBinaryIr(
        BinaryOp::kGt, DataType::kBool,
        expr::MakeFieldRef(0, 1, DataType::kUint, "v"),
        expr::MakeConst(Value::Uint(10))));
    // SELECT t/60 AS tb, v*2 AS v2
    spec.projections.push_back(MustCompile(expr::MakeBinaryIr(
        BinaryOp::kDiv, DataType::kUint,
        expr::MakeFieldRef(0, 0, DataType::kUint, "t"),
        expr::MakeConst(Value::Uint(60)))));
    spec.projections.push_back(MustCompile(expr::MakeBinaryIr(
        BinaryOp::kMul, DataType::kUint,
        expr::MakeFieldRef(0, 1, DataType::kUint, "v"),
        expr::MakeConst(Value::Uint(2)))));
    spec.punctuation_source = {0, -1};  // tb maps from field t

    auto input = registry_.Subscribe("in", 64);
    ASSERT_TRUE(input.ok());
    params_ = std::make_shared<std::vector<Value>>();
    node_ = std::make_unique<SelectProjectNode>(std::move(spec), *input,
                                                &registry_, params_);
    auto output = registry_.Subscribe("out", 64);
    ASSERT_TRUE(output.ok());
    output_ = *output;
    codec_ = std::make_unique<rts::TupleCodec>(OutputSchema());
  }

  void Send(uint64_t t, uint64_t v) {
    rts::TupleCodec codec(InputSchema());
    rts::StreamMessage message;
    codec.Encode({Value::Uint(t), Value::Uint(v)}, &message.payload);
    registry_.Publish("in", message);
  }

  std::optional<rts::Row> Receive() {
    rts::StreamMessage message;
    while (output_->TryPop(&message)) {
      if (message.kind != rts::StreamMessage::Kind::kTuple) continue;
      auto row = codec_->Decode(
          ByteSpan(message.payload.data(), message.payload.size()));
      if (row.ok()) return std::move(row).value();
    }
    return std::nullopt;
  }

  std::optional<rts::Punctuation> ReceivePunctuation() {
    rts::StreamMessage message;
    while (output_->TryPop(&message)) {
      if (message.kind != rts::StreamMessage::Kind::kPunctuation) continue;
      auto punctuation = rts::DecodePunctuation(
          ByteSpan(message.payload.data(), message.payload.size()),
          OutputSchema());
      if (punctuation.ok()) return std::move(punctuation).value();
    }
    return std::nullopt;
  }

  rts::StreamRegistry registry_;
  rts::ParamBlock params_;
  std::unique_ptr<SelectProjectNode> node_;
  rts::Subscription output_;
  std::unique_ptr<rts::TupleCodec> codec_;
};

TEST_F(SelectProjectTest, FiltersAndProjects) {
  Send(120, 50);
  Send(130, 5);  // filtered out: v <= 10
  Send(240, 11);
  EXPECT_EQ(node_->Poll(100), 3u);

  auto row1 = Receive();
  ASSERT_TRUE(row1.has_value());
  EXPECT_EQ((*row1)[0].uint_value(), 2u);    // 120/60
  EXPECT_EQ((*row1)[1].uint_value(), 100u);  // 50*2
  auto row2 = Receive();
  ASSERT_TRUE(row2.has_value());
  EXPECT_EQ((*row2)[0].uint_value(), 4u);
  EXPECT_FALSE(Receive().has_value());
  EXPECT_EQ(node_->tuples_in(), 3u);
  EXPECT_EQ(node_->tuples_out(), 2u);
}

TEST_F(SelectProjectTest, PollRespectsBudget) {
  for (int i = 0; i < 10; ++i) Send(100, 100);
  EXPECT_EQ(node_->Poll(4), 4u);
  EXPECT_EQ(node_->Poll(100), 6u);
  EXPECT_EQ(node_->Poll(100), 0u);
}

TEST_F(SelectProjectTest, PunctuationMapsThroughProjection) {
  rts::Punctuation punctuation;
  punctuation.bounds.emplace_back(0, Value::Uint(600));
  registry_.Publish("in", rts::MakePunctuationMessage(punctuation,
                                                      InputSchema()));
  node_->Poll(10);
  auto out = ReceivePunctuation();
  ASSERT_TRUE(out.has_value());
  // Bound on t=600 becomes bound tb = 600/60 = 10 on output field 0.
  ASSERT_TRUE(out->BoundFor(0).has_value());
  EXPECT_EQ(out->BoundFor(0)->uint_value(), 10u);
  EXPECT_FALSE(out->BoundFor(1).has_value());
}

TEST_F(SelectProjectTest, MalformedTupleCountsEvalError) {
  rts::StreamMessage junk;
  junk.kind = rts::StreamMessage::Kind::kTuple;
  junk.payload = {1, 2, 3};  // not a valid encoding
  registry_.Publish("in", junk);
  node_->Poll(10);
  EXPECT_EQ(node_->eval_errors(), 1u);
  EXPECT_EQ(node_->tuples_out(), 0u);
}

TEST_F(SelectProjectTest, ParamChangeTakesEffectImmediately) {
  // Rebuild a node whose predicate uses a parameter: v > $threshold.
  SelectProjectNode::Spec spec;
  spec.name = "pout";
  spec.input_schema = InputSchema();
  std::vector<FieldDef> out_fields;
  out_fields.push_back({"v", DataType::kUint, OrderSpec::None()});
  spec.output_schema = StreamSchema("pout", StreamKind::kStream, out_fields);
  auto predicate_ir = expr::MakeBinaryIr(
      BinaryOp::kGt, DataType::kBool,
      expr::MakeFieldRef(0, 1, DataType::kUint, "v"),
      expr::MakeParamRef(0, DataType::kUint, "threshold"));
  spec.predicate = MustCompile(predicate_ir);
  spec.projections.push_back(
      MustCompile(expr::MakeFieldRef(0, 1, DataType::kUint, "v")));
  spec.punctuation_source = {-1};

  auto params = std::make_shared<std::vector<Value>>(
      std::vector<Value>{Value::Uint(100)});
  ASSERT_TRUE(registry_.DeclareStream(spec.output_schema).ok());
  auto input = registry_.Subscribe("in", 64);
  ASSERT_TRUE(input.ok());
  SelectProjectNode node(std::move(spec), *input, &registry_, params);
  auto output = registry_.Subscribe("pout", 64);

  Send(1, 50);
  node.Poll(10);
  EXPECT_EQ(node.tuples_out(), 0u);  // 50 <= 100

  (*params)[0] = Value::Uint(10);  // change the parameter on the fly (§3)
  Send(2, 50);
  node.Poll(10);
  EXPECT_EQ(node.tuples_out(), 1u);  // 50 > 10
}

// --- Byte-copy projection vs. the VM ---

/// Fixed-width fields of every projectable type ahead of a BOOL and a
/// STRING, with a field behind the string.
StreamSchema WideSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"t", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"flag", DataType::kBool, OrderSpec::None()});
  fields.push_back({"ip", DataType::kIp, OrderSpec::None()});
  fields.push_back({"x", DataType::kInt, OrderSpec::None()});
  fields.push_back({"f", DataType::kFloat, OrderSpec::None()});
  fields.push_back({"s", DataType::kString, OrderSpec::None()});
  fields.push_back({"v", DataType::kUint, OrderSpec::None()});
  return StreamSchema("wide", StreamKind::kStream, fields);
}

/// Two nodes over the same input: one whose projections are plain loads
/// (byte-copy eligible), one whose projections are the same loads followed
/// by an identity cast instruction, which the VM must evaluate.
class ByteProjectionTest : public ::testing::Test {
 protected:
  void Build(bool with_predicate, const std::vector<size_t>& fields) {
    ASSERT_TRUE(registry_.DeclareStream(WideSchema()).ok());
    const StreamSchema input = WideSchema();
    std::vector<FieldDef> out_fields;
    for (size_t f : fields) out_fields.push_back(input.field(f));
    for (bool copy : {true, false}) {
      SelectProjectNode::Spec spec;
      spec.name = copy ? "copy" : "vm";
      spec.input_schema = input;
      spec.output_schema =
          StreamSchema(spec.name, StreamKind::kStream, out_fields);
      if (with_predicate) {
        // WHERE t > 5 AND x < 1000: runs on raw bytes in both nodes.
        spec.predicate = MustCompile(expr::MakeBinaryIr(
            BinaryOp::kAnd, DataType::kBool,
            expr::MakeBinaryIr(BinaryOp::kGt, DataType::kBool,
                               expr::MakeFieldRef(0, 0, DataType::kUint, "t"),
                               expr::MakeConst(Value::Uint(5))),
            expr::MakeBinaryIr(BinaryOp::kLt, DataType::kBool,
                               expr::MakeFieldRef(0, 3, DataType::kInt, "x"),
                               expr::MakeConst(Value::Int(1000)))));
      }
      for (size_t f : fields) {
        const DataType type = input.field(f).type;
        CompiledExpr load =
            MustCompile(expr::MakeFieldRef(0, f, type, input.field(f).name));
        if (!copy) {
          load.code.push_back(
              {expr::ByteOp::kCast, static_cast<uint16_t>(type), 0});
        }
        spec.projections.push_back(std::move(load));
        spec.punctuation_source.push_back(-1);
      }
      ASSERT_TRUE(registry_.DeclareStream(spec.output_schema).ok());
      auto in = registry_.Subscribe("wide", 1 << 12);
      ASSERT_TRUE(in.ok());
      auto node = std::make_unique<SelectProjectNode>(
          std::move(spec), *in, &registry_,
          std::make_shared<std::vector<Value>>());
      auto out = registry_.Subscribe(copy ? "copy" : "vm", 1 << 12);
      ASSERT_TRUE(out.ok());
      (copy ? copy_ : vm_) = std::move(node);
      (copy ? copy_out_ : vm_out_) = *out;
    }
  }

  /// A valid encoding, then (mostly) one hostile edit.
  ByteBuffer HostilePayload(Rng& rng) {
    rts::Row row = {Value::Uint(rng.NextBelow(12)),
                    Value::Bool(rng.NextBool(0.5)),
                    Value::Ip(static_cast<uint32_t>(rng.Next())),
                    Value::Int(static_cast<int64_t>(rng.NextBelow(2000)) - 500),
                    Value::Float(rng.NextDouble() * 100),
                    Value::String(std::string(rng.NextBelow(6), 'z')),
                    Value::Uint(rng.Next())};
    ByteBuffer bytes;
    rts::TupleCodec(WideSchema()).Encode(row, &bytes);
    const size_t string_at = 8 + 1 + 4 + 8 + 8;
    switch (rng.NextBelow(7)) {
      case 0:  // truncated
        bytes.resize(rng.NextBelow(bytes.size()));
        break;
      case 1:  // trailing bytes
        bytes.resize(bytes.size() + 1 + rng.NextBelow(8), 0x5a);
        break;
      case 2: {  // string length overrunning the buffer
        const uint32_t len =
            rng.NextBool(0.5) ? 0xffffffffu : static_cast<uint32_t>(bytes.size());
        std::memcpy(bytes.data() + string_at, &len, sizeof(len));
        break;
      }
      case 3:  // a BOOL byte that is neither 0 nor 1
        bytes[8] = 0x02;
        break;
      case 4:  // a NaN float with payload bits
        for (size_t b = 0; b < 8; ++b) bytes[21 + b] = 0xff;
        break;
      default:
        break;  // well-formed
    }
    return bytes;
  }

  std::vector<ByteBuffer> Drain(const rts::Subscription& out) {
    std::vector<ByteBuffer> payloads;
    rts::StreamMessage message;
    while (out->TryPop(&message)) {
      if (message.kind == rts::StreamMessage::Kind::kTuple) {
        payloads.push_back(message.payload);
      }
    }
    return payloads;
  }

  void RunHostileCorpus() {
    Rng rng(15);
    for (int round = 0; round < 40; ++round) {
      for (int i = 0; i < 50; ++i) {
        rts::StreamMessage message;
        message.kind = rts::StreamMessage::Kind::kTuple;
        message.payload = HostilePayload(rng);
        registry_.Publish("wide", message);
      }
      copy_->Poll(1 << 12);
      vm_->Poll(1 << 12);
      EXPECT_EQ(Drain(copy_out_), Drain(vm_out_)) << "round " << round;
    }
    EXPECT_EQ(copy_->tuples_in(), vm_->tuples_in());
    EXPECT_EQ(copy_->tuples_out(), vm_->tuples_out());
    EXPECT_EQ(copy_->eval_errors(), vm_->eval_errors());
    EXPECT_EQ(copy_->tuples_in(), 2000u);
    EXPECT_GT(copy_->tuples_out(), 0u);
    EXPECT_GT(copy_->eval_errors(), 0u);
  }

  rts::StreamRegistry registry_;
  std::unique_ptr<SelectProjectNode> copy_, vm_;
  rts::Subscription copy_out_, vm_out_;
};

TEST_F(ByteProjectionTest, FilteredCopyMatchesVmOnHostilePayloads) {
  Build(/*with_predicate=*/true, {4, 0, 2, 3});  // f, t, ip, x
  ASSERT_TRUE(copy_->has_byte_projection());
  ASSERT_TRUE(copy_->has_raw_filter());
  ASSERT_FALSE(vm_->has_byte_projection());
  RunHostileCorpus();
}

TEST_F(ByteProjectionTest, UnfilteredCopyMatchesVmOnHostilePayloads) {
  Build(/*with_predicate=*/false, {0, 2, 3, 4});  // adjacent runs merge
  ASSERT_TRUE(copy_->has_byte_projection());
  RunHostileCorpus();
}

TEST(ByteProjectionShapeTest, OnlyPlainFixedNonBoolLoadsCopy) {
  const StreamSchema input = WideSchema();
  auto eligible = [&input](size_t field) {
    rts::StreamRegistry registry;
    EXPECT_TRUE(registry.DeclareStream(input).ok());
    SelectProjectNode::Spec spec;
    spec.name = "o";
    spec.input_schema = input;
    spec.output_schema =
        StreamSchema("o", StreamKind::kStream, {input.field(field)});
    spec.projections.push_back(MustCompile(expr::MakeFieldRef(
        0, field, input.field(field).type, input.field(field).name)));
    spec.punctuation_source = {-1};
    EXPECT_TRUE(registry.DeclareStream(spec.output_schema).ok());
    auto in = registry.Subscribe("wide", 4);
    SelectProjectNode node(std::move(spec), *in, &registry,
                           std::make_shared<std::vector<Value>>());
    return node.has_byte_projection();
  };
  EXPECT_TRUE(eligible(0));
  EXPECT_FALSE(eligible(1));  // BOOL: decoding normalizes the byte
  EXPECT_TRUE(eligible(2));
  EXPECT_FALSE(eligible(5));  // STRING: variable width
  EXPECT_FALSE(eligible(6));  // behind a STRING: no fixed offset
}

}  // namespace
}  // namespace gigascope::ops
