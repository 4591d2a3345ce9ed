#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "rts/punctuation.h"
#include "rts/registry.h"
#include "rts/ring.h"
#include "rts/tuple.h"

namespace gigascope::rts {
namespace {

using expr::Value;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

StreamSchema MixedSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"t", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"i", DataType::kInt, OrderSpec::None()});
  fields.push_back({"f", DataType::kFloat, OrderSpec::None()});
  fields.push_back({"addr", DataType::kIp, OrderSpec::None()});
  fields.push_back({"s", DataType::kString, OrderSpec::None()});
  fields.push_back({"b", DataType::kBool, OrderSpec::None()});
  return StreamSchema("mixed", StreamKind::kStream, fields);
}

Row SampleRow() {
  return {Value::Uint(42),          Value::Int(-7),
          Value::Float(3.25),       Value::Ip(0x0a000001),
          Value::String("payload"), Value::Bool(true)};
}

TEST(TupleCodecTest, RoundTrip) {
  TupleCodec codec(MixedSchema());
  ByteBuffer buffer;
  Row row = SampleRow();
  codec.Encode(row, &buffer);
  EXPECT_EQ(buffer.size(), codec.EncodedSize(row));
  auto decoded = codec.Decode(ByteSpan(buffer.data(), buffer.size()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ((*decoded)[i], row[i]) << "field " << i;
  }
}

TEST(TupleCodecTest, EmptyStringField) {
  TupleCodec codec(MixedSchema());
  Row row = SampleRow();
  row[4] = Value::String("");
  ByteBuffer buffer;
  codec.Encode(row, &buffer);
  auto decoded = codec.Decode(ByteSpan(buffer.data(), buffer.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[4].string_value(), "");
}

TEST(TupleCodecTest, TruncationRejected) {
  TupleCodec codec(MixedSchema());
  ByteBuffer buffer;
  codec.Encode(SampleRow(), &buffer);
  for (size_t cut : {size_t{0}, size_t{1}, buffer.size() / 2,
                     buffer.size() - 1}) {
    auto decoded = codec.Decode(ByteSpan(buffer.data(), cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(TupleCodecTest, TrailingBytesRejected) {
  TupleCodec codec(MixedSchema());
  ByteBuffer buffer;
  codec.Encode(SampleRow(), &buffer);
  buffer.push_back(0xff);
  EXPECT_FALSE(codec.Decode(ByteSpan(buffer.data(), buffer.size())).ok());
}

// -- Ring tests, run on both slot stores ---------------------------------------

enum class Backend { kHeap, kShm };

std::string BackendName(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kHeap ? "Heap" : "Shm";
}

std::unique_ptr<RingChannel> MakeRing(Backend backend, size_t capacity) {
  ShmRingOptions shm;
  shm.enabled = backend == Backend::kShm;
  return std::make_unique<RingChannel>(capacity, shm);
}

/// Every counter the two backends must agree on, in one comparable line.
std::string Counters(const RingChannel& ring) {
  return "pushed=" + std::to_string(ring.pushed()) +
         " popped=" + std::to_string(ring.popped()) +
         " dropped=" + std::to_string(ring.dropped()) +
         " size=" + std::to_string(ring.size()) +
         " high_water=" + std::to_string(ring.high_water_mark()) +
         " resync_dropped=" + std::to_string(ring.resync_dropped());
}

StreamMessage Tuple(uint8_t tag) {
  StreamMessage message;
  message.payload = {tag};
  return message;
}

StreamMessage Punct(uint8_t tag) {
  StreamMessage message = Tuple(tag);
  message.kind = StreamMessage::Kind::kPunctuation;
  return message;
}

/// Pops everything, message at a time, returning the payload tags.
std::vector<uint8_t> DrainTags(RingChannel* ring) {
  std::vector<uint8_t> tags;
  StreamMessage out;
  while (ring->TryPop(&out)) tags.push_back(out.payload[0]);
  return tags;
}

class RingTest : public ::testing::TestWithParam<Backend> {
 protected:
  /// A ring on the backend under test, owned by the fixture.
  RingChannel& Ring(size_t capacity) {
    ring_ = MakeRing(GetParam(), capacity);
    return *ring_;
  }

 private:
  std::unique_ptr<RingChannel> ring_;
};

class RingConcurrencyTest : public RingTest {};

INSTANTIATE_TEST_SUITE_P(Backends, RingTest,
                         ::testing::Values(Backend::kHeap, Backend::kShm),
                         BackendName);
INSTANTIATE_TEST_SUITE_P(Backends, RingConcurrencyTest,
                         ::testing::Values(Backend::kHeap, Backend::kShm),
                         BackendName);

TEST_P(RingTest, FifoOrder) {
  RingChannel& channel = Ring(8);
  for (int i = 0; i < 5; ++i) {
    StreamMessage message;
    message.payload = {static_cast<uint8_t>(i)};
    ASSERT_TRUE(channel.TryPush(std::move(message)));
  }
  StreamMessage out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(channel.TryPop(&out));
    EXPECT_EQ(out.payload[0], i);
  }
  EXPECT_FALSE(channel.TryPop(&out));
  EXPECT_EQ(Counters(channel),
            "pushed=5 popped=5 dropped=0 size=0 high_water=5 "
            "resync_dropped=0");
}

TEST_P(RingTest, CapacityEnforced) {
  RingChannel& channel = Ring(2);
  StreamMessage message;
  EXPECT_TRUE(channel.TryPush(message));
  EXPECT_TRUE(channel.TryPush(message));
  EXPECT_FALSE(channel.TryPush(message));
  EXPECT_EQ(channel.size(), 2u);
  EXPECT_EQ(Counters(channel),
            "pushed=2 popped=0 dropped=0 size=2 high_water=2 "
            "resync_dropped=0");
}

TEST_P(RingTest, DropAccounting) {
  RingChannel& channel = Ring(1);
  StreamMessage message;
  EXPECT_TRUE(channel.PushOrDrop(message));
  EXPECT_FALSE(channel.PushOrDrop(message));
  EXPECT_FALSE(channel.PushOrDrop(message));
  EXPECT_EQ(channel.dropped(), 2u);
  EXPECT_EQ(channel.pushed(), 1u);
  EXPECT_EQ(Counters(channel),
            "pushed=1 popped=0 dropped=2 size=1 high_water=1 "
            "resync_dropped=0");
}

TEST_P(RingTest, BatchDropAccountingIsMessageGranular) {
  // Overload accounting depends on `dropped()` counting *messages*, not
  // ring slots: a dropped 5-tuple batch is 5 lost tuples, and the shed
  // controller's drops-per-check threshold reads this counter.
  RingChannel& channel = Ring(1);
  StreamBatch filler;
  filler.items.emplace_back();
  ASSERT_TRUE(channel.PushOrDrop(std::move(filler)));

  StreamBatch batch;
  for (int i = 0; i < 5; ++i) {
    StreamMessage message;
    message.payload = {static_cast<uint8_t>(i)};
    batch.items.push_back(std::move(message));
  }
  EXPECT_FALSE(channel.PushOrDrop(std::move(batch)));
  EXPECT_EQ(channel.dropped(), 5u);

  // A punctuation riding the batch parks instead of dropping: only the
  // tuple messages count.
  StreamBatch with_punct;
  for (int i = 0; i < 3; ++i) with_punct.items.emplace_back();
  StreamMessage punct;
  punct.kind = StreamMessage::Kind::kPunctuation;
  with_punct.items.push_back(std::move(punct));
  EXPECT_FALSE(channel.PushOrDrop(std::move(with_punct)));
  EXPECT_EQ(channel.dropped(), 8u);  // 5 + 3; the punctuation parked
  // The parked punctuation rides out on the next successful push after
  // the ring drains.
  StreamMessage out;
  ASSERT_TRUE(channel.TryPop(&out));
  StreamBatch next;
  next.items.emplace_back();
  ASSERT_TRUE(channel.PushOrDrop(std::move(next)));
  StreamBatch popped;
  ASSERT_TRUE(channel.TryPop(&popped));
  ASSERT_EQ(popped.items.size(), 2u);
  EXPECT_EQ(popped.items.back().kind, StreamMessage::Kind::kPunctuation);
  EXPECT_EQ(channel.dropped(), 8u);
  EXPECT_EQ(Counters(channel),
            "pushed=3 popped=3 dropped=8 size=0 high_water=1 "
            "resync_dropped=0");
}

TEST_P(RingTest, HighWaterMark) {
  RingChannel& channel = Ring(16);
  StreamMessage message;
  for (int i = 0; i < 10; ++i) channel.TryPush(message);
  StreamMessage out;
  for (int i = 0; i < 10; ++i) channel.TryPop(&out);
  EXPECT_EQ(channel.high_water_mark(), 10u);
  EXPECT_EQ(channel.size(), 0u);
  EXPECT_EQ(Counters(channel),
            "pushed=10 popped=10 dropped=0 size=0 high_water=10 "
            "resync_dropped=0");
}

TEST(RegistryTest, DeclareSubscribePublish) {
  StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  EXPECT_TRUE(registry.HasStream("mixed"));
  auto sub = registry.Subscribe("mixed", 8);
  ASSERT_TRUE(sub.ok());
  StreamMessage message;
  message.payload = {1, 2, 3};
  EXPECT_EQ(registry.Publish("mixed", message), 1u);
  StreamMessage out;
  ASSERT_TRUE((*sub)->TryPop(&out));
  EXPECT_EQ(out.payload, (ByteBuffer{1, 2, 3}));
}

TEST(RegistryTest, FanOutToMultipleSubscribers) {
  StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  auto sub1 = registry.Subscribe("mixed", 8);
  auto sub2 = registry.Subscribe("mixed", 8);
  ASSERT_TRUE(sub1.ok() && sub2.ok());
  StreamMessage message;
  EXPECT_EQ(registry.Publish("mixed", message), 2u);
  EXPECT_EQ((*sub1)->size(), 1u);
  EXPECT_EQ((*sub2)->size(), 1u);
}

TEST(RegistryTest, SlowSubscriberDropsAlone) {
  StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  auto slow = registry.Subscribe("mixed", 1);
  auto fast = registry.Subscribe("mixed", 100);
  StreamMessage message;
  for (int i = 0; i < 10; ++i) registry.Publish("mixed", message);
  EXPECT_EQ((*slow)->dropped(), 9u);
  EXPECT_EQ((*fast)->dropped(), 0u);
  EXPECT_EQ(registry.TotalDrops("mixed"), 9u);
}

TEST(RegistryTest, SubscribeUnknownStreamFails) {
  StreamRegistry registry;
  EXPECT_FALSE(registry.Subscribe("nope", 8).ok());
  EXPECT_EQ(registry.Publish("nope", StreamMessage{}), 0u);
}

TEST(RegistryTest, RedeclareKeepsSubscribers) {
  StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  auto sub = registry.Subscribe("mixed", 8);
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  StreamMessage message;
  EXPECT_EQ(registry.Publish("mixed", message), 1u);
}

TEST(PunctuationTest, EncodeDecodeRoundTrip) {
  StreamSchema schema = MixedSchema();
  Punctuation punctuation;
  punctuation.bounds.emplace_back(0, Value::Uint(99));
  punctuation.bounds.emplace_back(2, Value::Float(1.5));
  ByteBuffer buffer;
  EncodePunctuation(punctuation, schema, &buffer);
  auto decoded = DecodePunctuation(ByteSpan(buffer.data(), buffer.size()),
                                   schema);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->bounds.size(), 2u);
  EXPECT_EQ(decoded->BoundFor(0)->uint_value(), 99u);
  EXPECT_DOUBLE_EQ(decoded->BoundFor(2)->float_value(), 1.5);
  EXPECT_FALSE(decoded->BoundFor(1).has_value());
}

TEST(PunctuationTest, CombineMaxKeepsLaterBounds) {
  Punctuation a, b;
  a.bounds.emplace_back(0, Value::Uint(10));
  a.bounds.emplace_back(1, Value::Int(5));
  b.bounds.emplace_back(0, Value::Uint(20));
  b.bounds.emplace_back(2, Value::Int(1));
  a.CombineMax(b);
  EXPECT_EQ(a.BoundFor(0)->uint_value(), 20u);
  EXPECT_EQ(a.BoundFor(1)->int_value(), 5);
  EXPECT_EQ(a.BoundFor(2)->int_value(), 1);
}

TEST(PunctuationTest, DecodeRejectsOutOfRangeField) {
  StreamSchema schema = MixedSchema();
  ByteBuffer buffer;
  ByteWriter writer(&buffer);
  writer.PutU32Le(1);
  writer.PutU32Le(1000);  // bad field index
  writer.PutU64Le(5);
  EXPECT_FALSE(
      DecodePunctuation(ByteSpan(buffer.data(), buffer.size()), schema).ok());
}

TEST(PunctuationTest, DecodeRejectsTruncation) {
  StreamSchema schema = MixedSchema();
  Punctuation punctuation;
  punctuation.bounds.emplace_back(0, Value::Uint(1));
  ByteBuffer buffer;
  EncodePunctuation(punctuation, schema, &buffer);
  buffer.resize(buffer.size() - 3);
  EXPECT_FALSE(
      DecodePunctuation(ByteSpan(buffer.data(), buffer.size()), schema).ok());
}

TEST_P(RingConcurrencyTest, ProducerConsumerLosesNothing) {
  // The channels stand in for the paper's shared-memory segments between
  // processes; a producer and a consumer thread must agree on counts.
  RingChannel& channel = Ring(256);
  const uint64_t kMessages = 200000;
  std::atomic<uint64_t> consumed{0};
  uint64_t checksum_out = 0;

  std::thread consumer([&] {
    StreamMessage message;
    uint64_t local = 0;
    while (local < kMessages) {
      if (channel.TryPop(&message)) {
        checksum_out += message.payload.empty() ? 0 : message.payload[0];
        ++local;
      } else {
        std::this_thread::yield();
      }
    }
    consumed.store(local);
  });

  uint64_t checksum_in = 0;
  for (uint64_t i = 0; i < kMessages; ++i) {
    StreamMessage message;
    message.payload = {static_cast<uint8_t>(i & 0xff)};
    checksum_in += message.payload[0];
    while (!channel.TryPush(message)) {
      std::this_thread::yield();  // backpressure, never drop
    }
  }
  consumer.join();
  EXPECT_EQ(consumed.load(), kMessages);
  EXPECT_EQ(checksum_out, checksum_in);
  EXPECT_EQ(channel.dropped(), 0u);
  EXPECT_EQ(channel.pushed(), kMessages);
  EXPECT_EQ(channel.popped(), kMessages);
}

TEST_P(RingTest, NonPowerOfTwoCapacityExact) {
  // The slot array rounds up to a power of two internally, but the logical
  // capacity handed to the constructor must be enforced exactly.
  RingChannel& channel = Ring(3);
  EXPECT_EQ(channel.capacity(), 3u);
  StreamMessage message;
  EXPECT_TRUE(channel.TryPush(message));
  EXPECT_TRUE(channel.TryPush(message));
  EXPECT_TRUE(channel.TryPush(message));
  EXPECT_FALSE(channel.TryPush(message));
  EXPECT_EQ(channel.size(), 3u);
  StreamMessage out;
  EXPECT_TRUE(channel.TryPop(&out));
  EXPECT_TRUE(channel.TryPush(message));
  EXPECT_FALSE(channel.TryPush(message));
  EXPECT_EQ(Counters(channel),
            "pushed=4 popped=1 dropped=0 size=3 high_water=3 "
            "resync_dropped=0");
}

TEST_P(RingConcurrencyTest, SpscStressFifoNoLoss) {
  // Two-thread SPSC stress: over a million messages through a small ring,
  // every message carries its sequence number, and the consumer asserts
  // strict FIFO. Afterwards the stat counters must balance exactly.
  RingChannel& channel = Ring(64);
  const uint64_t kMessages = 1 << 20;  // 1,048,576
  std::atomic<bool> fifo_ok{true};

  std::thread consumer([&] {
    StreamMessage message;
    uint64_t expected = 0;
    while (expected < kMessages) {
      if (!channel.TryPop(&message)) {
        std::this_thread::yield();
        continue;
      }
      uint64_t sequence = 0;
      for (int b = 0; b < 8; ++b) {
        sequence |= static_cast<uint64_t>(message.payload[b]) << (8 * b);
      }
      if (sequence != expected) {
        fifo_ok.store(false);
        break;
      }
      ++expected;
    }
  });

  for (uint64_t i = 0; i < kMessages; ++i) {
    StreamMessage message;
    message.payload.resize(8);
    for (int b = 0; b < 8; ++b) {
      message.payload[b] = static_cast<uint8_t>(i >> (8 * b));
    }
    // A failed TryPush leaves the message untouched (no-consume
    // contract), so the retry loop can move the very same object.
    while (!channel.TryPush(std::move(message))) {
      std::this_thread::yield();  // backpressure, never drop
    }
  }
  consumer.join();
  EXPECT_TRUE(fifo_ok.load());
  EXPECT_EQ(channel.dropped(), 0u);
  EXPECT_EQ(channel.pushed(), kMessages);
  EXPECT_EQ(channel.popped(), kMessages);
  // Exact accounting invariant: everything pushed was either popped or is
  // still queued.
  EXPECT_EQ(channel.pushed(), channel.popped() + channel.size());
}

TEST_P(RingTest, FailedPushLeavesMessageIntact) {
  // Regression: the old by-value TryPush consumed the message even when
  // the ring was full, so retry loops re-sent a moved-from shell.
  RingChannel& channel = Ring(1);
  StreamMessage filler;
  filler.payload = {9};
  ASSERT_TRUE(channel.TryPush(std::move(filler)));

  StreamMessage message;
  message.payload = {1, 2, 3};
  message.trace_id = 77;
  EXPECT_FALSE(channel.TryPush(std::move(message)));
  // The caller still owns the payload and can retry with the same object.
  EXPECT_EQ(message.payload, (ByteBuffer{1, 2, 3}));
  EXPECT_EQ(message.trace_id, 77u);

  StreamMessage out;
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_TRUE(channel.TryPush(std::move(message)));
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_EQ(out.payload, (ByteBuffer{1, 2, 3}));
}

TEST_P(RingTest, FailedBatchPushLeavesBatchIntact) {
  RingChannel& channel = Ring(1);
  StreamBatch filler;
  filler.items.emplace_back();
  ASSERT_TRUE(channel.TryPush(std::move(filler)));

  StreamBatch batch;
  for (uint8_t i = 0; i < 3; ++i) {
    StreamMessage message;
    message.payload = {i};
    batch.items.push_back(std::move(message));
  }
  EXPECT_FALSE(channel.TryPush(std::move(batch)));
  ASSERT_EQ(batch.items.size(), 3u);
  for (uint8_t i = 0; i < 3; ++i) EXPECT_EQ(batch.items[i].payload[0], i);

  StreamBatch out;
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_TRUE(channel.TryPush(std::move(batch)));
  EXPECT_EQ(channel.pushed(), 4u);  // counters count messages, not slots
  EXPECT_EQ(Counters(channel),
            "pushed=4 popped=1 dropped=0 size=1 high_water=1 "
            "resync_dropped=0");
}

TEST_P(RingTest, PunctuationParksOnFullRingAndRidesNextPush) {
  RingChannel& channel = Ring(1);
  StreamMessage filler;
  ASSERT_TRUE(channel.TryPush(std::move(filler)));

  // A full ring drops the batch's tuples but never its punctuation.
  StreamBatch batch;
  batch.items.emplace_back();  // tuple, will drop
  StreamMessage punct;
  punct.kind = StreamMessage::Kind::kPunctuation;
  punct.payload = {42};
  batch.items.push_back(std::move(punct));
  EXPECT_FALSE(channel.PushOrDrop(std::move(batch)));
  EXPECT_EQ(channel.dropped(), 1u);  // the tuple only
  EXPECT_TRUE(channel.has_parked());

  // Space frees; the parked punctuation rides the tail of the next push.
  StreamBatch out;
  ASSERT_TRUE(channel.TryPop(&out));
  StreamBatch next;
  next.items.emplace_back();
  EXPECT_TRUE(channel.PushOrDrop(std::move(next)));
  EXPECT_FALSE(channel.has_parked());
  ASSERT_TRUE(channel.TryPop(&out));
  ASSERT_EQ(out.items.size(), 2u);
  EXPECT_EQ(out.items[1].kind, StreamMessage::Kind::kPunctuation);
  EXPECT_EQ(out.items[1].payload, (ByteBuffer{42}));
  EXPECT_EQ(Counters(channel),
            "pushed=3 popped=3 dropped=1 size=0 high_water=1 "
            "resync_dropped=0");
}

TEST_P(RingTest, ParkedPunctuationSupersededByNewer) {
  RingChannel& channel = Ring(1);
  StreamMessage filler;
  ASSERT_TRUE(channel.TryPush(std::move(filler)));

  StreamMessage old_punct;
  old_punct.kind = StreamMessage::Kind::kPunctuation;
  old_punct.payload = {1};
  EXPECT_FALSE(channel.PushOrDrop(std::move(old_punct)));
  EXPECT_TRUE(channel.has_parked());

  // A newer punctuation carries a bound at least as tight: the parked one
  // is dropped as superseded, and the newer one parks in its place.
  StreamMessage new_punct;
  new_punct.kind = StreamMessage::Kind::kPunctuation;
  new_punct.payload = {2};
  EXPECT_FALSE(channel.PushOrDrop(std::move(new_punct)));
  EXPECT_TRUE(channel.has_parked());
  EXPECT_EQ(channel.dropped(), 0u);  // punctuations never count as drops

  StreamBatch out;
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_TRUE(channel.FlushParked());
  EXPECT_FALSE(channel.has_parked());
  ASSERT_TRUE(channel.TryPop(&out));
  ASSERT_EQ(out.items.size(), 1u);
  EXPECT_EQ(out.items[0].payload, (ByteBuffer{2}));  // only the newer one
  EXPECT_EQ(Counters(channel),
            "pushed=2 popped=2 dropped=0 size=0 high_water=1 "
            "resync_dropped=0");
}

TEST_P(RingTest, FlushParkedReparksWhileStillFull) {
  RingChannel& channel = Ring(1);
  StreamMessage filler;
  ASSERT_TRUE(channel.TryPush(std::move(filler)));
  StreamMessage punct;
  punct.kind = StreamMessage::Kind::kPunctuation;
  EXPECT_FALSE(channel.PushOrDrop(std::move(punct)));
  EXPECT_FALSE(channel.FlushParked());  // no room yet
  EXPECT_TRUE(channel.has_parked());
  StreamBatch out;
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_TRUE(channel.FlushParked());
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_EQ(out.items[0].kind, StreamMessage::Kind::kPunctuation);
  EXPECT_EQ(Counters(channel),
            "pushed=2 popped=2 dropped=0 size=0 high_water=1 "
            "resync_dropped=0");
}

TEST_P(RingTest, BatchPopAndMessagePopInterleaveFifo) {
  RingChannel& channel = Ring(4);
  for (uint8_t b = 0; b < 3; ++b) {
    StreamBatch batch;
    for (uint8_t i = 0; i < 3; ++i) {
      StreamMessage message;
      message.payload = {static_cast<uint8_t>(b * 3 + i)};
      batch.items.push_back(std::move(message));
    }
    ASSERT_TRUE(channel.TryPush(std::move(batch)));
  }
  // Drain one message from the first batch, then switch to batch pops:
  // the staged remainder must come out before the next slot.
  StreamMessage message;
  ASSERT_TRUE(channel.TryPop(&message));
  EXPECT_EQ(message.payload[0], 0);
  StreamBatch batch;
  ASSERT_TRUE(channel.TryPop(&batch));
  ASSERT_EQ(batch.items.size(), 2u);
  EXPECT_EQ(batch.items[0].payload[0], 1);
  EXPECT_EQ(batch.items[1].payload[0], 2);
  // Remaining six messages, message-at-a-time across slot boundaries.
  for (uint8_t expected = 3; expected < 9; ++expected) {
    ASSERT_TRUE(channel.TryPop(&message));
    EXPECT_EQ(message.payload[0], expected);
  }
  EXPECT_FALSE(channel.TryPop(&message));
  EXPECT_EQ(channel.pushed(), 9u);
  EXPECT_EQ(channel.popped(), 9u);
  EXPECT_EQ(Counters(channel),
            "pushed=9 popped=9 dropped=0 size=0 high_water=3 "
            "resync_dropped=0");
}

TEST_P(RingTest, BatchSizeHistogramCountsMessagesPerPush) {
  RingChannel& channel = Ring(8);
  StreamBatch batch;
  for (int i = 0; i < 5; ++i) batch.items.emplace_back();
  ASSERT_TRUE(channel.TryPush(std::move(batch)));
  StreamMessage single;
  ASSERT_TRUE(channel.TryPush(std::move(single)));
  auto snapshot = channel.batch_size_histogram().Snapshot();
  EXPECT_EQ(snapshot.count, 2u);  // two pushes...
  EXPECT_EQ(snapshot.sum, 6u);    // ...carrying six messages
  EXPECT_EQ(snapshot.max, 5u);
}

TEST_P(RingTest, ResyncGateDropsUntilPunctuation) {
  // After a consumer restart, tuples from the interrupted window must not
  // reach the new incarnation: the gate discards until the first
  // punctuation, delivers it (its bound is still valid), and disarms.
  RingChannel& channel = Ring(16);
  StreamBatch pre;
  pre.items.push_back(Tuple(1));
  pre.items.push_back(Tuple(2));
  pre.items.push_back(Punct(10));
  ASSERT_TRUE(channel.TryPush(std::move(pre)));
  StreamBatch post;
  post.items.push_back(Tuple(3));
  ASSERT_TRUE(channel.TryPush(std::move(post)));

  channel.BeginResync();
  EXPECT_TRUE(channel.resync_pending());
  StreamMessage out;
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_EQ(out.kind, StreamMessage::Kind::kPunctuation);
  EXPECT_EQ(DrainTags(&channel), (std::vector<uint8_t>{3}));
  EXPECT_FALSE(channel.resync_pending());
  EXPECT_EQ(Counters(channel),
            "pushed=4 popped=4 dropped=0 size=0 high_water=2 "
            "resync_dropped=2");
}

TEST_P(RingTest, ResyncGateEndsAtArmingPosition) {
  // A punctuation-free residue must not gate out data pushed after the
  // handoff: the head position at arming bounds the gap.
  RingChannel& channel = Ring(16);
  StreamBatch residue;
  residue.items.push_back(Tuple(1));
  residue.items.push_back(Tuple(2));
  ASSERT_TRUE(channel.TryPush(std::move(residue)));

  channel.BeginResync();
  ASSERT_TRUE(channel.TryPush(Tuple(3)));  // pushed after the handoff
  EXPECT_EQ(DrainTags(&channel), (std::vector<uint8_t>{3}));
  EXPECT_FALSE(channel.resync_pending());
  EXPECT_EQ(Counters(channel),
            "pushed=3 popped=3 dropped=0 size=0 high_water=2 "
            "resync_dropped=2");
}

TEST_P(RingTest, ResyncDiscardsStagedRemainder) {
  // A batch half-drained by the message-level pop belonged to the dead
  // incarnation: arming the gate discards (and counts) its staged rest.
  RingChannel& channel = Ring(4);
  StreamBatch batch;
  for (uint8_t i = 1; i <= 3; ++i) batch.items.push_back(Tuple(i));
  ASSERT_TRUE(channel.TryPush(std::move(batch)));
  StreamMessage out;
  ASSERT_TRUE(channel.TryPop(&out));
  EXPECT_EQ(out.payload[0], 1);

  channel.BeginResync();
  ASSERT_TRUE(channel.TryPush(Tuple(4)));
  EXPECT_EQ(DrainTags(&channel), (std::vector<uint8_t>{4}));
  EXPECT_EQ(Counters(channel),
            "pushed=4 popped=4 dropped=0 size=0 high_water=1 "
            "resync_dropped=2");
}

// A heap ring builds each slot the first time the producer reaches it:
// slots are reused lap after lap, and a ring destroyed with batches still
// queued frees exactly the slots it built (under ASan, destroying a slot
// that was never built, or leaving a built one alive, fails here).
TEST_P(RingTest, WrapsLapsAndDestroysPartlyBuiltSlots) {
  auto batch_of = [](uint8_t first, size_t n) {
    StreamBatch batch;
    for (size_t i = 0; i < n; ++i) {
      StreamMessage message = Tuple(static_cast<uint8_t>(first + i));
      message.payload.resize(64, 0xab);  // a heap payload to own
      batch.items.push_back(std::move(message));
    }
    return batch;
  };
  {
    RingChannel& channel = Ring(4);  // 4 slots, 10 laps
    uint8_t next = 0;
    uint8_t expected = 0;
    for (int lap = 0; lap < 10; ++lap) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(channel.TryPush(batch_of(next, 2)));
        next = static_cast<uint8_t>(next + 2);
      }
      StreamBatch out;
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(channel.TryPop(&out));
        ASSERT_EQ(out.size(), 2u);
        for (const StreamMessage& message : out.items) {
          EXPECT_EQ(message.payload[0], expected++);
        }
      }
      ASSERT_TRUE(channel.TryPush(batch_of(next, 1)));
      next = static_cast<uint8_t>(next + 1);
      ASSERT_TRUE(channel.TryPop(&out));
      EXPECT_EQ(out.items[0].payload[0], expected++);
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(channel.TryPush(batch_of(next, 3)));  // left queued
    }
    EXPECT_EQ(channel.size(), 3u);
  }
  {
    RingChannel& channel = Ring(1024);  // only the first 5 slots built
    for (uint8_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(channel.TryPush(batch_of(i, 4)));
    }
    StreamBatch out;
    ASSERT_TRUE(channel.TryPop(&out));
    ASSERT_TRUE(channel.TryPop(&out));
    EXPECT_EQ(channel.size(), 3u);
  }
  Ring(1);  // destroys the previous ring with its queued batches
}

TEST(RingBackendsTest, RandomOpsKeepCountersIdentical) {
  // Differential check of the two slot stores: one seeded sequence of
  // pushes, drops, parked-punctuation flushes, both pop APIs and resync
  // arming, applied to a heap and a shm ring side by side. Every popped
  // message and every counter must match after every step.
  auto heap = MakeRing(Backend::kHeap, 5);
  auto shm = MakeRing(Backend::kShm, 5);
  ASSERT_FALSE(heap->is_shm());
  ASSERT_TRUE(shm->is_shm());
  Rng rng(7);
  uint8_t tag = 0;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 40) {
      StreamBatch batch;
      const uint64_t tuples = rng.NextBelow(4);
      for (uint64_t i = 0; i < tuples; ++i) batch.items.push_back(Tuple(++tag));
      if (rng.NextBool(0.3)) batch.items.push_back(Punct(++tag));
      StreamBatch copy = batch;
      ASSERT_EQ(heap->PushOrDrop(std::move(batch)),
                shm->PushOrDrop(std::move(copy)));
    } else if (op < 45) {
      ASSERT_EQ(heap->FlushParked(), shm->FlushParked());
    } else if (op < 70) {
      StreamBatch from_heap;
      StreamBatch from_shm;
      ASSERT_EQ(heap->TryPop(&from_heap), shm->TryPop(&from_shm));
      ASSERT_EQ(from_heap.size(), from_shm.size());
      for (size_t i = 0; i < from_heap.size(); ++i) {
        ASSERT_EQ(from_heap.items[i].kind, from_shm.items[i].kind);
        ASSERT_EQ(from_heap.items[i].payload, from_shm.items[i].payload);
      }
    } else if (op < 99) {
      StreamMessage from_heap;
      StreamMessage from_shm;
      ASSERT_EQ(heap->TryPop(&from_heap), shm->TryPop(&from_shm));
      ASSERT_EQ(from_heap.kind, from_shm.kind);
      ASSERT_EQ(from_heap.payload, from_shm.payload);
    } else {
      heap->BeginResync();
      shm->BeginResync();
    }
    ASSERT_EQ(Counters(*heap), Counters(*shm)) << "step " << step;
    ASSERT_EQ(heap->has_parked(), shm->has_parked()) << "step " << step;
  }
  EXPECT_GT(heap->dropped(), 0u);
  EXPECT_GT(heap->resync_dropped(), 0u);
}

TEST(RegistryTest, FanOutDropChargedToFullChannelOnly) {
  // Regression: a full subscriber channel must not stop delivery to the
  // others, and its drop must be charged to that channel alone, exactly
  // once per lost message.
  StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  auto tiny = registry.Subscribe("mixed", 1);
  auto roomy = registry.Subscribe("mixed", 8);
  ASSERT_TRUE(tiny.ok() && roomy.ok());

  StreamMessage first, second;
  first.payload = {1};
  second.payload = {2};
  EXPECT_EQ(registry.Publish("mixed", first), 2u);
  // tiny is now full; the second publish reaches only roomy.
  EXPECT_EQ(registry.Publish("mixed", second), 1u);

  EXPECT_EQ((*tiny)->dropped(), 1u);
  EXPECT_EQ((*tiny)->pushed(), 1u);
  EXPECT_EQ((*roomy)->dropped(), 0u);
  EXPECT_EQ((*roomy)->pushed(), 2u);
  EXPECT_EQ(registry.TotalDrops("mixed"), 1u);

  // roomy saw both messages, in publish order.
  StreamMessage out;
  ASSERT_TRUE((*roomy)->TryPop(&out));
  EXPECT_EQ(out.payload, (ByteBuffer{1}));
  ASSERT_TRUE((*roomy)->TryPop(&out));
  EXPECT_EQ(out.payload, (ByteBuffer{2}));
  // tiny kept the message that fit.
  ASSERT_TRUE((*tiny)->TryPop(&out));
  EXPECT_EQ(out.payload, (ByteBuffer{1}));
  EXPECT_FALSE((*tiny)->TryPop(&out));
}

TEST(RegistryConcurrencyTest, PublisherAndSubscriberThreads) {
  StreamRegistry registry;
  ASSERT_TRUE(registry.DeclareStream(MixedSchema()).ok());
  auto sub = registry.Subscribe("mixed", 512);
  ASSERT_TRUE(sub.ok());
  const uint64_t kMessages = 50000;
  std::atomic<uint64_t> received{0};
  std::thread consumer([&] {
    StreamMessage message;
    uint64_t local = 0;
    while (local < kMessages) {
      if ((*sub)->TryPop(&message)) {
        ++local;
      } else {
        std::this_thread::yield();
      }
    }
    received.store(local);
  });
  StreamMessage message;
  for (uint64_t i = 0; i < kMessages; ++i) {
    while (registry.Publish("mixed", message) == 0 ||
           (*sub)->dropped() > 0) {
      if ((*sub)->dropped() > 0) break;  // PushOrDrop dropped: back off
      std::this_thread::yield();
    }
    // Simple backpressure: wait while nearly full.
    while ((*sub)->size() > 480) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_GE(received.load() + (*sub)->dropped(), kMessages);
}

}  // namespace
}  // namespace gigascope::rts
