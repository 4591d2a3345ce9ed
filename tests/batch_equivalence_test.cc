// Batch-vs-per-tuple equivalence: the batched data plane is a pure
// transport optimization, so the byte-exact sequence of emitted tuples AND
// the positions of punctuations in every output stream must be identical
// for any batch size and any placement of the HFTA nodes (single pump,
// worker threads, worker processes). The baseline is batch size 1
// (per-tuple flow, the pre-batching data plane) on the single pump.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "net/headers.h"
#include "workload/traffic_gen.h"

namespace gigascope::core {
namespace {

using expr::Value;

/// One output message rendered for diffing: kind marker + raw payload
/// bytes. Tuple payloads are deterministic encodings, so byte equality is
/// row equality; punctuations keep their position in the sequence.
std::string RenderMessage(const rts::StreamMessage& message) {
  std::string text(message.kind == rts::StreamMessage::Kind::kTuple ? "T:"
                                                                    : "P:");
  text.append(reinterpret_cast<const char*>(message.payload.data()),
              message.payload.size());
  return text;
}

/// Where the engine runs its HFTA nodes.
enum class Placement { kSingle, kThreads, kProcesses };

const char* PlacementName(Placement placement) {
  switch (placement) {
    case Placement::kSingle:
      return "single";
    case Placement::kThreads:
      return "threads";
    case Placement::kProcesses:
      return "processes";
  }
  return "?";
}

EngineOptions OptionsFor(Placement placement, size_t batch_size) {
  EngineOptions options;
  options.batch_max_size = batch_size;
  // Worker processes need shm-backed rings from construction on.
  options.process.enabled = placement == Placement::kProcesses;
  return options;
}

/// Starts `workers` HFTA workers for `placement` (none for the single pump).
void StartWorkers(Engine* engine, Placement placement, size_t workers) {
  Status started = Status::Ok();
  if (placement == Placement::kThreads) {
    started = engine->StartThreads(workers);
  } else if (placement == Placement::kProcesses) {
    started = engine->StartProcesses(workers);
  }
  EXPECT_TRUE(started.ok()) << started.ToString();
}

/// Replays a fixed randomized workload through the engine at the given
/// batch size and placement, and returns the full message trace of both
/// query outputs (a stateless filter and a split aggregation).
std::vector<std::string> RunWorkload(size_t batch_size, Placement placement) {
  workload::TrafficConfig config;
  config.seed = 11;
  config.num_flows = 40;
  workload::TrafficGenerator gen(config);

  Engine engine(OptionsFor(placement, batch_size));
  engine.AddInterface("eth0");
  EXPECT_TRUE(engine
                  .AddQuery("DEFINE { query_name filter; } "
                            "SELECT time, len FROM eth0.PKT "
                            "WHERE protocol = 6")
                  .ok());
  EXPECT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, destIP, count(*), sum(len) "
                            "FROM eth0.PKT "
                            "GROUP BY time AS tb, destIP")
                  .ok());
  auto filter_out = engine.registry().Subscribe("filter", 1 << 15);
  auto agg_out = engine.registry().Subscribe("agg", 1 << 15);
  EXPECT_TRUE(filter_out.ok() && agg_out.ok());
  StartWorkers(&engine, placement, 2);

  for (int i = 0; i < 4000; ++i) {
    net::Packet packet = gen.Next();
    EXPECT_TRUE(engine.InjectPacket("eth0", packet).ok());
    // Periodic heartbeats mix explicit punctuations into the stream on top
    // of the source's own every-256-packets ones.
    if ((i + 1) % 500 == 0) {
      EXPECT_TRUE(engine.InjectHeartbeat("eth0", packet.timestamp).ok());
    }
    if ((i + 1) % 256 == 0) engine.PumpUntilIdle();
  }
  engine.FlushAll();

  std::vector<std::string> trace;
  rts::StreamMessage message;
  while ((*filter_out)->TryPop(&message)) {
    trace.push_back("filter/" + RenderMessage(message));
  }
  while ((*agg_out)->TryPop(&message)) {
    trace.push_back("agg/" + RenderMessage(message));
  }
  // No run may have lost anything to backpressure: equivalence is only
  // meaningful when every configuration saw the whole workload.
  EXPECT_EQ(engine.registry().TotalDrops("eth0.PKT"), 0u);
  EXPECT_EQ(engine.registry().TotalDrops("filter"), 0u);
  EXPECT_EQ(engine.registry().TotalDrops("agg"), 0u);
  return trace;
}

TEST(BatchEquivalenceTest, RowsAndPunctuationsMatchAcrossBatchSizes) {
  // Baseline: per-tuple flow on the single pump.
  std::vector<std::string> baseline = RunWorkload(1, Placement::kSingle);
  ASSERT_FALSE(baseline.empty());

  const size_t kBatchSizes[] = {1, 7, 64, 4096};
  for (size_t batch_size : kBatchSizes) {
    for (Placement placement :
         {Placement::kSingle, Placement::kThreads, Placement::kProcesses}) {
      if (batch_size == 1 && placement == Placement::kSingle) {
        continue;  // the baseline itself
      }
      std::vector<std::string> trace = RunWorkload(batch_size, placement);
      EXPECT_EQ(trace, baseline) << "batch_size=" << batch_size
                                 << " placement=" << PlacementName(placement);
    }
  }
}

net::Packet MakeTcpPacket(SimTime timestamp, uint32_t dst_addr = 0x0a000001) {
  net::TcpPacketSpec spec;
  spec.src_addr = 0xac100001;
  spec.dst_addr = dst_addr;
  spec.src_port = 40000;
  spec.dst_port = 80;
  spec.flags = net::kTcpFlagAck;
  spec.payload = "x";
  net::Packet packet;
  packet.bytes = net::BuildTcpPacket(spec);
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  packet.timestamp = timestamp;
  return packet;
}

TEST(BatchEquivalenceTest, PunctuationStillClosesWindowWhenRingFills) {
  // Overload must cost tuples, never ordering guarantees: a heartbeat that
  // lands on a full ring parks and is delivered once the ring drains, so
  // the aggregation window still closes without waiting for the seal.
  EngineOptions options;
  options.channel_capacity = 4;
  options.batch_max_size = 1;  // slot == tuple: four packets fill the ring
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, count(*) FROM eth0.PKT "
                            "GROUP BY time AS tb")
                  .ok());
  auto sub = engine.Subscribe("agg", 64);
  ASSERT_TRUE(sub.ok());

  // Flood bucket 0 without pumping: the raw ring fills and drops.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0", MakeTcpPacket(
                                              (i + 1) * kNanosPerSecond / 64))
                    .ok());
  }
  EXPECT_GT(engine.registry().TotalDrops("eth0.PKT"), 0u);
  // The window-closing heartbeat hits the still-full ring: its tuples'
  // fate (drop) must not befall the punctuation.
  ASSERT_TRUE(engine.InjectHeartbeat("eth0", 2 * kNanosPerSecond).ok());

  // Ordinary pumping — no FlushAll — must deliver the parked punctuation
  // and close bucket 0.
  engine.PumpUntilIdle();
  auto row = (*sub)->NextRow();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].uint_value(), 0u);       // time bucket 0 closed
  EXPECT_GT((*row)[1].uint_value(), 0u);       // with the surviving tuples
  EXPECT_FALSE((*sub)->NextRow().has_value());  // exactly one group
}

/// A window-closing punctuation parked on a full subscriber ring must reach
/// the subscriber through ordinary pumping under every placement: whoever
/// produces into the ring (the inject thread, a worker thread, a worker
/// process) retries it once the subscriber frees space — not only at the
/// FlushAll seal.
void ExpectParkedPunctuationDelivered(Placement placement) {
  SCOPED_TRACE(PlacementName(placement));
  Engine engine(OptionsFor(placement, 1));  // slot == tuple
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .AddQuery("DEFINE { query_name agg; } "
                            "SELECT tb, destIP, count(*) FROM eth0.PKT "
                            "GROUP BY time AS tb, destIP")
                  .ok());
  auto sub = engine.registry().Subscribe("agg", 2);
  ASSERT_TRUE(sub.ok());
  StartWorkers(&engine, placement, 1);

  // Eight groups in second 0; the heartbeat closes the window, so the HFTA
  // emits eight tuples into a two-slot ring and parks the punctuation.
  constexpr uint32_t kGroups = 8;
  for (uint32_t i = 0; i < kGroups; ++i) {
    ASSERT_TRUE(engine
                    .InjectPacket("eth0",
                                  MakeTcpPacket((i + 1) * kNanosPerSecond / 16,
                                                0x0a000001 + i))
                    .ok());
  }
  ASSERT_TRUE(engine.InjectHeartbeat("eth0", 2 * kNanosPerSecond).ok());

  uint64_t tuples = 0;
  bool punctuation = false;
  rts::StreamMessage message;
  auto drain = [&] {
    while ((*sub)->TryPop(&message)) {
      if (message.kind == rts::StreamMessage::Kind::kTuple) {
        ++tuples;
      } else {
        punctuation = true;
      }
    }
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!punctuation && std::chrono::steady_clock::now() < deadline) {
    drain();
    engine.PumpUntilIdle();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  drain();
  EXPECT_TRUE(punctuation) << "punctuation still parked after 2 s of pumping";

  engine.FlushAll();
  drain();
  // Overload costs tuples, and every lost one is counted.
  EXPECT_EQ(tuples + (*sub)->dropped(), kGroups);
}

TEST(BatchEquivalenceTest, ParkedPunctuationReachesSubscriberSinglePump) {
  ExpectParkedPunctuationDelivered(Placement::kSingle);
}

TEST(BatchEquivalenceTest, ParkedPunctuationReachesSubscriberThreads) {
  ExpectParkedPunctuationDelivered(Placement::kThreads);
}

TEST(BatchEquivalenceTest, ParkedPunctuationReachesSubscriberProcesses) {
  ExpectParkedPunctuationDelivered(Placement::kProcesses);
}

}  // namespace
}  // namespace gigascope::core
