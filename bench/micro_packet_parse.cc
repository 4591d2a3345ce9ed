// Microbenchmark: packet decode + protocol interpretation — the cost of
// turning raw bytes into a PKT tuple (the RTS "interpretation functions").
// The *Bytes series time what the engine's inject path runs: interpretation
// straight into the packed tuple. The Row series decode those bytes again.

#include <benchmark/benchmark.h>

#include "core/engine.h"
#include "gsql/catalog.h"
#include "net/headers.h"

namespace {

gigascope::net::Packet MakePacket(size_t payload_len) {
  gigascope::net::TcpPacketSpec spec;
  spec.src_addr = 0x0a000001;
  spec.dst_addr = 0x0a000002;
  spec.dst_port = 80;
  spec.payload = std::string(payload_len, 'p');
  gigascope::net::Packet packet;
  packet.bytes = gigascope::net::BuildTcpPacket(spec);
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  packet.timestamp = 123456789;
  return packet;
}

void BM_DecodePacket(benchmark::State& state) {
  auto packet = MakePacket(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto decoded = gigascope::net::DecodePacket(packet.view());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodePacket)->Arg(0)->Arg(400)->Arg(1400);

/// Name-resolving convenience path: re-resolves every field name per call.
void BM_InterpretPacket(benchmark::State& state) {
  auto schema = gigascope::gsql::Catalog::BuiltinPacketSchema();
  auto packet = MakePacket(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto row = gigascope::core::InterpretPacket(schema, packet);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpretPacket)->Arg(0)->Arg(400)->Arg(1400);

/// The engine's inject path: extraction resolved once at source creation.
void BM_InterpretPacketPlanned(benchmark::State& state) {
  auto schema = gigascope::gsql::Catalog::BuiltinPacketSchema();
  auto plan = gigascope::core::BuildInterpretPlan(schema);
  auto packet = MakePacket(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto row = gigascope::core::InterpretPacket(plan, packet);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpretPacketPlanned)->Arg(0)->Arg(400)->Arg(1400);

/// The engine's inject path: interpretation straight into the packed
/// tuple, one buffer per packet as each message owns its payload.
void BM_InterpretPacketBytes(benchmark::State& state) {
  auto schema = gigascope::gsql::Catalog::BuiltinPacketSchema();
  auto plan = gigascope::core::BuildInterpretPlan(schema);
  auto packet = MakePacket(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    gigascope::ByteBuffer tuple;
    gigascope::core::InterpretPacketBytes(plan, packet, &tuple);
    benchmark::DoNotOptimize(tuple.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpretPacketBytes)->Arg(0)->Arg(400)->Arg(1400);

/// The PKT plan with the payload fields gated off — what a query set that
/// never reads payload (filters, aggregations over header fields) runs.
gigascope::core::InterpretPlan NoPayloadPlan() {
  auto plan = gigascope::core::BuildInterpretPlan(
      gigascope::gsql::Catalog::BuiltinPacketSchema());
  for (size_t f = 0; f < plan.fields.size(); ++f) {
    using Extract = gigascope::core::InterpretPlan::Extract;
    if (plan.fields[f] == Extract::kPayload ||
        plan.fields[f] == Extract::kIpPayload) {
      plan.wanted[f] = false;
    }
  }
  return plan;
}

/// Planned interpretation with the payload fields gated off.
void BM_InterpretPacketNoPayload(benchmark::State& state) {
  auto plan = NoPayloadPlan();
  auto packet = MakePacket(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto row = gigascope::core::InterpretPacket(plan, packet);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpretPacketNoPayload)->Arg(0)->Arg(400)->Arg(1400);

/// The byte path with the payload fields gated off: the filter-only and
/// aggregation workloads' inject cost.
void BM_InterpretPacketBytesNoPayload(benchmark::State& state) {
  auto plan = NoPayloadPlan();
  auto packet = MakePacket(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    gigascope::ByteBuffer tuple;
    gigascope::core::InterpretPacketBytes(plan, packet, &tuple);
    benchmark::DoNotOptimize(tuple.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpretPacketBytesNoPayload)->Arg(0)->Arg(400)->Arg(1400);

}  // namespace
