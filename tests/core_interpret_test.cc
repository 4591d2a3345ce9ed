// Tests for the packet interpretation library (§2.2: "the Gigascope run
// time system interprets the data packets as a collection of fields using
// a library of interpretation functions") and the sampling UDF.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "gsql/catalog.h"
#include "net/headers.h"
#include "rts/punctuation.h"

namespace gigascope::core {
namespace {

using expr::Value;
using gsql::DataType;

net::Packet SamplePacket() {
  net::TcpPacketSpec spec;
  spec.src_addr = 0x0a000001;
  spec.dst_addr = 0xc0a80102;
  spec.src_port = 49152;
  spec.dst_port = 443;
  spec.seq = 777;
  spec.flags = net::kTcpFlagSyn | net::kTcpFlagAck;
  spec.ip_id = 999;
  spec.payload = "TLS-ish bytes";
  net::Packet packet;
  packet.bytes = net::BuildTcpPacket(spec);
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  packet.timestamp = 5 * kNanosPerSecond + 123;
  return packet;
}

TEST(InterpretPacketTest, AllPktFieldsExtracted) {
  auto schema = gsql::Catalog::BuiltinPacketSchema();
  net::Packet packet = SamplePacket();
  rts::Row row = InterpretPacket(schema, packet);
  ASSERT_EQ(row.size(), schema.num_fields());

  auto get = [&](const char* name) {
    auto index = schema.FieldIndex(name);
    EXPECT_TRUE(index.has_value()) << name;
    return row[*index];
  };
  EXPECT_EQ(get("time").uint_value(), 5u);
  EXPECT_EQ(get("timestamp").uint_value(),
            static_cast<uint64_t>(packet.timestamp));
  EXPECT_EQ(get("srcIP").ip_value(), 0x0a000001u);
  EXPECT_EQ(get("destIP").ip_value(), 0xc0a80102u);
  EXPECT_EQ(get("srcPort").uint_value(), 49152u);
  EXPECT_EQ(get("destPort").uint_value(), 443u);
  EXPECT_EQ(get("protocol").uint_value(), net::kIpProtoTcp);
  EXPECT_EQ(get("ipVersion").uint_value(), 4u);
  EXPECT_EQ(get("len").uint_value(), packet.orig_len);
  EXPECT_EQ(get("tcpFlags").uint_value(),
            uint64_t{net::kTcpFlagSyn | net::kTcpFlagAck});
  EXPECT_EQ(get("tcpSeq").uint_value(), 777u);
  EXPECT_EQ(get("ipId").uint_value(), 999u);
  EXPECT_EQ(get("fragOffset").uint_value(), 0u);
  EXPECT_EQ(get("moreFrags").uint_value(), 0u);
  EXPECT_EQ(get("payload").string_value(), "TLS-ish bytes");
  // ipPayload = TCP header + payload.
  EXPECT_EQ(get("ipPayload").string_value().size(),
            net::kTcpMinHeaderLen + 13);
}

TEST(InterpretPacketTest, FragmentFieldsReflectFragmentation) {
  auto schema = gsql::Catalog::BuiltinPacketSchema();
  net::UdpPacketSpec spec;
  spec.payload = std::string(600, 'f');
  spec.ip_id = 42;
  auto fragments = net::FragmentIpv4Packet(net::BuildUdpPacket(spec), 256);
  ASSERT_TRUE(fragments.ok());
  ASSERT_GE(fragments->size(), 2u);

  net::Packet first;
  first.bytes = (*fragments)[0];
  first.orig_len = static_cast<uint32_t>(first.bytes.size());
  rts::Row row = InterpretPacket(schema, first);
  auto index_of = [&](const char* name) {
    return *schema.FieldIndex(name);
  };
  EXPECT_EQ(row[index_of("ipId")].uint_value(), 42u);
  EXPECT_EQ(row[index_of("fragOffset")].uint_value(), 0u);
  EXPECT_EQ(row[index_of("moreFrags")].uint_value(), 1u);

  net::Packet second;
  second.bytes = (*fragments)[1];
  second.orig_len = static_cast<uint32_t>(second.bytes.size());
  row = InterpretPacket(schema, second);
  EXPECT_EQ(row[index_of("fragOffset")].uint_value(), 256u / 8);
  // Non-first fragments have no transport header: ports default to 0.
  EXPECT_EQ(row[index_of("destPort")].uint_value(), 0u);
}

TEST(InterpretPacketTest, MalformedPacketYieldsDefaults) {
  auto schema = gsql::Catalog::BuiltinPacketSchema();
  net::Packet junk;
  junk.bytes = {1, 2, 3};  // shorter than Ethernet
  junk.orig_len = 3;
  junk.timestamp = kNanosPerSecond;
  rts::Row row = InterpretPacket(schema, junk);
  ASSERT_EQ(row.size(), schema.num_fields());
  EXPECT_EQ(row[*schema.FieldIndex("time")].uint_value(), 1u);
  EXPECT_EQ(row[*schema.FieldIndex("srcIP")].ip_value(), 0u);
  EXPECT_EQ(row[*schema.FieldIndex("payload")].string_value(), "");
}

TEST(InterpretPacketTest, PlannedInterpretationMatchesNameResolved) {
  auto schema = gsql::Catalog::BuiltinPacketSchema();
  InterpretPlan plan = BuildInterpretPlan(schema);
  net::Packet packet = SamplePacket();
  rts::Row by_name = InterpretPacket(schema, packet);
  rts::Row by_plan = InterpretPacket(plan, packet);
  ASSERT_EQ(by_plan.size(), by_name.size());
  for (size_t f = 0; f < by_name.size(); ++f) {
    EXPECT_EQ(by_plan[f].Compare(by_name[f]), 0) << f;
  }
}

TEST(InterpretPacketTest, UnwantedPayloadFieldsInterpretAsDefaults) {
  auto schema = gsql::Catalog::BuiltinPacketSchema();
  InterpretPlan plan = BuildInterpretPlan(schema);
  plan.wanted[*schema.FieldIndex("payload")] = false;
  plan.wanted[*schema.FieldIndex("ipPayload")] = false;
  rts::Row row = InterpretPacket(plan, SamplePacket());
  EXPECT_EQ(row[*schema.FieldIndex("payload")].string_value(), "");
  EXPECT_EQ(row[*schema.FieldIndex("ipPayload")].string_value(), "");
  // Fixed-width fields are never gated.
  EXPECT_EQ(row[*schema.FieldIndex("destPort")].uint_value(), 443u);
  EXPECT_EQ(row[*schema.FieldIndex("srcIP")].ip_value(), 0x0a000001u);
}

TEST(InterpretPacketTest, UnknownFieldsGetTypeDefaults) {
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"time", DataType::kUint, gsql::OrderSpec::Increasing()});
  fields.push_back({"mystery", DataType::kFloat, gsql::OrderSpec::None()});
  fields.push_back({"note", DataType::kString, gsql::OrderSpec::None()});
  gsql::StreamSchema schema("CUSTOM", gsql::StreamKind::kProtocol, fields);
  rts::Row row = InterpretPacket(schema, SamplePacket());
  EXPECT_DOUBLE_EQ(row[1].float_value(), 0.0);
  EXPECT_EQ(row[2].string_value(), "");
}

// --- The byte path: interpretation straight into packed tuples ---

/// The packed tuple `schema` should hold for `packet`, derived field by
/// field from net::DecodePacket and packed with TupleCodec::Encode — an
/// implementation independent of the engine's extractor.
ByteBuffer ExpectedTuple(const gsql::StreamSchema& schema,
                         const net::Packet& packet, bool payload_wanted) {
  auto decoded = net::DecodePacket(packet.view());
  const net::DecodedPacket* d = decoded.ok() ? &decoded.value() : nullptr;
  const bool ip = d != nullptr && d->ip.has_value();
  const bool tcp = d != nullptr && d->tcp.has_value();
  const bool udp = d != nullptr && d->udp.has_value();
  rts::Row row;
  for (const gsql::FieldDef& field : schema.fields()) {
    const std::string& name = field.name;
    if (name == "time") {
      row.push_back(Value::Uint(
          static_cast<uint64_t>(packet.timestamp / kNanosPerSecond)));
    } else if (name == "timestamp") {
      row.push_back(Value::Uint(static_cast<uint64_t>(packet.timestamp)));
    } else if (name == "len") {
      row.push_back(Value::Uint(packet.orig_len));
    } else if (name == "srcIP") {
      row.push_back(Value::Ip(ip ? d->ip->src_addr : 0));
    } else if (name == "destIP") {
      row.push_back(Value::Ip(ip ? d->ip->dst_addr : 0));
    } else if (name == "srcPort") {
      row.push_back(Value::Uint(tcp   ? d->tcp->src_port
                                : udp ? d->udp->src_port
                                      : 0));
    } else if (name == "destPort") {
      row.push_back(Value::Uint(tcp   ? d->tcp->dst_port
                                : udp ? d->udp->dst_port
                                      : 0));
    } else if (name == "protocol") {
      row.push_back(Value::Uint(ip ? d->ip->protocol : 0));
    } else if (name == "ipVersion") {
      row.push_back(Value::Uint(ip ? 4 : 0));
    } else if (name == "tcpFlags") {
      row.push_back(Value::Uint(tcp ? d->tcp->flags : 0));
    } else if (name == "tcpSeq") {
      row.push_back(Value::Uint(tcp ? d->tcp->seq : 0));
    } else if (name == "ipId") {
      row.push_back(Value::Uint(ip ? d->ip->identification : 0));
    } else if (name == "fragOffset") {
      row.push_back(Value::Uint(ip ? d->ip->fragment_offset : 0));
    } else if (name == "moreFrags") {
      row.push_back(Value::Uint(ip && d->ip->more_fragments() ? 1 : 0));
    } else if (name == "payload") {
      std::string body;
      if (payload_wanted && d != nullptr) {
        body.assign(reinterpret_cast<const char*>(d->payload.data()),
                    d->payload.size());
      }
      row.push_back(Value::String(body));
    } else if (name == "ipPayload") {
      std::string body;
      const size_t start = ip ? net::kEthernetHeaderLen + d->ip->header_len : 0;
      if (payload_wanted && ip && packet.bytes.size() > start) {
        body.assign(reinterpret_cast<const char*>(packet.bytes.data() + start),
                    packet.bytes.size() - start);
      }
      row.push_back(Value::String(body));
    } else {
      row.push_back(Value::Default(field.type));
    }
  }
  ByteBuffer out;
  rts::TupleCodec(schema).Encode(row, &out);
  return out;
}

/// Every built-in field in a scrambled order, interleaved with unknown
/// fields of every type, so fixed fields also sit behind strings.
gsql::StreamSchema ScrambledSchema() {
  std::vector<gsql::FieldDef> fields;
  auto add = [&fields](const char* name, DataType type) {
    fields.push_back({name, type, gsql::OrderSpec::None()});
  };
  add("note", DataType::kString);
  add("destPort", DataType::kUint);
  add("payload", DataType::kString);
  add("flag", DataType::kBool);
  add("srcIP", DataType::kIp);
  add("ratio", DataType::kFloat);
  add("time", DataType::kUint);
  add("ipPayload", DataType::kString);
  add("delta", DataType::kInt);
  add("moreFrags", DataType::kUint);
  add("destIP", DataType::kIp);
  add("srcPort", DataType::kUint);
  add("tcpSeq", DataType::kUint);
  add("protocol", DataType::kUint);
  add("gateway", DataType::kIp);
  add("ipVersion", DataType::kUint);
  add("tcpFlags", DataType::kUint);
  add("len", DataType::kUint);
  add("ipId", DataType::kUint);
  add("fragOffset", DataType::kUint);
  add("timestamp", DataType::kUint);
  return gsql::StreamSchema("SCRAMBLED", gsql::StreamKind::kProtocol, fields);
}

net::Packet WithBytes(ByteBuffer bytes, SimTime timestamp) {
  net::Packet packet;
  packet.orig_len = static_cast<uint32_t>(bytes.size() + 7);
  packet.bytes = std::move(bytes);
  packet.timestamp = timestamp;
  return packet;
}

/// TCP, UDP, empty-payload, non-IP, fragmented, truncated and random-byte
/// packets.
std::vector<net::Packet> PacketCorpus() {
  std::vector<net::Packet> corpus;
  corpus.push_back(SamplePacket());
  net::TcpPacketSpec empty_tcp;
  empty_tcp.src_addr = 0xffffffff;
  empty_tcp.dst_port = 65535;
  empty_tcp.seq = 0xfffffffe;
  corpus.push_back(WithBytes(net::BuildTcpPacket(empty_tcp), 1));
  net::UdpPacketSpec udp;
  udp.src_addr = 0x01020304;
  udp.dst_addr = 0x05060708;
  udp.src_port = 53;
  udp.dst_port = 5353;
  udp.ip_id = 7;
  udp.payload = std::string("dns\0query", 9);
  corpus.push_back(WithBytes(net::BuildUdpPacket(udp), 3 * kNanosPerSecond));
  // Non-IP (an ARP-sized frame).
  ByteBuffer arp(42, 0);
  arp[12] = 0x08;
  arp[13] = 0x06;
  corpus.push_back(WithBytes(arp, 4 * kNanosPerSecond));
  // IP fragments: the first carries the UDP header, later ones don't.
  udp.payload = std::string(600, 'f');
  auto fragments = net::FragmentIpv4Packet(net::BuildUdpPacket(udp), 256);
  EXPECT_TRUE(fragments.ok());
  if (fragments.ok()) {
    for (const ByteBuffer& fragment : *fragments) {
      corpus.push_back(WithBytes(fragment, 5 * kNanosPerSecond));
    }
  }
  // Truncated at every layer boundary and inside each header.
  const ByteBuffer whole = SamplePacket().bytes;
  for (size_t cut : {0, 1, 13, 14, 15, 20, 33, 34, 35, 40, 53, 54, 55, 60}) {
    if (cut > whole.size()) continue;
    corpus.push_back(WithBytes(ByteBuffer(whole.begin(), whole.begin() + cut),
                               6 * kNanosPerSecond + cut));
  }
  // Random bytes, about half of them behind a plausible IPv4 prelude.
  Rng rng(20031);
  for (int i = 0; i < 300; ++i) {
    ByteBuffer bytes(rng.NextBelow(120));
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
    if (bytes.size() > 23 && rng.NextBool(0.5)) {
      bytes[12] = 0x08;
      bytes[13] = 0x00;
      bytes[14] = static_cast<uint8_t>(0x40 | (5 + rng.NextBelow(3)));
      bytes[23] = rng.NextBool(0.5) ? net::kIpProtoTcp : net::kIpProtoUdp;
    }
    corpus.push_back(WithBytes(std::move(bytes), rng.NextBelow(1ull << 40)));
  }
  return corpus;
}

TEST(InterpretBytesTest, EveryExtractorMatchesIndependentDecode) {
  for (const gsql::StreamSchema& schema :
       {gsql::Catalog::BuiltinPacketSchema(), ScrambledSchema()}) {
    for (bool payload_wanted : {true, false}) {
      InterpretPlan plan = BuildInterpretPlan(schema);
      for (size_t f = 0; f < schema.num_fields(); ++f) {
        if (plan.fields[f] == InterpretPlan::Extract::kPayload ||
            plan.fields[f] == InterpretPlan::Extract::kIpPayload) {
          plan.wanted[f] = payload_wanted;
        }
      }
      const std::vector<net::Packet> corpus = PacketCorpus();
      for (size_t i = 0; i < corpus.size(); ++i) {
        const net::Packet& packet = corpus[i];
        ByteBuffer bytes = {0xde, 0xad};  // replaced, not appended to
        bool malformed = false;
        InterpretPacketBytes(plan, packet, &bytes, &malformed);
        EXPECT_EQ(bytes, ExpectedTuple(schema, packet, payload_wanted))
            << schema.name() << " packet " << i << " payload "
            << payload_wanted;
        EXPECT_EQ(malformed, !net::DecodePacket(packet.view()).ok()) << i;
        EXPECT_TRUE(plan.codec->WellFormed(ByteSpan(bytes.data(), bytes.size())));
        // The Row API is a decode of the same bytes.
        rts::Row row = InterpretPacket(plan, packet);
        auto decoded = plan.codec->Decode(ByteSpan(bytes.data(), bytes.size()));
        ASSERT_TRUE(decoded.ok());
        ASSERT_EQ(row.size(), decoded->size());
        for (size_t f = 0; f < row.size(); ++f) {
          EXPECT_EQ(row[f].Compare((*decoded)[f]), 0) << i << " field " << f;
        }
      }
    }
  }
}

TEST(InterpretBytesTest, MismatchedExtractorTypesAreRejectedAndNotInterpreted) {
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"time", DataType::kFloat, gsql::OrderSpec::Increasing()});
  fields.push_back({"srcIP", DataType::kUint, gsql::OrderSpec::None()});
  fields.push_back({"len", DataType::kUint, gsql::OrderSpec::None()});
  gsql::StreamSchema schema("MISTYPED", gsql::StreamKind::kProtocol, fields);
  EXPECT_EQ(CheckProtocolSchema(schema).code(),
            Status::Code::kInvalidArgument);
  EXPECT_TRUE(CheckProtocolSchema(gsql::Catalog::BuiltinPacketSchema()).ok());
  EXPECT_TRUE(CheckProtocolSchema(gsql::Catalog::BuiltinNetflowSchema()).ok());
  // Interpreted directly anyway, mistyped fields stay type defaults rather
  // than packing an extractor's value in the wrong layout.
  rts::Row row = InterpretPacket(schema, SamplePacket());
  EXPECT_DOUBLE_EQ(row[0].float_value(), 0.0);
  EXPECT_EQ(row[1].uint_value(), 0u);
  EXPECT_EQ(row[2].uint_value(), SamplePacket().orig_len);
}

TEST(InterpretBytesTest, PunctuationBoundsReadOrderedFieldsBehindStrings) {
  EngineOptions options;
  options.punctuation_interval = 1;
  Engine engine(options);
  engine.AddInterface("eth0");
  ASSERT_TRUE(engine
                  .ExecuteDdl("CREATE PROTOCOL LATE (payload STRING, "
                              "len UINT, timestamp UINT STRICTLY INCREASING, "
                              "time UINT INCREASING)")
                  .ok());
  auto info = engine.AddQuery(
      "DEFINE { query_name late; } "
      "SELECT time, timestamp, payload FROM eth0.LATE");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto raw = engine.registry().Subscribe("eth0.LATE", 1 << 10);
  ASSERT_TRUE(raw.ok());
  auto schema = engine.registry().GetSchema("eth0.LATE");
  ASSERT_TRUE(schema.ok());

  const std::vector<std::string> payloads = {"", "x", std::string(300, 'p'),
                                             "GET / HTTP/1.1"};
  for (size_t i = 0; i < payloads.size(); ++i) {
    net::Packet packet = SamplePacket();
    net::TcpPacketSpec spec;
    spec.payload = payloads[i];
    packet.bytes = net::BuildTcpPacket(spec);
    packet.timestamp = static_cast<SimTime>(i + 2) * kNanosPerSecond + 17;
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());

    // The tuple, then the punctuation it triggered.
    rts::StreamMessage message;
    ASSERT_TRUE((*raw)->TryPop(&message));
    ASSERT_EQ(message.kind, rts::StreamMessage::Kind::kTuple);
    rts::TupleCodec codec(*schema);
    auto row = codec.Decode(
        ByteSpan(message.payload.data(), message.payload.size()));
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[0].string_value(), payloads[i]);
    ASSERT_TRUE((*raw)->TryPop(&message));
    ASSERT_EQ(message.kind, rts::StreamMessage::Kind::kPunctuation);
    auto punctuation = rts::DecodePunctuation(
        ByteSpan(message.payload.data(), message.payload.size()), *schema);
    ASSERT_TRUE(punctuation.ok());
    ASSERT_TRUE(punctuation->BoundFor(2).has_value());
    EXPECT_EQ(punctuation->BoundFor(2)->uint_value(),
              static_cast<uint64_t>(packet.timestamp));
    ASSERT_TRUE(punctuation->BoundFor(3).has_value());
    EXPECT_EQ(punctuation->BoundFor(3)->uint_value(), i + 2);
    EXPECT_FALSE(punctuation->BoundFor(1).has_value());
  }
}

// --- sample(): §5's analyst-controlled sampling, deterministically ---

TEST(SampleUdfTest, DeterministicAndProportional) {
  Engine engine;
  engine.AddInterface("eth0");
  auto info = engine.AddQuery(
      "DEFINE { query_name sampled; param rate FLOAT = 0.25; } "
      "SELECT time, srcIP FROM eth0.PKT "
      "WHERE sample(srcPort, $rate)");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // Hash-based sampling is cheap integer work: LFTA-resident.
  EXPECT_TRUE(info->has_lfta);
  EXPECT_FALSE(info->has_hfta);

  auto sub = engine.Subscribe("sampled", 1 << 18);
  ASSERT_TRUE(sub.ok());
  const int kPackets = 8000;
  for (int i = 0; i < kPackets; ++i) {
    net::TcpPacketSpec spec;
    spec.src_port = static_cast<uint16_t>(i);  // the sampling key
    spec.dst_port = 80;
    net::Packet packet;
    packet.bytes = net::BuildTcpPacket(spec);
    packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
    packet.timestamp = (i + 1) * 1000;
    ASSERT_TRUE(engine.InjectPacket("eth0", packet).ok());
    if (i % 1024 == 0) engine.PumpUntilIdle();
  }
  engine.PumpUntilIdle();
  int kept = 0;
  while ((*sub)->NextRow()) ++kept;
  EXPECT_NEAR(static_cast<double>(kept) / kPackets, 0.25, 0.03);
}

TEST(SampleUdfTest, SameKeyAlwaysSameDecision) {
  auto fn = udf::FunctionRegistry::Default()->Resolve("sample");
  ASSERT_TRUE(fn.ok());
  std::vector<std::shared_ptr<void>> handles(2);
  for (uint64_t key : {0ull, 1ull, 42ull, 1000000ull}) {
    Value first, second;
    bool has_result = true;
    ASSERT_TRUE((*fn)->invoke({Value::Uint(key), Value::Float(0.5)}, handles,
                              &first, &has_result).ok());
    ASSERT_TRUE((*fn)->invoke({Value::Uint(key), Value::Float(0.5)}, handles,
                              &second, &has_result).ok());
    EXPECT_EQ(first.bool_value(), second.bool_value());
  }
}

TEST(SampleUdfTest, BoundaryFractions) {
  auto fn = udf::FunctionRegistry::Default()->Resolve("sample");
  ASSERT_TRUE(fn.ok());
  std::vector<std::shared_ptr<void>> handles(2);
  Value out;
  bool has_result = true;
  int kept_zero = 0, kept_one = 0;
  for (uint64_t key = 0; key < 100; ++key) {
    ASSERT_TRUE((*fn)->invoke({Value::Uint(key), Value::Float(0.0)}, handles,
                              &out, &has_result).ok());
    if (out.bool_value()) ++kept_zero;
    ASSERT_TRUE((*fn)->invoke({Value::Uint(key), Value::Float(1.0)}, handles,
                              &out, &has_result).ok());
    if (out.bool_value()) ++kept_one;
  }
  EXPECT_EQ(kept_zero, 0);
  EXPECT_EQ(kept_one, 100);
  // Out-of-range fraction is a runtime error (dropped tuple, not a crash).
  EXPECT_FALSE((*fn)->invoke({Value::Uint(1), Value::Float(1.5)}, handles,
                             &out, &has_result).ok());
}

}  // namespace
}  // namespace gigascope::core
