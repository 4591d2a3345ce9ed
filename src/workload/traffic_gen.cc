#include "workload/traffic_gen.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace gigascope::workload {

namespace {

// Overhead bits per packet beyond the payload: Ethernet + IPv4 + TCP
// headers (UDP is slightly smaller; the difference is immaterial for rate
// accounting).
constexpr double kHeaderBytes =
    net::kEthernetHeaderLen + net::kIpv4MinHeaderLen + net::kTcpMinHeaderLen;

}  // namespace

std::string MakeHttpPayload(Rng& rng, size_t target_len) {
  static const char* const kStatuses[] = {"200 OK", "304 Not Modified",
                                          "404 Not Found", "302 Found"};
  std::string payload = "HTTP/1.1 ";
  payload += kStatuses[rng.NextBelow(4)];
  payload += "\r\nServer: gs-sim\r\nContent-Type: text/html\r\n\r\n";
  while (payload.size() < target_len) {
    payload += static_cast<char>('a' + rng.NextBelow(26));
  }
  payload.resize(std::max(payload.size(), target_len));
  return payload;
}

std::string MakeOpaquePayload(Rng& rng, size_t target_len) {
  // Tunnel traffic: binary-looking bytes, guaranteed to never contain the
  // "HTTP/1" marker because we exclude '/' and restrict the alphabet.
  std::string payload;
  payload.reserve(target_len);
  for (size_t i = 0; i < target_len; ++i) {
    payload += static_cast<char>(0x80 + rng.NextBelow(0x7e));
  }
  return payload;
}

TrafficGenerator::TrafficGenerator(const TrafficConfig& config)
    : config_(config),
      rng_(config.seed),
      flow_sampler_(std::max<uint32_t>(config.num_flows, 1),
                    config.flow_skew) {
  GS_CHECK(config_.num_flows > 0);
  GS_CHECK(config_.offered_bits_per_sec > 0);
  flows_.reserve(config_.num_flows);
  for (uint32_t i = 0; i < config_.num_flows; ++i) {
    flows_.push_back(MakeFlow(i));
  }
  flow_seq_.assign(std::max<uint32_t>(config_.num_flows, 1), 0);
  avg_packet_bits_ = (config_.mean_payload + kHeaderBytes) * 8.0;
  double avg_pps = config_.offered_bits_per_sec / avg_packet_bits_;
  in_burst_rate_pps_ =
      config_.burstiness > 1.0 ? avg_pps * config_.burstiness : avg_pps;
  ScheduleNextArrival();
}

FlowKey TrafficGenerator::MakeFlow(uint32_t index) const {
  FlowKey flow;
  // Deterministic per-index addressing derived from the seed so that two
  // generators with the same config produce the same flow table.
  uint64_t h = Fnv1a64(&index, sizeof(index)) ^ config_.seed * 0x9e3779b9;
  flow.src_addr = config_.src_network | static_cast<uint32_t>(h & 0xfffff);
  flow.dst_addr =
      config_.dst_network | static_cast<uint32_t>((h >> 20) & 0xfffff);
  flow.src_port = static_cast<uint16_t>(1024 + ((h >> 40) & 0x7fff));
  bool port80 = rng_.NextBool(config_.port80_fraction);
  if (port80) {
    flow.dst_port = 80;
    flow.protocol = net::kIpProtoTcp;
    flow.http = rng_.NextBool(config_.http_fraction);
  } else {
    flow.protocol =
        rng_.NextBool(config_.tcp_fraction) ? net::kIpProtoTcp
                                            : net::kIpProtoUdp;
    // Avoid accidentally landing on port 80 so port80_fraction is exact.
    uint16_t port = static_cast<uint16_t>(rng_.NextInRange(1, 65535));
    flow.dst_port = (port == 80) ? 81 : port;
    flow.http = false;
  }
  return flow;
}

void TrafficGenerator::ScheduleNextArrival() {
  if (config_.burstiness > 1.0) {
    if (burst_remaining_ == 0) {
      // Start a new burst after an idle gap sized so the long-run average
      // rate matches offered_bits_per_sec. A burst of N packets at rate R_b
      // takes N/R_b; at average rate R_a it should take N/R_a, so the idle
      // gap is N*(1/R_a - 1/R_b).
      double burst_len = rng_.NextPareto(config_.burst_alpha,
                                         config_.burst_min_packets);
      burst_remaining_ = static_cast<uint64_t>(std::max(1.0, burst_len));
      double avg_pps = config_.offered_bits_per_sec / avg_packet_bits_;
      double gap_seconds = static_cast<double>(burst_remaining_) *
                           (1.0 / avg_pps - 1.0 / in_burst_rate_pps_);
      next_arrival_ += SecondsToSimTime(
          rng_.NextExponential(std::max(gap_seconds, 1e-9)));
    }
    --burst_remaining_;
    next_arrival_ +=
        SecondsToSimTime(rng_.NextExponential(1.0 / in_burst_rate_pps_));
  } else {
    next_arrival_ +=
        SecondsToSimTime(rng_.NextExponential(avg_packet_bits_ /
                                              config_.offered_bits_per_sec));
  }
  // Timestamps must be strictly increasing (the `time` attribute of the
  // PKT protocol is declared monotone increasing).
  next_arrival_ += 1;
}

net::Packet TrafficGenerator::Next() {
  const FlowKey& flow = flows_[flow_sampler_.Sample(rng_)];
  size_t payload_len = static_cast<size_t>(
      std::min<double>(rng_.NextExponential(config_.mean_payload),
                       config_.max_payload));

  net::Packet packet;
  packet.timestamp = next_arrival_;
  uint32_t flow_index =
      static_cast<uint32_t>(&flow - flows_.data());
  if (flow.protocol == net::kIpProtoTcp) {
    net::TcpPacketSpec spec;
    spec.src_addr = flow.src_addr;
    spec.dst_addr = flow.dst_addr;
    spec.src_port = flow.src_port;
    spec.dst_port = flow.dst_port;
    spec.seq = flow_seq_[flow_index];
    spec.ip_id = static_cast<uint16_t>(sequence_);
    spec.payload = flow.http ? MakeHttpPayload(rng_, payload_len)
                             : MakeOpaquePayload(rng_, payload_len);
    flow_seq_[flow_index] += static_cast<uint32_t>(spec.payload.size());
    packet.bytes = net::BuildTcpPacket(spec);
  } else {
    net::UdpPacketSpec spec;
    spec.src_addr = flow.src_addr;
    spec.dst_addr = flow.dst_addr;
    spec.src_port = flow.src_port;
    spec.dst_port = flow.dst_port;
    spec.ip_id = static_cast<uint16_t>(sequence_);
    spec.payload = MakeOpaquePayload(rng_, payload_len);
    packet.bytes = net::BuildUdpPacket(spec);
  }
  packet.orig_len = static_cast<uint32_t>(packet.bytes.size());
  ++sequence_;
  ScheduleNextArrival();
  return packet;
}

}  // namespace gigascope::workload
