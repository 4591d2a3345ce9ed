// gspcapgen — write a synthetic traffic trace as a pcap file.
//
// The repository's tests and benches drive the engine with the seeded
// TrafficGenerator; this tool dumps the same workload to disk so gsrun
// (and tcpdump/wireshark) can replay it. Used by CI to produce an input
// for the EXPLAIN ANALYZE artifact, and by the README monitoring
// quickstart so the examples work without a capture interface.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/pcap.h"
#include "workload/traffic_gen.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: gspcapgen OUT.pcap [options]\n"
      "  --packets=N     number of packets to write (default 10000)\n"
      "  --seed=N        generator seed (default 12)\n"
      "  --flows=N       concurrent flows (default 100)\n"
      "  --mbps=N        offered load in megabits/sec (default 8)\n"
      "deterministic for a given seed; ~40%% of packets hit port 80.\n");
}

/// Parses `prefix` followed by a plain decimal number. strtoull alone would
/// accept a sign (wrapping "-1" to 2^64-1) and saturate out-of-range input,
/// so the value must start with a digit and fit in 64 bits.
bool ParseNumericFlag(const char* arg, const char* prefix, size_t* out) {
  size_t len = std::strlen(prefix);
  if (std::strncmp(arg, prefix, len) != 0) return false;
  const char* digits = arg + len;
  if (*digits < '0' || *digits > '9') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(digits, &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  *out = static_cast<size_t>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  size_t packets = 10000;
  size_t seed = 12;
  size_t flows = 100;
  size_t mbps = 8;
  for (int i = 1; i < argc; ++i) {
    size_t parsed = 0;
    if (ParseNumericFlag(argv[i], "--packets=", &parsed)) {
      packets = parsed;
    } else if (ParseNumericFlag(argv[i], "--seed=", &parsed)) {
      seed = parsed;
    } else if (ParseNumericFlag(argv[i], "--flows=", &parsed)) {
      flows = parsed;
    } else if (ParseNumericFlag(argv[i], "--mbps=", &parsed)) {
      mbps = parsed;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "gspcapgen: unknown option %s\n", argv[i]);
      Usage();
      return 1;
    } else if (out_path.empty()) {
      out_path = argv[i];
    } else {
      Usage();
      return 1;
    }
  }
  if (out_path.empty() || packets == 0 || flows == 0 || flows > UINT32_MAX ||
      mbps == 0) {
    Usage();
    return 1;
  }

  gigascope::net::PcapWriter writer;
  gigascope::Status status = writer.Open(out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "gspcapgen: cannot open %s: %s\n", out_path.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  gigascope::workload::TrafficConfig config;
  config.seed = static_cast<uint64_t>(seed);
  config.num_flows = static_cast<uint32_t>(flows);
  config.port80_fraction = 0.4;
  config.http_fraction = 0.7;
  config.offered_bits_per_sec = static_cast<double>(mbps) * 1e6;
  gigascope::workload::TrafficGenerator generator(config);
  for (size_t i = 0; i < packets; ++i) {
    status = writer.Write(generator.Next());
    if (!status.ok()) {
      std::fprintf(stderr, "gspcapgen: write failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  status = writer.Close();
  if (!status.ok()) {
    std::fprintf(stderr, "gspcapgen: close failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("gspcapgen: wrote %llu packets to %s\n",
              static_cast<unsigned long long>(writer.packets_written()),
              out_path.c_str());
  return 0;
}
