// Trace-replay benchmark for the Gigascope engine.
//
// Generates a packet trace from a seed, then replays it through the public
// core::Engine API in a closed loop on one injecting thread (the way gsrun
// replays a pcap): InjectPacket for every packet, PumpUntilIdle and a
// subscriber drain every 4096 packets, FlushAll and a final drain at the
// end. Every replay builds a fresh engine with default EngineOptions, so
// compile and set-up cost show only in setup_s.
//
// Untraced replays give the end-to-end figures. Traced replays wrap each
// block of public calls in a span timed with the thread CPU clock; spans are
// kept in memory and written out when the run ends. Standalone passes over
// the same trace time DecodePacket, InterpretPacket and TupleCodec per block
// of packets (CLOCK_THREAD_CPUTIME_ID costs about as much as one call, so
// per-call timing would measure the clock).
//
// Every replay's subscriber stream is reduced to an ordered digest and row
// count and compared with a single-pump, batch_max_size = 1 replay of the
// same trace; a mismatch marks the replay failed.
//
// Usage: gs_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                     [--spans-out=FILE]
// Prints one JSON object on stdout; perfbench/run.py formats it.

#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "net/headers.h"
#include "rts/tuple.h"
#include "workload/traffic_gen.h"

namespace {

using gigascope::ByteBuffer;
using gigascope::ByteSpan;
using gigascope::core::Engine;
using gigascope::core::EngineOptions;
using gigascope::net::Packet;
using gigascope::rts::Row;

constexpr size_t kPackets = 131072;
constexpr size_t kBlock = 4096;
constexpr int kLayerPasses = 7;
constexpr int kRssReplays = 9;
const std::string kInterface = "eth0";

struct Workload {
  std::string name;
  std::string query;
  /// Query name the subscriber reads.
  std::string output;
  gigascope::workload::TrafficConfig traffic;
  /// 0 runs the single pump; otherwise StartThreads(threads).
  size_t threads = 0;
  /// Whether the query reads `payload`, i.e. whether the engine
  /// materializes it at interpretation.
  bool reads_payload = false;
};

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.traffic.seed = seed;
  w.traffic.port80_fraction = 0.1;
  w.traffic.http_fraction = 0.5;
  if (name == "lfta_select") {
    // e6's filter-only query: most packets pass, nothing is aggregated.
    w.query =
        "DEFINE { query_name q1; } "
        "SELECT time, destIP, destPort FROM eth0.PKT "
        "WHERE ipVersion = 4 AND protocol = 6";
    w.output = "q1";
    w.traffic.num_flows = 1000;
    w.traffic.offered_bits_per_sec = 500e6;
  } else if (name == "flow_agg") {
    // A per-second 5-tuple working set far larger than the direct-mapped
    // LFTA table: the LFTA fold evicts often and the HFTA superaggregate
    // does real work. The lower offered rate spreads the trace over several
    // seconds so groups close during the run, not only at FlushAll.
    w.query =
        "DEFINE { query_name flows; } "
        "SELECT tb, srcIP, destIP, srcPort, destPort, count(*), sum(len) "
        "FROM eth0.PKT "
        "GROUP BY time AS tb, srcIP, destIP, srcPort, destPort";
    w.output = "flows";
    w.traffic.num_flows = 100000;
    w.traffic.offered_bits_per_sec = 100e6;
  } else if (name == "http_regex_threads") {
    // e6's regex split query under the threaded pump: the LFTA rejects on
    // raw bytes, payloads are materialized and handed to a worker. Port 80
    // is a per-flow property; with Zipf popularity whether the few heaviest
    // flows are port 80 swings the port-80 share of packets from 6% to 20%
    // between seeds, so flows are equally popular here and the share stays
    // near 10% on every seed.
    w.query =
        "DEFINE { query_name q4; } "
        "SELECT time, len FROM eth0.PKT "
        "WHERE protocol = 6 AND destPort = 80 "
        "AND match_regex(payload, '^[^\\n]*HTTP/1.*')";
    w.output = "q4";
    w.traffic.num_flows = 1000;
    w.traffic.flow_skew = 0;
    w.traffic.offered_bits_per_sec = 500e6;
    w.threads = 2;
    w.reads_payload = true;
  } else {
    return std::nullopt;
  }
  return w;
}

int64_t ClockNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restricts the calling thread, and the worker threads an engine started
/// from it creates, to `count` of `cpus` beginning with the k-th.
void PinToCpus(const std::vector<int>& cpus, size_t k, size_t count) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = 0; i < std::min(count, cpus.size()); ++i) {
    CPU_SET(cpus[(k + i) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

/// A "Vm...:" figure of /proc/self/status, in KiB.
int64_t ProcStatusKb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, n, key) == 0) return std::atoll(line.c_str() + n);
  }
  return 0;
}

/// Restarts the kernel's peak-RSS (VmHWM) tracking from the current RSS,
/// so each replay's peak can be read on its own.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "gs_perfbench: %s\n", message.c_str());
  std::exit(1);
}

/// Ordered FNV-1a digest over the values of every row, plus the row count.
struct Digest {
  uint64_t hash = 14695981039346656037ull;
  uint64_t rows = 0;

  void Mix(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  void Add(const Row& row) {
    using gigascope::gsql::DataType;
    for (const auto& value : row) {
      Mix(static_cast<uint64_t>(value.type()));
      switch (value.type()) {
        case DataType::kBool: Mix(value.bool_value()); break;
        case DataType::kInt:
          Mix(static_cast<uint64_t>(value.int_value()));
          break;
        case DataType::kFloat:
          Mix(std::bit_cast<uint64_t>(value.float_value()));
          break;
        case DataType::kString: {
          const std::string& s = value.string_value();
          Mix(s.size());
          for (unsigned char c : s) {
            hash ^= c;
            hash *= 1099511628211ull;
          }
          break;
        }
        case DataType::kUint:
        case DataType::kIp: Mix(value.uint_value()); break;
      }
    }
    ++rows;
  }
  bool operator==(const Digest&) const = default;
};

/// Engine counters read through public APIs after a replay.
struct Counts {
  uint64_t lfta_in = 0;
  uint64_t lfta_out = 0;
  uint64_t lfta_updates = 0;
  uint64_t lfta_evictions = 0;
  /// Messages pushed onto rings, slot pushes (batch_size histogram count)
  /// and drops, over every node input ring and subscriber ring.
  uint64_t ring_msgs = 0;
  uint64_t ring_pushes = 0;
  uint64_t dropped = 0;
  uint64_t park_p50_ns = 0;

  /// The counts that must repeat exactly on a single-pump replay.
  bool SameWork(const Counts& o) const {
    return lfta_in == o.lfta_in && lfta_out == o.lfta_out &&
           lfta_updates == o.lfta_updates &&
           lfta_evictions == o.lfta_evictions && ring_msgs == o.ring_msgs &&
           ring_pushes == o.ring_pushes && dropped == o.dropped;
  }
};

/// Ring metrics are named "ring<i>_<what>" (i empty for one input).
bool IsRingMetric(const std::string& metric, std::string_view what) {
  if (metric.rfind("ring", 0) != 0 || metric.size() < what.size()) {
    return false;
  }
  if (metric.compare(metric.size() - what.size(), what.size(), what) != 0) {
    return false;
  }
  for (size_t i = 4; i < metric.size() - what.size(); ++i) {
    if (metric[i] < '0' || metric[i] > '9') return false;
  }
  return true;
}

Counts ReadCounts(const Engine& engine, const std::string& lfta_name) {
  Counts counts;
  for (const auto& node : engine.GetNodeStats()) {
    if (node.name != lfta_name) continue;
    counts.lfta_in = node.tuples_in;
    counts.lfta_out = node.tuples_out;
  }
  for (const auto& sample : engine.telemetry().Snapshot()) {
    if (sample.entity == lfta_name && sample.metric == "lfta_updates") {
      counts.lfta_updates = sample.value;
    } else if (sample.entity == lfta_name &&
               sample.metric == "lfta_evictions") {
      counts.lfta_evictions = sample.value;
    } else if (sample.entity == "worker0" && sample.metric == "park_ns_p50") {
      counts.park_p50_ns = sample.value;
    } else if (IsRingMetric(sample.metric, "_pushed")) {
      counts.ring_msgs += sample.value;
    } else if (IsRingMetric(sample.metric, "_batch_size_count")) {
      counts.ring_pushes += sample.value;
    } else if (IsRingMetric(sample.metric, "_dropped")) {
      counts.dropped += sample.value;
    }
  }
  return counts;
}

enum SpanName { kRun, kInject, kPump, kDrain, kFlush, kNumSpanNames };
constexpr const char* kSpanNames[] = {"run", "inject", "pump", "drain",
                                      "flush"};

/// In-memory span log. Times are inject-thread CPU nanoseconds; `block` is
/// the 4096-packet block (the last one is the flush), -1 for a run span.
struct Span {
  uint32_t run;
  int32_t block;
  SpanName name;
  int32_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  int32_t Begin(uint32_t run, int32_t block, SpanName name, int32_t parent) {
    spans_.push_back({run, block, name, parent, ThreadCpuNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = ThreadCpuNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: duration minus the children's durations.
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    return self;
  }

  bool WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"run\":" << s.run << ",\"block\":" << s.block
          << ",\"id\":" << i << ",\"parent\":"
          << s.parent << ",\"name\":\"" << kSpanNames[s.name]
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

/// Opens a span when a log is attached; a no-op (no clock read) otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint32_t run, int32_t block, SpanName name,
             int32_t parent)
      : log_(log), id_(log ? log->Begin(run, block, name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

struct Replay {
  uint32_t run_id = 0;
  double setup_s = 0;
  double wall_s = 0;
  int64_t process_cpu_ns = 0;
  int64_t thread_cpu_ns = 0;
  uint64_t inject_errors = 0;
  /// Inject-thread CPU and wall time of each 4096-packet block (inject,
  /// pump, drain), then of the final flush and drain.
  std::vector<int64_t> block_cpu_ns;
  std::vector<int64_t> block_wall_ns;
  Digest digest;
  Counts counts;
};

/// One closed-loop replay of `trace` through a fresh engine.
Replay RunReplay(const Workload& w, const std::vector<Packet>& trace,
                 const EngineOptions& options, size_t threads, SpanLog* log,
                 uint32_t run_id) {
  Replay r;
  r.run_id = run_id;
  const int64_t setup_start = WallNs();
  auto engine = std::make_unique<Engine>(options);
  engine->AddInterface(kInterface);
  auto info = engine->AddQuery(w.query);
  if (!info.ok()) Die("AddQuery: " + info.status().ToString());
  auto sub = engine->Subscribe(w.output, options.channel_capacity);
  if (!sub.ok()) Die("Subscribe: " + sub.status().ToString());
  if (threads > 0) {
    auto started = engine->StartThreads(threads);
    if (!started.ok()) Die("StartThreads: " + started.ToString());
  }
  r.setup_s = static_cast<double>(WallNs() - setup_start) / 1e9;

  auto drain = [&] {
    while (auto row = (*sub)->NextRow()) r.digest.Add(*row);
  };
  const int64_t wall0 = WallNs();
  const int64_t proc0 = ProcessCpuNs();
  const int64_t thr0 = ThreadCpuNs();
  int64_t block_wall = wall0, block_thr = thr0;
  auto block = [&] { return static_cast<int32_t>(r.block_cpu_ns.size()); };
  auto end_block = [&] {
    const int64_t wall = WallNs(), thr = ThreadCpuNs();
    r.block_wall_ns.push_back(wall - block_wall);
    r.block_cpu_ns.push_back(thr - block_thr);
    block_wall = wall;
    block_thr = thr;
  };
  {
    ScopedSpan run(log, run_id, -1, kRun, -1);
    for (size_t begin = 0; begin < trace.size(); begin += kBlock) {
      const size_t end = std::min(trace.size(), begin + kBlock);
      {
        ScopedSpan span(log, run_id, block(), kInject, run.id());
        for (size_t i = begin; i < end; ++i) {
          if (!engine->InjectPacket(kInterface, trace[i]).ok()) {
            ++r.inject_errors;
          }
        }
      }
      {
        ScopedSpan span(log, run_id, block(), kPump, run.id());
        engine->PumpUntilIdle();
      }
      {
        ScopedSpan span(log, run_id, block(), kDrain, run.id());
        drain();
      }
      end_block();
    }
    {
      ScopedSpan span(log, run_id, block(), kFlush, run.id());
      engine->FlushAll();
    }
    {
      ScopedSpan span(log, run_id, block(), kDrain, run.id());
      drain();
    }
    end_block();
  }
  r.process_cpu_ns = ProcessCpuNs() - proc0;
  r.thread_cpu_ns = block_thr - thr0;
  r.wall_s = static_cast<double>(block_wall - wall0) / 1e9;
  // A query that is all LFTA runs as one node under the query's own name.
  r.counts = ReadCounts(*engine, info->has_hfta ? info->lfta_name : w.output);
  return r;
}

/// Sum over blocks of the least time any replay spent in that block.
double BlockBest(const std::vector<Replay>& replays,
                 std::vector<int64_t> Replay::*times) {
  double total = 0;
  for (size_t b = 0; b < (replays.front().*times).size(); ++b) {
    int64_t best = INT64_MAX;
    for (const Replay& r : replays) best = std::min(best, (r.*times)[b]);
    total += static_cast<double>(best);
  }
  return total;
}

/// Median and quartiles, as statistics.quantiles(method='exclusive').
struct Stats {
  double median = 0, q1 = 0, q3 = 0;
  size_t n = 0;
};

double Quantile(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  double pos = p * (n + 1) - 1;
  pos = std::clamp(pos, 0.0, n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

Stats Summarize(std::vector<double> values) {
  Stats s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.median = Quantile(values, 0.5);
  s.q1 = Quantile(values, 0.25);
  s.q3 = Quantile(values, 0.75);
  return s;
}

/// Per-layer figures from standalone passes over the trace.
struct LayerPasses {
  double net_decode_ns = 0;
  double interpret_ns = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  double tuple_bytes = 0;
};

LayerPasses RunLayerPasses(const Workload& w,
                           const std::vector<Packet>& trace) {
  // The engine's own source schema, so the codec matches the inject path.
  Engine engine;
  engine.AddInterface(kInterface);
  if (!engine.AddQuery(w.query).ok()) Die("AddQuery failed");
  auto schema = engine.registry().GetSchema("eth0.PKT");
  if (!schema.ok()) Die("no eth0.PKT schema: " + schema.status().ToString());
  gigascope::core::InterpretPlan plan =
      gigascope::core::BuildInterpretPlan(*schema);
  for (size_t f = 0; f < schema->num_fields(); ++f) {
    const std::string& name = schema->field(f).name;
    if (name == "payload") plan.wanted[f] = w.reads_payload;
    if (name == "ipPayload") plan.wanted[f] = false;
  }
  const gigascope::rts::TupleCodec codec(*schema);

  // Per block: DecodePacket alone; InterpretPacket alone; interpret plus
  // Encode into a fresh buffer per tuple, as the inject path does (encode is
  // the difference, so both see the row while it is still in cache); then
  // Decode of the encoded block. Like the end-to-end figures, each block's
  // time is its least over the passes.
  enum Stage { kNetDecode, kInterpret, kInterpretEncode, kDecode, kNumStages };
  const size_t blocks = (trace.size() + kBlock - 1) / kBlock;
  std::vector<std::array<int64_t, kNumStages>> best(blocks);
  for (auto& stages : best) stages.fill(INT64_MAX);
  std::vector<ByteBuffer> encoded(kBlock);
  uint64_t sink = 0;
  uint64_t bytes = 0;
  for (int pass = 0; pass < kLayerPasses; ++pass) {
    bytes = 0;
    for (size_t block = 0; block < blocks; ++block) {
      const size_t begin = block * kBlock;
      const size_t n = std::min(kBlock, trace.size() - begin);
      std::array<int64_t, kNumStages + 1> t;
      t[0] = ThreadCpuNs();
      for (size_t j = 0; j < n; ++j) {
        auto decoded = gigascope::net::DecodePacket(trace[begin + j].view());
        sink += decoded.ok() ? decoded->payload.size() : 1;
      }
      t[1] = ThreadCpuNs();
      for (size_t j = 0; j < n; ++j) {
        sink += gigascope::core::InterpretPacket(plan, trace[begin + j]).size();
      }
      t[2] = ThreadCpuNs();
      for (size_t j = 0; j < n; ++j) {
        const Row row =
            gigascope::core::InterpretPacket(plan, trace[begin + j]);
        ByteBuffer buffer;
        codec.Encode(row, &buffer);
        encoded[j] = std::move(buffer);
      }
      t[3] = ThreadCpuNs();
      for (size_t j = 0; j < n; ++j) {
        auto row = codec.Decode(ByteSpan(encoded[j].data(), encoded[j].size()));
        if (!row.ok()) Die("TupleCodec::Decode: " + row.status().ToString());
        sink += row->size();
      }
      t[4] = ThreadCpuNs();
      for (size_t j = 0; j < n; ++j) bytes += encoded[j].size();
      for (int stage = 0; stage < kNumStages; ++stage) {
        best[block][stage] =
            std::min(best[block][stage], t[stage + 1] - t[stage]);
      }
    }
  }
  if (sink == 0) Die("layer passes did no work");
  std::array<double, kNumStages> per_packet{};
  for (const auto& stages : best) {
    for (int stage = 0; stage < kNumStages; ++stage) {
      per_packet[stage] += static_cast<double>(stages[stage]) /
                           static_cast<double>(trace.size());
    }
  }
  LayerPasses p;
  p.net_decode_ns = per_packet[kNetDecode];
  p.interpret_ns = per_packet[kInterpret];
  p.encode_ns = per_packet[kInterpretEncode] - per_packet[kInterpret];
  p.decode_ns = per_packet[kDecode];
  p.tuple_bytes =
      static_cast<double>(bytes) / static_cast<double>(trace.size());
  return p;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("bad argument '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0;
    } else if (key == "trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (key == "spans-out") {
      args.spans_out = value;
    } else {
      Die("unknown flag --" + key);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Die("usage: gs_perfbench --workload=NAME --seed=N --seconds=S "
        "--trace=0|1 [--spans-out=FILE]");
  }
  return args;
}

/// Accumulates the result object printed on stdout.
class JsonOut {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Field(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    Field(key, "\"" + value + "\"");
  }
  void Field(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":" + raw);
  }
  void Stat(const std::string& key, const Stats& s) {
    JsonOut o;
    o.Num("median", s.median);
    o.Num("q1", s.q1);
    o.Num("q3", s.q3);
    o.Num("n", static_cast<double>(s.n));
    Field(key, o.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::optional<Workload> workload =
      MakeWorkload(args.workload, args.seed);
  if (!workload) Die("unknown workload '" + args.workload + "'");
  const Workload& w = *workload;

  std::vector<Packet> trace;
  trace.reserve(kPackets);
  {
    gigascope::workload::TrafficGenerator gen(w.traffic);
    for (size_t i = 0; i < kPackets; ++i) trace.push_back(gen.Next());
  }
  const int64_t deadline = WallNs() + static_cast<int64_t>(args.seconds * 1e9);

  std::optional<LayerPasses> passes;
  if (args.trace) passes = RunLayerPasses(w, trace);

  // Untraced and (with --trace=1) traced replays alternate until the
  // deadline, with at least three of each kind. Contention from other
  // tenants of the host lands on some CPUs and not others, and a thread
  // left alone stays on one CPU for the whole run, so successive replays
  // are moved round the CPUs.
  const EngineOptions options;
  const std::vector<int> cpus = AllowedCpus();
  std::vector<Replay> untraced, traced;
  SpanLog log;
  uint32_t run_id = 0;
  while (WallNs() < deadline || untraced.size() < 3 ||
         (args.trace && traced.size() < 3)) {
    PinToCpus(cpus, untraced.size(), 1 + w.threads);
    untraced.push_back(
        RunReplay(w, trace, options, w.threads, nullptr, run_id++));
    if (args.trace) {
      traced.push_back(RunReplay(w, trace, options, w.threads, &log, run_id++));
    }
  }

  // Peak RSS growth, per replay: free memory the allocator kept from earlier
  // replays goes back to the kernel first, so each replay's peak is its own.
  std::vector<Replay> rss_replays;
  std::vector<double> rss_mb;
  for (int k = 0; k < kRssReplays; ++k) {
    malloc_trim(0);
    ResetPeakRss();
    const int64_t before_kb = ProcStatusKb("VmRSS:");
    rss_replays.push_back(
        RunReplay(w, trace, options, w.threads, nullptr, run_id++));
    rss_mb.push_back(
        static_cast<double>(ProcStatusKb("VmHWM:") - before_kb) / 1024.0);
  }

  // Reference configuration: single pump, per-tuple batches. With one
  // message per ring slot, a window close that emits more groups than the
  // default 8192 slots overflows a ring, so the reference gets rings that
  // hold the whole trace; a reference that still drops is not a reference.
  EngineOptions reference_options;
  reference_options.batch_max_size = 1;
  while (reference_options.channel_capacity < 2 * kPackets) {
    reference_options.channel_capacity *= 2;
  }
  const Replay reference =
      RunReplay(w, trace, reference_options, 0, nullptr, run_id++);
  const bool reference_ok =
      reference.counts.dropped == 0 && reference.inject_errors == 0;
  if (!reference_ok) {
    std::fprintf(stderr,
                 "gs_perfbench: the reference replay dropped tuples or failed "
                 "to inject\n");
  }

  const double packets = static_cast<double>(trace.size());
  size_t failed = 0;
  double lost_packets = 0;
  bool counts_repeat = true;
  std::vector<double> pps, cpu_ns, setup_s;
  for (const std::vector<Replay>* set : {&untraced, &traced, &rss_replays}) {
    for (const Replay& r : *set) {
      const bool ok = r.digest == reference.digest && r.inject_errors == 0;
      if (!ok) ++failed;
      lost_packets +=
          static_cast<double>(r.counts.dropped) + (ok ? 0 : packets);
      if (w.threads == 0 && !r.counts.SameWork(untraced.front().counts)) {
        counts_repeat = false;
      }
    }
  }
  for (const Replay& r : untraced) {
    pps.push_back(packets / r.wall_s);
    cpu_ns.push_back(static_cast<double>(r.process_cpu_ns) / packets);
    setup_s.push_back(r.setup_s);
  }
  const size_t attempted = untraced.size() + traced.size() + rss_replays.size();
  const double loss_pct =
      100.0 * lost_packets / (packets * static_cast<double>(attempted));
  if (!counts_repeat) {
    std::fprintf(stderr,
                 "gs_perfbench: engine counters differ between single-pump "
                 "replays of one trace\n");
  }
  bool correct = failed == 0 && counts_repeat && reference_ok;

  // Contention from other tenants of the host slows every replay it
  // overlaps by up to 1.5x and comes and goes within a replay. The inject
  // thread does the same work block by block in every replay, so its wall
  // and CPU time are summed over blocks from each block's least disturbed
  // replay. Worker threads are not in step with the blocks; their CPU
  // (process minus inject thread) comes from the replay where it was least.
  // The per-replay median and quartiles are reported beside these.
  std::vector<double> worker_cpu_ns;
  for (const Replay& r : untraced) {
    worker_cpu_ns.push_back(
        static_cast<double>(r.process_cpu_ns - r.thread_cpu_ns) / packets);
  }
  const double best_pps =
      packets / (BlockBest(untraced, &Replay::block_wall_ns) / 1e9);
  const double best_cpu_ns =
      BlockBest(untraced, &Replay::block_cpu_ns) / packets +
      *std::min_element(worker_cpu_ns.begin(), worker_cpu_ns.end());
  JsonOut metrics;
  JsonOut spread;
  metrics.Num("pps", best_pps);
  spread.Stat("pps", Summarize(pps));
  metrics.Num("cpu_ns_per_pkt", best_cpu_ns);
  spread.Stat("cpu_ns_per_pkt", Summarize(cpu_ns));
  metrics.Num("delivered_pct", 100.0 - loss_pct);
  metrics.Num("loss_pct", loss_pct);
  const Stats setup_stats = Summarize(setup_s);
  metrics.Num("setup_s", setup_stats.median);
  spread.Stat("setup_s", setup_stats);
  const Stats rss_stats = Summarize(rss_mb);
  metrics.Num("rss_mb", rss_stats.median);
  spread.Stat("rss_mb", rss_stats);

  const Counts& c = untraced.front().counts;
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  metrics.Num("ops.lfta_reduction", ratio(c.lfta_out, c.lfta_in));
  metrics.Num("ops.lfta_eviction_rate",
              ratio(c.lfta_evictions, c.lfta_updates));
  metrics.Num("rts.msgs_per_push", ratio(c.ring_msgs, c.ring_pushes));
  double dropped = 0;
  for (const Replay& r : untraced) {
    dropped += static_cast<double>(r.counts.dropped);
  }
  metrics.Num("rts.dropped", dropped);

  if (args.trace) {
    // The ledger is composed like the headline figures: each block's span
    // self times come from the traced replay whose inject thread spent the
    // least CPU on that block, worker CPU from the replay where it was
    // least. Layers and totals then come from the same replays.
    const std::vector<int64_t> self = log.SelfTimes();
    const size_t blocks = traced.front().block_cpu_ns.size();
    std::vector<std::vector<std::array<int64_t, kNumSpanNames>>> by_block(
        run_id, std::vector<std::array<int64_t, kNumSpanNames>>(blocks));
    for (size_t i = 0; i < log.spans().size(); ++i) {
      const Span& span = log.spans()[i];
      if (span.block < 0) continue;
      by_block[span.run][static_cast<size_t>(span.block)][span.name] += self[i];
    }
    std::array<int64_t, kNumSpanNames> sums{};
    int64_t thread_cpu = 0;
    for (size_t b = 0; b < blocks; ++b) {
      const Replay& best = *std::min_element(
          traced.begin(), traced.end(), [b](const Replay& x, const Replay& y) {
            return x.block_cpu_ns[b] < y.block_cpu_ns[b];
          });
      for (int n = 0; n < kNumSpanNames; ++n) {
        sums[n] += by_block[best.run_id][b][n];
      }
      thread_cpu += best.block_cpu_ns[b];
    }
    double worker_ns = INFINITY;
    for (const Replay& t : traced) {
      worker_ns = std::min(
          worker_ns, static_cast<double>(t.process_cpu_ns - t.thread_cpu_ns));
    }
    const double inject_ns = static_cast<double>(sums[kInject]) / packets;
    metrics.Num("core.inject_ns", inject_ns);
    metrics.Num("core.interpret_ns", passes->interpret_ns);
    metrics.Num("net.decode_ns", passes->net_decode_ns);
    metrics.Num("rts.encode_ns", passes->encode_ns);
    metrics.Num("rts.decode_ns", passes->decode_ns);
    metrics.Num("rts.tuple_bytes", passes->tuple_bytes);
    metrics.Num("core.publish_ns",
                inject_ns - passes->interpret_ns - passes->encode_ns);
    metrics.Num("core.pump_ns", static_cast<double>(sums[kPump]) / packets);
    metrics.Num("core.flush_ms", static_cast<double>(sums[kFlush]) / 1e6);
    const uint64_t rows = std::max<uint64_t>(1, reference.digest.rows);
    metrics.Num("core.next_row_ns", static_cast<double>(sums[kDrain]) /
                                        static_cast<double>(rows));
    metrics.Num("core.worker_cpu_ns", worker_ns / packets);
    std::vector<double> park;
    for (const Replay& t : traced) {
      park.push_back(static_cast<double>(t.counts.park_p50_ns));
    }
    metrics.Num("core.worker_park_p50_ns", Summarize(park).median);
    const int64_t layers =
        sums[kInject] + sums[kPump] + sums[kDrain] + sums[kFlush];
    const double unattributed =
        100.0 * (1.0 - static_cast<double>(layers) /
                           (static_cast<double>(thread_cpu) + worker_ns));
    metrics.Num("trace.unattributed_pct", unattributed);
    metrics.Num("trace.overhead_pct",
                100.0 * (BlockBest(traced, &Replay::block_wall_ns) /
                             BlockBest(untraced, &Replay::block_wall_ns) -
                         1.0));
    // The layer spans must account for the process's CPU wherever the
    // inject thread is the only one working.
    if (w.threads == 0 && std::abs(unattributed) > 10.0) {
      std::fprintf(stderr,
                   "gs_perfbench: layer spans cover only %.1f%% of process "
                   "CPU\n",
                   100.0 - unattributed);
      correct = false;
    }
    if (!args.spans_out.empty() && !log.WriteJsonl(args.spans_out)) {
      Die("cannot write " + args.spans_out);
    }
  }

  JsonOut out;
  out.Str("workload", w.name);
  out.Field("seed", std::to_string(args.seed));
  out.Num("packets", packets);
  out.Num("untraced_runs", static_cast<double>(untraced.size()));
  out.Num("traced_runs", static_cast<double>(traced.size()));
  out.Num("rss_runs", static_cast<double>(rss_replays.size()));
  out.Num("threads", static_cast<double>(w.threads));
  out.Str("compiler", GS_PERFBENCH_COMPILER);
  out.Str("build_type", GS_PERFBENCH_BUILD_TYPE);
  out.Field("correct", correct ? "true" : "false");
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Num("reference_rows", static_cast<double>(reference.digest.rows));
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(reference.digest.hash));
  out.Str("reference_digest", digest);
  auto list = [](const std::vector<double>& values) {
    std::string text;
    char buf[32];
    for (double v : values) {
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      text += (text.empty() ? "" : ",") + std::string(buf);
    }
    return "[" + text + "]";
  };
  JsonOut samples;
  samples.Field("pps", list(pps));
  samples.Field("cpu_ns_per_pkt", list(cpu_ns));
  samples.Field("worker_cpu_ns_per_pkt", list(worker_cpu_ns));
  samples.Field("setup_s", list(setup_s));
  out.Field("metrics", metrics.str());
  out.Field("samples", samples.str());
  out.Field("spread", spread.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}
