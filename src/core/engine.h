#ifndef GIGASCOPE_CORE_ENGINE_H_
#define GIGASCOPE_CORE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.h"
#include "core/shedding.h"
#include "core/supervisor.h"
#include "gsql/catalog.h"
#include "net/packet.h"
#include "plan/explain.h"
#include "plan/splitter.h"
#include "rts/node.h"
#include "rts/punctuation.h"
#include "rts/registry.h"
#include "rts/shed_state.h"
#include "rts/tuple.h"
#include "telemetry/histogram.h"
#include "telemetry/registry.h"
#include "telemetry/stats_source.h"
#include "telemetry/tracer.h"
#include "udf/registry.h"

namespace gigascope::ops {
class LftaAggregateNode;
}  // namespace gigascope::ops

namespace gigascope::core {

/// A subscriber-side decoded view of a stream.
class TupleSubscription {
 public:
  TupleSubscription(rts::Subscription channel, gsql::StreamSchema schema);

  /// Next decoded tuple, skipping punctuations; nullopt when drained.
  std::optional<rts::Row> NextRow();

  /// Number of messages currently queued.
  size_t pending() const { return channel_->size(); }
  uint64_t dropped() const { return channel_->dropped(); }

  const gsql::StreamSchema& schema() const { return codec_.schema(); }

 private:
  rts::Subscription channel_;
  rts::TupleCodec codec_;
};

/// Multi-process HFTA execution (the paper's §4 model: HFTAs are
/// application processes fed through shared memory). Enabled at engine
/// construction so every inter-node ring created while queries are added
/// is shm-backed and fork-shareable, with ShmRingOptions' default geometry.
struct ProcessOptions {
  bool enabled = false;
  /// Shm metrics arena capacity, in metric slots (16 bytes each). Worker
  /// node counters and histograms bind into the arena before the fork, so
  /// the parent's registry folds live child-side values (monotone across
  /// restarts) instead of reading its own stale copy-on-write copies.
  /// 0 disables the arena: worker metrics degrade to parent-stale values.
  size_t metrics_arena_slots = 16384;
  /// Heartbeat cadence, restart budget/backoff, command timeouts.
  SupervisorOptions supervisor;
};

/// Engine construction knobs.
struct EngineOptions {
  /// UDF registry (defaults to the built-in function library).
  const expr::FunctionResolver* functions = nullptr;
  /// Capacity of inter-node channels, in ring slots. Each slot carries one
  /// StreamBatch (up to batch_max_size messages), so the message capacity
  /// is channel_capacity * batch_max_size when sources batch fully.
  size_t channel_capacity = 8192;
  /// log2 of the LFTA direct-mapped hash table slot count, in [0, 24];
  /// AddQuery rejects a split aggregation under any other value.
  int lfta_hash_log2 = 12;
  /// Packet sources emit a punctuation every this many packets.
  size_t punctuation_interval = 256;
  /// Batched data plane: source tuples accumulate into a StreamBatch that
  /// is published as one ring message once it holds this many tuples.
  /// Operators reuse the same bound for their output batches. 1 restores
  /// per-tuple message flow (each message rides alone).
  size_t batch_max_size = 64;
  /// Maximum sim-time an open source batch may age before a newly injected
  /// packet forces a flush: bounds the latency a tuple can sit unflushed
  /// while the stream is slow. 0 disables the age check (batches flush on
  /// size, punctuations, and every Pump).
  SimTime batch_max_delay = 0;
  /// Period, in sim-time nanoseconds, of the built-in `gs_stats` telemetry
  /// stream: the engine snapshots its metric registry and emits one tuple
  /// per counter whenever injected time (packet timestamps, heartbeats)
  /// advances past the period. 0 disables periodic emission; the counters
  /// themselves are always maintained (one relaxed store on the hot path),
  /// and EmitStatsSnapshot still works.
  SimTime stats_period = 0;
  /// Sampled per-tuple tracing: tag roughly 1 in `trace_sample` injected
  /// packets and follow them through LFTA pre-aggregation, the rings, and
  /// the HFTA operators (gsrun --trace-sample). 0 disables the tracer
  /// entirely — no clock reads, no per-message work beyond a null check.
  /// The resulting trace exports as Chrome trace-event JSON
  /// (Engine::tracer()->WriteJson), loadable in Perfetto.
  size_t trace_sample = 0;
  /// Closed-loop overload management (§3 graceful degradation): with
  /// shed.enabled the engine periodically evaluates its own telemetry
  /// (ring occupancy, drops, punctuation lag, LFTA table occupancy)
  /// against shed's thresholds and walks a shedding ladder — L1 1-in-k
  /// source sampling with unbiased COUNT/SUM scaling, L2 coarser LFTA
  /// epochs, L3 bounded LFTA occupancy — stepping back down with
  /// hysteresis once pressure subsides.
  ShedConfig shed;
  /// Supervised multi-process HFTA mode (StartProcesses).
  ProcessOptions process;
  /// One deterministic injected fault, armed when worker processes start
  /// (gsrun --fault=SPEC; see core/fault.h for the grammar). Testing only.
  FaultConfig fault;
};

/// Precompiled packet-interpretation plan for one schema: which built-in
/// extractor feeds each field, resolved by name once at source creation
/// instead of by string comparison per packet, plus a materialization gate
/// per field. The variable-length fields (payload, ipPayload) copy packet
/// bytes on every interpretation; the engine leaves them unmaterialized
/// until a consumer that reads them registers — the same
/// haul-only-what-queries-need idea as the NIC snap length (§4), applied
/// at the interpretation layer.
struct InterpretPlan {
  enum class Extract : uint8_t {
    kTime, kTimestamp, kLen,
    kSrcIp, kDestIp, kSrcPort, kDestPort,
    kProtocol, kIpVersion, kTcpFlags, kTcpSeq,
    kIpId, kFragOffset, kMoreFrags,
    kPayload, kIpPayload,
    kDefault,
  };
  std::vector<Extract> fields;
  /// Packed width of each field; a STRING counts its length prefix only.
  std::vector<uint8_t> widths;
  /// Unwanted fields interpret as their type default. Only kPayload and
  /// kIpPayload are ever gated off; fixed-width fields are always cheap
  /// enough to materialize.
  std::vector<bool> wanted;
  /// Packed size of a tuple whose strings are all empty.
  size_t fixed_bytes = 0;
  /// The schema's tuple layout, which the extractor writes directly.
  std::shared_ptr<const rts::TupleCodec> codec;
};

/// Resolves `schema`'s field names against the built-in interpretation
/// library (§2.2). All fields start wanted. Unknown names, and names whose
/// declared type differs from the extractor's (see CheckProtocolSchema),
/// interpret as the type default.
InterpretPlan BuildInterpretPlan(const gsql::StreamSchema& schema);

/// InvalidArgument when a field of `schema` is named after a built-in
/// extractor but declared with a different type (`time FLOAT`): the
/// extractor's value could not be packed as that field. Engine checks
/// every protocol schema with it before interpreting packets.
Status CheckProtocolSchema(const gsql::StreamSchema& schema);

/// Metadata about a compiled, running query.
struct QueryInfo {
  std::string name;
  std::string lfta_name;         // mangled LFTA stream name (if split)
  bool has_lfta = false;
  bool has_hfta = false;
  bool split_aggregation = false;
  bool unbounded_aggregation = false;
  bool has_nic_program = false;
  bpf::Program nic_program;      // for the capture layer to load
  uint32_t snap_len = 0;
  std::string plan_text;         // human-readable plan dump
};

/// The Gigascope engine: catalog + GSQL compiler + stream manager + the
/// running query network.
///
/// Usage:
///   Engine engine;
///   engine.AddInterface("eth0");
///   engine.AddQuery("DEFINE { query_name tcpdest; } SELECT destIP, "
///                   "destPort, time FROM eth0.PKT WHERE protocol = 6");
///   auto sub = engine.Subscribe("tcpdest");
///   engine.InjectPacket("eth0", packet);
///   engine.PumpUntilIdle();
///   while (auto row = sub->NextRow()) { ... }
///
/// Every node has exactly one owner in a placement table: the caller's
/// inject thread, or one worker. Every channel therefore keeps a single
/// producer and a single consumer (the lock-free SPSC ring contract). By
/// default the inject thread owns every node: InjectPacket enqueues work and
/// Pump drives every operator, which makes runs deterministic.
///
/// StartThreads and StartProcesses mirror the paper's §4 process split.
/// Source interpretation and LFTA nodes stay with the inject thread (the
/// paper links LFTAs into the RTS next to the capture loop). HFTA nodes
/// (join, merge, final aggregation) are spread round-robin over worker
/// threads or supervised worker processes. A worker process that exhausts
/// its restart budget hands its nodes back to the inject thread. FlushAll
/// is the drain barrier: it joins worker threads (their nodes return to the
/// inject thread), flushes every node upstream-first (a live worker process
/// flushes its own nodes on command), and seals the engine — after
/// FlushAll, injection calls return FailedPrecondition and further
/// FlushAll calls are no-ops.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  // -- Setup ---------------------------------------------------------------

  /// Declares a capture interface (e.g. "eth0"). The first interface added
  /// becomes the default for unqualified Protocol references.
  void AddInterface(const std::string& name);

  /// Executes DDL statements (CREATE PROTOCOL / CREATE STREAM).
  Status ExecuteDdl(std::string_view ddl);

  /// Declares an external stream that the caller will feed with InjectRow —
  /// the paper's "users can write their own query nodes" API.
  Status DeclareStream(const gsql::StreamSchema& schema);

  const gsql::Catalog& catalog() const { return catalog_; }

  // -- Queries ---------------------------------------------------------------

  /// Compiles and instantiates one GSQL query (SELECT or MERGE). Parameters
  /// declared in the DEFINE block take `params` values (or their defaults).
  Result<QueryInfo> AddQuery(
      std::string_view gsql_text,
      const std::map<std::string, expr::Value>& params = {});

  /// Changes a query parameter on the fly (§3). Takes effect on the next
  /// evaluated tuple. Pass-by-handle parameters cannot be changed (their
  /// handles were built at instantiation).
  Status SetParam(const std::string& query_name,
                  const std::string& param_name, expr::Value value);

  const std::vector<QueryInfo>& queries() const { return query_infos_; }

  // -- Subscriptions -----------------------------------------------------------

  /// Subscribes to any registered stream (query outputs, LFTA streams with
  /// their mangled names, raw protocol streams).
  Result<std::unique_ptr<TupleSubscription>> Subscribe(
      const std::string& stream_name, size_t capacity = 8192);

  // -- Data input -----------------------------------------------------------

  /// Feeds one captured packet to all Protocols bound to `interface_name`.
  Status InjectPacket(const std::string& interface_name,
                      const net::Packet& packet);

  /// Injects a time-only heartbeat: a punctuation advancing the ordered
  /// time attributes of every protocol stream on the interface without any
  /// tuple (§3's ordering-update tokens for slow streams).
  Status InjectHeartbeat(const std::string& interface_name, SimTime now);

  /// Feeds one tuple into a caller-declared stream.
  Status InjectRow(const std::string& stream_name, const rts::Row& row);

  /// Injects a punctuation bound on one field of a caller-declared stream.
  Status InjectPunctuation(const std::string& stream_name, size_t field,
                           const expr::Value& bound);

  /// Forces one telemetry snapshot onto the `gs_stats` stream, stamped
  /// `now` (clamped non-decreasing). An injection API like InjectPacket:
  /// call from the inject thread only. With options.stats_period > 0
  /// snapshots also happen automatically as injected time advances.
  Status EmitStatsSnapshot(SimTime now);

  /// Registers a user-written query node (§3: "users can write their own
  /// query nodes to implement special operators by following this API",
  /// e.g. the IP defragmentation operator in ops/defrag.h). The node must
  /// already have declared its output stream in registry(); it is pumped
  /// together with compiled query nodes.
  Status AddNode(std::unique_ptr<rts::QueryNode> node);

  // -- Execution ---------------------------------------------------------------

  /// Publishes open source batches and runs one round over the nodes the
  /// inject thread owns; returns messages processed. Nodes a worker owns
  /// are left to it (single-consumer rule); a degraded worker process's
  /// nodes are adopted first.
  size_t Pump(size_t budget_per_node = 1024);

  /// Pumps the inject thread's nodes until none makes progress and no
  /// punctuation parked on a ring the inject thread produces into can be
  /// delivered.
  void PumpUntilIdle();

  /// End-of-stream barrier: joins worker threads, drains every channel,
  /// flushes buffered operator state (open groups, merge buffers)
  /// downstream node by node, stops worker processes, and seals the
  /// engine. Idempotent; after it returns, injection calls fail with
  /// FailedPrecondition.
  void FlushAll();

  // -- Threaded pump mode ------------------------------------------------------

  /// Starts a worker-thread pool and hands it the HFTA nodes, round-robin
  /// over min(workers, hfta-node-count) threads. Call after all queries,
  /// custom nodes, and subscriptions are set up: while workers run,
  /// AddQuery/AddNode/Subscribe/DeclareStream/ExecuteDdl/SetParam return
  /// FailedPrecondition (they would mutate structures the workers read
  /// lock-free). Idle workers park and are woken by pushes into their
  /// nodes' input channels.
  Status StartThreads(size_t workers);

  /// Stops and joins the worker pool; its nodes return to the inject
  /// thread. Undrained channel contents remain and can be pumped
  /// single-threaded afterwards (FlushAll does this).
  void StopThreads();

  bool threads_running() const {
    return running_ && mode_ == PumpMode::kThreads;
  }

  // -- Multi-process pump mode -------------------------------------------------

  /// Starts supervised HFTA worker processes (requires
  /// EngineOptions::process.enabled at construction, so inter-node rings
  /// are shm-backed). Like StartThreads, HFTA nodes are partitioned
  /// round-robin over min(workers, hfta-node-count) forked processes;
  /// LFTA-stage nodes stay on the inject thread. Each worker heartbeats
  /// through shared memory; the supervisor restarts crashed or hung
  /// workers under exponential backoff, and a worker that exhausts its
  /// restart budget degrades — the parent adopts its nodes in-process,
  /// resynchronizing their inputs at the next punctuation boundary.
  Status StartProcesses(size_t workers);

  /// Kills the worker processes without draining (FlushAll does both, in
  /// order). Their in-flight operator state is lost; the inject thread
  /// adopts every group with a resync so later pumping stays consistent.
  void StopProcesses();

  bool processes_running() const {
    return running_ && mode_ == PumpMode::kProcesses;
  }

  /// The process supervisor, or null unless StartProcesses ran.
  const Supervisor* supervisor() const { return supervisor_.get(); }

  // -- Introspection ---------------------------------------------------------

  rts::StreamRegistry& registry() { return registry_; }

  /// The metric registry behind the `gs_stats` stream: every node, channel,
  /// and packet source registers its counters here. Snapshot() is safe
  /// from any thread, including while workers are pumping.
  const telemetry::Registry& telemetry() const { return telemetry_; }

  /// The sampled-tuple tracer, or null when options.trace_sample == 0.
  /// WriteJson is safe after FlushAll (and, being mutex-guarded, any time).
  const telemetry::Tracer* tracer() const { return tracer_.get(); }

  /// Per-node statistics: (name, tuples_in, tuples_out, eval_errors).
  /// Safe to call from any thread while workers are pumping: the counters
  /// are single-writer relaxed atomics, so readings are torn-free (though
  /// not a global atomic cut across nodes).
  struct NodeStats {
    std::string name;
    uint64_t tuples_in;
    uint64_t tuples_out;
    uint64_t eval_errors;
  };
  std::vector<NodeStats> GetNodeStats() const;

  /// EXPLAIN ANALYZE (gsrun --analyze): every running query's compiled
  /// plan annotated with live runtime counters — actual tuples in/out,
  /// poll/tuple timing percentiles, input-ring health, process placement
  /// with restart counts.
  /// Safe while workers pump (counter reads are the same folded-snapshot
  /// path gs_stats uses). `mask_volatile` omits wall-clock and occupancy
  /// fields so the output is run-to-run stable (golden tests).
  std::string AnalyzeText(bool mask_volatile = false) const;
  /// Same as one JSON object: {"queries":[<per-query object>, ...]}.
  std::string AnalyzeJson(bool mask_volatile = false) const;

 private:
  enum class PumpMode : uint8_t { kSingle, kThreads, kProcesses };

  /// Owner value of the nodes the caller's inject thread runs; any other
  /// owner is a worker index.
  static constexpr size_t kInjectThread = static_cast<size_t>(-1);

  /// Placement table entry, parallel to nodes_. LFTA-stage nodes always
  /// stay with the inject thread; StartThreads and StartProcesses spread
  /// the others over their workers.
  struct NodePlacement {
    bool lfta = false;
    size_t owner = kInjectThread;
  };

  /// The nodes one owner runs and the rings they produce into, resolved
  /// once from the placement table so a worker's idle retry of parked
  /// punctuations is a pointer walk.
  struct NodeGroup {
    std::vector<rts::QueryNode*> nodes;
    std::vector<rts::Subscription> outputs;
  };

  struct Worker {
    std::thread thread;
    std::shared_ptr<rts::ConsumerWaker> waker;
    /// Points into worker_park_ns_ (engine-owned): StopThreads clears
    /// workers_, but registered histogram readers must stay valid.
    telemetry::Histogram* park_ns = nullptr;
  };

  struct ProtocolSource {
    std::string stream_name;
    gsql::StreamSchema schema;
    /// Field extraction resolved once; payload fields start unwanted and
    /// are switched on as consumers that read them appear.
    InterpretPlan interpret;
    telemetry::Counter packets;
    /// Seconds bound of the last punctuation published on this source;
    /// `gs_stats` consumers can compute punctuation lag against it.
    telemetry::Counter last_punct_sec;
    /// Sim-time distance from each packet to the source's previous
    /// punctuation — the distribution behind the e4 heartbeat story.
    telemetry::Histogram punct_lag;
    /// Packets whose bytes failed to decode even at the Ethernet layer.
    telemetry::Counter parse_errors;
    /// Packets whose timestamp regressed behind the last punctuation:
    /// clamped to the bound (never violating emitted ordering promises).
    telemetry::Counter time_regressions;
    SimTime last_punct_time = 0;
    /// Inject-side batch under construction: packets append here and the
    /// batch publishes on size/age/punctuation, or at the next Pump.
    rts::StreamBatch open_batch;
    SimTime batch_open_time = 0;
  };

  /// Ensures a packet stream for (interface, protocol) exists.
  Status EnsureProtocolSource(const std::string& interface_name,
                              const std::string& protocol);

  /// Registers sources required by every Source leaf of `plan`.
  Status EnsureSources(const plan::PlanPtr& plan);

  /// Walks `plan` and marks every protocol-source field some operator
  /// expression references as wanted, so InterpretPacket materializes it.
  /// Consumers the engine cannot introspect (AddNode user nodes, raw
  /// registry subscriptions routed through Subscribe) mark all fields.
  void MarkProtocolFieldUses(const plan::PlanPtr& plan);
  static void MarkAllProtocolFields(ProtocolSource& source);

  /// Rejects mutations while the worker pool runs (structures the workers
  /// read are not guarded by locks) and input after FlushAll sealed the
  /// engine.
  Status CheckMutable(const char* operation) const;
  Status CheckAcceptingInput(const char* operation) const;

  // -- Placement -------------------------------------------------------------

  size_t OwnerOf(size_t node) const {
    return node < placement_.size() ? placement_[node].owner : kInjectThread;
  }
  NodeGroup GroupOf(size_t owner) const;
  /// StartThreads/StartProcesses common part: checks that no workers run
  /// and the engine accepts input, then assigns the non-LFTA nodes
  /// round-robin to min(workers, count) workers. Returns that pool size (0
  /// when the inject thread keeps every node).
  Result<size_t> PlaceWorkers(PumpMode mode, size_t workers);
  /// One poll round over the inject thread's nodes, after adopting the
  /// nodes of degraded worker processes.
  size_t PollInjectNodes(size_t budget_per_node);
  /// The end of every inject call: with workers running, the inject thread
  /// drives its nodes at once so their output reaches the workers.
  void PumpAfterInject();
  /// One round of a worker's loop: polls every node of `group`; when none
  /// made progress, retries punctuations parked on the group's outputs.
  /// Returns messages processed plus punctuations delivered.
  size_t PollGroup(const NodeGroup& group);
  void WorkerLoop(size_t worker);
  /// FlushAll's drain step: PumpUntilIdle, then a kDrain command to every
  /// live worker process, until a round makes no progress.
  void DrainUntilIdle();

  // -- Multi-process internals ----------------------------------------------

  /// The child process's pump loop: heartbeat, command mailbox, PollGroup.
  /// Never returns (the child _exits on kExit or dies by fault/crash).
  void WorkerProcessLoop(size_t worker, uint32_t generation);
  /// Child-side: runs PollGroup until idle (the kFlushNode/kDrain
  /// commands); keeps heartbeating while it runs.
  size_t DrainWorkerNodes(const NodeGroup& group, WorkerControl* control,
                          uint64_t* processed_total);
  /// Parent-side failover: hands worker `w`'s nodes to the inject thread;
  /// with `resync` their inputs discard until the next punctuation
  /// boundary (the dead process's partial state is unrecoverable).
  void AdoptWorkerNodes(size_t worker, bool resync);
  /// Adopts every worker the supervisor has declared degraded.
  void AdoptDegradedWorkers();

  /// A time-only punctuation at `now` for heartbeats and shed packets:
  /// bounds on the source's `time` (seconds) and `timestamp` fields.
  /// Records the seconds bound in last_punct_sec.
  static rts::Punctuation TimePunctuation(ProtocolSource* source,
                                          SimTime now);
  /// Closes the source's open batch with `punctuation`, publishes it, and
  /// records `now` as the source's last punctuation time.
  void SealSourceBatch(ProtocolSource* source, rts::StreamMessage punctuation,
                       SimTime now);

  /// Publishes every source's open batch (Pump and FlushAll call this so
  /// no injected tuple waits on the batch-size threshold once the engine
  /// is asked to make progress). Returns whether anything was published.
  bool FlushSourceBatches();

  /// EXPLAIN ANALYZE assembly (core/analyze.cc): one registry snapshot
  /// folded into per-node stats plus the engine-level summary header.
  void AssembleAnalyze(std::map<std::string, plan::AnalyzeNodeStats>* by_node,
                       plan::AnalyzeSummary* summary) const;

  /// Registers telemetry for nodes added since the last call (watermark
  /// telemetry_registered_nodes_).
  void RegisterNewNodeTelemetry();
  /// Emits a `gs_stats` snapshot when injected time has advanced past
  /// options_.stats_period since the previous one.
  void MaybeEmitStats(SimTime now);
  /// Runs one overload-controller pressure check when injected time has
  /// advanced past options_.shed.check_period since the previous one.
  /// Inject thread only — the controller and every actuated path (source
  /// sampling, LFTA-stage nodes) live on this thread.
  void MaybeRunShedCheck(SimTime now);

  EngineOptions options_;
  gsql::Catalog catalog_;
  // Declared before nodes_/registry_ so registered readers (which point at
  // node- and channel-owned counters) never outlive the registry's users.
  telemetry::Registry telemetry_;
  // Also before nodes_: nodes keep a raw Tracer pointer (SetTracer).
  std::unique_ptr<telemetry::Tracer> tracer_;
  /// Trace-viewer track ids: 0 is the inject thread, nodes take 1..N.
  uint32_t next_track_id_ = 1;
  /// Park-time histograms per worker slot, engine-owned so the registered
  /// readers survive StopThreads (which clears workers_). Grows lazily in
  /// StartThreads; slot w is reused across start/stop cycles.
  std::vector<std::unique_ptr<telemetry::Histogram>> worker_park_ns_;
  rts::StreamRegistry registry_;
  std::unique_ptr<telemetry::StatsSource> stats_source_;
  SimTime last_stats_emit_ = 0;
  /// Highest injected sim-time seen; stamps the terminal stats snapshot.
  SimTime last_input_time_ = 0;
  size_t telemetry_registered_nodes_ = 0;
  uint64_t subscriber_seq_ = 0;
  telemetry::Counter heartbeats_;
  /// Shared shedding knobs: written by the controller, read (relaxed) by
  /// the inject path and LFTA-stage nodes — all on the inject thread.
  rts::ShedState shed_state_;
  std::unique_ptr<OverloadController> shed_controller_;
  SimTime last_shed_check_ = 0;
  /// Packets shed at the source by L1 sampling (per bound protocol stream).
  telemetry::Counter shed_tuples_;
  /// Packets offered to InjectPacket, shed or not: the deterministic
  /// 1-in-k sampling phase.
  uint64_t inject_seq_ = 0;
  /// LFTA-table nodes, cached at registration so pressure checks read
  /// their table occupancy without a per-check scan-and-cast.
  std::vector<const ops::LftaAggregateNode*> lfta_agg_nodes_;
  std::vector<std::unique_ptr<rts::QueryNode>> nodes_;
  std::vector<QueryInfo> query_infos_;
  /// Per-query parameter blocks and name->slot maps.
  struct QueryParams {
    rts::ParamBlock block;
    std::vector<std::string> names;
  };
  std::map<std::string, QueryParams> query_params_;
  std::map<std::string, ProtocolSource> protocol_sources_;
  /// Compiled plans retained per query (parallel to query_infos_) so
  /// EXPLAIN ANALYZE can re-render them against live runtime counters.
  struct AnalyzePlan {
    plan::PlannedQuery planned;
    plan::SplitQuery split;
  };
  std::vector<AnalyzePlan> analyze_plans_;
  /// Parallel to nodes_ (entries past its end are inject-owned).
  std::vector<NodePlacement> placement_;
  /// Last pump mode started (the ANALYZE header); running_ says whether its
  /// workers are live.
  PumpMode mode_ = PumpMode::kSingle;
  bool running_ = false;
  /// Worker threads (threads mode only).
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_workers_{false};
  // -- Multi-process mode state ---------------------------------------------
  std::unique_ptr<Supervisor> supervisor_;
  bool process_telemetry_registered_ = false;
  /// Shm metrics arena (process mode): created by the parent before any
  /// fork so children inherit counters bound into shared slots; the
  /// parent's registry reads fold the live child-side values.
  std::unique_ptr<rts::ShmSegment> metrics_shm_;
  std::unique_ptr<telemetry::MetricsArena> metrics_arena_;
  /// Contiguous arena slot range bound for each worker's node entities; a
  /// restarted incarnation resets its range (new epoch) so the parent's
  /// monotone fold never regresses.
  struct ArenaRange {
    size_t begin = 0;
    size_t count = 0;
  };
  std::vector<ArenaRange> worker_arena_ranges_;
  /// Degraded-worker adoptions (each one opens a resync gap, like a
  /// restart does); atomic because the gs_stats reader may run while the
  /// engine thread adopts.
  std::atomic<uint64_t> adopted_resync_{0};
  bool flushed_ = false;
  /// Once a user node exists, sources created later also materialize every
  /// field — the node may subscribe to them through registry().
  bool user_nodes_present_ = false;
};

/// Interprets a raw packet straight into a packed tuple of the plan's
/// schema (TupleCodec layout), replacing `*out`: one packet decode, then
/// one little-endian store per field into a buffer sized once. Gated-off
/// fields and fields whose protocol layer is absent stay zero bytes, which
/// is the packed type default. `malformed` (nullable) reports whether the
/// packet failed to decode at the Ethernet layer; malformed input never
/// crashes the interpreter, it is counted via the source's parse_errors
/// metric.
void InterpretPacketBytes(const InterpretPlan& plan, const net::Packet& packet,
                          ByteBuffer* out, bool* malformed = nullptr);

/// The same interpretation as a row: InterpretPacketBytes, decoded.
rts::Row InterpretPacket(const InterpretPlan& plan, const net::Packet& packet,
                         bool* malformed = nullptr);

/// Convenience overload: resolves `schema` (time, timestamp, srcIP,
/// destIP, srcPort, destPort, protocol, ipVersion, len, tcpFlags, tcpSeq,
/// ipId, fragOffset, moreFrags, payload, ipPayload; unknown names get
/// default values) and interprets with every field materialized.
rts::Row InterpretPacket(const gsql::StreamSchema& schema,
                         const net::Packet& packet);

}  // namespace gigascope::core

#endif  // GIGASCOPE_CORE_ENGINE_H_
