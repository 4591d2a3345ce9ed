#include "core/engine.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "core/compiled_query.h"
#include "gsql/parser.h"
#include "net/headers.h"
#include "ops/lfta_agg.h"
#include "rts/punctuation.h"
#include "telemetry/metric_names.h"

namespace gigascope::core {

using expr::Value;
using gsql::DataType;
namespace metric = telemetry::metric;

namespace {

/// Per-node poll budget of every worker (thread or process) and of the
/// inject thread's pump after each inject call while workers run.
constexpr size_t kWorkerPollBudget = 1024;

/// Seed of the tracer's sampling RNG: the same injection sequence traces
/// the same packets.
constexpr uint64_t kTraceSeed = 42;

/// Retries the punctuations parked on once-full `channels`, so windows
/// close without waiting for the seal; returns how many were delivered.
/// Parked messages are producer-side state: only the thread or process
/// that produces into the channels may call this.
size_t RetryParkedPunctuations(const std::vector<rts::Subscription>& channels) {
  size_t delivered = 0;
  for (const rts::Subscription& channel : channels) {
    if (channel->has_parked() && channel->FlushParked()) ++delivered;
  }
  return delivered;
}

}  // namespace

TupleSubscription::TupleSubscription(rts::Subscription channel,
                                     gsql::StreamSchema schema)
    : channel_(std::move(channel)), codec_(std::move(schema)) {}

std::optional<rts::Row> TupleSubscription::NextRow() {
  rts::StreamMessage message;
  while (channel_->TryPop(&message)) {
    if (message.kind != rts::StreamMessage::Kind::kTuple) continue;
    auto row = codec_.Decode(
        ByteSpan(message.payload.data(), message.payload.size()));
    if (row.ok()) return std::move(row).value();
  }
  return std::nullopt;
}

Engine::Engine(EngineOptions options) : options_(options) {
  if (options_.functions == nullptr) {
    options_.functions = udf::FunctionRegistry::Default();
  }
  // Built-in protocols.
  GS_CHECK(catalog_.AddSchema(gsql::Catalog::BuiltinPacketSchema()).ok());
  GS_CHECK(catalog_.AddSchema(gsql::Catalog::BuiltinNetflowSchema()).ok());
  // The self-telemetry stream: registered in both the catalog and the
  // stream registry up front, so any query can `FROM gs_stats` through the
  // normal planner path, exactly like a user-declared stream.
  GS_CHECK(catalog_.AddSchema(gsql::Catalog::BuiltinStatsSchema()).ok());
  GS_CHECK(registry_.DeclareStream(gsql::Catalog::BuiltinStatsSchema()).ok());
  stats_source_ =
      std::make_unique<telemetry::StatsSource>(&telemetry_, &registry_);
  telemetry_.Register("engine", metric::kHeartbeats, &heartbeats_);
  telemetry_.Register("engine", metric::kStatsSnapshots,
                      stats_source_->snapshots_counter());
  if (options_.trace_sample > 0) {
    tracer_ = std::make_unique<telemetry::Tracer>(options_.trace_sample,
                                                  kTraceSeed);
    tracer_->SetTrackName(0, "inject");
    telemetry_.Register("engine", metric::kTraceSampled,
                        tracer_->sampled_counter());
    telemetry_.Register("engine", metric::kTraceDroppedEvents,
                        tracer_->dropped_events_counter());
  }
  if (options_.shed.enabled) {
    shed_controller_ =
        std::make_unique<OverloadController>(options_.shed, &shed_state_);
    shed_controller_->RegisterTelemetry(&telemetry_, "engine");
    telemetry_.Register("engine", metric::kShedTuples, &shed_tuples_);
  }
  // Lets a CI leg run an existing test binary in process mode (shm-backed
  // rings + StartProcesses eligibility) without plumbing a flag through
  // every harness.
  if (const char* force = std::getenv("GS_PROCESS_FORCE")) {
    const std::string_view v(force);
    if (!v.empty() && v != "0" && v != "off") options_.process.enabled = true;
  }
  if (options_.process.enabled) {
    // Every subscription created from here on gets a shm-backed ring, so
    // the rings forked worker processes inherit are shared, not copied.
    rts::ShmRingOptions shm;
    shm.enabled = true;
    registry_.SetChannelOptions(shm);
    // Ring-health counters live in the shm control blocks, so the parent's
    // aggregate readers see child-side progress.
    telemetry_.RegisterReader("engine", metric::kTornSlots, [this] {
      return registry_.SumAll(&rts::RingChannel::torn);
    });
    telemetry_.RegisterReader("engine", metric::kResyncDropped, [this] {
      return registry_.SumAll(&rts::RingChannel::resync_dropped);
    });
    telemetry_.RegisterReader("engine", metric::kOversizeDropped, [this] {
      return registry_.SumAll(&rts::RingChannel::oversize_dropped);
    });
  }
}

Engine::~Engine() {
  StopProcesses();
  StopThreads();
}

Status Engine::CheckMutable(const char* operation) const {
  if (threads_running()) {
    return Status::FailedPrecondition(
        std::string(operation) +
        ": the worker pool is running; call StopThreads first");
  }
  if (processes_running()) {
    return Status::FailedPrecondition(
        std::string(operation) +
        ": worker processes are running; they fork-share the structures "
        "this call mutates");
  }
  return Status::Ok();
}

Status Engine::CheckAcceptingInput(const char* operation) const {
  if (flushed_) {
    return Status::FailedPrecondition(
        std::string(operation) +
        ": the engine is flushed (FlushAll is end-of-stream); no further "
        "input is accepted");
  }
  return Status::Ok();
}

void Engine::AddInterface(const std::string& name) {
  catalog_.AddInterface(name);
}

Status Engine::ExecuteDdl(std::string_view ddl) {
  GS_RETURN_IF_ERROR(CheckMutable("ExecuteDdl"));
  GS_ASSIGN_OR_RETURN(gsql::ParsedProgram program, gsql::Parse(ddl));
  for (const gsql::Statement& statement : program.statements) {
    const auto* create = std::get_if<gsql::CreateStmt>(&statement);
    if (create == nullptr) {
      return Status::InvalidArgument(
          "ExecuteDdl accepts only CREATE statements; use AddQuery for "
          "queries");
    }
    if (create->schema.kind() == gsql::StreamKind::kProtocol) {
      GS_RETURN_IF_ERROR(CheckProtocolSchema(create->schema));
    }
    GS_RETURN_IF_ERROR(catalog_.AddSchema(create->schema));
  }
  return Status::Ok();
}

Status Engine::DeclareStream(const gsql::StreamSchema& schema) {
  GS_RETURN_IF_ERROR(CheckMutable("DeclareStream"));
  if (schema.kind() != gsql::StreamKind::kStream) {
    return Status::InvalidArgument(
        "DeclareStream declares Stream schemas; protocols come from DDL");
  }
  if (!catalog_.HasSchema(schema.name())) {
    GS_RETURN_IF_ERROR(catalog_.AddSchema(schema));
  }
  return registry_.DeclareStream(schema);
}

Status Engine::EnsureProtocolSource(const std::string& interface_name,
                                    const std::string& protocol) {
  std::string stream_name = ProtocolStreamName(interface_name, protocol);
  if (protocol_sources_.count(stream_name) > 0) return Status::Ok();
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      catalog_.GetSchema(protocol));
  GS_RETURN_IF_ERROR(CheckProtocolSchema(schema));
  // Built in place: the telemetry counters are neither movable nor
  // copyable, and map nodes are stable, so the registry can point at them.
  ProtocolSource& source = protocol_sources_[stream_name];
  source.stream_name = stream_name;
  source.schema = gsql::StreamSchema(stream_name, gsql::StreamKind::kStream,
                                     schema.fields());
  source.interpret = BuildInterpretPlan(source.schema);
  // Payload fields heap-copy packet bytes per interpretation; leave them
  // off until a consumer that reads them shows up (MarkProtocolFieldUses,
  // Subscribe, AddNode). With user nodes around, any stream may be read
  // through registry(), so keep everything on.
  if (!user_nodes_present_) {
    for (size_t f = 0; f < source.interpret.fields.size(); ++f) {
      if (source.interpret.fields[f] == InterpretPlan::Extract::kPayload ||
          source.interpret.fields[f] == InterpretPlan::Extract::kIpPayload) {
        source.interpret.wanted[f] = false;
      }
    }
  }
  Status declared = registry_.DeclareStream(source.schema);
  if (!declared.ok()) {
    protocol_sources_.erase(stream_name);
    return declared;
  }
  telemetry_.Register(stream_name, metric::kPackets, &source.packets);
  telemetry_.Register(stream_name, metric::kLastPunctSec,
                      &source.last_punct_sec);
  telemetry_.RegisterHistogram(stream_name, metric::kPunctLagNs,
                               &source.punct_lag);
  telemetry_.Register(stream_name, metric::kParseErrors,
                      &source.parse_errors);
  telemetry_.Register(stream_name, metric::kTimeRegressions,
                      &source.time_regressions);
  return Status::Ok();
}

Status Engine::EnsureSources(const plan::PlanPtr& plan) {
  if (plan == nullptr) return Status::Ok();
  if (plan->kind == plan::PlanKind::kSource && plan->source_is_protocol) {
    GS_RETURN_IF_ERROR(
        EnsureProtocolSource(plan->interface_name, plan->source_stream));
  }
  for (const plan::PlanPtr& child : plan->children) {
    GS_RETURN_IF_ERROR(EnsureSources(child));
  }
  return Status::Ok();
}

void Engine::MarkAllProtocolFields(ProtocolSource& source) {
  source.interpret.wanted.assign(source.interpret.wanted.size(), true);
}

void Engine::MarkProtocolFieldUses(const plan::PlanPtr& node) {
  if (node == nullptr || node->kind == plan::PlanKind::kSource) return;
  for (const plan::PlanPtr& child : node->children) {
    MarkProtocolFieldUses(child);
  }
  // (input, field) references of this operator's expressions; inputs that
  // resolve to protocol-source children mark the field wanted.
  std::vector<std::pair<size_t, size_t>> refs;
  auto collect = [&refs](const expr::IrPtr& ir) {
    if (ir != nullptr) expr::CollectFieldRefs(ir, &refs);
  };
  switch (node->kind) {
    case plan::PlanKind::kSelectProject:
      collect(node->predicate);
      for (const expr::IrPtr& projection : node->projections) {
        collect(projection);
      }
      break;
    case plan::PlanKind::kAggregate:
      for (const expr::IrPtr& key : node->group_keys) collect(key);
      for (const expr::AggregateSpec& agg : node->aggregates) {
        collect(agg.arg);
      }
      break;
    case plan::PlanKind::kJoin:
      collect(node->join_predicate);
      refs.emplace_back(0, node->left_window_field);
      refs.emplace_back(1, node->right_window_field);
      break;
    case plan::PlanKind::kMerge:
      for (size_t i = 0; i < node->children.size(); ++i) {
        refs.emplace_back(i, node->merge_field);
      }
      break;
    case plan::PlanKind::kSource:
      return;
  }
  for (const auto& [input, field] : refs) {
    if (input >= node->children.size()) continue;
    const plan::PlanPtr& child = node->children[input];
    if (child->kind != plan::PlanKind::kSource || !child->source_is_protocol) {
      continue;
    }
    auto it = protocol_sources_.find(
        ProtocolStreamName(child->interface_name, child->source_stream));
    if (it == protocol_sources_.end()) continue;
    if (field < it->second.interpret.wanted.size()) {
      it->second.interpret.wanted[field] = true;
    }
  }
}

Result<QueryInfo> Engine::AddQuery(
    std::string_view gsql_text,
    const std::map<std::string, expr::Value>& params) {
  GS_RETURN_IF_ERROR(CheckMutable("AddQuery"));
  // True-up placement and telemetry bookkeeping if an earlier
  // instantiation failed partway.
  placement_.resize(nodes_.size());
  RegisterNewNodeTelemetry();
  const size_t first_new_node = nodes_.size();
  GS_ASSIGN_OR_RETURN(gsql::Statement statement,
                      gsql::ParseStatement(gsql_text));

  // Extract the DEFINE block (shared by SELECT and MERGE).
  const gsql::DefineBlock* define = nullptr;
  if (const auto* select = std::get_if<gsql::SelectStmt>(&statement)) {
    define = &select->define;
  } else if (const auto* merge = std::get_if<gsql::MergeStmt>(&statement)) {
    define = &merge->define;
  } else {
    return Status::InvalidArgument(
        "AddQuery accepts SELECT or MERGE statements; use ExecuteDdl for "
        "CREATE");
  }

  // Resolve declared parameters to slots and instantiation-time values.
  plan::PlannerOptions planner_options;
  planner_options.resolver = options_.functions;
  std::vector<Value> param_values;
  std::vector<std::string> param_names;
  for (const auto& decl : define->params) {
    planner_options.params.emplace_back(decl.name, decl.type);
    param_names.push_back(decl.name);
    auto it = params.find(decl.name);
    Value value;
    if (it != params.end()) {
      GS_ASSIGN_OR_RETURN(value, expr::CastValue(it->second, decl.type));
    } else if (decl.default_value != nullptr) {
      const auto* literal =
          std::get_if<gsql::LiteralExpr>(&decl.default_value->node);
      if (literal == nullptr) {
        return Status::InvalidArgument("parameter '" + decl.name +
                                       "' default must be a literal");
      }
      switch (literal->type) {
        case DataType::kInt:
          value = Value::Int(literal->int_value);
          break;
        case DataType::kUint:
        case DataType::kIp:
          value = Value::Uint(literal->uint_value);
          break;
        case DataType::kFloat:
          value = Value::Float(literal->float_value);
          break;
        case DataType::kString:
          value = Value::String(literal->string_value);
          break;
        case DataType::kBool:
          value = Value::Bool(literal->bool_value);
          break;
      }
      GS_ASSIGN_OR_RETURN(value, expr::CastValue(value, decl.type));
    } else {
      return Status::InvalidArgument("parameter '" + decl.name +
                                     "' has no value and no default");
    }
    param_values.push_back(std::move(value));
  }

  // Plan.
  plan::PlannedQuery planned;
  if (const auto* select = std::get_if<gsql::SelectStmt>(&statement)) {
    GS_ASSIGN_OR_RETURN(gsql::ResolvedSelect resolved,
                        gsql::AnalyzeSelect(*select, catalog_));
    GS_ASSIGN_OR_RETURN(planned, plan::PlanSelect(resolved, planner_options));
  } else {
    const auto& merge = std::get<gsql::MergeStmt>(statement);
    GS_ASSIGN_OR_RETURN(gsql::ResolvedMerge resolved,
                        gsql::AnalyzeMerge(merge, catalog_));
    GS_ASSIGN_OR_RETURN(planned, plan::PlanMerge(resolved, planner_options));
  }
  if (registry_.HasStream(planned.name)) {
    return Status::AlreadyExists("a query named '" + planned.name +
                                 "' is already running");
  }

  // Split into LFTA/HFTA.
  GS_ASSIGN_OR_RETURN(plan::SplitQuery split, plan::SplitPlan(planned));
  if (split.split_aggregation &&
      (options_.lfta_hash_log2 < 0 ||
       options_.lfta_hash_log2 > ops::kMaxLftaHashLog2)) {
    return Status::InvalidArgument(
        "lfta_hash_log2 must be in [0, " +
        std::to_string(ops::kMaxLftaHashLog2) + "], got " +
        std::to_string(options_.lfta_hash_log2));
  }

  QueryInfo info;
  info.name = split.name;
  info.lfta_name = split.lfta_name;
  info.has_lfta = split.lfta != nullptr;
  info.has_hfta = split.hfta != nullptr;
  info.split_aggregation = split.split_aggregation;
  info.unbounded_aggregation = planned.unbounded_aggregation;
  info.has_nic_program = split.has_nic_program;
  info.nic_program = split.nic_program;
  info.snap_len = split.snap_len;
  info.plan_text = "-- logical --\n" + planned.root->ToString();
  if (split.lfta != nullptr) {
    info.plan_text += "-- lfta --\n" + split.lfta->ToString();
  }
  if (split.hfta != nullptr) {
    info.plan_text += "-- hfta --\n" + split.hfta->ToString();
  }

  // Instantiate: LFTA first (it declares the mangled stream the HFTA
  // reads), then the HFTA.
  QueryParams query_params;
  query_params.block =
      std::make_shared<std::vector<Value>>(param_values);
  query_params.names = param_names;

  InstantiationContext ctx;
  ctx.registry = &registry_;
  ctx.params = query_params.block;
  ctx.param_values = param_values;
  ctx.channel_capacity = options_.channel_capacity;
  ctx.lfta_hash_log2 = options_.lfta_hash_log2;
  ctx.output_batch = options_.batch_max_size;
  // With shedding off, nodes keep a null pointer and pay nothing.
  ctx.shed = options_.shed.enabled ? &shed_state_ : nullptr;
  ctx.nodes = &nodes_;

  if (split.lfta != nullptr) {
    GS_RETURN_IF_ERROR(EnsureSources(split.lfta));
    MarkProtocolFieldUses(split.lfta);
    ctx.use_lfta_table = split.split_aggregation;
    // LFTA-stage nodes run on the inject thread even in multi-process
    // mode, and the splitter guarantees their inputs are protocol sources
    // or streams internal to this same plan — all produced in the parent.
    // Keep those rings heap-backed: the per-packet source traffic must
    // not pay shm serialization for a process boundary it never crosses.
    ctx.parent_local = true;
    std::string lfta_output =
        split.hfta == nullptr ? split.name : split.lfta_name;
    GS_RETURN_IF_ERROR(InstantiatePlan(split.lfta, lfta_output, &ctx));
    ctx.parent_local = false;
  }
  // Nodes instantiated so far belong to the LFTA plan and always stay on
  // the inject thread; the HFTA nodes after them may go to workers.
  placement_.resize(nodes_.size(), NodePlacement{.lfta = true});
  if (split.hfta != nullptr) {
    GS_RETURN_IF_ERROR(EnsureSources(split.hfta));
    MarkProtocolFieldUses(split.hfta);
    ctx.use_lfta_table = false;
    GS_RETURN_IF_ERROR(InstantiatePlan(split.hfta, split.name, &ctx));
  }
  placement_.resize(nodes_.size());

  // Register the query's output schema in the catalog so later queries can
  // compose over it (§2.2).
  catalog_.PutStreamSchema(planned.output_schema);
  query_params_.emplace(info.name, std::move(query_params));
  query_infos_.push_back(info);
  // Retained for EXPLAIN ANALYZE (plan trees are shared_ptr-backed, so
  // this is a cheap handle copy, not a deep clone).
  analyze_plans_.push_back({planned, split});
  // The node publishing under the query's public name is its terminal:
  // tuples it emits while processing a traced message record the
  // inject→emit latency. Marked before telemetry registration so the
  // e2e_latency_ns histogram is registered for it.
  for (size_t i = first_new_node; i < nodes_.size(); ++i) {
    if (nodes_[i]->name() == split.name) nodes_[i]->set_terminal(true);
  }
  RegisterNewNodeTelemetry();
  return info;
}

void Engine::RegisterNewNodeTelemetry() {
  for (; telemetry_registered_nodes_ < nodes_.size();
       ++telemetry_registered_nodes_) {
    rts::QueryNode* node = nodes_[telemetry_registered_nodes_].get();
    if (tracer_ != nullptr) {
      const uint32_t track = next_track_id_++;
      node->SetTracer(tracer_.get(), track);
      tracer_->SetTrackName(track, node->name());
    }
    node->RegisterTelemetry(&telemetry_);
    // Cache LFTA-table nodes so the overload controller's pressure checks
    // can read table occupancy without a scan-and-cast per check.
    if (const auto* lfta = dynamic_cast<const ops::LftaAggregateNode*>(node)) {
      lfta_agg_nodes_.push_back(lfta);
    }
  }
}

Status Engine::SetParam(const std::string& query_name,
                        const std::string& param_name, expr::Value value) {
  // The param block is read by worker-owned nodes without locks.
  GS_RETURN_IF_ERROR(CheckMutable("SetParam"));
  auto it = query_params_.find(query_name);
  if (it == query_params_.end()) {
    return Status::NotFound("no query named '" + query_name + "'");
  }
  for (size_t i = 0; i < it->second.names.size(); ++i) {
    if (it->second.names[i] == param_name) {
      DataType declared = (*it->second.block)[i].type();
      GS_ASSIGN_OR_RETURN(Value casted, expr::CastValue(value, declared));
      (*it->second.block)[i] = std::move(casted);
      return Status::Ok();
    }
  }
  return Status::NotFound("query '" + query_name + "' has no parameter '" +
                          param_name + "'");
}

Result<std::unique_ptr<TupleSubscription>> Engine::Subscribe(
    const std::string& stream_name, size_t capacity) {
  GS_RETURN_IF_ERROR(CheckMutable("Subscribe"));
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      registry_.GetSchema(stream_name));
  // A raw subscriber to a protocol stream sees whole rows; materialize
  // every field from here on.
  auto source_it = protocol_sources_.find(stream_name);
  if (source_it != protocol_sources_.end()) {
    MarkAllProtocolFields(source_it->second);
  }
  GS_ASSIGN_OR_RETURN(rts::Subscription channel,
                      registry_.Subscribe(stream_name, capacity));
  // Subscriber-side channels are observable too.
  rts::RegisterRingMetrics(
      &telemetry_, stream_name + "#sub" + std::to_string(subscriber_seq_++),
      metric::kRingPrefix, channel);
  return std::make_unique<TupleSubscription>(std::move(channel),
                                             std::move(schema));
}

namespace {

/// The built-in interpretation library (§2.2): a field named after an
/// extractor is filled by it, and must be declared with its type.
struct Extractor {
  const char* name;
  InterpretPlan::Extract extract;
  DataType type;
};

constexpr Extractor kExtractors[] = {
    {"time", InterpretPlan::Extract::kTime, DataType::kUint},
    {"timestamp", InterpretPlan::Extract::kTimestamp, DataType::kUint},
    {"len", InterpretPlan::Extract::kLen, DataType::kUint},
    {"srcIP", InterpretPlan::Extract::kSrcIp, DataType::kIp},
    {"destIP", InterpretPlan::Extract::kDestIp, DataType::kIp},
    {"srcPort", InterpretPlan::Extract::kSrcPort, DataType::kUint},
    {"destPort", InterpretPlan::Extract::kDestPort, DataType::kUint},
    {"protocol", InterpretPlan::Extract::kProtocol, DataType::kUint},
    {"ipVersion", InterpretPlan::Extract::kIpVersion, DataType::kUint},
    {"tcpFlags", InterpretPlan::Extract::kTcpFlags, DataType::kUint},
    {"tcpSeq", InterpretPlan::Extract::kTcpSeq, DataType::kUint},
    {"ipId", InterpretPlan::Extract::kIpId, DataType::kUint},
    {"fragOffset", InterpretPlan::Extract::kFragOffset, DataType::kUint},
    {"moreFrags", InterpretPlan::Extract::kMoreFrags, DataType::kUint},
    {"payload", InterpretPlan::Extract::kPayload, DataType::kString},
    {"ipPayload", InterpretPlan::Extract::kIpPayload, DataType::kString},
};

const Extractor* FindExtractor(const std::string& name) {
  for (const Extractor& extractor : kExtractors) {
    if (name == extractor.name) return &extractor;
  }
  return nullptr;
}

void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

}  // namespace

InterpretPlan BuildInterpretPlan(const gsql::StreamSchema& schema) {
  InterpretPlan plan;
  plan.fields.reserve(schema.num_fields());
  for (size_t f = 0; f < schema.num_fields(); ++f) {
    const gsql::FieldDef& field = schema.field(f);
    const Extractor* extractor = FindExtractor(field.name);
    plan.fields.push_back(extractor != nullptr && extractor->type == field.type
                              ? extractor->extract
                              : InterpretPlan::Extract::kDefault);
    const size_t width =
        rts::TupleCodec::FixedTypeWidth(field.type).value_or(sizeof(uint32_t));
    plan.widths.push_back(static_cast<uint8_t>(width));
    plan.fixed_bytes += width;
    plan.wanted.push_back(true);
  }
  plan.codec = std::make_shared<const rts::TupleCodec>(schema);
  return plan;
}

Status CheckProtocolSchema(const gsql::StreamSchema& schema) {
  for (const gsql::FieldDef& field : schema.fields()) {
    const Extractor* extractor = FindExtractor(field.name);
    if (extractor != nullptr && extractor->type != field.type) {
      return Status::InvalidArgument(
          "protocol " + schema.name() + " declares field '" + field.name +
          "' as " + gsql::DataTypeName(field.type) +
          ", but the built-in interpretation of '" + field.name +
          "' yields " + gsql::DataTypeName(extractor->type));
    }
  }
  return Status::Ok();
}

void InterpretPacketBytes(const InterpretPlan& plan, const net::Packet& packet,
                          ByteBuffer* out, bool* malformed) {
  using Extract = InterpretPlan::Extract;
  auto decoded_result = net::DecodePacket(packet.view());
  const net::DecodedPacket* decoded =
      decoded_result.ok() ? &decoded_result.value() : nullptr;
  if (malformed != nullptr) *malformed = decoded == nullptr;
  const bool has_ip = decoded != nullptr && decoded->ip.has_value();
  const net::TcpHeader* tcp =
      decoded != nullptr && decoded->is_tcp() ? &*decoded->tcp : nullptr;
  const net::UdpHeader* udp =
      decoded != nullptr && decoded->is_udp() ? &*decoded->udp : nullptr;

  // The string bodies: the application payload, and the IP payload
  // including any transport header (what an IP defragmenter reassembles).
  ByteSpan payload;
  ByteSpan ip_payload;
  if (decoded != nullptr) payload = decoded->payload;
  if (has_ip) {
    const size_t start = net::kEthernetHeaderLen + decoded->ip->header_len;
    if (packet.bytes.size() > start) ip_payload = packet.view().substr(start);
  }
  size_t size = plan.fixed_bytes;
  for (size_t f = 0; f < plan.fields.size(); ++f) {
    if (!plan.wanted[f]) continue;
    if (plan.fields[f] == Extract::kPayload) size += payload.size();
    if (plan.fields[f] == Extract::kIpPayload) size += ip_payload.size();
  }
  // Zero-filled: whatever no extractor writes below is the type default.
  out->assign(size, 0);

  uint8_t* p = out->data();
  for (size_t f = 0; f < plan.fields.size(); ++f) {
    const Extract extract =
        plan.wanted[f] ? plan.fields[f] : Extract::kDefault;
    switch (extract) {
      case Extract::kTime:
        StoreU64(p, static_cast<uint64_t>(SimTimeToSeconds(packet.timestamp)));
        break;
      case Extract::kTimestamp:
        StoreU64(p, static_cast<uint64_t>(packet.timestamp));
        break;
      case Extract::kLen:
        StoreU64(p, packet.orig_len);
        break;
      case Extract::kSrcIp:
        if (has_ip) StoreU32(p, decoded->ip->src_addr);
        break;
      case Extract::kDestIp:
        if (has_ip) StoreU32(p, decoded->ip->dst_addr);
        break;
      case Extract::kSrcPort:
        if (tcp != nullptr) StoreU64(p, tcp->src_port);
        if (udp != nullptr) StoreU64(p, udp->src_port);
        break;
      case Extract::kDestPort:
        if (tcp != nullptr) StoreU64(p, tcp->dst_port);
        if (udp != nullptr) StoreU64(p, udp->dst_port);
        break;
      case Extract::kProtocol:
        if (has_ip) StoreU64(p, decoded->ip->protocol);
        break;
      case Extract::kIpVersion:
        if (has_ip) StoreU64(p, 4);
        break;
      case Extract::kTcpFlags:
        if (tcp != nullptr) StoreU64(p, tcp->flags);
        break;
      case Extract::kTcpSeq:
        if (tcp != nullptr) StoreU64(p, tcp->seq);
        break;
      case Extract::kIpId:
        if (has_ip) StoreU64(p, decoded->ip->identification);
        break;
      case Extract::kFragOffset:
        if (has_ip) StoreU64(p, decoded->ip->fragment_offset);
        break;
      case Extract::kMoreFrags:
        if (has_ip) StoreU64(p, decoded->ip->more_fragments() ? 1 : 0);
        break;
      case Extract::kPayload:
      case Extract::kIpPayload: {
        const ByteSpan body = extract == Extract::kPayload ? payload
                                                           : ip_payload;
        StoreU32(p, static_cast<uint32_t>(body.size()));
        if (!body.empty()) std::memcpy(p + 4, body.data(), body.size());
        p += body.size();
        break;
      }
      case Extract::kDefault:
        break;
    }
    p += plan.widths[f];
  }
}

rts::Row InterpretPacket(const InterpretPlan& plan, const net::Packet& packet,
                         bool* malformed) {
  ByteBuffer bytes;
  InterpretPacketBytes(plan, packet, &bytes, malformed);
  Result<rts::Row> row = plan.codec->Decode(ByteSpan(bytes.data(), bytes.size()));
  GS_CHECK(row.ok());
  return std::move(row).value();
}

rts::Row InterpretPacket(const gsql::StreamSchema& schema,
                         const net::Packet& packet) {
  return InterpretPacket(BuildInterpretPlan(schema), packet);
}

rts::Punctuation Engine::TimePunctuation(ProtocolSource* source,
                                         SimTime now) {
  rts::Punctuation punctuation;
  for (size_t f = 0; f < source->schema.num_fields(); ++f) {
    const gsql::FieldDef& field = source->schema.field(f);
    if (!field.order.IsIncreasingLike()) continue;
    if (field.name == "time") {
      const auto sec = static_cast<uint64_t>(SimTimeToSeconds(now));
      punctuation.bounds.emplace_back(f, Value::Uint(sec));
      source->last_punct_sec.Set(sec);
    } else if (field.name == "timestamp") {
      punctuation.bounds.emplace_back(f,
                                      Value::Uint(static_cast<uint64_t>(now)));
    }
  }
  return punctuation;
}

void Engine::SealSourceBatch(ProtocolSource* source,
                             rts::StreamMessage punctuation, SimTime now) {
  source->open_batch.items.push_back(std::move(punctuation));
  registry_.PublishBatch(source->stream_name, std::move(source->open_batch));
  source->open_batch.items.clear();
  source->last_punct_time = now;
}

Status Engine::InjectPacket(const std::string& interface_name,
                            const net::Packet& packet) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("InjectPacket"));
  // One sampling decision per packet: every protocol stream's copy of a
  // traced packet carries the same trace id.
  uint64_t trace_id = 0;
  int64_t trace_ns = 0;
  if (tracer_ != nullptr) {
    trace_id = tracer_->SampleInject();
    if (trace_id != 0) {
      trace_ns = tracer_->NowNs();
      tracer_->RecordInstant("inject", /*tid=*/0, trace_id, trace_ns);
    }
  }
  // L1 shedding: deterministic 1-in-k sampling at the source. One decision
  // per offered packet (not per source) keeps protocol streams of the same
  // interface consistent. Shed packets are accounted — the counter below
  // and the Horvitz-Thompson weight the LFTA folds survivors with — never
  // silently lost.
  ++inject_seq_;
  const uint32_t sample_k = shed_state_.SampleK();
  const bool shed_this = sample_k > 1 && (inject_seq_ % sample_k) != 0;
  bool any = false;
  bool published = false;
  for (auto& [stream_name, source] : protocol_sources_) {
    if (stream_name.rfind(interface_name + ".", 0) != 0) continue;
    any = true;
    // A packet timestamped behind the source's last punctuation would
    // violate the ordering promise already published downstream; clamp it
    // to the bound (windows at the bound are still open — closes are
    // strictly-below) and count the regression.
    const net::Packet* effective = &packet;
    net::Packet clamped;
    if (packet.timestamp < source.last_punct_time) {
      clamped = packet;
      clamped.timestamp = source.last_punct_time;
      effective = &clamped;
      ++source.time_regressions;
    }
    if (shed_this) {
      // The shed packet still advances the source's packet count and, on
      // punctuation boundaries, emits a time-only punctuation (like a
      // heartbeat) so windows keep closing under heavy shed.
      ++source.packets;
      ++shed_tuples_;
      if (options_.punctuation_interval > 0 &&
          source.packets.value() % options_.punctuation_interval == 0) {
        const rts::Punctuation punctuation =
            TimePunctuation(&source, effective->timestamp);
        if (!punctuation.bounds.empty()) {
          SealSourceBatch(
              &source, rts::MakePunctuationMessage(punctuation, source.schema),
              effective->timestamp);
          published = true;
        }
      }
      continue;
    }
    rts::StreamMessage message;
    message.kind = rts::StreamMessage::Kind::kTuple;
    message.trace_id = trace_id;
    message.trace_ns = trace_ns;
    // Horvitz-Thompson weight, stamped at the sampling decision: this
    // survivor stands for itself plus the sample_k - 1 packets the L1
    // sampler sheds around it.
    message.weight = sample_k;
    bool malformed = false;
    InterpretPacketBytes(source.interpret, *effective, &message.payload,
                         &malformed);
    if (malformed) ++source.parse_errors;
    // Batched inject path: the tuple joins the source's open batch, which
    // publishes as one ring message when it fills, ages out, or a
    // punctuation closes it (a punctuation is always a batch's last item).
    if (source.open_batch.items.empty()) {
      source.batch_open_time = effective->timestamp;
    }
    source.open_batch.items.push_back(std::move(message));
    ++source.packets;
    if (source.last_punct_time > 0 &&
        effective->timestamp >= source.last_punct_time) {
      source.punct_lag.Record(static_cast<uint64_t>(effective->timestamp -
                                                    source.last_punct_time));
    }
    rts::Punctuation punctuation;
    if (options_.punctuation_interval > 0 &&
        source.packets.value() % options_.punctuation_interval == 0) {
      // Bounds are the ordered fields of the tuple just interpreted, read
      // back out of its packed bytes (they may sit behind a STRING).
      const ByteBuffer& tuple = source.open_batch.items.back().payload;
      for (size_t f = 0; f < source.schema.num_fields(); ++f) {
        const gsql::FieldDef& field = source.schema.field(f);
        if (!field.order.IsIncreasingLike()) continue;
        if (field.type == DataType::kString) continue;
        Result<Value> bound = source.interpret.codec->DecodeField(
            ByteSpan(tuple.data(), tuple.size()), f);
        GS_CHECK(bound.ok());  // the interpreter wrote a well-formed tuple
        if (field.name == "time") {
          source.last_punct_sec.Set(bound->uint_value());
        }
        punctuation.bounds.emplace_back(f, std::move(bound).value());
      }
    }
    if (!punctuation.bounds.empty()) {
      rts::StreamMessage punct_message =
          rts::MakePunctuationMessage(punctuation, source.schema);
      // Punctuation triggered by a traced packet carries its context:
      // aggregate groups flushed by this punctuation downstream inherit
      // the trace, so e2e latency covers inject -> group close even when
      // the close is punctuation-driven.
      punct_message.trace_id = trace_id;
      punct_message.trace_ns = trace_ns;
      SealSourceBatch(&source, std::move(punct_message), effective->timestamp);
      published = true;
    } else if (source.open_batch.items.size() >= options_.batch_max_size ||
               (options_.batch_max_delay > 0 &&
                effective->timestamp - source.batch_open_time >=
                    options_.batch_max_delay)) {
      registry_.PublishBatch(stream_name, std::move(source.open_batch));
      source.open_batch.items.clear();
      published = true;
    }
  }
  if (!any) {
    return Status::NotFound("no protocol sources on interface '" +
                            interface_name + "' (add a query first)");
  }
  if (packet.timestamp > last_input_time_) {
    last_input_time_ = packet.timestamp;
  }
  MaybeEmitStats(packet.timestamp);
  MaybeRunShedCheck(packet.timestamp);
  if (published) PumpAfterInject();
  return Status::Ok();
}

Status Engine::InjectHeartbeat(const std::string& interface_name,
                               SimTime now) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("InjectHeartbeat"));
  bool any = false;
  for (auto& [stream_name, source] : protocol_sources_) {
    if (stream_name.rfind(interface_name + ".", 0) != 0) continue;
    any = true;
    const rts::Punctuation punctuation = TimePunctuation(&source, now);
    if (!punctuation.bounds.empty()) {
      // The punctuation closes (and flushes) the source's open batch so it
      // arrives after every tuple injected before the heartbeat.
      SealSourceBatch(&source,
                      rts::MakePunctuationMessage(punctuation, source.schema),
                      now);
    }
  }
  if (!any) {
    return Status::NotFound("no protocol sources on interface '" +
                            interface_name + "'");
  }
  ++heartbeats_;
  if (now > last_input_time_) last_input_time_ = now;
  MaybeEmitStats(now);
  MaybeRunShedCheck(now);
  PumpAfterInject();
  return Status::Ok();
}

Status Engine::InjectRow(const std::string& stream_name,
                         const rts::Row& row) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("InjectRow"));
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      registry_.GetSchema(stream_name));
  rts::TupleCodec codec(schema);
  rts::StreamMessage message;
  message.kind = rts::StreamMessage::Kind::kTuple;
  codec.Encode(row, &message.payload);
  registry_.Publish(stream_name, message);
  PumpAfterInject();
  return Status::Ok();
}

Status Engine::InjectPunctuation(const std::string& stream_name, size_t field,
                                 const expr::Value& bound) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("InjectPunctuation"));
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      registry_.GetSchema(stream_name));
  if (field >= schema.num_fields()) {
    return Status::OutOfRange("punctuation field out of range");
  }
  rts::Punctuation punctuation;
  punctuation.bounds.emplace_back(field, bound);
  registry_.Publish(stream_name,
                    rts::MakePunctuationMessage(punctuation, schema));
  PumpAfterInject();
  return Status::Ok();
}

Status Engine::EmitStatsSnapshot(SimTime now) {
  GS_RETURN_IF_ERROR(CheckAcceptingInput("EmitStatsSnapshot"));
  stats_source_->EmitSnapshot(now);
  last_stats_emit_ = now;
  if (now > last_input_time_) last_input_time_ = now;
  PumpAfterInject();
  return Status::Ok();
}

void Engine::MaybeEmitStats(SimTime now) {
  if (options_.stats_period <= 0) return;
  if (now - last_stats_emit_ < options_.stats_period) return;
  stats_source_->EmitSnapshot(now);
  last_stats_emit_ = now;
}

void Engine::MaybeRunShedCheck(SimTime now) {
  if (shed_controller_ == nullptr) return;
  if (last_shed_check_ != 0 &&
      now - last_shed_check_ < options_.shed.check_period) {
    return;
  }
  last_shed_check_ = now;
  PressureSignals signals;
  signals.max_ring_occupancy = registry_.MaxOccupancyFraction();
  signals.total_drops = registry_.TotalDropsAll();
  for (const auto& [name, source] : protocol_sources_) {
    if (source.last_punct_time > 0 && now > source.last_punct_time) {
      signals.max_punct_lag =
          std::max(signals.max_punct_lag, now - source.last_punct_time);
    }
  }
  for (const ops::LftaAggregateNode* node : lfta_agg_nodes_) {
    const size_t slots = node->table().num_slots();
    if (slots == 0) continue;
    signals.max_lfta_occupancy =
        std::max(signals.max_lfta_occupancy,
                 static_cast<double>(node->table().occupied()) /
                     static_cast<double>(slots));
  }
  shed_controller_->Check(signals);
}

Status Engine::AddNode(std::unique_ptr<rts::QueryNode> node) {
  GS_RETURN_IF_ERROR(CheckMutable("AddNode"));
  if (node == nullptr) return Status::InvalidArgument("null node");
  if (!registry_.HasStream(node->name())) {
    return Status::InvalidArgument(
        "custom node '" + node->name() +
        "' must declare its output stream before being added");
  }
  // Make the node's output visible to GSQL so queries can compose over it
  // (§3: the defrag operator feeds a query tree).
  GS_ASSIGN_OR_RETURN(gsql::StreamSchema schema,
                      registry_.GetSchema(node->name()));
  catalog_.PutStreamSchema(schema);
  // A user node's input reads are opaque (it subscribed through the
  // registry before this call): assume it reads every field of every
  // protocol source, present and future.
  user_nodes_present_ = true;
  for (auto& [source_name, source] : protocol_sources_) {
    MarkAllProtocolFields(source);
  }
  nodes_.push_back(std::move(node));
  // Custom nodes read stream channels, not raw packets: worker stage.
  placement_.resize(nodes_.size());
  RegisterNewNodeTelemetry();
  return Status::Ok();
}

bool Engine::FlushSourceBatches() {
  bool published = false;
  for (auto& [stream_name, source] : protocol_sources_) {
    if (source.open_batch.items.empty()) continue;
    registry_.PublishBatch(stream_name, std::move(source.open_batch));
    source.open_batch.items.clear();
    published = true;
  }
  return published;
}

Engine::NodeGroup Engine::GroupOf(size_t owner) const {
  NodeGroup group;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (OwnerOf(i) == owner) group.nodes.push_back(nodes_[i].get());
  }
  // A node publishes under its own name; streams no node produces (packet
  // sources, gs_stats, declared streams) are fed by the inject thread.
  for (const std::string& stream : registry_.StreamNames()) {
    size_t producer = kInjectThread;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->name() == stream) producer = OwnerOf(i);
    }
    if (producer != owner) continue;
    for (rts::Subscription& channel : registry_.Subscribers(stream)) {
      group.outputs.push_back(std::move(channel));
    }
  }
  return group;
}

size_t Engine::PollInjectNodes(size_t budget_per_node) {
  AdoptDegradedWorkers();
  size_t processed = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (OwnerOf(i) != kInjectThread) continue;
    processed += nodes_[i]->PollCounted(budget_per_node);
  }
  return processed;
}

void Engine::PumpAfterInject() {
  // LFTAs run next to the capture loop (§4). The single pump leaves the
  // work to Pump, which keeps runs deterministic.
  if (running_) PollInjectNodes(kWorkerPollBudget);
}

size_t Engine::PollGroup(const NodeGroup& group) {
  size_t processed = 0;
  for (rts::QueryNode* node : group.nodes) {
    processed += node->PollCounted(kWorkerPollBudget);
  }
  return processed > 0 ? processed : RetryParkedPunctuations(group.outputs);
}

size_t Engine::Pump(size_t budget_per_node) {
  // A Pump is a request to make progress: injected tuples still sitting in
  // open source batches publish now rather than waiting for the batch-size
  // threshold (keeps inject→pump→read sequences working at any batch
  // size).
  FlushSourceBatches();
  return PollInjectNodes(budget_per_node);
}

void Engine::PumpUntilIdle() {
  while (Pump() > 0 ||
         RetryParkedPunctuations(GroupOf(kInjectThread).outputs) > 0) {
  }
}

void Engine::DrainUntilIdle() {
  for (;;) {
    PumpUntilIdle();
    if (supervisor_ == nullptr || !processes_running()) return;
    size_t progress = 0;
    for (size_t w = 0; w < supervisor_->workers(); ++w) {
      if (GroupOf(w).nodes.empty()) continue;  // adopted
      uint64_t acked = 0;
      if (supervisor_->SendCommand(w, WorkerCommand::kDrain, 0, &acked)) {
        progress += static_cast<size_t>(acked);
      } else {
        // Died or hung while draining: fail over and run one more round
        // so the adopted nodes consume what their process left behind.
        AdoptWorkerNodes(w, /*resync=*/true);
        progress += 1;
      }
    }
    if (progress == 0) return;
  }
}

void Engine::FlushAll() {
  if (flushed_) return;  // idempotent: the engine is already sealed
  // Worker threads share this address space: once joined, their nodes
  // belong to the inject thread with nothing to resynchronize.
  StopThreads();
  // From here a dying worker process degrades instead of restarting, so
  // the flush below never waits on a respawn.
  if (supervisor_ != nullptr && processes_running()) supervisor_->BeginSeal();
  DrainUntilIdle();  // also publishes any open source batches
  // One terminal telemetry snapshot before the engine seals: the periodic
  // gate in MaybeEmitStats can skip the tail of the run, under-reporting
  // end-of-run counters to gs_stats consumers. Emitted before the node
  // flush below so stats-fed queries process it like any other input.
  if (options_.stats_period > 0) {
    stats_source_->EmitSnapshot(last_input_time_);
    last_stats_emit_ = last_input_time_;
    DrainUntilIdle();
  }
  // Flush upstream-to-downstream (nodes_ order), draining between nodes so
  // flushed state propagates down the chain. A live worker process flushes
  // its node on command; one that died or hangs mid-seal fails over — the
  // inject thread adopts its pristine node copies, resynchronizes their
  // inputs, and flushes locally.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const size_t owner = OwnerOf(i);
    if (owner == kInjectThread) {
      nodes_[i]->Flush();
    } else if (!supervisor_->SendCommand(owner, WorkerCommand::kFlushNode, i,
                                         nullptr)) {
      AdoptWorkerNodes(owner, /*resync=*/true);
      nodes_[i]->Flush();
    }
    DrainUntilIdle();
  }
  // Anything still in the rings (a dead worker's unconsumed input,
  // stragglers) drains in-process now. Cleanly sealed workers left their
  // rings empty, so adopting without a resync changes nothing for them.
  if (supervisor_ != nullptr && processes_running()) {
    supervisor_->StopAll();
    for (size_t w = 0; w < supervisor_->workers(); ++w) {
      AdoptWorkerNodes(w, /*resync=*/false);
    }
  }
  running_ = false;
  PumpUntilIdle();
  flushed_ = true;
}

Result<size_t> Engine::PlaceWorkers(PumpMode mode, size_t workers) {
  const std::string operation =
      mode == PumpMode::kThreads ? "StartThreads" : "StartProcesses";
  if (running_) {
    return Status::FailedPrecondition(
        operation + ": " +
        (mode_ == PumpMode::kThreads ? "the worker pool is"
                                     : "worker processes are") +
        " already running; the pump modes are exclusive");
  }
  GS_RETURN_IF_ERROR(CheckAcceptingInput(operation.c_str()));
  if (workers == 0) {
    return Status::InvalidArgument(operation + " needs at least one worker");
  }
  placement_.resize(nodes_.size());
  size_t eligible = 0;
  for (const NodePlacement& entry : placement_) {
    if (!entry.lfta) ++eligible;
  }
  const size_t pool = std::min(workers, eligible);
  size_t next = 0;
  for (NodePlacement& entry : placement_) {
    if (!entry.lfta) entry.owner = next++ % pool;
  }
  mode_ = mode;
  running_ = true;
  return pool;
}

Status Engine::StartThreads(size_t workers) {
  GS_ASSIGN_OR_RETURN(const size_t pool,
                      PlaceWorkers(PumpMode::kThreads, workers));
  stop_workers_.store(false, std::memory_order_relaxed);
  for (size_t w = 0; w < pool; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->waker = std::make_shared<rts::ConsumerWaker>();
    // Slot w's park histogram persists across start/stop cycles (the
    // registry reader must outlive this pool) and is registered once.
    if (w >= worker_park_ns_.size()) {
      worker_park_ns_.push_back(std::make_unique<telemetry::Histogram>());
      telemetry_.RegisterHistogram("worker" + std::to_string(w),
                                   metric::kParkNs,
                                   worker_park_ns_.back().get());
    }
    worker->park_ns = worker_park_ns_[w].get();
    workers_.push_back(std::move(worker));
  }
  // Wire each worker-owned node's input channels to that worker's waker so
  // pushes (tuples and punctuations) un-park it. Done before the threads
  // start, so the writes are published by thread creation.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (OwnerOf(i) == kInjectThread) continue;
    for (const rts::Subscription& channel : nodes_[i]->inputs()) {
      channel->SetWaker(workers_[OwnerOf(i)]->waker);
    }
  }
  for (size_t w = 0; w < pool; ++w) {
    workers_[w]->thread = std::thread(&Engine::WorkerLoop, this, w);
  }
  return Status::Ok();
}

void Engine::StopThreads() {
  if (!threads_running()) return;
  stop_workers_.store(true, std::memory_order_release);
  for (const auto& worker : workers_) worker->waker->Wake();
  for (const auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  workers_.clear();
  for (NodePlacement& entry : placement_) entry.owner = kInjectThread;
  running_ = false;
}

void Engine::WorkerLoop(size_t worker) {
  Worker& self = *workers_[worker];
  const NodeGroup group = GroupOf(worker);
  // Spin briefly on idle before parking; a push into any owned channel
  // wakes the park, and the timeout bounds any lost-wakeup window (and how
  // long a parked punctuation waits for its retry).
  constexpr int kSpinRounds = 64;
  constexpr std::chrono::microseconds kParkTimeout{200};
  int idle_rounds = 0;
  while (!stop_workers_.load(std::memory_order_acquire)) {
    if (PollGroup(group) > 0) {
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds < kSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    const int64_t park_start = telemetry::MonotonicNowNs();
    self.waker->Park(kParkTimeout);
    self.park_ns->Record(
        static_cast<uint64_t>(telemetry::MonotonicNowNs() - park_start));
  }
}

Status Engine::StartProcesses(size_t workers) {
  if (!options_.process.enabled) {
    return Status::FailedPrecondition(
        "StartProcesses needs EngineOptions::process.enabled at "
        "construction — inter-node rings must be shm-backed before queries "
        "are added");
  }
  GS_ASSIGN_OR_RETURN(const size_t pool,
                      PlaceWorkers(PumpMode::kProcesses, workers));
  adopted_resync_.store(0, std::memory_order_relaxed);
  if (pool == 0) return Status::Ok();  // everything is LFTA-stage

  // Tracer spans recorded in a child would die with its heap (and the
  // tracer's mutex must not be shared across fork); HFTA nodes run
  // untraced in process mode.
  if (tracer_ != nullptr) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (OwnerOf(i) != kInjectThread) nodes_[i]->SetTracer(nullptr, 0);
    }
  }
  // Shm metrics arena: bind every worker-owned node's counters and
  // histograms into shared fixed slots *before* the fork, so the children
  // inherit cells the parent's registry can read live. Each worker gets a
  // contiguous slot range; its restarted incarnations reset that range
  // under a new epoch and the parent's fold keeps aggregates monotone.
  worker_arena_ranges_.assign(pool, {});
  if (options_.process.metrics_arena_slots > 0) {
    if (metrics_arena_ == nullptr) {
      metrics_shm_ = rts::ShmSegment::Create(telemetry::MetricsArena::
          BytesForSlots(options_.process.metrics_arena_slots));
      metrics_arena_ = std::make_unique<telemetry::MetricsArena>(
          metrics_shm_->data(), metrics_shm_->size());
      telemetry_.Register("engine", metric::kMetricsArenaExhausted,
                          metrics_arena_->exhausted_counter());
    }
    for (size_t w = 0; w < pool; ++w) {
      const size_t begin = metrics_arena_->allocated();
      const std::string proc = "w" + std::to_string(w);
      for (const rts::QueryNode* node : GroupOf(w).nodes) {
        telemetry_.BindEntityToArena(node->name(), metrics_arena_.get(),
                                     proc);
      }
      worker_arena_ranges_[w] = {begin, metrics_arena_->allocated() - begin};
    }
  }
  // Torn-slot fault: arm the producer side of every subscriber ring before
  // forking, so whichever process publishes into the stream inherits the
  // armed flag.
  if (options_.fault.kind == FaultConfig::Kind::kTorn) {
    for (const rts::Subscription& channel :
         registry_.Subscribers(options_.fault.stream)) {
      channel->ArmTornFault(options_.fault.nth);
    }
  }
  supervisor_ = std::make_unique<Supervisor>(
      options_.process.supervisor, pool,
      [this](size_t w, uint32_t generation) {
        WorkerProcessLoop(w, generation);
      });
  if (!process_telemetry_registered_) {
    process_telemetry_registered_ = true;
    telemetry_.RegisterReader("engine", metric::kWorkerRestarts, [this] {
      return supervisor_ != nullptr ? supervisor_->restarts() : 0;
    });
    telemetry_.RegisterReader("engine", metric::kHeartbeatMisses, [this] {
      return supervisor_ != nullptr ? supervisor_->heartbeat_misses() : 0;
    });
    telemetry_.RegisterReader("engine", metric::kWorkersDegraded, [this] {
      return supervisor_ != nullptr ? supervisor_->degraded_count() : 0;
    });
    // Every restart and every degraded-worker adoption opens exactly one
    // punctuation-bounded recovery gap.
    telemetry_.RegisterReader("engine", metric::kResyncGaps, [this] {
      return (supervisor_ != nullptr ? supervisor_->restarts() : 0) +
             adopted_resync_.load(std::memory_order_relaxed);
    });
  }
  return supervisor_->Start();
}

void Engine::StopProcesses() {
  if (!processes_running()) return;
  running_ = false;
  if (supervisor_ == nullptr) return;
  supervisor_->StopAll();
  // The children's operator state died with them; adopt every group with a
  // resync so in-process pumping resumes at a punctuation boundary.
  for (size_t w = 0; w < supervisor_->workers(); ++w) {
    AdoptWorkerNodes(w, /*resync=*/true);
  }
}

void Engine::AdoptWorkerNodes(size_t worker, bool resync) {
  bool adopted = false;
  for (size_t i = 0; i < placement_.size(); ++i) {
    if (placement_[i].owner != worker) continue;
    placement_[i].owner = kInjectThread;
    adopted = true;
    // The inject thread is the node's polling thread now; its metrics rows
    // move under the parent's proc tag. The counters stay arena-bound
    // (single writer again, just a different process), so the fold path
    // still serves the reads.
    telemetry_.SetEntityProc(nodes_[i]->name(), telemetry::kProcRts);
    if (resync) {
      for (const rts::Subscription& input : nodes_[i]->inputs()) {
        input->BeginResync();
      }
    }
  }
  if (adopted && resync) {
    adopted_resync_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Engine::AdoptDegradedWorkers() {
  if (supervisor_ == nullptr || !processes_running()) return;
  for (size_t w = 0; w < supervisor_->workers(); ++w) {
    if (supervisor_->state(w) == Supervisor::WorkerState::kDegraded) {
      AdoptWorkerNodes(w, /*resync=*/true);
    }
  }
}

void Engine::WorkerProcessLoop(size_t worker, uint32_t generation) {
  WorkerControl* ctrl = supervisor_->control(worker);
  const NodeGroup group = GroupOf(worker);
  // A restarted incarnation forked from the parent's pristine operator
  // state: the dead incarnation's partial groups are gone, so discard
  // mid-window input until the next punctuation boundary re-anchors the
  // stream. The ring's read position itself lives in shm and carries over.
  if (generation > 1) {
    // Re-zero this worker's metric slots under the new generation's epoch:
    // the fresh incarnation's counters restart from the fork-time heap
    // values otherwise, and the parent's fold needs the epoch bump to bank
    // the dead incarnation's progress instead of seeing a regression.
    if (metrics_arena_ != nullptr && worker_arena_ranges_[worker].count > 0) {
      metrics_arena_->ResetRange(worker_arena_ranges_[worker].begin,
                                 worker_arena_ranges_[worker].count,
                                 generation);
    }
    for (rts::QueryNode* node : group.nodes) {
      for (const rts::Subscription& input : node->inputs()) {
        input->BeginResync();
      }
    }
  }
  FaultInjector injector(options_.fault, worker, &ctrl->fault_fired);
  uint64_t processed_total =
      ctrl->msgs_processed.load(std::memory_order_relaxed);
  int idle_rounds = 0;
  for (;;) {
    if (injector.MaybeFire(processed_total)) {
      // Stalled by fault injection: alive but silent — no heartbeat, no
      // work, exactly what a hung worker looks like from outside.
      usleep(1000);
      continue;
    }
    ctrl->heartbeat.store(
        ctrl->heartbeat.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    uint64_t arg = 0;
    uint64_t seq = 0;
    switch (Supervisor::PendingCommand(ctrl, &arg, &seq)) {
      case WorkerCommand::kFlushNode:
        if (arg < nodes_.size() && OwnerOf(arg) == worker) {
          nodes_[arg]->Flush();
        }
        Supervisor::Ack(ctrl, seq,
                        DrainWorkerNodes(group, ctrl, &processed_total));
        continue;
      case WorkerCommand::kDrain:
        Supervisor::Ack(ctrl, seq,
                        DrainWorkerNodes(group, ctrl, &processed_total));
        continue;
      case WorkerCommand::kExit:
        Supervisor::Ack(ctrl, seq, 0);
        _exit(0);
      case WorkerCommand::kNone:
        break;
    }
    const size_t progress = PollGroup(group);
    if (progress > 0) {
      processed_total += progress;
      ctrl->msgs_processed.store(processed_total, std::memory_order_relaxed);
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds < 64) {
      std::this_thread::yield();
    } else {
      idle_rounds = 64;  // keep heartbeating at a bounded idle cost
      usleep(200);
    }
  }
}

size_t Engine::DrainWorkerNodes(const NodeGroup& group,
                                WorkerControl* control,
                                uint64_t* processed_total) {
  size_t total = 0;
  for (;;) {
    const size_t round = PollGroup(group);
    // A long drain must not read as a hang.
    control->heartbeat.store(
        control->heartbeat.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    if (round == 0) break;
    total += round;
  }
  *processed_total += total;
  control->msgs_processed.store(*processed_total, std::memory_order_relaxed);
  return total;
}

std::vector<Engine::NodeStats> Engine::GetNodeStats() const {
  std::vector<NodeStats> stats;
  stats.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    stats.push_back({node->name(), node->tuples_in(), node->tuples_out(),
                     node->eval_errors()});
  }
  return stats;
}

}  // namespace gigascope::core
