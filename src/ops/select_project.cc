#include "ops/select_project.h"

#include <cstring>

#include "expr/vm.h"
#include "ops/aggregate.h"

namespace gigascope::ops {

using expr::Value;
using gsql::DataType;

namespace {

uint64_t ReadU64Le(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t ReadU32Le(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Mirrors CompareOp over Value::Compare's three-way result.
bool ApplyCompare(expr::ByteOp op, int cmp) {
  switch (op) {
    case expr::ByteOp::kCmpEq: return cmp == 0;
    case expr::ByteOp::kCmpNe: return cmp != 0;
    case expr::ByteOp::kCmpLt: return cmp < 0;
    case expr::ByteOp::kCmpLe: return cmp <= 0;
    case expr::ByteOp::kCmpGt: return cmp > 0;
    case expr::ByteOp::kCmpGe: return cmp >= 0;
    default: return false;
  }
}

template <typename T>
int ThreeWay(T a, T b) {
  // Identical to Value::Compare's cmp3 (NaN compares "equal" for floats).
  return a < b ? -1 : (a > b ? 1 : 0);
}

}  // namespace

SelectProjectNode::SelectProjectNode(Spec spec, rts::Subscription input,
                                     rts::StreamRegistry* registry,
                                     rts::ParamBlock params)
    : QueryNode(spec.name),
      spec_(std::move(spec)),
      input_(std::move(input)),
      registry_(registry),
      params_(std::move(params)),
      input_codec_(spec_.input_schema),
      output_codec_(spec_.output_schema),
      writer_(registry, spec_.name, spec_.output_batch) {
  RegisterInput(input_);
  BuildRawFilter();
  BuildByteProjection();
}

void SelectProjectNode::BuildByteProjection() {
  if (spec_.projections.size() != spec_.output_schema.num_fields()) return;
  std::vector<CopyRange> ranges;
  size_t bytes = 0;
  for (size_t i = 0; i < spec_.projections.size(); ++i) {
    std::optional<size_t> field = expr::PlainFieldLoad(spec_.projections[i]);
    if (!field.has_value() || *field >= spec_.input_schema.num_fields() ||
        spec_.output_schema.field(i).type !=
            spec_.input_schema.field(*field).type) {
      return;
    }
    std::optional<rts::TupleCodec::ByteRange> range =
        input_codec_.CopyableField(*field);
    if (!range.has_value()) return;
    if (!ranges.empty() &&
        ranges.back().offset + ranges.back().width == range->offset) {
      ranges.back().width += range->width;
    } else {
      ranges.push_back(*range);
    }
    bytes += range->width;
  }
  byte_projection_ = true;
  copy_ranges_ = std::move(ranges);
  copy_bytes_ = bytes;
}

void SelectProjectNode::BuildRawFilter() {
  if (!spec_.predicate.has_value()) return;
  auto terms = expr::MatchFilterTerms(*spec_.predicate);
  if (!terms.has_value()) return;
  std::vector<RawTerm> raw;
  size_t min_payload = 0;
  for (const expr::FilterTerm& term : *terms) {
    if (term.field >= spec_.input_schema.num_fields()) return;
    const DataType type = spec_.input_schema.field(term.field).type;
    // Same-type comparison only: that is what the VM executes (compiled
    // predicates insert casts otherwise, and those bytecodes don't match).
    if (term.constant.type() != type) return;
    std::optional<size_t> offset = input_codec_.FixedFieldOffset(term.field);
    std::optional<size_t> width = rts::TupleCodec::FixedTypeWidth(type);
    if (!offset.has_value() || !width.has_value()) return;
    RawTerm rt;
    rt.offset = *offset;
    rt.type = type;
    rt.cmp = term.cmp;
    switch (type) {
      case DataType::kUint: rt.u = term.constant.uint_value(); break;
      case DataType::kIp: rt.u = term.constant.ip_value(); break;
      case DataType::kBool: rt.u = term.constant.bool_value() ? 1 : 0; break;
      case DataType::kInt: rt.i = term.constant.int_value(); break;
      case DataType::kFloat: rt.f = term.constant.float_value(); break;
      case DataType::kString: return;  // unreachable (no fixed width)
    }
    min_payload = std::max(min_payload, *offset + *width);
    raw.push_back(rt);
  }
  raw_terms_ = std::move(raw);
  raw_min_payload_ = min_payload;
}

bool SelectProjectNode::RawFilterPass(const ByteBuffer& payload) const {
  const uint8_t* data = payload.data();
  for (const RawTerm& term : raw_terms_) {
    int cmp = 0;
    switch (term.type) {
      case DataType::kUint:
        cmp = ThreeWay(ReadU64Le(data + term.offset), term.u);
        break;
      case DataType::kIp:
        cmp = ThreeWay<uint64_t>(ReadU32Le(data + term.offset), term.u);
        break;
      case DataType::kBool:
        cmp = ThreeWay<uint64_t>(data[term.offset] != 0 ? 1 : 0, term.u);
        break;
      case DataType::kInt:
        cmp = ThreeWay(static_cast<int64_t>(ReadU64Le(data + term.offset)),
                       term.i);
        break;
      case DataType::kFloat: {
        uint64_t bits = ReadU64Le(data + term.offset);
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        cmp = ThreeWay(v, term.f);
        break;
      }
      case DataType::kString:
        return false;  // never built
    }
    if (!ApplyCompare(term.cmp, cmp)) return false;
  }
  return true;
}

size_t SelectProjectNode::Poll(size_t budget) {
  size_t processed = 0;
  rts::StreamBatch batch;
  // Batch-at-a-time: one pop per ring slot, then a tight loop over its
  // messages. The budget may overshoot by at most one batch (a batch is
  // never split across polls).
  while (processed < budget && input_->TryPop(&batch)) {
    for (rts::StreamMessage& message : batch.items) {
      ++processed;
      if (message.kind == rts::StreamMessage::Kind::kTuple) {
        const bool raw = !raw_terms_.empty() &&
                         message.payload.size() >= raw_min_payload_;
        // Columnar fast path: the whole predicate runs on packed bytes;
        // rejected tuples are never decoded.
        if (raw && !RawFilterPass(message.payload)) {
          ++tuples_in_;
          if (message.trace_id != 0) {
            BeginMessage(message);
            EndMessage();
          }
          continue;
        }
        const bool passed = raw || !spec_.predicate.has_value();
        BeginMessage(message);
        // A tuple Decode would reject takes the general path, which counts
        // it as an evaluation error.
        if (passed && byte_projection_ &&
            input_codec_.WellFormed(
                ByteSpan(message.payload.data(), message.payload.size()))) {
          CopyProjectTuple(message.payload);
        } else {
          ProcessTuple(message.payload, /*predicate_checked=*/raw);
        }
        EndMessage();
      } else {
        BeginMessage(message);
        ProcessPunctuation(message.payload);
        EndMessage();
      }
    }
  }
  writer_.Flush();
  return processed;
}

void SelectProjectNode::ProcessTuple(const ByteBuffer& payload,
                                     bool predicate_checked) {
  ++tuples_in_;
  auto row = input_codec_.Decode(ByteSpan(payload.data(), payload.size()));
  if (!row.ok()) {
    ++eval_errors_;
    return;
  }
  expr::EvalContext ctx;
  ctx.row0 = &row.value();
  ctx.params = params_.get();

  if (!predicate_checked && spec_.predicate.has_value()) {
    expr::EvalOutput predicate_result;
    Status status = vm_.Eval(*spec_.predicate, ctx, &predicate_result);
    if (!status.ok()) {
      ++eval_errors_;
      return;
    }
    // Partial-function miss or false: tuple discarded (§2.2).
    if (!predicate_result.has_value ||
        !predicate_result.value.bool_value()) {
      return;
    }
  }

  rts::Row out_row;
  out_row.reserve(spec_.projections.size());
  for (const expr::CompiledExpr& projection : spec_.projections) {
    expr::EvalOutput out;
    Status status = vm_.Eval(projection, ctx, &out);
    if (!status.ok()) {
      ++eval_errors_;
      return;
    }
    if (!out.has_value) return;  // partial miss anywhere discards the tuple
    out_row.push_back(std::move(out.value));
  }

  ByteBuffer out;
  output_codec_.Encode(out_row, &out);
  EmitTuple(std::move(out));
}

void SelectProjectNode::CopyProjectTuple(const ByteBuffer& payload) {
  ++tuples_in_;
  ByteBuffer out(copy_bytes_);
  uint8_t* p = out.data();
  for (const CopyRange& range : copy_ranges_) {
    std::memcpy(p, payload.data() + range.offset, range.width);
    p += range.width;
  }
  EmitTuple(std::move(out));
}

void SelectProjectNode::EmitTuple(ByteBuffer payload) {
  rts::StreamMessage out_message;
  out_message.kind = rts::StreamMessage::Kind::kTuple;
  out_message.weight = active_weight();  // sampling weight rides through
  out_message.payload = std::move(payload);
  StampOutput(&out_message);
  writer_.Write(std::move(out_message));
  ++tuples_out_;
}

void SelectProjectNode::ProcessPunctuation(const ByteBuffer& payload) {
  auto punctuation = rts::DecodePunctuation(
      ByteSpan(payload.data(), payload.size()), spec_.input_schema);
  if (!punctuation.ok()) return;

  rts::Punctuation out;
  for (size_t i = 0; i < spec_.projections.size(); ++i) {
    int source = spec_.punctuation_source[i];
    if (source < 0) continue;
    auto bound = punctuation->BoundFor(static_cast<size_t>(source));
    if (!bound.has_value()) continue;
    // The projection provably depends on the bounded field alone and
    // preserves order, so its value at the bound bounds the output field.
    std::optional<Value> mapped =
        TranslateBound(&vm_, spec_.projections[i], spec_.input_schema,
                       static_cast<size_t>(source), *bound, params_.get());
    if (mapped.has_value()) out.bounds.emplace_back(i, std::move(*mapped));
  }
  if (out.bounds.empty()) return;
  rts::StreamMessage out_message =
      rts::MakePunctuationMessage(out, spec_.output_schema);
  // Forwarded punctuation keeps the trace context so downstream
  // punctuation-driven group closes stay attributed to the traced packet.
  StampOutput(&out_message);
  writer_.Write(std::move(out_message));
}

}  // namespace gigascope::ops
