#ifndef GIGASCOPE_OPS_SELECT_PROJECT_H_
#define GIGASCOPE_OPS_SELECT_PROJECT_H_

#include <optional>
#include <string>
#include <vector>

#include "expr/codegen.h"
#include "expr/vm.h"
#include "rts/node.h"
#include "rts/punctuation.h"
#include "rts/tuple.h"

namespace gigascope::ops {

/// Selection + projection: the stateless workhorse of both LFTAs and HFTAs.
///
/// Drops tuples that fail the predicate, fail evaluation (runtime error),
/// or hit a partial-function miss; computes one output field per compiled
/// projection. Punctuations pass through: a bound on an input field maps to
/// a bound on every output field whose projection is an order-preserving
/// function of exactly that field (e.g. `time/60`).
///
/// Polls a whole StreamBatch at a time and emits through a BatchWriter.
/// When the predicate is a conjunction of `field <cmp> constant` terms over
/// fixed-offset fields (the dominant LFTA filter shape), it is evaluated
/// columnar-style straight off the packed tuple bytes: rejected tuples —
/// the vast majority on a selective filter — never get decoded. When every
/// projection is a plain load of a fixed-offset, non-BOOL input field of
/// the output field's type (`SELECT time, destIP, destPort`), a passing,
/// well-formed tuple is projected as byte-range copies: no decode, no VM,
/// no re-encode. Anything else, malformed payloads included, takes the
/// general path, so the counters and output bytes are the same either way.
class SelectProjectNode : public rts::QueryNode {
 public:
  struct Spec {
    std::string name;                       // node/output stream name
    gsql::StreamSchema input_schema;
    gsql::StreamSchema output_schema;
    std::optional<expr::CompiledExpr> predicate;
    std::vector<expr::CompiledExpr> projections;
    /// For punctuation mapping: the single input field each projection
    /// depends on, or -1 when it depends on zero or several fields or is
    /// not order-preserving.
    std::vector<int> punctuation_source;
    /// Upper bound on messages per published output batch.
    size_t output_batch = 64;
  };

  SelectProjectNode(Spec spec, rts::Subscription input,
                    rts::StreamRegistry* registry, rts::ParamBlock params);

  size_t Poll(size_t budget) override;

  /// Whether the predicate compiled to the raw byte-comparing fast path
  /// (introspection for tests and EXPLAIN).
  bool has_raw_filter() const { return !raw_terms_.empty(); }

  /// Whether passing tuples are projected as byte copies.
  bool has_byte_projection() const { return byte_projection_; }

 private:
  /// One predicate conjunct evaluated on packed bytes: the field at a
  /// fixed offset compared against a pre-extracted constant.
  struct RawTerm {
    size_t offset = 0;
    gsql::DataType type = gsql::DataType::kUint;
    expr::ByteOp cmp = expr::ByteOp::kCmpEq;
    uint64_t u = 0;  // kUint/kIp/kBool constant
    int64_t i = 0;   // kInt constant
    double f = 0;    // kFloat constant
  };

  /// One run of input bytes a byte-copy projection emits verbatim.
  using CopyRange = rts::TupleCodec::ByteRange;

  void BuildRawFilter();
  void BuildByteProjection();
  bool RawFilterPass(const ByteBuffer& payload) const;
  void ProcessTuple(const ByteBuffer& payload, bool predicate_checked);
  void CopyProjectTuple(const ByteBuffer& payload);
  void EmitTuple(ByteBuffer payload);
  void ProcessPunctuation(const ByteBuffer& payload);

  Spec spec_;
  rts::Subscription input_;
  rts::StreamRegistry* registry_;
  rts::ParamBlock params_;
  rts::TupleCodec input_codec_;
  rts::TupleCodec output_codec_;
  rts::BatchWriter writer_;
  expr::Evaluator vm_;
  std::vector<RawTerm> raw_terms_;  // empty: use the general VM
  size_t raw_min_payload_ = 0;      // shorter payloads take the slow path
  bool byte_projection_ = false;
  std::vector<CopyRange> copy_ranges_;  // adjacent loads merged
  size_t copy_bytes_ = 0;               // packed output tuple size
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_SELECT_PROJECT_H_
