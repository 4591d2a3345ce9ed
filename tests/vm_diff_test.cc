// Differential check of the expression VM against itself over hostile
// values: a seeded corpus of random arithmetic/comparison expressions is
// evaluated over adversarial rows (INT64_MIN and INT64_MAX, zero divisors,
// NaNs with assorted sign and payload bits, magnitudes that overflow on
// multiply). Every evaluation must yield a value or an error status, and an
// operator's reused Evaluator (persistent stack) must agree with the free
// Eval byte for byte, error messages included.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "expr/fold.h"
#include "expr/typecheck.h"
#include "expr/vm.h"
#include "gsql/parser.h"
#include "udf/registry.h"

namespace gigascope {
namespace {

gsql::StreamSchema VmTestSchema() {
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"t", gsql::DataType::kUint,
                    gsql::OrderSpec::Increasing()});
  fields.push_back({"i", gsql::DataType::kInt, gsql::OrderSpec::None()});
  fields.push_back({"f", gsql::DataType::kFloat, gsql::OrderSpec::None()});
  fields.push_back({"b", gsql::DataType::kBool, gsql::OrderSpec::None()});
  return gsql::StreamSchema("T", gsql::StreamKind::kStream, fields);
}

Result<expr::CompiledExpr> TryCompileExpr(const std::string& expression) {
  gsql::Catalog catalog;
  catalog.PutStreamSchema(VmTestSchema());
  auto stmt = gsql::ParseStatement("SELECT " + expression + " FROM T");
  GS_RETURN_IF_ERROR(stmt.status());
  auto* select = std::get_if<gsql::SelectStmt>(&stmt.value());
  auto resolved = gsql::AnalyzeSelect(*select, catalog);
  GS_RETURN_IF_ERROR(resolved.status());
  expr::TypeCheckContext ctx;
  ctx.resolver = udf::FunctionRegistry::Default();
  ctx.inputs = {VmTestSchema()};
  ctx.bindings = &resolved->bindings;
  GS_ASSIGN_OR_RETURN(expr::IrPtr ir,
                      expr::TypeCheck(resolved->stmt.items[0].expr, ctx));
  return expr::Compile(expr::FoldConstants(ir), {});
}

/// Leaves are the numeric fields and small literals; interior nodes are the
/// five arithmetic operators, so the corpus hits promotion casts (t + i,
/// i + f), wraparound, and the division/modulo error paths.
std::string GenNumeric(Rng& rng, int depth) {
  if (depth <= 0 || rng.NextBelow(3) == 0) {
    switch (rng.NextBelow(6)) {
      case 0: return "t";
      case 1: return "i";
      case 2: return "f";
      case 3: return std::to_string(rng.NextBelow(100));
      case 4: return "(0 - " + std::to_string(rng.NextBelow(100)) + ")";
      default: return std::to_string(rng.NextBelow(8)) + ".5";
    }
  }
  static const char* kOps[] = {"+", "-", "*", "/", "%"};
  const char* op = kOps[rng.NextBelow(5)];
  return "(" + GenNumeric(rng, depth - 1) + " " + op + " " +
         GenNumeric(rng, depth - 1) + ")";
}

std::string GenBool(Rng& rng, int depth) {
  if (depth <= 0 || rng.NextBelow(3) == 0) {
    static const char* kCmps[] = {"=", "<>", "<", "<=", ">", ">="};
    const char* cmp = kCmps[rng.NextBelow(6)];
    return "(" + GenNumeric(rng, 1) + " " + cmp + " " + GenNumeric(rng, 1) +
           ")";
  }
  const char* op = rng.NextBool(0.5) ? "AND" : "OR";
  return "(" + GenBool(rng, depth - 1) + " " + op + " " +
         GenBool(rng, depth - 1) + ")";
}

expr::Value GenUint(Rng& rng) {
  switch (rng.NextBelow(5)) {
    case 0: return expr::Value::Uint(0);
    case 1: return expr::Value::Uint(1);
    case 2: return expr::Value::Uint(UINT64_MAX);
    case 3: return expr::Value::Uint(rng.NextBelow(1000));
    default: return expr::Value::Uint(rng.Next());
  }
}

expr::Value GenInt(Rng& rng) {
  switch (rng.NextBelow(6)) {
    case 0: return expr::Value::Int(0);
    case 1: return expr::Value::Int(-1);
    case 2: return expr::Value::Int(INT64_MIN);
    case 3: return expr::Value::Int(INT64_MAX);
    case 4: return expr::Value::Int(int64_t(rng.NextBelow(200)) - 100);
    default: return expr::Value::Int(static_cast<int64_t>(rng.Next()));
  }
}

expr::Value GenFloat(Rng& rng) {
  switch (rng.NextBelow(8)) {
    case 0: return expr::Value::Float(0.0);
    case 1: return expr::Value::Float(-1.5);
    case 2: return expr::Value::Float(1e300);
    case 3: return expr::Value::Float(-1e300);
    case 4: return expr::Value::Float(std::nan(""));
    case 5: {
      // Negative, payload-carrying and signalling NaN bit patterns.
      static const uint64_t kNanBits[] = {0xfff8000000000000ull,
                                          0x7ff8000000000001ull,
                                          0x7ff0000000000001ull};
      return expr::Value::Float(
          std::bit_cast<double>(kNanBits[rng.NextBelow(3)]));
    }
    case 6: return expr::Value::Float(9.3e18);  // just past INT64_MAX
    default: return expr::Value::Float(rng.NextDouble() * 1000.0 - 500.0);
  }
}

/// Bit-exact value equality: floats compare by representation (so both-NaN
/// passes and -0.0 vs 0.0 fails), everything else through Value::Compare.
bool BitEqual(const expr::Value& a, const expr::Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == gsql::DataType::kFloat) {
    double da = a.float_value(), db = b.float_value();
    return std::memcmp(&da, &db, sizeof(da)) == 0;
  }
  return a.Compare(b) == 0;
}

TEST(VmHostileValues, RandomExpressionsEvaluateCleanlyAndConsistently) {
  Rng rng(0x9e3779b97f4a7c15ull);
  constexpr int kExpressions = 160;
  constexpr int kRowsPerExpr = 24;

  std::vector<std::string> texts;
  std::vector<expr::CompiledExpr> exprs;
  for (int n = 0; n < kExpressions; ++n) {
    std::string text = rng.NextBool(0.3) ? GenBool(rng, 2)
                                         : GenNumeric(rng, 3);
    auto compiled = TryCompileExpr(text);
    if (!compiled.ok()) continue;  // e.g. float modulo: rejected at typecheck
    texts.push_back(text);
    exprs.push_back(std::move(compiled).value());
  }
  ASSERT_GE(exprs.size(), 40u) << "grammar generates too few valid exprs";

  // One evaluator across the whole corpus, as an operator keeps one: its
  // stack is reused between expressions of different depths and after
  // errors that abandon a half-evaluated stack.
  expr::Evaluator evaluator;
  size_t error_cases = 0;
  for (size_t k = 0; k < exprs.size(); ++k) {
    const expr::CompiledExpr& compiled = exprs[k];
    for (int r = 0; r < kRowsPerExpr; ++r) {
      std::vector<expr::Value> row = {GenUint(rng), GenInt(rng),
                                      GenFloat(rng),
                                      expr::Value::Bool(rng.NextBool(0.5))};
      expr::EvalContext ctx;
      ctx.row0 = &row;
      expr::EvalOutput fresh_out, reused_out;
      Status fresh = expr::Eval(compiled, ctx, &fresh_out);
      Status reused = evaluator.Eval(compiled, ctx, &reused_out);
      const std::string what =
          texts[k] + " on row {" + row[0].ToString() + ", " +
          row[1].ToString() + ", " + row[2].ToString() + ", " +
          row[3].ToString() + "}";
      if (fresh.ok()) {
        ASSERT_TRUE(fresh_out.has_value) << what;
        EXPECT_EQ(fresh_out.value.type(), compiled.result_type) << what;
      } else {
        ++error_cases;
        EXPECT_FALSE(fresh.message().empty()) << what;
      }
      ASSERT_EQ(fresh.ok(), reused.ok()) << what;
      if (!fresh.ok()) {
        EXPECT_EQ(reused.message(), fresh.message()) << what;
        continue;
      }
      ASSERT_EQ(reused_out.has_value, fresh_out.has_value) << what;
      EXPECT_TRUE(BitEqual(reused_out.value, fresh_out.value))
          << what << ": fresh=" << fresh_out.value.ToString()
          << " reused=" << reused_out.value.ToString();
    }
  }
  // The corpus must reach the runtime-error paths, not only clean values.
  EXPECT_GE(error_cases, 1u);
}

}  // namespace
}  // namespace gigascope
