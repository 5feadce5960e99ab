#include "frontend/pattern.h"

#include <algorithm>
#include <map>
#include <set>

#include "frontend/parser.h"
#include "support/error.h"
#include "support/format.h"

namespace sw::frontend {

namespace {

using poly::AffineExpr;

struct LoopLevel {
  std::string var;
  std::string boundParam;  // loop bound must be a structure parameter
};

/// One assignment statement together with its enclosing loops, in source
/// order.
struct NestedStmt {
  std::vector<LoopLevel> loops;
  const Stmt* assign = nullptr;
};

void collectStmts(const Stmt& stmt, std::vector<LoopLevel>& loops,
                  std::vector<NestedStmt>& out) {
  switch (stmt.kind) {
    case StmtKind::kBlock:
      for (const StmtPtr& s : stmt.stmts) collectStmts(*s, loops, out);
      break;
    case StmtKind::kFor: {
      if (stmt.loopBound->kind != ExprKind::kVariable)
        throwInput(strCat("loop bound of '", stmt.loopVar,
                          "' must be a size parameter"));
      loops.push_back(LoopLevel{stmt.loopVar, stmt.loopBound->name});
      collectStmts(*stmt.body, loops, out);
      loops.pop_back();
      break;
    }
    case StmtKind::kAssign:
      out.push_back(NestedStmt{loops, &stmt});
      break;
  }
}

/// Convert a subscript expression to an affine expression over loop vars
/// and parameters.
AffineExpr toAffine(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kNumber: {
      const double v = expr.number;
      if (v != static_cast<double>(static_cast<std::int64_t>(v)))
        throwInput("array subscripts must be integers");
      return AffineExpr::constant(static_cast<std::int64_t>(v));
    }
    case ExprKind::kVariable:
      return AffineExpr::dim(expr.name);
    case ExprKind::kBinary: {
      if (expr.op == BinaryOp::kAdd)
        return toAffine(*expr.lhs) + toAffine(*expr.rhs);
      if (expr.op == BinaryOp::kSub)
        return toAffine(*expr.lhs) - toAffine(*expr.rhs);
      if (expr.op == BinaryOp::kMul) {
        // One side must be a constant.
        if (expr.lhs->kind == ExprKind::kNumber)
          return toAffine(*expr.rhs) *
                 static_cast<std::int64_t>(expr.lhs->number);
        if (expr.rhs->kind == ExprKind::kNumber)
          return toAffine(*expr.lhs) *
                 static_cast<std::int64_t>(expr.rhs->number);
      }
      throwInput("array subscripts must be affine in the loop variables");
    }
    default:
      throwInput("array subscripts must be affine in the loop variables");
  }
}

/// Gather every array reference in an expression (for access relations).
void collectArrayRefs(const Expr& expr, std::vector<const Expr*>& out) {
  if (expr.kind == ExprKind::kArrayRef) out.push_back(&expr);
  for (const ExprPtr& a : expr.args) collectArrayRefs(*a, out);
  if (expr.lhs) collectArrayRefs(*expr.lhs, out);
  if (expr.rhs) collectArrayRefs(*expr.rhs, out);
}

/// Flatten nested additions into a term list.
void flattenSum(const Expr& expr, std::vector<const Expr*>& terms) {
  if (expr.kind == ExprKind::kBinary && expr.op == BinaryOp::kAdd) {
    flattenSum(*expr.lhs, terms);
    flattenSum(*expr.rhs, terms);
    return;
  }
  terms.push_back(&expr);
}

/// Flatten nested multiplications into a factor list.
void flattenProduct(const Expr& expr, std::vector<const Expr*>& factors) {
  if (expr.kind == ExprKind::kBinary && expr.op == BinaryOp::kMul) {
    flattenProduct(*expr.lhs, factors);
    flattenProduct(*expr.rhs, factors);
    return;
  }
  factors.push_back(&expr);
}

/// True when two array refs are structurally identical.
bool sameRef(const Expr& a, const Expr& b) {
  if (a.kind != ExprKind::kArrayRef || b.kind != ExprKind::kArrayRef)
    return false;
  if (a.name != b.name || a.args.size() != b.args.size()) return false;
  for (std::size_t i = 0; i < a.args.size(); ++i)
    if (!(toAffine(*a.args[i]) == toAffine(*b.args[i]))) return false;
  return true;
}

/// True when the reference's subscripts are exactly the given loop vars.
bool refIs(const Expr& ref, const std::vector<std::string>& vars) {
  if (ref.kind != ExprKind::kArrayRef || ref.args.size() != vars.size())
    return false;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (ref.args[i]->kind != ExprKind::kVariable ||
        ref.args[i]->name != vars[i])
      return false;
  }
  return true;
}

/// Build a poly statement from a nested assignment.
poly::StatementInfo buildStatement(const NestedStmt& nested,
                                   const std::string& name) {
  std::vector<std::string> dims;
  for (const LoopLevel& l : nested.loops) dims.push_back(l.var);
  poly::IntegerSet domain(name, dims);
  for (const LoopLevel& l : nested.loops)
    domain.addRange(l.var, AffineExpr::dim(l.boundParam));

  poly::StatementInfo info{name, domain, {}};
  auto addAccess = [&](const Expr& ref, bool write) {
    std::vector<AffineExpr> subs;
    for (const ExprPtr& s : ref.args) subs.push_back(toAffine(*s));
    info.accesses.push_back(
        poly::AccessRelation{ref.name, poly::AffineMap(dims, subs), write});
  };
  addAccess(*nested.assign->target, /*write=*/true);
  std::vector<const Expr*> reads;
  collectArrayRefs(*nested.assign->value, reads);
  for (const Expr* r : reads) addAccess(*r, /*write=*/false);
  return info;
}

/// Recognised element-wise intrinsic calls.
bool isQuantizeCall(const Expr& expr) {
  return expr.kind == ExprKind::kCall && expr.name == "quantize" &&
         expr.args.size() == 1;
}
bool isReluCall(const Expr& expr) {
  if (expr.kind == ExprKind::kCall && expr.name == "relu" &&
      expr.args.size() == 1)
    return true;
  // fmax(x, 0.0)
  return expr.kind == ExprKind::kCall && expr.name == "fmax" &&
         expr.args.size() == 2 &&
         expr.args[1]->kind == ExprKind::kNumber &&
         expr.args[1]->number == 0.0;
}

}  // namespace

GemmPatternInfo analyzeGemmFunction(const FunctionDecl& function) {
  GemmPatternInfo info;
  info.functionName = function.name;

  std::set<std::string> sizeParams;
  std::set<std::string> scalarParams;
  std::map<std::string, std::vector<std::string>> arrayDims;
  for (const ParamDecl& p : function.params) {
    switch (p.type) {
      case ParamDecl::Type::kLong:
        sizeParams.insert(p.name);
        break;
      case ParamDecl::Type::kDouble:
        scalarParams.insert(p.name);
        break;
      case ParamDecl::Type::kDoubleArray:
        arrayDims[p.name] = p.dims;
        break;
    }
  }

  std::vector<NestedStmt> stmts;
  std::vector<LoopLevel> loops;
  collectStmts(*function.body, loops, stmts);
  if (stmts.empty()) throwInput("the function body contains no statement");

  // --- locate the GEMM accumulation statement ---------------------------
  std::size_t gemmIndex = stmts.size();
  for (std::size_t s = 0; s < stmts.size(); ++s) {
    const NestedStmt& nested = stmts[s];
    if (nested.loops.size() != 3 && nested.loops.size() != 4) continue;
    const bool batched = nested.loops.size() == 4;
    const std::size_t base = batched ? 1 : 0;
    const std::string& iVar = nested.loops[base + 0].var;
    const std::string& jVar = nested.loops[base + 1].var;
    const std::string& kVar = nested.loops[base + 2].var;
    std::vector<std::string> cSubs;
    if (batched) cSubs.push_back(nested.loops[0].var);
    cSubs.insert(cSubs.end(), {iVar, jVar});
    if (!refIs(*nested.assign->target, cSubs)) continue;

    std::vector<const Expr*> terms;
    flattenSum(*nested.assign->value, terms);
    if (terms.size() != 2) continue;
    // One term is C itself, the other the (scaled) product.
    const Expr* cTerm = nullptr;
    const Expr* product = nullptr;
    for (const Expr* t : terms) {
      if (sameRef(*t, *nested.assign->target))
        cTerm = t;
      else
        product = t;
    }
    if (cTerm == nullptr || product == nullptr) continue;

    std::vector<const Expr*> factors;
    flattenProduct(*product, factors);
    const Expr* aRef = nullptr;
    const Expr* bRef = nullptr;
    bool aTransposed = false;
    bool bTransposed = false;
    std::string alphaVar;
    bool malformed = false;
    auto withBatch = [&](std::initializer_list<std::string> subs) {
      std::vector<std::string> result;
      if (batched) result.push_back(nested.loops[0].var);
      result.insert(result.end(), subs);
      return result;
    };
    const auto aSubs = withBatch({iVar, kVar});
    const auto aSubsT = withBatch({kVar, iVar});
    const auto bSubs = withBatch({kVar, jVar});
    const auto bSubsT = withBatch({jVar, kVar});
    for (const Expr* f : factors) {
      if (aRef == nullptr && (refIs(*f, aSubs) || refIs(*f, aSubsT))) {
        aRef = f;
        aTransposed = refIs(*f, aSubsT);
      } else if (bRef == nullptr &&
                 (refIs(*f, bSubs) || refIs(*f, bSubsT))) {
        bRef = f;
        bTransposed = refIs(*f, bSubsT);
      } else if (f->kind == ExprKind::kVariable &&
                 scalarParams.count(f->name) != 0 && alphaVar.empty()) {
        alphaVar = f->name;
      } else {
        malformed = true;
      }
    }
    if (malformed || aRef == nullptr || bRef == nullptr) continue;
    // A[k][i]*B[k][j] is ambiguous with A'[i][k]*B'[k][j] only when i == k
    // extents collide; the subscript match above is exact, so accept.
    info.transposeA = aTransposed;
    info.transposeB = bTransposed;

    info.batched = batched;
    info.arrayA = aRef->name;
    info.arrayB = bRef->name;
    info.arrayC = nested.assign->target->name;
    info.alphaVar = alphaVar;
    if (batched) info.paramBatch = nested.loops[0].boundParam;
    info.paramM = nested.loops[base + 0].boundParam;
    info.paramN = nested.loops[base + 1].boundParam;
    info.paramK = nested.loops[base + 2].boundParam;
    gemmIndex = s;
    break;
  }
  if (gemmIndex == stmts.size())
    throwInput(
        "no GEMM accumulation statement of the form "
        "C[i][j] = C[i][j] + [alpha *] A[i][k] * B[k][j] was found");

  // --- classify the remaining statements --------------------------------
  const std::size_t expectedEwDepth = info.batched ? 3u : 2u;
  for (std::size_t s = 0; s < stmts.size(); ++s) {
    if (s == gemmIndex) continue;
    const NestedStmt& nested = stmts[s];
    const Expr& target = *nested.assign->target;
    const Expr& value = *nested.assign->value;
    if (nested.loops.size() != expectedEwDepth)
      throwInput(strCat("unsupported statement around the GEMM nest "
                        "(expected a ",
                        expectedEwDepth, "-deep element-wise nest)"));

    // Beta scaling: C[i][j] = beta * C[i][j].
    if (s < gemmIndex && target.name == info.arrayC) {
      std::vector<const Expr*> factors;
      flattenProduct(value, factors);
      const Expr* cRef = nullptr;
      std::string betaVar;
      bool ok = factors.size() == 2;
      for (const Expr* f : ok ? factors : std::vector<const Expr*>{}) {
        if (sameRef(*f, target))
          cRef = f;
        else if (f->kind == ExprKind::kVariable &&
                 scalarParams.count(f->name) != 0)
          betaVar = f->name;
      }
      if (cRef == nullptr || betaVar.empty())
        throwInput("unsupported statement writing the output matrix before "
                    "the GEMM nest (expected C[i][j] = beta * C[i][j])");
      info.betaVar = betaVar;
      info.hasBetaScale = true;
      continue;
    }

    // Fused prologue: AQ[i][k] = quantize(SRC[i][k]) before the GEMM,
    // where the GEMM reads AQ.
    if (s < gemmIndex && target.name == info.arrayA &&
        isQuantizeCall(value) &&
        value.args[0]->kind == ExprKind::kArrayRef) {
      info.fusion = FusionPattern::kPrologueQuantize;
      info.arrayA = value.args[0]->name;  // DMA re-reads the original array
      continue;
    }

    // Fused epilogue: C[i][j] = relu(C[i][j]) after the GEMM.
    if (s > gemmIndex && target.name == info.arrayC && isReluCall(value) &&
        value.args[0]->kind == ExprKind::kArrayRef &&
        sameRef(*value.args[0], target)) {
      info.fusion = FusionPattern::kEpilogueRelu;
      continue;
    }

    throwInput(strCat("statement ", s,
                      " does not match any supported GEMM / fusion form"));
  }

  // --- sanity-check declared array shapes --------------------------------
  auto checkDims = [&](const std::string& array,
                       std::vector<std::string> expect) {
    auto it = arrayDims.find(array);
    if (it == arrayDims.end()) return;  // undeclared (pointer style): skip
    if (info.batched) expect.insert(expect.begin(), info.paramBatch);
    if (it->second != expect)
      throwInput(strCat("array '", array,
                        "' is declared with dimensions inconsistent with "
                        "its GEMM role"));
  };
  if (info.transposeB)
    checkDims(info.arrayB, {info.paramN, info.paramK});
  else
    checkDims(info.arrayB, {info.paramK, info.paramN});
  checkDims(info.arrayC, {info.paramM, info.paramN});
  if (info.fusion != FusionPattern::kPrologueQuantize) {
    if (info.transposeA)
      checkDims(info.arrayA, {info.paramK, info.paramM});
    else
      checkDims(info.arrayA, {info.paramM, info.paramK});
  }

  // --- dependence validation (the isl step of §2.2) ----------------------
  std::size_t counter = 0;
  std::string gemmStmtName;
  for (std::size_t s = 0; s < stmts.size(); ++s) {
    std::string name = strCat("S", counter++);
    if (s == gemmIndex) gemmStmtName = name;
    info.statements.push_back(buildStatement(stmts[s], name));
  }
  poly::DependenceAnalysis analysis(info.statements);
  const std::size_t base = info.batched ? 1 : 0;
  for (std::size_t level = 0; level < base + 3; ++level)
    info.coincident.push_back(analysis.isLoopParallel(gemmStmtName, level));
  if (!info.coincident[base + 0] || !info.coincident[base + 1])
    throwInput("the GEMM nest's outer loops are not parallel");
  info.tilable = analysis.isBandPermutable(gemmStmtName, 0, base + 3);
  if (!info.tilable) throwInput("the GEMM nest is not tilable");

  return info;
}

GemmPatternInfo analyzeGemmSource(const std::string& source) {
  return analyzeGemmFunction(parseFunction(source));
}

}  // namespace sw::frontend
