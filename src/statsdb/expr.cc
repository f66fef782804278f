#include "statsdb/expr.h"

#include <cmath>

#include "statsdb/batch.h"
#include "util/strings.h"

namespace ff {
namespace statsdb {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kLike:
      return "LIKE";
  }
  return "?";
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard match with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}

// ------------------------------------------------------ scalar semantics
//
// The single source of truth for operator behavior. Expr::Eval and the
// vectorized kernels in EvalBatch both bottom out here (the kernels only
// fast-path cases whose outcome provably matches these functions).

util::StatusOr<Value> ApplyUnaryScalar(UnaryOp op, const Value& v) {
  switch (op) {
    case UnaryOp::kIsNull:
      return Value::Bool(v.is_null());
    case UnaryOp::kIsNotNull:
      return Value::Bool(!v.is_null());
    case UnaryOp::kNot: {
      if (v.is_null()) return Value::Null();
      if (v.type() != DataType::kBool) {
        return util::Status::InvalidArgument("NOT requires bool");
      }
      return Value::Bool(!v.bool_value());
    }
    case UnaryOp::kNeg: {
      if (v.is_null()) return Value::Null();
      if (v.type() == DataType::kInt64) {
        return Value::Int64(-v.int64_value());
      }
      if (v.type() == DataType::kDouble) {
        return Value::Double(-v.double_value());
      }
      return util::Status::InvalidArgument("negation requires numeric");
    }
  }
  return util::Status::Internal("unhandled unary op");
}

util::StatusOr<Value> ApplyComparison(BinaryOp op, const Value& a,
                                      const Value& b) {
  bool comparable = a.type() == b.type() ||
                    (IsNumeric(a.type()) && IsNumeric(b.type()));
  if (!comparable) {
    return util::Status::InvalidArgument(
        util::StrFormat("cannot compare %s with %s",
                        DataTypeName(a.type()), DataTypeName(b.type())));
  }
  int c = a.Compare(b);
  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(c == 0);
    case BinaryOp::kNe:
      return Value::Bool(c != 0);
    case BinaryOp::kLt:
      return Value::Bool(c < 0);
    case BinaryOp::kLe:
      return Value::Bool(c <= 0);
    case BinaryOp::kGt:
      return Value::Bool(c > 0);
    case BinaryOp::kGe:
      return Value::Bool(c >= 0);
    default:
      return util::Status::Internal("not a comparison");
  }
}

util::StatusOr<Value> ApplyArithmetic(BinaryOp op, const Value& a,
                                      const Value& b) {
  if (!IsNumeric(a.type()) || !IsNumeric(b.type())) {
    return util::Status::InvalidArgument("arithmetic requires numeric");
  }
  bool both_int = a.type() == DataType::kInt64 &&
                  b.type() == DataType::kInt64 && op != BinaryOp::kDiv;
  if (both_int) {
    int64_t x = a.int64_value(), y = b.int64_value();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Int64(x + y);
      case BinaryOp::kSub:
        return Value::Int64(x - y);
      case BinaryOp::kMul:
        return Value::Int64(x * y);
      case BinaryOp::kMod:
        if (y == 0) {
          return util::Status::InvalidArgument("modulo by zero");
        }
        return Value::Int64(x % y);
      default:
        break;
    }
  }
  double x = *a.AsDouble(), y = *b.AsDouble();
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Double(x + y);
    case BinaryOp::kSub:
      return Value::Double(x - y);
    case BinaryOp::kMul:
      return Value::Double(x * y);
    case BinaryOp::kDiv:
      if (y == 0.0) {
        return util::Status::InvalidArgument("division by zero");
      }
      return Value::Double(x / y);
    case BinaryOp::kMod:
      if (y == 0.0) {
        return util::Status::InvalidArgument("modulo by zero");
      }
      return Value::Double(std::fmod(x, y));
    default:
      return util::Status::Internal("not arithmetic");
  }
}

/// Non-logical binary ops: NULL propagation, then dispatch.
util::StatusOr<Value> ApplyBinaryScalar(BinaryOp op, const Value& a,
                                        const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return ApplyComparison(op, a, b);
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return ApplyArithmetic(op, a, b);
    case BinaryOp::kLike: {
      if (a.type() != DataType::kString ||
          b.type() != DataType::kString) {
        return util::Status::InvalidArgument("LIKE requires strings");
      }
      return Value::Bool(LikeMatch(a.string_value(), b.string_value()));
    }
    default:
      return util::Status::Internal("unhandled binary op");
  }
}

/// Kleene AND/OR over already-evaluated operands (both sides are always
/// evaluated; there is deliberately no short-circuit, so data-dependent
/// evaluation errors surface identically everywhere).
util::StatusOr<Value> ApplyLogicalScalar(BinaryOp op, const Value& a,
                                         const Value& b) {
  auto as_tri = [](const Value& v) -> util::StatusOr<int> {
    if (v.is_null()) return -1;  // unknown
    if (v.type() != DataType::kBool) {
      return util::Status::InvalidArgument("AND/OR require bool");
    }
    return v.bool_value() ? 1 : 0;
  };
  FF_ASSIGN_OR_RETURN(int ta, as_tri(a));
  FF_ASSIGN_OR_RETURN(int tb, as_tri(b));
  if (op == BinaryOp::kAnd) {
    if (ta == 0 || tb == 0) return Value::Bool(false);
    if (ta == -1 || tb == -1) return Value::Null();
    return Value::Bool(true);
  }
  // OR
  if (ta == 1 || tb == 1) return Value::Bool(true);
  if (ta == -1 || tb == -1) return Value::Null();
  return Value::Bool(false);
}

// ------------------------------------------------------------ expr nodes

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}

  util::StatusOr<Value> Eval(const Row&, const Schema&) const override {
    return value_;
  }
  util::StatusOr<DataType> ResultType(const Schema&) const override {
    return value_.type();
  }
  std::string ToString() const override {
    if (value_.type() == DataType::kString) {
      return "'" + value_.ToString() + "'";
    }
    if (value_.is_null()) return "NULL";
    return value_.ToString();
  }
  Kind kind() const override { return Kind::kLiteral; }
  const Value* literal() const override { return &value_; }

 private:
  Value value_;
};

class ColumnExpr : public Expr {
 public:
  explicit ColumnExpr(std::string name) : name_(std::move(name)) {}

  util::StatusOr<Value> Eval(const Row& row,
                             const Schema& schema) const override {
    FF_ASSIGN_OR_RETURN(size_t i, schema.IndexOf(name_));
    return row[i];
  }
  util::StatusOr<DataType> ResultType(const Schema& schema) const override {
    FF_ASSIGN_OR_RETURN(size_t i, schema.IndexOf(name_));
    return schema.column(i).type;
  }
  std::string ToString() const override { return name_; }
  Kind kind() const override { return Kind::kColumn; }
  const std::string* column() const override { return &name_; }

 private:
  std::string name_;
};

class ParamExpr : public Expr {
 public:
  ParamExpr(size_t index, std::shared_ptr<const ParamSlot> slot)
      : index_(index), slot_(std::move(slot)) {}

  util::StatusOr<Value> Eval(const Row&, const Schema&) const override {
    if (!slot_->bound) {
      return util::Status::InvalidArgument("parameter " + ToString() +
                                           " is unbound");
    }
    return slot_->value;
  }
  util::StatusOr<DataType> ResultType(const Schema&) const override {
    // Unbound parameters type as NULL; planning happens before binding
    // and must not reject a statement whose types are fine once bound.
    return slot_->bound ? slot_->value.type() : DataType::kNull;
  }
  std::string ToString() const override {
    return "?" + std::to_string(index_ + 1);
  }
  Kind kind() const override { return Kind::kParam; }
  const Value* literal() const override {
    return slot_->bound ? &slot_->value : nullptr;
  }

 private:
  size_t index_;
  std::shared_ptr<const ParamSlot> slot_;
};

class UnaryExpr : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : op_(op), operand_(std::move(operand)) {}

  util::StatusOr<Value> Eval(const Row& row,
                             const Schema& schema) const override {
    FF_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, schema));
    return ApplyUnaryScalar(op_, v);
  }

  util::StatusOr<DataType> ResultType(const Schema& schema) const override {
    FF_ASSIGN_OR_RETURN(DataType t, operand_->ResultType(schema));
    switch (op_) {
      case UnaryOp::kIsNull:
      case UnaryOp::kIsNotNull:
        return DataType::kBool;
      case UnaryOp::kNot:
        if (t != DataType::kBool && t != DataType::kNull) {
          return util::Status::InvalidArgument("NOT requires bool");
        }
        return DataType::kBool;
      case UnaryOp::kNeg:
        if (!IsNumeric(t) && t != DataType::kNull) {
          return util::Status::InvalidArgument("negation requires numeric");
        }
        return t;
    }
    return util::Status::Internal("unhandled unary op");
  }

  std::string ToString() const override {
    switch (op_) {
      case UnaryOp::kIsNull:
        return "(" + operand_->ToString() + " IS NULL)";
      case UnaryOp::kIsNotNull:
        return "(" + operand_->ToString() + " IS NOT NULL)";
      case UnaryOp::kNot:
        return "(NOT " + operand_->ToString() + ")";
      case UnaryOp::kNeg:
        return "(-" + operand_->ToString() + ")";
    }
    return "?";
  }

  Kind kind() const override { return Kind::kUnary; }
  ExprPtr child(size_t i) const override {
    return i == 0 ? operand_ : nullptr;
  }
  size_t num_children() const override { return 1; }
  UnaryOp unary_op() const override { return op_; }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  util::StatusOr<Value> Eval(const Row& row,
                             const Schema& schema) const override {
    FF_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
    FF_ASSIGN_OR_RETURN(Value b, rhs_->Eval(row, schema));
    // Kleene AND/OR must not fail just because one side is NULL.
    if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
      return ApplyLogicalScalar(op_, a, b);
    }
    return ApplyBinaryScalar(op_, a, b);
  }

  util::StatusOr<DataType> ResultType(const Schema& schema) const override {
    FF_ASSIGN_OR_RETURN(DataType ta, lhs_->ResultType(schema));
    FF_ASSIGN_OR_RETURN(DataType tb, rhs_->ResultType(schema));
    auto type_ok = [&](auto pred) {
      return (pred(ta) || ta == DataType::kNull) &&
             (pred(tb) || tb == DataType::kNull);
    };
    switch (op_) {
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        bool comparable =
            ta == DataType::kNull || tb == DataType::kNull || ta == tb ||
            (IsNumeric(ta) && IsNumeric(tb));
        if (!comparable) {
          return util::Status::InvalidArgument(
              util::StrFormat("cannot compare %s with %s",
                              DataTypeName(ta), DataTypeName(tb)));
        }
        return DataType::kBool;
      }
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kMod:
        if (!type_ok(IsNumeric)) {
          return util::Status::InvalidArgument("arithmetic requires numeric");
        }
        if (ta == DataType::kDouble || tb == DataType::kDouble) {
          return DataType::kDouble;
        }
        return DataType::kInt64;
      case BinaryOp::kDiv:
        if (!type_ok(IsNumeric)) {
          return util::Status::InvalidArgument("arithmetic requires numeric");
        }
        return DataType::kDouble;  // SQL-ish: '/' always returns double here
      case BinaryOp::kAnd:
      case BinaryOp::kOr:
        if (!type_ok([](DataType t) { return t == DataType::kBool; })) {
          return util::Status::InvalidArgument("AND/OR require bool");
        }
        return DataType::kBool;
      case BinaryOp::kLike:
        if (!type_ok([](DataType t) { return t == DataType::kString; })) {
          return util::Status::InvalidArgument("LIKE requires strings");
        }
        return DataType::kBool;
    }
    return util::Status::Internal("unhandled binary op");
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + BinaryOpName(op_) + " " +
           rhs_->ToString() + ")";
  }

  Kind kind() const override { return Kind::kBinary; }
  ExprPtr child(size_t i) const override {
    if (i == 0) return lhs_;
    if (i == 1) return rhs_;
    return nullptr;
  }
  size_t num_children() const override { return 2; }
  BinaryOp binary_op() const override { return op_; }

 private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

}  // namespace

ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr LitInt(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr LitDouble(double v) { return Lit(Value::Double(v)); }
ExprPtr LitString(std::string v) { return Lit(Value::String(std::move(v))); }
ExprPtr LitBool(bool v) { return Lit(Value::Bool(v)); }
ExprPtr LitNull() { return Lit(Value::Null()); }
ExprPtr Col(std::string name) {
  return std::make_shared<ColumnExpr>(std::move(name));
}
ExprPtr Unary(UnaryOp op, ExprPtr operand) {
  return std::make_shared<UnaryExpr>(op, std::move(operand));
}
ExprPtr Param(size_t index, std::shared_ptr<const ParamSlot> slot) {
  return std::make_shared<ParamExpr>(index, std::move(slot));
}
ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<BinaryExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kEq, std::move(a), std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kNe, std::move(a), std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kLt, std::move(a), std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kLe, std::move(a), std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kGt, std::move(a), std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kGe, std::move(a), std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kAnd, std::move(a), std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kOr, std::move(a), std::move(b));
}
ExprPtr Not(ExprPtr a) { return Unary(UnaryOp::kNot, std::move(a)); }
ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kMul, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kDiv, std::move(a), std::move(b));
}
ExprPtr Like(ExprPtr a, ExprPtr pattern) {
  return Binary(BinaryOp::kLike, std::move(a), std::move(pattern));
}
ExprPtr IsNull(ExprPtr a) { return Unary(UnaryOp::kIsNull, std::move(a)); }
ExprPtr IsNotNull(ExprPtr a) {
  return Unary(UnaryOp::kIsNotNull, std::move(a));
}

ExprPtr In(ExprPtr a, std::vector<ExprPtr> candidates) {
  if (candidates.empty()) return LitBool(false);
  ExprPtr out = Eq(a, std::move(candidates[0]));
  for (size_t i = 1; i < candidates.size(); ++i) {
    out = Or(std::move(out), Eq(a, std::move(candidates[i])));
  }
  return out;
}

ExprPtr Between(ExprPtr a, ExprPtr lo, ExprPtr hi) {
  return And(Le(std::move(lo), a), Le(a, std::move(hi)));
}

// ----------------------------------------------------- plan-time helpers

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind() == Expr::Kind::kBinary &&
      e->binary_op() == BinaryOp::kAnd) {
    SplitConjuncts(e->child(0), out);
    SplitConjuncts(e->child(1), out);
    return;
  }
  out->push_back(e);
}

ExprPtr AndFold(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const auto& c : conjuncts) {
    out = out == nullptr ? c : And(out, c);
  }
  return out;
}

void CollectColumns(const Expr& e, std::vector<std::string>* out) {
  if (e.kind() == Expr::Kind::kColumn) {
    out->push_back(*e.column());
    return;
  }
  for (size_t i = 0; i < e.num_children(); ++i) {
    CollectColumns(*e.child(i), out);
  }
}

ExprPtr RewriteColumns(
    const ExprPtr& e,
    const std::function<std::string(const std::string&)>& rename) {
  switch (e->kind()) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kParam:
      return e;  // params keep their shared slot through the rewrite
    case Expr::Kind::kColumn:
      return Col(rename(*e->column()));
    case Expr::Kind::kUnary:
      return Unary(e->unary_op(), RewriteColumns(e->child(0), rename));
    case Expr::Kind::kBinary:
      return Binary(e->binary_op(), RewriteColumns(e->child(0), rename),
                    RewriteColumns(e->child(1), rename));
  }
  return e;
}

std::optional<SimplePredicate> MatchSimplePredicate(const Expr& e) {
  if (e.kind() != Expr::Kind::kBinary) return std::nullopt;
  BinaryOp op = e.binary_op();
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return std::nullopt;
  }
  const Expr* a = e.child(0).get();
  const Expr* b = e.child(1).get();
  // A bound parameter exposes its value through literal() and matches
  // like a literal (so prepared statements keep zone-map pruning); an
  // unbound one has no value yet and cannot match.
  auto literal_of = [](const Expr* x) -> const Value* {
    return x->kind() == Expr::Kind::kLiteral ||
                   x->kind() == Expr::Kind::kParam
               ? x->literal()
               : nullptr;
  };
  if (a->kind() == Expr::Kind::kColumn && literal_of(b) != nullptr) {
    return SimplePredicate{*a->column(), op, *literal_of(b)};
  }
  if (literal_of(a) != nullptr &&
      b->kind() == Expr::Kind::kColumn) {
    BinaryOp mirrored = op;
    switch (op) {
      case BinaryOp::kLt:
        mirrored = BinaryOp::kGt;
        break;
      case BinaryOp::kLe:
        mirrored = BinaryOp::kGe;
        break;
      case BinaryOp::kGt:
        mirrored = BinaryOp::kLt;
        break;
      case BinaryOp::kGe:
        mirrored = BinaryOp::kLe;
        break;
      default:
        break;  // = and <> are symmetric
    }
    return SimplePredicate{*b->column(), mirrored, *a->literal()};
  }
  return std::nullopt;
}

// ------------------------------------------------- vectorized evaluation

namespace {

inline size_t SelRow(const uint32_t* sel, size_t k) {
  return sel != nullptr ? sel[k] : k;
}

/// Three-way compares matching Value::Compare (including its NaN
/// behavior: NaN compares "greater" because both == and < are false).
inline int Cmp3(int64_t a, int64_t b) {
  return a == b ? 0 : (a < b ? -1 : 1);
}
inline int Cmp3(double a, double b) {
  return a == b ? 0 : (a < b ? -1 : 1);
}

inline bool CompareOpHolds(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq:
      return c == 0;
    case BinaryOp::kNe:
      return c != 0;
    case BinaryOp::kLt:
      return c < 0;
    case BinaryOp::kLe:
      return c <= 0;
    case BinaryOp::kGt:
      return c > 0;
    case BinaryOp::kGe:
      return c >= 0;
    default:
      return false;
  }
}

inline bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

inline bool IsArithmeticOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

/// Numeric element as double (caller checked type and null).
inline double NumAt(const ColumnVector& v, size_t k) {
  return v.type == DataType::kInt64 ? static_cast<double>(v.i64[k])
                                    : v.f64[k];
}

/// All-NULL result (type kNull: every consumer sees Value::Null()).
ColumnVector AllNullVector(size_t n) {
  ColumnVector out;
  out.type = DataType::kNull;
  out.length = n;
  if (n > 0) out.own_nulls.assign((n + 63) / 64, ~uint64_t{0});
  out.Seal();
  return out;
}

/// Exact per-element fallback through the scalar appliers.
util::StatusOr<ColumnVector> GenericBinaryVec(BinaryOp op,
                                              const ColumnVector& a,
                                              const ColumnVector& b,
                                              size_t n) {
  ColumnVector out;
  out.length = n;
  out.own_vals.reserve(n);
  bool logical = op == BinaryOp::kAnd || op == BinaryOp::kOr;
  for (size_t k = 0; k < n; ++k) {
    Value va = a.GetValue(k);
    Value vb = b.GetValue(k);
    util::StatusOr<Value> r = logical ? ApplyLogicalScalar(op, va, vb)
                                      : ApplyBinaryScalar(op, va, vb);
    if (!r.ok()) return r.status();
    out.own_vals.push_back(std::move(*r));
  }
  out.Seal();
  return out;
}

util::StatusOr<ColumnVector> GenericUnaryVec(UnaryOp op,
                                             const ColumnVector& v,
                                             size_t n) {
  ColumnVector out;
  out.length = n;
  out.own_vals.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    FF_ASSIGN_OR_RETURN(Value r, ApplyUnaryScalar(op, v.GetValue(k)));
    out.own_vals.push_back(std::move(r));
  }
  out.Seal();
  return out;
}

util::StatusOr<ColumnVector> EvalUnaryVec(UnaryOp op,
                                          const ColumnVector& v, size_t n) {
  switch (op) {
    case UnaryOp::kIsNull:
    case UnaryOp::kIsNotNull: {
      ColumnVector out;
      out.type = DataType::kBool;
      out.length = n;
      out.own_b8.resize(n);
      bool want = op == UnaryOp::kIsNull;
      for (size_t k = 0; k < n; ++k) {
        out.own_b8[k] = (v.IsNull(k) == want) ? 1 : 0;
      }
      out.Seal();
      return out;
    }
    case UnaryOp::kNot: {
      if (v.type == DataType::kNull && v.vals == nullptr) {
        return AllNullVector(n);
      }
      if (v.vals != nullptr || v.type != DataType::kBool) {
        return GenericUnaryVec(op, v, n);
      }
      ColumnVector out;
      out.type = DataType::kBool;
      out.length = n;
      out.own_b8.resize(n);
      for (size_t k = 0; k < n; ++k) {
        if (v.IsNull(k)) {
          out.own_b8[k] = 0;
          out.SetNull(k);
        } else {
          out.own_b8[k] = v.b8[k] ? 0 : 1;
        }
      }
      out.Seal();
      return out;
    }
    case UnaryOp::kNeg: {
      if (v.type == DataType::kNull && v.vals == nullptr) {
        return AllNullVector(n);
      }
      if (v.vals != nullptr ||
          (v.type != DataType::kInt64 && v.type != DataType::kDouble)) {
        return GenericUnaryVec(op, v, n);
      }
      ColumnVector out;
      out.type = v.type;
      out.length = n;
      if (v.type == DataType::kInt64) {
        out.own_i64.resize(n);
        for (size_t k = 0; k < n; ++k) {
          if (v.IsNull(k)) {
            out.own_i64[k] = 0;
            out.SetNull(k);
          } else {
            out.own_i64[k] = -v.i64[k];
          }
        }
      } else {
        out.own_f64.resize(n);
        for (size_t k = 0; k < n; ++k) {
          if (v.IsNull(k)) {
            out.own_f64[k] = 0.0;
            out.SetNull(k);
          } else {
            out.own_f64[k] = -v.f64[k];
          }
        }
      }
      out.Seal();
      return out;
    }
  }
  return util::Status::Internal("unhandled unary op");
}

util::StatusOr<ColumnVector> CompareVec(BinaryOp op, const ColumnVector& a,
                                        const ColumnVector& b, size_t n) {
  ColumnVector out;
  out.type = DataType::kBool;
  out.length = n;
  out.own_b8.assign(n, 0);
  auto emit = [&](size_t k, int c) {
    out.own_b8[k] = CompareOpHolds(op, c) ? 1 : 0;
  };

  bool a_num = IsNumeric(a.type), b_num = IsNumeric(b.type);
  if (a.type == DataType::kInt64 && b.type == DataType::kInt64) {
    for (size_t k = 0; k < n; ++k) {
      if (a.IsNull(k) || b.IsNull(k)) {
        out.SetNull(k);
      } else {
        emit(k, Cmp3(a.i64[k], b.i64[k]));
      }
    }
  } else if (a_num && b_num) {
    for (size_t k = 0; k < n; ++k) {
      if (a.IsNull(k) || b.IsNull(k)) {
        out.SetNull(k);
      } else {
        emit(k, Cmp3(NumAt(a, k), NumAt(b, k)));
      }
    }
  } else if (a.type == DataType::kString && b.type == DataType::kString) {
    if (b.is_const && (op == BinaryOp::kEq || op == BinaryOp::kNe)) {
      // Dictionary fast path: translate the literal once; a missing
      // entry means no element can be equal.
      std::optional<uint32_t> code =
          a.dict->Find(b.const_val.string_value());
      for (size_t k = 0; k < n; ++k) {
        if (a.IsNull(k)) {
          out.SetNull(k);
        } else {
          bool eq = code.has_value() && a.codes[k] == *code;
          out.own_b8[k] = (op == BinaryOp::kEq ? eq : !eq) ? 1 : 0;
        }
      }
    } else if ((op == BinaryOp::kEq || op == BinaryOp::kNe) &&
               a.dict != nullptr && a.dict == b.dict) {
      for (size_t k = 0; k < n; ++k) {
        if (a.IsNull(k) || b.IsNull(k)) {
          out.SetNull(k);
        } else {
          bool eq = a.codes[k] == b.codes[k];
          out.own_b8[k] = (op == BinaryOp::kEq ? eq : !eq) ? 1 : 0;
        }
      }
    } else {
      for (size_t k = 0; k < n; ++k) {
        if (a.IsNull(k) || b.IsNull(k)) {
          out.SetNull(k);
        } else {
          int c = a.dict->at(a.codes[k]).compare(b.dict->at(b.codes[k]));
          emit(k, c == 0 ? 0 : (c < 0 ? -1 : 1));
        }
      }
    }
  } else if (a.type == DataType::kBool && b.type == DataType::kBool) {
    for (size_t k = 0; k < n; ++k) {
      if (a.IsNull(k) || b.IsNull(k)) {
        out.SetNull(k);
      } else {
        emit(k, Cmp3(static_cast<int64_t>(a.b8[k] != 0),
                     static_cast<int64_t>(b.b8[k] != 0)));
      }
    }
  } else {
    // Incomparable runtime types: exact per-row errors and NULLs.
    return GenericBinaryVec(op, a, b, n);
  }
  out.Seal();
  return out;
}

util::StatusOr<ColumnVector> ArithmeticVec(BinaryOp op,
                                           const ColumnVector& a,
                                           const ColumnVector& b,
                                           size_t n) {
  if (!IsNumeric(a.type) || !IsNumeric(b.type)) {
    return GenericBinaryVec(op, a, b, n);
  }
  ColumnVector out;
  out.length = n;
  if (a.type == DataType::kInt64 && b.type == DataType::kInt64 &&
      op != BinaryOp::kDiv) {
    out.type = DataType::kInt64;
    out.own_i64.assign(n, 0);
    for (size_t k = 0; k < n; ++k) {
      if (a.IsNull(k) || b.IsNull(k)) {
        out.SetNull(k);
        continue;
      }
      int64_t x = a.i64[k], y = b.i64[k];
      switch (op) {
        case BinaryOp::kAdd:
          out.own_i64[k] = x + y;
          break;
        case BinaryOp::kSub:
          out.own_i64[k] = x - y;
          break;
        case BinaryOp::kMul:
          out.own_i64[k] = x * y;
          break;
        case BinaryOp::kMod:
          if (y == 0) {
            return util::Status::InvalidArgument("modulo by zero");
          }
          out.own_i64[k] = x % y;
          break;
        default:
          return util::Status::Internal("not arithmetic");
      }
    }
  } else {
    out.type = DataType::kDouble;
    out.own_f64.assign(n, 0.0);
    for (size_t k = 0; k < n; ++k) {
      if (a.IsNull(k) || b.IsNull(k)) {
        out.SetNull(k);
        continue;
      }
      double x = NumAt(a, k), y = NumAt(b, k);
      switch (op) {
        case BinaryOp::kAdd:
          out.own_f64[k] = x + y;
          break;
        case BinaryOp::kSub:
          out.own_f64[k] = x - y;
          break;
        case BinaryOp::kMul:
          out.own_f64[k] = x * y;
          break;
        case BinaryOp::kDiv:
          if (y == 0.0) {
            return util::Status::InvalidArgument("division by zero");
          }
          out.own_f64[k] = x / y;
          break;
        case BinaryOp::kMod:
          if (y == 0.0) {
            return util::Status::InvalidArgument("modulo by zero");
          }
          out.own_f64[k] = std::fmod(x, y);
          break;
        default:
          return util::Status::Internal("not arithmetic");
      }
    }
  }
  out.Seal();
  return out;
}

util::StatusOr<ColumnVector> LikeVec(const ColumnVector& a,
                                     const ColumnVector& b, size_t n) {
  if (a.type != DataType::kString || !b.is_const ||
      b.type != DataType::kString) {
    return GenericBinaryVec(BinaryOp::kLike, a, b, n);
  }
  const std::string& pattern = b.const_val.string_value();
  ColumnVector out;
  out.type = DataType::kBool;
  out.length = n;
  out.own_b8.assign(n, 0);
  if (a.dict != nullptr && a.dict->size() <= 4 * n + 16) {
    // Match each dictionary entry at most once.
    std::vector<int8_t> memo(a.dict->size(), -1);
    for (size_t k = 0; k < n; ++k) {
      if (a.IsNull(k)) {
        out.SetNull(k);
        continue;
      }
      uint32_t c = a.codes[k];
      if (memo[c] < 0) memo[c] = LikeMatch(a.dict->at(c), pattern) ? 1 : 0;
      out.own_b8[k] = memo[c];
    }
  } else {
    for (size_t k = 0; k < n; ++k) {
      if (a.IsNull(k)) {
        out.SetNull(k);
      } else {
        out.own_b8[k] = LikeMatch(a.dict->at(a.codes[k]), pattern) ? 1 : 0;
      }
    }
  }
  out.Seal();
  return out;
}

util::StatusOr<ColumnVector> EvalBinaryVec(BinaryOp op,
                                           const ColumnVector& a,
                                           const ColumnVector& b,
                                           size_t n) {
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    bool typed = a.vals == nullptr && b.vals == nullptr &&
                 (a.type == DataType::kBool || a.type == DataType::kNull) &&
                 (b.type == DataType::kBool || b.type == DataType::kNull);
    if (!typed) return GenericBinaryVec(op, a, b, n);
    ColumnVector out;
    out.type = DataType::kBool;
    out.length = n;
    out.own_b8.assign(n, 0);
    for (size_t k = 0; k < n; ++k) {
      int ta = (a.type == DataType::kNull || a.IsNull(k))
                   ? -1
                   : (a.b8[k] != 0 ? 1 : 0);
      int tb = (b.type == DataType::kNull || b.IsNull(k))
                   ? -1
                   : (b.b8[k] != 0 ? 1 : 0);
      if (op == BinaryOp::kAnd) {
        if (ta == 0 || tb == 0) {
          out.own_b8[k] = 0;
        } else if (ta == -1 || tb == -1) {
          out.SetNull(k);
        } else {
          out.own_b8[k] = 1;
        }
      } else {
        if (ta == 1 || tb == 1) {
          out.own_b8[k] = 1;
        } else if (ta == -1 || tb == -1) {
          out.SetNull(k);
        } else {
          out.own_b8[k] = 0;
        }
      }
    }
    out.Seal();
    return out;
  }
  if (a.vals != nullptr || b.vals != nullptr) {
    return GenericBinaryVec(op, a, b, n);
  }
  // An all-NULL operand nulls every element (NULL propagation precedes
  // every type/zero check in the scalar semantics).
  if (a.type == DataType::kNull || b.type == DataType::kNull) {
    return AllNullVector(n);
  }
  if (IsComparisonOp(op)) return CompareVec(op, a, b, n);
  if (IsArithmeticOp(op)) return ArithmeticVec(op, a, b, n);
  if (op == BinaryOp::kLike) return LikeVec(a, b, n);
  return util::Status::Internal("unhandled binary op");
}

util::StatusOr<ColumnVector> EvalVec(const Expr& e, const Batch& batch,
                                     const Schema& schema,
                                     const uint32_t* sel, size_t n) {
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      return ColumnVector::Constant(*e.literal(), n);
    case Expr::Kind::kParam: {
      const Value* bound = e.literal();
      if (bound == nullptr) {
        return util::Status::InvalidArgument("parameter " + e.ToString() +
                                             " is unbound");
      }
      return ColumnVector::Constant(*bound, n);
    }
    case Expr::Kind::kColumn: {
      FF_ASSIGN_OR_RETURN(size_t i, schema.IndexOf(*e.column()));
      return ColumnVector::Gather(batch.cols[i], sel, n);
    }
    case Expr::Kind::kUnary: {
      FF_ASSIGN_OR_RETURN(ColumnVector v,
                          EvalVec(*e.child(0), batch, schema, sel, n));
      return EvalUnaryVec(e.unary_op(), v, n);
    }
    case Expr::Kind::kBinary: {
      FF_ASSIGN_OR_RETURN(ColumnVector a,
                          EvalVec(*e.child(0), batch, schema, sel, n));
      FF_ASSIGN_OR_RETURN(ColumnVector b,
                          EvalVec(*e.child(1), batch, schema, sel, n));
      return EvalBinaryVec(e.binary_op(), a, b, n);
    }
  }
  return util::Status::Internal("unhandled expr kind");
}

}  // namespace

util::StatusOr<ColumnVector> EvalBatch(const Expr& e, const Batch& batch,
                                       const Schema& schema,
                                       const uint32_t* sel, size_t n) {
  util::StatusOr<ColumnVector> out = EvalVec(e, batch, schema, sel, n);
  if (out.ok() || n <= 1) return out;
  // Each kernel runs one sub-expression over all n rows, so `out` holds
  // the first failing sub-expression's error. Expr::Eval instead fails
  // on the first row where any sub-expression does: re-run the rows one
  // at a time to report that row's error.
  for (size_t k = 0; k < n; ++k) {
    const uint32_t row = static_cast<uint32_t>(SelRow(sel, k));
    util::StatusOr<ColumnVector> one = EvalVec(e, batch, schema, &row, 1);
    if (!one.ok()) return one.status();
  }
  return out;
}

}  // namespace statsdb
}  // namespace ff
