#include "statsdb/sql.h"

#include <cctype>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "obs/runtime_stats.h"
#include "statsdb/cache.h"
#include "statsdb/database.h"
#include "statsdb/exec.h"
#include "statsdb/planner.h"
#include "util/strings.h"

namespace ff {
namespace statsdb {

namespace {

// ---------------------------------------------------------------- lexer --

enum class TokKind {
  kIdent,
  kInt,
  kDouble,
  kString,
  kSymbol,  // punctuation / operators
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;  // identifier (original case), symbol, or literal text
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : in_(input) {}

  util::StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    out.reserve(in_.size() / 3 + 1);  // a VALUES list averages ~4 chars/token
    while (true) {
      SkipWhitespace();
      if (i_ >= in_.size()) {
        out.push_back(Token{TokKind::kEnd, "", i_});
        return out;
      }
      size_t start = i_;
      char c = in_[i_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t b = i_;
        while (i_ < in_.size() &&
               (std::isalnum(static_cast<unsigned char>(in_[i_])) ||
                in_[i_] == '_' || in_[i_] == '.')) {
          ++i_;
        }
        out.push_back(Token{TokKind::kIdent, in_.substr(b, i_ - b), start});
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' && i_ + 1 < in_.size() &&
                  std::isdigit(static_cast<unsigned char>(in_[i_ + 1])))) {
        size_t b = i_;
        bool is_double = false;
        while (i_ < in_.size() &&
               (std::isdigit(static_cast<unsigned char>(in_[i_])) ||
                in_[i_] == '.' || in_[i_] == 'e' || in_[i_] == 'E' ||
                ((in_[i_] == '+' || in_[i_] == '-') && i_ > b &&
                 (in_[i_ - 1] == 'e' || in_[i_ - 1] == 'E')))) {
          if (in_[i_] == '.' || in_[i_] == 'e' || in_[i_] == 'E') {
            is_double = true;
          }
          ++i_;
        }
        out.push_back(Token{is_double ? TokKind::kDouble : TokKind::kInt,
                            in_.substr(b, i_ - b), start});
      } else if (c == '\'') {
        ++i_;
        std::string s;
        bool closed = false;
        // Copy up to the next quote at once; a doubled quote ('') is one
        // quote inside the literal.
        while (i_ < in_.size()) {
          size_t q = in_.find('\'', i_);
          if (q == std::string::npos) q = in_.size();
          s.append(in_, i_, q - i_);
          i_ = q;
          if (i_ >= in_.size()) break;
          if (i_ + 1 < in_.size() && in_[i_ + 1] == '\'') {
            s += '\'';
            i_ += 2;
          } else {
            ++i_;
            closed = true;
            break;
          }
        }
        if (!closed) {
          return util::Status::ParseError("unterminated string literal");
        }
        out.push_back(Token{TokKind::kString, std::move(s), start});
      } else {
        // Multi-char operators first.
        static const char* kTwo[] = {"<>", "<=", ">=", "!="};
        std::string sym(1, c);
        if (c == '<' || c == '>' || c == '!') {
          for (const char* t : kTwo) {
            if (in_.compare(i_, 2, t) == 0) {
              sym = t;
              break;
            }
          }
        }
        static const std::string kSingles = "(),*=<>+-/%?";
        if (sym.size() == 1 && kSingles.find(c) == std::string::npos) {
          return util::Status::ParseError(
              util::StrFormat("unexpected character '%c' at %zu", c, i_));
        }
        i_ += sym.size();
        out.push_back(Token{TokKind::kSymbol, sym, start});
      }
    }
  }

 private:
  void SkipWhitespace() {
    while (i_ < in_.size()) {
      if (std::isspace(static_cast<unsigned char>(in_[i_]))) {
        ++i_;
      } else if (in_[i_] == '-' && i_ + 1 < in_.size() &&
                 in_[i_ + 1] == '-') {
        while (i_ < in_.size() && in_[i_] != '\n') ++i_;
      } else {
        break;
      }
    }
  }

  const std::string& in_;
  size_t i_ = 0;
};

// --------------------------------------------------------------- parser --

struct SelectItem {
  // Either a plain expression...
  ExprPtr expr;
  // ...or an aggregate call.
  std::optional<AggFunc> agg;
  ExprPtr agg_arg;  // null for COUNT(*)
  std::string alias;
  bool is_star = false;

  std::string DefaultName() const {
    if (!alias.empty()) return alias;
    if (agg) {
      if (*agg == AggFunc::kCountStar) return "count";
      return util::ToLower(AggFuncName(*agg)) + "_" + agg_arg->ToString();
    }
    return expr->ToString();
  }
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;  // empty => '*'
  std::string table;
  std::string join_table;  // empty when no join
  std::string join_left_col;
  std::string join_right_col;
  ExprPtr where;
  std::vector<std::string> group_by;
  ExprPtr having;
  std::vector<SortKey> order_by;
  std::optional<size_t> limit;
  size_t offset = 0;
};

struct CreateStmt {
  std::string table;
  std::vector<Column> columns;
};

struct InsertStmt {
  std::string table;
  std::vector<Row> rows;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // null = all rows
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;  // null = all rows
};

class Parser {
 public:
  /// `params` collects one ParamSlot per `?` placeholder in statement
  /// order; null (the default, for direct SQL) makes `?` a parse error.
  explicit Parser(std::vector<Token> tokens,
                  std::vector<std::shared_ptr<ParamSlot>>* params = nullptr)
      : toks_(std::move(tokens)), params_(params) {}

  util::StatusOr<SelectStmt> ParseSelect() {
    FF_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    SelectStmt stmt;
    if (PeekKeyword("DISTINCT")) {
      Advance();
      stmt.distinct = true;
    }
    if (PeekSymbol("*")) {
      Advance();
    } else {
      while (true) {
        FF_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
        stmt.items.push_back(std::move(item));
        if (!PeekSymbol(",")) break;
        Advance();
      }
    }
    FF_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    FF_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    if (PeekKeyword("JOIN")) {
      Advance();
      FF_ASSIGN_OR_RETURN(stmt.join_table, ExpectIdent());
      FF_RETURN_IF_ERROR(ExpectKeyword("ON"));
      FF_ASSIGN_OR_RETURN(stmt.join_left_col, ExpectIdent());
      FF_RETURN_IF_ERROR(ExpectSymbol("="));
      FF_ASSIGN_OR_RETURN(stmt.join_right_col, ExpectIdent());
    }
    if (PeekKeyword("WHERE")) {
      Advance();
      FF_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (PeekKeyword("GROUP")) {
      Advance();
      FF_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        FF_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        stmt.group_by.push_back(std::move(col));
        if (!PeekSymbol(",")) break;
        Advance();
      }
    }
    if (PeekKeyword("HAVING")) {
      Advance();
      FF_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
    }
    if (PeekKeyword("ORDER")) {
      Advance();
      FF_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        SortKey key;
        FF_ASSIGN_OR_RETURN(key.column, ExpectIdent());
        if (PeekKeyword("ASC")) {
          Advance();
        } else if (PeekKeyword("DESC")) {
          Advance();
          key.ascending = false;
        }
        stmt.order_by.push_back(std::move(key));
        if (!PeekSymbol(",")) break;
        Advance();
      }
    }
    if (PeekKeyword("LIMIT")) {
      Advance();
      FF_ASSIGN_OR_RETURN(int64_t n, ExpectInt());
      if (n < 0) return util::Status::ParseError("negative LIMIT");
      stmt.limit = static_cast<size_t>(n);
      if (PeekKeyword("OFFSET")) {
        Advance();
        FF_ASSIGN_OR_RETURN(int64_t off, ExpectInt());
        if (off < 0) return util::Status::ParseError("negative OFFSET");
        stmt.offset = static_cast<size_t>(off);
      }
    }
    FF_RETURN_IF_ERROR(ExpectEnd());
    return stmt;
  }

  util::StatusOr<CreateStmt> ParseCreate() {
    FF_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    FF_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    CreateStmt stmt;
    FF_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    FF_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      Column col;
      FF_ASSIGN_OR_RETURN(col.name, ExpectIdent());
      FF_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent());
      FF_ASSIGN_OR_RETURN(col.type, ParseDataType(type_name));
      stmt.columns.push_back(std::move(col));
      if (PeekSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    FF_RETURN_IF_ERROR(ExpectSymbol(")"));
    FF_RETURN_IF_ERROR(ExpectEnd());
    return stmt;
  }

  util::StatusOr<InsertStmt> ParseInsert() {
    FF_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    FF_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    InsertStmt stmt;
    FF_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    FF_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    while (true) {
      FF_RETURN_IF_ERROR(ExpectSymbol("("));
      Row row;
      if (!stmt.rows.empty()) row.reserve(stmt.rows.front().size());
      while (true) {
        FF_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        row.push_back(std::move(v));
        if (PeekSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      FF_RETURN_IF_ERROR(ExpectSymbol(")"));
      stmt.rows.push_back(std::move(row));
      if (PeekSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    FF_RETURN_IF_ERROR(ExpectEnd());
    return stmt;
  }

  util::StatusOr<UpdateStmt> ParseUpdate() {
    FF_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
    UpdateStmt stmt;
    FF_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    FF_RETURN_IF_ERROR(ExpectKeyword("SET"));
    while (true) {
      FF_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      FF_RETURN_IF_ERROR(ExpectSymbol("="));
      FF_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      stmt.assignments.emplace_back(std::move(col), std::move(value));
      if (!PeekSymbol(",")) break;
      Advance();
    }
    if (PeekKeyword("WHERE")) {
      Advance();
      FF_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    FF_RETURN_IF_ERROR(ExpectEnd());
    return stmt;
  }

  util::StatusOr<DeleteStmt> ParseDelete() {
    FF_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
    FF_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    DeleteStmt stmt;
    FF_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    if (PeekKeyword("WHERE")) {
      Advance();
      FF_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    FF_RETURN_IF_ERROR(ExpectEnd());
    return stmt;
  }

  bool PeekKeyword(std::string_view kw) const {
    const Token& t = toks_[i_];
    return t.kind == TokKind::kIdent && util::EqualsIgnoreCase(t.text, kw);
  }

 private:
  const Token& Cur() const { return toks_[i_]; }
  void Advance() {
    if (i_ + 1 < toks_.size()) ++i_;
  }

  bool PeekSymbol(std::string_view sym) const {
    return Cur().kind == TokKind::kSymbol && Cur().text == sym;
  }

  util::Status ExpectKeyword(std::string_view kw) {
    if (!PeekKeyword(kw)) {
      return util::Status::ParseError("expected " + std::string(kw) +
                                      " near '" + Cur().text + "'");
    }
    Advance();
    return util::Status::OK();
  }

  util::Status ExpectSymbol(std::string_view sym) {
    if (!PeekSymbol(sym)) {
      return util::Status::ParseError("expected '" + std::string(sym) +
                                      "' near '" + Cur().text + "'");
    }
    Advance();
    return util::Status::OK();
  }

  util::StatusOr<std::string> ExpectIdent() {
    if (Cur().kind != TokKind::kIdent) {
      return util::Status::ParseError("expected identifier near '" +
                                      Cur().text + "'");
    }
    if (IsReserved(Cur().text)) {
      return util::Status::ParseError("unexpected keyword '" + Cur().text +
                                      "'");
    }
    std::string name = Cur().text;
    Advance();
    return name;
  }

  util::StatusOr<int64_t> ExpectInt() {
    if (Cur().kind != TokKind::kInt) {
      return util::Status::ParseError("expected integer near '" +
                                      Cur().text + "'");
    }
    FF_ASSIGN_OR_RETURN(int64_t v, util::ParseInt64(Cur().text));
    Advance();
    return v;
  }

  util::Status ExpectEnd() {
    if (Cur().kind != TokKind::kEnd) {
      return util::Status::ParseError("unexpected trailing input: '" +
                                      Cur().text + "'");
    }
    return util::Status::OK();
  }

  static bool IsReserved(const std::string& word) {
    static const char* kReserved[] = {
        "SELECT", "FROM",  "WHERE",  "GROUP",  "BY",     "HAVING",
        "ORDER",  "LIMIT", "OFFSET", "JOIN",   "ON",     "AND",
        "OR",     "NOT",   "AS",     "ASC",    "DESC",   "DISTINCT",
        "INSERT", "INTO",  "VALUES", "CREATE", "TABLE",  "LIKE",
        "IS",     "NULL",  "TRUE",   "FALSE",  "UPDATE", "SET",
        "DELETE", "IN",    "BETWEEN"};
    for (const char* r : kReserved) {
      if (util::EqualsIgnoreCase(word, r)) return true;
    }
    return false;
  }

  static std::optional<AggFunc> AggFromName(const std::string& name) {
    if (util::EqualsIgnoreCase(name, "COUNT")) return AggFunc::kCount;
    if (util::EqualsIgnoreCase(name, "SUM")) return AggFunc::kSum;
    if (util::EqualsIgnoreCase(name, "AVG")) return AggFunc::kAvg;
    if (util::EqualsIgnoreCase(name, "MIN")) return AggFunc::kMin;
    if (util::EqualsIgnoreCase(name, "MAX")) return AggFunc::kMax;
    if (util::EqualsIgnoreCase(name, "P95")) return AggFunc::kP95;
    return std::nullopt;
  }

  util::StatusOr<Value> ParseLiteralValue() {
    const Token& t = Cur();
    switch (t.kind) {
      case TokKind::kInt: {
        FF_ASSIGN_OR_RETURN(int64_t v, util::ParseInt64(t.text));
        Advance();
        return Value::Int64(v);
      }
      case TokKind::kDouble: {
        FF_ASSIGN_OR_RETURN(double v, util::ParseDouble(t.text));
        Advance();
        return Value::Double(v);
      }
      case TokKind::kString: {
        // The parser never steps back, so the consumed token's text can
        // move into the value.
        std::string s = std::move(toks_[i_].text);
        Advance();
        return Value::String(std::move(s));
      }
      case TokKind::kIdent: {
        if (util::EqualsIgnoreCase(t.text, "NULL")) {
          Advance();
          return Value::Null();
        }
        if (util::EqualsIgnoreCase(t.text, "TRUE")) {
          Advance();
          return Value::Bool(true);
        }
        if (util::EqualsIgnoreCase(t.text, "FALSE")) {
          Advance();
          return Value::Bool(false);
        }
        return util::Status::ParseError("expected literal, got '" + t.text +
                                        "'");
      }
      case TokKind::kSymbol: {
        if (t.text == "-") {
          Advance();
          FF_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
          if (v.type() == DataType::kInt64) {
            return Value::Int64(-v.int64_value());
          }
          if (v.type() == DataType::kDouble) {
            return Value::Double(-v.double_value());
          }
          return util::Status::ParseError("cannot negate literal");
        }
        return util::Status::ParseError("expected literal, got '" + t.text +
                                        "'");
      }
      default:
        return util::Status::ParseError("expected literal");
    }
  }

  util::StatusOr<SelectItem> ParseSelectItem() {
    SelectItem item;
    // Aggregate call?
    if (Cur().kind == TokKind::kIdent && !IsReserved(Cur().text)) {
      auto agg = AggFromName(Cur().text);
      if (agg && i_ + 1 < toks_.size() &&
          toks_[i_ + 1].kind == TokKind::kSymbol &&
          toks_[i_ + 1].text == "(") {
        Advance();  // function name
        Advance();  // '('
        if (*agg == AggFunc::kCount && PeekSymbol("*")) {
          Advance();
          item.agg = AggFunc::kCountStar;
        } else {
          FF_ASSIGN_OR_RETURN(item.agg_arg, ParseExpr());
          item.agg = agg;
        }
        FF_RETURN_IF_ERROR(ExpectSymbol(")"));
        if (PeekKeyword("AS")) {
          Advance();
          FF_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
        }
        return item;
      }
    }
    FF_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (PeekKeyword("AS")) {
      Advance();
      FF_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
    }
    return item;
  }

  // Precedence-climbing expression parser.
  util::StatusOr<ExprPtr> ParseExpr() { return ParseOr(); }

  util::StatusOr<ExprPtr> ParseOr() {
    FF_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (PeekKeyword("OR")) {
      Advance();
      FF_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  util::StatusOr<ExprPtr> ParseAnd() {
    FF_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (PeekKeyword("AND")) {
      Advance();
      FF_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  util::StatusOr<ExprPtr> ParseNot() {
    if (PeekKeyword("NOT")) {
      Advance();
      FF_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Not(std::move(operand));
    }
    return ParseComparison();
  }

  util::StatusOr<ExprPtr> ParseComparison() {
    FF_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    if (Cur().kind == TokKind::kSymbol) {
      const std::string& s = Cur().text;
      BinaryOp op;
      bool matched = true;
      if (s == "=") {
        op = BinaryOp::kEq;
      } else if (s == "<>" || s == "!=") {
        op = BinaryOp::kNe;
      } else if (s == "<") {
        op = BinaryOp::kLt;
      } else if (s == "<=") {
        op = BinaryOp::kLe;
      } else if (s == ">") {
        op = BinaryOp::kGt;
      } else if (s == ">=") {
        op = BinaryOp::kGe;
      } else {
        matched = false;
      }
      if (matched) {
        Advance();
        FF_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return Binary(op, std::move(lhs), std::move(rhs));
      }
    }
    if (PeekKeyword("LIKE")) {
      Advance();
      FF_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      return Like(std::move(lhs), std::move(rhs));
    }
    // [NOT] IN (...) / [NOT] BETWEEN lo AND hi.
    bool negated_membership = false;
    if (PeekKeyword("NOT") && i_ + 1 < toks_.size() &&
        toks_[i_ + 1].kind == TokKind::kIdent &&
        (util::EqualsIgnoreCase(toks_[i_ + 1].text, "IN") ||
         util::EqualsIgnoreCase(toks_[i_ + 1].text, "BETWEEN"))) {
      Advance();
      negated_membership = true;
    }
    if (PeekKeyword("IN")) {
      Advance();
      FF_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<ExprPtr> candidates;
      while (true) {
        FF_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        candidates.push_back(std::move(e));
        if (!PeekSymbol(",")) break;
        Advance();
      }
      FF_RETURN_IF_ERROR(ExpectSymbol(")"));
      ExprPtr membership = In(lhs, std::move(candidates));
      return negated_membership ? Not(std::move(membership)) : membership;
    }
    if (PeekKeyword("BETWEEN")) {
      Advance();
      FF_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      FF_RETURN_IF_ERROR(ExpectKeyword("AND"));
      FF_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      ExprPtr membership = Between(lhs, std::move(lo), std::move(hi));
      return negated_membership ? Not(std::move(membership)) : membership;
    }
    if (negated_membership) {
      return util::Status::ParseError("expected IN or BETWEEN after NOT");
    }
    if (PeekKeyword("IS")) {
      Advance();
      bool negated = false;
      if (PeekKeyword("NOT")) {
        Advance();
        negated = true;
      }
      if (!PeekKeyword("NULL")) {
        return util::Status::ParseError("expected NULL after IS");
      }
      Advance();
      return negated ? IsNotNull(std::move(lhs)) : IsNull(std::move(lhs));
    }
    return lhs;
  }

  util::StatusOr<ExprPtr> ParseAdditive() {
    FF_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Cur().kind == TokKind::kSymbol &&
           (Cur().text == "+" || Cur().text == "-")) {
      BinaryOp op = Cur().text == "+" ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      FF_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  util::StatusOr<ExprPtr> ParseMultiplicative() {
    FF_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (Cur().kind == TokKind::kSymbol &&
           (Cur().text == "*" || Cur().text == "/" || Cur().text == "%")) {
      BinaryOp op = Cur().text == "*"
                        ? BinaryOp::kMul
                        : (Cur().text == "/" ? BinaryOp::kDiv
                                             : BinaryOp::kMod);
      Advance();
      FF_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  util::StatusOr<ExprPtr> ParseUnary() {
    if (Cur().kind == TokKind::kSymbol && Cur().text == "-") {
      Advance();
      FF_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return Unary(UnaryOp::kNeg, std::move(operand));
    }
    return ParsePrimary();
  }

  util::StatusOr<ExprPtr> ParsePrimary() {
    const Token& t = Cur();
    switch (t.kind) {
      case TokKind::kInt: {
        FF_ASSIGN_OR_RETURN(int64_t v, util::ParseInt64(t.text));
        Advance();
        return LitInt(v);
      }
      case TokKind::kDouble: {
        FF_ASSIGN_OR_RETURN(double v, util::ParseDouble(t.text));
        Advance();
        return LitDouble(v);
      }
      case TokKind::kString: {
        std::string s = t.text;
        Advance();
        return LitString(std::move(s));
      }
      case TokKind::kIdent: {
        if (util::EqualsIgnoreCase(t.text, "NULL")) {
          Advance();
          return LitNull();
        }
        if (util::EqualsIgnoreCase(t.text, "TRUE")) {
          Advance();
          return LitBool(true);
        }
        if (util::EqualsIgnoreCase(t.text, "FALSE")) {
          Advance();
          return LitBool(false);
        }
        if (IsReserved(t.text)) {
          return util::Status::ParseError("unexpected keyword '" + t.text +
                                          "'");
        }
        std::string name = t.text;
        Advance();
        return Col(std::move(name));
      }
      case TokKind::kSymbol: {
        if (t.text == "(") {
          Advance();
          FF_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          FF_RETURN_IF_ERROR(ExpectSymbol(")"));
          return e;
        }
        if (t.text == "?") {
          if (params_ == nullptr) {
            return util::Status::ParseError(
                "'?' placeholders are only valid in prepared statements "
                "(Database::Prepare)");
          }
          Advance();
          auto slot = std::make_shared<ParamSlot>();
          size_t index = params_->size();
          params_->push_back(slot);
          return Param(index, slot);
        }
        return util::Status::ParseError("unexpected symbol '" + t.text +
                                        "'");
      }
      default:
        return util::Status::ParseError("unexpected end of input");
    }
  }

  std::vector<Token> toks_;
  size_t i_ = 0;
  std::vector<std::shared_ptr<ParamSlot>>* params_ = nullptr;
};

// --------------------------------------------------------------- binder --

util::StatusOr<PlanPtr> BuildSelectPlan(const SelectStmt& stmt) {
  PlanPtr plan = MakeScan(stmt.table);
  if (!stmt.join_table.empty()) {
    plan = MakeHashJoin(plan, MakeScan(stmt.join_table), stmt.join_left_col,
                        stmt.join_right_col);
  }
  if (stmt.where) plan = MakeFilter(plan, stmt.where);

  bool has_agg = false;
  for (const auto& item : stmt.items) {
    if (item.agg) has_agg = true;
  }

  if (has_agg || !stmt.group_by.empty()) {
    // Every non-aggregate select item must be a group-by column reference.
    std::vector<AggSpec> aggs;
    std::vector<ProjectItem> final_projection;
    for (const auto& item : stmt.items) {
      if (item.agg) {
        std::string name = item.DefaultName();
        aggs.push_back(AggSpec{*item.agg, item.agg_arg, name});
        final_projection.push_back(ProjectItem{Col(name), name});
      } else {
        std::string col_name = item.expr->ToString();
        bool in_group = false;
        for (const auto& g : stmt.group_by) {
          if (util::EqualsIgnoreCase(g, col_name)) in_group = true;
        }
        if (!in_group) {
          return util::Status::InvalidArgument(
              "select item '" + col_name +
              "' must be an aggregate or appear in GROUP BY");
        }
        std::string name = item.alias.empty() ? col_name : item.alias;
        final_projection.push_back(ProjectItem{Col(col_name), name});
      }
    }
    if (stmt.items.empty()) {
      return util::Status::InvalidArgument(
          "SELECT * cannot be combined with GROUP BY");
    }
    plan = MakeAggregate(plan, stmt.group_by, std::move(aggs));
    if (stmt.having) plan = MakeFilter(plan, stmt.having);
    // Sort before the final projection when sort keys may reference
    // group-by columns that the projection renames; project first and sort
    // on output names otherwise. We project first: HAVING and ORDER BY in
    // this subset refer to output column names.
    plan = MakeProject(plan, std::move(final_projection));
  } else if (!stmt.items.empty()) {
    if (stmt.having) {
      return util::Status::InvalidArgument("HAVING requires GROUP BY");
    }
    std::vector<ProjectItem> items;
    std::vector<std::string> visible;
    for (const auto& item : stmt.items) {
      std::string name = item.DefaultName();
      visible.push_back(name);
      items.push_back(ProjectItem{item.expr, name});
    }
    // ORDER BY may reference base-table columns the projection drops;
    // carry them as hidden columns through the sort, then strip them.
    bool hidden = false;
    if (!stmt.distinct) {
      for (const auto& key : stmt.order_by) {
        bool in_output = false;
        for (const auto& name : visible) {
          if (util::EqualsIgnoreCase(name, key.column)) in_output = true;
        }
        if (!in_output) {
          items.push_back(ProjectItem{Col(key.column), key.column});
          hidden = true;
        }
      }
    }
    plan = MakeProject(plan, std::move(items));
    if (!stmt.order_by.empty()) {
      plan = MakeSort(plan, stmt.order_by);
    }
    if (hidden) {
      std::vector<ProjectItem> strip;
      for (const auto& name : visible) {
        strip.push_back(ProjectItem{Col(name), name});
      }
      plan = MakeProject(plan, std::move(strip));
    }
    if (stmt.distinct) plan = MakeDistinct(plan);
    if (stmt.limit) plan = MakeLimit(plan, *stmt.limit, stmt.offset);
    return plan;
  } else if (stmt.having) {
    return util::Status::InvalidArgument("HAVING requires GROUP BY");
  }

  if (stmt.distinct) plan = MakeDistinct(plan);
  if (!stmt.order_by.empty()) plan = MakeSort(plan, stmt.order_by);
  if (stmt.limit) plan = MakeLimit(plan, *stmt.limit, stmt.offset);
  return plan;
}

/// Renders plan/profile lines as a single-column result set so EXPLAIN
/// output flows through every existing ResultSet consumer (CSV dumps,
/// tests, the statsdb bridge) unchanged.
ResultSet PlanLinesResult(const std::vector<std::string>& lines) {
  ResultSet rs;
  rs.schema = Schema({Column{"plan", DataType::kString}});
  rs.rows.reserve(lines.size());
  for (const std::string& line : lines) {
    rs.rows.push_back(Row{Value::String(line)});
  }
  return rs;
}

}  // namespace

struct WriteStatement::Parsed {
  std::variant<CreateStmt, InsertStmt, UpdateStmt, DeleteStmt> stmt;
};

namespace {

/// The write statement `toks` spells (anything but SELECT / EXPLAIN).
util::StatusOr<WriteStatement> ParseWriteTokens(std::vector<Token> toks) {
  Parser parser(std::move(toks));
  WriteStatement out;
  out.parsed = std::make_shared<WriteStatement::Parsed>();
  auto& stmt = out.parsed->stmt;
  if (parser.PeekKeyword("CREATE")) {
    FF_ASSIGN_OR_RETURN(stmt, parser.ParseCreate());
  } else if (parser.PeekKeyword("INSERT")) {
    FF_ASSIGN_OR_RETURN(stmt, parser.ParseInsert());
  } else if (parser.PeekKeyword("UPDATE")) {
    FF_ASSIGN_OR_RETURN(stmt, parser.ParseUpdate());
  } else if (parser.PeekKeyword("DELETE")) {
    FF_ASSIGN_OR_RETURN(stmt, parser.ParseDelete());
  } else {
    return util::Status::ParseError(
        "statement must start with SELECT, INSERT, UPDATE, DELETE, CREATE "
        "or EXPLAIN");
  }
  return out;
}

/// Normalized statement identity for the plan tier: the token stream —
/// whitespace and comments are already gone, and the caller strips any
/// EXPLAIN [ANALYZE] prefix first, so `SELECT x FROM t`, `select x FROM
/// t  -- note`, and the SELECT inside an EXPLAIN share one plan entry.
/// Identifier case is preserved (table names are case-sensitive);
/// differently-cased keywords therefore key separate entries, which
/// costs a duplicate plan, never a wrong one.
QueryCache::Key TokensKey(const std::vector<Token>& toks) {
  DualFingerprint fp;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kEnd) break;
    fp.U8(static_cast<uint8_t>(t.kind)).Str(t.text);
  }
  return QueryCache::Key{fp.fp(), fp.check()};
}

}  // namespace

util::StatusOr<ResultSet> ExecuteSql(Database* db,
                                     const std::string& statement) {
  Lexer lexer(statement);
  FF_ASSIGN_OR_RETURN(std::vector<Token> toks, lexer.Tokenize());
  if (toks.empty() || toks[0].kind == TokKind::kEnd) {
    return util::Status::ParseError("empty statement");
  }
  // EXPLAIN [ANALYZE] prefixes are stripped before the parser is built;
  // the remaining tokens must form a plain SELECT.
  bool explain = false;
  bool analyze = false;
  if (toks[0].kind == TokKind::kIdent &&
      util::EqualsIgnoreCase(toks[0].text, "EXPLAIN")) {
    explain = true;
    size_t strip = 1;
    if (toks.size() > 1 && toks[1].kind == TokKind::kIdent &&
        util::EqualsIgnoreCase(toks[1].text, "ANALYZE")) {
      analyze = true;
      strip = 2;
    }
    toks.erase(toks.begin(), toks.begin() + strip);
    if (toks.empty() || toks[0].kind == TokKind::kEnd) {
      return util::Status::ParseError("EXPLAIN requires a SELECT statement");
    }
  }
  bool is_select = toks[0].kind == TokKind::kIdent &&
                   util::EqualsIgnoreCase(toks[0].text, "SELECT");
  if (explain && !is_select) {
    return util::Status::ParseError("EXPLAIN supports only SELECT");
  }
  if (is_select) {
    // Plan tier: the token-stream fingerprint is computed before the
    // parser consumes the tokens, and a hit skips parse + plan + optimize
    // entirely. EXPLAIN variants share the entry with the plain SELECT
    // (the prefix was stripped above).
    QueryCache& qc = db->cache();
    const bool plan_cache_on = qc.config().mode != CacheConfig::Mode::kOff;
    QueryCache::Key key;
    PlanPtr optimized;
    if (plan_cache_on) {
      key = TokensKey(toks);
      optimized = qc.GetPlan(key, *db);
    } else {
      qc.RecordPlanBypass();
    }
    if (!optimized) {
      Parser parser(std::move(toks));
      FF_ASSIGN_OR_RETURN(SelectStmt stmt, parser.ParseSelect());
      FF_ASSIGN_OR_RETURN(PlanPtr plan, BuildSelectPlan(stmt));
      optimized = OptimizePlan(plan, *db);
      if (plan_cache_on) qc.PutPlan(key, *db, optimized);
    }
    if (explain && !analyze) {
      // Bare EXPLAIN: optimized plan tree, nothing executes.
      return PlanLinesResult(ExplainPlanLines(*optimized));
    }
    if (explain) {
      // EXPLAIN ANALYZE: run the statement (serial or parallel per the
      // database's config — results are byte-identical to the plain run
      // and are discarded) and render the annotated operator tree with
      // its cache=hit|miss|bypass header annotation.
      obs::QueryProfile profile;
      FF_RETURN_IF_ERROR(ExecuteOptimized(optimized, *db, &profile).status());
      return PlanLinesResult(profile.RenderLines());
    }
    return ExecuteOptimized(optimized, *db);
  }
  FF_ASSIGN_OR_RETURN(WriteStatement stmt, ParseWriteTokens(std::move(toks)));
  return ExecuteWrite(db, stmt);
}

util::StatusOr<WriteStatement> ParseWrite(const std::string& statement) {
  Lexer lexer(statement);
  FF_ASSIGN_OR_RETURN(std::vector<Token> toks, lexer.Tokenize());
  if (toks.empty() || toks[0].kind == TokKind::kEnd) {
    return util::Status::ParseError("empty statement");
  }
  if (toks[0].kind == TokKind::kIdent &&
      (util::EqualsIgnoreCase(toks[0].text, "SELECT") ||
       util::EqualsIgnoreCase(toks[0].text, "EXPLAIN"))) {
    return util::Status::ParseError("not a write statement");
  }
  return ParseWriteTokens(std::move(toks));
}

util::StatusOr<ResultSet> ExecuteWrite(Database* db,
                                       const WriteStatement& write) {
  auto& stmt = write.parsed->stmt;
  if (auto* create = std::get_if<CreateStmt>(&stmt)) {
    FF_ASSIGN_OR_RETURN(Schema schema, Schema::Create(create->columns));
    FF_RETURN_IF_ERROR(db->CreateTable(create->table, schema).status());
    return ResultSet{Schema(), {}};
  }
  if (auto* insert = std::get_if<InsertStmt>(&stmt)) {
    FF_ASSIGN_OR_RETURN(Table * t, db->table(insert->table));
    const auto inserted = static_cast<int64_t>(insert->rows.size());
    for (Row& row : insert->rows) {
      FF_RETURN_IF_ERROR(t->Insert(std::move(row)));
    }
    ResultSet rs;
    rs.schema = Schema({Column{"rows_inserted", DataType::kInt64}});
    rs.rows.push_back(Row{Value::Int64(inserted)});
    return rs;
  }
  if (auto* update = std::get_if<UpdateStmt>(&stmt)) {
    FF_ASSIGN_OR_RETURN(Table * t, db->table(update->table));
    const Schema& schema = t->schema();
    // Resolve target columns up front.
    std::vector<size_t> target_cols;
    for (const auto& [col, expr] : update->assignments) {
      FF_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col));
      target_cols.push_back(idx);
    }
    FF_ASSIGN_OR_RETURN(std::vector<size_t> ids,
                        MatchRows(update->table, update->where, *db));
    // Evaluate and type-check every assignment against the old rows
    // before the first write, so a failing statement changes nothing.
    size_t width = target_cols.size();
    std::vector<Value> values;  // row-major: ids.size() x width
    values.reserve(ids.size() * width);
    for (size_t id : ids) {
      Row old = t->row(id);
      for (const auto& [col, expr] : update->assignments) {
        FF_ASSIGN_OR_RETURN(Value v, expr->Eval(old, schema));
        values.push_back(std::move(v));
      }
      for (size_t a = 0; a < width; ++a) {
        Value& v = values[values.size() - width + a];
        FF_ASSIGN_OR_RETURN(v, t->CoerceCell(target_cols[a], std::move(v)));
      }
    }
    FF_RETURN_IF_ERROR(t->UpdateCells(ids, target_cols, std::move(values)));
    ResultSet rs;
    rs.schema = Schema({Column{"rows_updated", DataType::kInt64}});
    rs.rows.push_back(Row{Value::Int64(static_cast<int64_t>(ids.size()))});
    return rs;
  }
  auto& del = std::get<DeleteStmt>(stmt);
  FF_ASSIGN_OR_RETURN(Table * t, db->table(del.table));
  FF_ASSIGN_OR_RETURN(std::vector<size_t> victims,
                      MatchRows(del.table, del.where, *db));
  auto deleted = static_cast<int64_t>(victims.size());
  FF_RETURN_IF_ERROR(t->DeleteRows(std::move(victims)));
  ResultSet rs;
  rs.schema = Schema({Column{"rows_deleted", DataType::kInt64}});
  rs.rows.push_back(Row{Value::Int64(deleted)});
  return rs;
}

util::StatusOr<PreparedStatement> PrepareSql(Database* db,
                                             const std::string& statement) {
  if (db == nullptr) {
    return util::Status::InvalidArgument("null database");
  }
  Lexer lexer(statement);
  FF_ASSIGN_OR_RETURN(std::vector<Token> toks, lexer.Tokenize());
  if (toks.empty() || toks[0].kind == TokKind::kEnd) {
    return util::Status::ParseError("empty statement");
  }
  if (!(toks[0].kind == TokKind::kIdent &&
        util::EqualsIgnoreCase(toks[0].text, "SELECT"))) {
    return util::Status::ParseError("Prepare supports only SELECT");
  }
  PreparedStatement ps;
  ps.db_ = db;
  ps.sql_ = statement;

  // A parameterless template is just a SELECT compiled early — let it
  // share the text-keyed plan tier with Database::Sql traffic.
  bool has_params = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kSymbol && t.text == "?") has_params = true;
  }
  QueryCache& qc = db->cache();
  const bool share_plan_tier =
      !has_params && qc.config().mode != CacheConfig::Mode::kOff;
  QueryCache::Key key;
  if (share_plan_tier) {
    key = TokensKey(toks);
    ps.plan_ = qc.GetPlan(key, *db);
    if (ps.plan_) return ps;
  }

  Parser parser(std::move(toks), &ps.slots_);
  FF_ASSIGN_OR_RETURN(SelectStmt stmt, parser.ParseSelect());
  FF_ASSIGN_OR_RETURN(PlanPtr plan, BuildSelectPlan(stmt));
  ps.plan_ = OptimizePlan(plan, *db);
  if (share_plan_tier) qc.PutPlan(key, *db, ps.plan_);
  return ps;
}

util::StatusOr<ResultSet> PreparedStatement::Execute(
    const std::vector<Value>& params, obs::QueryProfile* profile) const {
  if (db_ == nullptr || plan_ == nullptr) {
    return util::Status::InvalidArgument("statement was not prepared");
  }
  if (params.size() != slots_.size()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "statement has %zu parameter(s), got %zu", slots_.size(),
        params.size()));
  }
  // The slots are shared with the ParamExprs baked into plan_; binding
  // them is what makes the (otherwise immutable) plan see the values.
  for (size_t i = 0; i < slots_.size(); ++i) {
    slots_[i]->value = params[i];
    slots_[i]->bound = true;
  }
  return ExecuteOptimized(plan_, *db_, profile);
}

util::StatusOr<PlanPtr> PlanSql(const std::string& statement) {
  Lexer lexer(statement);
  FF_ASSIGN_OR_RETURN(std::vector<Token> toks, lexer.Tokenize());
  if (toks.empty() || toks[0].kind == TokKind::kEnd) {
    return util::Status::ParseError("empty statement");
  }
  Parser parser(std::move(toks));
  if (!parser.PeekKeyword("SELECT")) {
    return util::Status::ParseError("PlanSql only accepts SELECT");
  }
  FF_ASSIGN_OR_RETURN(SelectStmt stmt, parser.ParseSelect());
  return BuildSelectPlan(stmt);
}

}  // namespace statsdb
}  // namespace ff
