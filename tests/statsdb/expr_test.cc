#include "statsdb/expr.h"

#include <gtest/gtest.h>

#include <ostream>

namespace ff {
namespace statsdb {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  Schema schema_{{{"name", DataType::kString},
                  {"day", DataType::kInt64},
                  {"walltime", DataType::kDouble},
                  {"done", DataType::kBool}}};
  Row row_{Value::String("tillamook"), Value::Int64(21),
           Value::Double(40000.0), Value::Bool(true)};

  Value Eval(const ExprPtr& e) {
    auto v = e->Eval(row_, schema_);
    EXPECT_TRUE(v.ok()) << v.status();
    return v.ok() ? *v : Value::Null();
  }
};

TEST_F(ExprTest, LiteralsEvaluateToThemselves) {
  EXPECT_EQ(Eval(LitInt(5)).int64_value(), 5);
  EXPECT_DOUBLE_EQ(Eval(LitDouble(2.5)).double_value(), 2.5);
  EXPECT_EQ(Eval(LitString("x")).string_value(), "x");
  EXPECT_TRUE(Eval(LitBool(true)).bool_value());
  EXPECT_TRUE(Eval(LitNull()).is_null());
}

TEST_F(ExprTest, ColumnRefResolvesByName) {
  EXPECT_EQ(Eval(Col("name")).string_value(), "tillamook");
  EXPECT_EQ(Eval(Col("DAY")).int64_value(), 21);
  auto missing = Col("ghost")->Eval(row_, schema_);
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST_F(ExprTest, Comparisons) {
  EXPECT_TRUE(Eval(Eq(Col("day"), LitInt(21))).bool_value());
  EXPECT_FALSE(Eval(Ne(Col("day"), LitInt(21))).bool_value());
  EXPECT_TRUE(Eval(Lt(Col("day"), LitInt(22))).bool_value());
  EXPECT_TRUE(Eval(Le(Col("day"), LitInt(21))).bool_value());
  EXPECT_TRUE(Eval(Gt(Col("walltime"), LitInt(30000))).bool_value());
  EXPECT_TRUE(Eval(Ge(Col("walltime"), LitDouble(40000.0))).bool_value());
}

TEST_F(ExprTest, MixedNumericComparison) {
  EXPECT_TRUE(Eval(Eq(Col("day"), LitDouble(21.0))).bool_value());
}

TEST_F(ExprTest, IncomparableTypesError) {
  auto v = Eq(Col("name"), LitInt(3))->Eval(row_, schema_);
  EXPECT_FALSE(v.ok());
  EXPECT_FALSE(Eq(Col("name"), LitInt(3))->ResultType(schema_).ok());
}

TEST_F(ExprTest, NullComparisonYieldsNull) {
  EXPECT_TRUE(Eval(Eq(Col("day"), LitNull())).is_null());
  EXPECT_TRUE(Eval(Lt(LitNull(), LitNull())).is_null());
}

TEST_F(ExprTest, Arithmetic) {
  EXPECT_EQ(Eval(Add(Col("day"), LitInt(4))).int64_value(), 25);
  EXPECT_EQ(Eval(Sub(LitInt(1), LitInt(5))).int64_value(), -4);
  EXPECT_EQ(Eval(Mul(LitInt(6), LitInt(7))).int64_value(), 42);
  // '/' always yields double.
  EXPECT_DOUBLE_EQ(Eval(Div(LitInt(7), LitInt(2))).double_value(), 3.5);
  EXPECT_DOUBLE_EQ(
      Eval(Mul(Col("walltime"), LitDouble(2.0))).double_value(), 80000.0);
}

TEST_F(ExprTest, DivisionByZeroError) {
  EXPECT_FALSE(Div(LitInt(1), LitInt(0))->Eval(row_, schema_).ok());
  EXPECT_FALSE(
      Binary(BinaryOp::kMod, LitInt(1), LitInt(0))->Eval(row_, schema_)
          .ok());
}

TEST_F(ExprTest, NullPropagatesThroughArithmetic) {
  EXPECT_TRUE(Eval(Add(Col("day"), LitNull())).is_null());
}

TEST_F(ExprTest, KleeneLogic) {
  auto T = LitBool(true), F = LitBool(false), N = LitNull();
  EXPECT_FALSE(Eval(And(T, F)).bool_value());
  EXPECT_TRUE(Eval(And(T, T)).bool_value());
  // FALSE AND NULL = FALSE (not NULL).
  EXPECT_FALSE(Eval(And(F, N)).bool_value());
  EXPECT_TRUE(Eval(And(T, N)).is_null());
  // TRUE OR NULL = TRUE.
  EXPECT_TRUE(Eval(Or(T, N)).bool_value());
  EXPECT_TRUE(Eval(Or(F, N)).is_null());
  EXPECT_TRUE(Eval(Not(F)).bool_value());
  EXPECT_TRUE(Eval(Not(N)).is_null());
}

TEST_F(ExprTest, IsNullOperators) {
  EXPECT_FALSE(Eval(IsNull(Col("day"))).bool_value());
  EXPECT_TRUE(Eval(IsNull(LitNull())).bool_value());
  EXPECT_TRUE(Eval(IsNotNull(Col("day"))).bool_value());
}

TEST_F(ExprTest, Negation) {
  EXPECT_EQ(Eval(Unary(UnaryOp::kNeg, Col("day"))).int64_value(), -21);
  EXPECT_DOUBLE_EQ(
      Eval(Unary(UnaryOp::kNeg, LitDouble(2.5))).double_value(), -2.5);
  EXPECT_FALSE(
      Unary(UnaryOp::kNeg, Col("name"))->Eval(row_, schema_).ok());
}

TEST_F(ExprTest, LikeOperator) {
  EXPECT_TRUE(Eval(Like(Col("name"), LitString("till%"))).bool_value());
  EXPECT_TRUE(Eval(Like(Col("name"), LitString("%mook"))).bool_value());
  EXPECT_TRUE(Eval(Like(Col("name"), LitString("till_mook"))).bool_value());
  EXPECT_FALSE(Eval(Like(Col("name"), LitString("dev%"))).bool_value());
}

TEST_F(ExprTest, ResultTypeInference) {
  EXPECT_EQ(*Eq(Col("day"), LitInt(1))->ResultType(schema_),
            DataType::kBool);
  EXPECT_EQ(*Add(Col("day"), LitInt(1))->ResultType(schema_),
            DataType::kInt64);
  EXPECT_EQ(*Add(Col("day"), Col("walltime"))->ResultType(schema_),
            DataType::kDouble);
  EXPECT_EQ(*Div(Col("day"), LitInt(2))->ResultType(schema_),
            DataType::kDouble);
  EXPECT_FALSE(And(Col("day"), LitBool(true))->ResultType(schema_).ok());
}

TEST_F(ExprTest, ToStringRendering) {
  EXPECT_EQ(Eq(Col("day"), LitInt(21))->ToString(), "(day = 21)");
  EXPECT_EQ(Like(Col("name"), LitString("a%"))->ToString(),
            "(name LIKE 'a%')");
  EXPECT_EQ(IsNull(Col("walltime"))->ToString(), "(walltime IS NULL)");
}

// LIKE pattern sweep.
struct LikeCase {
  const char* text;
  const char* pattern;
  bool match;
};

// ctest names each case after its printed parameter; gtest's default byte
// dump would print the string pointers, which move with every build.
void PrintTo(const LikeCase& c, std::ostream* os) {
  *os << "'" << c.text << "' LIKE '" << c.pattern << "' is "
      << (c.match ? "true" : "false");
}

class LikeMatchSweep : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchSweep, Matches) {
  const auto& p = GetParam();
  EXPECT_EQ(LikeMatch(p.text, p.pattern), p.match)
      << p.text << " LIKE " << p.pattern;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LikeMatchSweep,
    ::testing::Values(
        LikeCase{"", "", true}, LikeCase{"", "%", true},
        LikeCase{"a", "", false}, LikeCase{"abc", "abc", true},
        LikeCase{"abc", "a%", true}, LikeCase{"abc", "%c", true},
        LikeCase{"abc", "%b%", true}, LikeCase{"abc", "a_c", true},
        LikeCase{"abc", "a_d", false}, LikeCase{"abc", "____", false},
        LikeCase{"abc", "___", true}, LikeCase{"abc", "%%", true},
        LikeCase{"elcirc-5.01", "elcirc%", true},
        LikeCase{"elcirc-5.01", "%5.01", true},
        LikeCase{"aaa", "a%a", true}, LikeCase{"ab", "b%a", false},
        LikeCase{"mississippi", "%iss%ppi", true},
        LikeCase{"mississippi", "%iss%ppx", false}));

}  // namespace
}  // namespace statsdb
}  // namespace ff
