#include <string>

#include "gtest/gtest.h"
#include "provenance/prediction_store.h"
#include "relational/catalog.h"
#include "relational/executor.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace rain {
namespace {

using sql::Lex;
using sql::ParseSelect;
using sql::PlanQuery;
using sql::SelectStmt;
using sql::Token;
using sql::TokenKind;

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto toks = Lex("select FROM WhErE");
  ASSERT_TRUE(toks.ok());
  EXPECT_TRUE((*toks)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*toks)[1].IsKeyword("FROM"));
  EXPECT_TRUE((*toks)[2].IsKeyword("WHERE"));
  EXPECT_EQ((*toks)[3].kind, TokenKind::kEnd);
}

TEST(LexerTest, NumbersAndStrings) {
  auto toks = Lex("42 3.14 'it''s'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokenKind::kInt);
  EXPECT_EQ((*toks)[0].text, "42");
  EXPECT_EQ((*toks)[1].kind, TokenKind::kFloat);
  EXPECT_EQ((*toks)[2].kind, TokenKind::kString);
  EXPECT_EQ((*toks)[2].text, "it's");
}

TEST(LexerTest, OperatorsIncludingTwoChar) {
  auto toks = Lex("<> != <= >= < > = ( ) , . *");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "<>");
  EXPECT_EQ((*toks)[1].text, "<>");  // != normalizes
  EXPECT_EQ((*toks)[2].text, "<=");
  EXPECT_EQ((*toks)[3].text, ">=");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Lex("SELECT 'oops").ok());
}

TEST(LexerTest, UnexpectedCharFails) { EXPECT_FALSE(Lex("SELECT #").ok()); }

TEST(ParserTest, CountStar) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM R WHERE predict(*) = 1");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->items.size(), 1u);
  EXPECT_TRUE(stmt->items[0].is_aggregate);
  EXPECT_EQ(stmt->items[0].agg_func, AggFunc::kCount);
  EXPECT_EQ(stmt->items[0].expr, nullptr);
  ASSERT_EQ(stmt->from.size(), 1u);
  EXPECT_EQ(stmt->from[0].table, "R");
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_TRUE(stmt->where->IsModelDependent());
}

TEST(ParserTest, ModelQualifiedPredict) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM Users U WHERE M.predict(U.*) = 'Churn'");
  ASSERT_TRUE(stmt.ok());
  // The predicate references the alias U via predict.
  EXPECT_EQ(stmt->where->children[0]->predict_alias, "U");
}

TEST(ParserTest, GroupByAndAvg) {
  auto stmt = ParseSelect(
      "SELECT gender, AVG(predict(*)) AS churn FROM Adult GROUP BY gender");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items.size(), 2u);
  EXPECT_FALSE(stmt->items[0].is_aggregate);
  EXPECT_TRUE(stmt->items[1].is_aggregate);
  EXPECT_EQ(stmt->items[1].agg_func, AggFunc::kAvg);
  EXPECT_EQ(stmt->items[1].alias, "churn");
  EXPECT_EQ(stmt->group_by.size(), 1u);
}

TEST(ParserTest, CommaJoinAndExplicitJoin) {
  auto comma = ParseSelect("SELECT * FROM A, B WHERE A.x = B.y");
  ASSERT_TRUE(comma.ok());
  EXPECT_TRUE(comma->select_star);
  EXPECT_EQ(comma->from.size(), 2u);
  EXPECT_EQ(comma->from[1].join_on, nullptr);

  auto join = ParseSelect("SELECT * FROM A JOIN B ON A.x = B.y");
  ASSERT_TRUE(join.ok());
  ASSERT_EQ(join->from.size(), 2u);
  EXPECT_NE(join->from[1].join_on, nullptr);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = ParseSelect("SELECT * FROM T WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(stmt.ok());
  // OR binds loosest: (a=1) OR ((b=2) AND (c=3)).
  EXPECT_EQ(stmt->where->logic, LogicalOp::kOr);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto stmt = ParseSelect("SELECT a + b * 2 AS v FROM T");
  ASSERT_TRUE(stmt.ok());
  const ExprPtr& e = stmt->items[0].expr;
  EXPECT_EQ(e->arith, ArithOp::kAdd);
  EXPECT_EQ(e->children[1]->arith, ArithOp::kMul);
}

TEST(ParserTest, LikePredicate) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM Enron WHERE text LIKE '%http%'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->kind, ExprKind::kLike);
  EXPECT_EQ(stmt->where->like_pattern, "%http%");
}

TEST(ParserTest, RejectsBadSyntax) {
  EXPECT_FALSE(ParseSelect("FROM T").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT SUM(*) FROM T").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM T WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM T trailing garbage (").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM T GROUP BY").ok());
}

TEST(ParserTest, DeepNestingIsAParseErrorNotAStackOverflow) {
  // Each nesting level costs several frames of recursive descent, so
  // 10^5 unbounded levels would overflow the stack.
  const int kDeep = 100000;
  std::string not_chain = "SELECT * FROM T WHERE ";
  std::string minus_chain = "SELECT * FROM T WHERE a = ";
  for (int i = 0; i < kDeep; ++i) {
    not_chain += "NOT ";
    minus_chain += "-";
  }
  not_chain += "a = 1";
  minus_chain += "1";
  for (const std::string& q :
       {"SELECT " + std::string(kDeep, '(') + "1" + std::string(kDeep, ')') + " FROM T",
        not_chain, minus_chain}) {
    auto stmt = ParseSelect(q);
    ASSERT_FALSE(stmt.ok());
    EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
  }
  // Ordinary nesting still parses.
  EXPECT_TRUE(ParseSelect("SELECT ((((a)))) FROM T WHERE NOT NOT -(-(a)) = 1").ok());
}

TEST(ParserTest, LongOperatorChainIsAParseErrorNotAStackOverflow) {
  // `1+1+…+1` builds a left-deep tree as deep as the chain, and the tree
  // is walked and destroyed recursively: 10^6 terms must be refused.
  const int kTerms = 1000000;
  std::string plus = "SELECT * FROM T WHERE a = 1";
  std::string conj = "SELECT * FROM T WHERE a = 1";
  for (int i = 1; i < kTerms; ++i) {
    plus += "+1";
    conj += " AND a = 1";
  }
  for (const std::string& q : {plus, conj}) {
    auto stmt = ParseSelect(q);
    ASSERT_FALSE(stmt.ok());
    EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
  }
  // Depth adds up across parentheses: a 200-term chain inside another.
  std::string inner = "(1";
  for (int i = 1; i < 200; ++i) inner += "*1";
  inner += ")";
  std::string outer = "SELECT * FROM T WHERE a = " + inner;
  for (int i = 1; i < 200; ++i) outer += "-1";
  auto nested = ParseSelect(outer);
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kParseError);
  // Ordinary chains still parse.
  std::string ok = "SELECT * FROM T WHERE a = 1";
  for (int i = 1; i < 100; ++i) ok += " OR a = " + std::to_string(i) + "+1*2-3/4";
  EXPECT_TRUE(ParseSelect(ok).ok());
}

TEST(ParserTest, OutOfRangeLiteralsAreInvalidArgument) {
  // Literals the lexer accepts but an int64 / double cannot hold: an error
  // status, not an exception out of the parser.
  const std::string huge_float = std::string(400, '9') + ".5";
  for (const std::string& q :
       {std::string("SELECT * FROM T WHERE a > 99999999999999999999"),
        "SELECT * FROM T WHERE a > " + huge_float,
        std::string("SELECT * FROM T LIMIT 99999999999999999999")}) {
    auto stmt = ParseSelect(q);
    ASSERT_FALSE(stmt.ok()) << q;
    EXPECT_EQ(stmt.status().code(), StatusCode::kInvalidArgument) << q;
  }
  // The largest int64 still parses.
  auto max = ParseSelect("SELECT * FROM T WHERE a > 9223372036854775807");
  ASSERT_TRUE(max.ok());
}

/// Planner fixture with two tables, one of them predictable.
class PlannerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Table users(Schema({Field{"id", DataType::kInt64, ""},
                        Field{"city", DataType::kString, ""}}));
    users.AppendRowUnchecked({Value(int64_t{0}), Value(std::string("ny"))});
    users.AppendRowUnchecked({Value(int64_t{1}), Value(std::string("sf"))});
    Matrix f(2, 2, 0.0);
    ASSERT_TRUE(
        catalog_.AddTable("users", std::move(users), Dataset(std::move(f), {0, 1}, 2))
            .ok());
    Table logins(Schema({Field{"uid", DataType::kInt64, ""},
                         Field{"active", DataType::kBool, ""}}));
    logins.AppendRowUnchecked({Value(int64_t{0}), Value(true)});
    logins.AppendRowUnchecked({Value(int64_t{1}), Value(false)});
    ASSERT_TRUE(catalog_.AddTable("logins", std::move(logins)).ok());

    Matrix probs(2, 2);
    probs.SetRow(0, {0.9, 0.1});
    probs.SetRow(1, {0.2, 0.8});
    predictions_.SetPredictions(0, std::move(probs));
  }

  Result<ExecResult> RunSql(const std::string& q, bool debug = false) {
    auto plan = PlanQuery(q, catalog_);
    if (!plan.ok()) return plan.status();
    Executor ex(&catalog_, &predictions_, &arena_);
    ExecOptions opts;
    opts.debug_mode = debug;
    return ex.Run(*plan, opts);
  }

  Catalog catalog_;
  PredictionStore predictions_;
  PolyArena arena_;
};

TEST_F(PlannerFixture, SimpleCount) {
  auto r = RunSql("SELECT COUNT(*) FROM users");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.rows[0][0].AsInt64(), 2);
}

TEST_F(PlannerFixture, PredictStarResolvesSingleTable) {
  auto r = RunSql("SELECT COUNT(*) FROM users WHERE predict(*) = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.rows[0][0].AsInt64(), 1);
}

TEST_F(PlannerFixture, PredictStarAmbiguousWithTwoTables) {
  EXPECT_FALSE(
      RunSql("SELECT COUNT(*) FROM users, logins WHERE predict(*) = 1").ok());
}

TEST_F(PlannerFixture, CommaJoinPushesEquiPredicate) {
  auto r = RunSql(
      "SELECT COUNT(*) FROM users U, logins L WHERE U.id = L.uid AND L.active");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.rows[0][0].AsInt64(), 1);
}

TEST_F(PlannerFixture, ExplicitJoinWithWhere) {
  auto r = RunSql(
      "SELECT COUNT(*) FROM users U JOIN logins L ON U.id = L.uid "
      "WHERE L.active AND M.predict(U.*) = 1");
  ASSERT_TRUE(r.ok());
  // Only user 0 is active, and it is predicted class 0 -> count 0.
  EXPECT_EQ(r->table.rows[0][0].AsInt64(), 0);
}

TEST_F(PlannerFixture, SelectStarProjectsJoin) {
  auto r = RunSql("SELECT * FROM users U, logins L WHERE U.id = L.uid");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.schema.num_fields(), 4u);
  EXPECT_EQ(r->table.num_rows(), 2u);
}

TEST_F(PlannerFixture, ProjectionWithAliases) {
  auto r = RunSql("SELECT id AS uid, city FROM users");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.schema.field(0).name, "uid");
  EXPECT_EQ(r->table.schema.field(1).name, "city");
}

TEST_F(PlannerFixture, GroupBySql) {
  auto r = RunSql("SELECT city, COUNT(*) AS n FROM users GROUP BY city");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.num_rows(), 2u);
}

TEST_F(PlannerFixture, NonGroupKeySelectItemRejected) {
  EXPECT_FALSE(RunSql("SELECT id, COUNT(*) FROM users GROUP BY city").ok());
}

TEST_F(PlannerFixture, UnknownTableRejected) {
  EXPECT_FALSE(RunSql("SELECT COUNT(*) FROM missing").ok());
}

TEST_F(PlannerFixture, UnknownColumnRejected) {
  EXPECT_FALSE(RunSql("SELECT COUNT(*) FROM users WHERE salary > 3").ok());
}

TEST_F(PlannerFixture, DebugModeCapturesPolyViaSql) {
  auto r = RunSql("SELECT COUNT(*) AS cnt FROM users WHERE predict(*) = 1", true);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->is_aggregate);
  ASSERT_EQ(r->agg_polys.size(), 1u);
  const Vec relaxed = predictions_.RelaxedAssignment(arena_);
  EXPECT_NEAR(arena_.Evaluate(r->agg_polys[0][0], relaxed), 0.1 + 0.8, 1e-12);
}

TEST_F(PlannerFixture, PredictionJoinSql) {
  auto r = RunSql(
      "SELECT COUNT(*) FROM users U, users2 V WHERE predict(U.*) = predict(V.*)");
  // users2 does not exist.
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace rain
