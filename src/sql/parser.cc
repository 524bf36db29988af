#include "sql/parser.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "common/string_util.h"
#include "sql/lexer.h"

namespace rain {
namespace sql {
namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStmt> Parse() {
    RAIN_RETURN_NOT_OK(Expect("SELECT"));
    SelectStmt stmt;
    RAIN_RETURN_NOT_OK(ParseSelectList(&stmt));
    RAIN_RETURN_NOT_OK(Expect("FROM"));
    RAIN_RETURN_NOT_OK(ParseFrom(&stmt));
    if (AcceptKeyword("WHERE")) {
      RAIN_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (AcceptKeyword("GROUP")) {
      RAIN_RETURN_NOT_OK(Expect("BY"));
      for (;;) {
        RAIN_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt.group_by.push_back(std::move(e));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("ORDER")) {
      RAIN_RETURN_NOT_OK(Expect("BY"));
      for (;;) {
        OrderKey key;
        RAIN_ASSIGN_OR_RETURN(key.expr, ParseExpr());
        if (AcceptKeyword("DESC")) {
          key.ascending = false;
        } else {
          AcceptKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(key));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (Cur().kind != TokenKind::kInt) return Err("expected integer after LIMIT");
      RAIN_ASSIGN_OR_RETURN(stmt.limit, IntLiteral());
      Advance();
    }
    if (Cur().kind != TokenKind::kEnd) {
      return Err("unexpected trailing input");
    }
    return stmt;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t k = 1) const {
    return tokens_[std::min(pos_ + k, tokens_.size() - 1)];
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  Status Err(const std::string& msg) const {
    return Status::ParseError(
        StrFormat("%s near offset %zu (token '%s')", msg.c_str(), Cur().offset,
                  Cur().text.c_str()));
  }

  /// Numeric literals come from untrusted query text: one the lexer accepts
  /// but a double or int64 cannot hold is an InvalidArgument, not a throw.
  Status OutOfRange() const {
    return Status::InvalidArgument(
        StrFormat("numeric literal out of range near offset %zu (token '%s')",
                  Cur().offset, Cur().text.c_str()));
  }
  Result<int64_t> IntLiteral() const {
    errno = 0;
    const long long v = std::strtoll(Cur().text.c_str(), nullptr, 10);
    if (errno == ERANGE) return OutOfRange();
    return static_cast<int64_t>(v);
  }
  Result<double> FloatLiteral() const {
    errno = 0;
    const double v = std::strtod(Cur().text.c_str(), nullptr);
    if (errno == ERANGE) return OutOfRange();
    return v;
  }

  bool AcceptKeyword(const char* kw) {
    if (Cur().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptSymbol(const char* s) {
    if (Cur().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(const char* kw) {
    if (!AcceptKeyword(kw)) return Err(std::string("expected ") + kw);
    return Status::OK();
  }
  Status ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) return Err(std::string("expected '") + s + "'");
    return Status::OK();
  }

  static bool IsAggKeyword(const Token& t, AggFunc* func) {
    if (t.IsKeyword("COUNT")) {
      *func = AggFunc::kCount;
      return true;
    }
    if (t.IsKeyword("SUM")) {
      *func = AggFunc::kSum;
      return true;
    }
    if (t.IsKeyword("AVG")) {
      *func = AggFunc::kAvg;
      return true;
    }
    return false;
  }

  Status ParseSelectList(SelectStmt* stmt) {
    if (Cur().IsSymbol("*")) {
      Advance();
      stmt->select_star = true;
      return Status::OK();
    }
    for (;;) {
      SelectItem item;
      AggFunc func;
      if (IsAggKeyword(Cur(), &func)) {
        Advance();
        RAIN_RETURN_NOT_OK(ExpectSymbol("("));
        item.is_aggregate = true;
        item.agg_func = func;
        if (Cur().IsSymbol("*")) {
          Advance();
          if (func != AggFunc::kCount) return Err("only COUNT accepts '*'");
          item.expr = nullptr;
        } else {
          RAIN_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        }
        RAIN_RETURN_NOT_OK(ExpectSymbol(")"));
      } else {
        RAIN_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      }
      if (AcceptKeyword("AS")) {
        if (Cur().kind != TokenKind::kIdent) return Err("expected alias after AS");
        item.alias = Cur().text;
        Advance();
      }
      stmt->items.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
    return Status::OK();
  }

  Status ParseTableRef(TableRef* ref) {
    if (Cur().kind != TokenKind::kIdent) return Err("expected table name");
    ref->table = Cur().text;
    Advance();
    if (Cur().kind == TokenKind::kIdent) {
      ref->alias = Cur().text;
      Advance();
    } else {
      ref->alias = ref->table;
    }
    return Status::OK();
  }

  Status ParseFrom(SelectStmt* stmt) {
    TableRef first;
    RAIN_RETURN_NOT_OK(ParseTableRef(&first));
    stmt->from.push_back(std::move(first));
    for (;;) {
      if (AcceptSymbol(",")) {
        TableRef ref;
        RAIN_RETURN_NOT_OK(ParseTableRef(&ref));
        stmt->from.push_back(std::move(ref));
        continue;
      }
      if (AcceptKeyword("JOIN")) {
        TableRef jref;
        RAIN_RETURN_NOT_OK(ParseTableRef(&jref));
        RAIN_RETURN_NOT_OK(Expect("ON"));
        RAIN_ASSIGN_OR_RETURN(jref.join_on, ParseExpr());
        stmt->from.push_back(std::move(jref));
        continue;
      }
      return Status::OK();
    }
  }

  /// Expressions nested deeper than this are a ParseError. Parentheses,
  /// NOT and unary minus each count one level, and so does each operator
  /// of a chain such as `1+1+…+1`, which builds a tree as deep as the
  /// chain. Every level costs several frames of recursive descent or of
  /// the tree's recursive walks, and SQL text must not be able to
  /// overflow the stack.
  static constexpr int kMaxNesting = 256;

  /// parse() one nesting level down.
  template <typename Parse>
  Result<ExprPtr> Nested(Parse parse) {
    if (nesting_ == kMaxNesting) return Err("expression nested too deeply");
    ++nesting_;
    peak_ = std::max(peak_, nesting_);
    Result<ExprPtr> e = parse();
    --nesting_;
    return e;
  }

  /// Measures a left-deep operator chain `x op y op z …`. Each operand is
  /// parsed at the chain's own nesting level, and peak_ tells how deep it
  /// went; the chain's depth is then max(left, right) + 1 per operator,
  /// which must stay within kMaxNesting. On exit the chain leaves its
  /// depth in peak_ for whatever encloses it.
  class Chain {
   public:
    explicit Chain(Parser* p) : p_(p), base_(p->nesting_), saved_peak_(p->peak_) {}
    ~Chain() { p_->peak_ = std::max(saved_peak_, base_ + depth_); }

    template <typename Parse>
    Result<ExprPtr> First(Parse parse) {
      p_->peak_ = base_;
      Result<ExprPtr> e = parse();
      depth_ = p_->peak_ - base_;
      return e;
    }

    /// The operand after one more operator.
    template <typename Parse>
    Result<ExprPtr> Next(Parse parse) {
      p_->peak_ = base_;
      Result<ExprPtr> e = parse();
      depth_ = std::max(depth_, p_->peak_ - base_) + 1;
      if (e.ok() && base_ + depth_ > kMaxNesting) {
        return p_->Err("expression nested too deeply");
      }
      return e;
    }

   private:
    Parser* p_;
    int base_;
    int saved_peak_;
    int depth_ = 0;
  };

  // Expression grammar: or > and > not > comparison/LIKE > add > mul > unary.
  Result<ExprPtr> ParseExpr() {
    return Nested([this] { return ParseOr(); });
  }

  Result<ExprPtr> ParseOr() {
    Chain chain(this);
    auto operand = [this] { return ParseAnd(); };
    RAIN_ASSIGN_OR_RETURN(ExprPtr left, chain.First(operand));
    while (AcceptKeyword("OR")) {
      RAIN_ASSIGN_OR_RETURN(ExprPtr right, chain.Next(operand));
      left = Expr::Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    Chain chain(this);
    auto operand = [this] { return ParseNot(); };
    RAIN_ASSIGN_OR_RETURN(ExprPtr left, chain.First(operand));
    while (AcceptKeyword("AND")) {
      RAIN_ASSIGN_OR_RETURN(ExprPtr right, chain.Next(operand));
      left = Expr::And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      RAIN_ASSIGN_OR_RETURN(ExprPtr c, Nested([this] { return ParseNot(); }));
      return Expr::Not(std::move(c));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    RAIN_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    if (AcceptKeyword("LIKE")) {
      if (Cur().kind != TokenKind::kString) return Err("expected pattern after LIKE");
      std::string pattern = Cur().text;
      Advance();
      return Expr::Like(std::move(left), std::move(pattern));
    }
    struct OpMap {
      const char* sym;
      CompareOp op;
    };
    static constexpr OpMap kOps[] = {{"=", CompareOp::kEq},  {"<>", CompareOp::kNe},
                                     {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
                                     {"<", CompareOp::kLt},  {">", CompareOp::kGt}};
    for (const auto& m : kOps) {
      if (Cur().IsSymbol(m.sym)) {
        Advance();
        RAIN_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return Expr::Compare(m.op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  Result<ExprPtr> ParseAdditive() {
    Chain chain(this);
    auto operand = [this] { return ParseMultiplicative(); };
    RAIN_ASSIGN_OR_RETURN(ExprPtr left, chain.First(operand));
    for (;;) {
      if (AcceptSymbol("+")) {
        RAIN_ASSIGN_OR_RETURN(ExprPtr r, chain.Next(operand));
        left = Expr::Arith(ArithOp::kAdd, std::move(left), std::move(r));
      } else if (AcceptSymbol("-")) {
        RAIN_ASSIGN_OR_RETURN(ExprPtr r, chain.Next(operand));
        left = Expr::Arith(ArithOp::kSub, std::move(left), std::move(r));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    Chain chain(this);
    auto operand = [this] { return ParseUnary(); };
    RAIN_ASSIGN_OR_RETURN(ExprPtr left, chain.First(operand));
    for (;;) {
      if (AcceptSymbol("*")) {
        RAIN_ASSIGN_OR_RETURN(ExprPtr r, chain.Next(operand));
        left = Expr::Arith(ArithOp::kMul, std::move(left), std::move(r));
      } else if (AcceptSymbol("/")) {
        RAIN_ASSIGN_OR_RETURN(ExprPtr r, chain.Next(operand));
        left = Expr::Arith(ArithOp::kDiv, std::move(left), std::move(r));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (AcceptSymbol("-")) {
      RAIN_ASSIGN_OR_RETURN(ExprPtr c, Nested([this] { return ParseUnary(); }));
      return Expr::Arith(ArithOp::kSub, Expr::LitInt(0), std::move(c));
    }
    return ParsePrimary();
  }

  /// predict-call argument: `alias`, `alias.*`, or `*`.
  Result<ExprPtr> ParsePredictCall() {
    RAIN_RETURN_NOT_OK(ExpectSymbol("("));
    std::string alias;
    if (Cur().IsSymbol("*")) {
      Advance();
      // predict(*): unique FROM table; resolved by the planner (empty alias).
    } else if (Cur().kind == TokenKind::kIdent) {
      alias = Cur().text;
      Advance();
      if (AcceptSymbol(".")) {
        RAIN_RETURN_NOT_OK(ExpectSymbol("*"));
      }
    } else {
      return Err("expected alias or '*' inside predict()");
    }
    RAIN_RETURN_NOT_OK(ExpectSymbol(")"));
    return Expr::Predict(std::move(alias));
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Cur();
    switch (t.kind) {
      case TokenKind::kInt: {
        RAIN_ASSIGN_OR_RETURN(const int64_t v, IntLiteral());
        Advance();
        return Expr::LitInt(v);
      }
      case TokenKind::kFloat: {
        RAIN_ASSIGN_OR_RETURN(const double v, FloatLiteral());
        Advance();
        return Expr::LitDouble(v);
      }
      case TokenKind::kString: {
        std::string s = t.text;
        Advance();
        return Expr::LitString(std::move(s));
      }
      case TokenKind::kKeyword: {
        if (t.IsKeyword("TRUE")) {
          Advance();
          return Expr::LitBool(true);
        }
        if (t.IsKeyword("FALSE")) {
          Advance();
          return Expr::LitBool(false);
        }
        if (t.IsKeyword("PREDICT")) {
          Advance();
          return ParsePredictCall();
        }
        return Err("unexpected keyword in expression");
      }
      case TokenKind::kIdent: {
        std::string first = t.text;
        Advance();
        if (AcceptSymbol(".")) {
          if (Cur().IsKeyword("PREDICT")) {
            // model.predict(...): the model qualifier is ignored.
            Advance();
            return ParsePredictCall();
          }
          if (Cur().kind != TokenKind::kIdent) {
            return Err("expected column name after '.'");
          }
          std::string col = Cur().text;
          Advance();
          return Expr::Column(std::move(col), std::move(first));
        }
        return Expr::Column(std::move(first));
      }
      case TokenKind::kSymbol: {
        if (t.IsSymbol("(")) {
          Advance();
          RAIN_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          RAIN_RETURN_NOT_OK(ExpectSymbol(")"));
          return e;
        }
        return Err("unexpected symbol in expression");
      }
      case TokenKind::kEnd:
        return Err("unexpected end of query");
    }
    return Err("unexpected token");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int nesting_ = 0;
  /// Deepest nesting level reached since the innermost Chain last reset it.
  int peak_ = 0;
};

}  // namespace

Result<SelectStmt> ParseSelect(const std::string& query) {
  RAIN_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(query));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace sql
}  // namespace rain
