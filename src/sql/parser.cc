#include "sql/parser.h"

#include <cctype>

#include "sql/lexer.h"

namespace nestra {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<AstSelectPtr> ParseSingle() {
    NESTRA_ASSIGN_OR_RETURN(AstSelectPtr sel, ParseSelectStmt());
    if (!Check(TokenKind::kEof)) {
      return Error("trailing input after statement");
    }
    return sel;
  }

  Result<AstStatementPtr> ParseCompound() {
    auto stmt = std::make_unique<AstStatement>();
    NESTRA_ASSIGN_OR_RETURN(AstSelectPtr first, ParseSelectStmt());
    stmt->selects.push_back(std::move(first));
    while (Check(TokenKind::kUnion) || Check(TokenKind::kIntersect) ||
           Check(TokenKind::kExcept)) {
      AstStatement::SetOp op;
      if (Match(TokenKind::kUnion)) {
        op = Match(TokenKind::kAll) ? AstStatement::SetOp::kUnionAll
                                    : AstStatement::SetOp::kUnion;
      } else if (Match(TokenKind::kIntersect)) {
        op = AstStatement::SetOp::kIntersect;
      } else {
        Advance();  // EXCEPT
        op = AstStatement::SetOp::kExcept;
      }
      NESTRA_ASSIGN_OR_RETURN(AstSelectPtr next, ParseSelectStmt());
      stmt->ops.push_back(op);
      stmt->selects.push_back(std::move(next));
    }
    if (!Check(TokenKind::kEof)) {
      return Error("trailing input after statement");
    }
    if (stmt->IsCompound()) {
      for (const AstSelectPtr& sel : stmt->selects) {
        if (!sel->order_by.empty() || sel->limit >= 0) {
          return Status::ParseError(
              "ORDER BY / LIMIT are not supported in compound (set "
              "operation) statements");
        }
      }
    }
    return stmt;
  }

 private:
  // Nesting levels entered by one parse function, left on return.
  class Levels {
   public:
    explicit Levels(Parser* parser) : parser_(parser) {}
    ~Levels() { parser_->depth_ -= entered_; }
    Levels(const Levels&) = delete;
    Levels& operator=(const Levels&) = delete;

    // Enters one more level; a ParseError past kMaxNestingDepth.
    Status Enter() {
      ++entered_;
      if (++parser_->depth_ <= kMaxNestingDepth) return Status::OK();
      parser_->too_deep_ = true;
      return Status::ParseError(
          "statement nested deeper than " + std::to_string(kMaxNestingDepth) +
          " levels (near position " +
          std::to_string(parser_->Peek().position) + ")");
    }

   private:
    Parser* parser_;
    int entered_ = 0;
  };

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Peek2() const {
    return tokens_[pos_ + 1 < tokens_.size() ? pos_ + 1 : pos_];
  }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    ++pos_;
    return true;
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " (near position " +
                              std::to_string(Peek().position) + ", got " +
                              TokenKindToString(Peek().kind) + ")");
  }

  Status Expect(TokenKind kind, const char* what) {
    if (Match(kind)) return Status::OK();
    return Error(std::string("expected ") + what);
  }

  // Parses "agg(col)" / "count(*)"; the caller verified the lookahead.
  Result<std::pair<LinkAgg, std::string>> ParseAggCall() {
    LinkAgg func;
    if (!AggNameToFunc(Advance().text, &func)) {
      return Error("expected an aggregate function name");
    }
    NESTRA_RETURN_NOT_OK(Expect(TokenKind::kLParen, "("));
    std::string column;
    if (Match(TokenKind::kStar)) {
      if (func != LinkAgg::kCount) {
        return Error("'*' argument is only valid for count()");
      }
      func = LinkAgg::kCountStar;
    } else {
      NESTRA_ASSIGN_OR_RETURN(column, ParseColumnName());
    }
    NESTRA_RETURN_NOT_OK(Expect(TokenKind::kRParen, ")"));
    return std::make_pair(func, std::move(column));
  }

  bool AtAggCall() {
    LinkAgg ignored;
    return Check(TokenKind::kIdent) && Peek2().kind == TokenKind::kLParen &&
           AggNameToFunc(Peek().text, &ignored);
  }

  Result<AstSelectItem> ParseSelectItem() {
    AstSelectItem item;
    if (AtAggCall()) {
      NESTRA_ASSIGN_OR_RETURN(auto call, ParseAggCall());
      item.is_agg = true;
      item.agg = call.first;
      item.column = std::move(call.second);
      return item;
    }
    NESTRA_ASSIGN_OR_RETURN(item.column, ParseColumnName());
    return item;
  }

  Result<std::string> ParseColumnName() {
    if (!Check(TokenKind::kIdent)) return Error("expected column name");
    std::string name = Advance().text;
    if (Match(TokenKind::kDot)) {
      if (!Check(TokenKind::kIdent)) {
        return Error("expected column name after '.'");
      }
      name += "." + Advance().text;
    }
    return name;
  }

  static bool AggNameToFunc(const std::string& ident, LinkAgg* out) {
    std::string lower = ident;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower == "count") {
      *out = LinkAgg::kCount;
    } else if (lower == "sum") {
      *out = LinkAgg::kSum;
    } else if (lower == "min") {
      *out = LinkAgg::kMin;
    } else if (lower == "max") {
      *out = LinkAgg::kMax;
    } else if (lower == "avg") {
      *out = LinkAgg::kAvg;
    } else {
      return false;
    }
    return true;
  }

  Result<AstSelectPtr> ParseSelectStmt() {
    Levels levels(this);
    NESTRA_RETURN_NOT_OK(levels.Enter());
    NESTRA_RETURN_NOT_OK(Expect(TokenKind::kSelect, "SELECT"));
    auto sel = std::make_unique<AstSelect>();
    sel->distinct = Match(TokenKind::kDistinct);
    if (Match(TokenKind::kStar)) {
      sel->select_star = true;
    } else {
      do {
        NESTRA_ASSIGN_OR_RETURN(AstSelectItem item, ParseSelectItem());
        sel->items.push_back(std::move(item));
      } while (Match(TokenKind::kComma));
    }
    NESTRA_RETURN_NOT_OK(Expect(TokenKind::kFrom, "FROM"));
    do {
      if (!Check(TokenKind::kIdent)) return Error("expected table name");
      AstTableRef ref;
      ref.table = Advance().text;
      if (Match(TokenKind::kAs)) {
        if (!Check(TokenKind::kIdent)) return Error("expected alias after AS");
        ref.alias = Advance().text;
      } else if (Check(TokenKind::kIdent)) {
        ref.alias = Advance().text;
      }
      sel->from.push_back(std::move(ref));
    } while (Match(TokenKind::kComma));
    if (Match(TokenKind::kWhere)) {
      NESTRA_ASSIGN_OR_RETURN(sel->where, ParseOr());
    }
    if (Match(TokenKind::kGroup)) {
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kBy, "BY"));
      do {
        NESTRA_ASSIGN_OR_RETURN(std::string col, ParseColumnName());
        sel->group_by.push_back(std::move(col));
      } while (Match(TokenKind::kComma));
    }
    if (Match(TokenKind::kHaving)) {
      // HAVING conditions may use aggregate operands.
      in_having_ = true;
      Result<AstCondPtr> having = ParseOr();
      in_having_ = false;
      if (!having.ok()) return having.status();
      sel->having = std::move(having).ValueOrDie();
    }
    if (Match(TokenKind::kOrder)) {
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kBy, "BY"));
      do {
        AstOrderItem item;
        NESTRA_ASSIGN_OR_RETURN(item.column, ParseColumnName());
        if (Match(TokenKind::kDesc)) {
          item.ascending = false;
        } else {
          Match(TokenKind::kAsc);  // optional
        }
        sel->order_by.push_back(std::move(item));
      } while (Match(TokenKind::kComma));
    }
    if (Match(TokenKind::kLimit)) {
      if (!Check(TokenKind::kIntLiteral)) {
        return Error("expected integer after LIMIT");
      }
      sel->limit = Advance().int_value;
      if (sel->limit < 0) return Error("LIMIT must be non-negative");
    }
    return sel;
  }

  Result<AstCondPtr> ParseOr() {
    NESTRA_ASSIGN_OR_RETURN(AstCondPtr first, ParseAnd());
    if (!Check(TokenKind::kOr)) return first;
    auto node = std::make_unique<AstCond>();
    node->kind = AstCond::Kind::kOr;
    node->children.push_back(std::move(first));
    while (Match(TokenKind::kOr)) {
      NESTRA_ASSIGN_OR_RETURN(AstCondPtr next, ParseAnd());
      node->children.push_back(std::move(next));
    }
    return node;
  }

  Result<AstCondPtr> ParseAnd() {
    NESTRA_ASSIGN_OR_RETURN(AstCondPtr first, ParseUnary());
    if (!Check(TokenKind::kAnd)) return first;
    auto node = std::make_unique<AstCond>();
    node->kind = AstCond::Kind::kAnd;
    node->children.push_back(std::move(first));
    while (Match(TokenKind::kAnd)) {
      NESTRA_ASSIGN_OR_RETURN(AstCondPtr next, ParseUnary());
      node->children.push_back(std::move(next));
    }
    return node;
  }

  Result<AstCondPtr> ParseUnary() {
    if (Check(TokenKind::kNot) && Peek2().kind != TokenKind::kExists) {
      Advance();
      Levels levels(this);
      NESTRA_RETURN_NOT_OK(levels.Enter());
      NESTRA_ASSIGN_OR_RETURN(AstCondPtr child, ParseUnary());
      auto node = std::make_unique<AstCond>();
      node->kind = AstCond::Kind::kNot;
      node->children.push_back(std::move(child));
      return node;
    }
    return ParseAtom();
  }

  Result<AstCondPtr> ParseAtom() {
    // [NOT] EXISTS (select)
    if (Check(TokenKind::kExists) ||
        (Check(TokenKind::kNot) && Peek2().kind == TokenKind::kExists)) {
      const bool negated = Match(TokenKind::kNot);
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kExists, "EXISTS"));
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kLParen, "("));
      NESTRA_ASSIGN_OR_RETURN(AstSelectPtr sub, ParseSelectStmt());
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kRParen, ")"));
      auto node = std::make_unique<AstCond>();
      node->kind = AstCond::Kind::kExistsSubquery;
      node->negated = negated;
      node->subquery = std::move(sub);
      return node;
    }
    // '(' opens either a boolean group ("(a = 1 OR b = 2) AND ...") or a
    // parenthesized scalar ("(a + 1) * 2 > 4"). Try the boolean reading
    // first and backtrack to the scalar grammar if it does not parse.
    if (Check(TokenKind::kLParen) && Peek2().kind != TokenKind::kSelect) {
      const size_t saved = pos_;
      Advance();
      Levels levels(this);
      NESTRA_RETURN_NOT_OK(levels.Enter());
      Result<AstCondPtr> inner = ParseOr();
      if (inner.ok() && Match(TokenKind::kRParen)) {
        return std::move(inner).ValueOrDie();
      }
      // Too deep either way: the scalar reading nests the same parentheses.
      if (too_deep_) return inner.status();
      pos_ = saved;  // fall through: parse as a scalar comparison
    }

    NESTRA_ASSIGN_OR_RETURN(AstOperand lhs, ParseOperand());

    // lhs IS [NOT] NULL
    if (Match(TokenKind::kIs)) {
      const bool negated = Match(TokenKind::kNot);
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kNull, "NULL"));
      auto node = std::make_unique<AstCond>();
      node->kind = AstCond::Kind::kIsNull;
      node->negated = negated;
      node->lhs = std::move(lhs);
      return node;
    }

    // lhs [NOT] IN (select)  |  lhs [NOT] IN (value, ...)
    if (Check(TokenKind::kIn) ||
        (Check(TokenKind::kNot) && Peek2().kind == TokenKind::kIn)) {
      const bool negated = Match(TokenKind::kNot);
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kIn, "IN"));
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kLParen, "("));
      if (Check(TokenKind::kSelect)) {
        NESTRA_ASSIGN_OR_RETURN(AstSelectPtr sub, ParseSelectStmt());
        NESTRA_RETURN_NOT_OK(Expect(TokenKind::kRParen, ")"));
        auto node = std::make_unique<AstCond>();
        node->kind = AstCond::Kind::kInSubquery;
        node->negated = negated;
        node->lhs = std::move(lhs);
        node->subquery = std::move(sub);
        return node;
      }
      // Value list: desugar `x IN (a, b)` to `x = a OR x = b` (and wrap in
      // NOT for the negated form). Kleene logic keeps the NULL semantics
      // right: `x NOT IN (1, null)` stays UNKNOWN-or-false, never true.
      auto disjunction = std::make_unique<AstCond>();
      disjunction->kind = AstCond::Kind::kOr;
      do {
        NESTRA_ASSIGN_OR_RETURN(AstOperand value, ParseOperand());
        auto eq = std::make_unique<AstCond>();
        eq->kind = AstCond::Kind::kCompare;
        eq->op = CmpOp::kEq;
        eq->lhs = lhs;
        eq->rhs = std::move(value);
        disjunction->children.push_back(std::move(eq));
      } while (Match(TokenKind::kComma));
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kRParen, ")"));
      if (disjunction->children.size() == 1) {
        AstCondPtr single = std::move(disjunction->children[0]);
        disjunction = std::move(single);
      }
      if (!negated) return disjunction;
      auto node = std::make_unique<AstCond>();
      node->kind = AstCond::Kind::kNot;
      node->children.push_back(std::move(disjunction));
      return node;
    }

    // lhs BETWEEN a AND b -> lhs >= a AND lhs <= b
    if (Match(TokenKind::kBetween)) {
      NESTRA_ASSIGN_OR_RETURN(AstOperand lo, ParseOperand());
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kAnd, "AND"));
      NESTRA_ASSIGN_OR_RETURN(AstOperand hi, ParseOperand());
      auto ge = std::make_unique<AstCond>();
      ge->kind = AstCond::Kind::kCompare;
      ge->op = CmpOp::kGe;
      ge->lhs = lhs;
      ge->rhs = std::move(lo);
      auto le = std::make_unique<AstCond>();
      le->kind = AstCond::Kind::kCompare;
      le->op = CmpOp::kLe;
      le->lhs = std::move(lhs);
      le->rhs = std::move(hi);
      auto node = std::make_unique<AstCond>();
      node->kind = AstCond::Kind::kAnd;
      node->children.push_back(std::move(ge));
      node->children.push_back(std::move(le));
      return node;
    }

    // Comparison operator.
    CmpOp op;
    if (Match(TokenKind::kEq)) {
      op = CmpOp::kEq;
    } else if (Match(TokenKind::kNe)) {
      op = CmpOp::kNe;
    } else if (Match(TokenKind::kLt)) {
      op = CmpOp::kLt;
    } else if (Match(TokenKind::kLe)) {
      op = CmpOp::kLe;
    } else if (Match(TokenKind::kGt)) {
      op = CmpOp::kGt;
    } else if (Match(TokenKind::kGe)) {
      op = CmpOp::kGe;
    } else {
      return Error("expected comparison operator, IS, IN or BETWEEN");
    }

    // cmp ALL|ANY|SOME (select)
    if (Check(TokenKind::kAll) || Check(TokenKind::kAny) ||
        Check(TokenKind::kSome)) {
      const Quantifier quant =
          Check(TokenKind::kAll) ? Quantifier::kAll : Quantifier::kSome;
      Advance();
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kLParen, "("));
      NESTRA_ASSIGN_OR_RETURN(AstSelectPtr sub, ParseSelectStmt());
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kRParen, ")"));
      auto node = std::make_unique<AstCond>();
      node->kind = AstCond::Kind::kQuantifiedSubquery;
      node->op = op;
      node->quant = quant;
      node->lhs = std::move(lhs);
      node->subquery = std::move(sub);
      return node;
    }

    // cmp (select ...): scalar (aggregate) subquery.
    if (Check(TokenKind::kLParen) && Peek2().kind == TokenKind::kSelect) {
      Advance();
      NESTRA_ASSIGN_OR_RETURN(AstSelectPtr sub, ParseSelectStmt());
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kRParen, ")"));
      auto node = std::make_unique<AstCond>();
      node->kind = AstCond::Kind::kScalarSubquery;
      node->op = op;
      node->lhs = std::move(lhs);
      node->subquery = std::move(sub);
      return node;
    }

    NESTRA_ASSIGN_OR_RETURN(AstOperand rhs, ParseOperand());
    auto node = std::make_unique<AstCond>();
    node->kind = AstCond::Kind::kCompare;
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  // Scalar grammar with arithmetic:
  //   operand := term (('+'|'-') term)*
  //   term    := atom (('*'|'/') atom)*
  //   atom    := '-' atom | agg-call (HAVING) | column | literal
  //            | '(' operand ')'
  // Each operator of a chain nests the chain so far one level deeper in
  // the tree, so it enters a level too.
  Result<AstOperand> ParseOperand() {
    Levels levels(this);
    NESTRA_ASSIGN_OR_RETURN(AstOperand lhs, ParseTerm());
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      NESTRA_RETURN_NOT_OK(levels.Enter());
      const ArithOp op = Advance().kind == TokenKind::kPlus ? ArithOp::kAdd
                                                            : ArithOp::kSub;
      NESTRA_ASSIGN_OR_RETURN(AstOperand rhs, ParseTerm());
      lhs = AstOperand::Arith(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstOperand> ParseTerm() {
    Levels levels(this);
    NESTRA_ASSIGN_OR_RETURN(AstOperand lhs, ParseScalarAtom());
    while (Check(TokenKind::kStar) || Check(TokenKind::kSlash)) {
      NESTRA_RETURN_NOT_OK(levels.Enter());
      const ArithOp op = Advance().kind == TokenKind::kStar ? ArithOp::kMul
                                                            : ArithOp::kDiv;
      NESTRA_ASSIGN_OR_RETURN(AstOperand rhs, ParseScalarAtom());
      lhs = AstOperand::Arith(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstOperand> ParseScalarAtom() {
    Levels levels(this);
    if (Match(TokenKind::kMinus)) {
      NESTRA_RETURN_NOT_OK(levels.Enter());
      // Negative literals fold; everything else becomes 0 - x.
      if (Check(TokenKind::kIntLiteral)) {
        return AstOperand::Lit(Value::Int64(-Advance().int_value));
      }
      if (Check(TokenKind::kFloatLiteral)) {
        return AstOperand::Lit(Value::Float64(-Advance().float_value));
      }
      NESTRA_ASSIGN_OR_RETURN(AstOperand inner, ParseScalarAtom());
      return AstOperand::Arith(ArithOp::kSub,
                               AstOperand::Lit(Value::Int64(0)),
                               std::move(inner));
    }
    if (in_having_ && AtAggCall()) {
      NESTRA_ASSIGN_OR_RETURN(auto call, ParseAggCall());
      return AstOperand::Agg(call.first, std::move(call.second));
    }
    if (Check(TokenKind::kIdent)) {
      NESTRA_ASSIGN_OR_RETURN(std::string col, ParseColumnName());
      return AstOperand::Column(std::move(col));
    }
    if (Check(TokenKind::kIntLiteral)) {
      return AstOperand::Lit(Value::Int64(Advance().int_value));
    }
    if (Check(TokenKind::kFloatLiteral)) {
      return AstOperand::Lit(Value::Float64(Advance().float_value));
    }
    if (Check(TokenKind::kStringLiteral)) {
      return AstOperand::Lit(Value::String(Advance().text));
    }
    if (Check(TokenKind::kNull)) {
      Advance();
      return AstOperand::Lit(Value::Null());
    }
    if (Check(TokenKind::kParam)) {
      return AstOperand::Param(static_cast<int>(Advance().int_value));
    }
    if (Check(TokenKind::kLParen) && Peek2().kind != TokenKind::kSelect) {
      Advance();
      NESTRA_RETURN_NOT_OK(levels.Enter());
      NESTRA_ASSIGN_OR_RETURN(AstOperand inner, ParseOperand());
      NESTRA_RETURN_NOT_OK(Expect(TokenKind::kRParen, ")"));
      return inner;
    }
    return Error("expected column, literal or scalar expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  bool in_having_ = false;
  int depth_ = 0;          // nesting levels entered so far
  bool too_deep_ = false;  // a level past kMaxNestingDepth was refused
};

}  // namespace

Result<AstSelectPtr> ParseSelect(const std::string& sql) {
  NESTRA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseSingle();
}

Result<AstStatementPtr> ParseStatement(const std::string& sql) {
  NESTRA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseCompound();
}

}  // namespace nestra
