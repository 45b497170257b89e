#ifndef NESTRA_SQL_PARSER_H_
#define NESTRA_SQL_PARSER_H_

#include <string>

#include "sql/ast.h"

namespace nestra {

/// \brief Parses the SQL subset needed by the paper's workload:
///
///   SELECT [DISTINCT] col, ... | *
///   FROM table [[AS] alias], ...
///   [WHERE cond]
///
///   cond    := or
///   or      := and (OR and)*
///   and     := unary (AND unary)*
///   unary   := NOT unary | atom
///   atom    := '(' cond ')'
///            | [NOT] EXISTS '(' select ')'
///            | operand IS [NOT] NULL
///            | operand [NOT] IN '(' select ')'
///            | operand BETWEEN operand AND operand      (desugared)
///            | operand cmp (ALL|ANY|SOME) '(' select ')'
///            | operand cmp operand
///   operand := column | int | float | 'string'
///
/// String literals double as date literals; the binder coerces them against
/// date-typed columns.
///
/// Nesting is bounded: every parenthesis, NOT, unary minus, arithmetic
/// operator in a chain and nested SELECT enters one level, and a statement
/// nested deeper than kMaxNestingDepth levels fails with a ParseError
/// instead of exhausting the stack of the parser or of the passes that
/// recurse over its tree.
inline constexpr int kMaxNestingDepth = 256;

Result<AstSelectPtr> ParseSelect(const std::string& sql);

/// Parses a statement that may combine several SELECTs with
/// `UNION [ALL] | INTERSECT | EXCEPT` (left-associative). A compound
/// statement may not carry ORDER BY / LIMIT on its branches.
Result<AstStatementPtr> ParseStatement(const std::string& sql);

}  // namespace nestra

#endif  // NESTRA_SQL_PARSER_H_
