//===- term/Parser.h - Prolog reader ----------------------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operator-precedence parser for Prolog programs: reads clause terms, splits
/// them into head/body, and numbers clause variables densely.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_TERM_PARSER_H
#define AWAM_TERM_PARSER_H

#include "support/Error.h"
#include "support/SymbolTable.h"
#include "term/Lexer.h"
#include "term/Operators.h"
#include "term/Term.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace awam {

/// Deepest bracket, argument-list or prefix-operator nesting the reader
/// accepts; deeper input is a parse error rather than a stack overflow.
/// Operator chains (a, b, c or 1+2+3) do not nest and have no limit.
inline constexpr int kMaxTermNesting = 1024;

/// One parsed clause: Head :- Body1, ..., BodyN (facts have an empty body).
struct ParsedClause {
  const Term *Head = nullptr;
  std::vector<const Term *> Body;
  /// Number of distinct variables in the clause (var ids are 0..NumVars-1).
  int NumVars = 0;
};

/// A parsed program: clauses in source order plus any ":- Goal" directives.
struct ParsedProgram {
  std::vector<ParsedClause> Clauses;
  std::vector<const Term *> Directives;
  /// Term nodes the reader built for the program: the compiler sizes its
  /// code buffer by it (0 when unknown).
  size_t NumTermNodes = 0;
};

/// Reads Prolog terms and clauses from a source buffer.
///
/// The parser uses the fixed operator table in term/Operators.h. Variables
/// are clause-scoped: each readClause()/readTerm() call numbers the distinct
/// variables of that term from zero. Its stack depth is bounded by
/// kMaxTermNesting, whatever the length of the input.
class Parser {
public:
  Parser(std::string_view Source, SymbolTable &Syms, TermArena &Arena);

  /// Reads the next term up to its end token. Returns nullptr at EOF.
  Result<const Term *> readTerm();

  /// Number of distinct variables in the most recent readTerm() result.
  int lastTermNumVars() const { return NumVars; }

private:
  struct Parsed {
    const Term *T;
    int Priority; // the priority of the term as an operand
  };

  /// An infix operator token: its name and definition.
  struct InfixOp {
    std::string_view Name;
    OpDef Def;
  };

  /// A right-associative operator whose right operand is being parsed.
  struct PendingOp {
    const Term *Left;
    std::string_view Name;
    int Priority;
    int OuterMax; // the MaxPriority in force before the operator
  };

  // The reader recurses through these once per nesting level; each is
  // kept out of line so that its locals are on the stack only while its
  // own construct is being read (see Parser.cpp).
  Result<Parsed> parse(int MaxPriority);
  Result<Parsed> primary(int MaxPriority);
  [[gnu::noinline]] std::optional<InfixOp> peekInfixOp();
  [[gnu::noinline]] Result<Parsed> foldPending(const Term *Right);
  [[gnu::noinline]] Result<Parsed> parseInfixRight(const Term *Left,
                                                   std::string_view Name,
                                                   const OpDef &Op);
  [[gnu::noinline]] Result<Parsed> parsePrimary(int MaxPriority);
  [[gnu::noinline]] Result<Parsed> parseBracketed(bool Curly);
  [[gnu::noinline]] Result<Parsed> parseArgs(std::string_view Functor);
  [[gnu::noinline]] Result<Parsed> parseList();
  [[gnu::noinline]] Result<Parsed> parseAtom(const Token &T,
                                             int MaxPriority);
  const Term *internVar(std::string_view Name);
  Diagnostic errorAt(const Token &T, std::string_view Message) const;
  [[gnu::noinline]] Result<Parsed> fail(const Token &T,
                                        std::string_view Message) const;
  [[gnu::noinline]] Result<Parsed> failUnexpected(const Token &T) const;
  [[gnu::noinline]] Result<Parsed> failTooDeep(const Token &T) const;

  Lexer Lex;
  SymbolTable &Syms;
  TermArena &Arena;
  /// Per-symbol variable node of the current term, valid while its stamp
  /// equals TermStamp.
  std::vector<std::pair<uint32_t, const Term *>> VarBySymbol;
  uint32_t TermStamp = 0;
  int NumVars = 0;
  int Depth = 0; // current bracket/argument/prefix nesting
  /// Operators of the xfy chains being folded, innermost last.
  std::vector<PendingOp> Pending;
  /// Arguments and list elements of the terms being read, innermost last.
  std::vector<const Term *> Operands;
};

/// Parses a whole program (sequence of clauses and directives).
Result<ParsedProgram> parseProgram(std::string_view Source, SymbolTable &Syms,
                                   TermArena &Arena);

/// Splits a clause term into head and flattened body goals, numbering
/// variables as in \p NumVars. Fails on non-callable heads or goals.
Result<ParsedClause> makeClause(const Term *ClauseTerm, int NumVars,
                                const SymbolTable &Syms);

} // namespace awam

#endif // AWAM_TERM_PARSER_H
