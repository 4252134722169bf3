//===- term/Desugar.h - Control-construct desugaring ------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rewrites disjunction, if-then-else and negation-as-failure into
/// auxiliary predicates so the clause compiler (and both analyzers) only
/// ever see flat conjunctions:
///
///   p :- a, (b ; c), d.        =>   p :- a, '$or1'(Vs), d.
///                                    '$or1'(Vs) :- b.
///                                    '$or1'(Vs) :- c.
///
///   (C -> T ; E)               =>   '$or'(Vs) :- C, !, T.
///                                    '$or'(Vs) :- E.
///
///   \+ G                       =>   '$not'(Vs) :- G, !, fail.
///                                    '$not'(_).
///
/// The auxiliary predicate receives every variable of the extracted
/// subgoal, so bindings flow in and out as in the source.
///
/// Known deviation from ISO: a cut written inside a disjunction is local
/// to the generated auxiliary predicate rather than cutting the enclosing
/// clause (the behaviour of many pre-ISO systems).
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_TERM_DESUGAR_H
#define AWAM_TERM_DESUGAR_H

#include "support/Error.h"
#include "term/Parser.h"

namespace awam {

/// Rewrites the control constructs of \p Program into auxiliary
/// predicates, appended after the source clauses in the order they are
/// created ('$aux1', '$aux2', ...). New terms are created in \p Arena;
/// only the bodies of clauses with ';', '->' or '\\+' goals are rebuilt.
Result<ParsedProgram> desugarControl(ParsedProgram Program,
                                     SymbolTable &Syms, TermArena &Arena);

} // namespace awam

#endif // AWAM_TERM_DESUGAR_H
