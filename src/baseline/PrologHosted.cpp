//===- baseline/PrologHosted.cpp ------------------------------------------===//

#include "baseline/PrologHosted.h"

#include "compiler/Builtins.h"
#include "support/StringUtil.h"
#include "term/TermWriter.h"
#include "wam/Machine.h"

#include <map>

using namespace awam;

namespace {

/// Emits \p T as Prolog data text with variables as '$v'(Id).
void encodeTerm(const Term *T, const SymbolTable &Syms, std::string &Out) {
  switch (T->kind()) {
  case TermKind::Var:
    Out += "'$v'(" + std::to_string(T->varId()) + ")";
    return;
  case TermKind::Int:
    Out += std::to_string(T->intValue());
    return;
  case TermKind::Atom:
    Out += quoteAtom(Syms.name(T->functor()));
    return;
  case TermKind::Struct:
    if (T->isCons()) {
      Out += "[";
      encodeTerm(T->arg(0), Syms, Out);
      Out += "|";
      encodeTerm(T->arg(1), Syms, Out);
      Out += "]";
      return;
    }
    Out += quoteAtom(Syms.name(T->functor()));
    Out += "(";
    for (int I = 0, E = T->arity(); I != E; ++I) {
      if (I)
        Out += ",";
      encodeTerm(T->arg(I), Syms, Out);
    }
    Out += ")";
    return;
  }
}

void encodeGoal(const Term *G, const SymbolTable &Syms, std::string &Out) {
  if (G->isAtom() && G->functor() == SymbolTable::SymCut) {
    Out += "cut";
    return;
  }
  if (G->isAtom() && G->functor() == SymbolTable::SymFail) {
    Out += "failgoal";
    return;
  }
  int Arity = G->isStruct() ? G->arity() : 0;
  bool IsBuiltin = lookupBuiltin(Syms.name(G->functor()), Arity).has_value();
  Out += IsBuiltin ? "b(" : "u(";
  Out += quoteAtom(Syms.name(G->functor()));
  Out += "," + std::to_string(Arity) + ",[";
  for (int I = 0; I != Arity; ++I) {
    if (I)
      Out += ",";
    encodeTerm(G->arg(I), Syms, Out);
  }
  Out += "])";
}

} // namespace

std::string awam::reflectProgram(const ParsedProgram &Program,
                                 const SymbolTable &Syms,
                                 std::string_view EntryName) {
  // Group clauses per predicate, preserving order.
  std::vector<std::pair<Symbol, int>> Order;
  std::map<std::pair<Symbol, int>, std::vector<const ParsedClause *>> Groups;
  for (const ParsedClause &C : Program.Clauses) {
    auto Key = std::make_pair(
        C.Head->functor(), C.Head->isStruct() ? C.Head->arity() : 0);
    if (!Groups.count(Key))
      Order.push_back(Key);
    Groups[Key].push_back(&C);
  }

  std::string Out;
  Out += "top_goal(" + quoteAtom(EntryName) + ", 0).\n";
  for (auto &Key : Order) {
    auto &[Name, Arity] = Key;
    Out += "clauses(" + quoteAtom(Syms.name(Name)) + ", " +
           std::to_string(Arity) + ", [";
    bool FirstClause = true;
    for (const ParsedClause *C : Groups[Key]) {
      if (!FirstClause)
        Out += ",\n    ";
      FirstClause = false;
      Out += "c([";
      for (int I = 0; I != Arity; ++I) {
        if (I)
          Out += ",";
        encodeTerm(C->Head->arg(I), Syms, Out);
      }
      Out += "],[";
      for (size_t I = 0; I != C->Body.size(); ++I) {
        if (I)
          Out += ",";
        encodeGoal(C->Body[I], Syms, Out);
      }
      Out += "])";
    }
    Out += "]).\n";
  }
  return Out;
}

std::string_view awam::prologAnalyzerSource(PrologDomain D) {
  // A mode/groundness analyzer over the domain var < {g < nv} < any with
  // the extension-table control scheme, written in the style of the
  // Prolog-hosted analyzers the paper compares against: the table is a
  // linear list threaded through every predicate, environments are
  // association lists, and clause matching walks the reflected program
  // term by term.
  static constexpr std::string_view Source = R"PL(
analyze_main(Table) :-
    top_goal(Name, Arity),
    mk_any_pat(Arity, Pat),
    fix_iterate(100, Name, Arity, Pat, [], Table).

mk_any_pat(0, []) :- !.
mk_any_pat(N, [any|R]) :- N1 is N - 1, mk_any_pat(N1, R).

fix_iterate(0, _, _, _, T, T).
fix_iterate(N, Name, Arity, Pat, T0, T) :-
    N > 0,
    clear_explored(T0, T1),
    run_call(Name, Arity, Pat, T1, T2, same, Ch, _, _),
    fix_more(Ch, N, Name, Arity, Pat, T2, T).

fix_more(same, _, _, _, _, T, T) :- !.
fix_more(changed, N, Name, Arity, Pat, T0, T) :-
    N1 is N - 1,
    fix_iterate(N1, Name, Arity, Pat, T0, T).

clear_explored([], []).
clear_explored([e(Nm, Ar, P, _, S)|Es], [e(Nm, Ar, P, no, S)|Rs]) :-
    clear_explored(Es, Rs).

% ---- one call with the extension-table protocol ----

run_call(Name, Arity, Pat, T0, T, Ch0, Ch, Succ, St) :-
    et_find(T0, Name, Arity, Pat, e(_, _, _, Explored, S0)), !,
    run_found(Explored, Name, Arity, Pat, S0, T0, T, Ch0, Ch, Succ, St).
run_call(Name, Arity, Pat, T0, T, _, Ch, Succ, St) :-
    explore_pred(Name, Arity, Pat, [e(Name, Arity, Pat, yes, none)|T0],
                 T, changed, Ch, Succ, St).

run_found(yes, _, _, _, none, T, T, Ch, Ch, [], failst) :- !.
run_found(yes, _, _, _, some(S), T, T, Ch, Ch, S, okst) :- !.
run_found(no, Name, Arity, Pat, _, T0, T, Ch0, Ch, Succ, St) :-
    et_mark_explored(T0, Name, Arity, Pat, T1),
    explore_pred(Name, Arity, Pat, T1, T, Ch0, Ch, Succ, St).

explore_pred(Name, Arity, Pat, T0, T, Ch0, Ch, Succ, St) :-
    clauses(Name, Arity, Cs), !,
    explore_clauses(Cs, Name, Arity, Pat, T0, T1, Ch0, Ch),
    finish_call(T1, Name, Arity, Pat, T, Succ, St).
explore_pred(_, _, _, T, T, Ch, Ch, [], failst).

finish_call(T, Name, Arity, Pat, T, Succ, St) :-
    et_find(T, Name, Arity, Pat, e(_, _, _, _, S)),
    succ_status(S, Succ, St).

succ_status(none, [], failst).
succ_status(some(S), S, okst).

explore_clauses([], _, _, _, T, T, Ch, Ch).
explore_clauses([c(Head, Body)|Cs], Name, Arity, Pat, T0, T, Ch0, Ch) :-
    try_clause(Head, Body, Name, Arity, Pat, T0, T1, Ch0, Ch1),
    explore_clauses(Cs, Name, Arity, Pat, T1, T, Ch1, Ch).

try_clause(Head, Body, Name, Arity, Pat, T0, T, Ch0, Ch) :-
    match_args(Pat, Head, [], Env0),
    solve_body(Body, Env0, Env, T0, T1, Ch0, Ch1, okst, St),
    try_update(St, Head, Env, Name, Arity, Pat, T1, T, Ch1, Ch).

try_update(failst, _, _, _, _, _, T, T, Ch, Ch) :- !.
try_update(okst, Head, Env, Name, Arity, Pat, T0, T, Ch0, Ch) :-
    vals_of(Head, Env, SPat),
    et_update(T0, Name, Arity, Pat, SPat, T, Ch0, Ch).

% ---- the extension table: a linear list of entries ----

et_find([E|_], Nm, Ar, Pat, E) :- E = e(Nm, Ar, Pat, _, _), !.
et_find([_|Es], Nm, Ar, Pat, E) :- et_find(Es, Nm, Ar, Pat, E).

et_mark_explored([e(Nm, Ar, Pat, _, S)|Es], Nm, Ar, Pat,
                 [e(Nm, Ar, Pat, yes, S)|Es]) :- !.
et_mark_explored([E|Es], Nm, Ar, Pat, [E|Rs]) :-
    et_mark_explored(Es, Nm, Ar, Pat, Rs).

et_update([e(Nm, Ar, Pat, Ex, S0)|Es], Nm, Ar, Pat, SPat,
          [e(Nm, Ar, Pat, Ex, some(S1))|Es], Ch0, Ch) :- !,
    lub_update(S0, SPat, S1, Ch0, Ch).
et_update([E|Es], Nm, Ar, Pat, SPat, [E|Rs], Ch0, Ch) :-
    et_update(Es, Nm, Ar, Pat, SPat, Rs, Ch0, Ch).

lub_update(none, S, S, _, changed) :- !.
lub_update(some(S0), S, S1, Ch0, Ch) :-
    lub_list(S0, S, S1),
    lub_changed(S0, S1, Ch0, Ch).

lub_changed(S0, S1, Ch, Ch) :- S0 == S1, !.
lub_changed(_, _, _, changed).

lub_list([], [], []).
lub_list([A|As], [B|Bs], [C|Cs]) :- lub(A, B, C), lub_list(As, Bs, Cs).

lub(X, X, X) :- !.
lub(g, nv, nv) :- !.
lub(nv, g, nv) :- !.
lub(_, _, any).

% ---- abstract head unification over the reflected terms ----

match_args([], [], Env, Env).
match_args([V|Vs], [T|Ts], Env0, Env) :-
    unify_val(V, T, Env0, Env1),
    match_args(Vs, Ts, Env1, Env).

unify_val(V, '$v'(I), Env0, Env) :- !, env_meet(I, V, Env0, Env).
unify_val(_, T, Env, Env) :- atomic(T), !.
unify_val(V, T, Env0, Env) :-
    sub_val(V, SV),
    T =.. [_|Args],
    unify_each(SV, Args, Env0, Env).

unify_each(_, [], Env, Env).
unify_each(SV, [A|As], Env0, Env) :-
    unify_val(SV, A, Env0, Env1),
    unify_each(SV, As, Env1, Env).

sub_val(g, g) :- !.
sub_val(var, var) :- !.
sub_val(_, any).

% ---- environments (association lists) ----

env_meet(I, V, Env0, Env) :-
    env_get(Env0, I, Old), !,
    meet(Old, V, New),
    env_set(Env0, I, New, Env).
env_meet(I, V, Env0, [I - V1|Env0]) :- meet(var, V, V1).

env_get([I - V|_], I, V) :- !.
env_get([_|E], I, V) :- env_get(E, I, V).

env_set([I - _|E], I, V, [I - V|E]) :- !.
env_set([P|E], I, V, [P|E1]) :- env_set(E, I, V, E1).

meet(any, X, X) :- !.
meet(X, any, X) :- !.
meet(var, X, X) :- !.
meet(X, var, X) :- !.
meet(g, _, g) :- !.
meet(_, g, g) :- !.
meet(nv, nv, nv).

% ---- abstracting argument values ----

vals_of([], _, []).
vals_of([T|Ts], Env, [V|Vs]) :- val_of(T, Env, V), vals_of(Ts, Env, Vs).

val_of('$v'(I), Env, V) :- !, val_lookup(I, Env, V).
val_of(T, _, g) :- atomic(T), !.
val_of(T, Env, V) :-
    T =.. [_|Args],
    vals_of(Args, Env, Vs),
    fold_nv(Vs, g, V).

val_lookup(I, Env, V) :- env_get(Env, I, V0), !, V = V0.
val_lookup(_, _, var).

fold_nv([], A, A).
fold_nv([g|Vs], A, V) :- !, fold_nv(Vs, A, V).
fold_nv([_|Vs], _, V) :- fold_nv(Vs, nv, V).

% ---- body goals ----

solve_body([], Env, Env, T, T, Ch, Ch, St, St).
solve_body([G|Gs], Env0, Env, T0, T, Ch0, Ch, okst, St) :- !,
    solve_goal(G, Env0, Env1, T0, T1, Ch0, Ch1, St1),
    solve_body(Gs, Env1, Env, T1, T, Ch1, Ch, St1, St).
solve_body(_, Env, Env, T, T, Ch, Ch, failst, failst).

solve_goal(cut, Env, Env, T, T, Ch, Ch, okst).
solve_goal(failgoal, Env, Env, T, T, Ch, Ch, failst).
solve_goal(b(Nm, Ar, Args), Env0, Env, T, T, Ch, Ch, St) :-
    abs_builtin(Nm, Ar, Args, Env0, Env, St).
solve_goal(u(Nm, Ar, Args), Env0, Env, T0, T, Ch0, Ch, St) :-
    vals_of(Args, Env0, CallPat),
    run_call(Nm, Ar, CallPat, T0, T, Ch0, Ch, Succ, St0),
    propagate(St0, Succ, Args, Env0, Env, St).

propagate(failst, _, _, Env, Env, failst).
propagate(okst, Succ, Args, Env0, Env, okst) :-
    match_args(Succ, Args, Env0, Env).

% ---- builtins: success narrows arguments ----

abs_builtin(is, 2, Args, E0, E, okst) :- !, ground_all(Args, E0, E).
abs_builtin(<, 2, Args, E0, E, okst) :- !, ground_all(Args, E0, E).
abs_builtin(>, 2, Args, E0, E, okst) :- !, ground_all(Args, E0, E).
abs_builtin(=<, 2, Args, E0, E, okst) :- !, ground_all(Args, E0, E).
abs_builtin(>=, 2, Args, E0, E, okst) :- !, ground_all(Args, E0, E).
abs_builtin(=:=, 2, Args, E0, E, okst) :- !, ground_all(Args, E0, E).
abs_builtin(=\=, 2, Args, E0, E, okst) :- !, ground_all(Args, E0, E).
abs_builtin(tab, 1, Args, E0, E, okst) :- !, ground_all(Args, E0, E).
abs_builtin(=, 2, [A, B], E0, E, okst) :- !,
    val_of(A, E0, V1),
    val_of(B, E0, V2),
    meet(V1, V2, V),
    unify_val(V, A, E0, E1),
    unify_val(V, B, E1, E).
abs_builtin(==, 2, [A, B], E0, E, okst) :- !,
    val_of(A, E0, V1),
    val_of(B, E0, V2),
    meet(V1, V2, V),
    unify_val(V, A, E0, E1),
    unify_val(V, B, E1, E).
abs_builtin(var, 1, [A], E0, E, St) :- !, check_var(A, E0, E, St).
abs_builtin(nonvar, 1, [A], E0, E, St) :- !, check_type(A, nv, E0, E, St).
abs_builtin(atom, 1, [A], E0, E, St) :- !, check_type(A, g, E0, E, St).
abs_builtin(integer, 1, [A], E0, E, St) :- !, check_type(A, g, E0, E, St).
abs_builtin(number, 1, [A], E0, E, St) :- !, check_type(A, g, E0, E, St).
abs_builtin(atomic, 1, [A], E0, E, St) :- !, check_type(A, g, E0, E, St).
abs_builtin(compound, 1, [A], E0, E, St) :- !, check_type(A, nv, E0, E, St).
abs_builtin(functor, 3, [T, N, A], E0, E, okst) :- !,
    unify_val(nv, T, E0, E1),
    ground_all([N, A], E1, E).
abs_builtin(arg, 3, [N, T, _], E0, E, okst) :- !,
    unify_val(g, N, E0, E1),
    unify_val(nv, T, E1, E).
abs_builtin(=.., 2, [T, L], E0, E, okst) :- !,
    unify_val(nv, T, E0, E1),
    unify_val(nv, L, E1, E).
abs_builtin(_, _, _, E, E, okst).

ground_all([], E, E).
ground_all([A|As], E0, E) :-
    unify_val(g, A, E0, E1),
    ground_all(As, E1, E).

check_var('$v'(I), E0, E, St) :- !,
    val_lookup(I, E0, V),
    var_ck(V, I, E0, E, St).
check_var(_, E, E, failst).

var_ck(var, _, E, E, okst) :- !.
var_ck(any, I, E0, E, okst) :- !, env_meet(I, var, E0, E).
var_ck(_, _, E, E, failst).

check_type('$v'(I), K, E0, E, St) :- !,
    val_lookup(I, E0, V),
    type_ck(V, K, I, E0, E, St).
check_type(_, _, E, E, okst).

type_ck(var, _, _, E, E, failst) :- !.
type_ck(_, K, I, E0, E, okst) :- env_meet(I, K, E0, E).
)PL";
  // The rich domain mirrors the compiled analyzer's type system (specific
  // constants abstracted to atom/int; no aliasing tracking — early
  // Prolog-hosted analyzers' usual simplification, documented in
  // DESIGN.md): values are
  //   var, any, nv, g, const, atom, int, nil, list(E), st(F, N, Es)
  // with the term-depth cut at 4.
  static constexpr std::string_view RichSource = R"PL(
analyze_main(Table) :-
    top_goal(Name, Arity),
    mk_any_pat(Arity, Pat),
    fix_iterate(100, Name, Arity, Pat, [], Table).

mk_any_pat(0, []) :- !.
mk_any_pat(N, [any|R]) :- N1 is N - 1, mk_any_pat(N1, R).

fix_iterate(0, _, _, _, T, T).
fix_iterate(N, Name, Arity, Pat, T0, T) :-
    N > 0,
    clear_explored(T0, T1),
    run_call(Name, Arity, Pat, T1, T2, same, Ch, _, _),
    fix_more(Ch, N, Name, Arity, Pat, T2, T).

fix_more(same, _, _, _, _, T, T) :- !.
fix_more(changed, N, Name, Arity, Pat, T0, T) :-
    N1 is N - 1,
    fix_iterate(N1, Name, Arity, Pat, T0, T).

clear_explored([], []).
clear_explored([e(Nm, Ar, P, _, S)|Es], [e(Nm, Ar, P, no, S)|Rs]) :-
    clear_explored(Es, Rs).

run_call(Name, Arity, Pat, T0, T, Ch0, Ch, Succ, St) :-
    et_find(T0, Name, Arity, Pat, e(_, _, _, Explored, S0)), !,
    run_found(Explored, Name, Arity, Pat, S0, T0, T, Ch0, Ch, Succ, St).
run_call(Name, Arity, Pat, T0, T, _, Ch, Succ, St) :-
    explore_pred(Name, Arity, Pat, [e(Name, Arity, Pat, yes, none)|T0],
                 T, changed, Ch, Succ, St).

run_found(yes, _, _, _, none, T, T, Ch, Ch, [], failst) :- !.
run_found(yes, _, _, _, some(S), T, T, Ch, Ch, S, okst) :- !.
run_found(no, Name, Arity, Pat, _, T0, T, Ch0, Ch, Succ, St) :-
    et_mark_explored(T0, Name, Arity, Pat, T1),
    explore_pred(Name, Arity, Pat, T1, T, Ch0, Ch, Succ, St).

explore_pred(Name, Arity, Pat, T0, T, Ch0, Ch, Succ, St) :-
    clauses(Name, Arity, Cs), !,
    explore_clauses(Cs, Name, Arity, Pat, T0, T1, Ch0, Ch),
    finish_call(T1, Name, Arity, Pat, T, Succ, St).
explore_pred(_, _, _, T, T, Ch, Ch, [], failst).

finish_call(T, Name, Arity, Pat, T, Succ, St) :-
    et_find(T, Name, Arity, Pat, e(_, _, _, _, S)),
    succ_status(S, Succ, St).

succ_status(none, [], failst).
succ_status(some(S), S, okst).

explore_clauses([], _, _, _, T, T, Ch, Ch).
explore_clauses([c(Head, Body)|Cs], Name, Arity, Pat, T0, T, Ch0, Ch) :-
    try_clause(Head, Body, Name, Arity, Pat, T0, T1, Ch0, Ch1),
    explore_clauses(Cs, Name, Arity, Pat, T1, T, Ch1, Ch).

try_clause(Head, Body, Name, Arity, Pat, T0, T, Ch0, Ch) :-
    match_args(Pat, Head, [], Env0, okst, St0),
    try_body(St0, Body, Env0, Env, T0, T1, Ch0, Ch1, St),
    try_update(St, Head, Env, Name, Arity, Pat, T1, T, Ch1, Ch).

try_body(failst, _, Env, Env, T, T, Ch, Ch, failst) :- !.
try_body(okst, Body, Env0, Env, T0, T, Ch0, Ch, St) :-
    solve_body(Body, Env0, Env, T0, T, Ch0, Ch, okst, St).

try_update(failst, _, _, _, _, _, T, T, Ch, Ch) :- !.
try_update(okst, Head, Env, Name, Arity, Pat, T0, T, Ch0, Ch) :-
    svals(Head, Env, SPat),
    et_update(T0, Name, Arity, Pat, SPat, T, Ch0, Ch).

% ---- extension table (linear list) ----

et_find([E|_], Nm, Ar, Pat, E) :- E = e(Nm, Ar, Pat, _, _), !.
et_find([_|Es], Nm, Ar, Pat, E) :- et_find(Es, Nm, Ar, Pat, E).

et_mark_explored([e(Nm, Ar, Pat, _, S)|Es], Nm, Ar, Pat,
                 [e(Nm, Ar, Pat, yes, S)|Es]) :- !.
et_mark_explored([E|Es], Nm, Ar, Pat, [E|Rs]) :-
    et_mark_explored(Es, Nm, Ar, Pat, Rs).

et_update([e(Nm, Ar, Pat, Ex, S0)|Es], Nm, Ar, Pat, SPat,
          [e(Nm, Ar, Pat, Ex, some(S1))|Es], Ch0, Ch) :- !,
    lub_update(S0, SPat, S1, Ch0, Ch).
et_update([E|Es], Nm, Ar, Pat, SPat, [E|Rs], Ch0, Ch) :-
    et_update(Es, Nm, Ar, Pat, SPat, Rs, Ch0, Ch).

lub_update(none, S, S, _, changed) :- !.
lub_update(some(S0), S, S1, Ch0, Ch) :-
    lub_list(S0, S, S1),
    lub_changed(S0, S1, Ch0, Ch).

lub_changed(S0, S1, Ch, Ch) :- S0 == S1, !.
lub_changed(_, _, _, changed).

lub_list([], [], []).
lub_list([A|As], [B|Bs], [C|Cs]) :- lub(A, B, C), lub_list(As, Bs, Cs).

% ---- the domain: meet ----

meet(bot, _, bot) :- !.
meet(_, bot, bot) :- !.
meet(var, X, X) :- !.
meet(X, var, X) :- !.
meet(any, X, X) :- !.
meet(X, any, X) :- !.
meet(nv, X, X) :- !.
meet(X, nv, X) :- !.
meet(g, X, R) :- !, meet_g(X, R).
meet(X, g, R) :- !, meet_g(X, R).
meet(const, X, R) :- !, meet_const(X, R).
meet(X, const, R) :- !, meet_const(X, R).
meet(atom, X, R) :- !, meet_atom(X, R).
meet(X, atom, R) :- !, meet_atom(X, R).
meet(int, X, R) :- !, meet_int(X, R).
meet(X, int, R) :- !, meet_int(X, R).
meet(nil, X, R) :- !, meet_nil(X, R).
meet(X, nil, R) :- !, meet_nil(X, R).
meet(list(A), list(B), R) :- !, meet_elem(A, B, R).
meet(st(F, N, As), st(F, N, Bs), R) :- !, meet_args(As, Bs, [], R, F, N).
meet(_, _, bot).

meet_g(g, g) :- !.
meet_g(const, const) :- !.
meet_g(atom, atom) :- !.
meet_g(int, int) :- !.
meet_g(nil, nil) :- !.
meet_g(list(E), R) :- !, meet_elem(E, g, R).
meet_g(st(F, N, Es), R) :- meet_all_g(Es, [], R, F, N).

meet_all_g([], Acc, st(F, N, Rs), F, N) :- rev_acc(Acc, [], Rs).
meet_all_g([E|Es], Acc, R, F, N) :-
    meet(E, g, M),
    meet_all_g_k(M, Es, Acc, R, F, N).
meet_all_g_k(bot, _, _, bot, _, _) :- !.
meet_all_g_k(M, Es, Acc, R, F, N) :- meet_all_g(Es, [M|Acc], R, F, N).

meet_const(const, const) :- !.
meet_const(atom, atom) :- !.
meet_const(int, int) :- !.
meet_const(nil, nil) :- !.
meet_const(list(_), nil) :- !.
meet_const(_, bot).

meet_atom(atom, atom) :- !.
meet_atom(nil, nil) :- !.
meet_atom(list(_), nil) :- !.
meet_atom(_, bot).

meet_int(int, int) :- !.
meet_int(_, bot).

meet_nil(nil, nil) :- !.
meet_nil(list(_), nil) :- !.
meet_nil(_, bot).

meet_elem(A, B, R) :- meet(A, B, M), meet_elem_k(M, R).
meet_elem_k(bot, nil) :- !.
meet_elem_k(M, list(M)).

meet_args([], [], Acc, st(F, N, Rs), F, N) :- rev_acc(Acc, [], Rs).
meet_args([A|As], [B|Bs], Acc, R, F, N) :-
    meet(A, B, M),
    meet_args_k(M, As, Bs, Acc, R, F, N).
meet_args_k(bot, _, _, _, bot, _, _) :- !.
meet_args_k(M, As, Bs, Acc, R, F, N) :- meet_args(As, Bs, [M|Acc], R, F, N).

rev_acc([], R, R).
rev_acc([X|Xs], A, R) :- rev_acc(Xs, [X|A], R).

% ---- the domain: lub ----

lub(X, X, X) :- !.
lub(var, _, any) :- !.
lub(_, var, any) :- !.
lub(any, _, any) :- !.
lub(_, any, any) :- !.
lub(nv, _, nv) :- !.
lub(_, nv, nv) :- !.
lub(g, X, R) :- !, lub_gjoin(X, R).
lub(X, g, R) :- !, lub_gjoin(X, R).
lub(list(A), list(B), list(C)) :- !, lub(A, B, C).
lub(nil, list(E), list(E)) :- !.
lub(list(E), nil, list(E)) :- !.
lub(st(F, N, As), st(F, N, Bs), st(F, N, Cs)) :- !, lub_args(As, Bs, Cs).
lub(const, X, R) :- !, lub_cjoin(X, R).
lub(X, const, R) :- !, lub_cjoin(X, R).
lub(atom, int, const) :- !.
lub(int, atom, const) :- !.
lub(atom, nil, atom) :- !.
lub(nil, atom, atom) :- !.
lub(int, nil, const) :- !.
lub(nil, int, const) :- !.
lub(A, B, g) :- ground_val(A), ground_val(B), !.
lub(_, _, nv).

lub_args([], [], []).
lub_args([A|As], [B|Bs], [C|Cs]) :- lub(A, B, C), lub_args(As, Bs, Cs).

lub_gjoin(X, g) :- ground_val(X), !.
lub_gjoin(_, nv).

lub_cjoin(atom, const) :- !.
lub_cjoin(int, const) :- !.
lub_cjoin(nil, const) :- !.
lub_cjoin(X, g) :- ground_val(X), !.
lub_cjoin(_, nv).

ground_val(g).
ground_val(const).
ground_val(atom).
ground_val(int).
ground_val(nil).
ground_val(list(E)) :- ground_val(E).
ground_val(st(_, _, Es)) :- ground_all_vals(Es).

ground_all_vals([]).
ground_all_vals([E|Es]) :- ground_val(E), ground_all_vals(Es).

% ---- abstract head unification over reflected terms ----

match_args([], [], Env, Env, St, St).
match_args([V|Vs], [T|Ts], Env0, Env, okst, St) :- !,
    u_val(V, T, Env0, Env1, St1),
    match_args(Vs, Ts, Env1, Env, St1, St).
match_args(_, _, Env, Env, failst, failst).

u_val(V, '$v'(I), Env0, Env, St) :- !, env_meet(I, V, Env0, Env, St).
u_val(V, [], Env, Env, St) :- !, chk(V, nil, St).
u_val(V, T, Env, Env, St) :- integer(T), !, chk(V, int, St).
u_val(V, T, Env, Env, St) :- atomic(T), !, chk(V, atom, St).
u_val(V, [H|T2], Env0, Env, St) :- !,
    cons_parts(V, Hv, Tv, St0),
    u_pair(St0, Hv, H, Tv, T2, Env0, Env, St).
u_val(V, T, Env0, Env, St) :-
    T =.. [F|Args],
    len(Args, N),
    struct_parts(V, F, N, SubVs, St0),
    u_list(St0, SubVs, Args, Env0, Env, St).

u_pair(failst, _, _, _, _, Env, Env, failst) :- !.
u_pair(okst, Hv, H, Tv, T2, Env0, Env, St) :-
    u_val(Hv, H, Env0, Env1, St1),
    u_tail(St1, Tv, T2, Env1, Env, St).
u_tail(failst, _, _, Env, Env, failst) :- !.
u_tail(okst, Tv, T2, Env0, Env, St) :- u_val(Tv, T2, Env0, Env, St).

u_list(failst, _, _, Env, Env, failst) :- !.
u_list(okst, [], [], Env, Env, okst) :- !.
u_list(okst, [V|Vs], [T|Ts], Env0, Env, St) :-
    u_val(V, T, Env0, Env1, St1),
    u_list(St1, Vs, Ts, Env1, Env, St).

chk(V, K, St) :- meet(V, K, M), chk_k(M, St).
chk_k(bot, failst) :- !.
chk_k(_, okst).

cons_parts(var, var, var, okst) :- !.
cons_parts(any, any, any, okst) :- !.
cons_parts(nv, any, any, okst) :- !.
cons_parts(g, g, g, okst) :- !.
cons_parts(list(E), E, list(E), okst) :- !.
cons_parts(_, _, _, failst).

struct_parts(var, _, N, Vs, okst) :- !, fill_val(N, var, Vs).
struct_parts(any, _, N, Vs, okst) :- !, fill_val(N, any, Vs).
struct_parts(nv, _, N, Vs, okst) :- !, fill_val(N, any, Vs).
struct_parts(g, _, N, Vs, okst) :- !, fill_val(N, g, Vs).
struct_parts(st(F, N, Vs), F, N, Vs, okst) :- !.
struct_parts(_, _, _, [], failst).

fill_val(0, _, []) :- !.
fill_val(N, V, [V|Vs]) :- N1 is N - 1, fill_val(N1, V, Vs).

len([], 0).
len([_|Xs], N) :- len(Xs, M), N is M + 1.

% ---- environments ----

env_meet(I, V, Env0, Env, St) :-
    env_get(Env0, I, Old), !,
    meet(Old, V, New),
    env_upd(New, I, Env0, Env, St).
env_meet(I, V, Env0, Env, St) :-
    meet(var, V, V1),
    env_new(V1, I, Env0, Env, St).

env_upd(bot, _, Env, Env, failst) :- !.
env_upd(New, I, Env0, Env, okst) :- env_set(Env0, I, New, Env).

env_new(bot, _, Env, Env, failst) :- !.
env_new(V, I, Env, [I - V|Env], okst).

env_get([I - V|_], I, V) :- !.
env_get([_|E], I, V) :- env_get(E, I, V).

env_set([I - _|E], I, V, [I - V|E]) :- !.
env_set([P|E], I, V, [P|E1]) :- env_set(E, I, V, E1).

% ---- abstracting values (term-depth cut at 4) ----

svals([], _, []).
svals([T|Ts], Env, [V|Vs]) :- val_of(T, Env, 4, V), svals(Ts, Env, Vs).

val_of('$v'(I), Env, _, V) :- !, val_lookup(I, Env, V).
val_of([], _, _, nil) :- !.
val_of(T, _, _, int) :- integer(T), !.
val_of(T, _, _, atom) :- atomic(T), !.
val_of([H|T2], Env, D, V) :- !,
    D1 is D - 1,
    val_of(H, Env, D1, Hv),
    val_of(T2, Env, D1, Tv),
    cons_val(Hv, Tv, V).
val_of(T, Env, D, V) :- D =< 1, !, widen_term(T, Env, V).
val_of(T, Env, D, st(F, N, Vs)) :-
    T =.. [F|Args],
    len(Args, N),
    D1 is D - 1,
    vals_at(Args, Env, D1, Vs).

vals_at([], _, _, []).
vals_at([T|Ts], Env, D, [V|Vs]) :-
    val_of(T, Env, D, V),
    vals_at(Ts, Env, D, Vs).

val_lookup(I, Env, V) :- env_get(Env, I, V0), !, V = V0.
val_lookup(_, _, var).

cons_val(Hv, nil, list(Hv)) :- !.
cons_val(Hv, list(E), list(V)) :- !, lub(Hv, E, V).
cons_val(_, _, nv).

widen_term(T, Env, V) :- term_ground(T, Env), !, V = g.
widen_term(_, _, nv).

term_ground('$v'(I), Env) :- !, val_lookup(I, Env, V), ground_val(V).
term_ground(T, _) :- atomic(T), !.
term_ground(T, Env) :- T =.. [_|Args], args_ground(Args, Env).

args_ground([], _).
args_ground([A|As], Env) :- term_ground(A, Env), args_ground(As, Env).

% ---- body goals ----

solve_body([], Env, Env, T, T, Ch, Ch, St, St).
solve_body([G|Gs], Env0, Env, T0, T, Ch0, Ch, okst, St) :- !,
    solve_goal(G, Env0, Env1, T0, T1, Ch0, Ch1, St1),
    solve_body(Gs, Env1, Env, T1, T, Ch1, Ch, St1, St).
solve_body(_, Env, Env, T, T, Ch, Ch, failst, failst).

solve_goal(cut, Env, Env, T, T, Ch, Ch, okst).
solve_goal(failgoal, Env, Env, T, T, Ch, Ch, failst).
solve_goal(b(Nm, Ar, Args), Env0, Env, T, T, Ch, Ch, St) :-
    abs_builtin(Nm, Ar, Args, Env0, Env, St).
solve_goal(u(Nm, Ar, Args), Env0, Env, T0, T, Ch0, Ch, St) :-
    svals(Args, Env0, CallPat),
    run_call(Nm, Ar, CallPat, T0, T, Ch0, Ch, Succ, St0),
    propagate(St0, Succ, Args, Env0, Env, St).

propagate(failst, _, _, Env, Env, failst).
propagate(okst, Succ, Args, Env0, Env, St) :-
    match_args(Succ, Args, Env0, Env, okst, St).

% ---- builtins ----

abs_builtin(is, 2, [L, R], E0, E, St) :- !,
    u_val(int, L, E0, E1, St1),
    b_then(St1, g, R, E1, E, St).
abs_builtin(<, 2, Args, E0, E, St) :- !, ground_args(Args, E0, E, St).
abs_builtin(>, 2, Args, E0, E, St) :- !, ground_args(Args, E0, E, St).
abs_builtin(=<, 2, Args, E0, E, St) :- !, ground_args(Args, E0, E, St).
abs_builtin(>=, 2, Args, E0, E, St) :- !, ground_args(Args, E0, E, St).
abs_builtin(=:=, 2, Args, E0, E, St) :- !, ground_args(Args, E0, E, St).
abs_builtin(=\=, 2, Args, E0, E, St) :- !, ground_args(Args, E0, E, St).
abs_builtin(tab, 1, Args, E0, E, St) :- !, ground_args(Args, E0, E, St).
abs_builtin(=, 2, [A, B], E0, E, St) :- !, abs_unify(A, B, E0, E, St).
abs_builtin(==, 2, [A, B], E0, E, St) :- !, abs_unify(A, B, E0, E, St).
abs_builtin(var, 1, [A], E0, E, St) :- !, check_var(A, E0, E, St).
abs_builtin(nonvar, 1, [A], E0, E, St) :- !, check_type(A, nv, E0, E, St).
abs_builtin(atom, 1, [A], E0, E, St) :- !, check_type(A, atom, E0, E, St).
abs_builtin(integer, 1, [A], E0, E, St) :- !, check_type(A, int, E0, E, St).
abs_builtin(number, 1, [A], E0, E, St) :- !, check_type(A, int, E0, E, St).
abs_builtin(atomic, 1, [A], E0, E, St) :- !,
    check_type(A, const, E0, E, St).
abs_builtin(compound, 1, [A], E0, E, St) :- !, check_type(A, nv, E0, E, St).
abs_builtin(functor, 3, [T, N, A], E0, E, St) :- !,
    u_val(nv, T, E0, E1, St1),
    b_then2(St1, const, N, int, A, E1, E, St).
abs_builtin(arg, 3, [N, T, _], E0, E, St) :- !,
    u_val(int, N, E0, E1, St1),
    b_then(St1, nv, T, E1, E, St).
abs_builtin(=.., 2, [T, L], E0, E, St) :- !,
    u_val(nv, T, E0, E1, St1),
    b_then(St1, list(any), L, E1, E, St).
abs_builtin(_, _, _, E, E, okst).

b_then(failst, _, _, E, E, failst) :- !.
b_then(okst, V, T, E0, E, St) :- u_val(V, T, E0, E, St).

b_then2(failst, _, _, _, _, E, E, failst) :- !.
b_then2(okst, V1, T1, V2, T2, E0, E, St) :-
    u_val(V1, T1, E0, E1, St1),
    b_then(St1, V2, T2, E1, E, St).

ground_args([], E, E, okst).
ground_args([A|As], E0, E, St) :-
    u_val(g, A, E0, E1, St1),
    ga_more(St1, As, E1, E, St).
ga_more(failst, _, E, E, failst) :- !.
ga_more(okst, As, E0, E, St) :- ground_args(As, E0, E, St).

abs_unify(A, B, E0, E, St) :-
    val_of(A, E0, 4, V1),
    val_of(B, E0, 4, V2),
    meet(V1, V2, V),
    abs_unify_k(V, A, B, E0, E, St).
abs_unify_k(bot, _, _, E, E, failst) :- !.
abs_unify_k(V, A, B, E0, E, St) :-
    u_val(V, A, E0, E1, St1),
    b_then(St1, V, B, E1, E, St).

check_var('$v'(I), E0, E, St) :- !,
    val_lookup(I, E0, V),
    var_ck(V, I, E0, E, St).
check_var(_, E, E, failst).

var_ck(var, _, E, E, okst) :- !.
var_ck(any, I, E0, E, okst) :- !, env_set_add(I, var, E0, E).
var_ck(_, _, E, E, failst).

env_set_add(I, V, E0, E) :- env_get(E0, I, _), !, env_set(E0, I, V, E).
env_set_add(I, V, E0, [I - V|E0]).

check_type('$v'(I), K, E0, E, St) :- !,
    val_lookup(I, E0, V),
    type_ck(V, K, I, E0, E, St).
check_type(_, _, E, E, okst).

type_ck(var, _, _, E, E, failst) :- !.
type_ck(V, K, I, E0, E, St) :-
    meet(V, K, M),
    type_ck_k(M, I, E0, E, St).
type_ck_k(bot, _, E, E, failst) :- !.
type_ck_k(M, I, E0, E, okst) :- env_set_add(I, M, E0, E).
)PL";

  return D == PrologDomain::Coarse ? Source : RichSource;
}

Result<PrologHostedResult> awam::runPrologHostedAnalysis(
    const ParsedProgram &Program, SymbolTable &Syms,
    std::string_view EntryName, PrologDomain D) {
  std::string Source = reflectProgram(Program, Syms, EntryName);
  Source += prologAnalyzerSource(D);

  TermArena Arena;
  Result<ParsedProgram> Parsed = parseProgram(Source, Syms, Arena);
  if (!Parsed)
    return makeError("hosted analyzer parse error: " + Parsed.diag().str());
  Result<CompiledProgram> Compiled = compileProgram(*Parsed, Syms);
  if (!Compiled)
    return makeError("hosted analyzer compile error: " +
                     Compiled.diag().str());

  Machine M(*Compiled);
  Parser GoalParser("analyze_main(T)", Syms, Arena);
  Result<const Term *> Goal = GoalParser.readTerm();
  if (!Goal)
    return Goal.diag();

  std::vector<Solution> Sols;
  TermArena SolArena;
  RunStatus Status =
      M.solve(*Goal, GoalParser.lastTermNumVars(), SolArena, Sols, 1);
  if (Status == RunStatus::Error)
    return makeError("hosted analyzer run error: " + M.errorMessage());
  if (Status != RunStatus::Success || Sols.empty())
    return makeError("hosted analyzer failed to produce a table");

  PrologHostedResult Out;
  Out.HostInstructions = M.stepsExecuted();
  if (!Sols[0].Bindings.empty() && Sols[0].Bindings[0])
    Out.Table = writeTerm(Sols[0].Bindings[0], Syms);
  return Out;
}
