//===- programs/Benchmarks.cpp - Benchmark program sources ----------------===//

#include "programs/Benchmarks.h"

#include <array>
#include <fstream>
#include <sstream>
#include <string>

using namespace awam;

namespace {

// Shared symbolic-differentiation core (Warren's deriv benchmark). The four
// programs log10 / ops8 / times10 / divide10 differentiate different
// expressions over this rule set.
constexpr std::string_view DerivRules = R"PL(
d(U + V, X, DU + DV) :- !, d(U, X, DU), d(V, X, DV).
d(U - V, X, DU - DV) :- !, d(U, X, DU), d(V, X, DV).
d(U * V, X, DU * V + U * DV) :- !, d(U, X, DU), d(V, X, DV).
d(U / V, X, (DU * V - U * DV) / (V ^ 2)) :- !, d(U, X, DU), d(V, X, DV).
d(U ^ N, X, DU * N * U ^ N1) :- integer(N), !, N1 is N - 1, d(U, X, DU).
d(- U, X, - DU) :- !, d(U, X, DU).
d(exp(U), X, exp(U) * DU) :- !, d(U, X, DU).
d(log(U), X, DU / U) :- !, d(U, X, DU).
d(X, X, 1) :- !.
d(_, _, 0).
)PL";

constexpr std::string_view Log10Source = R"PL(
main :- log10(_).
log10(E) :-
    d(log(log(log(log(log(log(log(log(log(log(x)))))))))), x, E).
)PL";

constexpr std::string_view Ops8Source = R"PL(
main :- ops8(_).
ops8(E) :- d((x + 1) * ((x ^ 2 + 2) * (x ^ 3 + 3)), x, E).
)PL";

constexpr std::string_view Times10Source = R"PL(
main :- times10(_).
times10(E) :-
    d(((((((((x * x) * x) * x) * x) * x) * x) * x) * x) * x, x, E).
)PL";

constexpr std::string_view Divide10Source = R"PL(
main :- divide10(_).
divide10(E) :-
    d(((((((((x / x) / x) / x) / x) / x) / x) / x) / x) / x, x, E).
)PL";

constexpr std::string_view TakSource = R"PL(
main :- tak(18, 12, 6, _).
tak(X, Y, Z, A) :- X =< Y, !, Z = A.
tak(X, Y, Z, A) :-
    X1 is X - 1, tak(X1, Y, Z, A1),
    Y1 is Y - 1, tak(Y1, Z, X, A2),
    Z1 is Z - 1, tak(Z1, X, Y, A3),
    tak(A1, A2, A3, A).
)PL";

constexpr std::string_view NreverseSource = R"PL(
main :- nreverse([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,
                  21,22,23,24,25,26,27,28,29,30], _).
nreverse([], []).
nreverse([X|L0], L) :- nreverse(L0, L1), concatenate(L1, [X], L).
concatenate([], L, L).
concatenate([X|L1], L2, [X|L3]) :- concatenate(L1, L2, L3).
)PL";

constexpr std::string_view QsortSource = R"PL(
main :- qsort([27,74,17,33,94,18,46,83,65,2,32,53,28,85,99,47,28,82,6,11,
               55,29,39,81,90,37,10,0,66,51,7,21,85,27,31,63,75,4,95,99,
               11,28,61,74,18,92,40,53,59,8], _, []).
qsort([], R, R).
qsort([X|L], R, R0) :-
    partition(L, X, L1, L2),
    qsort(L2, R1, R0),
    qsort(L1, R, [X|R1]).
partition([], _, [], []).
partition([X|L], Y, [X|L1], L2) :- X =< Y, !, partition(L, Y, L1, L2).
partition([X|L], Y, L1, [X|L2]) :- partition(L, Y, L1, L2).
)PL";

constexpr std::string_view QuerySource = R"PL(
main :- query(_).
query([C1, D1, C2, D2]) :-
    density(C1, D1), density(C2, D2),
    D1 > D2, 20 * D1 < 21 * D2.
density(C, D) :- pop(C, P), area(C, A), D is P * 100 // A.
pop(china, 8250).       area(china, 3380).
pop(india, 5863).       area(india, 1139).
pop(ussr, 2521).        area(ussr, 8708).
pop(usa, 2119).         area(usa, 3609).
pop(indonesia, 1276).   area(indonesia, 570).
pop(japan, 1097).       area(japan, 148).
pop(brazil, 1042).      area(brazil, 3288).
pop(bangladesh, 750).   area(bangladesh, 55).
pop(pakistan, 682).     area(pakistan, 311).
pop(w_germany, 620).    area(w_germany, 96).
pop(nigeria, 613).      area(nigeria, 373).
pop(mexico, 581).       area(mexico, 764).
pop(uk, 559).           area(uk, 86).
pop(italy, 554).        area(italy, 116).
pop(france, 525).       area(france, 213).
pop(philippines, 415).  area(philippines, 90).
pop(thailand, 410).     area(thailand, 200).
pop(turkey, 383).       area(turkey, 296).
pop(egypt, 364).        area(egypt, 386).
pop(spain, 352).        area(spain, 190).
pop(poland, 337).       area(poland, 121).
pop(s_korea, 335).      area(s_korea, 37).
pop(iran, 320).         area(iran, 628).
pop(ethiopia, 272).     area(ethiopia, 350).
pop(argentina, 251).    area(argentina, 1080).
)PL";

constexpr std::string_view ZebraSource = R"PL(
main :- zebra(_, _).
zebra(Zebra, Water) :-
    Houses = [house(_, norwegian, _, _, _), _,
              house(_, _, _, milk, _), _, _],
    member(house(red, english, _, _, _), Houses),
    right_of(house(green, _, _, coffee, _),
             house(ivory, _, _, _, _), Houses),
    next_to(house(_, norwegian, _, _, _),
            house(blue, _, _, _, _), Houses),
    member(house(_, spanish, dog, _, _), Houses),
    member(house(_, _, snails, _, old_gold), Houses),
    member(house(yellow, _, _, _, kools), Houses),
    next_to(house(_, _, _, _, chesterfield),
            house(_, _, fox, _, _), Houses),
    next_to(house(_, _, horse, _, _),
            house(_, _, _, _, kools), Houses),
    member(house(_, _, _, orange_juice, lucky_strike), Houses),
    member(house(_, ukrainian, _, tea, _), Houses),
    member(house(_, japanese, _, _, parliament), Houses),
    member(house(_, _, zebra, _, _), Houses),
    member(house(_, _, _, water, _), Houses),
    member(house(_, Zebra, zebra, _, _), Houses),
    member(house(_, Water, _, water, _), Houses).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
right_of(A, B, [B, A|_]).
right_of(A, B, [_|T]) :- right_of(A, B, T).
next_to(A, B, [A, B|_]).
next_to(A, B, [B, A|_]).
next_to(A, B, [_|T]) :- next_to(A, B, T).
)PL";

constexpr std::string_view SerialiseSource = R"PL(
main :- serialise([97,98,108,101,32,119,97,115,32,105,32,101,114,101,32,
                   105,32,115,97,119,32,101,108,98,97], _).
serialise(L, R) :- pairlists(L, R, A), arrange(A, T), numbered(T, 1, _).
pairlists([X|L], [Y|R], [pair(X, Y)|A]) :- pairlists(L, R, A).
pairlists([], [], []).
arrange([X|L], tree(T1, X, T2)) :-
    split(L, X, L1, L2),
    arrange(L1, T1),
    arrange(L2, T2).
arrange([], void).
split([X|L], X, L1, L2) :- !, split(L, X, L1, L2).
split([X|L], Y, [X|L1], L2) :- before(X, Y), !, split(L, Y, L1, L2).
split([X|L], Y, L1, [X|L2]) :- before(Y, X), !, split(L, Y, L1, L2).
split([], _, [], []).
before(pair(X1, _), pair(X2, _)) :- X1 < X2.
numbered(tree(T1, pair(_, N1), T2), N0, N) :-
    numbered(T1, N0, N1),
    N2 is N1 + 1,
    numbered(T2, N2, N).
numbered(void, N, N).
)PL";

constexpr std::string_view QueensSource = R"PL(
main :- queens(8, _).
queens(N, Qs) :- range(1, N, Ns), place_queens(Ns, [], Qs).
place_queens([], Qs, Qs).
place_queens(UnplacedQs, SafeQs, Qs) :-
    selectq(UnplacedQs, UnplacedQs1, Q),
    not_attack(SafeQs, Q),
    place_queens(UnplacedQs1, [Q|SafeQs], Qs).
not_attack(Xs, X) :- not_attack_at(Xs, X, 1).
not_attack_at([], _, _).
not_attack_at([Y|Ys], X, N) :-
    X =\= Y + N, X =\= Y - N,
    N1 is N + 1,
    not_attack_at(Ys, X, N1).
selectq([X|Xs], Xs, X).
selectq([Y|Ys], [Y|Zs], X) :- selectq(Ys, Zs, X).
range(N, N, [N]) :- !.
range(M, N, [M|Ns]) :- M < N, M1 is M + 1, range(M1, N, Ns).
)PL";

std::string makeDerivSource(std::string_view Driver) {
  return std::string(Driver) + std::string(DerivRules);
}

struct BenchStorage {
  std::string Log10 = makeDerivSource(Log10Source);
  std::string Ops8 = makeDerivSource(Ops8Source);
  std::string Times10 = makeDerivSource(Times10Source);
  std::string Divide10 = makeDerivSource(Divide10Source);
  std::array<BenchmarkProgram, 11> Programs = {{
      {"log10", Log10, "main", true},
      {"ops8", Ops8, "main", true},
      {"times10", Times10, "main", true},
      {"divide10", Divide10, "main", true},
      {"tak", TakSource, "main", true},
      {"nreverse", NreverseSource, "main", true},
      {"qsort", QsortSource, "main", true},
      {"query", QuerySource, "main", true},
      {"zebra", ZebraSource, "main", true},
      {"serialise", SerialiseSource, "main", true},
      {"queens_8", QueensSource, "main", true},
  }};
};

const BenchStorage &storage() {
  static const BenchStorage S;
  return S;
}

} // namespace

std::span<const BenchmarkProgram> awam::benchmarkPrograms() {
  return storage().Programs;
}

const BenchmarkProgram *awam::findBenchmark(std::string_view Name) {
  for (const BenchmarkProgram &B : storage().Programs)
    if (B.Name == Name)
      return &B;
  return nullptr;
}

bool awam::loadProgramSource(const std::string &Spec, std::string &Source,
                             std::string &Err) {
  if (Spec.starts_with("bench:")) {
    const BenchmarkProgram *B = findBenchmark(Spec.substr(6));
    if (!B) {
      Err = "unknown benchmark '" + Spec.substr(6) + "'\n";
      return false;
    }
    Source = B->Source;
    return true;
  }
  std::ifstream In(Spec);
  if (!In) {
    Err = "cannot open " + Spec + "\n";
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Source = Buf.str();
  return true;
}
