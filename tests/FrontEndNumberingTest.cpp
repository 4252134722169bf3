//===- tests/FrontEndNumberingTest.cpp - Front-end numbering goldens ------===//
//
// The front end's numbering contract: parsing, compiling and linking a
// program interns its symbols, predicate ids, constant/functor pool
// entries and switch tables in a fixed order and lays its code out at
// fixed addresses. Rendered reports (BenchmarkGoldenTest) and the module
// fingerprint resolve pool indices to their meaning, so a renumbering
// would leave them unchanged; these goldens pin the raw numbering itself.
//
// Each program hashes, in order:
//   * the symbol table's names in id order;
//   * per compiled or linked module: the predicate table in PredId order
//     (name, arity, IndexEntry, clause entries), the constant and functor
//     pools in index order, the term and value switch tables, and the raw
//     instruction stream (Op, A, B, C, Flags), plus the CompiledProgram
//     metadata (MaxXReg, NumArgs, NumPreds, UndefinedPredicates).
//
// An intentional numbering change must re-pin these values in the same
// commit and say why.
//
// The module and predicate fingerprints are pinned too: CodeModule folds
// the zero high bytes of each operand into one multiply, which must give
// the byte-wise FNV-1a it replaced bit for bit.
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"

#include "compiler/ModuleLink.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

class Hasher {
public:
  void bytes(const void *Data, size_t N) {
    const auto *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != N; ++I) {
      H ^= P[I];
      H *= 1099511628211ull;
    }
  }
  void num(int64_t V) { bytes(&V, sizeof(V)); }
  void str(std::string_view S) {
    num(static_cast<int64_t>(S.size()));
    bytes(S.data(), S.size());
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 1469598103934665603ull;
};

void hashSymbols(Hasher &H, const SymbolTable &Syms) {
  H.num(static_cast<int64_t>(Syms.size()));
  for (Symbol S = 0; S != Syms.size(); ++S)
    H.str(Syms.name(S));
}

void hashModule(Hasher &H, const CompiledProgram &P) {
  const CodeModule &M = *P.Module;
  H.num(M.numPredicates());
  for (int32_t Pid = 0; Pid != M.numPredicates(); ++Pid) {
    const PredicateInfo &PI = M.predicate(Pid);
    H.num(PI.Name);
    H.num(PI.Arity);
    H.num(PI.IndexEntry);
    H.num(static_cast<int64_t>(PI.Clauses.size()));
    for (const ClauseInfo &C : PI.Clauses) {
      H.num(C.Entry);
      H.num(C.NumInstr);
    }
  }
  H.num(M.numConsts());
  for (int32_t I = 0; I != M.numConsts(); ++I) {
    const ConstOperand &C = M.constAt(I);
    H.num(C.K);
    H.num(C.Name);
    H.num(C.Int);
  }
  H.num(M.numFunctors());
  for (int32_t I = 0; I != M.numFunctors(); ++I) {
    H.num(M.functorAt(I).Name);
    H.num(M.functorAt(I).Arity);
  }
  H.num(M.numTermSwitches());
  for (int32_t I = 0; I != M.numTermSwitches(); ++I) {
    const TermSwitch &S = M.termSwitchAt(I);
    H.num(S.OnVar);
    H.num(S.OnConst);
    H.num(S.OnList);
    H.num(S.OnStruct);
  }
  H.num(M.numValueSwitches());
  for (int32_t I = 0; I != M.numValueSwitches(); ++I) {
    const ValueSwitch &S = M.valueSwitchAt(I);
    H.num(static_cast<int64_t>(S.Cases.size()));
    for (auto [Key, Target] : S.Cases) {
      H.num(Key);
      H.num(Target);
    }
    H.num(S.Default);
  }
  H.num(M.codeSize());
  for (int32_t A = 0; A != M.codeSize(); ++A) {
    const Instruction &I = M.at(A);
    H.num(static_cast<int64_t>(I.Op));
    H.num(I.A);
    H.num(I.B);
    H.num(I.C);
    H.num(I.Flags);
  }
  H.num(P.MaxXReg);
  H.num(P.NumArgs);
  H.num(P.NumPreds);
  H.num(static_cast<int64_t>(P.UndefinedPredicates.size()));
  for (int32_t Pid : P.UndefinedPredicates)
    H.num(Pid);
}

struct Golden {
  std::string_view Name;
  uint64_t Hash;
};

// Pinned at the commit before the linear front-end rewrite.
constexpr Golden kTable1[] = {
    {"log10", 0xa2e289206c8b48e1ull},
    {"ops8", 0x214d6bce72cdd884ull},
    {"times10", 0x45daeadfd8fa270aull},
    {"divide10", 0x5736a87cd58ab33dull},
    {"tak", 0xa0a2595e7b6a30a9ull},
    {"nreverse", 0x1c21c0352b9d480ull},
    {"qsort", 0x10e18cadeafe5bfcull},
    {"query", 0x745844577321e7f9ull},
    {"zebra", 0xd3b2d78e56d57d1full},
    {"serialise", 0xbf9aa282a53fbd03ull},
    {"queens_8", 0x6a24b87cd3459761ull},
};

TEST(FrontEndNumberingTest, Table1Programs) {
  ASSERT_EQ(benchmarkPrograms().size(), std::size(kTable1));
  for (const Golden &G : kTable1) {
    const BenchmarkProgram *B = findBenchmark(G.Name);
    ASSERT_NE(B, nullptr) << G.Name;
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> P = compileSource(B->Source, Syms, Arena);
    ASSERT_TRUE(P) << G.Name << ": " << P.diag().str();
    Hasher H;
    hashModule(H, *P);
    hashSymbols(H, Syms);
    EXPECT_EQ(H.value(), G.Hash)
        << G.Name << " = 0x" << std::hex << H.value();
  }
}

// Control constructs (auxiliary predicates and their $auxN names), xfy
// chains, prefix operators, quoted and escaped atoms, character codes,
// curly terms and '|' as a disjunction separator.
constexpr std::string_view kSyntaxSource = R"PL(
main :- classify([a, 1, f(x), [y]], Ks), show(Ks), \+ bad(Ks).
classify([], []).
classify([X|Xs], [K|Ks]) :-
    ( atom(X) -> K = atom
    ; integer(X), X > 0 -> K = pos
    ; X = [_|_] -> K = list
    ; K = other
    ),
    classify(Xs, Ks).
show(Ks) :- ( Ks = [] | Ks = [_|_], write(Ks) ), nl.
bad(Ks) :- member(K, Ks), ( K == bad ; \+ \+ K = 'it''s' ; K = 'a\nb' ).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
pow(X, Y, Z) :- Z = X^Y^2, W is -X + - 3 * (Y - 0'a), W >= -1.
curly({A, B}, A-B).
neg(X) :- \+ ( X = a ; X = b -> true ; fail ).
)PL";

TEST(FrontEndNumberingTest, SyntaxAndControlConstructs) {
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource(kSyntaxSource, Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  Hasher H;
  hashModule(H, *P);
  hashSymbols(H, Syms);
  EXPECT_EQ(H.value(), 0xbfc0218f9c9dec93ull)
      << "0x" << std::hex << H.value();
}

struct CorpusGolden {
  uint64_t Seed;
  int Clauses;
  uint64_t Hash;
};

// Pinned at the commit before the linear front-end rewrite.
constexpr CorpusGolden kCorpora[] = {
    {1, 1000, 0x8a60647441ee0233ull},
    {2, 1000, 0x35c0d62bd37e46c7ull},
    {3, 1000, 0xa474cb17beb12275ull},
    {4, 4000, 0xfeb74a6ff3fc5ec0ull},
    {5, 4000, 0xd1519ebcd942e20dull},
    {6, 4000, 0x15efa7292228aa7dull},
};

TEST(FrontEndNumberingTest, LinkedCorpora) {
  for (const CorpusGolden &G : kCorpora) {
    testgen::CorpusOptions O;
    O.Clauses = G.Clauses;
    testgen::Corpus C = testgen::generateCorpus(G.Seed, O);
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> Lib = compileSource(C.Library, Syms, Arena);
    ASSERT_TRUE(Lib) << Lib.diag().str();
    Result<CompiledProgram> User = compileSource(C.User, Syms, Arena);
    ASSERT_TRUE(User) << User.diag().str();
    Result<LinkedProgram> L =
        linkPrograms({{&*Lib, "library"}, {&*User, "user"}});
    ASSERT_TRUE(L) << L.diag().str();
    Hasher H;
    hashModule(H, *Lib);
    hashModule(H, *User);
    hashModule(H, L->Program);
    H.num(static_cast<int64_t>(L->UnresolvedImports.size()));
    hashSymbols(H, Syms);
    EXPECT_EQ(H.value(), G.Hash) << "seed " << G.Seed << " at " << G.Clauses
                                 << " clauses = 0x" << std::hex
                                 << H.value();
  }
}

TEST(FrontEndNumberingTest, Fingerprints) {
  // Every module and predicate fingerprint of the programs above, hashed
  // into one value. Pinned at the commit before the fold, whose hash took
  // one FNV-1a round per byte of each int64 operand.
  Hasher H;
  auto Add = [&](const CodeModule &M) {
    H.num(static_cast<int64_t>(M.fingerprint()));
    for (int32_t Pid = 0; Pid != M.numPredicates(); ++Pid)
      H.num(static_cast<int64_t>(M.predicateFingerprint(Pid)));
  };
  std::vector<std::string_view> Sources;
  for (const Golden &G : kTable1)
    Sources.push_back(findBenchmark(G.Name)->Source);
  Sources.push_back(kSyntaxSource); // negative and multi-byte constants
  for (std::string_view Src : Sources) {
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> P = compileSource(Src, Syms, Arena);
    ASSERT_TRUE(P) << P.diag().str();
    Add(*P->Module);
  }
  for (const CorpusGolden &G : kCorpora) {
    testgen::CorpusOptions O;
    O.Clauses = G.Clauses;
    testgen::Corpus C = testgen::generateCorpus(G.Seed, O);
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> Lib = compileSource(C.Library, Syms, Arena);
    ASSERT_TRUE(Lib) << Lib.diag().str();
    Result<CompiledProgram> User = compileSource(C.User, Syms, Arena);
    ASSERT_TRUE(User) << User.diag().str();
    Result<LinkedProgram> L =
        linkPrograms({{&*Lib, "library"}, {&*User, "user"}});
    ASSERT_TRUE(L) << L.diag().str();
    Add(*L->Program.Module);
  }
  EXPECT_EQ(H.value(), 0x518ebf965d7c6a4cull)
      << "0x" << std::hex << H.value();
}

} // namespace
