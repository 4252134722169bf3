//===- tests/ReportGoldenTest.cpp - Report bytes pinned -------------------===//
//
// The analysis report is the analyzer's whole output, so its bytes are
// pinned here:
//   * FNV-1a hashes of formatReport in both forms (the pattern table and
//     the --modes table) and of formatReachability, for the 11 Table 1
//     programs under modes, pos and det, and for two linked corpora at
//     drive/1 under modes and det;
//   * literal text for hand-built rows that reach each printing rule:
//     shared-node markers, quoted atoms, negative integers, list forms,
//     arity-0 entries, (fails) rows and cells wider than their header.
//
// A change to how reports are rendered must leave every byte here as it
// is; an intentional change of the output re-pins them in the same commit
// and says why.
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"

#include "analyzer/Domain.h"
#include "analyzer/Session.h"
#include "compiler/ModuleLink.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

using namespace awam;

namespace {

/// FNV-1a over a byte string.
uint64_t hashBytes(std::string_view S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// Hashes of one analysis's three reports.
struct ReportGolden {
  std::string_view Program;
  std::string_view Domain;
  uint64_t Table, Modes, Reach;
};

/// Checks \p R's reports against \p G; on a mismatch prints the row as it
/// should be pinned.
void expectReports(const ReportGolden &G, const AnalysisResult &R,
                   const CompiledProgram &P) {
  const uint64_t Table = hashBytes(formatReport(R, P, /*Modes=*/false));
  const uint64_t Modes = hashBytes(formatReport(R, P, /*Modes=*/true));
  const uint64_t Reach = hashBytes(formatReachability(R, P));
  char Row[160];
  std::snprintf(Row, sizeof(Row),
                "{\"%.*s\", \"%.*s\", 0x%016llxull, 0x%016llxull, "
                "0x%016llxull},",
                static_cast<int>(G.Program.size()), G.Program.data(),
                static_cast<int>(G.Domain.size()), G.Domain.data(),
                static_cast<unsigned long long>(Table),
                static_cast<unsigned long long>(Modes),
                static_cast<unsigned long long>(Reach));
  EXPECT_EQ(Table, G.Table) << Row;
  EXPECT_EQ(Modes, G.Modes) << Row;
  EXPECT_EQ(Reach, G.Reach) << Row;
}

constexpr ReportGolden kTable1Reports[] = {
    {"log10", "modes",
     0x6ef773e627dea79cull, 0xac49c1b794f0c65bull,
     0xba117e8e4a1f451cull},
    {"log10", "pos",
     0x7722ea40643049b1ull, 0x662ed524cfd48bb1ull,
     0xba117e8e4a1f451cull},
    {"log10", "det",
     0xb59c3f2a3d49eb8aull, 0x30121638bc8e59d7ull,
     0xba117e8e4a1f451cull},
    {"ops8", "modes",
     0xf684a30d1a8a0e27ull, 0xe8d18330b129d4d8ull,
     0xba117e8e4a1f451cull},
    {"ops8", "pos",
     0x89055ca686bbca6dull, 0xa5b1311abdbc2358ull,
     0xba117e8e4a1f451cull},
    {"ops8", "det",
     0xf0fb741bd41f8f3eull, 0xcbb50f998319a447ull,
     0xba117e8e4a1f451cull},
    {"times10", "modes",
     0x8d3aa56a0d08e638ull, 0x08e30386fac4b12aull,
     0xba117e8e4a1f451cull},
    {"times10", "pos",
     0x8e54c0feef0f186bull, 0x6d609324e90be6f1ull,
     0xba117e8e4a1f451cull},
    {"times10", "det",
     0x9207885e3396ccb7ull, 0xee061fe7b2600e8dull,
     0xba117e8e4a1f451cull},
    {"divide10", "modes",
     0xa753cb421bfce61full, 0xadae5bc8b03320c2ull,
     0xba117e8e4a1f451cull},
    {"divide10", "pos",
     0x165888f173246d23ull, 0xc0d4ea42c58a0509ull,
     0xba117e8e4a1f451cull},
    {"divide10", "det",
     0xa57ec86e18156de7ull, 0x99497aeb83b66b64ull,
     0xba117e8e4a1f451cull},
    {"tak", "modes",
     0xbc8b19e6410a07d9ull, 0x505028e36f345467ull,
     0xba117e8e4a1f451cull},
    {"tak", "pos",
     0x3f0fbf2a61c19662ull, 0x8aaf794b985ee5d2ull,
     0xba117e8e4a1f451cull},
    {"tak", "det",
     0x8f89deead460b4acull, 0x4a28b7fa08c3476eull,
     0xba117e8e4a1f451cull},
    {"nreverse", "modes",
     0xb8aa0e36fc8c53dfull, 0x7af8f38042e0ff1full,
     0xba117e8e4a1f451cull},
    {"nreverse", "pos",
     0x25081fde84e534cbull, 0xc78106917bc6c93cull,
     0xba117e8e4a1f451cull},
    {"nreverse", "det",
     0x46934519fe5506c9ull, 0x058bf361fab0d109ull,
     0xba117e8e4a1f451cull},
    {"qsort", "modes",
     0x9f0373f877dc51a1ull, 0xb7c2e5df85578506ull,
     0xba117e8e4a1f451cull},
    {"qsort", "pos",
     0x31b353c91112e5faull, 0x319cbcea49893ff7ull,
     0xba117e8e4a1f451cull},
    {"qsort", "det",
     0x2ac2659470c53014ull, 0xcc8e7cf6dff11ff5ull,
     0xba117e8e4a1f451cull},
    {"query", "modes",
     0xcc88f0ecbad38d3full, 0x1217096bb92acb7aull,
     0xba117e8e4a1f451cull},
    {"query", "pos",
     0x7734fd0c26471946ull, 0xc9dc51608e56aedaull,
     0xba117e8e4a1f451cull},
    {"query", "det",
     0x95c6ab2586b76e73ull, 0xaebda7d1e925586cull,
     0xba117e8e4a1f451cull},
    {"zebra", "modes",
     0xfa2698f4b26e8abaull, 0xa79544213e337309ull,
     0xba117e8e4a1f451cull},
    {"zebra", "pos",
     0x7cceedf651ea13f1ull, 0x4c0c2043606b5457ull,
     0xba117e8e4a1f451cull},
    {"zebra", "det",
     0xe3de9f2b4446d9cdull, 0xcc908b272c178208ull,
     0xba117e8e4a1f451cull},
    {"serialise", "modes",
     0xf07a3b3c10d99045ull, 0xd089ff9fc11a8fb8ull,
     0xba117e8e4a1f451cull},
    {"serialise", "pos",
     0x227f3a154ef3a10full, 0xdf346fbe17522f8full,
     0xba117e8e4a1f451cull},
    {"serialise", "det",
     0xb46a0cf042eda0f3ull, 0xfbce3e195eaac118ull,
     0xba117e8e4a1f451cull},
    {"queens_8", "modes",
     0xa596798e9c2fa88bull, 0xbcec47e3c2a9e06cull,
     0xba117e8e4a1f451cull},
    {"queens_8", "pos",
     0xecef4351f0c95f1bull, 0xd95aba91c8994f5full,
     0xba117e8e4a1f451cull},
    {"queens_8", "det",
     0xd778446d8d658795ull, 0xee8951356e086388ull,
     0xba117e8e4a1f451cull},
};

TEST(ReportGoldenTest, Table1Programs) {
  ASSERT_EQ(std::size(kTable1Reports), 3 * benchmarkPrograms().size());
  for (const ReportGolden &G : kTable1Reports) {
    SCOPED_TRACE(std::string(G.Program) + " " + std::string(G.Domain));
    const BenchmarkProgram *B = findBenchmark(G.Program);
    ASSERT_NE(B, nullptr);
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> P = compileSource(B->Source, Syms, Arena);
    ASSERT_TRUE(P) << P.diag().str();
    AnalyzerOptions O;
    O.DomainName = std::string(G.Domain);
    AnalysisSession S(*P, O);
    Result<AnalysisResult> R = S.analyze(B->EntrySpec);
    ASSERT_TRUE(R) << R.diag().str();
    expectReports(G, *R, *P);
  }
}

/// The service workload's corpus shape: linked generateCorpus(Seed, 1200),
/// entry drive/1.
struct CorpusGolden {
  uint64_t Seed;
  ReportGolden Want;
};

constexpr CorpusGolden kCorpusReports[] = {
    {1, {"corpus1", "modes",
         0x2a13d11b01419102ull, 0x8971b8f905f12af6ull,
         0x52e9e113c4a81c9bull}},
    {1, {"corpus1", "det",
         0x54cfe77ac51dd592ull, 0xec050093a308348eull,
         0x52e9e113c4a81c9bull}},
    {3, {"corpus3", "modes",
         0x0538d28e80c6763cull, 0xeedea70f38826074ull,
         0x702a4415add85590ull}},
    {3, {"corpus3", "det",
         0xd80c0cc7cccdbc28ull, 0xe8c056c553de0120ull,
         0x702a4415add85590ull}},
};

TEST(ReportGoldenTest, LinkedCorpora) {
  for (const CorpusGolden &G : kCorpusReports) {
    SCOPED_TRACE(std::string(G.Want.Program) + " " +
                 std::string(G.Want.Domain));
    testgen::CorpusOptions CO;
    CO.Clauses = 1200;
    testgen::Corpus C = testgen::generateCorpus(G.Seed, CO);
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> Lib = compileSource(C.Library, Syms, Arena);
    ASSERT_TRUE(Lib) << Lib.diag().str();
    Result<CompiledProgram> User = compileSource(C.User, Syms, Arena);
    ASSERT_TRUE(User) << User.diag().str();
    Result<LinkedProgram> L =
        linkPrograms({{&*Lib, "library"}, {&*User, "user"}});
    ASSERT_TRUE(L) << L.diag().str();
    AnalyzerOptions O;
    O.DomainName = std::string(G.Want.Domain);
    AnalysisSession S(L->Program, O);
    Result<AnalysisResult> R = S.analyze("drive/1");
    ASSERT_TRUE(R) << R.diag().str();
    expectReports(G.Want, *R, L->Program);
  }
}

TEST(ReportGoldenTest, ReachabilityLists) {
  // Every Table 1 program reaches all its predicates and each call can
  // succeed, so their reachability reports are one text; this program
  // has a dead predicate and a call that never succeeds.
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource("main :- used(1), maybe(_).\n"
                                            "used(_).\n"
                                            "never(_) :- used(2).\n"
                                            "maybe(X) :- broken(X).\n"
                                            "maybe(a).\n"
                                            "broken(X) :- integer(X), "
                                            "atom(X).\n",
                                            Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  AnalysisSession S(*P);
  Result<AnalysisResult> R = S.analyze("main");
  ASSERT_TRUE(R) << R.diag().str();
  EXPECT_EQ(formatReachability(*R, *P),
            "Reachability from the analyzed entry goal:\n"
            "  unreachable: never/1\n"
            "  never succeeds: broken/1 (var)\n");
  EXPECT_EQ(formatReport(*R, *P, /*Modes=*/false),
            R"(| predicate | calling pattern | success pattern |
|-----------|-----------------|-----------------|
|    main/0 |              () |              () |
|    used/1 |           (int) |           (int) |
|   maybe/1 |           (var) |             (a) |
|  broken/1 |           (var) |         (fails) |
iterations: 1 (fixpoint), abstract instructions: 17
)");
}

//===----------------------------------------------------------------------===//
// Hand-built rows
//===----------------------------------------------------------------------===//

/// Builds a pattern node.
PatNode node(PatKind K, Symbol Sym = 0, int64_t Num = 0) {
  PatNode N;
  N.K = K;
  N.Sym = Sym;
  N.Num = Num;
  return N;
}

/// Gives node \p Id of \p P the children \p Kids.
void setKids(Pattern &P, int32_t Id, std::initializer_list<int32_t> Kids) {
  P.Nodes[Id].ChildBegin = static_cast<int32_t>(P.ChildStore.size());
  P.Nodes[Id].ChildCount = static_cast<int32_t>(Kids.size());
  P.ChildStore.insert(P.ChildStore.end(), Kids);
}

class ReportRows : public ::testing::Test {
protected:
  void SetUp() override {
    using K = PatKind;
    const Symbol Nil = Syms.intern("[]");
    auto Add = [&](std::string Label, Pattern Call,
                   std::optional<Pattern> Success) {
      R.Items.push_back({0, std::move(Label), std::move(Call),
                         std::move(Success)});
    };

    // Aliasing between arguments: both roots are one node.
    Pattern Alias;
    Alias.Nodes = {node(K::VarP)};
    Alias.Roots = {0, 0};
    Pattern AliasG = Alias;
    AliasG.Nodes[0].K = K::GroundP;
    Add("p/2", Alias, AliasG);

    // Quoted atoms, negative integers, a quoted functor; fails.
    Pattern Quoted;
    Quoted.Nodes = {node(K::ConP, Syms.intern("Hello World")),
                    node(K::IntP, 0, -42),
                    node(K::ConP, Syms.intern("it's")),
                    node(K::StrP, Syms.intern("Foo")),
                    node(K::IntP, 0, std::numeric_limits<int64_t>::min())};
    setKids(Quoted, 3, {4});
    Quoted.Roots = {0, 1, 2, 3};
    Add("q/4", Quoted, std::nullopt);

    // List forms: a symbolic-atom element, a partial list, a compound
    // element; then a shared list element reached three ways.
    Pattern Lists;
    Lists.Nodes = {node(K::ListP),      node(K::ConP, Syms.intern("=")),
                   node(K::ConsP),      node(K::ConP, Syms.intern("a")),
                   node(K::ConsP),      node(K::IntP, 0, 1),
                   node(K::VarP),       node(K::ListP),
                   node(K::StrP, Syms.intern("f")), node(K::GroundP)};
    setKids(Lists, 0, {1});
    setKids(Lists, 2, {3, 4});
    setKids(Lists, 4, {5, 6});
    setKids(Lists, 7, {8});
    setKids(Lists, 8, {9});
    Lists.Roots = {0, 2, 7};
    Pattern Shared;
    Shared.Nodes = {node(K::ListP), node(K::VarP), node(K::ConsP),
                    node(K::ConP, Nil)};
    setKids(Shared, 0, {1});
    setKids(Shared, 2, {1, 3});
    Shared.Roots = {0, 1, 2};
    Add("r/3", Lists, Shared);

    // Aliasing inside one structure.
    Pattern Inner;
    Inner.Nodes = {node(K::StrP, Syms.intern("f")), node(K::VarP)};
    setKids(Inner, 0, {1, 1});
    Inner.Roots = {0};
    Pattern Typed;
    Typed.Nodes = {node(K::StrP, Syms.intern("f")), node(K::AtomTP),
                   node(K::IntTP)};
    setKids(Typed, 0, {1, 2});
    Typed.Roots = {0};
    Add("u/1", Inner, Typed);

    // The remaining simple kinds.
    Pattern Kinds;
    Kinds.Nodes = {node(K::AnyP), node(K::NVP), node(K::ConstP)};
    Kinds.Roots = {0, 1, 2};
    Add("v/3", Kinds, Kinds);

    // Arity 0, succeeding and failing.
    Add("s", Pattern(), Pattern());
    Add("t", Pattern(), std::nullopt);

    // A label wider than its header.
    Pattern GList;
    GList.Nodes = {node(K::ListP), node(K::GroundP)};
    setKids(GList, 0, {1});
    GList.Roots = {0};
    Add("a_long_predicate_name/1", GList, GList);

    R.Iterations = 3;
    R.Converged = true;
    R.Counters.Instructions = 12345;
  }

  SymbolTable Syms;
  AnalysisResult R;
};

TEST_F(ReportRows, PatternTable) {
  const std::string Want = R"(|               predicate |                                            calling pattern |             success pattern |
|-------------------------|------------------------------------------------------------|-----------------------------|
|                     p/2 |                                             (_S0=var, _S0) |                (_S0=g, _S0) |
|                     q/4 | ('Hello World', -42, 'it\'s', 'Foo'(-9223372036854775808)) |                     (fails) |
|                     r/3 |                           ((=)list, [a,1|var], (f(g))list) | ((_S1=var)list, _S1, [_S1]) |
|                     u/1 |                                           (f(_S1=var,_S1)) |               (f(atom,int)) |
|                     v/3 |                                           (any, nv, const) |            (any, nv, const) |
|                       s |                                                         () |                          () |
|                       t |                                                         () |                     (fails) |
| a_long_predicate_name/1 |                                                    (glist) |                     (glist) |
iterations: 3 (fixpoint), abstract instructions: 12345
)";
  EXPECT_EQ(formatAnalysis(R, Syms), Want);
  // The default domain prints exactly what a result without one does.
  R.Dom = &defaultDomain();
  EXPECT_EQ(formatAnalysis(R, Syms), Want);
  R.Converged = false;
  const std::string Budget = formatAnalysis(R, Syms);
  EXPECT_TRUE(Budget.ends_with(
      "\niterations: 3 (budget hit), abstract instructions: 12345\n"))
      << Budget;
}

TEST_F(ReportRows, ModesTable) {
  EXPECT_EQ(formatModes(R, Syms), R"(|               predicate | arg | mode |                   call type |  success type |
|-------------------------|-----|------|-----------------------------|---------------|
|                     p/2 |   1 |    - |                         var |             g |
|                         |   2 |    - |                         var |             g |
|                     q/4 |   1 |   ++ |               'Hello World' |       (fails) |
|                         |   2 |   ++ |                         -42 |       (fails) |
|                         |   3 |   ++ |                     'it\'s' |       (fails) |
|                         |   4 |   ++ | 'Foo'(-9223372036854775808) |       (fails) |
|                     r/3 |   1 |   ++ |                     (=)list | (_S1=var)list |
|                         |   2 |    + |                   [a,1|var] |       _S1=var |
|                         |   3 |   ++ |                  (f(g))list |     [_S1=var] |
|                     u/1 |   1 |    + |              f(_S1=var,_S1) |   f(atom,int) |
|                     v/3 |   1 |    ? |                         any |           any |
|                         |   2 |    + |                          nv |            nv |
|                         |   3 |   ++ |                       const |         const |
|                       s |   - |      |                             |      succeeds |
|                       t |   - |      |                             |       (fails) |
| a_long_predicate_name/1 |   1 |   ++ |                       glist |         glist |
)");
}

} // namespace
