//===- tests/StoreSupportTest.cpp - Store and support unit tests ----------===//

#include "support/FlatMap.h"
#include "support/StringUtil.h"
#include "support/SymbolTable.h"
#include "support/Timer.h"
#include "term/Parser.h"
#include "term/TermWriter.h"
#include "wam/Store.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace awam;

namespace {

// ---- SymbolTable ---------------------------------------------------------

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable S;
  Symbol A = S.intern("hello");
  Symbol B = S.intern("hello");
  EXPECT_EQ(A, B);
  EXPECT_EQ(S.name(A), "hello");
}

TEST(SymbolTableTest, FixedSymbolsPreInterned) {
  SymbolTable S;
  EXPECT_EQ(S.intern("[]"), SymbolTable::SymNil);
  EXPECT_EQ(S.intern("."), SymbolTable::SymDot);
  EXPECT_EQ(S.intern(":-"), SymbolTable::SymNeck);
  EXPECT_EQ(S.intern("!"), SymbolTable::SymCut);
}

TEST(SymbolTableTest, LookupWithoutInterning) {
  SymbolTable S;
  EXPECT_EQ(S.lookup("nonexistent"), ~0u);
  Symbol A = S.intern("exists");
  EXPECT_EQ(S.lookup("exists"), A);
}

TEST(SymbolTableTest, ManySymbolsStayStable) {
  SymbolTable S;
  std::vector<Symbol> Ids;
  for (int I = 0; I != 2000; ++I)
    Ids.push_back(S.intern("sym" + std::to_string(I)));
  for (int I = 0; I != 2000; ++I)
    EXPECT_EQ(S.name(Ids[I]), "sym" + std::to_string(I));
}

TEST(SymbolTableTest, EmptyAtomHugeNameAndFixedIds) {
  SymbolTable S;
  ASSERT_EQ(S.size(), size_t(SymbolTable::NumFixedSymbols));
  const std::string_view Fixed[] = {"[]",   ".",    ",", ":-", "true",
                                    "fail", "!",    "{}", "-", "+"};
  static_assert(std::size(Fixed) == SymbolTable::NumFixedSymbols);
  for (Symbol I = 0; I != SymbolTable::NumFixedSymbols; ++I) {
    EXPECT_EQ(S.name(I), Fixed[I]);
    EXPECT_EQ(S.lookup(Fixed[I]), I);
    EXPECT_EQ(S.intern(Fixed[I]), I);
  }
  EXPECT_EQ(SymbolTable::SymNil, 0u);
  EXPECT_EQ(SymbolTable::SymDot, 1u);
  EXPECT_EQ(SymbolTable::SymComma, 2u);
  EXPECT_EQ(SymbolTable::SymNeck, 3u);
  EXPECT_EQ(SymbolTable::SymTrue, 4u);
  EXPECT_EQ(SymbolTable::SymFail, 5u);
  EXPECT_EQ(SymbolTable::SymCut, 6u);
  EXPECT_EQ(SymbolTable::SymCurly, 7u);
  EXPECT_EQ(SymbolTable::SymMinus, 8u);
  EXPECT_EQ(SymbolTable::SymPlus, 9u);

  // The empty atom '' is a name like any other.
  EXPECT_EQ(S.lookup(""), ~0u);
  Symbol E = S.intern("");
  EXPECT_EQ(E, Symbol(SymbolTable::NumFixedSymbols));
  EXPECT_EQ(S.name(E), "");
  EXPECT_EQ(S.intern(""), E);
  EXPECT_EQ(S.lookup(""), E);

  // A 1 MiB name, and one that differs from it in its last byte only.
  std::string Big(size_t(1) << 20, 'x');
  Big[12345] = 'y';
  Symbol B = S.intern(Big);
  std::string Big2 = Big;
  Big2.back() = 'z';
  Symbol B2 = S.intern(Big2);
  EXPECT_NE(B, B2);
  EXPECT_EQ(S.name(B), Big);
  EXPECT_EQ(S.name(B2), Big2);
  EXPECT_EQ(S.intern(Big), B);
  EXPECT_EQ(S.lookup(Big2), B2);
  EXPECT_EQ(S.size(), size_t(SymbolTable::NumFixedSymbols) + 3);
}

TEST(SymbolTableTest, NameViewsSurviveGrowthAndMoveAssignment) {
  constexpr int N = 100000;
  auto nameOf = [](int I) {
    // Mostly short names, with a long one now and then.
    std::string Name = "n" + std::to_string(I);
    if (I % 997 == 0)
      Name += std::string(4000 + I % 13, 'q');
    return Name;
  };
  SymbolTable S;
  std::vector<std::string_view> Views;
  Views.reserve(N);
  for (int I = 0; I != N; ++I) {
    Symbol Id = S.intern(nameOf(I));
    ASSERT_EQ(Id, Symbol(SymbolTable::NumFixedSymbols + I));
    Views.push_back(S.name(Id)); // taken at once, checked after growth
  }
  auto countBad = [&](const SymbolTable &T) {
    int Bad = 0;
    for (int I = 0; I != N; ++I) {
      std::string Name = nameOf(I);
      Symbol Id = SymbolTable::NumFixedSymbols + I;
      Bad += Views[I] != Name || T.name(Id) != Name || T.lookup(Name) != Id;
    }
    return Bad;
  };
  EXPECT_EQ(countBad(S), 0);

  SymbolTable T;
  T = std::move(S);
  EXPECT_EQ(countBad(T), 0);
  EXPECT_EQ(T.size(), size_t(SymbolTable::NumFixedSymbols) + N);
  Symbol Fresh = T.intern("fresh");
  EXPECT_EQ(Fresh, Symbol(SymbolTable::NumFixedSymbols + N));
  EXPECT_EQ(countBad(T), 0);

  // A fresh table assigned over a used one starts over at the fixed ids.
  S = SymbolTable();
  EXPECT_EQ(S.size(), size_t(SymbolTable::NumFixedSymbols));
  EXPECT_EQ(S.lookup("n1"), ~0u);
  EXPECT_EQ(S.intern("true"), Symbol(SymbolTable::SymTrue));
  EXPECT_EQ(countBad(T), 0);
}

TEST(SymbolTableTest, LookupOfMissingNameDoesNotIntern) {
  SymbolTable S;
  Symbol A = S.intern("missing_not");
  size_t Before = S.size();
  for (std::string_view Name : {"missing", "missing_no", "missing_nott", ""})
    EXPECT_EQ(S.lookup(Name), ~0u) << Name;
  EXPECT_EQ(S.size(), Before);
  Symbol M = S.intern("missing");
  EXPECT_EQ(M, Symbol(Before));
  EXPECT_EQ(S.lookup("missing"), M);
  EXPECT_EQ(S.lookup("missing_not"), A);
}

// ---- FlatMap64 -------------------------------------------------------------

constexpr uint32_t kEmptySlot = detail::FlatMap64::kEmpty;

TEST(FlatMap64Test, EmptyMapLookupsReturnEmpty) {
  detail::FlatMap64 M;
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.bytesUsed(), 0u);
  for (uint64_t Key : {uint64_t(0), uint64_t(1), ~uint64_t(0)})
    EXPECT_EQ(M.lookup(Key), kEmptySlot);
  int Calls = 0;
  EXPECT_EQ(M.findIf(42,
                     [&](uint32_t) {
                       ++Calls;
                       return true;
                     }),
            kEmptySlot);
  EXPECT_EQ(Calls, 0);
}

TEST(FlatMap64Test, FindIfVisitsDuplicateKeysInProbeOrder) {
  detail::FlatMap64 M;
  // Duplicates of two keys, interleaved; a key of 0 is a key like any
  // other. Before any growth, probe order is insertion order.
  for (uint32_t V = 0; V != 10; ++V) {
    M.insert(0, V);
    M.insert(7, 100 + V);
  }
  std::vector<uint32_t> Seen;
  EXPECT_EQ(M.findIf(0,
                     [&](uint32_t V) {
                       Seen.push_back(V);
                       return false;
                     }),
            kEmptySlot);
  EXPECT_EQ(Seen, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(M.lookup(0), 0u);
  EXPECT_EQ(M.lookup(7), 100u);
  EXPECT_EQ(M.findIf(7, [](uint32_t V) { return V == 104; }), 104u);
  EXPECT_EQ(M.findIf(7, [](uint32_t V) { return V == 4; }), kEmptySlot);
  EXPECT_EQ(M.lookup(8), kEmptySlot);
  EXPECT_EQ(M.size(), 20u);
}

TEST(FlatMap64Test, GrowthPastSeventyPercentKeepsEveryPair) {
  detail::FlatMap64 M;
  constexpr uint32_t N = 50000;
  auto keyOf = [](uint32_t I) { return uint64_t(I) * 0x9e3779b97f4a7c15ull; };
  size_t Growths = 0;
  size_t LastBytes = M.bytesUsed();
  for (uint32_t I = 0; I != N; ++I) {
    M.insert(keyOf(I), I);
    if (I % 3 == 0)
      M.insert(keyOf(I), N + I); // a duplicate rides along
    if (M.bytesUsed() != LastBytes) {
      ++Growths;
      LastBytes = M.bytesUsed();
    }
    // Capacity is bytesUsed / (8 + 4); the load stays under 70%.
    ASSERT_LT(10 * M.size(), 7 * (M.bytesUsed() / 12)) << I;
  }
  EXPECT_GE(Growths, 10u);
  EXPECT_EQ(M.size(), size_t(N) + (N + 2) / 3);
  int Bad = 0;
  for (uint32_t I = 0; I != N; ++I) {
    std::vector<uint32_t> Vals;
    M.findIf(keyOf(I), [&](uint32_t V) {
      Vals.push_back(V);
      return false;
    });
    std::sort(Vals.begin(), Vals.end());
    std::vector<uint32_t> Want = {I};
    if (I % 3 == 0)
      Want.push_back(N + I);
    Bad += Vals != Want;
  }
  EXPECT_EQ(Bad, 0);
  EXPECT_EQ(M.lookup(keyOf(N)), kEmptySlot);
}

// ---- StringUtil ------------------------------------------------------------

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(padLeft("ab", 5), "   ab");
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
}

TEST(StringUtilTest, QuoteAtom) {
  EXPECT_EQ(quoteAtom("foo"), "foo");
  EXPECT_EQ(quoteAtom("fooBar1"), "fooBar1");
  EXPECT_EQ(quoteAtom("Foo"), "'Foo'");
  EXPECT_EQ(quoteAtom("hello world"), "'hello world'");
  EXPECT_EQ(quoteAtom("it's"), "'it\\'s'");
  EXPECT_EQ(quoteAtom("[]"), "[]");
  EXPECT_EQ(quoteAtom("!"), "!");
  EXPECT_EQ(quoteAtom(":-"), ":-");
  EXPECT_EQ(quoteAtom(""), "''");
}

TEST(StringUtilTest, TextTableAligns) {
  // Cells right-align to the widest cell or header of their column.
  TextTable T({"a", "long"});
  T.addRow({"xx", "1"});
  // A cell appended in pieces, an empty one, a separator and a row short
  // of cells.
  T.text() += "ab";
  appendInt(T.text(), -7);
  T.endCell();
  T.addCell("");
  T.endRow();
  T.addSeparator();
  T.addCell("z");
  T.endRow();
  const std::string Want = "|    a | long |\n"
                           "|------|------|\n"
                           "|   xx |    1 |\n"
                           "| ab-7 |      |\n"
                           "|------|------|\n"
                           "|    z |      |\n";
  EXPECT_EQ(T.str(), Want);
  std::string Out = "before\n";
  T.appendTo(Out);
  EXPECT_EQ(Out, "before\n" + Want);
  // Headers alone set the widths of an empty table.
  EXPECT_EQ(TextTable({"k", "v"}).str(), "| k | v |\n|---|---|\n");
}

TEST(StringUtilTest, AppendAtomAndInt) {
  std::string Out;
  appendAtom(Out, "foo");
  appendAtom(Out, "it's");
  appendAtom(Out, "=");
  appendInt(Out, -9223372036854775807LL - 1);
  appendInt(Out, 18446744073709551615ULL);
  EXPECT_EQ(Out, "foo'it\\'s'=-922337203685477580818446744073709551615");
}

// ---- Store -----------------------------------------------------------------

TEST(StoreTest, PushVarSelfReference) {
  Store St;
  int64_t A = St.pushVar();
  EXPECT_EQ(St.at(A).T, Tag::Ref);
  EXPECT_EQ(St.at(A).V, A);
  DerefResult D = St.deref(Cell::ref(A));
  EXPECT_EQ(D.Addr, A);
  EXPECT_EQ(D.C.T, Tag::Ref);
}

TEST(StoreTest, DerefFollowsChains) {
  Store St;
  int64_t A = St.pushVar();
  int64_t B = St.pushVar();
  int64_t C = St.push(Cell::integer(7));
  St.bind(B, Cell::ref(C));
  St.bind(A, Cell::ref(B));
  DerefResult D = St.deref(Cell::ref(A));
  EXPECT_EQ(D.C.T, Tag::Int);
  EXPECT_EQ(D.C.V, 7);
  EXPECT_EQ(D.Addr, C);
}

TEST(StoreTest, UnwindRestoresBindings) {
  Store St;
  int64_t A = St.pushVar();
  int64_t Mark = St.trailMark();
  St.bind(A, Cell::integer(1));
  EXPECT_EQ(St.deref(Cell::ref(A)).C.T, Tag::Int);
  St.unwind(Mark);
  EXPECT_EQ(St.deref(Cell::ref(A)).C.T, Tag::Ref);
}

TEST(StoreTest, UnwindRestoresOverwrittenAbstractCells) {
  Store St;
  int64_t A = St.push(Cell::abs(AbsKind::Ground));
  int64_t Mark = St.trailMark();
  St.bind(A, Cell::atom(SymbolTable::SymNil));
  St.unwind(Mark);
  EXPECT_TRUE(St.at(A).isAbs());
  EXPECT_EQ(St.at(A).absKind(), AbsKind::Ground);
}

TEST(StoreTest, BuildAndReadTermRoundTrip) {
  SymbolTable Syms;
  TermArena Arena;
  Parser P("f(a, [1, X], g(X))", Syms, Arena);
  Result<const Term *> T = P.readTerm();
  ASSERT_TRUE(T);

  Store St;
  std::unordered_map<int, int64_t> Vars;
  int64_t Addr = St.buildTerm(*T, Vars);

  TermArena OutArena;
  const Term *Back = St.readTerm(Cell::ref(Addr), OutArena, Syms);
  // The two X occurrences must still share (same heap cell, hence the
  // same variable id in the read-back).
  ASSERT_TRUE(Back->isStruct());
  const Term *ListArg = Back->arg(1);
  const Term *GArg = Back->arg(2);
  EXPECT_EQ(ListArg->arg(1)->arg(0)->varId(), GArg->arg(0)->varId());
  WriteOptions Canon;
  Canon.UseOperators = false;
  std::string S = writeTerm(Back, Syms, Canon);
  EXPECT_TRUE(S.starts_with("f(a,")) << S;
}

TEST(StoreTest, ReadTermDepthGuard) {
  Store St;
  // Build a cyclic term by hand: X = f(X).
  int64_t FunAddr = St.push(Cell::fun(3, 1));
  int64_t ArgAddr = St.push(Cell::ref(0));
  int64_t StrAddr = St.push(Cell::str(FunAddr));
  St.at(ArgAddr) = Cell::ref(StrAddr);
  SymbolTable Syms;
  TermArena Arena;
  const Term *T = St.readTerm(Cell::ref(StrAddr), Arena, Syms, 16);
  ASSERT_NE(T, nullptr); // terminates thanks to the depth guard
}

// ---- Timer -----------------------------------------------------------------

TEST(TimerTest, MeasureRunsAtLeastMinIters) {
  int Count = 0;
  double Ms = measureMs([&] { ++Count; }, /*MinTotalMs=*/0.0,
                        /*MinIters=*/5, /*MaxIters=*/10);
  EXPECT_GE(Count, 6); // warm-up + 5
  EXPECT_GE(Ms, 0.0);
}

} // namespace
