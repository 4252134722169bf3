//===- tests/ExtensionTableTest.cpp - Probe accounting --------------------===//
//
// The ablation metric: LinearList and HashMap probe counts must be
// comparable. The uniform definition (ExtensionTable.h):
//  * LinearList: one probe per entry examined by a lookup;
//  * HashMap: one probe for the index consultation itself — counted on
//    hits and misses alike — plus one per additional candidate compared.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Analyzer.h"
#include "analyzer/ExtensionTable.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

Pattern arity1(PatKind K) { return makeEntryPattern({K}); }

TEST(ExtensionTableTest, LinearListMissScansEveryEntry) {
  ExtensionTable T(ExtensionTable::Impl::LinearList);
  bool Created = false;
  const int N = 5;
  for (int I = 0; I != N; ++I)
    T.findOrCreate(I, arity1(PatKind::AnyP), Created);
  uint64_t Before = T.probeCount();
  EXPECT_EQ(T.find(99, arity1(PatKind::AnyP)), nullptr);
  EXPECT_EQ(T.probeCount() - Before, static_cast<uint64_t>(N));
}

TEST(ExtensionTableTest, LinearListHitCountsEntriesExamined) {
  ExtensionTable T(ExtensionTable::Impl::LinearList);
  bool Created = false;
  for (int I = 0; I != 4; ++I)
    T.findOrCreate(I, arity1(PatKind::AnyP), Created);
  // Entry 2 is the third entry inserted: the scan examines 3 entries.
  uint64_t Before = T.probeCount();
  EXPECT_NE(T.find(2, arity1(PatKind::AnyP)), nullptr);
  EXPECT_EQ(T.probeCount() - Before, 3u);
}

TEST(ExtensionTableTest, HashMapMissCostsExactlyOneProbe) {
  ExtensionTable T(ExtensionTable::Impl::HashMap);
  bool Created = false;
  for (int I = 0; I != 5; ++I)
    T.findOrCreate(I, arity1(PatKind::AnyP), Created);
  // A miss consults the index once — it must be counted even though no
  // candidate is compared, or misses become invisible in the ablation.
  uint64_t Before = T.probeCount();
  EXPECT_EQ(T.find(99, arity1(PatKind::AnyP)), nullptr);
  EXPECT_EQ(T.probeCount() - Before, 1u);
}

TEST(ExtensionTableTest, HashMapHitCostsOneProbeRegardlessOfSize) {
  ExtensionTable T(ExtensionTable::Impl::HashMap);
  bool Created = false;
  for (int I = 0; I != 32; ++I)
    T.findOrCreate(I, arity1(PatKind::GroundP), Created);
  uint64_t Before = T.probeCount();
  EXPECT_NE(T.find(17, arity1(PatKind::GroundP)), nullptr);
  EXPECT_EQ(T.probeCount() - Before, 1u);
}

TEST(ExtensionTableTest, InternedPathsUseSameAccounting) {
  // The interned table has three lookup flavors (structural, id-keyed,
  // fused by-pattern); all must count one probe per consultation so the
  // base/fast probe columns of the ablation stay comparable.
  PatternInterner In;
  ExtensionTable T(ExtensionTable::Impl::HashMap, &In);
  bool Created = false;
  for (int I = 0; I != 8; ++I)
    T.findOrCreateByPattern(I, arity1(PatKind::AnyP), Created);

  uint64_t Before = T.probeCount();
  EXPECT_NE(T.find(3, arity1(PatKind::AnyP)), nullptr); // structural hit
  EXPECT_EQ(T.probeCount() - Before, 1u);

  Before = T.probeCount();
  EXPECT_EQ(T.find(99, arity1(PatKind::AnyP)), nullptr); // structural miss
  EXPECT_EQ(T.probeCount() - Before, 1u);

  PatternId AnyId = In.intern(arity1(PatKind::AnyP));
  Before = T.probeCount();
  EXPECT_NE(T.find(3, AnyId), nullptr); // id-keyed hit
  EXPECT_EQ(T.probeCount() - Before, 1u);

  Before = T.probeCount();
  T.findOrCreateByPattern(5, arity1(PatKind::AnyP), Created); // fused hit
  EXPECT_FALSE(Created);
  EXPECT_EQ(T.probeCount() - Before, 1u);

  // LinearList with an interner scans like the paper's list.
  ExtensionTable L(ExtensionTable::Impl::LinearList, &In);
  for (int I = 0; I != 6; ++I)
    L.findOrCreateByPattern(I, arity1(PatKind::AnyP), Created);
  Before = L.probeCount();
  L.findOrCreateByPattern(99, arity1(PatKind::AnyP), Created); // miss: 6
  EXPECT_TRUE(Created);
  EXPECT_EQ(L.probeCount() - Before, 6u);
}

TEST(ExtensionTableTest, FusedAndIdKeyedLookupsAgree) {
  PatternInterner In;
  ExtensionTable T(ExtensionTable::Impl::HashMap, &In);
  bool Created = false;
  Pattern P = makeEntryPattern({PatKind::GroundP, PatKind::VarP});
  ETEntry &A = T.findOrCreateByPattern(4, P, Created);
  EXPECT_TRUE(Created);
  ETEntry &B = T.findOrCreateByPattern(4, P, Created);
  EXPECT_FALSE(Created);
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(T.find(4, A.CallId), &A);
  EXPECT_EQ(T.find(4, P), &A);
  // Creation through the id-keyed path is found by the fused path too.
  PatternId QId = In.intern(makeEntryPattern({PatKind::AnyP}));
  ETEntry &C = T.findOrCreate(7, QId, Created);
  EXPECT_TRUE(Created);
  EXPECT_EQ(&T.findOrCreateByPattern(7, C.Call, Created), &C);
  EXPECT_FALSE(Created);
}

} // namespace
