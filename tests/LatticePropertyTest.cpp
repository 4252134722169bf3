//===- tests/LatticePropertyTest.cpp - Algebraic laws of the domain -------===//
//
// Property sweeps over a generator of sample abstract values: the lub is
// commutative, idempotent, an upper bound, and monotone; the meet
// (absUnify) is below both operands and commutative up to canonical form;
// patternLeq is a partial order. These are the laws the analysis's
// soundness and termination arguments rest on.
//
//===----------------------------------------------------------------------===//

#include "absdom/AbsOps.h"
#include "analyzer/Domain.h"
#include "analyzer/PatternInterner.h"
#include "analyzer/Pattern.h"

#include <gtest/gtest.h>

using namespace awam;

namespace awam {
/// gtest writes a value parameter into each listed test name, and for a
/// pointer it writes the address, which moves with every load of the
/// binary. Print the domain's name so the names stay the same between
/// builds.
void PrintTo(const Domain *D, std::ostream *OS) { *OS << D->name(); }
} // namespace awam

namespace {

/// Builds the I-th sample value in \p St; the generator covers every cell
/// kind: simple abstract types, constants, lists (nil / cons / alpha-list)
/// and structures, with nesting.
Cell sampleValue(Store &St, SymbolTable &Syms, int I) {
  auto abs = [&](AbsKind K) { return Cell::ref(St.push(Cell::abs(K))); };
  auto atomc = [&](std::string_view N) {
    return Cell::ref(St.push(Cell::atom(Syms.intern(N))));
  };
  auto intc = [&](int64_t V) {
    return Cell::ref(St.push(Cell::integer(V)));
  };
  auto list = [&](AbsKind K) {
    int64_t E = St.push(Cell::abs(K));
    return Cell::ref(St.push(Cell::abs(AbsKind::List, E)));
  };
  auto cons = [&](Cell H, Cell T) {
    int64_t B = St.push(H);
    St.push(T);
    return Cell::ref(St.push(Cell::lis(B)));
  };
  auto strc = [&](std::string_view F, std::vector<Cell> Args) {
    int64_t FunAddr =
        St.push(Cell::fun(Syms.intern(F), static_cast<int>(Args.size())));
    for (Cell A : Args)
      St.push(A);
    return Cell::ref(St.push(Cell::str(FunAddr)));
  };
  switch (I) {
  case 0: return abs(AbsKind::Any);
  case 1: return abs(AbsKind::NV);
  case 2: return abs(AbsKind::Ground);
  case 3: return abs(AbsKind::Const);
  case 4: return abs(AbsKind::AtomT);
  case 5: return abs(AbsKind::IntT);
  case 6: return Cell::ref(St.pushVar());
  case 7: return atomc("a");
  case 8: return atomc("b");
  case 9: return intc(1);
  case 10: return atomc("[]");
  case 11: return list(AbsKind::Ground);
  case 12: return list(AbsKind::Any);
  case 13: return list(AbsKind::AtomT);
  case 14: return cons(atomc("a"), atomc("[]"));
  case 15: return cons(intc(1), list(AbsKind::IntT));
  case 16: return cons(abs(AbsKind::Ground), Cell::ref(St.pushVar()));
  case 17: return strc("f", {abs(AbsKind::Ground)});
  case 18: return strc("f", {Cell::ref(St.pushVar())});
  case 19: return strc("g", {atomc("a"), intc(2)});
  case 20: return strc("f", {strc("f", {abs(AbsKind::Any)})});
  case 21: return cons(strc("f", {abs(AbsKind::Ground)}), atomc("[]"));
  default: return abs(AbsKind::Any);
  }
}

constexpr int kNumSamples = 22;

/// Abstracts a single value to a canonical one-argument pattern.
Pattern patternOf(Store &St, Cell C) { return canonicalize(St, {C}); }

class LatticePairTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(LatticePairTest, LubIsUpperBoundAndCommutative) {
  auto [I, J] = GetParam();
  SymbolTable Syms;
  Store St;
  Cell A = sampleValue(St, Syms, I);
  Cell B = sampleValue(St, Syms, J);
  Pattern PA = patternOf(St, A);
  Pattern PB = patternOf(St, B);

  Pattern LAB = lubPatterns(PA, PB);
  Pattern LBA = lubPatterns(PB, PA);
  EXPECT_EQ(LAB, LBA) << PA.str(Syms) << " vs " << PB.str(Syms);
  EXPECT_TRUE(patternLeq(PA, LAB))
      << PA.str(Syms) << " not <= " << LAB.str(Syms);
  EXPECT_TRUE(patternLeq(PB, LAB))
      << PB.str(Syms) << " not <= " << LAB.str(Syms);
}

TEST_P(LatticePairTest, LubIdempotentOnEachSide) {
  auto [I, J] = GetParam();
  SymbolTable Syms;
  Store St;
  Pattern PA = patternOf(St, sampleValue(St, Syms, I));
  Pattern PB = patternOf(St, sampleValue(St, Syms, J));
  EXPECT_EQ(lubPatterns(PA, PA), PA) << PA.str(Syms);
  Pattern L = lubPatterns(PA, PB);
  // lub(lub(a,b), b) == lub(a,b).
  EXPECT_EQ(lubPatterns(L, PB), L)
      << PA.str(Syms) << " vs " << PB.str(Syms);
}

/// True if the pattern claims var-ness anywhere. Types containing var are
/// not closed under instantiation, so s_unify (set unification, paper
/// Section 4.1) is *not* below them: s_unify(f(g), f(var)) = f(g), and
/// f(g) is not a subset of f(var). The containment law below therefore
/// only applies to var-free operands.
bool hasVarClaim(const Pattern &P) {
  for (const PatNode &N : P.Nodes)
    if (N.K == PatKind::VarP)
      return true;
  return false;
}

TEST_P(LatticePairTest, SetUnifyIsBelowVarFreeOperands) {
  auto [I, J] = GetParam();
  SymbolTable Syms;
  Store St;
  Cell A = sampleValue(St, Syms, I);
  Cell B = sampleValue(St, Syms, J);
  Pattern PA = patternOf(St, A);
  Pattern PB = patternOf(St, B);

  int64_t Mark = St.trailMark();
  bool Ok = absUnify(St, A, B);
  if (!Ok) {
    St.unwind(Mark);
    return; // empty meet: nothing to check
  }
  Pattern PM = patternOf(St, A);
  if (!hasVarClaim(PA))
    EXPECT_TRUE(patternLeq(PM, PA))
        << "meet " << PM.str(Syms) << " not <= " << PA.str(Syms);
  if (!hasVarClaim(PB))
    EXPECT_TRUE(patternLeq(PM, PB))
        << "meet " << PM.str(Syms) << " not <= " << PB.str(Syms);
  // Both sides denote the same value after a successful meet.
  EXPECT_EQ(patternOf(St, A), patternOf(St, B));
  St.unwind(Mark);
}

TEST_P(LatticePairTest, MeetCommutesUpToCanonicalForm) {
  auto [I, J] = GetParam();
  SymbolTable Syms;
  Store St1, St2;
  Cell A1 = sampleValue(St1, Syms, I);
  Cell B1 = sampleValue(St1, Syms, J);
  Cell A2 = sampleValue(St2, Syms, I);
  Cell B2 = sampleValue(St2, Syms, J);
  bool Ok1 = absUnify(St1, A1, B1);
  bool Ok2 = absUnify(St2, B2, A2);
  EXPECT_EQ(Ok1, Ok2);
  if (Ok1 && Ok2)
    EXPECT_EQ(patternOf(St1, A1), patternOf(St2, A2));
}

TEST_P(LatticePairTest, LeqAgreesWithLub) {
  auto [I, J] = GetParam();
  SymbolTable Syms;
  Store St;
  Pattern PA = patternOf(St, sampleValue(St, Syms, I));
  Pattern PB = patternOf(St, sampleValue(St, Syms, J));
  // Antisymmetry: mutual leq implies equality.
  if (patternLeq(PA, PB) && patternLeq(PB, PA))
    EXPECT_EQ(PA, PB) << PA.str(Syms) << " vs " << PB.str(Syms);
}

std::vector<std::pair<int, int>> allPairs() {
  std::vector<std::pair<int, int>> Out;
  for (int I = 0; I != kNumSamples; ++I)
    for (int J = I; J != kNumSamples; ++J)
      Out.emplace_back(I, J);
  return Out;
}

std::string pairName(
    const ::testing::TestParamInfo<std::pair<int, int>> &Info) {
  return std::to_string(Info.param.first) + "_" +
         std::to_string(Info.param.second);
}

INSTANTIATE_TEST_SUITE_P(AllPairs, LatticePairTest,
                         ::testing::ValuesIn(allPairs()), pairName);

// Associativity spot-checks over triples (a full cube would be 10k cases;
// a structured sample suffices).
class LatticeTripleTest : public ::testing::TestWithParam<int> {};

TEST_P(LatticeTripleTest, LubAssociativeOnSampledTriples) {
  int Seed = GetParam();
  int I = Seed % kNumSamples;
  int J = (Seed / kNumSamples) % kNumSamples;
  int K = (Seed * 7 + 3) % kNumSamples;
  SymbolTable Syms;
  Store St;
  Pattern PA = patternOf(St, sampleValue(St, Syms, I));
  Pattern PB = patternOf(St, sampleValue(St, Syms, J));
  Pattern PC = patternOf(St, sampleValue(St, Syms, K));
  Pattern L1 = lubPatterns(lubPatterns(PA, PB), PC);
  Pattern L2 = lubPatterns(PA, lubPatterns(PB, PC));
  EXPECT_EQ(L1, L2) << PA.str(Syms) << ", " << PB.str(Syms) << ", "
                    << PC.str(Syms);
}

INSTANTIATE_TEST_SUITE_P(SampledTriples, LatticeTripleTest,
                         ::testing::Range(0, 120));

//===--------------------------------------------------------------------===//
// Domain-parametric lattice laws: every registered domain must satisfy the
// join-semilattice laws *through its own lubInto*, exercised exactly the
// way the engine does — over an interner constructed for that domain.
// Samples come from Domain::samplePatterns and are interned via plain
// intern() (internNormalized routes through normalizeEntry, which for
// non-default domains deliberately erases success-only payload such as the
// Pos truth table).
//===--------------------------------------------------------------------===//

/// One interner over one domain's samples, shared by all law checks of a
/// single test body.
struct DomainFixture {
  SymbolTable Syms;
  PatternInterner Interner;
  std::vector<PatternId> Ids;

  explicit DomainFixture(const Domain &D)
      : Interner(kDefaultDepthLimit, &D) {
    std::vector<Pattern> Samples;
    D.samplePatterns(Samples, Syms);
    for (const Pattern &P : Samples) {
      PatternId Id = Interner.intern(PatternRef(P));
      // Dedup: hand-built generators may repeat a value; laws over ids
      // don't care, but distinct ids keep the quadratic sweeps small.
      bool Seen = false;
      for (PatternId E : Ids)
        Seen = Seen || E == Id;
      if (!Seen)
        Ids.push_back(Id);
    }
    EXPECT_GE(Ids.size(), 4u) << D.name() << " generator too small";
  }
};

class DomainLatticeTest
    : public ::testing::TestWithParam<const Domain *> {};

TEST_P(DomainLatticeTest, SamplesAreCanonical) {
  const Domain &D = *GetParam();
  DomainFixture F(D);
  // intern() must be stable: lub(a, a) == a requires every sample to
  // already be in the domain's canonical encoding.
  for (PatternId A : F.Ids)
    EXPECT_EQ(F.Interner.lub(A, A), A)
        << D.name() << ": " << D.formatPattern(
               Pattern(F.Interner.pattern(A)), F.Syms);
}

TEST_P(DomainLatticeTest, LeqIsAPartialOrder) {
  const Domain &D = *GetParam();
  DomainFixture F(D);
  for (PatternId A : F.Ids) {
    EXPECT_TRUE(F.Interner.leq(A, A)) << D.name();
    for (PatternId B : F.Ids) {
      if (F.Interner.leq(A, B) && F.Interner.leq(B, A))
        EXPECT_EQ(A, B) << D.name() << ": antisymmetry";
      for (PatternId C : F.Ids)
        if (F.Interner.leq(A, B) && F.Interner.leq(B, C))
          EXPECT_TRUE(F.Interner.leq(A, C)) << D.name() << ": transitivity";
    }
  }
}

TEST_P(DomainLatticeTest, LubIsACommutativeIdempotentUpperBound) {
  const Domain &D = *GetParam();
  DomainFixture F(D);
  for (PatternId A : F.Ids)
    for (PatternId B : F.Ids) {
      PatternId L = F.Interner.lub(A, B);
      EXPECT_EQ(L, F.Interner.lub(B, A)) << D.name() << ": commutativity";
      EXPECT_TRUE(F.Interner.leq(A, L)) << D.name() << ": upper bound";
      EXPECT_TRUE(F.Interner.leq(B, L)) << D.name() << ": upper bound";
      EXPECT_EQ(F.Interner.lub(L, B), L) << D.name() << ": absorption";
    }
}

TEST_P(DomainLatticeTest, LubIsAssociative) {
  const Domain &D = *GetParam();
  DomainFixture F(D);
  // Full cubes are fine here: the generators stay around 50 samples.
  for (PatternId A : F.Ids)
    for (PatternId B : F.Ids)
      for (PatternId C : F.Ids)
        EXPECT_EQ(F.Interner.lub(F.Interner.lub(A, B), C),
                  F.Interner.lub(A, F.Interner.lub(B, C)))
            << D.name() << ": associativity";
}

TEST_P(DomainLatticeTest, LubIsMonotone) {
  const Domain &D = *GetParam();
  DomainFixture F(D);
  // leq(a, b) implies leq(lub(a, c), lub(b, c)) — the transfer-monotony
  // shape the fixpoint's termination argument needs from the join.
  for (PatternId A : F.Ids)
    for (PatternId B : F.Ids) {
      if (!F.Interner.leq(A, B))
        continue;
      for (PatternId C : F.Ids)
        EXPECT_TRUE(
            F.Interner.leq(F.Interner.lub(A, C), F.Interner.lub(B, C)))
            << D.name() << ": monotone join";
    }
}

std::string domainName(
    const ::testing::TestParamInfo<const Domain *> &Info) {
  return std::string(Info.param->name());
}

INSTANTIATE_TEST_SUITE_P(AllDomains, DomainLatticeTest,
                         ::testing::ValuesIn(registeredDomains()),
                         domainName);

} // namespace
