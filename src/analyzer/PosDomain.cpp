//===- analyzer/PosDomain.cpp - Groundness-dependency domain --------------===//
//
// See PosDomain.h for the encoding. The inference scheme, in one line:
// a value is ground exactly when its nonground-leaf set is empty, so
// "grounding arguments I forces argument j ground" is leaf-set inclusion —
// computed against the machine heap at clause success, strengthened by the
// truth tables of the summaries applied along the current path (the
// constraint stack), and over-approximated into a truth table of achievable
// groundness valuations.
//
// Soundness: for a valuation v, the seeded set (the leaves of the v-ground
// arguments) is a subset of the real ground-leaf set of any concrete
// success instance matching v, and the closure rule only adds leaves every
// such instance also grounds (a summary's truth table over-approximates its
// callee's achievable valuations, by induction over the fixpoint). So a
// valuation is only rejected when some argument claimed nonground is
// provably forced ground — achievable valuations are never dropped.
//
//===----------------------------------------------------------------------===//

#include "analyzer/PosDomain.h"

#include "absdom/AbsOps.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <bit>

using namespace awam;

bool awam::posPatternHasTT(const PatternRef &P) {
  if (P.NumRoots < 1 || P.NumNodes != P.NumRoots + 1)
    return false;
  // Pos encodings have roots 0..n-1 in order with the marker node last.
  for (size_t I = 0; I != P.NumRoots; ++I)
    if (P.Roots[I] != static_cast<int32_t>(I))
      return false;
  const PatNode &M = P.Nodes[P.NumRoots];
  return M.K == PatKind::IntP && M.ChildCount == 0;
}

uint64_t awam::posPatternTT(const PatternRef &P) {
  return posPatternHasTT(P)
             ? static_cast<uint64_t>(P.Nodes[P.NumRoots].Num)
             : 0;
}

namespace {

/// The constraint stack: one record per summary applied (and still live)
/// on the current machine path. Marked/rewound in lockstep with the trail,
/// so a constraint never outlives the bindings it described.
class PosRunState final : public DomainRunState {
public:
  struct Constraint {
    std::vector<Cell> Args; ///< the call site's argument cells
    uint64_t TT = 0;        ///< the applied summary's truth table
  };
  std::vector<Constraint> Cons;

  size_t mark() const override { return Cons.size(); }
  void rewindTo(size_t Mark) override {
    if (Cons.size() > Mark)
      Cons.resize(Mark);
  }
};

bool leafSubset(const std::vector<int64_t> &A,
                const std::vector<int64_t> &Sigma) {
  for (int64_t L : A)
    if (std::find(Sigma.begin(), Sigma.end(), L) == Sigma.end())
      return false;
  return true;
}

void leafUnion(std::vector<int64_t> &Sigma, const std::vector<int64_t> &A) {
  for (int64_t L : A)
    if (std::find(Sigma.begin(), Sigma.end(), L) == Sigma.end())
      Sigma.push_back(L);
}

/// A constraint with its argument leaf sets re-derived against the current
/// heap (cells only narrow after the constraint was pushed, so
/// re-derivation only sharpens). Free marks arguments whose leaf walk
/// overflowed — excluded from both sides of the closure rule.
struct EvalCons {
  std::vector<std::vector<int64_t>> L;
  std::vector<char> Free;
  uint64_t TT = 0;
};

/// Closes \p Sigma under the constraints: whenever every achievable
/// valuation of a constraint consistent with the currently-ground
/// arguments (Known) has argument j ground, j's leaves join Sigma.
void closeUnder(std::vector<int64_t> &Sigma,
                const std::vector<EvalCons> &Cs) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const EvalCons &C : Cs) {
      size_t M = C.L.size();
      if (M == 0 || M > static_cast<size_t>(kPosMaxTTArity))
        continue;
      uint64_t Known = 0;
      for (size_t K = 0; K != M; ++K)
        if (!C.Free[K] && leafSubset(C.L[K], Sigma))
          Known |= 1ull << K;
      for (size_t J = 0; J != M; ++J) {
        if (C.Free[J] || leafSubset(C.L[J], Sigma))
          continue;
        bool Forced = true, Any = false;
        for (uint32_t W = 0; W != (1u << M); ++W) {
          if (!((C.TT >> W) & 1))
            continue;
          if ((W & Known) != Known)
            continue;
          Any = true;
          if (!((W >> J) & 1)) {
            Forced = false;
            break;
          }
        }
        if (Forced && Any) {
          leafUnion(Sigma, C.L[J]);
          Changed = true;
        }
      }
    }
  }
}

/// True if every term described by node \p Id of the (hand-built) entry
/// pattern \p P is ground.
bool entryNodeGround(const Pattern &P, int32_t Id, int Fuel = 64) {
  if (Fuel <= 0)
    return false;
  const PatNode &N = P.Nodes[Id];
  switch (N.K) {
  case PatKind::GroundP:
  case PatKind::ConstP:
  case PatKind::AtomTP:
  case PatKind::IntTP:
  case PatKind::ConP:
  case PatKind::IntP:
    return true;
  case PatKind::VarP:
  case PatKind::AnyP:
  case PatKind::NVP:
    return false;
  case PatKind::ListP:
  case PatKind::ConsP:
  case PatKind::StrP:
    for (int32_t C = 0; C != N.ChildCount; ++C)
      if (!entryNodeGround(P, P.child(N, C), Fuel - 1))
        return false;
    return true;
  }
  return false;
}

/// Appends a g/any root node to \p Out.
void pushRoot(Pattern &Out, bool Ground) {
  PatNode N;
  N.K = Ground ? PatKind::GroundP : PatKind::AnyP;
  Out.Roots.push_back(static_cast<int32_t>(Out.Nodes.size()));
  Out.Nodes.push_back(N);
}

/// Appends the truth-table marker node to \p Out.
void pushTT(Pattern &Out, uint64_t TT) {
  PatNode M;
  M.K = PatKind::IntP;
  M.Num = static_cast<int64_t>(TT);
  Out.Nodes.push_back(M);
}

/// Appends the minimal groundness implications of \p TT: for each
/// not-unconditionally-ground argument j, the minimal antecedent sets S
/// with "every achievable valuation grounding S grounds j" — e.g.
/// "x3<-x1&x2", comma-separated. Implications the root tuple already
/// states (j marked g) are suppressed. Candidate sets are tried by size,
/// then in increasing order, so each is minimal when found.
void appendImplications(std::string &Out, const PatternRef &P, size_t N,
                        uint64_t TT) {
  const uint32_t All = (1u << N) - 1;
  bool First = true;
  for (size_t J = 0; J != N; ++J) {
    if (P.Nodes[P.Roots[J]].K == PatKind::GroundP)
      continue;
    const uint32_t Others = All & ~(1u << J);
    uint32_t Found[64];
    size_t NumFound = 0;
    for (int Size = 0; Size <= static_cast<int>(N); ++Size)
      for (uint32_t S = 0; S <= All; ++S) {
        if (std::popcount(S) != Size || (S & ~Others) != 0)
          continue;
        bool Dominated = false;
        for (size_t F = 0; F != NumFound && !Dominated; ++F)
          Dominated = (S & Found[F]) == Found[F];
        if (Dominated)
          continue;
        bool Any = false, Forced = true;
        for (uint32_t W = 0; W <= All && Forced; ++W) {
          if (!((TT >> W) & 1) || (W & S) != S)
            continue;
          Any = true;
          Forced = (W >> J) & 1;
        }
        if (!Any || !Forced)
          continue;
        Found[NumFound++] = S;
        if (!First)
          Out.append(", ");
        First = false;
        Out.push_back('x');
        appendInt(Out, J + 1);
        Out.append("<-");
        if (S == 0) {
          Out.append("true");
          continue;
        }
        bool FirstVar = true;
        for (size_t I = 0; I != N; ++I)
          if ((S >> I) & 1) {
            if (!FirstVar)
              Out.push_back('&');
            FirstVar = false;
            Out.push_back('x');
            appendInt(Out, I + 1);
          }
      }
  }
}

class PosDomain final : public Domain {
public:
  std::string_view name() const override { return "pos"; }
  std::string_view description() const override {
    return "groundness dependencies (Pos-style truth tables)";
  }

  void abstractCall(const Store &St, const std::vector<Cell> &Args,
                    CanonicalizeContext &, Pattern &Out, int,
                    DomainRunState *) const override {
    Out.Nodes.clear();
    Out.ChildStore.clear();
    Out.Roots.clear();
    for (const Cell &A : Args)
      pushRoot(Out, isGroundCell(St, A));
  }

  void abstractSuccess(const Store &St, const std::vector<Cell> &Args,
                       CanonicalizeContext &, Pattern &Out, int,
                       DomainRunState *RS) const override {
    size_t N = Args.size();
    std::vector<std::vector<int64_t>> L(N);
    std::vector<char> Free(N, 0);
    std::vector<int64_t> Visited;
    for (size_t I = 0; I != N; ++I) {
      Visited.clear();
      if (!collectNongroundLeaves(St, Args[I], L[I], Visited)) {
        Free[I] = 1; // overflow: groundness unknown, claim nothing
        L[I].clear();
      }
    }
    Out.Nodes.clear();
    Out.ChildStore.clear();
    Out.Roots.clear();
    for (size_t I = 0; I != N; ++I)
      pushRoot(Out, !Free[I] && L[I].empty());
    if (N == 0 || N > static_cast<size_t>(kPosMaxTTArity))
      return;

    std::vector<EvalCons> Cs;
    if (const auto *PS = static_cast<const PosRunState *>(RS)) {
      Cs.reserve(PS->Cons.size());
      for (const PosRunState::Constraint &C : PS->Cons) {
        EvalCons E;
        E.TT = C.TT;
        size_t M = C.Args.size();
        E.L.resize(M);
        E.Free.assign(M, 0);
        for (size_t K = 0; K != M; ++K) {
          Visited.clear();
          if (!collectNongroundLeaves(St, C.Args[K], E.L[K], Visited)) {
            E.Free[K] = 1;
            E.L[K].clear();
          }
        }
        Cs.push_back(std::move(E));
      }
    }

    // One truth-table bit per valuation: seed sigma with the leaves of the
    // arguments the valuation grounds, close under the path's constraints,
    // and reject only if some argument claimed nonground ends up covered.
    uint64_t TT = 0;
    std::vector<int64_t> Sigma;
    for (uint32_t V = 0; V != (1u << N); ++V) {
      Sigma.clear();
      for (size_t I = 0; I != N; ++I)
        if (((V >> I) & 1) && !Free[I])
          leafUnion(Sigma, L[I]);
      closeUnder(Sigma, Cs);
      bool Accept = true;
      for (size_t I = 0; I != N && Accept; ++I) {
        if (Free[I])
          continue; // both values allowed
        if ((((V >> I) & 1) != 0) != leafSubset(L[I], Sigma))
          Accept = false;
      }
      if (Accept)
        TT |= 1ull << V;
    }
    pushTT(Out, TT);
  }

  bool applySuccess(Store &St, const std::vector<Cell> &CallerArgs,
                    const PatternRef &Success, std::vector<int64_t> &CellOf,
                    std::vector<int64_t> &Roots,
                    DomainRunState *RS) const override {
    // Unconditional groundness flows through the cells (g roots narrow the
    // caller's arguments); the truth table becomes a path constraint.
    if (!Domain::applySuccess(St, CallerArgs, Success, CellOf, Roots,
                              nullptr))
      return false;
    if (RS && posPatternHasTT(Success)) {
      auto *PS = static_cast<PosRunState *>(RS);
      PosRunState::Constraint C;
      C.Args = CallerArgs;
      C.TT = posPatternTT(Success);
      PS->Cons.push_back(std::move(C));
    }
    return true;
  }

  void lubInto(const PatternRef &A, const PatternRef &B, int, LubScratch &,
               Pattern &Out) const override {
    Out.Nodes.clear();
    Out.ChildStore.clear();
    Out.Roots.clear();
    for (size_t I = 0; I != A.NumRoots; ++I)
      pushRoot(Out, A.Nodes[A.Roots[I]].K == PatKind::GroundP &&
                        B.Nodes[B.Roots[I]].K == PatKind::GroundP);
    // Bitwise OR is the exact join of valuation sets. A side without a
    // table claims every valuation, so the join drops the table then.
    if (posPatternHasTT(A) && posPatternHasTT(B))
      pushTT(Out, posPatternTT(A) | posPatternTT(B));
  }

  void normalizeEntry(const Pattern &P, int, LubScratch &,
                      Pattern &Out) const override {
    Out.Nodes.clear();
    Out.ChildStore.clear();
    Out.Roots.clear();
    for (int32_t Root : P.Roots)
      pushRoot(Out, entryNodeGround(P, Root));
  }

  std::unique_ptr<DomainRunState> makeRunState() const override {
    return std::make_unique<PosRunState>();
  }

  void appendPattern(std::string &Out, const PatternRef &P,
                     const SymbolTable &Syms,
                     PatternPrinter &Pr) const override {
    const size_t N = P.NumRoots;
    for (size_t I = 0; I != N; ++I) {
      PatKind K = P.Nodes[P.Roots[I]].K;
      if (K != PatKind::GroundP && K != PatKind::AnyP) {
        Pr.append(Out, P, Syms); // not a pos encoding (e.g. trace fallback)
        return;
      }
    }
    Out.push_back('(');
    for (size_t I = 0; I != N; ++I) {
      if (I)
        Out.append(", ");
      Out.append(P.Nodes[P.Roots[I]].K == PatKind::GroundP ? "g" : "any");
    }
    Out.push_back(')');
    if (!posPatternHasTT(P) || N > static_cast<size_t>(kPosMaxTTArity))
      return;
    const size_t Bracket = Out.size();
    Out.append(" [");
    const size_t Text = Out.size();
    appendImplications(Out, P, N, posPatternTT(P));
    if (Out.size() == Text)
      Out.resize(Bracket);
    else
      Out.push_back(']');
  }

  void samplePatterns(std::vector<Pattern> &Out,
                      SymbolTable &) const override {
    auto Mk = [](std::vector<PatKind> Ks, bool HasTT, uint64_t TT) {
      Pattern P;
      for (PatKind K : Ks)
        pushRoot(P, K == PatKind::GroundP);
      if (HasTT)
        pushTT(P, TT);
      return P;
    };
    using K = PatKind;
    const K G = K::GroundP, A = K::AnyP;
    // Root-only tuples (call patterns).
    for (K X : {G, A})
      for (K Y : {G, A})
        for (K Z : {G, A})
          Out.push_back(Mk({X, Y, Z}, false, 0));
    // Success patterns with assorted truth tables (bit v = valuation v
    // achievable; bit i of v = argument i+1 ground).
    Out.push_back(Mk({G, A, A}, true, 0x82)); // append-like: x2 <-> x3
    Out.push_back(Mk({A, A, A}, true, 0xF7)); // x3 <- x1 & x2
    Out.push_back(Mk({A, A, A}, true, 0xFF)); // no dependency
    Out.push_back(Mk({G, G, G}, true, 0x80)); // all ground
    Out.push_back(Mk({A, G, A}, true, 0xCC)); // x2 unconditionally ground
  }
};

} // namespace

const Domain &awam::posDomain() {
  static const PosDomain D;
  return D;
}
