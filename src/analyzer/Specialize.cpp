//===- analyzer/Specialize.cpp - Analysis facts for the specializer -------===//
//
// Joins per-item abstract information into per-predicate facts:
//
//   KnownFree    every call's argument is a VarP root no other position
//                aliases (node referenced exactly once across the
//                pattern's roots and child store) — an unbound, unaliased
//                variable at runtime.
//   KnownNonvar  every call's argument root is neither VarP nor AnyP.
//   KnownGround  every call's argument is ground (recursive walk; depth-
//                cut nodes without definite kinds count as not ground).
//   Shapes       the distinct first-argument shapes across all items,
//                with exact constants / functors preserved.
//   Det          the det machinery's class, joined over the predicate's
//                items (a failing item degrades the join to semidet
//                unless every item fails).
//
//===----------------------------------------------------------------------===//

#include "analyzer/Specialize.h"

#include "analyzer/DetFacts.h"

using namespace awam;

std::string awam::specializationDomainError(std::string_view DomainName,
                                            std::string_view Verb) {
  if (DomainName == "modes" || DomainName == "det")
    return {};
  return std::string(Verb) + " requires the \"modes\" or \"det\" domain "
                             "(facts come from call/success patterns)";
}

namespace {

/// True when the abstract value rooted at \p Node is definitely ground.
/// Patterns are DAGs (no cycles), so plain recursion terminates.
bool nodeGround(const Pattern &P, int32_t Node) {
  const PatNode &N = P.Nodes[Node];
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
  case PatKind::ListP: // a list of ground elements is ground
  case PatKind::ConsP:
  case PatKind::StrP:
    for (int32_t I = 0; I != N.ChildCount; ++I)
      if (!nodeGround(P, P.child(N, I)))
        return false;
    return N.ChildCount > 0; // a depth-cut node proves nothing
  }
  return false;
}

/// True when root \p RootIdx's node is referenced exactly once in the
/// whole pattern — no other argument position or subterm aliases it.
bool rootUnaliased(const Pattern &P, size_t RootIdx) {
  int32_t Node = P.Roots[RootIdx];
  int Count = 0;
  for (int32_t R : P.Roots)
    Count += R == Node;
  for (int32_t C : P.ChildStore)
    Count += C == Node;
  return Count == 1;
}

CallShape shapeOfRoot(const Pattern &P, int32_t Node) {
  const PatNode &N = P.Nodes[Node];
  CallShape S;
  switch (N.K) {
  case PatKind::VarP:
    S.K = CallShape::VarShape;
    break;
  case PatKind::AnyP:
    S.K = CallShape::AnyShape;
    break;
  case PatKind::NVP:
  case PatKind::GroundP:
    S.K = CallShape::NonvarShape;
    break;
  case PatKind::ConP:
    S.K = CallShape::ConstShape;
    S.Exact = true;
    S.Const = ConstOperand::atom(N.Sym);
    break;
  case PatKind::IntP:
    S.K = CallShape::ConstShape;
    S.Exact = true;
    S.Const = ConstOperand::integer(N.Num);
    break;
  case PatKind::ConstP:
  case PatKind::AtomTP:
  case PatKind::IntTP:
    S.K = CallShape::ConstShape;
    break;
  case PatKind::ListP: // may be [] at runtime — not a definite cons
    S.K = CallShape::ListShape;
    break;
  case PatKind::ConsP:
    S.K = CallShape::ConsShape;
    break;
  case PatKind::StrP:
    S.K = CallShape::StructShape;
    S.Exact = true;
    S.Functor = {N.Sym, N.ChildCount};
    break;
  }
  return S;
}

bool sameShape(const CallShape &A, const CallShape &B) {
  return A.K == B.K && A.Exact == B.Exact && A.Const == B.Const &&
         A.Functor == B.Functor;
}

DetSpecClass joinDet(DetSpecClass Acc, DetItemClass C) {
  // Map a failing item to semidet for the predicate-level join (the call
  // runs and yields nothing) unless *every* item fails.
  DetSpecClass V = C == DetItemClass::Det       ? DetSpecClass::Det
                   : C == DetItemClass::Semidet ? DetSpecClass::Semidet
                   : C == DetItemClass::Nondet  ? DetSpecClass::Nondet
                                                : DetSpecClass::Fails;
  if (Acc == DetSpecClass::Unknown)
    return V;
  if (Acc == V)
    return Acc;
  auto Rank = [](DetSpecClass D) {
    switch (D) {
    case DetSpecClass::Det: return 0;
    case DetSpecClass::Fails: // mixed with non-fails: at worst semidet
    case DetSpecClass::Semidet: return 1;
    case DetSpecClass::Nondet: return 2;
    case DetSpecClass::Unknown: return 2;
    }
    return 2;
  };
  int R = std::max(Rank(Acc), Rank(V));
  return R == 0   ? DetSpecClass::Det
         : R == 1 ? DetSpecClass::Semidet
                  : DetSpecClass::Nondet;
}

} // namespace

SpecializationFacts
awam::buildSpecializationFacts(const AnalysisResult &R,
                               const CompiledProgram &Program) {
  SpecializationFacts F;
  if (!Program.Module)
    return F;
  const CodeModule &M = *Program.Module;
  F.Preds.resize(static_cast<size_t>(M.numPredicates()));
  std::vector<DetItemFacts> Det = computeDetFacts(R, Program);

  for (size_t I = 0; I != R.Items.size(); ++I) {
    const AnalysisResult::Item &It = R.Items[I];
    if (It.PredId < 0 ||
        static_cast<size_t>(It.PredId) >= F.Preds.size())
      continue;
    PredSpecFacts &P = F.Preds[It.PredId];
    const Pattern &Call = It.Call;
    size_t Arity = Call.Roots.size();

    if (!P.Analyzed) {
      P.Analyzed = true;
      P.Args.assign(Arity, {true, true, true}); // join identity: all hold
    }
    if (P.Args.size() != Arity)
      P.Args.clear(); // arity mismatch: trust nothing

    for (size_t A = 0; A != P.Args.size(); ++A) {
      const PatNode &Root = Call.Nodes[Call.Roots[A]];
      ArgSpecFacts &AF = P.Args[A];
      AF.KnownFree = AF.KnownFree && Root.K == PatKind::VarP &&
                     rootUnaliased(Call, A);
      AF.KnownNonvar = AF.KnownNonvar && Root.K != PatKind::VarP &&
                       Root.K != PatKind::AnyP;
      AF.KnownGround = AF.KnownGround && nodeGround(Call, Call.Roots[A]);
    }

    if (Arity > 0) {
      CallShape S = shapeOfRoot(Call, Call.Roots[0]);
      bool Seen = false;
      for (const CallShape &Old : P.Shapes)
        if (sameShape(Old, S)) {
          Seen = true;
          break;
        }
      if (!Seen)
        P.Shapes.push_back(S);
    }

    if (!Det.empty())
      P.Det = joinDet(P.Det, Det[I].Class);
  }
  return F;
}
