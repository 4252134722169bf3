//===- analyzer/Pattern.cpp -----------------------------------------------===//

#include "analyzer/Pattern.h"

#include "absdom/AbsOps.h"
#include "support/StringUtil.h"


using namespace awam;

size_t PatternRef::hash() const {
  size_t H = NumNodes * 1469598103934665603ull;
  auto Mix = [&H](size_t V) {
    H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  };
  for (size_t I = 0; I != NumNodes; ++I) {
    const PatNode &N = Nodes[I];
    // One mix per node: kind, symbol and (truncated) number packed into a
    // word. Collisions only cost an extra deep compare in the interner.
    Mix(static_cast<size_t>(N.K) |
        (static_cast<size_t>(static_cast<uint32_t>(N.Sym)) << 8) |
        (static_cast<size_t>(static_cast<uint64_t>(N.Num)) << 40));
    for (int32_t C = 0; C != N.ChildCount; ++C)
      Mix(static_cast<size_t>(ChildStore[N.ChildBegin + C]));
  }
  for (size_t I = 0; I != NumRoots; ++I)
    Mix(static_cast<size_t>(Roots[I]));
  return H;
}

size_t Pattern::hash() const { return PatternRef(*this).hash(); }

namespace {

class Canonicalizer {
public:
  Canonicalizer(const Store &St, int DepthLimit, bool WidenConstants,
                std::vector<std::pair<int64_t, int32_t>> &Seen,
                std::vector<int64_t> &InProgress,
                std::vector<int32_t> &ChildTmp)
      : St(St), DepthLimit(DepthLimit), WidenConstants(WidenConstants),
        Seen(Seen), InProgress(InProgress), ChildTmp(ChildTmp) {}

  /// Writes the canonical pattern into \p Out, reusing its node slots and
  /// ChildStore capacity so steady-state canonicalization performs no heap
  /// allocation. Node ids are assigned in the same first-visit order as
  /// always, so the canonical form is unchanged.
  void run(const std::vector<Cell> &Args, Pattern &Out) {
    Used = 0;
    Seen.clear();
    InProgress.clear();
    ChildTmp.clear();
    Out.Nodes.reserve(4 * Args.size() + 8);
    Out.ChildStore.clear();
    Out.Roots.clear();
    Out.Roots.reserve(Args.size());
    Seen.reserve(16);
    for (const Cell &A : Args)
      Out.Roots.push_back(visit(A, 0, Out));
    Out.Nodes.resize(Used);
  }

private:
  /// Claims the next node slot in first-visit order, recycling a slot left
  /// over from a previous pattern when one exists.
  int32_t alloc(Pattern &P) {
    int32_t Id = Used++;
    if (static_cast<size_t>(Id) < P.Nodes.size())
      P.Nodes[Id] = PatNode{};
    else
      P.Nodes.emplace_back();
    return Id;
  }

  /// Commits the child ids pushed onto ChildTmp since \p Mark to node
  /// \p Id (appended as a fresh ChildStore slice). Children are staged on
  /// one shared stack because visiting a child may itself allocate nodes
  /// (and grandchildren) in between.
  void setChildren(int32_t Id, size_t Mark, Pattern &P) {
    PatNode &N = P.Nodes[Id];
    N.ChildBegin = static_cast<int32_t>(P.ChildStore.size());
    N.ChildCount = static_cast<int32_t>(ChildTmp.size() - Mark);
    P.ChildStore.insert(P.ChildStore.end(), ChildTmp.begin() + Mark,
                        ChildTmp.end());
    ChildTmp.resize(Mark);
  }
  /// Node identity for sharing detection: structures and lists identify
  /// by their base block (several cells can hold the same Str/Lis value),
  /// other values by the cell that holds them.
  static int64_t keyOf(const DerefResult &D) {
    if (D.C.T == Tag::Str)
      return (D.C.V << 2) | 1;
    if (D.C.T == Tag::Lis)
      return (D.C.V << 2) | 2;
    return D.Addr == kNoAddr ? kNoAddr : (D.Addr << 2);
  }

  int32_t visit(Cell C, int Depth, Pattern &P) {
    DerefResult D = St.deref(C);
    int64_t Key = keyOf(D);
    // Patterns are small (depth-cut), so a linear scan beats a map here.
    if (Key != kNoAddr)
      for (auto [Addr, Id] : Seen)
        if (Addr == Key) {
          // Re-visiting a node whose children are still being built means
          // a cyclic (rational) term: patterns must stay acyclic, so the
          // back-edge widens to a leaf (a cyclic term is always nonvar).
          for (int64_t Live : InProgress)
            if (Live == Key) {
              int32_t Leaf = alloc(P);
              P.Nodes[Leaf].K = PatKind::NVP;
              return Leaf;
            }
          return Id;
        }
    int32_t Id = alloc(P);
    if (Key != kNoAddr) {
      Seen.emplace_back(Key, Id);
      InProgress.push_back(Key);
    }
    fill(Id, D, Depth, P);
    if (Key != kNoAddr)
      InProgress.pop_back();
    return Id;
  }

  // Fills node \p Id in place. References into P.Nodes must be re-fetched
  // after any visit() call — visiting children may grow the node vector.
  void fill(int32_t Id, const DerefResult &D, int Depth, Pattern &P) {
    switch (D.C.T) {
    case Tag::Ref:
      P.Nodes[Id].K = PatKind::VarP;
      return;
    case Tag::Con:
      // Call abstraction widens constants to their types; '[]' keeps its
      // list information.
      if (WidenConstants && D.C.V != SymbolTable::SymNil) {
        P.Nodes[Id].K = PatKind::AtomTP;
        return;
      }
      P.Nodes[Id].K = PatKind::ConP;
      P.Nodes[Id].Sym = static_cast<Symbol>(D.C.V);
      return;
    case Tag::Int:
      if (WidenConstants) {
        P.Nodes[Id].K = PatKind::IntTP;
        return;
      }
      P.Nodes[Id].K = PatKind::IntP;
      P.Nodes[Id].Num = D.C.V;
      return;
    case Tag::Abs:
      switch (D.C.absKind()) {
      case AbsKind::Any: P.Nodes[Id].K = PatKind::AnyP; return;
      case AbsKind::NV: P.Nodes[Id].K = PatKind::NVP; return;
      case AbsKind::Ground: P.Nodes[Id].K = PatKind::GroundP; return;
      case AbsKind::Const: P.Nodes[Id].K = PatKind::ConstP; return;
      case AbsKind::AtomT: P.Nodes[Id].K = PatKind::AtomTP; return;
      case AbsKind::IntT: P.Nodes[Id].K = PatKind::IntTP; return;
      case AbsKind::List: {
        size_t Mark = ChildTmp.size();
        ChildTmp.push_back(visit(Cell::ref(D.C.V), Depth + 1, P));
        P.Nodes[Id].K = PatKind::ListP;
        setChildren(Id, Mark, P);
        return;
      }
      case AbsKind::Var: P.Nodes[Id].K = PatKind::VarP; return;
      }
      P.Nodes[Id].K = PatKind::AnyP;
      return;
    case Tag::Lis: {
      if (Depth + 1 >= DepthLimit) {
        widenInto(Id, D, P);
        return;
      }
      size_t Mark = ChildTmp.size();
      ChildTmp.push_back(visit(Cell::ref(D.C.V), Depth + 1, P));
      ChildTmp.push_back(visit(Cell::ref(D.C.V + 1), Depth + 1, P));
      P.Nodes[Id].K = PatKind::ConsP;
      setChildren(Id, Mark, P);
      return;
    }
    case Tag::Str: {
      if (Depth + 1 >= DepthLimit) {
        widenInto(Id, D, P);
        return;
      }
      const Cell F = St.at(D.C.V);
      size_t Mark = ChildTmp.size();
      for (int I = 1; I <= F.funArity(); ++I)
        ChildTmp.push_back(visit(Cell::ref(D.C.V + I), Depth + 1, P));
      P.Nodes[Id].K = PatKind::StrP;
      P.Nodes[Id].Sym = static_cast<Symbol>(F.V);
      setChildren(Id, Mark, P);
      return;
    }
    case Tag::Fun:
    case Tag::Ctl:
      assert(false && "non-term cell in pattern");
      P.Nodes[Id].K = PatKind::AnyP;
      return;
    }
  }

  /// The term-depth restriction: a compound below the limit is simplified
  /// to a simple abstract type (Section 3). Alpha-lists count as simple
  /// elements, so a proper list widens to glist/anylist rather than g/nv.
  void widenInto(int32_t Id, const DerefResult &D, Pattern &P) {
    if (D.C.T == Tag::Lis) {
      // Walk the spine to see whether this is a proper list.
      bool Proper = false;
      bool Ground = true;
      Cell Cur = D.C;
      for (int Fuel = 0; Fuel != 512; ++Fuel) {
        DerefResult DC = St.deref(Cur);
        if (DC.C.T == Tag::Con && DC.C.V == SymbolTable::SymNil) {
          Proper = true;
          break;
        }
        if (DC.C.T == Tag::Abs && DC.C.absKind() == AbsKind::List) {
          Proper = true;
          Ground = Ground && isGroundCell(St, Cell::ref(DC.C.V));
          break;
        }
        if (DC.C.T != Tag::Lis)
          break;
        Ground = Ground && isGroundCell(St, Cell::ref(DC.C.V));
        Cur = Cell::ref(DC.C.V + 1);
      }
      if (Proper) {
        int32_t Elem = alloc(P);
        P.Nodes[Elem].K = Ground ? PatKind::GroundP : PatKind::AnyP;
        PatNode &N = P.Nodes[Id];
        N.K = PatKind::ListP;
        N.ChildBegin = static_cast<int32_t>(P.ChildStore.size());
        N.ChildCount = 1;
        P.ChildStore.push_back(Elem);
        return;
      }
    }
    P.Nodes[Id].K =
        isGroundCell(St, D.C) ? PatKind::GroundP : PatKind::NVP;
  }

  const Store &St;
  int DepthLimit;
  bool WidenConstants;
  int32_t Used = 0;
  std::vector<std::pair<int64_t, int32_t>> &Seen;
  std::vector<int64_t> &InProgress;
  std::vector<int32_t> &ChildTmp;
};

} // namespace

void CanonicalizeContext::canonicalizeInto(const Store &St,
                                           const std::vector<Cell> &Args,
                                           Pattern &Out, int DepthLimit,
                                           bool WidenConstants) {
  Canonicalizer(St, DepthLimit, WidenConstants, Seen, InProgress, ChildTmp)
      .run(Args, Out);
}

Pattern awam::canonicalize(const Store &St, const std::vector<Cell> &Args,
                           int DepthLimit, bool WidenConstants) {
  Pattern P;
  canonicalizeInto(St, Args, P, DepthLimit, WidenConstants);
  return P;
}

void awam::canonicalizeInto(const Store &St, const std::vector<Cell> &Args,
                            Pattern &Out, int DepthLimit,
                            bool WidenConstants) {
  CanonicalizeContext Ctx;
  Ctx.canonicalizeInto(St, Args, Out, DepthLimit, WidenConstants);
}

void awam::instantiate(Store &St, const PatternRef &P,
                       std::vector<int64_t> &CellOf,
                       std::vector<int64_t> &Roots) {
  CellOf.assign(P.NumNodes, -1);

  // Build nodes bottom-up with an explicit worklist (the DAG is acyclic).
  struct Builder {
    Store &St;
    const PatternRef &P;
    std::vector<int64_t> &CellOf;

    int64_t build(int32_t Id) {
      if (CellOf[Id] >= 0)
        return CellOf[Id];
      const PatNode &N = P.Nodes[Id];
      int64_t Out = -1;
      switch (N.K) {
      case PatKind::VarP: Out = St.pushVar(); break;
      case PatKind::AnyP: Out = St.push(Cell::abs(AbsKind::Any)); break;
      case PatKind::NVP: Out = St.push(Cell::abs(AbsKind::NV)); break;
      case PatKind::GroundP:
        Out = St.push(Cell::abs(AbsKind::Ground));
        break;
      case PatKind::ConstP: Out = St.push(Cell::abs(AbsKind::Const)); break;
      case PatKind::AtomTP: Out = St.push(Cell::abs(AbsKind::AtomT)); break;
      case PatKind::IntTP: Out = St.push(Cell::abs(AbsKind::IntT)); break;
      case PatKind::ConP: Out = St.push(Cell::atom(N.Sym)); break;
      case PatKind::IntP: Out = St.push(Cell::integer(N.Num)); break;
      case PatKind::ListP: {
        int64_t Elem = build(P.child(N, 0));
        Out = St.push(Cell::abs(AbsKind::List, Elem));
        break;
      }
      case PatKind::ConsP: {
        int64_t Car = build(P.child(N, 0));
        int64_t Cdr = build(P.child(N, 1));
        int64_t Base = St.push(Cell::ref(Car));
        St.push(Cell::ref(Cdr));
        Out = St.push(Cell::lis(Base));
        break;
      }
      case PatKind::StrP: {
        std::vector<int64_t> Args;
        for (int32_t C = 0; C != N.ChildCount; ++C)
          Args.push_back(build(P.child(N, C)));
        int64_t FunAddr =
            St.push(Cell::fun(N.Sym, static_cast<int>(N.ChildCount)));
        for (int64_t A : Args)
          St.push(Cell::ref(A));
        Out = St.push(Cell::str(FunAddr));
        break;
      }
      }
      CellOf[Id] = Out;
      return Out;
    }
  } B{St, P, CellOf};

  Roots.clear();
  Roots.reserve(P.NumRoots);
  for (size_t I = 0; I != P.NumRoots; ++I)
    Roots.push_back(B.build(P.Roots[I]));
}

std::vector<int64_t> awam::instantiate(Store &St, const PatternRef &P) {
  std::vector<int64_t> CellOf, Roots;
  instantiate(St, P, CellOf, Roots);
  return Roots;
}

Pattern awam::lubPatterns(const Pattern &A, const Pattern &B, int DepthLimit,
                          Store &Scratch) {
  assert(A.Roots.size() == B.Roots.size() && "arity mismatch in lub");
  Scratch.reset();
  std::vector<int64_t> RA = instantiate(Scratch, A);
  std::vector<int64_t> RB = instantiate(Scratch, B);
  LubContext Ctx(Scratch);
  std::vector<Cell> Result;
  Result.reserve(RA.size());
  for (size_t I = 0; I != RA.size(); ++I)
    Result.push_back(
        Cell::ref(Ctx.lub(Cell::ref(RA[I]), Cell::ref(RB[I]))));
  return canonicalize(Scratch, Result, DepthLimit);
}

Pattern awam::lubPatterns(const Pattern &A, const Pattern &B,
                          int DepthLimit) {
  Store Scratch;
  return lubPatterns(A, B, DepthLimit, Scratch);
}

bool awam::patternLeq(const Pattern &A, const Pattern &B, int DepthLimit) {
  return lubPatterns(A, B, DepthLimit) == B;
}

std::string Pattern::str(const SymbolTable &Syms) const {
  std::string Out;
  PatternPrinter().append(Out, *this, Syms);
  return Out;
}

void PatternPrinter::countChildren(const PatternRef &P) {
  RefCount.assign(P.NumNodes, 0);
  Visited.assign(P.NumNodes, 0);
  for (size_t I = 0; I != P.NumNodes; ++I) {
    const PatNode &N = P.Nodes[I];
    for (int32_t C = 0; C != N.ChildCount; ++C)
      ++RefCount[P.child(N, C)];
  }
}

void PatternPrinter::append(std::string &Out, const PatternRef &P,
                            const SymbolTable &Syms) {
  countChildren(P);
  for (size_t I = 0; I != P.NumRoots; ++I)
    ++RefCount[P.Roots[I]];
  Out.push_back('(');
  for (size_t I = 0; I != P.NumRoots; ++I) {
    if (I)
      Out.append(", ");
    print(Out, P, P.Roots[I], Syms);
  }
  Out.push_back(')');
}

void PatternPrinter::appendArg(std::string &Out, const PatternRef &P,
                               size_t Arg, const SymbolTable &Syms) {
  countChildren(P);
  ++RefCount[P.Roots[Arg]];
  print(Out, P, P.Roots[Arg], Syms);
}

void PatternPrinter::print(std::string &Out, const PatternRef &P,
                           int32_t Id, const SymbolTable &Syms) {
  const PatNode &N = P.Nodes[Id];
  if (RefCount[Id] > 1 && N.K != PatKind::ConP && N.K != PatKind::IntP) {
    Out.append("_S");
    appendInt(Out, Id);
    if (Visited[Id])
      return;
    Visited[Id] = 1;
    Out.push_back('=');
  }
  switch (N.K) {
  case PatKind::VarP: Out.append("var"); return;
  case PatKind::AnyP: Out.append("any"); return;
  case PatKind::NVP: Out.append("nv"); return;
  case PatKind::GroundP: Out.push_back('g'); return;
  case PatKind::ConstP: Out.append("const"); return;
  case PatKind::AtomTP: Out.append("atom"); return;
  case PatKind::IntTP: Out.append("int"); return;
  case PatKind::ConP: appendAtom(Out, Syms.name(N.Sym)); return;
  case PatKind::IntP: appendInt(Out, N.Num); return;
  case PatKind::ListP: {
    // "glist" for a leaf element, "(...)list" otherwise: the element is
    // printed in place and parenthesized after the fact.
    int32_t Elem = P.child(N, 0);
    size_t Begin = Out.size();
    print(Out, P, Elem, Syms);
    if (P.Nodes[Elem].ChildCount == 0 &&
        Out.find('=', Begin) == std::string::npos) {
      Out.append("list");
      return;
    }
    Out.insert(Begin, 1, '(');
    Out.append(")list");
    return;
  }
  case PatKind::ConsP: {
    Out.push_back('[');
    print(Out, P, P.child(N, 0), Syms);
    int32_t Tail = P.child(N, 1);
    for (;;) {
      const PatNode &T = P.Nodes[Tail];
      if (T.K == PatKind::ConP && T.Sym == SymbolTable::SymNil) {
        Out.push_back(']');
        return;
      }
      if (T.K == PatKind::ConsP && RefCount[Tail] <= 1) {
        Out.push_back(',');
        print(Out, P, P.child(T, 0), Syms);
        Tail = P.child(T, 1);
        continue;
      }
      Out.push_back('|');
      print(Out, P, Tail, Syms);
      Out.push_back(']');
      return;
    }
  }
  case PatKind::StrP:
    appendAtom(Out, Syms.name(N.Sym));
    Out.push_back('(');
    for (int32_t I = 0; I != N.ChildCount; ++I) {
      if (I)
        Out.push_back(',');
      print(Out, P, P.child(N, I), Syms);
    }
    Out.push_back(')');
    return;
  }
}
