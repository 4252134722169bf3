//===- wam/Store.cpp ------------------------------------------------------===//

#include "wam/Store.h"

#include "term/TermWriter.h"

using namespace awam;

int64_t Store::buildTerm(const Term *T,
                         std::unordered_map<int, int64_t> &VarAddrs) {
  switch (T->kind()) {
  case TermKind::Var: {
    auto It = VarAddrs.find(T->varId());
    if (It != VarAddrs.end())
      return It->second;
    int64_t A = pushVar();
    VarAddrs.emplace(T->varId(), A);
    return A;
  }
  case TermKind::Int:
    return push(Cell::integer(T->intValue()));
  case TermKind::Atom:
    return push(Cell::atom(T->functor()));
  case TermKind::Struct: {
    // Build children first (they may allocate), then the contiguous block.
    std::vector<int64_t> ChildAddrs;
    ChildAddrs.reserve(T->arity());
    for (const Term *A : T->args())
      ChildAddrs.push_back(buildTerm(A, VarAddrs));
    if (T->isCons()) {
      int64_t Base = push(Cell::ref(ChildAddrs[0]));
      push(Cell::ref(ChildAddrs[1]));
      return push(Cell::lis(Base));
    }
    int64_t FunAddr = push(Cell::fun(T->functor(), T->arity()));
    for (int64_t CA : ChildAddrs)
      push(Cell::ref(CA));
    return push(Cell::str(FunAddr));
  }
  }
  return 0;
}

const Term *Store::readTerm(Cell C, TermArena &Arena, SymbolTable &Syms,
                            int MaxDepth) const {
  if (MaxDepth <= 0)
    return Arena.mkAtom(Syms.intern("..."));
  DerefResult D = deref(C);
  switch (D.C.T) {
  case Tag::Ref:
    return Arena.mkVar(Syms.intern("_"), static_cast<int>(D.Addr));
  case Tag::Int:
    return Arena.mkInt(D.C.V);
  case Tag::Con:
    return Arena.mkAtom(static_cast<Symbol>(D.C.V));
  case Tag::Lis: {
    const Term *Head =
        readTerm(Cell::ref(D.C.V), Arena, Syms, MaxDepth - 1);
    const Term *Tail =
        readTerm(Cell::ref(D.C.V + 1), Arena, Syms, MaxDepth - 1);
    return Arena.mkCons(Head, Tail);
  }
  case Tag::Str: {
    const Cell &F = Heap[D.C.V];
    std::vector<const Term *> Args;
    for (int I = 1; I <= F.funArity(); ++I)
      Args.push_back(readTerm(Cell::ref(D.C.V + I), Arena, Syms,
                              MaxDepth - 1));
    return Arena.mkStruct(static_cast<Symbol>(F.V), Args);
  }
  case Tag::Abs: {
    // Abstract cells print as their kind name; parameterized lists print
    // as <elem>_list.
    if (D.C.absKind() == AbsKind::List) {
      const Term *Elem =
          readTerm(Cell::ref(D.C.V), Arena, Syms, MaxDepth - 1);
      std::string Name =
          writeTerm(Elem, Syms, WriteOptions{.QuoteAtoms = false});
      return Arena.mkAtom(Syms.intern(Name + "_list"));
    }
    return Arena.mkAtom(Syms.intern(absKindName(D.C.absKind())));
  }
  case Tag::Fun:
  case Tag::Ctl:
    return Arena.mkAtom(Syms.intern("<corrupt>"));
  }
  return nullptr;
}

std::string Store::show(Cell C, SymbolTable &Syms) const {
  TermArena Arena;
  return writeTerm(readTerm(C, Arena, Syms), Syms);
}

std::string_view awam::absKindName(AbsKind K) {
  switch (K) {
  case AbsKind::Any: return "any";
  case AbsKind::NV: return "nv";
  case AbsKind::Ground: return "g";
  case AbsKind::Const: return "const";
  case AbsKind::AtomT: return "atom";
  case AbsKind::IntT: return "int";
  case AbsKind::List: return "list";
  case AbsKind::Var: return "var";
  }
  return "<bad>";
}
