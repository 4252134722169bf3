//===- compiler/ModuleLink.cpp - Cross-module linking ---------------------===//

#include "compiler/ModuleLink.h"

#include <algorithm>
#include <cstdlib>
#include <tuple>

using namespace awam;

Result<LinkedProgram> awam::linkPrograms(const std::vector<ModuleUnit> &Units) {
  if (Units.empty())
    return makeError("link: no modules to link");
  for (const ModuleUnit &U : Units)
    if (!U.Program || !U.Program->Module)
      return makeError("link: null module unit");
  SymbolTable &Syms = Units.front().Program->Module->symbols();
  for (const ModuleUnit &U : Units)
    if (&U.Program->Module->symbols() != &Syms)
      return makeError("link: module '" + U.Label +
                       "' was compiled against a different symbol table");

  LinkedProgram Out;
  Out.Program.Module = std::make_unique<CodeModule>(Syms);
  CodeModule &M = *Out.Program.Module;
  // The linked code is one prologue plus every unit's code after its own.
  int32_t CodeSize = kProceedAddress + 1;
  for (const ModuleUnit &U : Units)
    CodeSize += U.Program->Module->codeSize() - (kProceedAddress + 1);
  M.reserveCode(CodeSize);
  // The shared prologue every unit also starts with; unit addresses <= 1
  // relocate onto it unchanged.
  M.emit({Opcode::Halt});
  M.emit({Opcode::Proceed});

  // The unit that exports each linked predicate id (-1: none so far), for
  // duplicate-export errors.
  std::vector<int32_t> ExportedBy;

  for (size_t UI = 0; UI != Units.size(); ++UI) {
    const CodeModule &Src = *Units[UI].Program->Module;
    const int32_t Base = M.codeSize();
    // Unit address -> linked address. Halt/Proceed are shared, kFailTarget
    // is a sentinel, everything else shifts with the unit's code block.
    auto Reloc = [Base](int32_t A) {
      return A <= kProceedAddress ? A : Base + (A - (kProceedAddress + 1));
    };
    // Unit pool index / predicate id -> linked one (-1: not yet used).
    // Each is interned on first use, in code order, so the linked
    // numbering is first-reference order across the units.
    std::vector<int32_t> ConstMap(Src.numConsts(), -1);
    std::vector<int32_t> FunctorMap(Src.numFunctors(), -1);
    std::vector<int32_t> PredMap(Src.numPredicates(), -1);
    auto linkConst = [&](int32_t K) {
      int32_t &L = ConstMap[K];
      if (L < 0)
        L = M.internConst(Src.constAt(K));
      return L;
    };
    auto linkFunctor = [&](int32_t K) {
      int32_t &L = FunctorMap[K];
      if (L < 0)
        L = M.internFunctor(Src.functorAt(K));
      return L;
    };
    // Imports resolve by signature: predicateId creates an undefined entry
    // that a later (or earlier) unit's export fills in.
    auto linkPred = [&](int32_t Pid) {
      int32_t &L = PredMap[Pid];
      if (L < 0)
        L = M.predicateId(Src.predicate(Pid).Name, Src.predicate(Pid).Arity);
      return L;
    };

    // The unit's code after its prologue, copied as one block and then
    // relocated in place.
    M.emitBlock(Src.code(kProceedAddress + 1, Src.codeSize()));
    for (Instruction &I : M.codeFrom(Base)) {
      switch (I.Op) {
      case Opcode::Call:
      case Opcode::Execute:
        I.A = linkPred(I.A);
        break;
      case Opcode::Try:
      case Opcode::Retry:
      case Opcode::Trust:
      case Opcode::Jump:
        I.A = Reloc(I.A);
        break;
      case Opcode::SwitchOnTerm: {
        TermSwitch S = Src.termSwitchAt(I.A);
        S.OnVar = Reloc(S.OnVar);
        S.OnConst = Reloc(S.OnConst);
        S.OnList = Reloc(S.OnList);
        S.OnStruct = Reloc(S.OnStruct);
        I.A = M.addTermSwitch(S);
        break;
      }
      case Opcode::SwitchOnConstant:
      case Opcode::SwitchOnStructure: {
        bool OnConst = I.Op == Opcode::SwitchOnConstant;
        ValueSwitch S = Src.valueSwitchAt(I.A);
        for (auto &[Key, Target] : S.Cases) {
          Key = OnConst ? linkConst(Key) : linkFunctor(Key);
          Target = Reloc(Target);
        }
        S.Default = Reloc(S.Default);
        I.A = M.addValueSwitch(std::move(S));
        break;
      }
      case Opcode::GetConst:
      case Opcode::PutConst:
      case Opcode::UnifyConst:
        I.A = linkConst(I.A);
        break;
      case Opcode::GetStructure:
      case Opcode::PutStructure:
      case Opcode::GetStructureFused:
        I.A = linkFunctor(I.A);
        break;
      default:
        break;
      }
    }

    for (int32_t Pid = 0; Pid != Src.numPredicates(); ++Pid) {
      const PredicateInfo &SP = Src.predicate(Pid);
      if (SP.Clauses.empty())
        continue; // an import of this unit; some unit's export resolves it
      int32_t LinkedPid = linkPred(Pid);
      if (static_cast<size_t>(LinkedPid) >= ExportedBy.size())
        ExportedBy.resize(M.numPredicates(), -1);
      if (ExportedBy[LinkedPid] >= 0)
        return makeError("link: duplicate definition of " +
                         std::string(Syms.name(SP.Name)) + "/" +
                         std::to_string(SP.Arity) + " in '" +
                         Units[ExportedBy[LinkedPid]].Label + "' and '" +
                         Units[UI].Label + "'");
      ExportedBy[LinkedPid] = static_cast<int32_t>(UI);
      PredicateInfo &NP = M.predicate(LinkedPid);
      NP.IndexEntry = Reloc(SP.IndexEntry);
      NP.Clauses.reserve(SP.Clauses.size());
      for (const ClauseInfo &C : SP.Clauses)
        NP.Clauses.push_back({Reloc(C.Entry), C.NumInstr});
    }

    Out.Program.MaxXReg =
        std::max(Out.Program.MaxXReg, Units[UI].Program->MaxXReg);
    Out.Program.NumArgs += Units[UI].Program->NumArgs;
    Out.Program.NumPreds += Units[UI].Program->NumPreds;
  }

  // Imports no unit exported, with near-miss suggestions against the
  // linked export table.
  for (int32_t Pid = 0; Pid != M.numPredicates(); ++Pid) {
    const PredicateInfo &P = M.predicate(Pid);
    if (!P.Clauses.empty())
      continue;
    Out.Program.UndefinedPredicates.push_back(Pid);
    Out.UnresolvedImports.push_back(undefinedPredicateMessage(
        M, "imported", Syms.name(P.Name), P.Arity));
  }
  return Out;
}

namespace {

/// Plain Levenshtein distance, for the near-miss candidate ranking.
size_t editDistance(std::string_view A, std::string_view B) {
  std::vector<size_t> Row(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Row[J] = J;
  for (size_t I = 1; I <= A.size(); ++I) {
    size_t Diag = Row[0];
    Row[0] = I;
    for (size_t J = 1; J <= B.size(); ++J) {
      size_t Sub = Diag + (A[I - 1] != B[J - 1]);
      Diag = Row[J];
      Row[J] = std::min({Row[J - 1] + 1, Row[J] + 1, Sub});
    }
  }
  return Row[B.size()];
}

} // namespace

std::string awam::undefinedPredicateMessage(
    std::string_view Role, std::string_view Name, int Arity,
    const std::vector<std::pair<std::string, int>> &Defined) {
  std::string Msg = std::string(Role) + " predicate " + std::string(Name) +
                    "/" + std::to_string(Arity) + " is not defined";
  // Candidates: the same name at another arity always qualifies; other
  // names must be within a small edit distance (1 for short names).
  size_t Thresh = Name.size() >= 5 ? 2 : 1;
  struct Cand {
    size_t Dist;
    int ArityGap;
    std::string Label;
  };
  std::vector<Cand> Cands;
  for (const auto &[DefName, DefArity] : Defined) {
    size_t Dist = editDistance(Name, DefName);
    if (Dist == 0 ? DefArity == Arity : Dist > Thresh)
      continue;
    Cands.push_back({Dist, std::abs(DefArity - Arity),
                     DefName + "/" + std::to_string(DefArity)});
  }
  std::sort(Cands.begin(), Cands.end(), [](const Cand &A, const Cand &B) {
    return std::tie(A.Dist, A.ArityGap, A.Label) <
           std::tie(B.Dist, B.ArityGap, B.Label);
  });
  Cands.erase(std::unique(Cands.begin(), Cands.end(),
                          [](const Cand &A, const Cand &B) {
                            return A.Label == B.Label;
                          }),
              Cands.end());
  if (!Cands.empty()) {
    Msg += "; did you mean ";
    for (size_t I = 0; I != Cands.size() && I != 3; ++I)
      Msg += (I ? ", " : "") + Cands[I].Label;
    Msg += "?";
  }
  return Msg;
}

std::string awam::undefinedPredicateMessage(const CodeModule &M,
                                            std::string_view Role,
                                            std::string_view Name,
                                            int Arity) {
  std::vector<std::pair<std::string, int>> Defined;
  for (int32_t Pid = 0; Pid != M.numPredicates(); ++Pid) {
    const PredicateInfo &P = M.predicate(Pid);
    if (!P.Clauses.empty())
      Defined.emplace_back(std::string(M.symbols().name(P.Name)),
                           static_cast<int>(P.Arity));
  }
  return undefinedPredicateMessage(Role, Name, Arity, Defined);
}
