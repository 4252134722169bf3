//===- analyzer/Analyzer.cpp ----------------------------------------------===//

#include "analyzer/Analyzer.h"

#include "analyzer/AbstractMachine.h"
#include "analyzer/Domain.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <tuple>

using namespace awam;

void awam::fillRunCounters(PerfCounters &C, const AbstractMachine &Machine,
                           const ExtensionTable &Table,
                           const InternerStats &Before) {
  C.Instructions = Machine.stepsExecuted();
  C.ActivationRuns = Machine.activationsExplored();
  C.ETProbes = Table.probeCount();
  const PatternInterner *In = Table.interner();
  if (!In)
    return;
  const InternerStats &After = In->stats();
  C.InternHits = After.InternHits - Before.InternHits;
  C.InternMisses = After.InternMisses - Before.InternMisses;
  C.LubCacheHits = After.LubCacheHits - Before.LubCacheHits;
  C.LubCacheMisses = After.LubCacheMisses - Before.LubCacheMisses;
  C.LeqCacheHits = After.LeqCacheHits - Before.LeqCacheHits;
  C.LeqCacheMisses = After.LeqCacheMisses - Before.LeqCacheMisses;
  C.DistinctPatterns = In->size();
}

Pattern awam::makeEntryPattern(const std::vector<PatKind> &ArgKinds) {
  Pattern P;
  for (PatKind K : ArgKinds) {
    int32_t Id = static_cast<int32_t>(P.Nodes.size());
    PatNode N;
    N.K = K;
    if (K == PatKind::ListP) {
      PatNode Elem;
      Elem.K = PatKind::AnyP;
      N.ChildBegin = static_cast<int32_t>(P.ChildStore.size());
      N.ChildCount = 1;
      P.ChildStore.push_back(Id + 1);
      P.Nodes.push_back(N);
      P.Nodes.push_back(Elem);
      P.Roots.push_back(Id);
      continue;
    }
    P.Nodes.push_back(N);
    P.Roots.push_back(Id);
  }
  return P;
}

namespace {

std::string_view trimSpaces(std::string_view S) {
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.front())))
    S.remove_prefix(1);
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.back())))
    S.remove_suffix(1);
  return S;
}

std::optional<PatKind> simpleKind(std::string_view S) {
  if (S == "any") return PatKind::AnyP;
  if (S == "nv") return PatKind::NVP;
  if (S == "g" || S == "ground") return PatKind::GroundP;
  if (S == "const") return PatKind::ConstP;
  if (S == "atom") return PatKind::AtomTP;
  if (S == "int" || S == "integer") return PatKind::IntTP;
  if (S == "var") return PatKind::VarP;
  return std::nullopt;
}

/// Parses a decimal literal without stoll's exception/overflow hazards.
/// 18 digits keep the value well inside int64.
bool parseIntLiteral(std::string_view S, int64_t &Out) {
  bool Neg = !S.empty() && S.front() == '-';
  std::string_view Digits = Neg ? S.substr(1) : S;
  if (Digits.empty() || Digits.size() > 18)
    return false;
  int64_t V = 0;
  for (char C : Digits) {
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
    V = V * 10 + (C - '0');
  }
  Out = Neg ? -V : V;
  return true;
}

/// Validates a predicate name from a spec; returns an error message or
/// nothing.
std::optional<std::string> checkSpecName(std::string_view Name) {
  if (Name.empty())
    return "missing predicate name";
  for (char C : Name)
    if (std::isspace(static_cast<unsigned char>(C)))
      return "predicate name '" + std::string(Name) +
             "' contains whitespace";
  if (Name.find(',') != std::string_view::npos ||
      Name.find('/') != std::string_view::npos)
    return "unexpected '" +
           std::string(1, Name[Name.find_first_of(",/")]) +
           "' in predicate name '" + std::string(Name) + "'";
  return std::nullopt;
}

/// Appends one parsed argument to \p P; returns an error message or
/// nothing.
std::optional<std::string> appendSpecArg(Pattern &P, std::string_view Arg,
                                         int ArgNo) {
  auto Err = [&](std::string Msg) {
    return "argument " + std::to_string(ArgNo) + ": " + Msg;
  };
  if (Arg.empty())
    return Err("is empty (doubled or trailing comma?)");
  int32_t Id = static_cast<int32_t>(P.Nodes.size());
  PatNode N;
  if (std::optional<PatKind> K = simpleKind(Arg)) {
    N.K = *K;
    P.Nodes.push_back(N);
    P.Roots.push_back(Id);
    return std::nullopt;
  }
  if (Arg.size() > 4 && Arg.ends_with("list")) {
    std::optional<PatKind> EK = simpleKind(Arg.substr(0, Arg.size() - 4));
    if (!EK)
      return Err("unknown list element type in '" + std::string(Arg) + "'");
    N.K = PatKind::ListP;
    N.ChildBegin = static_cast<int32_t>(P.ChildStore.size());
    N.ChildCount = 1;
    P.ChildStore.push_back(Id + 1);
    PatNode Elem;
    Elem.K = *EK;
    P.Nodes.push_back(N);
    P.Nodes.push_back(Elem);
    P.Roots.push_back(Id);
    return std::nullopt;
  }
  int64_t Num = 0;
  if (parseIntLiteral(Arg, Num)) {
    N.K = PatKind::IntP;
    N.Num = Num;
    P.Nodes.push_back(N);
    P.Roots.push_back(Id);
    return std::nullopt;
  }
  return Err("unknown form '" + std::string(Arg) +
             "' (expected any, nv, g, ground, const, atom, int, integer, "
             "var, a <kind>list, or an integer literal; named atoms are "
             "not supported in entry specs)");
}

} // namespace

Result<std::pair<std::string, Pattern>>
awam::parseEntrySpec(std::string_view Spec) {
  auto Fail = [&](std::string Msg) {
    return makeError("bad entry spec '" + std::string(Spec) + "': " + Msg);
  };
  std::string_view Text = trimSpaces(Spec);
  if (Text.empty())
    return Fail("empty spec");

  size_t Paren = Text.find('(');
  if (Paren == std::string_view::npos) {
    // "name" (arity 0) or the "name/arity" shorthand (all-any arguments).
    std::string_view NameView = Text;
    size_t Slash = NameView.rfind('/');
    int64_t Arity = 0;
    if (Slash != std::string_view::npos) {
      std::string_view ArityText = trimSpaces(NameView.substr(Slash + 1));
      NameView = trimSpaces(NameView.substr(0, Slash));
      if (!parseIntLiteral(ArityText, Arity) || Arity < 0 || Arity > 255)
        return Fail("arity in '" + std::string(Text) +
                    "' must be an integer in [0, 255]");
    }
    if (std::optional<std::string> Err = checkSpecName(NameView))
      return Fail(*Err);
    return std::make_pair(
        std::string(NameView),
        makeEntryPattern(std::vector<PatKind>(static_cast<size_t>(Arity),
                                              PatKind::AnyP)));
  }

  std::string_view NameView = trimSpaces(Text.substr(0, Paren));
  if (std::optional<std::string> Err = checkSpecName(NameView))
    return Fail(*Err);
  if (Text.back() != ')')
    return Fail("missing ')' at the end");
  std::string_view ArgText = Text.substr(Paren + 1, Text.size() - Paren - 2);
  if (ArgText.find('(') != std::string_view::npos ||
      ArgText.find(')') != std::string_view::npos)
    return Fail("nested terms are not supported in entry specs");

  Pattern P;
  if (!trimSpaces(ArgText).empty()) {
    size_t Start = 0;
    int ArgNo = 1;
    for (;;) {
      size_t Comma = ArgText.find(',', Start);
      std::string_view Arg =
          trimSpaces(Comma == std::string_view::npos
                         ? ArgText.substr(Start)
                         : ArgText.substr(Start, Comma - Start));
      if (std::optional<std::string> Err = appendSpecArg(P, Arg, ArgNo))
        return Fail(*Err);
      if (Comma == std::string_view::npos)
        break;
      Start = Comma + 1;
      ++ArgNo;
    }
  }
  return std::make_pair(std::string(NameView), std::move(P));
}

std::optional<PredSig> awam::parsePredSig(std::string_view Text) {
  size_t Slash = Text.rfind('/');
  if (Slash == std::string_view::npos || Slash == 0 ||
      Slash + 1 == Text.size())
    return std::nullopt;
  int64_t Arity = 0;
  for (char C : Text.substr(Slash + 1)) {
    if (C < '0' || C > '9')
      return std::nullopt;
    Arity = Arity * 10 + (C - '0');
    if (Arity > std::numeric_limits<int32_t>::max())
      return std::nullopt;
  }
  return PredSig{std::string(Text.substr(0, Slash)),
                 static_cast<int32_t>(Arity)};
}

std::string awam::formatAnalysis(const AnalysisResult &R,
                                 const SymbolTable &Syms) {
  // Pattern text routes through the result's domain; the default domain's
  // formatPattern is Pattern::str, so default-domain reports are
  // byte-identical to the pre-domain formatter (and to the null-domain
  // fallback used by trace/baseline results).
  auto Fmt = [&](const Pattern &P) {
    return R.Dom ? R.Dom->formatPattern(P, Syms) : P.str(Syms);
  };
  TextTable T({"predicate", "calling pattern", "success pattern"});
  for (const AnalysisResult::Item &I : R.Items)
    T.addRow({I.PredLabel, Fmt(I.Call),
              I.Success ? Fmt(*I.Success) : "(fails)"});
  std::string Out = T.str();
  Out += "iterations: " + std::to_string(R.Iterations) +
         (R.Converged ? " (fixpoint)" : " (budget hit)") +
         ", abstract instructions: " +
         std::to_string(R.Counters.Instructions) +
         "\n";
  return Out;
}

namespace {
/// True if every term described by node \p Id is ground.
bool isGroundNode(const Pattern &P, int32_t Id, int Fuel = 64) {
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
      if (!isGroundNode(P, P.child(N, C), Fuel - 1))
        return false;
    return true;
  }
  return false;
}

/// Classifies one root node of a calling pattern as an input mode.
std::string modeOf(const Pattern &P, int32_t Root) {
  if (isGroundNode(P, Root))
    return "++";
  switch (P.Nodes[Root].K) {
  case PatKind::VarP:
    return "-";
  case PatKind::AnyP:
    return "?";
  default:
    return "+"; // nonvar
  }
}

/// Renders one root of a pattern in isolation.
std::string rootText(const Pattern &P, size_t ArgIdx,
                     const SymbolTable &Syms) {
  // Reuse Pattern::str by printing the whole tuple and splitting is
  // fragile; print a single-root sub-pattern instead.
  Pattern Sub;
  Sub.Nodes = P.Nodes;
  Sub.ChildStore = P.ChildStore;
  Sub.Roots = {P.Roots[ArgIdx]};
  std::string S = Sub.str(Syms);
  // Strip the surrounding "( ... )".
  return S.substr(1, S.size() - 2);
}
} // namespace

std::string awam::formatModes(const AnalysisResult &R,
                              const SymbolTable &Syms) {
  TextTable T({"predicate", "arg", "mode", "call type", "success type"});
  for (const AnalysisResult::Item &I : R.Items) {
    for (size_t A = 0; A != I.Call.Roots.size(); ++A) {
      T.addRow({A == 0 ? I.PredLabel : "", std::to_string(A + 1),
                modeOf(I.Call, I.Call.Roots[A]), rootText(I.Call, A, Syms),
                I.Success ? rootText(*I.Success, A, Syms) : "(fails)"});
    }
    if (I.Call.Roots.empty())
      T.addRow({I.PredLabel, "-", "", "",
                I.Success ? "succeeds" : "(fails)"});
  }
  return T.str();
}

std::string awam::formatReport(const AnalysisResult &R,
                               const CompiledProgram &Program, bool Modes) {
  const SymbolTable &Syms = Program.Module->symbols();
  std::string Out = Modes ? formatModes(R, Syms) : formatAnalysis(R, Syms);
  if (R.Dom)
    Out += R.Dom->formatFacts(R, Program);
  return Out;
}

std::string awam::formatReachability(const AnalysisResult &R,
                                     const CompiledProgram &Program) {
  const CodeModule &M = *Program.Module;
  std::set<int32_t> Reached;
  std::vector<std::string> NeverSucceeds;
  for (const AnalysisResult::Item &I : R.Items) {
    Reached.insert(I.PredId);
    if (!I.Success)
      NeverSucceeds.push_back(I.PredLabel + " " +
                              I.Call.str(M.symbols()));
  }
  std::string Out;
  Out += "Reachability from the analyzed entry goal:\n";
  bool AnyDead = false;
  for (int32_t Pid = 0; Pid != M.numPredicates(); ++Pid) {
    if (M.predicate(Pid).Clauses.empty())
      continue; // undefined predicates are reported by the compiler
    if (!Reached.count(Pid)) {
      Out += "  unreachable: " + M.predicateLabel(Pid) + "\n";
      AnyDead = true;
    }
  }
  if (!AnyDead)
    Out += "  every defined predicate is reachable\n";
  for (const std::string &S : NeverSucceeds)
    Out += "  never succeeds: " + S + "\n";
  return Out;
}

// undefinedPredicateMessage and its edit-distance ranking moved to
// compiler/ModuleLink.cpp (the linker shares the near-miss machinery).
