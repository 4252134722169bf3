//===- analyzer/DetDomain.cpp - Determinism analysis ----------------------===//
//
// The determinism / mutual-exclusion domain ("det"): analyses run over the
// default mode/type/aliasing encoding unchanged (every lattice and transfer
// hook is the base Domain's), and the derived facts are computed *after*
// the fixpoint, from the extension table plus the compiled clause code —
// per table item (predicate x calling pattern), a classification
//
//   det      exactly one clause can match, its head cannot fail, and its
//            body is det — at most one solution, and success is guaranteed
//            given the summary says it succeeds
//   semidet  at most one solution (clauses mutually exclusive on the first
//            argument), but the item can fail
//   nondet   several clauses may match: choice points can survive
//   fails    the table proves the call never succeeds
//
// The computation itself lives in analyzer/DetFacts.cpp (the specializer
// adapter shares it); this file is only the domain registration and the
// fact renderer.
//
//===----------------------------------------------------------------------===//

#include "analyzer/DetFacts.h"
#include "analyzer/Domain.h"
#include "compiler/ProgramCompiler.h"

using namespace awam;

namespace {

class DetDomain final : public Domain {
public:
  std::string_view name() const override { return "det"; }
  std::string_view description() const override {
    return "determinism facts (det/semidet/nondet) over the default domain";
  }

  void appendFacts(std::string &Out, const AnalysisResult &R,
                   const CompiledProgram &Program,
                   PatternPrinter &Pr) const override {
    std::vector<DetItemFacts> Facts = computeDetFacts(R, Program);
    if (Facts.empty())
      return;
    const SymbolTable &Syms = Program.Module->symbols();
    Out.append("determinism facts:\n");
    for (size_t I = 0; I != Facts.size(); ++I) {
      Out.append("  ");
      Out.append(R.Items[I].PredLabel);
      Out.push_back(' ');
      Pr.append(Out, R.Items[I].Call, Syms);
      Out.append(": ");
      Out.append(detItemClassName(Facts[I].Class));
      Out.push_back('\n');
    }
  }
};

} // namespace

const Domain &awam::detDomain() {
  static const DetDomain D;
  return D;
}
