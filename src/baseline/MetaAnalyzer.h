//===- baseline/MetaAnalyzer.h - Meta-interpreting analyzer -----*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline the paper argues against: a *meta-interpreting* abstract
/// analyzer. It implements exactly the same analysis as the compiled
/// abstract WAM — same domain, same extension-table control scheme, same
/// builtin semantics — but interprets the source clauses directly:
///
///  * each clause trial renames the clause by building its head terms from
///    the AST on the heap and running one general abstract unification per
///    head argument (no specialized get/unify instructions);
///  * body goals are dispatched by walking the AST (no compiled code);
///  * no first-argument indexing, no register allocation.
///
/// This is the interpretive overhead the paper's compilation removes
/// (stand-in for the Prolog-hosted Aquarius analyzer of Table 1; see
/// DESIGN.md, substitution 1). Both analyzers must compute identical
/// extension tables — tests/CrossValidationTest.cpp checks that. Clients
/// drive it directly: its analyze() takes the same entry specs and returns
/// the same AnalysisResult as AnalysisSession::analyze().
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_BASELINE_METAANALYZER_H
#define AWAM_BASELINE_METAANALYZER_H

#include "analyzer/Analyzer.h"
#include "term/Parser.h"
#include "wam/Store.h"

#include <map>

namespace awam {

/// The meta-interpreting dataflow analyzer.
class MetaAnalyzer {
public:
  /// \p Program must outlive the analyzer. \p Syms is the shared symbol
  /// table used when parsing the program. The Driver option is ignored —
  /// the baseline is inherently the naive restart loop.
  MetaAnalyzer(const ParsedProgram &Program, SymbolTable &Syms,
               AnalyzerOptions Options = {});

  /// Analyzes from an entry spec like "nrev(glist, var)"; see
  /// parseEntrySpec. The result Items carry PredId = -1 (the baseline has
  /// no compiled predicate table) but the same labels and patterns as the
  /// compiled analyzer.
  Result<AnalysisResult> analyze(std::string_view EntrySpec);
  Result<AnalysisResult> analyze(std::string_view Name,
                                 const Pattern &Entry);

  /// Number of goal reductions performed (all iterations).
  uint64_t reductions() const { return Reductions; }

  /// Activation replays performed (all iterations) — comparable to the
  /// compiled machine's activationsExplored().
  uint64_t activations() const { return Activations; }

private:
  struct PredClauses {
    std::string Label;
    std::vector<const ParsedClause *> Clauses;
  };

  /// One fixpoint iteration; returns false on resource errors.
  bool runIteration(int PredIdx, const Pattern &Entry);
  bool analyzeCall(int PredIdx, const std::vector<Cell> &Args);
  bool solveGoals(const ParsedClause &Clause,
                  std::unordered_map<int, int64_t> &VarMap);

  const ParsedProgram &Program;
  SymbolTable &Syms;
  AnalyzerOptions Options;

  std::vector<PredClauses> Preds;
  std::map<std::pair<Symbol, int>, int> PredIndex;

  Store St;
  ExtensionTable Table{ExtensionTable::Impl::LinearList};
  bool Changed = false;
  bool BudgetExceeded = false;
  uint64_t Reductions = 0;
  uint64_t Activations = 0;
  uint64_t IterationBudget = 0;
};

} // namespace awam

#endif // AWAM_BASELINE_METAANALYZER_H
