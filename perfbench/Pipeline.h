//===- perfbench/Pipeline.h - Source to report, one span per layer -*- C++ -*-//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing operation the table1 and ladder workloads time: source
/// text (one unit, or library units then a main unit) to a formatted
/// report, optionally warm-started from a summary bundle. Each call into
/// a layer is wrapped in a span, so a traced run can split the operation
/// by layer; untraced, the spans cost one branch each.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_PERFBENCH_PIPELINE_H
#define AWAM_PERFBENCH_PIPELINE_H

#include "Bench.h"

#include "analyzer/Session.h"
#include "compiler/ModuleLink.h"
#include "term/Parser.h"

#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// What one pipeline run produced besides its report.
struct PipelineOut {
  std::string Report;
  std::string Error; ///< non-empty when a stage failed
  awam::PerfCounters Counters;
  uint64_t TableEntries = 0;
  uint64_t StoreBytes = 0;     ///< persistent sessions only
  uint64_t ReplayedRuns = 0;   ///< warm sessions only
  uint64_t ExecutedRuns = 0;   ///< warm sessions only
  std::string Bundle;          ///< exported when requested
  int Clauses = 0;             ///< parsed clauses over all units
};

struct PipelineIn {
  std::vector<std::string_view> Units; ///< libraries first, main unit last
  std::string_view Entry;
  awam::AnalyzerOptions Options;
  const std::string *Bundle = nullptr; ///< import before analyzing
  bool Export = false;                 ///< export a bundle afterwards
};

/// Runs \p In once; spans hang under \p Root in operation \p Op.
inline void runPipeline(const PipelineIn &In, uint64_t Op, int64_t Root,
                        PipelineOut &Out) {
  using namespace awam;
  SymbolTable Syms;
  TermArena Arena;

  std::vector<ParsedProgram> Parsed;
  Parsed.reserve(In.Units.size());
  for (std::string_view Src : In.Units) {
    Result<ParsedProgram> P = makeError("unparsed");
    {
      Span S("term.parse", Root, Op);
      P = parseProgram(Src, Syms, Arena);
    }
    if (!P) {
      Out.Error = "parse: " + P.diag().str();
      return;
    }
    Out.Clauses += static_cast<int>(P->Clauses.size());
    Parsed.push_back(P.take());
  }

  std::vector<CompiledProgram> Units;
  Units.reserve(Parsed.size());
  for (const ParsedProgram &P : Parsed) {
    Result<CompiledProgram> C = makeError("uncompiled");
    {
      Span S("compiler.compile", Root, Op);
      C = compileProgram(P, Syms);
    }
    if (!C) {
      Out.Error = "compile: " + C.diag().str();
      return;
    }
    Units.push_back(C.take());
  }

  const CompiledProgram *Prog = &Units.back();
  Result<LinkedProgram> Linked = makeError("unlinked");
  if (Units.size() > 1) {
    std::vector<ModuleUnit> Mods;
    for (size_t I = 0; I != Units.size(); ++I)
      Mods.push_back({&Units[I], "unit" + std::to_string(I)});
    {
      Span S("compiler.link", Root, Op);
      Linked = linkPrograms(Mods);
    }
    if (!Linked) {
      Out.Error = "link: " + Linked.diag().str();
      return;
    }
    if (!Linked->UnresolvedImports.empty()) {
      Out.Error = "link: " + Linked->UnresolvedImports.front();
      return;
    }
    Prog = &Linked->Program;
  }

  AnalysisSession Session(*Prog, In.Options);
  if (In.Bundle) {
    Result<AnalysisStore::ImportStats> I = makeError("not imported");
    {
      Span S("analyzer.store.import", Root, Op);
      I = Session.importSummaries(*In.Bundle);
    }
    if (!I) {
      Out.Error = "import: " + I.diag().str();
      return;
    }
  }
  Result<AnalysisResult> R = makeError("not analyzed");
  {
    Span S(In.Bundle ? "analyzer.store.warm_analyze" : "analyzer.analyze",
           Root, Op);
    R = Session.analyze(In.Entry);
  }
  if (!R) {
    Out.Error = "analyze: " + R.diag().str();
    return;
  }
  {
    Span S("analyzer.format", Root, Op);
    Out.Report = formatAnalysis(*R, Syms);
  }
  Out.Counters = R->Counters;
  Out.TableEntries = R->Items.size();
  if (const AnalysisStore *St = Session.store()) {
    Out.StoreBytes = St->bytesUsed();
    Out.ReplayedRuns = St->stats().ReplayedRuns;
    Out.ExecutedRuns = St->stats().ExecutedRuns;
  }
  if (In.Export) {
    Result<std::string> B = makeError("not exported");
    {
      Span S("analyzer.store.export", Root, Op);
      B = Session.exportSummaries();
    }
    if (!B) {
      Out.Error = "export: " + B.diag().str();
      return;
    }
    Out.Bundle = B.take();
  }
}

/// Sums the counters the per-layer record reports over several runs.
struct CounterSum {
  double Instructions = 0, ActivationRuns = 0, TableEntries = 0,
         ETProbes = 0, DistinctPatterns = 0, InternHits = 0,
         InternMisses = 0, LubHits = 0, LubMisses = 0, LeqMisses = 0;

  void add(const PipelineOut &O) {
    const awam::PerfCounters &C = O.Counters;
    Instructions += static_cast<double>(C.Instructions);
    ActivationRuns += static_cast<double>(C.ActivationRuns);
    TableEntries += static_cast<double>(O.TableEntries);
    ETProbes += static_cast<double>(C.ETProbes);
    DistinctPatterns += static_cast<double>(C.DistinctPatterns);
    InternHits += static_cast<double>(C.InternHits);
    InternMisses += static_cast<double>(C.InternMisses);
    LubHits += static_cast<double>(C.LubCacheHits);
    LubMisses += static_cast<double>(C.LubCacheMisses);
    LeqMisses += static_cast<double>(C.LeqCacheMisses);
  }

  void report(Record &R) const {
    auto Ratio = [](double A, double B) { return A + B > 0 ? A / (A + B) : 0; };
    R.add("analyzer.instructions", "count", Instructions);
    R.add("analyzer.activation_runs", "count", ActivationRuns);
    R.add("analyzer.table_entries", "count", TableEntries);
    R.add("analyzer.et_probes", "count", ETProbes);
    R.add("analyzer.distinct_patterns", "count", DistinctPatterns);
    R.add("analyzer.intern_hit_ratio", "ratio",
          Ratio(InternHits, InternMisses));
    R.add("analyzer.lub_hit_ratio", "ratio", Ratio(LubHits, LubMisses));
    R.add("absdom.lubs_computed", "count", LubMisses);
    R.add("absdom.leqs_computed", "count", LeqMisses);
  }
};

/// Per-item, per-layer self-time samples (us) from traced operations.
class LayerSamples {
public:
  /// Adds the self times of spans [From, end) to item \p Item.
  void add(size_t Item, size_t From) {
    if (Item >= ByItem.size())
      ByItem.resize(Item + 1);
    for (const auto &[Name, Ns] : tracer().selfNs(From))
      ByItem[Item][Name].push_back(Ns / 1000.0);
  }
  /// The layer's samples of one item as an Item (empty when none).
  Item item(size_t I, const std::string &Layer, double Clauses) const {
    Item Out;
    Out.Clauses = Clauses;
    if (I < ByItem.size()) {
      auto It = ByItem[I].find(Layer);
      if (It != ByItem[I].end())
        Out.Us = It->second;
    }
    return Out;
  }

private:
  std::vector<std::map<std::string, std::vector<double>>> ByItem;
};

} // namespace perfbench

#endif // AWAM_PERFBENCH_PIPELINE_H
