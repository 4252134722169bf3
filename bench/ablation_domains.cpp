//===- bench/ablation_domains.cpp - Abstract-domain cost ablation ---------===//
//
// Measures what each registered abstract domain costs on the shared
// engine: the paper's mode/type/aliasing domain ("modes", the default),
// the Pos-style groundness-dependency domain ("pos") and the determinism
// domain ("det"), all through the same compiled abstract WAM, interner,
// extension table and worklist driver.
//
// Identity gates (the bench exits nonzero on any violation):
//
//  * the default domain selected by name is byte-identical — report and
//    facts — to a session with default options (the domain interface
//    costs the paper's analysis nothing);
//  * the det domain's pattern table equals the modes table (det only
//    derives facts on top of the default fixpoint).
//
// The modes(ms) column is measured with the same protocol as the "fast"
// column of ablation_interning, so the two files cross-check within
// noise.
//
// Output: a human-readable table on stdout and machine-readable JSON in
// BENCH_domains.json (written to the current directory).
//
//===----------------------------------------------------------------------===//

#include "analyzer/Domain.h"
#include "bench/BenchUtil.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace awam;
using namespace awam::bench;

namespace {

/// Everything a domain run answers: the report table plus derived facts.
std::string reportOf(const AnalysisResult &R, const PreparedBenchmark &P) {
  std::string Out = formatAnalysis(R, *P.Syms);
  if (R.Dom)
    Out += R.Dom->formatFacts(R, *P.Compiled);
  return Out;
}

struct DomainCell {
  double Ms = 0;
  size_t Entries = 0;
};

struct RowOut {
  std::string Name;
  std::vector<DomainCell> Cells; ///< one per registered domain
};

} // namespace

int main(int argc, char **argv) {
  double MinTotalMs = argc > 1 ? std::atof(argv[1]) : 400.0;

  const std::vector<const Domain *> &Domains = registeredDomains();
  std::printf("Ablation A7: abstract-domain cost on the shared engine\n");
  for (const Domain *D : Domains)
    std::printf("  %-6s %s\n", std::string(D->name()).c_str(),
                std::string(D->description()).c_str());
  std::printf("\n");

  std::vector<std::string> Header = {"Benchmark"};
  for (const Domain *D : Domains)
    Header.push_back(std::string(D->name()) + "(ms)");
  for (size_t I = 1; I != Domains.size(); ++I)
    Header.push_back(std::string(Domains[I]->name()) + "/" +
                     std::string(Domains[0]->name()));
  Header.push_back("entries m/p/d");
  TextTable T(Header);

  std::vector<RowOut> Rows;
  int Violations = 0;
  std::vector<double> LogSum(Domains.size(), 0.0);

  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    PreparedBenchmark P = prepare(B);
    RowOut Row;
    Row.Name = std::string(B.Name);

    std::vector<std::string> Reports;
    for (const Domain *D : Domains) {
      AnalyzerOptions O1;
      O1.DomainName = std::string(D->name());

      AnalysisSession A1(*P.Compiled, O1);
      Result<AnalysisResult> R1 = A1.analyze(B.EntrySpec);
      if (!R1) {
        std::fprintf(stderr, "%s/%s: analysis error\n", Row.Name.c_str(),
                     std::string(D->name()).c_str());
        return 1;
      }
      Reports.push_back(reportOf(*R1, P));

      DomainCell Cell;
      Cell.Entries = R1->Items.size();
      Cell.Ms = measureMs(
          [&] {
            AnalysisSession A(*P.Compiled, O1);
            (void)A.analyze(B.EntrySpec);
          },
          MinTotalMs / static_cast<double>(Domains.size()));
      Row.Cells.push_back(Cell);
    }

    // Gate: the default domain selected by name answers exactly what a
    // default-options session answers (the pre-refactor output).
    {
      AnalysisSession APlain(*P.Compiled, AnalyzerOptions{});
      Result<AnalysisResult> RPlain = APlain.analyze(B.EntrySpec);
      if (!RPlain || Reports[0] != reportOf(*RPlain, P)) {
        std::fprintf(stderr, "%s: DEFAULT-DOMAIN DIVERGENCE from plain "
                             "options\n",
                     Row.Name.c_str());
        ++Violations;
      }
    }

    // Gate: det's pattern table is the modes table plus facts.
    for (size_t I = 1; I != Domains.size(); ++I) {
      if (Domains[I]->name() != "det")
        continue;
      AnalyzerOptions O;
      O.DomainName = "det";
      AnalysisSession A(*P.Compiled, O);
      Result<AnalysisResult> R = A.analyze(B.EntrySpec);
      AnalysisSession AM(*P.Compiled, AnalyzerOptions{});
      Result<AnalysisResult> RM = AM.analyze(B.EntrySpec);
      if (!R || !RM ||
          formatAnalysis(*R, *P.Syms) != formatAnalysis(*RM, *P.Syms)) {
        std::fprintf(stderr, "%s: DET TABLE DIVERGES from modes table\n",
                     Row.Name.c_str());
        ++Violations;
      }
    }

    std::vector<std::string> Cols = {Row.Name};
    for (const DomainCell &C : Row.Cells)
      Cols.push_back(formatDouble(C.Ms, 3));
    std::string Entries;
    for (size_t I = 1; I != Domains.size(); ++I) {
      double Rel = Row.Cells[0].Ms > 0 ? Row.Cells[I].Ms / Row.Cells[0].Ms
                                       : 0;
      LogSum[I] += std::log(std::max(Rel, 1e-9));
      Cols.push_back(formatDouble(Rel, 2));
    }
    for (size_t I = 0; I != Row.Cells.size(); ++I)
      Entries += (I ? "/" : "") + std::to_string(Row.Cells[I].Entries);
    Cols.push_back(Entries);
    T.addRow(Cols);
    Rows.push_back(std::move(Row));
  }

  std::vector<std::string> Tail = {"geomean"};
  for (size_t I = 0; I != Domains.size(); ++I)
    Tail.push_back("");
  for (size_t I = 1; I != Domains.size(); ++I)
    Tail.push_back(formatDouble(
        Rows.empty() ? 0 : std::exp(LogSum[I] / Rows.size()), 2));
  Tail.push_back("");
  T.addSeparator();
  T.addRow(Tail);
  std::fputs(T.str().c_str(), stdout);
  std::printf("\n%d identity violations across %zu programs x %zu "
              "domains.\n",
              Violations, Rows.size(), Domains.size());

  FILE *J = std::fopen("BENCH_domains.json", "w");
  if (!J) {
    std::fprintf(stderr, "cannot write BENCH_domains.json\n");
    return 1;
  }
  std::fprintf(J, "{\n  \"bench\": \"ablation_domains\",\n");
  std::fprintf(J, "  \"domains\": [");
  for (size_t I = 0; I != Domains.size(); ++I)
    std::fprintf(J, "%s\"%s\"", I ? ", " : "",
                 std::string(Domains[I]->name()).c_str());
  std::fprintf(J, "],\n");
  for (size_t I = 1; I != Domains.size(); ++I)
    std::fprintf(J, "  \"geomean_rel_%s\": %.3f,\n",
                 std::string(Domains[I]->name()).c_str(),
                 Rows.empty() ? 0 : std::exp(LogSum[I] / Rows.size()));
  std::fprintf(J, "  \"identity_violations\": %d,\n", Violations);
  std::fprintf(J, "  \"programs\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const RowOut &R = Rows[I];
    std::fprintf(J, "    {\"name\": \"%s\"", R.Name.c_str());
    for (size_t D = 0; D != Domains.size(); ++D)
      std::fprintf(J, ", \"%s_ms\": %.4f, \"%s_entries\": %zu",
                   std::string(Domains[D]->name()).c_str(), R.Cells[D].Ms,
                   std::string(Domains[D]->name()).c_str(),
                   R.Cells[D].Entries);
    std::fprintf(J, "}%s\n", I + 1 != Rows.size() ? "," : "");
  }
  std::fprintf(J, "  ]\n}\n");
  std::fclose(J);
  std::printf("wrote BENCH_domains.json\n");

  return Violations != 0;
}
