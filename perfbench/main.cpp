//===- perfbench/main.cpp - Repository benchmark entry point --------------===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
// Usage (normally through run.py, which builds this binary first):
//
//   perfbench --workload table1|ladder|service --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// Runs one workload and prints every metric it reports by name with its
// unit, sample count and median, the operations attempted and failed, the
// correctness flag and the host; the last line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones of the layers the
// workload exercises (run.py checks both against BENCHMARK.json). The
// amount of work is fixed by --seconds alone, never by the host's speed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <sstream>
#include <thread>

using namespace perfbench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table1|ladder|service --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
}

bool parseArgs(int Argc, char **Argv, RunConfig &C) {
  C.Self = Argv[0];
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      C.Seconds = static_cast<int>(std::strtol(V.c_str(), &End, 10));
      if (!End || *End != '\0' || C.Seconds < 1 || C.Seconds > 3600)
        return false;
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return false;
      C.Trace = V == "1";
    } else if (A == "--trace-out") {
      C.TraceOut = V;
    } else {
      return false;
    }
  }
  return HaveWorkload && HaveSeed;
}

std::string fmtNum(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

namespace perfbench {

Tracer &tracer() {
  static Tracer T;
  return T;
}

std::map<std::string, double> Tracer::selfNs(size_t From) const {
  std::lock_guard<std::mutex> L(Mu);
  std::map<std::string, double> Out;
  // Children of each span in [From, end), as intervals.
  std::map<size_t, std::vector<std::pair<uint64_t, uint64_t>>> Kids;
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].Parent >= static_cast<int64_t>(From))
      Kids[static_cast<size_t>(Spans[I].Parent)].push_back(
          {Spans[I].StartNs, Spans[I].EndNs});
  for (size_t I = From; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    double Covered = 0;
    auto It = Kids.find(I);
    if (It != Kids.end()) {
      auto &V = It->second;
      std::sort(V.begin(), V.end());
      uint64_t CurS = 0, CurE = 0;
      bool Open = false;
      for (auto [A, B] : V) {
        if (Open && A <= CurE) {
          CurE = std::max(CurE, B);
          continue;
        }
        if (Open)
          Covered += static_cast<double>(CurE - CurS);
        CurS = A;
        CurE = B;
        Open = true;
      }
      if (Open)
        Covered += static_cast<double>(CurE - CurS);
    }
    Out[S.Name] +=
        std::max(0.0, static_cast<double>(S.EndNs - S.StartNs) - Covered);
  }
  return Out;
}

bool Tracer::dump(const std::string &Path) const {
  std::lock_guard<std::mutex> L(Mu);
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "# index\tname\tstart_ns\tend_ns\tparent\top\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::fprintf(F, "%zu\t%s\t%llu\t%llu\t%lld\t%llu\n", I, S.Name,
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs),
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Op));
  }
  return std::fclose(F) == 0;
}

double uncoveredPct(const Tracer &T, size_t From) {
  const std::vector<SpanRec> &S = T.spans();
  double Root = 0;
  for (size_t I = From; I < S.size(); ++I)
    if (S[I].Parent < 0 && std::strcmp(S[I].Name, "setup") != 0)
      Root += static_cast<double>(S[I].EndNs - S[I].StartNs);
  if (Root <= 0)
    return 0;
  // An operation span's self time is exactly the part no layer covers;
  // root spans that are layer calls themselves (server requests) have
  // none. Set-ups, which run between operations, are left out.
  double Uncovered = 0;
  for (const auto &[Name, Ns] : T.selfNs(From))
    if (std::strncmp(Name.c_str(), "op.", 3) == 0)
      Uncovered += Ns;
  return 100.0 * Uncovered / Root;
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::vector<std::string> tableLines(const std::string &Report) {
  std::vector<std::string> Lines;
  std::istringstream In(Report);
  std::string L;
  while (std::getline(In, L))
    if (L.rfind("iterations:", 0) != 0)
      Lines.push_back(L);
  std::sort(Lines.begin(), Lines.end());
  return Lines;
}

size_t tableDisagreements(const std::string &A, const std::string &B) {
  std::vector<std::string> LA = tableLines(A), LB = tableLines(B);
  std::vector<std::string> OnlyA, OnlyB;
  std::set_difference(LA.begin(), LA.end(), LB.begin(), LB.end(),
                      std::back_inserter(OnlyA));
  std::set_difference(LB.begin(), LB.end(), LA.begin(), LA.end(),
                      std::back_inserter(OnlyB));
  return std::max(OnlyA.size(), OnlyB.size());
}

} // namespace perfbench

int main(int Argc, char **Argv) {
  if (Argc > 1 && std::strcmp(Argv[1], "--probe") == 0)
    return probeMain(Argc, Argv);

  RunConfig C;
  if (!parseArgs(Argc, Argv, C)) {
    usage();
    return 2;
  }
  tracer().Enabled = false; // workloads switch it on for traced rounds

  Record R;
  if (C.Workload == "table1")
    runTable1(C, R);
  else if (C.Workload == "ladder")
    runLadder(C, R);
  else if (C.Workload == "service")
    runService(C, R);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 C.Workload.c_str());
    usage();
    return 2;
  }
  if (!C.Trace)
    R.add("peak_rss_mb", "MB", peakRssMb());

  if (C.Trace && !C.TraceOut.empty() && !tracer().dump(C.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 C.TraceOut.c_str());

  std::printf("host: nproc=%u build=%s compiler=\"%s\" workload=%s seed=%llu "
              "seconds=%d trace=%d\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              __VERSION__, C.Workload.c_str(),
              static_cast<unsigned long long>(C.Seed), C.Seconds,
              C.Trace ? 1 : 0);
  for (const Metric &M : R.Metrics) {
    std::printf("metric %-44s %14.6g %-10s samples=%zu", M.Name.c_str(),
                M.Value, M.Unit.c_str(), M.Samples);
    if (M.Median >= 0)
      std::printf(" median=%.6g", M.Median);
    std::printf("\n");
  }
  std::printf("operations: attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              R.Correct ? "true" : "false");
  for (const std::string &N : R.FailureNotes)
    std::printf("failed: %s\n", N.c_str());

  std::string J = "{\"correct\": ";
  J += R.Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(R.Attempted);
  J += ", \"failed\": " + std::to_string(R.Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    J += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + fmtNum(V) +
         ", \"unit\": \"" + M.Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  return 0;
}
