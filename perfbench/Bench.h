//===- perfbench/Bench.h - Shared benchmark machinery -----------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads (Table1.cpp, Ladder.cpp, Service.cpp) share:
/// the run configuration, per-item sample sets and their estimators, the
/// in-memory span tracer, and the metric record that main.cpp prints.
///
/// Timing noise on a shared host only ever adds time, so every gated
/// latency is a low quantile (the minimum) of many short samples of one
/// item, aggregated across items; medians and sample counts are printed
/// beside it as diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_PERFBENCH_BENCH_H
#define AWAM_PERFBENCH_BENCH_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 0;
  int Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< span dump path ("" = none)
  std::string Self;     ///< argv[0], re-executed for probes
};

/// Low quantile the gated estimators take of each item's samples: the
/// minimum, which repeated best between runs on a contended 4-vCPU host
/// (the 1st percentile spread slightly more).
constexpr double kLowQ = 0;

/// Nearest-rank quantile of \p V (0 when empty).
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t K = static_cast<size_t>(std::floor(Q * static_cast<double>(V.size())));
  return V[std::min(K, V.size() - 1)];
}

inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-9));
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Samples of one timed item (one program in one domain, one rung, one
/// request kind), in microseconds.
struct Item {
  double Clauses = 0; ///< source clauses the item processes
  std::vector<double> Us;

  double low() const { return quantile(Us, kLowQ); }
  double median() const { return quantile(Us, 0.5); }
};

/// An estimator value with the diagnostics printed beside it.
struct Estimate {
  double Value = 0;
  double Median = 0; ///< same aggregate over the items' medians
  size_t Samples = 0;
};

/// Geometric mean over \p Items of each item's low quantile.
inline Estimate geomeanLow(const std::vector<const Item *> &Items) {
  std::vector<double> Lo, Med;
  Estimate E;
  for (const Item *I : Items) {
    if (I->Us.empty())
      continue;
    Lo.push_back(I->low());
    Med.push_back(I->median());
    E.Samples += I->Us.size();
  }
  E.Value = geomean(Lo);
  E.Median = geomean(Med);
  return E;
}

/// Sum over \p Items of each item's low quantile, divided by their summed
/// clause count.
inline Estimate perClauseLow(const std::vector<const Item *> &Items) {
  double Lo = 0, Med = 0, Clauses = 0;
  Estimate E;
  for (const Item *I : Items) {
    if (I->Us.empty())
      continue;
    Lo += I->low();
    Med += I->median();
    Clauses += I->Clauses;
    E.Samples += I->Us.size();
  }
  if (Clauses > 0) {
    E.Value = Lo / Clauses;
    E.Median = Med / Clauses;
  }
  return E;
}

inline std::vector<const Item *> ptrs(const std::vector<Item> &V) {
  std::vector<const Item *> Out;
  for (const Item &I : V)
    Out.push_back(&I);
  return Out;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One recorded span: a call from the benchmark into a layer, or a whole
/// timed operation (the root of its layer spans).
struct SpanRec {
  const char *Name = "";
  uint64_t StartNs = 0, EndNs = 0;
  int64_t Parent = -1; ///< index of the enclosing span, -1 for roots
  uint64_t Op = 0;     ///< operation id shared by an operation's spans
};

/// In-memory span store. Disabled, begin() returns -1 and end() is a
/// no-op, so the untraced path pays one branch per call site.
class Tracer {
public:
  bool Enabled = false;

  int64_t begin(const char *Name, int64_t Parent, uint64_t Op) {
    if (!Enabled)
      return -1;
    std::lock_guard<std::mutex> L(Mu);
    Spans.push_back({Name, nowNs(), 0, Parent, Op});
    return static_cast<int64_t>(Spans.size()) - 1;
  }
  void end(int64_t Id) {
    if (Id < 0)
      return;
    uint64_t T = nowNs();
    std::lock_guard<std::mutex> L(Mu);
    Spans[static_cast<size_t>(Id)].EndNs = T;
  }
  uint64_t newOp() { return ++LastOp; }

  /// Self time (ns) per span name over spans [From, size()), which must
  /// be closed: each span's duration minus the union of its children's.
  std::map<std::string, double> selfNs(size_t From) const;

  size_t size() const {
    std::lock_guard<std::mutex> L(Mu);
    return Spans.size();
  }
  const std::vector<SpanRec> &spans() const { return Spans; }

  /// Writes every span as one tab-separated line (index, name, start,
  /// end, parent, op). Returns false when the file cannot be written.
  bool dump(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::vector<SpanRec> Spans;
  std::atomic<uint64_t> LastOp{0};
};

Tracer &tracer();

/// RAII span around one layer call (single-threaded callers).
class Span {
public:
  Span(const char *Name, int64_t Parent, uint64_t Op)
      : Id(tracer().begin(Name, Parent, Op)) {}
  ~Span() { tracer().end(Id); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  int64_t id() const { return Id; }

private:
  int64_t Id;
};

/// Share (percent) of root-span time not covered by any child span, over
/// spans [From, size()).
double uncoveredPct(const Tracer &T, size_t From);

//===----------------------------------------------------------------------===//
// Result record
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value = 0;
  double Median = 0; ///< diagnostic; < 0 when not applicable
  size_t Samples = 0;
};

/// Everything one run reports.
struct Record {
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
  std::vector<std::string> FailureNotes;

  void add(const std::string &Name, const std::string &Unit, double Value,
           size_t Samples = 1, double Median = -1) {
    Metrics.push_back({Name, Unit, Value, Median, Samples});
  }
  void add(const std::string &Name, const std::string &Unit,
           const Estimate &E) {
    add(Name, Unit, E.Value, E.Samples, E.Median);
  }
  /// Counts one attempted operation; a failure also clears Correct.
  void op(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    Correct = false;
    if (FailureNotes.size() < 20)
      FailureNotes.push_back(What);
  }
};

/// Per-workload entry points; each fills \p R with every metric.
void runTable1(const RunConfig &C, Record &R);
void runLadder(const RunConfig &C, Record &R);
void runService(const RunConfig &C, Record &R);

/// Child-process entry point for one scale-cliff probe (Probe.cpp).
int probeMain(int Argc, char **Argv);

/// Runs the fixed scale-cliff probe set in child processes and adds
/// ladder.probes_failed and ladder.probe_us_per_clause to \p R
/// (Probe.cpp). Probe time enters no other metric.
void runProbes(const RunConfig &C, Record &R);

/// Peak resident set of this process in MiB.
double peakRssMb();

/// Lines of a formatAnalysis report without its trailing statistics
/// line, sorted: the analyzers' tables compare equal in this form.
std::vector<std::string> tableLines(const std::string &Report);

/// Items in one table but not the other (the larger direction).
size_t tableDisagreements(const std::string &A, const std::string &B);

/// Rounds for a run of \p Seconds at \p PerSecond rounds per second:
/// fixed by the arguments, never by the host's speed.
inline int roundsFor(int Seconds, double PerSecond) {
  return std::max(4, static_cast<int>(std::lround(Seconds * PerSecond)));
}

/// Whether set-up runs before round \p Round of \p Rounds: \p Setups
/// times per run, the first before round 0 and the others spread evenly
/// over the run. setup_s is the minimum over them, so, like an item's
/// minimum, it comes from the quietest stretch of the run rather than
/// from whatever the host was doing at its start.
inline bool setupBefore(int Round, int Rounds, int Setups) {
  for (int J = 0; J != Setups; ++J)
    if (Round == Rounds * J / Setups)
      return true;
  return false;
}

/// The generateCorpus seed the run's \p Seed picks from \p Pool for input
/// number \p Salt. The pools are fixed lists, so the inputs a seed gets do
/// not depend on the code under test.
template <size_t N>
uint64_t pickCorpusSeed(uint64_t Seed, uint64_t Salt,
                        const uint64_t (&Pool)[N]) {
  // splitmix64
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Pool[(Z ^ (Z >> 31)) % N];
}

} // namespace perfbench

#endif // AWAM_PERFBENCH_BENCH_H
