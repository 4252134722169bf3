//===- programs/Benchmarks.h - The PLM benchmark suite ----------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark programs of the paper's Table 1, reconstructed from the
/// classic Warren / PLM benchmark suite [Van Roy 84]: the four symbolic
/// differentiation programs (log10, ops8, times10, divide10), tak,
/// nreverse, qsort, query, zebra, serialise and queens_8. Each program is
/// self-contained (library predicates inlined) and defines main/0 as the
/// analysis and execution entry point.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_PROGRAMS_BENCHMARKS_H
#define AWAM_PROGRAMS_BENCHMARKS_H

#include <span>
#include <string>
#include <string_view>

namespace awam {

/// One benchmark program.
struct BenchmarkProgram {
  std::string_view Name;   ///< e.g. "nreverse"
  std::string_view Source; ///< full Prolog source
  /// Entry specification for the analyzers ("main" for all programs, as in
  /// the paper's whole-program analyses).
  std::string_view EntrySpec;
  /// Whether the concrete machine can run main/0 to success (all of them).
  bool Runnable;
};

/// All benchmarks in the paper's Table 1 order.
std::span<const BenchmarkProgram> benchmarkPrograms();

/// Finds a benchmark by name; nullptr if unknown.
const BenchmarkProgram *findBenchmark(std::string_view Name);

/// Resolves a program operand of the command-line tools to Prolog source:
/// bench:<name> names a benchmark, anything else is read as a file path.
/// On failure returns false with \p Err set to the newline-terminated
/// message ("unknown benchmark 'NAME'" or "cannot open PATH"). The
/// signature is AnalysisServer::Config::LoadSource's.
bool loadProgramSource(const std::string &Spec, std::string &Source,
                       std::string &Err);

} // namespace awam

#endif // AWAM_PROGRAMS_BENCHMARKS_H
