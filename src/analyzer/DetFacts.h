//===- analyzer/DetFacts.h - Determinism fact computation -------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism machinery behind the "det" domain, exposed as a
/// reusable computation: per table item (predicate x calling pattern), a
/// determinism class plus the set of clauses the first-argument test
/// admits. The det domain's appendFacts renders these; the specializer
/// adapter (analyzer/Specialize.h) consumes them to license rewrites.
///
/// Classes over-approximate (see DetDomain.cpp's header comment): "det"
/// and "semidet" are real guarantees, "nondet" means no exclusion was
/// proved.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_DETFACTS_H
#define AWAM_ANALYZER_DETFACTS_H

#include "analyzer/Analyzer.h"

#include <vector>

namespace awam {

/// Determinism classification of one table item. Values order from best
/// to least knowledge so the body fixpoint can take maxima.
enum class DetItemClass : uint8_t {
  Det = 0,     ///< exactly one solution, success guaranteed
  Semidet = 1, ///< at most one solution, may fail
  Nondet = 2,  ///< choice points can survive
  Fails = 3,   ///< the table proves the call never succeeds
};

/// Lower-case name as the det domain prints it ("det", "semidet", ...).
const char *detItemClassName(DetItemClass C);

/// Determinism facts of one table item.
struct DetItemFacts {
  DetItemClass Class = DetItemClass::Det;
  /// Indices (into the predicate's Clauses vector) of the clauses the
  /// item's first-argument shape can reach. When the shape test ruled out
  /// every clause but the item succeeded, this falls back to all clauses.
  std::vector<size_t> Matching;
};

/// Computes determinism facts for every item of \p R, parallel to
/// R.Items. Returns an empty vector when \p Program has no module or the
/// table is empty.
std::vector<DetItemFacts> computeDetFacts(const AnalysisResult &R,
                                          const CompiledProgram &Program);

} // namespace awam

#endif // AWAM_ANALYZER_DETFACTS_H
