//===- analyzer/Specialize.h - Analysis facts for the specializer -*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bridge from an AnalysisResult to the compiler's analyzer-neutral
/// SpecializationFacts: per predicate, argument binding facts joined over
/// every table item (calling pattern), the distinct first-argument call
/// shapes, and the determinism class from the det machinery. This is the
/// only translation point — the compiler's Specializer never sees
/// patterns or extension tables — and the one place that says which
/// analyses it accepts, for every front end.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_SPECIALIZE_H
#define AWAM_ANALYZER_SPECIALIZE_H

#include "analyzer/Analyzer.h"
#include "compiler/Specializer.h"

namespace awam {

/// Builds specializer facts from \p R's extension table. Facts are joined
/// across all of a predicate's items, so they hold at *every* call the
/// analysis saw; predicates with no table item stay Analyzed = false and
/// are copied verbatim by the specializer. Failing items still contribute
/// their call shapes (the dispatch runs even when the call then fails).
SpecializationFacts buildSpecializationFacts(const AnalysisResult &R,
                                             const CompiledProgram &Program);

/// The rule on which analyses the specializer takes facts from: results
/// under the "modes" or "det" domain, whose patterns are binding facts.
/// Returns the empty string for those, and otherwise the error a front
/// end reports, starting with \p Verb (its flag or verb).
std::string specializationDomainError(std::string_view DomainName,
                                      std::string_view Verb);

} // namespace awam

#endif // AWAM_ANALYZER_SPECIALIZE_H
