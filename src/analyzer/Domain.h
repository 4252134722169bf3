//===- analyzer/Domain.h - Pluggable abstract domains -----------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract-domain interface: everything the engine (abstract machine,
/// pattern interner, naive / worklist drivers, journal replay, the
/// persistent store) needs from an analysis, factored behind one virtual
/// class so new analyses reuse the whole driver stack.
///
/// A Domain owns:
///
///  * **abstraction** — how argument-register tuples become calling
///    patterns (abstractCall) and success patterns (abstractSuccess);
///  * **the lattice** — lub over interned patterns (lubInto; leq is
///    derived as lub(A, B) == B, which every domain here satisfies
///    because its patterns form a finite join-semilattice) and the
///    normalization of hand-built entry patterns (normalizeEntry);
///  * **transfer of summaries** — how a memoized success pattern is
///    applied back to a call site's argument cells (applySuccess);
///  * **presentation** — formatPattern for the report table and
///    formatFacts for derived per-predicate facts (e.g. determinism).
///
/// The default implementation (name "modes") is the paper's mode/type/
/// aliasing domain: its hook bodies are exactly the code the engine ran
/// before the interface existed, so analyses under the default domain are
/// byte-identical to the pre-refactor analyzer — the contract the CI
/// domain smoke enforces.
///
/// Domains that need per-run bookkeeping beyond the machine's cell store
/// (the Pos domain's groundness-dependency constraints) return a
/// DomainRunState from makeRunState(); the machine marks/rewinds it in
/// lockstep with its trail so domain state backtracks with the analysis.
///
/// All Domain instances are stateless singletons (makeRunState carries the
/// mutable part), so one `const Domain *` is shared freely across the
/// server's worker threads, sessions and stores.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_DOMAIN_H
#define AWAM_ANALYZER_DOMAIN_H

#include "analyzer/Analyzer.h"
#include "analyzer/Pattern.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace awam {

/// Per-machine-run mutable domain state (e.g. the Pos domain's constraint
/// stack). The machine treats it like its trail: mark() at frame setup,
/// rewindTo(mark) whenever the corresponding store state unwinds. The
/// default domain has no run state (makeRunState returns null) and the
/// machine guards every touch with a null check, so the default path pays
/// nothing.
class DomainRunState {
public:
  virtual ~DomainRunState() = default;

  /// Current height of the state (a stack discipline is required).
  virtual size_t mark() const = 0;

  /// Discards everything recorded past \p Mark.
  virtual void rewindTo(size_t Mark) = 0;
};

/// Pooled scratch the interner lends to lubInto / normalizeEntry: one
/// working store, one canonicalization context and the instantiate working
/// vectors, reused across calls so lattice operations stay allocation-free
/// at the fixpoint.
struct LubScratch {
  Store &Scratch;
  CanonicalizeContext &Ctx;
  std::vector<int64_t> &CellOf;
  std::vector<int64_t> &RootsA;
  std::vector<int64_t> &RootsB;
  std::vector<Cell> &CellArgs;
};

struct CompiledProgram;

/// The abstract-domain interface. Every virtual has a default body that is
/// the paper's mode/type/aliasing domain — the concrete "modes" singleton
/// adds nothing — so a new domain overrides only what differs.
class Domain {
public:
  virtual ~Domain() = default;

  /// Registry key ("modes", "pos", "det").
  virtual std::string_view name() const = 0;

  /// One-line description for CLI help and error messages.
  virtual std::string_view description() const = 0;

  // --- Abstraction -----------------------------------------------------

  /// Abstracts the argument registers \p Args of a call into the calling
  /// pattern \p Out. Default: canonicalize with constant widening (the
  /// paper widens specific constants to their types when abstracting a
  /// call, keeping the calling-pattern space per predicate small).
  virtual void abstractCall(const Store &St, const std::vector<Cell> &Args,
                            CanonicalizeContext &Ctx, Pattern &Out,
                            int DepthLimit, DomainRunState *RS) const;

  /// Abstracts the (possibly narrowed) callee argument cells \p Args at a
  /// clause success into the success pattern \p Out. Default: canonicalize
  /// without widening (success patterns keep specific constants).
  virtual void abstractSuccess(const Store &St,
                               const std::vector<Cell> &Args,
                               CanonicalizeContext &Ctx, Pattern &Out,
                               int DepthLimit, DomainRunState *RS) const;

  // --- Transfer --------------------------------------------------------

  /// Applies the memoized success pattern \p Success to the call site's
  /// argument cells \p CallerArgs. Returns false if the application fails
  /// (the call cannot succeed under the summary); partial bindings are the
  /// caller's to unwind, exactly like abstract unification. \p CellOf and
  /// \p Roots are pooled instantiate scratch. Default: instantiate the
  /// pattern and set-unify each root with its argument.
  virtual bool applySuccess(Store &St, const std::vector<Cell> &CallerArgs,
                            const PatternRef &Success,
                            std::vector<int64_t> &CellOf,
                            std::vector<int64_t> &Roots,
                            DomainRunState *RS) const;

  // --- Lattice ---------------------------------------------------------

  /// Least upper bound of \p A and \p B (same arity) into \p Out, in
  /// canonical form ready to intern. Domains with infinite ascending
  /// chains must fold their widening in here — the engine iterates to a
  /// fixpoint of exactly this operation. Default: instantiate both sides
  /// into the scratch store, lub cell-wise, re-canonicalize.
  virtual void lubInto(const PatternRef &A, const PatternRef &B,
                       int DepthLimit, LubScratch &S, Pattern &Out) const;

  /// Normalizes a hand-built entry pattern (makeEntryPattern /
  /// parseEntrySpec) into this domain's canonical encoding. Default:
  /// instantiate and re-canonicalize.
  virtual void normalizeEntry(const Pattern &P, int DepthLimit,
                              LubScratch &S, Pattern &Out) const;

  // --- Run state -------------------------------------------------------

  /// Fresh per-machine-run state, or null if the domain needs none
  /// (default).
  virtual std::unique_ptr<DomainRunState> makeRunState() const;

  // --- Presentation ----------------------------------------------------

  /// Renders a pattern for the report table. Default: Pattern::str — the
  /// byte-identity contract for the default domain.
  virtual std::string formatPattern(const Pattern &P,
                                    const SymbolTable &Syms) const;

  /// Derived per-predicate facts appended after the pattern table (the
  /// determinism domain's det/semidet/nondet listing). Default: empty —
  /// nothing is printed.
  virtual std::string formatFacts(const AnalysisResult &R,
                                  const CompiledProgram &Program) const;

  /// Sample patterns (all of one arity) exercising this domain's lattice,
  /// for the domain-parametric lattice-law tests. Encodings must be
  /// canonical for this domain (ready to intern).
  virtual void samplePatterns(std::vector<Pattern> &Out,
                              SymbolTable &Syms) const;
};

/// The paper's mode/type/aliasing domain — the default. A pure singleton
/// over Domain's default hook bodies.
const Domain &defaultDomain();

/// The Pos-style groundness-dependency domain (analyzer/PosDomain.cpp).
const Domain &posDomain();

/// The determinism / mutual-exclusion domain (analyzer/DetDomain.cpp).
const Domain &detDomain();

/// Looks up a registered domain by name; null if unknown.
const Domain *findDomain(std::string_view Name);

/// Every registered domain, default first (stable order).
const std::vector<const Domain *> &registeredDomains();

/// Comma-separated registered names, for error messages.
std::string registeredDomainNames();

/// Resolves \p Name through the registry; unknown names produce an error
/// listing the registered domains.
Result<const Domain *> resolveDomain(std::string_view Name);

} // namespace awam

#endif // AWAM_ANALYZER_DOMAIN_H
