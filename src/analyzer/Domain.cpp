//===- analyzer/Domain.cpp - Default domain and registry ------------------===//
//
// The Domain base-class hook bodies below are the paper's mode/type/
// aliasing analysis, moved verbatim from the abstract machine and the
// pattern interner: the default domain *is* the pre-refactor engine, which
// is what makes its output byte-identical to the seed analyzer.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Domain.h"

#include "absdom/AbsOps.h"

using namespace awam;

void Domain::abstractCall(const Store &St, const std::vector<Cell> &Args,
                          CanonicalizeContext &Ctx, Pattern &Out,
                          int DepthLimit, DomainRunState *) const {
  // The paper widens specific constants to their types when abstracting a
  // call — p(a, ...) is analyzed as p(atom, ...).
  Ctx.canonicalizeInto(St, Args, Out, DepthLimit, /*WidenConstants=*/true);
}

void Domain::abstractSuccess(const Store &St, const std::vector<Cell> &Args,
                             CanonicalizeContext &Ctx, Pattern &Out,
                             int DepthLimit, DomainRunState *) const {
  // Success patterns keep specific constants.
  Ctx.canonicalizeInto(St, Args, Out, DepthLimit);
}

bool Domain::applySuccess(Store &St, const std::vector<Cell> &CallerArgs,
                          const PatternRef &Success,
                          std::vector<int64_t> &CellOf,
                          std::vector<int64_t> &Roots,
                          DomainRunState *) const {
  // lookupET's return path: instantiate the summary and set-unify each
  // root into the caller's argument cells, stopping at the first empty
  // meet. Partial bindings are the caller's backtracking to undo.
  instantiate(St, Success, CellOf, Roots);
  bool Ok = true;
  for (size_t I = 0; I != Roots.size() && Ok; ++I)
    Ok = absUnify(St, CallerArgs[I], Cell::ref(Roots[I]));
  return Ok;
}

void Domain::lubInto(const PatternRef &A, const PatternRef &B,
                     int DepthLimit, LubScratch &S, Pattern &Out) const {
  // Pooled equivalent of lubPatterns: instantiate both sides into the
  // scratch store, lub cell-wise, re-canonicalize into the pooled result.
  S.Scratch.reset();
  instantiate(S.Scratch, A, S.CellOf, S.RootsA);
  instantiate(S.Scratch, B, S.CellOf, S.RootsB);
  LubContext LCtx(S.Scratch);
  S.CellArgs.clear();
  for (size_t I = 0; I != S.RootsA.size(); ++I)
    S.CellArgs.push_back(Cell::ref(
        LCtx.lub(Cell::ref(S.RootsA[I]), Cell::ref(S.RootsB[I]))));
  S.Ctx.canonicalizeInto(S.Scratch, S.CellArgs, Out, DepthLimit);
}

void Domain::normalizeEntry(const Pattern &P, int DepthLimit, LubScratch &S,
                            Pattern &Out) const {
  // Entry patterns are hand-built (makeEntryPattern / parseEntrySpec):
  // instantiate and re-canonicalize into first-visit-order form.
  S.Scratch.reset();
  instantiate(S.Scratch, P, S.CellOf, S.RootsA);
  S.CellArgs.clear();
  for (int64_t Addr : S.RootsA)
    S.CellArgs.push_back(Cell::ref(Addr));
  S.Ctx.canonicalizeInto(S.Scratch, S.CellArgs, Out, DepthLimit);
}

std::unique_ptr<DomainRunState> Domain::makeRunState() const {
  return nullptr;
}

void Domain::appendPattern(std::string &Out, const PatternRef &P,
                           const SymbolTable &Syms,
                           PatternPrinter &Pr) const {
  Pr.append(Out, P, Syms);
}

std::string Domain::formatPattern(const PatternRef &P,
                                  const SymbolTable &Syms) const {
  std::string Out;
  PatternPrinter Pr;
  appendPattern(Out, P, Syms, Pr);
  return Out;
}

void Domain::appendFacts(std::string &, const AnalysisResult &,
                         const CompiledProgram &, PatternPrinter &) const {}

std::string Domain::formatFacts(const AnalysisResult &R,
                                const CompiledProgram &Program) const {
  std::string Out;
  PatternPrinter Pr;
  appendFacts(Out, R, Program, Pr);
  return Out;
}

void Domain::samplePatterns(std::vector<Pattern> &Out,
                            SymbolTable &Syms) const {
  // Arity-3 tuples over the simple kinds plus specific constants and
  // typed lists: a spread of lattice heights and incomparable pairs.
  // Hand-built root-order patterns are already in canonical first-visit
  // order (no sharing, one node per leaf root, list element after its
  // list node) — the same layout canonicalize would emit.
  using K = PatKind;
  const K Kinds[] = {K::VarP,   K::AnyP,   K::NVP,  K::GroundP,
                     K::ConstP, K::AtomTP, K::IntTP};
  for (K A : Kinds)
    for (K B : Kinds)
      Out.push_back(makeEntryPattern({A, B, K::AnyP}));
  Out.push_back(makeEntryPattern({K::ListP, K::GroundP, K::VarP}));
  Out.push_back(makeEntryPattern({K::GroundP, K::ListP, K::ListP}));
  // Specific constants: an atom, nil, and an integer.
  Symbol Foo = Syms.intern("foo");
  Symbol Nil = Syms.intern("[]");
  auto Leaf = [](PatKind LK, Symbol Sym, int64_t Num) {
    PatNode N;
    N.K = LK;
    N.Sym = Sym;
    N.Num = Num;
    return N;
  };
  Pattern P1;
  P1.Nodes = {Leaf(K::ConP, Foo, 0), Leaf(K::AnyP, 0, 0),
              Leaf(K::IntP, 0, 7)};
  P1.Roots = {0, 1, 2};
  Out.push_back(std::move(P1));
  Pattern P2;
  P2.Nodes = {Leaf(K::ConP, Nil, 0), Leaf(K::IntTP, 0, 0),
              Leaf(K::IntP, 0, 7)};
  P2.Roots = {0, 1, 2};
  Out.push_back(std::move(P2));
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

namespace {

/// The paper's domain: every hook is the Domain default.
class ModesDomain final : public Domain {
public:
  std::string_view name() const override { return "modes"; }
  std::string_view description() const override {
    return "the paper's mode/type/aliasing domain (default)";
  }
};

} // namespace

const Domain &awam::defaultDomain() {
  static const ModesDomain D;
  return D;
}

const std::vector<const Domain *> &awam::registeredDomains() {
  static const std::vector<const Domain *> All = {&defaultDomain(),
                                                  &posDomain(),
                                                  &detDomain()};
  return All;
}

const Domain *awam::findDomain(std::string_view Name) {
  for (const Domain *D : registeredDomains())
    if (D->name() == Name)
      return D;
  return nullptr;
}

std::string awam::registeredDomainNames() {
  std::string Out;
  for (const Domain *D : registeredDomains()) {
    if (!Out.empty())
      Out += ", ";
    Out += D->name();
  }
  return Out;
}

Result<const Domain *> awam::resolveDomain(std::string_view Name) {
  if (const Domain *D = findDomain(Name))
    return D;
  return makeError("unknown abstract domain '" + std::string(Name) +
                   "' (registered: " + registeredDomainNames() + ")");
}
