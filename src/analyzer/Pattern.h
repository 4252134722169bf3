//===- analyzer/Pattern.h - Calling and success patterns --------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical abstract descriptions of argument-register tuples: the
/// "calling patterns" and "success patterns" of the paper's extension-table
/// control scheme (Sections 2.2 and 5).
///
/// A Pattern is a term DAG cut at the paper's term-depth limit (k = 4 by
/// default). Node ids are assigned in first-visit order from the roots, so
/// structural equality of two Patterns is equality up to renaming, and
/// shared nodes represent aliasing (a variable or abstract term reachable
/// from two argument positions).
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_PATTERN_H
#define AWAM_ANALYZER_PATTERN_H

#include "wam/Store.h"

#include <cstdint>
#include <string>
#include <vector>

namespace awam {

/// Node kinds of pattern DAGs.
enum class PatKind : uint8_t {
  VarP,    ///< a free variable
  AnyP,    ///< any
  NVP,     ///< nv
  GroundP, ///< g
  ConstP,  ///< const
  AtomTP,  ///< atom (the set)
  IntTP,   ///< integer (the set)
  ListP,   ///< alpha-list; one child: the element type
  ConP,    ///< a specific atom; Sym is its symbol
  IntP,    ///< a specific integer; Num is its value
  ConsP,   ///< a list cell; two children
  StrP,    ///< a structure; Sym/children
};

/// One pattern node. Child ids live in the owning Pattern's flat
/// ChildStore (a [ChildBegin, ChildBegin+ChildCount) slice), so a node is
/// a small POD and walking a pattern touches two contiguous arrays instead
/// of one heap vector per node.
struct PatNode {
  PatKind K = PatKind::AnyP;
  Symbol Sym = 0;
  int64_t Num = 0;
  int32_t ChildBegin = 0;
  int32_t ChildCount = 0;
};

struct PatternRef;

/// A canonical pattern: nodes in first-visit order plus one root per
/// argument position.
struct Pattern {
  std::vector<PatNode> Nodes;
  /// Flat storage for all nodes' child-id slices.
  std::vector<int32_t> ChildStore;
  std::vector<int32_t> Roots;

  Pattern() = default;
  /// Materializes a copy of a (possibly arena-backed) pattern view.
  explicit Pattern(const PatternRef &R);
  Pattern &operator=(const PatternRef &R);

  /// Id of \p N's \p I-th child.
  int32_t child(const PatNode &N, int32_t I) const {
    return ChildStore[N.ChildBegin + I];
  }
  /// Pointer to \p N's child-id slice (ChildCount entries).
  const int32_t *childrenOf(const PatNode &N) const {
    return ChildStore.data() + N.ChildBegin;
  }

  /// Structural equality. Child slices are compared by value, not by
  /// ChildBegin, so patterns built with different ChildStore layouts (hand
  /// construction vs canonicalization) still compare equal.
  friend bool operator==(const Pattern &A, const Pattern &B);

  /// Stable hash for table lookup.
  size_t hash() const;

  /// Renders like the paper: "(atom, glist)" with aliased nodes shown as
  /// "_S<n>" markers on repeated visits (PatternPrinter::append into a
  /// fresh string).
  std::string str(const SymbolTable &Syms) const;
};

/// Heap bytes held by \p P's three vectors (capacity, not size — what the
/// allocator actually carved out). The memory-accounting unit of the
/// store/server eviction machinery; excludes sizeof(Pattern) itself, which
/// the owning aggregate counts.
inline size_t patternHeapBytes(const Pattern &P) {
  return P.Nodes.capacity() * sizeof(PatNode) +
         P.ChildStore.capacity() * sizeof(int32_t) +
         P.Roots.capacity() * sizeof(int32_t);
}

/// A non-owning view of a pattern: the interner hands these out for its
/// arena-backed storage, and the structural algorithms (equality, hash,
/// instantiate) run on views so Pattern and arena storage share one
/// implementation. A Pattern converts implicitly. Views are transient —
/// interning can reallocate the arena, so never hold one across an
/// intern/lub call; materialize with Pattern(ref) instead.
struct PatternRef {
  const PatNode *Nodes = nullptr;
  size_t NumNodes = 0;
  const int32_t *ChildStore = nullptr;
  const int32_t *Roots = nullptr;
  size_t NumRoots = 0;

  PatternRef() = default;
  PatternRef(const Pattern &P)
      : Nodes(P.Nodes.data()), NumNodes(P.Nodes.size()),
        ChildStore(P.ChildStore.data()), Roots(P.Roots.data()),
        NumRoots(P.Roots.size()) {}
  PatternRef(const PatNode *Nodes, size_t NumNodes,
             const int32_t *ChildStore, const int32_t *Roots,
             size_t NumRoots)
      : Nodes(Nodes), NumNodes(NumNodes), ChildStore(ChildStore),
        Roots(Roots), NumRoots(NumRoots) {}

  /// Id of \p N's \p I-th child.
  int32_t child(const PatNode &N, int32_t I) const {
    return ChildStore[N.ChildBegin + I];
  }

  /// Structural equality with the same layout-independent semantics as
  /// Pattern's operator==.
  friend bool operator==(const PatternRef &A, const PatternRef &B) {
    if (A.NumNodes != B.NumNodes || A.NumRoots != B.NumRoots)
      return false;
    for (size_t I = 0; I != A.NumRoots; ++I)
      if (A.Roots[I] != B.Roots[I])
        return false;
    for (size_t I = 0; I != A.NumNodes; ++I) {
      const PatNode &NA = A.Nodes[I], &NB = B.Nodes[I];
      if (NA.K != NB.K || NA.Sym != NB.Sym || NA.Num != NB.Num ||
          NA.ChildCount != NB.ChildCount)
        return false;
      for (int32_t C = 0; C != NA.ChildCount; ++C)
        if (A.ChildStore[NA.ChildBegin + C] !=
            B.ChildStore[NB.ChildBegin + C])
          return false;
    }
    return true;
  }

  /// Same hash as Pattern::hash on an equal pattern.
  size_t hash() const;
};

inline bool operator==(const Pattern &A, const Pattern &B) {
  return PatternRef(A) == PatternRef(B);
}

/// Number of ChildStore slots a view spans (its slices start at offset 0).
inline size_t childSlotsOf(const PatternRef &R) {
  size_t N = 0;
  for (size_t I = 0; I != R.NumNodes; ++I) {
    size_t End = static_cast<size_t>(R.Nodes[I].ChildBegin) +
                 static_cast<size_t>(R.Nodes[I].ChildCount);
    if (End > N)
      N = End;
  }
  return N;
}

inline Pattern::Pattern(const PatternRef &R)
    : Nodes(R.Nodes, R.Nodes + R.NumNodes),
      ChildStore(R.ChildStore, R.ChildStore + childSlotsOf(R)),
      Roots(R.Roots, R.Roots + R.NumRoots) {}

inline Pattern &Pattern::operator=(const PatternRef &R) {
  Nodes.assign(R.Nodes, R.Nodes + R.NumNodes);
  ChildStore.assign(R.ChildStore, R.ChildStore + childSlotsOf(R));
  Roots.assign(R.Roots, R.Roots + R.NumRoots);
  return *this;
}

/// The one pattern printer: every report table, Pattern::str and the
/// domains' presentation hooks append pattern text through it. It writes
/// straight into the caller's buffer and keeps its per-node scratch
/// (reference counts, visit marks) between calls, so a report printed
/// with one printer allocates only as its largest pattern grows.
///
/// A node reached more than once (aliasing; specific constants excepted)
/// prints as "_S<id>=" followed by its text on the first visit and as
/// "_S<id>" on later ones. An alpha-list prints as "<elem>list" when its
/// element is a leaf whose text has no '=', else as "(<elem>)list"; a
/// list cell spine prints as "[a,b|T]".
class PatternPrinter {
public:
  /// Appends the whole tuple, "(a1, ..., an)".
  void append(std::string &Out, const PatternRef &P,
              const SymbolTable &Syms);

  /// Appends argument \p Arg alone, without parentheses: the text of the
  /// one-root pattern over all of \p P's nodes whose root is P's root
  /// \p Arg (the mode report's per-argument columns).
  void appendArg(std::string &Out, const PatternRef &P, size_t Arg,
                 const SymbolTable &Syms);

private:
  /// Counts the child references of every node and clears the visit
  /// marks; callers add their roots.
  void countChildren(const PatternRef &P);
  void print(std::string &Out, const PatternRef &P, int32_t Id,
             const SymbolTable &Syms);

  std::vector<int32_t> RefCount;
  std::vector<uint8_t> Visited;
};

/// Default term-depth restriction (the paper and Taylor's analyzer use 4).
inline constexpr int kDefaultDepthLimit = 4;

/// Abstracts the cells \p Args (argument registers) into a canonical
/// Pattern, applying the term-depth cut at \p DepthLimit.
///
/// With \p WidenConstants set, specific constants are widened to their
/// types (a -> atom, 3 -> integer; '[]' is kept, it carries list
/// information). The paper applies this widening when abstracting a call
/// — its example call pattern for p(a, ...) is p(atom, ...) — which keeps
/// the number of calling patterns per predicate small; success patterns
/// keep specific constants.
Pattern canonicalize(const Store &St, const std::vector<Cell> &Args,
                     int DepthLimit = kDefaultDepthLimit,
                     bool WidenConstants = false);

/// Allocation-poolable variant of canonicalize: writes the result into
/// \p Out, reusing its node slots (and ChildStore capacity) from a
/// previous call. The fixpoint loop canonicalizes on every call and every
/// clause success, so reusing one scratch Pattern removes the dominant
/// allocation on that path.
void canonicalizeInto(const Store &St, const std::vector<Cell> &Args,
                      Pattern &Out, int DepthLimit = kDefaultDepthLimit,
                      bool WidenConstants = false);

/// Reusable canonicalization scratch: owns the visitor's working vectors
/// (sharing table, cycle stack, child staging), so a loop holding one
/// context canonicalizes with zero steady-state allocation. The free
/// canonicalize/canonicalizeInto functions build a fresh context per call.
class CanonicalizeContext {
public:
  void canonicalizeInto(const Store &St, const std::vector<Cell> &Args,
                        Pattern &Out, int DepthLimit = kDefaultDepthLimit,
                        bool WidenConstants = false);

private:
  std::vector<std::pair<int64_t, int32_t>> Seen;
  std::vector<int64_t> InProgress;
  std::vector<int32_t> ChildTmp;
};

/// Builds fresh cells denoting \p P in \p St; returns one root address per
/// argument position. Shared nodes become shared cells (aliasing).
std::vector<int64_t> instantiate(Store &St, const PatternRef &P);

/// Pooled variant of instantiate: \p CellOf is scratch (resized and reused
/// across calls), \p Roots receives one root address per argument position.
void instantiate(Store &St, const PatternRef &P,
                 std::vector<int64_t> &CellOf, std::vector<int64_t> &Roots);

/// Least upper bound of two patterns with the same arity, computed by
/// instantiating both into a scratch store, lubbing cell-wise and
/// re-canonicalizing.
Pattern lubPatterns(const Pattern &A, const Pattern &B,
                    int DepthLimit = kDefaultDepthLimit);

/// Pooled variant: \p Scratch is reset and reused as the working store, so
/// repeated lubs do not construct (and re-grow) a fresh heap per call.
Pattern lubPatterns(const Pattern &A, const Pattern &B, int DepthLimit,
                    Store &Scratch);

/// Partial order: A is at or below B (gamma(A) subset of gamma(B)),
/// decided as lub(A, B) == B.
bool patternLeq(const Pattern &A, const Pattern &B,
                int DepthLimit = kDefaultDepthLimit);

} // namespace awam

#endif // AWAM_ANALYZER_PATTERN_H
