//===- analyzer/Server.h - Concurrent analysis service ----------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis service behind examples/analyze_server: the line-oriented
/// verb protocol (load / entry / batch / edit / domain / modes / dump /
/// stats / export / import) as a reusable library, generalized from one
/// synchronous REPL to N concurrent clients over a shared pool of
/// per-(module fingerprint, abstract domain) stores on a fixed worker
/// pool.
///
/// `load` is link-aware: `load main.pl lib.pl ...` compiles each operand
/// as a separate unit and links them into one program (extra operands are
/// library units, linked ahead of the first, main unit); the slot keys on
/// the *linked* module's fingerprint,
/// which equals the monolithic compile's (relocation-invariant clause
/// hashing), so split and concatenated loads share a store. `export TAG`
/// serializes the current store's replay traces into a server-wide
/// in-memory bundle registry; `import TAG` banks a bundle's
/// still-valid traces into the current store as warm-start hints —
/// across modules, domains permitting (the bundle is module-independent;
/// per-predicate code fingerprints drop stale traces on the way in, and
/// answers stay byte-identical regardless).
///
/// A module compiles once per domain. `load` and `domain` both select a
/// slot through selectStore, which first looks for a slot of the client's
/// domain created from the same unit source texts, in the same order: an
/// index keyed by a hash of the texts finds candidates, and only texts
/// that compare equal in full select one. That slot is selected without
/// parsing, compiling or linking, and its recorded link warnings are
/// re-emitted, so the reply carries the bytes a compile would have
/// produced. A miss compiles, to learn the fingerprint that keys the
/// slots. Slots never share a compiled program: bundle import interns
/// names into a slot's SymbolTable under that slot's writer lock alone,
/// so a table shared by two domains' slots would be written under two
/// locks. The first switch of a module to a new domain therefore compiles
/// it once more; after that, reloads and switches compile nothing
/// (Stats::Compiles). On the `service` script's 1,467-clause corpus (one
/// worker, Release, per-request minimum over 29 rotations) `load` fell
/// from 3.29 to 0.031 ms and `domain det` from 3.62 to 0.029 ms.
///
/// Determinism is inherited, not re-proven: every store answer is
/// byte-identical to a cold analysis of that entry under the current
/// program (analyzer/Store.h), and `edit` commands
/// are touches — the program text never changes — so a query's response
/// depends only on (module, domain, verb, report toggle), never on which
/// other clients ran what in between. That is what makes the concurrency
/// scheme below safe to gate by byte-identity against single-client
/// replay (ServerTest.FourWorkerStreamsMatchSingleClientReplay, the CI
/// server-hammer job):
///
///  - Per-client FIFO: each client's requests run one at a time, in
///    submission order, so a client's response stream is a deterministic
///    function of its own command stream.
///  - Writers serialize per store: a drain or edit takes the store slot's
///    exclusive lock. Queries against *different* (fingerprint, domain)
///    slots proceed concurrently.
///  - Readers ride the response cache: each slot memoizes the exact
///    response bytes of successful entry/batch/optimize requests (keyed
///    by verb, report toggle and spec text), served under a brief cache
///    mutex without touching the store at all — concurrent repeat readers
///    never contend on the slot lock.
///  - One request path: a query that misses the cache takes the slot's
///    writer lock and looks again, and drains only on the second miss; a
///    successful response is cached before the lock is released. So N
///    clients asking the same not-yet-cached question queue on the lock
///    and cost one drain — the first drains, the rest find its answer
///    (counted as Coalesced). `edit` clears the cache under the same
///    lock, so no waiter is answered from before an edit.
///
/// Memory is bounded by LRU-by-bytes eviction over stores: each slot
/// meters its store's heap (interner arenas + table entries + banked
/// journals + per-root projections, AnalysisStore::bytesUsed) after every
/// writer op; when the total crosses Config::MaxStoreBytes, the
/// least-recently-touched idle slots drop their analysis state (sessions,
/// response cache) while keeping the compiled program — a later touch
/// re-warms from a cold store with identical response bytes. Long-lived
/// stores additionally compact their journal banks
/// (AnalysisStore::compactJournals); as no bank holds a trace handle
/// twice, only a store with more than two banks is ever checked.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_SERVER_H
#define AWAM_ANALYZER_SERVER_H

#include "analyzer/Session.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace awam {

class AnalysisServer {
public:
  struct Config {
    /// Driver configuration of every store the server creates (budgets,
    /// depth limit; the initial domain is ignored — the domain is per
    /// client). Each slot's session answers through its store, which
    /// needs the default worklist driver with interning; other driver
    /// settings are unsupported.
    AnalyzerOptions Options;
    /// Worker threads executing requests. 1 serializes everything (the
    /// reference transcript mode); the byte-identity contract holds at
    /// every count.
    int Workers = 1;
    /// LRU-by-bytes cap over the sum of all stores' bytesUsed(); 0 =
    /// unbounded. The cap is a low-water target, not a hard guarantee —
    /// a single store mid-drain can exceed it until the next writer op.
    uint64_t MaxStoreBytes = 0;
    /// Resolves a `load` operand to program source. Return false with
    /// \p Err set to reject. Null = read the operand as a file path.
    /// examples/analyze_server installs a resolver that also understands
    /// bench:<name>.
    std::function<bool(const std::string &Spec, std::string &Source,
                       std::string &Err)>
        LoadSource;
  };

  /// One request's rendered result: Out is the payload (stdout in the
  /// transport), Err the messages/prompt channel (stderr), exactly as the
  /// single-client REPL split them.
  struct Response {
    std::string Out;
    std::string Err;
    bool Quit = false;
  };

  /// Cumulative service counters (reporting; interleaving-dependent, not
  /// part of any determinism contract).
  struct Stats {
    uint64_t Requests = 0;  ///< lines processed
    uint64_t Queries = 0;   ///< entry/batch/optimize requests
    uint64_t Drains = 0;    ///< queries/edits that ran the store
    uint64_t CacheHits = 0; ///< answered from a slot's response cache
    uint64_t Coalesced = 0; ///< waited on the writer lock, then found the
                            ///< answer cached by the request ahead
    uint64_t Compiles = 0;  ///< programs compiled for load/domain (a linked
                            ///< load counts once), failed ones included
    uint64_t Evictions = 0; ///< stores dropped by the byte cap
    uint64_t EvictedBytes = 0;
    uint64_t Rewarms = 0; ///< sessions recreated after an eviction
    uint64_t LiveStores = 0;
    uint64_t LiveBytes = 0;
    uint64_t Bundles = 0;     ///< tags in the summary-bundle registry
    uint64_t BundleBytes = 0; ///< total serialized bundle bytes held
  };

  explicit AnalysisServer(Config C);
  AnalysisServer(const AnalysisServer &) = delete;
  AnalysisServer &operator=(const AnalysisServer &) = delete;
  ~AnalysisServer();

  /// Registers a client (its own cursor, domain, report toggle, FIFO
  /// queue) and returns its id.
  int openClient();

  /// Drops a client's session state. Queued requests still drain; their
  /// callbacks still fire.
  void closeClient(int Client);

  /// Enqueues one command line for \p Client. \p Done fires exactly once,
  /// on a worker thread, when the request completes; a client's callbacks
  /// fire in submission order.
  void submit(int Client, std::string Line,
              std::function<void(const Response &)> Done);

  /// Synchronous convenience: submit + wait. With concurrent clients this
  /// still only serializes the *calling* client.
  Response execute(int Client, std::string_view Line);

  Stats stats() const;

  /// Test hook: exclusive lock on \p Client's current store slot, so a
  /// test can hold the writer lock while racing queries against it
  /// (deterministic one-drain/serialization tests). Returns an unlocked
  /// lock when the client has no current store.
  std::unique_lock<std::shared_mutex> lockCurrentStoreForTest(int Client);

private:
  struct StoreSlot;
  struct ClientState;
  struct QueuedReq;

  void workerLoop();
  void process(ClientState &CS, const std::string &Line, Response &R);
  void doLoad(ClientState &CS, const std::string &Rest, Response &R);
  /// The request path of entry, batch and optimize: answers \p Key from
  /// the current slot's response cache or, on a miss, looks again under
  /// the slot's writer lock and only then runs \p Drain on the slot's
  /// session, caching a successful response before releasing the lock.
  /// Drain errors become "analysis error" responses. On success \p Spec
  /// is what this client's next `edit` re-answers.
  void
  answer(ClientState &CS, const std::string &Key, const std::string &Spec,
         const std::function<Result<std::string>(AnalysisSession &)> &Drain,
         Response &R);
  void doQuery(ClientState &CS, const std::string &Verb,
               const std::string &Rest, Response &R);
  void doEdit(ClientState &CS, const std::string &Rest, Response &R);
  /// `optimize [SPEC]`: analyzes SPEC (default: the client's last
  /// successful spec on this store) and responds with the specializer's
  /// rewrite report plus the annotated listing of the optimized module.
  /// Answered through answer() like entry/batch (key prefix "o:"). Under
  /// a domain specializationDomainError refuses, it answers that error
  /// and runs nothing.
  void doOptimize(ClientState &CS, const std::string &Rest, Response &R);
  void doDump(ClientState &CS, Response &R);
  void doStats(ClientState &CS, Response &R);
  /// `export TAG`: serializes the current store's replay traces into the
  /// server-wide bundle registry under TAG (overwriting a previous TAG).
  void doExport(ClientState &CS, const std::string &Rest, Response &R);
  /// `import TAG`: banks the registered bundle's still-valid traces into
  /// the current store as warm-start hints; stale/unresolved drop counts
  /// go to the message channel.
  void doImport(ClientState &CS, const std::string &Rest, Response &R);
  /// Selects as \p CS's cursor the slot of its domain compiled from the
  /// same unit texts as \p Units, if there is one. Otherwise compiles the
  /// (label, source) \p Units — linking when there is more than one — and
  /// selects (creating if new) the result's (fingerprint, domain) slot.
  /// Either way \p R.Err gets the REPL's loaded/reusing message, after
  /// the link's unresolved-import warnings.
  void selectStore(ClientState &CS,
                   const std::vector<std::pair<std::string, std::string>> &Units,
                   const std::string &Label, Response &R);
  /// Creates \p S's session if it has none: a new slot's, or an evicted
  /// one's, which counts as a re-warm (caller holds the slot lock, or has
  /// not yet published a new slot).
  void ensureSession(StoreSlot &S);
  /// Refreshes \p S's byte meter from its store (caller holds the slot
  /// lock).
  static void meterBytes(StoreSlot &S);
  /// Runs LRU-by-bytes eviction if the live total exceeds the cap.
  /// \p Keep (the slot just touched) is never a victim. Called with no
  /// locks held.
  void maybeEvict(StoreSlot *Keep);

  Config Cfg;

  /// Guards Clients, Slots, Ready and open/close state.
  mutable std::mutex GM;
  std::condition_variable WorkCV;
  bool Stopping = false;
  std::map<int, std::unique_ptr<ClientState>> Clients;
  int NextClient = 0;
  /// Slots live for the server's lifetime — eviction drops a slot's
  /// session, never the slot — so raw StoreSlot pointers held by clients
  /// and request code stay valid without per-use refcounting.
  std::map<std::pair<uint64_t, std::string>, std::unique_ptr<StoreSlot>>
      Slots;
  /// The same slots by a hash of their Units' source texts (one entry per
  /// domain), so that selectStore finds a slot without compiling.
  std::unordered_multimap<uint64_t, StoreSlot *> BySource;
  /// Clients with queued work and no worker on them, in arrival order
  /// (round-robin fairness between clients).
  std::deque<int> Ready;
  std::vector<std::thread> Workers;

  /// Monotone touch clock for LRU ordering.
  std::atomic<uint64_t> TouchClock{0};

  /// Summary-bundle registry (tag -> serialized bundle bytes), shared by
  /// every client and store. Bundles are plain bytes — importing
  /// re-validates against the target store's module, so a tag exported
  /// from one module can warm another.
  mutable std::mutex BundleMu;
  std::map<std::string, std::string> Bundles;

  // Service counters (see Stats).
  std::atomic<uint64_t> NRequests{0}, NQueries{0}, NDrains{0}, NCompiles{0};
  std::atomic<uint64_t> NCacheHits{0}, NCoalesced{0};
  std::atomic<uint64_t> NEvictions{0}, NEvictedBytes{0}, NRewarms{0};
};

} // namespace awam

#endif // AWAM_ANALYZER_SERVER_H
