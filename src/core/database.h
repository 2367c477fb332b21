// MultiModelDatabase: the serving core a downstream application talks
// to — it owns the shared dictionary, registered relations (from CSV
// or tuples) and XML documents (parsed and indexed at registration),
// and evaluates textual multi-model queries (ParseQuery's grammar,
// core/query.h) through a Session:
//
//   Session session = db.OpenSession();
//   QueryOptions opts;
//   opts.max_rows = 100000;
//   opts.deadline_micros = 50000;
//   auto result = session.Query("Q(*) := R, invoices:invoice/orderID",
//                               opts);
//
// Session is the only query surface: a one-shot query is
// db.OpenSession().Query(text, options) (likewise Prepare and Explain).
//
// The registry is one immutable snapshot: the version of every relation
// and document plus shared_ptr pins on their storage. A writer copies
// it, edits the copy and publishes the copy in its place, so a Session
// holds one pointer and every query through it sees exactly that
// snapshot, however many updates land meanwhile (the old storage stays
// alive while any session or cached plan pins it). Readers never block
// writers and never see a half-applied update. Queries on one session
// are safe to issue from multiple threads.
//
// The database is also a prepared-statement engine: Session::Query
// resolves the text to a cached XJoinPlan (key: canonical query text +
// options fingerprint) and replays it with ExecutePlan, so repeated
// query shapes skip order selection and all trie builds. A cached plan
// is a hit only when its source versions match the session's snapshot;
// anything else is a miss that prepares afresh. Every writer bumps the
// version, carries or drops the name's tries, and then drops the cached
// plans that read the name. Relation tries and plans live in two LRU
// caches of one kind (LruCache): tries charged by bytes, plans by
// count. Twig paths are never materialized, so documents own no cached
// trie.
// Execution runs on the shared morsel-driven Executor pool, so N
// in-flight queries share cores instead of each spawning threads.
#ifndef XJOIN_CORE_DATABASE_H_
#define XJOIN_CORE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/budget.h"
#include "common/cancel.h"
#include "common/dictionary.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "core/tenant.h"
#include "core/baseline.h"
#include "core/plan.h"
#include "core/query.h"
#include "core/xjoin.h"
#include "relational/csv.h"
#include "relational/relation.h"
#include "xml/document.h"
#include "xml/node_index.h"

namespace xjoin {

class MultiModelDatabase;

/// Which engine evaluates a query.
enum class Engine {
  kXJoin,     ///< worst-case optimal (Algorithm 1)
  kBaseline,  ///< per-model evaluation + combine (Figure 3 baseline)
};

/// The one options struct for every Session entry point: engine choice,
/// the XJoin plan settings, per-query admission budgets, and the
/// caller's cancel token, tenant and counters.
struct QueryOptions {
  /// Which engine evaluates the query. The budgets below apply to both;
  /// the XJoin engine enforces them mid-flight (it aborts expansion the
  /// moment a ceiling is crossed), the baseline engine post-hoc (each
  /// per-model stage completes, then the combined result is checked).
  Engine engine = Engine::kXJoin;
  /// XJoin plan settings, the plan-cache fingerprint. Ignored by the
  /// baseline engine. The engine's per-call services (EngineServices)
  /// are the database's: it builds them from the fields below and its
  /// trie caches.
  PlanSettings xjoin;
  /// Admission budgets; 0 = unlimited. max_rows / max_bytes meter rows
  /// materialized at ANY stage — XJoin's expansion output counts even
  /// though validation may later discard most of it (they are resource
  /// guards, not a LIMIT clause). deadline_micros is relative to query
  /// start, checked at admission and sampled as work progresses. On
  /// violation the query returns Status kResourceExhausted /
  /// kDeadlineExceeded and partial results are discarded — a budgeted
  /// query either completes in full or returns no rows.
  int64_t max_rows = 0;
  int64_t max_bytes = 0;
  int64_t deadline_micros = 0;
  /// Optional caller-owned cancellation token (nullable), the only way
  /// to cancel a query. Another thread calling Cancel() on it makes
  /// this query fail with a typed kCancelled within one budget-check
  /// interval per shard, discarding partial rows. To cancel a group of
  /// calls (a session's, a statement's), pass the same token in each
  /// call's options. Never part of the plan-cache fingerprint.
  const CancellationToken* cancel = nullptr;
  /// Tenant pool this query is admitted through (empty = no admission
  /// control). Must name a pool created with CreateTenantPool;
  /// otherwise the query fails NotFound. A saturated pool queues the
  /// query (bounded FIFO, up to the pool's queue deadline) and then
  /// rejects it with a typed kResourceExhausted carrying queue-depth /
  /// retry context. Never part of the plan-cache fingerprint.
  std::string tenant;
  /// Nullable counters: the engine's "gj.*", "xjoin.*", "validate.*"
  /// and "plan.*" plus the database's "db.*". The only counters a query
  /// records into.
  Metrics* metrics = nullptr;
};

/// A prepared statement: a pinned, immutable execution plan plus the
/// parsed query embedded in it. Obtained from Session::Prepare and
/// replayed with Session::Execute. The plan pins its snapshot storage
/// and tries via shared_ptr, so it stays executable — against the data
/// it was prepared on — even after updates replace the registry entries
/// or the caches evict.
struct PreparedQuery {
  std::shared_ptr<const XJoinPlan> plan;

  /// The parsed query (relations + twigs + output attributes).
  const MultiModelQuery& query() const { return plan->query; }
};

/// A consistent read snapshot of the database. Cheap to open (copies
/// one pointer to the current registry snapshot), cheap to destroy
/// (drops that pointer). Movable, not copyable; safe to query from multiple
/// threads concurrently. The database must outlive its sessions.
class Session {
 public:
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses, plans (through the plan cache when the cached plan matches
  /// this snapshot), and evaluates the query.
  Result<Relation> Query(const std::string& text,
                         const QueryOptions& options = {}) const;

  /// Prepares a reusable statement against this snapshot.
  Result<PreparedQuery> Prepare(const std::string& text,
                                const QueryOptions& options = {}) const;

  /// Replays a prepared statement. `prepared` may come from another
  /// session; it executes against the snapshot it was prepared on.
  Result<Relation> Execute(const PreparedQuery& prepared,
                           const QueryOptions& options = {}) const;

  /// Renders the (cached) execution plan for the query as text.
  Result<std::string> Explain(const std::string& text,
                              const QueryOptions& options = {}) const;

  /// Snapshot reads, as of OpenSession; NotFound for unknown names.
  /// The storage stays valid for the session's lifetime (the snapshot
  /// pins it), whatever updates land meanwhile.
  Result<const Relation*> relation(const std::string& name) const;
  Result<const NodeIndex*> document_index(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> RelationNames() const;
  std::vector<std::string> DocumentNames() const;
  /// Monotonic versions, bumped by every update of the name; part of
  /// the trie- and plan-cache keys.
  Result<uint64_t> relation_version(const std::string& name) const;
  Result<uint64_t> document_version(const std::string& name) const;

 private:
  friend class MultiModelDatabase;

  Session(const MultiModelDatabase* db,
          std::shared_ptr<const internal::DatabaseSnapshot> snap)
      : db_(db), snap_(std::move(snap)) {}

  const MultiModelDatabase* db_;
  std::shared_ptr<const internal::DatabaseSnapshot> snap_;
};

/// One atomically consistent reading of every cache counter, taken
/// under the cache locks in one call, so two counters never straddle
/// an intervening query. Trie and plan sections are each internally
/// consistent.
struct CacheStats {
  // Trie cache (relation tries, shared LRU).
  size_t trie_entries = 0;
  size_t trie_bytes = 0;
  size_t trie_budget = 0;
  int64_t trie_hits = 0;
  int64_t trie_misses = 0;
  int64_t trie_evictions = 0;
  /// Cached tries ApplyRelationDelta carried to the new version: each
  /// is rebuilt over the new relation and re-keyed, so it stays cached.
  int64_t trie_patches = 0;
  /// Patched tries given fresh level arrays. Every patch is a rebuild,
  /// so this is trie_patches; kept for readers of the field.
  int64_t trie_compactions = 0;
  // Plan cache.
  size_t plan_entries = 0;
  size_t plan_capacity = 0;
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
  int64_t plan_invalidations = 0;
  int64_t plan_evictions = 0;
  /// Always 0: a plan whose sources changed is a miss, never re-pinned.
  /// Kept for readers of the field.
  int64_t plan_rebinds = 0;
  // Admission (all queries; tenant-pool and pool-less combined —
  // removed pools' history is retained).
  int64_t admission_admitted = 0;   ///< queries that got to run
  int64_t admission_queued = 0;     ///< waited in a tenant pool's queue
  int64_t admission_rejected = 0;   ///< queue-full / queue-deadline
  int64_t admission_cancelled = 0;  ///< finished with kCancelled
};

/// A single-batch logical update to a registered relation, applied by
/// MultiModelDatabase::ApplyRelationDelta. Tuples are in the relation's
/// schema order; deletes apply before inserts (so a tuple in both lists
/// ends up present), deleting an absent tuple and inserting a present
/// one are no-ops, and replaying the same batch is idempotent.
struct RelationDelta {
  std::vector<Tuple> inserts;
  std::vector<Tuple> deletes;
};

/// The serving core. Registration/update calls are serialized against
/// each other by an internal writer lock; queries run through sessions
/// (OpenSession), concurrently with each other and with writers.
class MultiModelDatabase {
 public:
  MultiModelDatabase() = default;

  /// The shared dictionary (useful for decoding result codes).
  /// Thread-safe: Intern/Decode synchronize internally.
  const Dictionary& dictionary() const { return dict_; }
  Dictionary* mutable_dictionary() { return &dict_; }

  /// Opens a consistent read snapshot: every relation and document at
  /// its current version, pinned so concurrent updates cannot free the
  /// storage under the session's queries.
  Session OpenSession() const;

  /// Registers a relation parsed from CSV text.
  Status RegisterRelationCsv(const std::string& name, std::string_view csv,
                             const CsvOptions& options = {});

  /// Registers an already-built relation (its codes must come from this
  /// database's dictionary).
  Status RegisterRelation(const std::string& name, Relation relation);

  /// Replaces an already-registered relation (NotFound otherwise),
  /// copy-on-swap: the new contents are published under the writer
  /// lock, the version is bumped, and the relation's cached tries and
  /// dependent cached plans are dropped. Sessions opened before the
  /// update keep reading the old storage (their pins keep it alive);
  /// sessions opened after see the new contents.
  Status UpdateRelation(const std::string& name, Relation relation);

  /// The incremental-write path: applies a batch of tuple inserts and
  /// deletes to an already-registered relation (NotFound otherwise).
  /// The relation storage is copy-on-swapped (set semantics — see
  /// RelationDelta) and the version bumped as with UpdateRelation, but
  /// instead of being dropped, every cached trie over the relation is
  /// rebuilt over the new contents before the new version is published
  /// and re-keyed under it, so the next query finds it cached. After
  /// publishing, the cached plans that read the relation are dropped,
  /// as UpdateRelation does; the next query re-prepares through the
  /// rebuilt tries. A call that fails publishes nothing and drops
  /// nothing. Sessions opened before the call keep their snapshot —
  /// the old storage and trie objects stay pinned and are never
  /// mutated.
  Status ApplyRelationDelta(const std::string& name,
                            const RelationDelta& delta);

  /// Parses and registers an XML document under `name`.
  Status RegisterDocumentXml(const std::string& name, std::string_view xml,
                             ValuePolicy policy = ValuePolicy::kTextOrNodeId);

  /// Replaces an already-registered document (NotFound otherwise),
  /// mirroring UpdateRelation's copy-on-swap contract.
  Status UpdateDocumentXml(const std::string& name, std::string_view xml,
                           ValuePolicy policy = ValuePolicy::kTextOrNodeId);

  /// Registers a tenant admission pool (AlreadyExists if the name is
  /// taken). Queries opt in with QueryOptions::tenant; see TenantPool
  /// for the admission state machine.
  Status CreateTenantPool(const std::string& name,
                          const TenantPoolOptions& options = {});

  /// Unregisters a pool (NotFound otherwise). In-flight queries
  /// admitted through it finish normally (the pool object is shared);
  /// its admission history folds into cache_stats(). New queries naming
  /// it fail NotFound.
  Status RemoveTenantPool(const std::string& name);

  /// Point-in-time admission counters for one pool; NotFound if absent.
  Result<TenantPoolStats> tenant_pool_stats(const std::string& name) const;

  /// Registered pool names, sorted.
  std::vector<std::string> TenantPoolNames() const;

  /// Drops every cached trie. Sessions and prepared statements keep
  /// their pinned tries.
  void ClearTrieCache();

  /// Caps the total ByteSizeEstimate() of cached tries — the exact heap
  /// bytes of their level arrays (8 per key, 4 per child offset), with
  /// no allocation slack, so a budget equal to cache_stats().trie_bytes
  /// holds exactly the cached set.
  /// Least-recently-used entries are evicted on insert once the budget
  /// is exceeded; a trie larger than the whole budget is served
  /// uncached. Default 256 MiB. Setting a smaller budget evicts
  /// immediately.
  void SetTrieCacheBudget(size_t bytes);

  /// Caps the number of cached plans, LRU-evicted on insert (default
  /// 256). This bounds total pinned-trie memory too: every cached plan
  /// pins its tries via shared_ptr, past trie-cache eviction — the trie
  /// byte budget bounds the *cache*, the plan capacity bounds the
  /// *pins*. Setting a smaller capacity evicts immediately; 0 disables
  /// plan caching.
  void SetPlanCacheCapacity(size_t max_plans);

  /// Plan-cache maintenance.
  void ClearPlanCache();

  /// One atomically consistent snapshot of every cache counter.
  CacheStats cache_stats() const;

 private:
  friend class Session;

  /// Trie-cache key: one relation version under one attribute order.
  struct TrieKey {
    std::string relation;
    uint64_t version = 0;
    std::vector<std::string> order;
    bool operator<(const TrieKey& other) const {
      return std::tie(relation, version, order) <
             std::tie(other.relation, other.version, other.order);
    }
  };

  /// Parses `xml` and indexes it as document `name` (outside any lock:
  /// indexing is the expensive part; Dictionary::Intern synchronizes
  /// internally).
  Result<internal::SnapshotDocument> IndexDocumentXml(const std::string& name,
                                                      std::string_view xml,
                                                      ValuePolicy policy);

  /// The current registry snapshot (one pointer copy).
  std::shared_ptr<const internal::DatabaseSnapshot> Current() const;

  /// Makes `next` the current registry snapshot. Callers hold
  /// update_mu_ and built `next` from a copy of current_.
  void Publish(std::shared_ptr<const internal::DatabaseSnapshot> next);

  /// The engine's services for one call: counters from
  /// options.metrics, the given budget (nullable; it carries the cancel
  /// token), and, when `snap` is set, the trie-cache provider over
  /// that snapshot.
  EngineServices Services(
      const QueryOptions& options, BudgetTracker* budget,
      const std::shared_ptr<const internal::DatabaseSnapshot>& snap) const;

  /// The snapshot-aware planning path behind every entry point: a plan
  /// cache hit when the entry's versions match the snapshot's, else a
  /// miss that prepares privately and publishes (replacing the entry)
  /// only when the plan matches the current registry (an old session
  /// builds privately rather than poisoning the cache for new
  /// sessions). A violated `budget` (nullable) aborts before a cold
  /// trie build.
  Result<std::shared_ptr<const XJoinPlan>> PreparePlanSnapshot(
      const std::string& text, const QueryOptions& options,
      BudgetTracker* budget,
      const std::shared_ptr<const internal::DatabaseSnapshot>& snap) const;

  /// The unified execution path behind Session::Query / Execute:
  /// tenant admission, budget construction (limits plus
  /// options.cancel), engine dispatch, typed budget Statuses.
  Result<Relation> RunQuery(
      const std::string& text, const QueryOptions& options,
      const std::shared_ptr<const internal::DatabaseSnapshot>& snap) const;
  Result<Relation> RunPlan(const XJoinPlan& plan,
                           const QueryOptions& options) const;

  /// Resolves QueryOptions::tenant to its pool (nullptr when the field
  /// is empty; NotFound when it names no registered pool).
  Result<std::shared_ptr<TenantPool>> ResolveTenant(
      const std::string& tenant) const;

  /// The TrieProvider XJoin consults for relation tries: cache lookup,
  /// build and insert on miss (cache-miss builds use `num_threads`
  /// workers). Thread-safe against concurrent queries; identity and
  /// versions come from the captured snapshot. A violated `budget`
  /// (nullable) aborts before a cold build.
  TrieProvider CacheTrieProvider(
      std::shared_ptr<const internal::DatabaseSnapshot> snap, Metrics* metrics,
      int num_threads, BudgetTracker* budget) const;

  /// Drops cached plans whose sources include `name`. Every update of a
  /// registered name calls it after publishing the new version.
  void InvalidatePlans(const std::string& name);

  Dictionary dict_;

  // Lock order: update_mu_ -> trie_cache_mu_ -> plan_cache_mu_.
  // snapshot_mu_ and tenant_mu_ are leaves: nothing else is acquired
  // while either is held. Queries never take update_mu_.

  /// Serializes writers (Register*, Update*, ApplyRelationDelta). Each
  /// copies current_, edits the copy and publishes it, and the delta
  /// path also rebuilds the cached tries of the version it replaces, so
  /// two writers must not interleave: a second writer copying the same
  /// snapshot would lose the first one's edit.
  std::mutex update_mu_;

  /// The registry. Only writers replace it (holding update_mu_, then
  /// snapshot_mu_ for the swap); readers copy the pointer under
  /// snapshot_mu_. A replaced snapshot stays alive while any session,
  /// plan or in-flight query holds it.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const internal::DatabaseSnapshot> current_ =
      std::make_shared<const internal::DatabaseSnapshot>();

  /// Relation tries, each charged ByteSizeEstimate() bytes against the
  /// byte budget (default 256 MiB). Const query paths insert, hence
  /// mutable.
  mutable std::mutex trie_cache_mu_;
  mutable LruCache<TrieKey, std::shared_ptr<const RelationTrie>> trie_cache_{
      size_t{256} << 20};
  mutable int64_t trie_cache_hits_ = 0;
  mutable int64_t trie_cache_misses_ = 0;
  mutable int64_t trie_cache_patches_ = 0;

  /// Plans by PlanCacheKey, each charged 1 against the capacity
  /// (default 256 plans).
  mutable std::mutex plan_cache_mu_;
  mutable LruCache<std::string, std::shared_ptr<const XJoinPlan>> plan_cache_{
      256};
  mutable int64_t plan_cache_hits_ = 0;
  mutable int64_t plan_cache_misses_ = 0;
  mutable int64_t plan_cache_invalidations_ = 0;

  /// Tenant admission pools. Pools are shared_ptr so an in-flight query
  /// keeps its pool alive across RemoveTenantPool. `tenant_retired_`
  /// accumulates the monotonic counters of removed pools so the
  /// db-wide admission totals never go backwards.
  mutable std::mutex tenant_mu_;
  std::map<std::string, std::shared_ptr<TenantPool>> tenant_pools_;
  TenantPoolStats tenant_retired_;  // guarded by tenant_mu_
  /// Admission accounting for queries outside any tenant pool, plus
  /// cancellations (which a pool-less query can also hit).
  mutable std::atomic<int64_t> untenanted_admitted_{0};
  mutable std::atomic<int64_t> untenanted_cancelled_{0};
};

}  // namespace xjoin

#endif  // XJOIN_CORE_DATABASE_H_
