#include "core/database.h"

#include <algorithm>
#include <utility>

#include "common/fault.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "xml/parser.h"

namespace xjoin {

namespace {

// Plan-cache key: canonical query spelling + settings fingerprint, so
// "Q(*) := R,S" and "Q(*):=R, S" share a plan while num_threads or
// num_shards variants get distinct ones.
std::string PlanCacheKey(const std::string& text,
                         const PlanSettings& settings) {
  return CanonicalizeQueryText(text) + "\x1F" +
         HashToHex(PlanFingerprint(settings));
}

// Whether every source the plan read exists in the snapshot at the
// same version (the hit condition for a session, and the publish
// condition against the current registry).
bool PlanMatchesSnapshot(const XJoinPlan& plan,
                         const internal::DatabaseSnapshot& snap) {
  for (const auto& source : plan.sources) {
    if (source.is_document) {
      auto it = snap.documents.find(source.name);
      if (it == snap.documents.end() || it->second.version != source.version) {
        return false;
      }
    } else {
      auto it = snap.relations.find(source.name);
      if (it == snap.relations.end() || it->second.version != source.version) {
        return false;
      }
    }
  }
  return true;
}

// Records the snapshot versions and storage pins of a freshly prepared
// plan's inputs.
void AttachSnapshotSources(XJoinPlan* plan,
                           const internal::DatabaseSnapshot& snap) {
  for (const auto& nr : plan->query.relations) {
    auto it = snap.relations.find(nr.name);
    if (it == snap.relations.end()) continue;  // defensive; parse bound it
    plan->sources.push_back({nr.name, /*is_document=*/false,
                             it->second.version});
    // Pin the snapshot storage the plan's raw pointers reference, so
    // the plan outlives any later copy-on-swap of the registry entry.
    plan->pins.push_back(it->second.relation);
  }
  for (const auto& ti : plan->query.twigs) {
    auto it = snap.documents.find(ti.document);
    if (it == snap.documents.end()) continue;  // defensive; parse bound it
    plan->sources.push_back({ti.document, /*is_document=*/true,
                             it->second.version});
    plan->pins.push_back(it->second.index);
    plan->pins.push_back(it->second.doc);
  }
}

// Three-way comparison of row `r` of `rel` with `t` (schema order).
int CompareRow(const Relation& rel, size_t r, const Tuple& t) {
  for (size_t c = 0; c < t.size(); ++c) {
    const int64_t v = rel.at(r, c);
    if (v != t[c]) return v < t[c] ? -1 : 1;
  }
  return 0;
}

// Applies a RelationDelta to columnar storage with set semantics: the
// base rows minus every row equal to a delete, in base order, then each
// insert not among those rows and not repeating an earlier insert, in
// batch order. Rows are tested in place by binary search over sorted
// copies of the two lists and copied as column runs, so no row becomes
// a Tuple: O(rows * log(delta) * arity) plus the copy.
Relation ApplyDeltaRows(const Relation& base, const RelationDelta& delta) {
  std::vector<Tuple> deletes = delta.deletes;
  std::sort(deletes.begin(), deletes.end());
  // Inserts sorted with their batch positions; `skip` marks those that
  // repeat an earlier insert or a surviving row.
  std::vector<std::pair<Tuple, size_t>> inserts;
  inserts.reserve(delta.inserts.size());
  for (size_t i = 0; i < delta.inserts.size(); ++i) {
    inserts.emplace_back(delta.inserts[i], i);
  }
  std::sort(inserts.begin(), inserts.end());
  std::vector<bool> skip(inserts.size(), false);
  for (size_t j = 1; j < inserts.size(); ++j) {
    if (inserts[j].first == inserts[j - 1].first) {
      skip[inserts[j].second] = true;
    }
  }

  const size_t n = base.num_rows();
  std::vector<size_t> dropped;  // ascending
  for (size_t r = 0; r < n; ++r) {
    auto del = std::partition_point(
        deletes.begin(), deletes.end(),
        [&](const Tuple& t) { return CompareRow(base, r, t) > 0; });
    if (del != deletes.end() && CompareRow(base, r, *del) == 0) {
      dropped.push_back(r);
      continue;
    }
    auto ins = std::partition_point(
        inserts.begin(), inserts.end(),
        [&](const auto& e) { return CompareRow(base, r, e.first) > 0; });
    for (; ins != inserts.end() && CompareRow(base, r, ins->first) == 0;
         ++ins) {
      skip[ins->second] = true;
    }
  }

  Relation next(base.schema());
  next.Reserve(n - dropped.size() + inserts.size());
  std::vector<const int64_t*> run(base.num_columns());
  size_t begin = 0;
  dropped.push_back(n);  // sentinel: the run after the last drop
  for (size_t end : dropped) {
    if (end > begin) {
      for (size_t c = 0; c < run.size(); ++c) {
        run[c] = base.column(c).data() + begin;
      }
      next.AppendColumnBlock(run.data(), end - begin);
    }
    begin = end + 1;
  }
  for (size_t i = 0; i < delta.inserts.size(); ++i) {
    if (!skip[i]) next.AppendRow(delta.inserts[i]);
  }
  return next;
}

// AlreadyExists when `name` is taken by a relation or a document.
Status CheckNameFree(const internal::DatabaseSnapshot& snap,
                     const std::string& name) {
  if (snap.relations.count(name) || snap.documents.count(name)) {
    return Status::AlreadyExists(name + " is already registered");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Registration and the copy-on-write registry
// ---------------------------------------------------------------------------

std::shared_ptr<const internal::DatabaseSnapshot> MultiModelDatabase::Current()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return current_;
}

void MultiModelDatabase::Publish(
    std::shared_ptr<const internal::DatabaseSnapshot> next) {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    current_.swap(next);
  }
  // `next` now holds the replaced snapshot; when nothing else pins it,
  // it is freed here, outside the leaf lock.
}

Status MultiModelDatabase::RegisterRelationCsv(const std::string& name,
                                               std::string_view csv,
                                               const CsvOptions& options) {
  // Reject a bad name before parsing: parsing interns every cell into
  // the shared dictionary, which never shrinks. RegisterRelation checks
  // again under the writer lock.
  if (name.empty()) return Status::InvalidArgument("empty relation name");
  XJ_RETURN_NOT_OK(CheckNameFree(*Current(), name));
  XJ_ASSIGN_OR_RETURN(Relation rel, ReadCsv(csv, options, &dict_));
  return RegisterRelation(name, std::move(rel));
}

Status MultiModelDatabase::RegisterRelation(const std::string& name,
                                            Relation relation) {
  if (name.empty()) return Status::InvalidArgument("empty relation name");
  auto shared = std::make_shared<const Relation>(std::move(relation));
  std::lock_guard<std::mutex> update_lock(update_mu_);
  XJ_RETURN_NOT_OK(CheckNameFree(*current_, name));
  auto next = std::make_shared<internal::DatabaseSnapshot>(*current_);
  next->relations.emplace(name,
                          internal::SnapshotRelation{std::move(shared), 0});
  Publish(std::move(next));
  return Status::OK();
}

Status MultiModelDatabase::UpdateRelation(const std::string& name,
                                          Relation relation) {
  auto shared = std::make_shared<const Relation>(std::move(relation));
  std::lock_guard<std::mutex> update_lock(update_mu_);
  auto next = std::make_shared<internal::DatabaseSnapshot>(*current_);
  auto it = next->relations.find(name);
  if (it == next->relations.end()) {
    return Status::NotFound("no relation " + name);
  }
  // Copy-on-swap: the old shared_ptr stays alive while any session,
  // plan, or in-flight query pins it; new snapshots see the new one.
  it->second.relation = std::move(shared);
  ++it->second.version;
  Publish(std::move(next));
  {
    std::lock_guard<std::mutex> lock(trie_cache_mu_);
    trie_cache_.EraseIf([&name](const TrieKey& key, const auto&) {
      return key.relation == name;
    });
  }
  InvalidatePlans(name);
  return Status::OK();
}

Status MultiModelDatabase::ApplyRelationDelta(const std::string& name,
                                              const RelationDelta& delta) {
  if (delta.inserts.empty() && delta.deletes.empty()) return Status::OK();
  // Serialize writers: everything below is a read-modify-write of the
  // registry entry and of every cached trie derived from it.
  std::lock_guard<std::mutex> update_lock(update_mu_);

  auto found = current_->relations.find(name);
  if (found == current_->relations.end()) {
    return Status::NotFound("no relation " + name);
  }
  const std::shared_ptr<const Relation> base = found->second.relation;
  const uint64_t old_version = found->second.version;
  const Schema& schema = base->schema();
  const size_t arity = schema.size();
  if (arity == 0) {
    return Status::InvalidArgument("cannot delta a zero-arity relation");
  }
  for (const Tuple& t : delta.inserts) {
    if (t.size() != arity) {
      return Status::InvalidArgument("delta tuple arity mismatch for " + name);
    }
  }
  for (const Tuple& t : delta.deletes) {
    if (t.size() != arity) {
      return Status::InvalidArgument("delta tuple arity mismatch for " + name);
    }
  }

  // 1. New relation contents, copy-on-swap (set semantics).
  auto next = std::make_shared<internal::DatabaseSnapshot>(*current_);
  internal::SnapshotRelation& entry = next->relations[name];
  entry.relation =
      std::make_shared<const Relation>(ApplyDeltaRows(*base, delta));
  entry.version = old_version + 1;

  // 2. Rebuild every cached trie keyed at (name, old_version) over the
  // new relation, outside the cache lock. Session snapshots and plans
  // pinning the old trie objects are untouched.
  auto at_old_version = [&name, old_version](const TrieKey& key) {
    return key.relation == name && key.version == old_version;
  };
  std::vector<std::vector<std::string>> orders;
  {
    std::lock_guard<std::mutex> lock(trie_cache_mu_);
    trie_cache_.ForEach([&](const TrieKey& key, const auto&) {
      if (at_old_version(key)) orders.push_back(key.order);
    });
  }
  std::vector<std::pair<TrieKey, std::shared_ptr<const RelationTrie>>> rebuilt;
  rebuilt.reserve(orders.size());
  for (std::vector<std::string>& order : orders) {
    XJ_ASSIGN_OR_RETURN(RelationTrie trie,
                        RelationTrie::Build(*entry.relation, order));
    rebuilt.emplace_back(TrieKey{name, old_version + 1, std::move(order)},
                         std::make_shared<const RelationTrie>(std::move(trie)));
  }

  // Fault site: a failure here (after rebuilding, before publication)
  // must leave the old version fully intact — the registry, version,
  // and every cached trie are untouched because nothing above mutated
  // shared state.
  if (XJOIN_FAULT("trie.compact")) {
    return Status::Internal("fault injection: trie rebuild for a delta on " +
                            name +
                            " failed before publish (site trie.compact)");
  }

  // 3. Publish the new storage and version.
  Publish(std::move(next));

  // 4. Cache the rebuilt tries under the new version and drop the
  // old-version entries (pins keep the old objects alive for open
  // sessions), then drop the plans that read the relation: the next
  // query re-prepares through the rebuilt tries without a trie build.
  {
    std::lock_guard<std::mutex> lock(trie_cache_mu_);
    trie_cache_.EraseIf(
        [&](const TrieKey& key, const auto&) { return at_old_version(key); });
    for (auto& [key, trie] : rebuilt) {
      const size_t bytes = trie->ByteSizeEstimate();
      trie_cache_.Put(key, std::move(trie), bytes);
    }
    trie_cache_patches_ += static_cast<int64_t>(rebuilt.size());
  }
  InvalidatePlans(name);
  return Status::OK();
}

Result<internal::SnapshotDocument> MultiModelDatabase::IndexDocumentXml(
    const std::string& name, std::string_view xml, ValuePolicy policy) {
  XJ_ASSIGN_OR_RETURN(XmlDocument doc, ParseXml(xml));
  auto doc_shared = std::make_shared<const XmlDocument>(std::move(doc));
  auto index = std::make_shared<const NodeIndex>(
      NodeIndex::Build(doc_shared.get(), &dict_, policy, name));
  return internal::SnapshotDocument{std::move(doc_shared), std::move(index), 0};
}

Status MultiModelDatabase::RegisterDocumentXml(const std::string& name,
                                               std::string_view xml,
                                               ValuePolicy policy) {
  if (name.empty()) return Status::InvalidArgument("empty document name");
  // Checked before indexing (which interns into the dictionary) and
  // again under the writer lock.
  XJ_RETURN_NOT_OK(CheckNameFree(*Current(), name));
  XJ_ASSIGN_OR_RETURN(internal::SnapshotDocument entry,
                      IndexDocumentXml(name, xml, policy));
  std::lock_guard<std::mutex> update_lock(update_mu_);
  XJ_RETURN_NOT_OK(CheckNameFree(*current_, name));
  auto next = std::make_shared<internal::DatabaseSnapshot>(*current_);
  next->documents.emplace(name, std::move(entry));
  Publish(std::move(next));
  return Status::OK();
}

Status MultiModelDatabase::UpdateDocumentXml(const std::string& name,
                                             std::string_view xml,
                                             ValuePolicy policy) {
  // Checked before indexing (which interns into the dictionary) and
  // again under the writer lock.
  if (Current()->documents.count(name) == 0) {
    return Status::NotFound("no document " + name);
  }
  XJ_ASSIGN_OR_RETURN(internal::SnapshotDocument entry,
                      IndexDocumentXml(name, xml, policy));
  std::lock_guard<std::mutex> update_lock(update_mu_);
  auto next = std::make_shared<internal::DatabaseSnapshot>(*current_);
  auto it = next->documents.find(name);
  if (it == next->documents.end()) {
    return Status::NotFound("no document " + name);
  }
  entry.version = it->second.version + 1;
  it->second = std::move(entry);
  Publish(std::move(next));
  InvalidatePlans(name);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

Session MultiModelDatabase::OpenSession() const {
  return Session(this, Current());
}
Result<Relation> Session::Query(const std::string& text,
                                const QueryOptions& options) const {
  return db_->RunQuery(text, options, snap_);
}

Result<PreparedQuery> Session::Prepare(const std::string& text,
                                       const QueryOptions& options) const {
  XJ_ASSIGN_OR_RETURN(
      std::shared_ptr<const XJoinPlan> plan,
      db_->PreparePlanSnapshot(text, options, /*budget=*/nullptr, snap_));
  return PreparedQuery{std::move(plan)};
}

Result<Relation> Session::Execute(const PreparedQuery& prepared,
                                  const QueryOptions& options) const {
  if (prepared.plan == nullptr) {
    return Status::InvalidArgument("empty PreparedQuery");
  }
  return db_->RunPlan(*prepared.plan, options);
}

Result<std::string> Session::Explain(const std::string& text,
                                     const QueryOptions& options) const {
  XJ_ASSIGN_OR_RETURN(
      std::shared_ptr<const XJoinPlan> plan,
      db_->PreparePlanSnapshot(text, options, /*budget=*/nullptr, snap_));
  std::string out = "query: " + CanonicalizeQueryText(text) + "\n";
  out += ExplainPlan(*plan);
  CacheStats stats = db_->cache_stats();
  out += "plan cache: " + std::to_string(stats.plan_hits) + " hits, " +
         std::to_string(stats.plan_misses) + " misses, " +
         std::to_string(stats.plan_invalidations) +
         " invalidations (key = canonical text + options fingerprint)\n";
  out += "trie cache: " + std::to_string(stats.trie_entries) + " tries, " +
         std::to_string(stats.trie_bytes) + " bytes (budget " +
         std::to_string(stats.trie_budget) + "), " +
         std::to_string(stats.trie_hits) + " hits, " +
         std::to_string(stats.trie_misses) + " misses, " +
         std::to_string(stats.trie_evictions) + " evictions\n";
  out += "admission: " + std::to_string(stats.admission_admitted) +
         " admitted, " + std::to_string(stats.admission_queued) +
         " queued, " + std::to_string(stats.admission_rejected) +
         " rejected, " + std::to_string(stats.admission_cancelled) +
         " cancelled\n";
  return out;
}

Result<const Relation*> Session::relation(const std::string& name) const {
  auto it = snap_->relations.find(name);
  if (it == snap_->relations.end()) {
    return Status::NotFound("no relation " + name);
  }
  return it->second.relation.get();
}

Result<const NodeIndex*> Session::document_index(
    const std::string& name) const {
  auto it = snap_->documents.find(name);
  if (it == snap_->documents.end()) {
    return Status::NotFound("no document " + name);
  }
  return it->second.index.get();
}

std::vector<std::string> Session::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(snap_->relations.size());
  for (const auto& [name, entry] : snap_->relations) {
    (void)entry;
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> Session::DocumentNames() const {
  std::vector<std::string> names;
  names.reserve(snap_->documents.size());
  for (const auto& [name, doc] : snap_->documents) {
    (void)doc;
    names.push_back(name);
  }
  return names;
}

Result<uint64_t> Session::relation_version(const std::string& name) const {
  auto it = snap_->relations.find(name);
  if (it == snap_->relations.end()) {
    return Status::NotFound("no relation " + name);
  }
  return it->second.version;
}

Result<uint64_t> Session::document_version(const std::string& name) const {
  auto it = snap_->documents.find(name);
  if (it == snap_->documents.end()) {
    return Status::NotFound("no document " + name);
  }
  return it->second.version;
}

// ---------------------------------------------------------------------------
// Trie cache
// ---------------------------------------------------------------------------

void MultiModelDatabase::ClearTrieCache() {
  std::lock_guard<std::mutex> lock(trie_cache_mu_);
  trie_cache_.Clear();
}

void MultiModelDatabase::SetTrieCacheBudget(size_t bytes) {
  std::lock_guard<std::mutex> lock(trie_cache_mu_);
  trie_cache_.SetBudget(bytes);
}

TrieProvider MultiModelDatabase::CacheTrieProvider(
    std::shared_ptr<const internal::DatabaseSnapshot> snap, Metrics* metrics,
    int num_threads, BudgetTracker* budget) const {
  return [this, snap = std::move(snap), metrics, num_threads, budget](
             const std::string& name, const Relation& relation,
             const std::vector<std::string>& order)
             -> Result<std::shared_ptr<const RelationTrie>> {
    auto entry = snap->relations.find(name);
    if (entry == snap->relations.end() ||
        entry->second.relation.get() != &relation) {
      // Not one of the snapshot's relations (defensive: a provider is
      // only as good as its key) — let the engine build privately.
      return std::shared_ptr<const RelationTrie>();
    }
    // The key holds the snapshot version, so an old session can never
    // be served a trie over newer data (and vice versa). A build for a
    // version that is no longer current is served uncached: every write
    // drops or re-keys the old version's entries, so nothing could hit
    // it and it would only hold budget bytes until evicted.
    const uint64_t version = entry->second.version;
    TrieKey key{name, version, order};
    {
      std::lock_guard<std::mutex> lock(trie_cache_mu_);
      if (const auto* hit = trie_cache_.Get(key)) {
        ++trie_cache_hits_;
        MetricsAdd(metrics, "db.trie_cache.hits", 1);
        return *hit;
      }
    }
    // Cache miss: a cancelled query must not pay for (or fault tests
    // silently survive) a cold build.
    if (budget != nullptr && budget->violated()) return budget->status();
    if (XJOIN_FAULT("trie.build")) {
      return Status::Internal("fault injection: trie build for " + name +
                              " failed (site trie.build)");
    }
    // Build outside the lock (concurrent queries may race to build the
    // same trie; the last insert wins and the other build is served
    // uncached — correctness over double-build avoidance).
    TrieBuildOptions build_options;
    build_options.num_threads = num_threads;
    build_options.metrics = metrics;
    XJ_ASSIGN_OR_RETURN(RelationTrie trie,
                        RelationTrie::Build(relation, order, build_options));
    auto shared = std::make_shared<const RelationTrie>(std::move(trie));
    const size_t bytes = shared->ByteSizeEstimate();
    // Declared before the lock so a snapshot it was the last pin of is
    // freed after the lock is released.
    std::shared_ptr<const internal::DatabaseSnapshot> current;
    std::lock_guard<std::mutex> lock(trie_cache_mu_);
    ++trie_cache_misses_;
    MetricsAdd(metrics, "db.trie_cache.misses", 1);
    // Checked under the cache lock: a writer publishes the new version
    // before it takes this lock to drop the old version's entries, so a
    // trie put here after a version check that passed is dropped by it.
    current = Current();
    auto now = current->relations.find(name);
    if (now == current->relations.end() || now->second.version != version) {
      return shared;
    }
    const int64_t before = trie_cache_.evictions();
    trie_cache_.Put(key, shared, bytes);
    MetricsAdd(metrics, "db.trie_cache.evictions",
               trie_cache_.evictions() - before);
    return shared;
  };
}

// ---------------------------------------------------------------------------
// Plan cache (snapshot-aware)
// ---------------------------------------------------------------------------

void MultiModelDatabase::ClearPlanCache() {
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  plan_cache_.Clear();
}

void MultiModelDatabase::SetPlanCacheCapacity(size_t max_plans) {
  // Evicting a plan also releases its pinned tries and storage (the
  // trie byte budget bounds the cache, this bounds the pins).
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  plan_cache_.SetBudget(max_plans);
}

void MultiModelDatabase::InvalidatePlans(const std::string& name) {
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  plan_cache_invalidations_ += static_cast<int64_t>(
      plan_cache_.EraseIf([&name](const std::string&, const auto& plan) {
        return std::any_of(plan->sources.begin(), plan->sources.end(),
                           [&name](const XJoinPlan::SourceVersion& s) {
                             return s.name == name;
                           });
      }));
}

CacheStats MultiModelDatabase::cache_stats() const {
  CacheStats stats;
  {
    // Lock order: trie then plan (nowhere does the reverse nesting
    // exist); each section is read atomically under its own mutex.
    std::lock_guard<std::mutex> trie_lock(trie_cache_mu_);
    std::lock_guard<std::mutex> plan_lock(plan_cache_mu_);
    stats.trie_entries = trie_cache_.size();
    stats.trie_bytes = trie_cache_.cost();
    stats.trie_budget = trie_cache_.budget();
    stats.trie_hits = trie_cache_hits_;
    stats.trie_misses = trie_cache_misses_;
    stats.trie_evictions = trie_cache_.evictions();
    stats.trie_patches = trie_cache_patches_;
    stats.trie_compactions = trie_cache_patches_;
    stats.plan_entries = plan_cache_.size();
    stats.plan_capacity = plan_cache_.budget();
    stats.plan_hits = plan_cache_hits_;
    stats.plan_misses = plan_cache_misses_;
    stats.plan_invalidations = plan_cache_invalidations_;
    stats.plan_evictions = plan_cache_.evictions();
  }
  // Admission totals: live pools + pools already removed + queries that
  // ran without a tenant. tenant_mu_ is a leaf lock, taken on its own.
  stats.admission_admitted = untenanted_admitted_.load();
  stats.admission_cancelled = untenanted_cancelled_.load();
  {
    std::lock_guard<std::mutex> tenant_lock(tenant_mu_);
    stats.admission_admitted += tenant_retired_.admitted;
    stats.admission_queued += tenant_retired_.queued;
    stats.admission_rejected += tenant_retired_.rejected;
    stats.admission_cancelled += tenant_retired_.cancelled;
    for (const auto& [name, pool] : tenant_pools_) {
      (void)name;
      TenantPoolStats s = pool->stats();
      stats.admission_admitted += s.admitted;
      stats.admission_queued += s.queued;
      stats.admission_rejected += s.rejected;
      stats.admission_cancelled += s.cancelled;
    }
  }
  return stats;
}

Status MultiModelDatabase::CreateTenantPool(const std::string& name,
                                            const TenantPoolOptions& options) {
  if (name.empty()) return Status::InvalidArgument("empty tenant pool name");
  std::lock_guard<std::mutex> lock(tenant_mu_);
  if (tenant_pools_.count(name)) {
    return Status::AlreadyExists("tenant pool '" + name +
                                 "' is already registered");
  }
  tenant_pools_.emplace(name, std::make_shared<TenantPool>(name, options));
  return Status::OK();
}

Status MultiModelDatabase::RemoveTenantPool(const std::string& name) {
  std::lock_guard<std::mutex> lock(tenant_mu_);
  auto it = tenant_pools_.find(name);
  if (it == tenant_pools_.end()) {
    return Status::NotFound("no tenant pool '" + name + "'");
  }
  // Fold the monotonic history into the retired accumulator so the
  // db-wide admission totals never go backwards. In-flight queries
  // admitted through this pool still hold it via shared_ptr; their
  // releases/cancellations after this point are the one thing removal
  // loses.
  TenantPoolStats s = it->second->stats();
  tenant_retired_.admitted += s.admitted;
  tenant_retired_.queued += s.queued;
  tenant_retired_.rejected += s.rejected;
  tenant_retired_.cancelled += s.cancelled;
  tenant_pools_.erase(it);
  return Status::OK();
}

Result<TenantPoolStats> MultiModelDatabase::tenant_pool_stats(
    const std::string& name) const {
  std::shared_ptr<TenantPool> pool;
  {
    std::lock_guard<std::mutex> lock(tenant_mu_);
    auto it = tenant_pools_.find(name);
    if (it == tenant_pools_.end()) {
      return Status::NotFound("no tenant pool '" + name + "'");
    }
    pool = it->second;
  }
  return pool->stats();
}

std::vector<std::string> MultiModelDatabase::TenantPoolNames() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(tenant_mu_);
  names.reserve(tenant_pools_.size());
  for (const auto& [name, pool] : tenant_pools_) {
    (void)pool;
    names.push_back(name);
  }
  return names;
}

EngineServices MultiModelDatabase::Services(
    const QueryOptions& options, BudgetTracker* budget,
    const std::shared_ptr<const internal::DatabaseSnapshot>& snap) const {
  EngineServices services;
  services.metrics = options.metrics;
  services.budget = budget;
  if (snap != nullptr) {
    int num_threads = std::max(1, options.xjoin.num_threads);
    services.trie_provider =
        CacheTrieProvider(snap, options.metrics, num_threads, budget);
  }
  return services;
}

Result<std::shared_ptr<const XJoinPlan>>
MultiModelDatabase::PreparePlanSnapshot(
    const std::string& text, const QueryOptions& options,
    BudgetTracker* budget,
    const std::shared_ptr<const internal::DatabaseSnapshot>& snap) const {
  std::string key = PlanCacheKey(text, options.xjoin);

  // Hit only when every source version matches the *snapshot's*; any
  // other lookup is a miss.
  {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    if (const auto* cached = plan_cache_.Get(key)) {
      if (PlanMatchesSnapshot(**cached, *snap)) {
        ++plan_cache_hits_;
        MetricsAdd(options.metrics, "db.plan_cache.hits", 1);
        return *cached;
      }
    }
  }

  // Miss: parse against the snapshot, prepare through the database
  // caches, record sources and pins, publish.
  XJ_ASSIGN_OR_RETURN(MultiModelQuery query, ParseQuery(text, *snap));
  XJ_ASSIGN_OR_RETURN(
      std::shared_ptr<XJoinPlan> plan,
      PrepareXJoin(query, options.xjoin, Services(options, budget, snap)));
  AttachSnapshotSources(plan.get(), *snap);
  std::shared_ptr<const XJoinPlan> shared = std::move(plan);

  // Publish — but only when the plan's versions still match the
  // *current* registry, replacing any stale entry under the key. A plan
  // prepared on an old snapshot stays private to its session: inserting
  // it would poison the cache for new sessions (their lookups would
  // miss on it, thrashing).
  bool current_valid = PlanMatchesSnapshot(*shared, *Current());
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  ++plan_cache_misses_;
  MetricsAdd(options.metrics, "db.plan_cache.misses", 1);
  if (current_valid) plan_cache_.Put(key, shared, 1);
  return shared;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

Result<std::shared_ptr<TenantPool>> MultiModelDatabase::ResolveTenant(
    const std::string& tenant) const {
  if (tenant.empty()) return std::shared_ptr<TenantPool>();
  std::lock_guard<std::mutex> lock(tenant_mu_);
  auto it = tenant_pools_.find(tenant);
  if (it == tenant_pools_.end()) {
    return Status::NotFound("no tenant pool '" + tenant +
                            "' (create it with CreateTenantPool)");
  }
  return it->second;
}

namespace {

// Returns a tenant-pool slot (and the query's aggregate charges) when
// the query ends, however it ends. Declared AFTER the BudgetTracker at
// the call sites so it is destroyed first — the tracker's charged
// totals must still be alive to release.
struct SlotGuard {
  std::shared_ptr<TenantPool> pool;
  BudgetTracker* budget = nullptr;
  std::atomic<int64_t>* untenanted_cancelled = nullptr;
  bool cancelled = false;

  ~SlotGuard() {
    if (pool != nullptr) {
      if (pool->aggregate() != nullptr) {
        pool->aggregate()->Release(budget->rows_charged(),
                                   budget->bytes_charged());
      }
      if (cancelled) pool->NoteCancelled();
      pool->Release();
    } else if (cancelled && untenanted_cancelled != nullptr) {
      untenanted_cancelled->fetch_add(1, std::memory_order_relaxed);
    }
  }
};

}  // namespace

Result<Relation> MultiModelDatabase::RunPlan(
    const XJoinPlan& plan, const QueryOptions& options) const {
  XJ_ASSIGN_OR_RETURN(std::shared_ptr<TenantPool> pool,
                      ResolveTenant(options.tenant));

  // The budget clock starts here — planning/cache time is not charged;
  // admission queueing and execution time are. The call's token rides
  // the budget, polled by one violated() check per binding; with no
  // token and no limit the tracker is unlimited and the engine runs
  // its unbudgeted path.
  BudgetTracker budget(options.max_rows, options.max_bytes,
                       options.deadline_micros, options.cancel);

  // Admission: take (or queue for) a slot in the tenant pool, then
  // layer the pool's aggregate in-flight ceilings on the budget.
  SlotGuard guard;
  if (pool != nullptr) {
    bool queued = false;
    Status admit = pool->Admit(&budget, &queued);
    if (queued) MetricsAdd(options.metrics, "db.admission.queued", 1);
    if (!admit.ok()) {
      MetricsAdd(options.metrics,
                 admit.code() == StatusCode::kCancelled
                     ? "db.admission.cancelled"
                     : "db.admission.rejected",
                 1);
      return admit;
    }
    guard.pool = pool;
    guard.budget = &budget;
    budget.AttachAggregate(pool->aggregate());
  } else {
    untenanted_admitted_.fetch_add(1, std::memory_order_relaxed);
    guard.untenanted_cancelled = &untenanted_cancelled_;
  }
  MetricsAdd(options.metrics, "db.admission.admitted", 1);

  // Cancelled (or past deadline) before any work: bail without touching
  // the engines.
  budget.CheckDeadline();
  if (budget.violated()) {
    Status st = budget.status();
    if (st.code() == StatusCode::kCancelled) {
      guard.cancelled = true;
      MetricsAdd(options.metrics, "db.admission.cancelled", 1);
    }
    return st;
  }

  Result<Relation> result = [&]() -> Result<Relation> {
    if (options.engine == Engine::kBaseline) {
      // The baseline engine has no mid-flight hooks; budgets are
      // enforced post-hoc on the combined result (the deadline still
      // cuts callers off with a typed Status, just after the work
      // instead of during).
      BaselineOptions baseline_options;
      baseline_options.metrics = options.metrics;
      XJ_ASSIGN_OR_RETURN(Relation baseline_result,
                          ExecuteBaseline(plan.query, baseline_options));
      if (budget.limited()) {
        auto rows = static_cast<int64_t>(baseline_result.num_rows());
        budget.ChargeRows(
            rows,
            rows * 8 * static_cast<int64_t>(baseline_result.num_columns()));
        budget.CheckDeadline();
        if (budget.violated()) return budget.status();
      }
      return baseline_result;
    }
    // The cancel token already rides the budget.
    return ExecutePlan(
        plan, Services(options, budget.limited() ? &budget : nullptr,
                       /*snap=*/nullptr));
  }();

  if (!result.ok() && result.status().code() == StatusCode::kCancelled) {
    guard.cancelled = true;
    MetricsAdd(options.metrics, "db.admission.cancelled", 1);
  }
  return result;
}

Result<Relation> MultiModelDatabase::RunQuery(
    const std::string& text, const QueryOptions& options,
    const std::shared_ptr<const internal::DatabaseSnapshot>& snap) const {
  if (options.engine == Engine::kBaseline) {
    // Baseline evaluation needs no plan — parse and evaluate directly
    // (planning would build tries the baseline never uses). A shell
    // plan carries the parsed query into the shared admission + budget
    // path; its engine branch never touches the XJoin plan fields.
    XJ_ASSIGN_OR_RETURN(MultiModelQuery query, ParseQuery(text, *snap));
    XJoinPlan shell;
    shell.query = std::move(query);
    return RunPlan(shell, options);
  }
  // Prepare-time cancellation: the cold path builds tries, which a
  // cancelled caller should never pay for. Prepare watches the call's
  // token through a cancel-only budget (limits and the deadline start
  // with execution, in RunPlan).
  BudgetTracker prepare_budget(/*max_rows=*/0, /*max_bytes=*/0,
                               /*deadline_micros=*/0, options.cancel);
  Result<std::shared_ptr<const XJoinPlan>> plan =
      PreparePlanSnapshot(text, options, &prepare_budget, snap);
  if (!plan.ok()) {
    // A query cancelled while its plan was still being prepared never
    // reached admission, but it still finished kCancelled — count it so
    // the db-wide cancellation totals are complete.
    if (plan.status().code() == StatusCode::kCancelled) {
      untenanted_cancelled_.fetch_add(1, std::memory_order_relaxed);
      MetricsAdd(options.metrics, "db.admission.cancelled", 1);
    }
    return plan.status();
  }
  return RunPlan(**plan, options);
}

}  // namespace xjoin
