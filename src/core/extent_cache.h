// ExtentCache: derived state that survives transactions and updates.
//
// The one cache for lowered Datalog fixpoints. An entry holds either
//   * a whole component: the fixpoint of the component's lowered program,
//     spliced back into a later Interp at the same database version; or
//   * a demanded cone: the fixpoint of the magic-set transform of that
//     program for one bound pattern (tc(0, Y)), plus the goal-filtered
//     cone the Interp hands out.
// Both kinds carry the same maintenance payload and follow one path: on a
// commit delta, Maintain() moves every entry forward instead of dropping
// it —
//
//   * a delta outside the entry's closure → re-stamp the version;
//   * insert → resume semi-naive evaluation with the inserted tuples as the
//     delta against the cached fixpoint (datalog::EvaluateDelta);
//   * delete → DRed: over-delete everything derivable from the deleted
//     tuples, then re-derive what has alternative support;
//   * unsupported shapes (negation over an affected predicate, aggregates,
//     wholesale Put/Drop) → the entry is dropped and the next transaction
//     recomputes.
// A cone is re-filtered from its maintained fixpoint (magic seed facts
// never change under base-relation deltas, so the transformed program's
// EDB delta IS the database delta).
//
// Ownership: one cache per owner, externally synchronized, never shared.
// The Engine's writer side owns one for components; each Session owns two
// instances, one for components (InterpOptions::extent_cache) and one for
// cones (InterpOptions::demand_cache), so each keeps its own counters. An
// entry is keyed by its component (sorted member list) plus, for a cone,
// the queried member and its binding pattern, and is stamped with the
// Database::version() it is valid at. Owners maintain entries forward
// along the commit pipeline's DatabaseDelta chain (engine writer: inside
// ExecTxn/ApplyBulk; sessions: Snapshot::recent_deltas on Adopt), and
// Clear() whenever the chain cannot be walked. On rule-set changes they
// Clear() or ClearAffected(); on rollback the writer calls DropAbove()
// (maintenance mutates entries in place, so an aborted transaction's
// working versions cannot be restored, only discarded: version counters
// alias across rollback). That aliasing is also why writer-side Interps
// never get a cone cache.
//
// The correctness bar: maintained extents and cones are byte-identical to
// the from-scratch fixpoint at the new version (pinned by tests/core/
// maintain_test.cc, tests/core/session_test.cc and the update-stream
// fuzzer, differentially against full recomputation).

#ifndef REL_CORE_EXTENT_CACHE_H_
#define REL_CORE_EXTENT_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "data/database.h"
#include "data/relation.h"
#include "data/value.h"
#include "datalog/eval.h"
#include "datalog/index.h"
#include "datalog/program.h"

namespace rel {

/// Per-owner cache of lowered fixpoints — whole components and demanded
/// cones — keyed by component and stamped with a database version.
/// Externally synchronized; see the header comment for the ownership and
/// invalidation contract.
class ExtentCache {
 public:
  struct Key {
    /// The component: its sorted members, joined by KeyFor().
    std::string component;
    /// Demanded cones only (empty for a whole component): the queried
    /// member and its binding pattern. The pattern's size is the queried
    /// arity, so tc(0, Y) and tc(0, Y, Z) never share an entry.
    std::string goal;
    std::vector<std::optional<Value>> pattern;

    bool operator<(const Key& other) const;
  };

  /// A cached Datalog fixpoint plus everything needed to move it forward
  /// under a DatabaseDelta.
  struct Entry {
    uint64_t db_version = 0;
    /// The program whose fixpoint `extents` is (rules are what matter;
    /// program.facts() is the EDB at the version the entry was built at and
    /// is not consulted during maintenance). For a cone, the magic-set
    /// transformed program.
    datalog::Program program;
    /// The full fixpoint: every EDB and IDB predicate's extent, mutated in
    /// place by maintenance. Map nodes (and so arena addresses) are stable;
    /// the persistent IndexCache below depends on that.
    std::map<std::string, Relation> extents;
    /// Post-version base facts of predicates that are BOTH rule heads and
    /// database base relations (DRed re-derivation support; see
    /// datalog::EvaluateDelta's base_facts contract). Updated in lockstep
    /// with the delta.
    std::map<std::string, Relation> base_facts;
    /// Rule-head predicates of the component that are database relation
    /// names (the ones whose base_facts must track deltas).
    std::set<std::string> head_preds;
    /// Database relation names feeding the program's EDB — the names whose
    /// DatabaseDelta changes translate into an EdbDelta.
    std::set<std::string> base_names;
    /// Rel-level name closure of the component (members, externals, and
    /// everything reachable from their rules). The relevance filter: a
    /// delta or rule change touching none of these leaves the entry valid.
    std::set<std::string> closure;
    /// False when the extents cannot be maintained (an external with rules:
    /// its EDB snapshot is a derived value a base delta changes opaquely;
    /// or aggregate rules). Such entries survive irrelevant deltas but drop
    /// on relevant ones.
    bool maintainable = false;
    /// Persistent across maintenance calls so indexes over grown extents
    /// take the pure-append fast path (EvalStats::index_appends) instead of
    /// rebuilding. unique_ptr: IndexCache holds mutexes and cannot move.
    std::unique_ptr<datalog::IndexCache> cache =
        std::make_unique<datalog::IndexCache>();
    /// Demanded cones only: the goal's predicate in `program` and the cone,
    /// FilterByPattern(extents[goal_pred], key.pattern), re-filtered after
    /// every maintenance step.
    std::string goal_pred;
    Relation cone;
  };

  /// The component part of a key for the component whose sorted members
  /// are `members`.
  static std::string KeyFor(const std::vector<std::string>& members);

  /// The entry for `key` valid at exactly `db_version`, or nullptr. Counts
  /// a hit or a miss.
  const Entry* Lookup(const Key& key, uint64_t db_version);

  /// Stores (replacing any previous entry for `key`); the returned
  /// reference is stable until the entry is dropped.
  Entry& Store(Key key, Entry entry);

  /// Moves every entry at delta.from_version to delta.to_version —
  /// incrementally where the delta is relevant, by re-stamping where it is
  /// not — and drops entries that cannot follow (stale version, wholesale
  /// delta, unmaintainable shape). `opts` configures the incremental
  /// evaluation (threads, iteration cap, plan seed).
  void Maintain(const DatabaseDelta& delta, const datalog::EvalOptions& opts);

  /// Drops every entry stamped with a version greater than `db_version` —
  /// the rollback hook: an aborted transaction's working versions alias
  /// future commits and must not survive as keys.
  void DropAbove(uint64_t db_version);

  /// Drops every entry whose closure intersects `names` (rule-set changes:
  /// a new def for a name only invalidates the entries that can read it).
  void ClearAffected(const std::set<std::string>& names);

  void Clear() { entries_.clear(); }

  size_t size() const { return entries_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t maintained() const { return maintained_; }
  uint64_t restamped() const { return restamped_; }
  uint64_t dropped() const { return dropped_; }
  /// Accumulated counters of every incremental evaluation this cache ran
  /// (delta_inserts / delta_deletes / rederived / index_appends ...).
  const datalog::EvalStats& maintain_stats() const { return maintain_stats_; }

 private:
  /// unique_ptr: entries hold an IndexCache whose indexes point into the
  /// entry's own extents — neither may move after Store.
  std::map<Key, std::unique_ptr<Entry>> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t maintained_ = 0;
  uint64_t restamped_ = 0;
  uint64_t dropped_ = 0;
  datalog::EvalStats maintain_stats_;
};

/// The cone cache a Session hands its Interps: the same class as the
/// component cache (see the header comment).
using DemandCache = ExtentCache;

}  // namespace rel

#endif  // REL_CORE_EXTENT_CACHE_H_
