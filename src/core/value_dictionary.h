#ifndef NF2_CORE_VALUE_DICTIONARY_H_
#define NF2_CORE_VALUE_DICTIONARY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/tuple.h"
#include "core/value.h"
#include "core/value_set.h"

namespace nf2 {

/// Dense handle for an interned atomic Value. Ids are assigned in
/// first-intern order and are stable for the lifetime of the owning
/// dictionary — stored IdSets are never invalidated by later interns.
using ValueId = uint32_t;

namespace dict_internal {

/// Append-only id -> value storage in power-of-two segments: segment s
/// holds ids [2^s - 1, 2^(s+1) - 1). A stored value never moves, so a
/// reader may read ids it knows to be published while the writer
/// appends further ones.
class ValueStore {
 public:
  const Value& at(ValueId id) const {
    auto [segment, offset] = Locate(id);
    return segments_[segment][offset];
  }
  /// Stores `v` under `id`, which must be the next unused id.
  void Append(ValueId id, Value v);

 private:
  static std::pair<size_t, size_t> Locate(ValueId id);
  std::array<std::unique_ptr<Value[]>, 32> segments_;
};

/// Insert-only open-addressing hash table of ids, probed by the hash of
/// the id's value. The writer inserts with atomic slot stores; a reader
/// that may see only ids below some bound skips the ids above it
/// without reading their values. The writer replaces a full table with
/// a larger one and leaves the old one untouched for the readers that
/// still hold it.
class IdTable {
 public:
  explicit IdTable(size_t capacity);
  size_t capacity() const { return mask_ + 1; }
  /// The id of `v` among ids < `visible`, probing from `hash`.
  std::optional<ValueId> Find(const Value& v, size_t hash, size_t visible,
                              const ValueStore& store) const;
  /// Writer only: records `id` (not present yet) under `hash`.
  void Insert(size_t hash, ValueId id);

 private:
  static constexpr ValueId kEmpty = std::numeric_limits<ValueId>::max();
  // The slot probing for `hash` starts at.
  size_t Home(size_t hash) const;

  std::unique_ptr<std::atomic<ValueId>[]> slots_;
  size_t mask_;
};

}  // namespace dict_internal

/// Interns atomic Values into dense ValueIds so the NFR hot paths
/// (candidate search, nest grouping, index postings) can run on integer
/// tokens instead of re-comparing and re-hashing variant payloads.
///
/// Storage is append-only: values live in a ValueStore and are found
/// through an IdTable, both shared with every frozen view taken by
/// Freeze(), so a snapshot's dictionary costs no copy (DESIGN.md §2a).
///
/// Order-preservation contract: raw ids carry NO order. The dictionary
/// instead exposes a dense *rank* per id with
///     Rank(a) < Rank(b)  <=>  value(a) < value(b)
/// so value-ordered iteration and lexicographic comparisons stay
/// available without decoding. Ranks are materialized lazily: interning
/// a value greater than every existing value extends the ranks in
/// place; an out-of-order intern only marks them dirty, and the next
/// Rank()/CompareIds() call re-sorts once (O(n log n) amortized over
/// the batch of new values). This re-encoding touches the rank table
/// only — ids, and therefore every IdSet held by callers, survive it.
/// Because Rank() may write the rank cache, only the dictionary's
/// writer calls it; frozen views have no ranks.
class ValueDictionary {
 public:
  ValueDictionary();
  ValueDictionary(const ValueDictionary&) = delete;
  ValueDictionary& operator=(const ValueDictionary&) = delete;

  /// Returns the id of `v`, interning it first if unseen.
  ValueId Intern(const Value& v);

  /// The id of `v` if it was interned before, nullopt otherwise.
  std::optional<ValueId> Find(const Value& v) const;

  /// The value behind `id` (fatal for out-of-range ids).
  const Value& value(ValueId id) const;

  /// Number of distinct values interned.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// A read-only view of the values interned so far: it shares this
  /// dictionary's storage instead of copying it, so taking one costs
  /// O(1), and it stays valid and unchanged while this dictionary goes
  /// on interning — ids interned later are invisible to it. A view
  /// resolves values to ids and back (Find, value, size) and has no
  /// value order: Rank, CompareIds and IdsInValueOrder are fatal on it,
  /// so concurrent readers never touch a lazy cache.
  std::shared_ptr<const ValueDictionary> Freeze() const;

  /// Order-preserving dense rank of `id` (see class comment).
  uint32_t Rank(ValueId id) const;

  /// Three-way comparison of the underlying values via ranks.
  int CompareIds(ValueId a, ValueId b) const;

  /// All ids in ascending value order (materializes ranks).
  std::vector<ValueId> IdsInValueOrder() const;

  static constexpr ValueId kMaxValues =
      std::numeric_limits<ValueId>::max() - 1;

 private:
  // A frozen view over `store` and `table` covering ids below `size`.
  ValueDictionary(std::shared_ptr<dict_internal::ValueStore> store,
                  std::shared_ptr<dict_internal::IdTable> table, size_t size);

  void EnsureRanks() const;

  std::shared_ptr<dict_internal::ValueStore> store_;  // id -> value
  std::shared_ptr<dict_internal::IdTable> table_;     // value -> id
  size_t size_ = 0;
  bool frozen_ = false;

  // Lazy rank table; valid only when !ranks_dirty_. max_value_id_ is
  // the id holding the greatest value (used to extend ranks in place on
  // monotone interns); meaningful only when !ranks_dirty_.
  mutable std::vector<uint32_t> ranks_;  // id -> rank
  mutable ValueId max_value_id_ = 0;
  mutable bool ranks_dirty_ = false;
};

/// A finite set of interned values: the IdSet fast path behind
/// ValueSet. Stored as a sorted, duplicate-free vector of raw ids, so
/// every set operation is a branch-light integer merge and Hash is a
/// cheap integer mix. Raw-id order is an arbitrary but consistent total
/// order, which is all set algebra needs; value-ordered output goes
/// through ValueDictionary ranks at decode time.
class IdSet {
 public:
  IdSet() = default;
  explicit IdSet(ValueId id) : ids_(1, id) {}
  explicit IdSet(std::vector<ValueId> ids);

  /// Trusted constructor: `ids` must already be sorted and unique.
  static IdSet FromSorted(std::vector<ValueId> ids);

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  bool IsSingleton() const { return ids_.size() == 1; }

  const std::vector<ValueId>& ids() const { return ids_; }
  ValueId operator[](size_t i) const { return ids_[i]; }

  /// The single element of a singleton set (fatal otherwise).
  ValueId single() const;

  /// Membership test (binary search on raw ids).
  bool Contains(ValueId id) const;

  /// Inserts `id`; returns false if it was already present.
  bool Insert(ValueId id);

  /// Removes `id`; returns false if it was absent.
  bool Erase(ValueId id);

  /// Set algebra — integer merges over the sorted id vectors. Each
  /// result agrees exactly with the corresponding ValueSet operation on
  /// the decoded sets.
  IdSet Union(const IdSet& other) const;
  IdSet Intersect(const IdSet& other) const;
  IdSet Difference(const IdSet& other) const;
  bool IsSubsetOf(const IdSet& other) const;
  bool IsDisjointFrom(const IdSet& other) const;

  bool operator==(const IdSet& other) const { return ids_ == other.ids_; }
  bool operator!=(const IdSet& other) const { return ids_ != other.ids_; }

  /// Hash consistent with operator== (and therefore with set equality
  /// of the decoded ValueSets, within one dictionary).
  size_t Hash() const;

 private:
  std::vector<ValueId> ids_;  // Sorted ascending by raw id, no duplicates.
};

/// One NFR tuple in interned form: an IdSet per attribute position.
using EncodedTuple = std::vector<IdSet>;

/// Encodes `s` into `dict`, interning unseen values.
IdSet InternValueSet(ValueDictionary* dict, const ValueSet& s);

/// Decodes `s` back to a ValueSet (elements in ascending value order;
/// lossless for every atom kind including kSet).
ValueSet DecodeIdSet(const ValueDictionary& dict, const IdSet& s);

/// Encodes / decodes a whole NFR tuple componentwise.
EncodedTuple InternTuple(ValueDictionary* dict, const NfrTuple& t);
NfrTuple DecodeTuple(const ValueDictionary& dict, const EncodedTuple& t);

/// Hash of all components except `skip_attr` (the NestOn grouping key);
/// pass degree() or larger to hash every component.
size_t HashEncodedTupleExcept(const EncodedTuple& t, size_t skip_attr);

}  // namespace nf2

#endif  // NF2_CORE_VALUE_DICTIONARY_H_
