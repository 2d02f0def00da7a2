#ifndef NF2_CORE_INDEX_H_
#define NF2_CORE_INDEX_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/tuple.h"
#include "core/value.h"
#include "core/value_dictionary.h"
#include "util/cow.h"

namespace nf2 {

/// A one-dimensional interval over attribute values: the target of a
/// range predicate (`attr < v`, `attr >= v`, ...) after the planner has
/// folded every top-level range conjunct on one attribute together.
/// Absent bounds are unbounded on that side.
struct RangeBound {
  std::optional<Value> lower;
  std::optional<Value> upper;
  bool lower_inclusive = true;
  bool upper_inclusive = true;

  /// True when `v` lies inside the interval.
  bool Admits(const Value& v) const {
    if (lower.has_value()) {
      if (lower_inclusive ? v < *lower : v <= *lower) return false;
    }
    if (upper.has_value()) {
      if (upper_inclusive ? *upper < v : *upper <= v) return false;
    }
    return true;
  }
};

/// An inverted index over the tuples of one NFR: for every attribute
/// position, a map from interned value to the ids of the tuples whose
/// component contains that value.
///
/// This is the "optimization strategy" the paper leaves open (§5): the
/// §4 algorithms' candidate search (`candt`) and containing-tuple
/// search (`searcht`) become posting-list intersections instead of full
/// scans, making update cost sublinear in the number of tuples while
/// the composition count stays bounded by Theorem A-4.
///
/// Postings are keyed by the dense ValueId of a ValueDictionary: per
/// attribute, a CowVector of posting lists indexed by id, so a lookup
/// is one array walk. Copying an index shares every posting; a write
/// after the copy clones only the nodes on the path to the written slot
/// and the one posting it changes, so a published copy costs O(degree)
/// and the writer pays O(log n) per slot it then touches. The
/// Value-based read API consults the dictionary first.
///
/// Tuple ids are positions in the owner's tuple vector; the owner must
/// use swap-remove semantics and report moves via MoveEncoded.
class NfrIndex {
 public:
  NfrIndex(size_t degree, std::shared_ptr<const ValueDictionary> dict);

  size_t degree() const { return degree_; }

  /// Indexes / unindexes / re-labels the encoded tuple `t`.
  void AddEncoded(size_t tuple_id, const EncodedTuple& t);
  void RemoveEncoded(size_t tuple_id, const EncodedTuple& t);
  void MoveEncoded(size_t from_id, size_t to_id, const EncodedTuple& t);
  /// Re-indexes tuple `tuple_id` from `before` to `after`, touching only
  /// the postings of values in one but not the other.
  void ReplaceEncoded(size_t tuple_id, const EncodedTuple& before,
                      const EncodedTuple& after);

  /// Ids of tuples whose `attr` component contains `v` (ascending), or
  /// nullptr when none do.
  const std::vector<size_t>* Postings(size_t attr, const Value& v) const;

  /// Ids of tuples whose `attr` component contains the interned value
  /// `id`. Never consults the dictionary.
  const std::vector<size_t>* PostingsById(size_t attr, ValueId id) const;

  /// Ids of tuples whose `attr` component contains at least one value
  /// inside `bound` — the union of the postings whose values fall in
  /// the interval, found by bound-scanning the dictionary's value order
  /// (which materializes its ranks: writer-side callers only).
  std::vector<size_t> ContainingInRange(size_t attr,
                                        const RangeBound& bound) const;

  /// Ids of tuples whose `attr` component contains EVERY id of `ids` —
  /// the intersection of the postings, leaving out `exclude`. Empty
  /// when any id is unindexed.
  std::vector<size_t> ContainingAllIds(
      size_t attr, const IdSet& ids,
      std::optional<size_t> exclude = std::nullopt) const;

  /// Ids of tuples containing the whole encoded tuple `t` componentwise
  /// (the index form of "expansion contains"): intersection across all
  /// attributes. For well-formed NFRs this has at most one element when
  /// `t` is simple.
  std::vector<size_t> ContainingEncoded(const EncodedTuple& t) const;

  /// Total number of (value -> id) entries, for stats/tests.
  size_t entry_count() const;

  /// Posting slots held across all attributes (including empty interior
  /// ones). RemoveEncoded reclaims trailing empty slots, so after
  /// deleting the tuples that carried the highest ValueIds this shrinks
  /// back — churn-heavy workloads must not grow the slots forever.
  size_t slot_count() const;

 private:
  // A sorted list of tuple ids; null means "unindexed".
  using Posting = Cow<std::vector<size_t>>;

  void AddPosting(size_t attr, ValueId v, size_t tuple_id);
  // Removes from slot `v` and returns whether it is now empty.
  bool RemovePosting(size_t attr, ValueId v, size_t tuple_id);
  // Pops the trailing empty slots of `attr`.
  void TrimSlots(size_t attr);

  size_t degree_;
  std::shared_ptr<const ValueDictionary> dict_;
  // postings_[attr][value_id]. Slots are grown on demand.
  std::vector<CowVector<Posting>> postings_;
};

/// Intersects two sorted id vectors.
std::vector<size_t> IntersectSorted(const std::vector<size_t>& a,
                                    const std::vector<size_t>& b);

}  // namespace nf2

#endif  // NF2_CORE_INDEX_H_
