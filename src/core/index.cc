#include "core/index.h"

#include <algorithm>
#include <tuple>

#include "util/logging.h"

namespace nf2 {

NfrIndex::NfrIndex(size_t degree,
                   std::shared_ptr<const ValueDictionary> dict)
    : degree_(degree), dict_(std::move(dict)), postings_(degree) {
  NF2_CHECK(dict_ != nullptr) << "NfrIndex needs a dictionary";
}

void NfrIndex::AddPosting(size_t attr, ValueId v, size_t tuple_id) {
  CowVector<Posting>& slots = postings_[attr];
  if (v >= slots.size()) slots.resize(v + 1);
  Posting& posting = slots.Mutable(v);
  if (!posting) {
    posting = Posting(std::vector<size_t>{tuple_id});
    return;
  }
  std::vector<size_t>& ids = posting.Mutable();
  auto it = std::lower_bound(ids.begin(), ids.end(), tuple_id);
  NF2_DCHECK(it == ids.end() || *it != tuple_id);
  ids.insert(it, tuple_id);
}

bool NfrIndex::RemovePosting(size_t attr, ValueId v, size_t tuple_id) {
  CowVector<Posting>& slots = postings_[attr];
  NF2_CHECK(v < slots.size() && slots[v]) << "index missing value id " << v;
  Posting& posting = slots.Mutable(v);
  if (posting->size() == 1) {
    // Dropping the last id releases the list: churn-heavy workloads
    // must not hold peak capacity forever.
    NF2_CHECK(posting->front() == tuple_id)
        << "index missing id for value id " << v;
    posting = Posting();
    return true;
  }
  std::vector<size_t>& ids = posting.Mutable();
  auto it = std::lower_bound(ids.begin(), ids.end(), tuple_id);
  NF2_CHECK(it != ids.end() && *it == tuple_id)
      << "index missing id for value id " << v;
  ids.erase(it);
  return false;
}

void NfrIndex::TrimSlots(size_t attr) {
  // Interior empties must stay (their ValueIds may return), but the
  // tail can always shrink.
  CowVector<Posting>& slots = postings_[attr];
  while (!slots.empty() && !slots.back()) {
    slots.pop_back();
  }
}

void NfrIndex::AddEncoded(size_t tuple_id, const EncodedTuple& t) {
  NF2_CHECK(t.size() == degree_);
  for (size_t attr = 0; attr < degree_; ++attr) {
    for (ValueId v : t[attr].ids()) {
      AddPosting(attr, v, tuple_id);
    }
  }
}

void NfrIndex::RemoveEncoded(size_t tuple_id, const EncodedTuple& t) {
  NF2_CHECK(t.size() == degree_);
  for (size_t attr = 0; attr < degree_; ++attr) {
    for (ValueId v : t[attr].ids()) {
      RemovePosting(attr, v, tuple_id);
    }
    TrimSlots(attr);
  }
}

void NfrIndex::ReplaceEncoded(size_t tuple_id, const EncodedTuple& before,
                              const EncodedTuple& after) {
  NF2_CHECK(before.size() == degree_ && after.size() == degree_);
  for (size_t attr = 0; attr < degree_; ++attr) {
    if (before[attr] == after[attr]) continue;
    const std::vector<ValueId>& old_ids = before[attr].ids();
    const std::vector<ValueId>& new_ids = after[attr].ids();
    bool emptied = false;
    // Merge the two sorted id lists; only the differences move. Equal
    // runs are skipped with std::mismatch, so a one-value change costs
    // a couple of block compares rather than a step per value.
    auto o = old_ids.begin();
    auto n = new_ids.begin();
    while (true) {
      std::tie(o, n) = std::mismatch(o, old_ids.end(), n, new_ids.end());
      if (o == old_ids.end() && n == new_ids.end()) break;
      if (n == new_ids.end() || (o != old_ids.end() && *o < *n)) {
        emptied |= RemovePosting(attr, *o++, tuple_id);
      } else {
        AddPosting(attr, *n++, tuple_id);
      }
    }
    if (emptied) TrimSlots(attr);
  }
}

void NfrIndex::MoveEncoded(size_t from_id, size_t to_id,
                           const EncodedTuple& t) {
  if (from_id == to_id) return;
  RemoveEncoded(from_id, t);
  AddEncoded(to_id, t);
}

const std::vector<size_t>* NfrIndex::Postings(size_t attr,
                                              const Value& v) const {
  NF2_CHECK(attr < degree_);
  std::optional<ValueId> id = dict_->Find(v);
  if (!id.has_value()) return nullptr;
  return PostingsById(attr, *id);
}

const std::vector<size_t>* NfrIndex::PostingsById(size_t attr,
                                                  ValueId id) const {
  NF2_CHECK(attr < degree_);
  const CowVector<Posting>& slots = postings_[attr];
  if (id >= slots.size()) return nullptr;
  return slots[id].get();
}

std::vector<size_t> IntersectSorted(const std::vector<size_t>& a,
                                    const std::vector<size_t>& b) {
  std::vector<size_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<size_t> NfrIndex::ContainingInRange(size_t attr,
                                                const RangeBound& bound) const {
  NF2_CHECK(attr < degree_);
  // Id-keyed slots carry no value order; bound-scan the dictionary's
  // value order instead and union the in-range slots.
  std::vector<ValueId> order = dict_->IdsInValueOrder();
  auto value_less = [this](ValueId id, const Value& v) {
    return dict_->value(id) < v;
  };
  auto less_value = [this](const Value& v, ValueId id) {
    return v < dict_->value(id);
  };
  auto it = order.begin();
  auto end = order.end();
  if (bound.lower.has_value()) {
    it = bound.lower_inclusive
             ? std::lower_bound(order.begin(), order.end(), *bound.lower,
                                value_less)
             : std::upper_bound(order.begin(), order.end(), *bound.lower,
                                less_value);
  }
  if (bound.upper.has_value()) {
    end = bound.upper_inclusive
              ? std::upper_bound(it, order.end(), *bound.upper, less_value)
              : std::lower_bound(it, order.end(), *bound.upper, value_less);
  }
  std::vector<size_t> out;
  for (; it != end; ++it) {
    const std::vector<size_t>* ids = PostingsById(attr, *it);
    if (ids != nullptr) {
      out.insert(out.end(), ids->begin(), ids->end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<size_t> NfrIndex::ContainingAllIds(
    size_t attr, const IdSet& ids, std::optional<size_t> exclude) const {
  NF2_CHECK(!ids.empty());
  const std::vector<size_t>* first = PostingsById(attr, ids[0]);
  if (first == nullptr) return {};
  std::vector<size_t> out = *first;
  if (exclude.has_value()) {
    auto it = std::lower_bound(out.begin(), out.end(), *exclude);
    if (it != out.end() && *it == *exclude) out.erase(it);
  }
  for (size_t i = 1; i < ids.size() && !out.empty(); ++i) {
    const std::vector<size_t>* next = PostingsById(attr, ids[i]);
    if (next == nullptr) return {};
    out = IntersectSorted(out, *next);
  }
  return out;
}

std::vector<size_t> NfrIndex::ContainingEncoded(const EncodedTuple& t) const {
  NF2_CHECK(t.size() == degree_);
  std::vector<size_t> out = ContainingAllIds(0, t[0]);
  for (size_t attr = 1; attr < degree_ && !out.empty(); ++attr) {
    out = IntersectSorted(out, ContainingAllIds(attr, t[attr]));
  }
  return out;
}

size_t NfrIndex::slot_count() const {
  size_t total = 0;
  for (const CowVector<Posting>& slots : postings_) {
    total += slots.size();
  }
  return total;
}

size_t NfrIndex::entry_count() const {
  size_t total = 0;
  for (const CowVector<Posting>& slots : postings_) {
    for (const Posting& posting : slots) {
      if (posting) total += posting->size();
    }
  }
  return total;
}

}  // namespace nf2
