#include "core/value_dictionary.h"

#include <algorithm>
#include <numeric>

#include "util/hash.h"
#include "util/logging.h"

namespace nf2 {

namespace dict_internal {

std::pair<size_t, size_t> ValueStore::Locate(ValueId id) {
  const uint64_t n = static_cast<uint64_t>(id) + 1;
  const size_t segment = 63 - static_cast<size_t>(__builtin_clzll(n));
  return {segment, static_cast<size_t>(n - (uint64_t{1} << segment))};
}

void ValueStore::Append(ValueId id, Value v) {
  auto [segment, offset] = Locate(id);
  if (offset == 0) {
    segments_[segment] = std::make_unique<Value[]>(size_t{1} << segment);
  }
  segments_[segment][offset] = std::move(v);
}

IdTable::IdTable(size_t capacity)
    : slots_(std::make_unique<std::atomic<ValueId>[]>(capacity)),
      mask_(capacity - 1) {
  NF2_CHECK(capacity > 0 && (capacity & mask_) == 0)
      << "IdTable capacity must be a power of two";
  for (size_t i = 0; i < capacity; ++i) {
    slots_[i].store(kEmpty, std::memory_order_relaxed);
  }
}

size_t IdTable::Home(size_t hash) const {
  // Value::Hash of an INT is the integer plus a constant, so consecutive
  // keys would fill one contiguous run of slots and every probe landing
  // in it would walk the whole run. Mixing every bit into the low ones
  // (the 64-bit finalizer of MurmurHash3) spreads them out.
  uint64_t h = hash;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<size_t>(h) & mask_;
}

std::optional<ValueId> IdTable::Find(const Value& v, size_t hash,
                                     size_t visible,
                                     const ValueStore& store) const {
  for (size_t i = Home(hash);; i = (i + 1) & mask_) {
    ValueId id = slots_[i].load(std::memory_order_acquire);
    if (id == kEmpty) return std::nullopt;
    // An id at or past `visible` may still be being written: skip it
    // without touching its value.
    if (id < visible && store.at(id) == v) return id;
  }
}

void IdTable::Insert(size_t hash, ValueId id) {
  for (size_t i = Home(hash);; i = (i + 1) & mask_) {
    if (slots_[i].load(std::memory_order_relaxed) == kEmpty) {
      slots_[i].store(id, std::memory_order_release);
      return;
    }
  }
}

}  // namespace dict_internal

namespace {
constexpr size_t kInitialTableCapacity = 64;
}  // namespace

ValueDictionary::ValueDictionary()
    : store_(std::make_shared<dict_internal::ValueStore>()),
      table_(std::make_shared<dict_internal::IdTable>(
          kInitialTableCapacity)) {}

ValueDictionary::ValueDictionary(
    std::shared_ptr<dict_internal::ValueStore> store,
    std::shared_ptr<dict_internal::IdTable> table, size_t size)
    : store_(std::move(store)),
      table_(std::move(table)),
      size_(size),
      frozen_(true) {}

ValueId ValueDictionary::Intern(const Value& v) {
  NF2_CHECK(!frozen_) << "cannot intern into a frozen dictionary view";
  const size_t hash = std::hash<Value>()(v);
  if (std::optional<ValueId> found = table_->Find(v, hash, size_, *store_)) {
    return *found;
  }
  NF2_CHECK(size_ < kMaxValues) << "value dictionary full";
  ValueId id = static_cast<ValueId>(size_);
  if (!ranks_dirty_) {
    if (size_ == 0 || value(max_value_id_) < v) {
      // Monotone intern: the new value takes the next rank directly.
      ranks_.push_back(id);
      max_value_id_ = id;
    } else {
      ranks_dirty_ = true;
    }
  }
  if (2 * (size_ + 1) > table_->capacity()) {
    // Grow into a fresh table; views taken earlier keep the old one,
    // which already holds every id they can see.
    auto grown = std::make_shared<dict_internal::IdTable>(
        2 * table_->capacity());
    for (ValueId old = 0; old < size_; ++old) {
      grown->Insert(std::hash<Value>()(store_->at(old)), old);
    }
    table_ = std::move(grown);
  }
  // The value is stored before its id becomes findable.
  store_->Append(id, v);
  table_->Insert(hash, id);
  ++size_;
  return id;
}

std::optional<ValueId> ValueDictionary::Find(const Value& v) const {
  return table_->Find(v, std::hash<Value>()(v), size_, *store_);
}

const Value& ValueDictionary::value(ValueId id) const {
  NF2_CHECK(id < size_) << "ValueId " << id << " out of range";
  return store_->at(id);
}

std::shared_ptr<const ValueDictionary> ValueDictionary::Freeze() const {
  return std::shared_ptr<const ValueDictionary>(
      new ValueDictionary(store_, table_, size_));
}

void ValueDictionary::EnsureRanks() const {
  NF2_CHECK(!frozen_) << "a frozen dictionary view has no value order";
  if (!ranks_dirty_ && ranks_.size() == size_) return;
  std::vector<ValueId> by_value(size_);
  std::iota(by_value.begin(), by_value.end(), 0);
  std::sort(by_value.begin(), by_value.end(), [this](ValueId a, ValueId b) {
    return store_->at(a) < store_->at(b);
  });
  ranks_.resize(size_);
  for (uint32_t rank = 0; rank < by_value.size(); ++rank) {
    ranks_[by_value[rank]] = rank;
  }
  if (!by_value.empty()) max_value_id_ = by_value.back();
  ranks_dirty_ = false;
}

uint32_t ValueDictionary::Rank(ValueId id) const {
  NF2_CHECK(id < size_) << "ValueId " << id << " out of range";
  EnsureRanks();
  return ranks_[id];
}

int ValueDictionary::CompareIds(ValueId a, ValueId b) const {
  if (a == b) return 0;
  uint32_t ra = Rank(a);
  uint32_t rb = Rank(b);
  return ra < rb ? -1 : 1;
}

std::vector<ValueId> ValueDictionary::IdsInValueOrder() const {
  EnsureRanks();
  std::vector<ValueId> out(size_);
  for (ValueId id = 0; id < out.size(); ++id) {
    out[ranks_[id]] = id;
  }
  return out;
}

IdSet::IdSet(std::vector<ValueId> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

IdSet IdSet::FromSorted(std::vector<ValueId> ids) {
  NF2_DCHECK(std::is_sorted(ids.begin(), ids.end()) &&
             std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "IdSet::FromSorted input not sorted-unique";
  IdSet out;
  out.ids_ = std::move(ids);
  return out;
}

ValueId IdSet::single() const {
  NF2_CHECK(IsSingleton()) << "IdSet::single() on set of size " << ids_.size();
  return ids_[0];
}

bool IdSet::Contains(ValueId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

bool IdSet::Insert(ValueId id) {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it != ids_.end() && *it == id) return false;
  ids_.insert(it, id);
  return true;
}

bool IdSet::Erase(ValueId id) {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return false;
  ids_.erase(it);
  return true;
}

IdSet IdSet::Union(const IdSet& other) const {
  IdSet out;
  out.ids_.reserve(ids_.size() + other.ids_.size());
  std::set_union(ids_.begin(), ids_.end(), other.ids_.begin(),
                 other.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

IdSet IdSet::Intersect(const IdSet& other) const {
  IdSet out;
  std::set_intersection(ids_.begin(), ids_.end(), other.ids_.begin(),
                        other.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

IdSet IdSet::Difference(const IdSet& other) const {
  IdSet out;
  std::set_difference(ids_.begin(), ids_.end(), other.ids_.begin(),
                      other.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

bool IdSet::IsSubsetOf(const IdSet& other) const {
  return std::includes(other.ids_.begin(), other.ids_.end(), ids_.begin(),
                       ids_.end());
}

bool IdSet::IsDisjointFrom(const IdSet& other) const {
  auto a = ids_.begin();
  auto b = other.ids_.begin();
  while (a != ids_.end() && b != other.ids_.end()) {
    if (*a == *b) return false;
    if (*a < *b) {
      ++a;
    } else {
      ++b;
    }
  }
  return true;
}

size_t IdSet::Hash() const {
  size_t seed = 0xcbf29ce484222325ULL;
  for (ValueId id : ids_) {
    seed = HashCombine(seed, id);
  }
  return seed;
}

IdSet InternValueSet(ValueDictionary* dict, const ValueSet& s) {
  std::vector<ValueId> ids;
  ids.reserve(s.size());
  for (const Value& v : s.values()) {
    ids.push_back(dict->Intern(v));
  }
  return IdSet(std::move(ids));
}

ValueSet DecodeIdSet(const ValueDictionary& dict, const IdSet& s) {
  // Sort ids by rank so the decoded elements come out in ascending
  // value order and ValueSet can skip its own payload sort.
  std::vector<ValueId> by_value(s.ids());
  std::sort(by_value.begin(), by_value.end(),
            [&dict](ValueId a, ValueId b) {
              return dict.Rank(a) < dict.Rank(b);
            });
  std::vector<Value> values;
  values.reserve(by_value.size());
  for (ValueId id : by_value) {
    values.push_back(dict.value(id));
  }
  return ValueSet::FromSortedUnique(std::move(values));
}

EncodedTuple InternTuple(ValueDictionary* dict, const NfrTuple& t) {
  EncodedTuple out;
  out.reserve(t.degree());
  for (const ValueSet& c : t.components()) {
    out.push_back(InternValueSet(dict, c));
  }
  return out;
}

NfrTuple DecodeTuple(const ValueDictionary& dict, const EncodedTuple& t) {
  std::vector<ValueSet> components;
  components.reserve(t.size());
  for (const IdSet& s : t) {
    components.push_back(DecodeIdSet(dict, s));
  }
  return NfrTuple(std::move(components));
}

size_t HashEncodedTupleExcept(const EncodedTuple& t, size_t skip_attr) {
  size_t seed = 0x9e57;
  for (size_t i = 0; i < t.size(); ++i) {
    if (i == skip_attr) continue;
    seed = HashCombine(seed, t[i].Hash());
  }
  return seed;
}

}  // namespace nf2
