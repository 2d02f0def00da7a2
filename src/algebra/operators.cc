#include "algebra/operators.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "core/value_dictionary.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {

FlatRelation Select(const FlatRelation& rel, const Predicate& pred) {
  std::vector<FlatTuple> out;
  for (const FlatTuple& t : rel.tuples()) {
    if (pred.EvalFlat(t)) out.push_back(t);
  }
  return FlatRelation(rel.schema(), std::move(out));
}

FlatRelation ProjectRelation(const FlatRelation& rel,
                             const std::vector<size_t>& attrs) {
  Schema projected = rel.schema().Project(attrs);
  std::vector<FlatTuple> tuples;
  tuples.reserve(rel.size());
  for (const FlatTuple& t : rel.tuples()) {
    std::vector<Value> values;
    values.reserve(attrs.size());
    for (size_t a : attrs) values.push_back(t.at(a));
    tuples.emplace_back(std::move(values));
  }
  return FlatRelation(std::move(projected), std::move(tuples));
}

Result<FlatRelation> ProjectByName(const FlatRelation& rel,
                                   const std::vector<std::string>& names) {
  std::vector<size_t> attrs;
  attrs.reserve(names.size());
  for (const std::string& name : names) {
    NF2_ASSIGN_OR_RETURN(size_t idx, rel.schema().RequireIndex(name));
    attrs.push_back(idx);
  }
  return ProjectRelation(rel, attrs);
}

namespace {
Status RequireSameSchema(const FlatRelation& a, const FlatRelation& b) {
  if (a.schema() != b.schema()) {
    return Status::InvalidArgument(
        StrCat("schema mismatch: ", a.schema().ToString(), " vs ",
               b.schema().ToString()));
  }
  return Status::OK();
}
}  // namespace

Result<FlatRelation> Union(const FlatRelation& a, const FlatRelation& b) {
  NF2_RETURN_IF_ERROR(RequireSameSchema(a, b));
  std::vector<FlatTuple> tuples = a.tuples();
  tuples.insert(tuples.end(), b.tuples().begin(), b.tuples().end());
  return FlatRelation(a.schema(), std::move(tuples));
}

Result<FlatRelation> Difference(const FlatRelation& a,
                                const FlatRelation& b) {
  NF2_RETURN_IF_ERROR(RequireSameSchema(a, b));
  std::vector<FlatTuple> tuples;
  for (const FlatTuple& t : a.tuples()) {
    if (!b.Contains(t)) tuples.push_back(t);
  }
  return FlatRelation(a.schema(), std::move(tuples));
}

Result<FlatRelation> Intersect(const FlatRelation& a,
                               const FlatRelation& b) {
  NF2_RETURN_IF_ERROR(RequireSameSchema(a, b));
  std::vector<FlatTuple> tuples;
  for (const FlatTuple& t : a.tuples()) {
    if (b.Contains(t)) tuples.push_back(t);
  }
  return FlatRelation(a.schema(), std::move(tuples));
}

Result<FlatRelation> CartesianProduct(const FlatRelation& a,
                                      const FlatRelation& b) {
  std::vector<Attribute> attrs = a.schema().attributes();
  for (const Attribute& attr : b.schema().attributes()) {
    if (a.schema().IndexOf(attr.name).has_value()) {
      return Status::InvalidArgument(
          StrCat("attribute name collision in product: ", attr.name));
    }
    attrs.push_back(attr);
  }
  Schema schema(std::move(attrs));
  std::vector<FlatTuple> tuples;
  tuples.reserve(a.size() * b.size());
  for (const FlatTuple& ta : a.tuples()) {
    for (const FlatTuple& tb : b.tuples()) {
      std::vector<Value> values = ta.values();
      values.insert(values.end(), tb.values().begin(), tb.values().end());
      tuples.emplace_back(std::move(values));
    }
  }
  return FlatRelation(std::move(schema), std::move(tuples));
}

FlatRelation NaturalJoin(const FlatRelation& left,
                         const FlatRelation& right) {
  std::vector<std::pair<size_t, size_t>> shared;  // (left idx, right idx)
  std::vector<size_t> right_only;
  for (size_t j = 0; j < right.degree(); ++j) {
    std::optional<size_t> li =
        left.schema().IndexOf(right.schema().attribute(j).name);
    if (li.has_value()) {
      shared.emplace_back(*li, j);
    } else {
      right_only.push_back(j);
    }
  }
  std::vector<Attribute> attrs = left.schema().attributes();
  for (size_t j : right_only) {
    attrs.push_back(right.schema().attribute(j));
  }
  Schema joined_schema(std::move(attrs));

  std::map<std::vector<Value>, std::vector<const FlatTuple*>> index;
  for (const FlatTuple& rt : right.tuples()) {
    std::vector<Value> key;
    key.reserve(shared.size());
    for (const auto& [li, rj] : shared) key.push_back(rt.at(rj));
    index[std::move(key)].push_back(&rt);
  }
  std::vector<FlatTuple> out;
  for (const FlatTuple& lt : left.tuples()) {
    std::vector<Value> key;
    key.reserve(shared.size());
    for (const auto& [li, rj] : shared) key.push_back(lt.at(li));
    auto it = index.find(key);
    if (it == index.end()) continue;
    for (const FlatTuple* rt : it->second) {
      std::vector<Value> values = lt.values();
      for (size_t j : right_only) values.push_back(rt->at(j));
      out.emplace_back(std::move(values));
    }
  }
  return FlatRelation(std::move(joined_schema), std::move(out));
}

Result<FlatRelation> Rename(const FlatRelation& rel, const std::string& from,
                            const std::string& to) {
  NF2_ASSIGN_OR_RETURN(size_t idx, rel.schema().RequireIndex(from));
  if (rel.schema().IndexOf(to).has_value()) {
    return Status::AlreadyExists(
        StrCat("attribute '", to, "' already exists"));
  }
  std::vector<Attribute> attrs = rel.schema().attributes();
  attrs[idx].name = to;
  return FlatRelation(Schema(std::move(attrs)), rel.tuples());
}

NfrRelation SelectNfrTuples(const NfrRelation& rel, const Predicate& pred) {
  std::vector<NfrTuple> out;
  for (const NfrTuple& t : rel.tuples()) {
    if (pred.EvalNfrAny(t)) out.push_back(t);
  }
  return NfrRelation(rel.schema(), std::move(out));
}

NfrRelation SelectNfrExact(const NfrRelation& rel, const Predicate& pred) {
  std::vector<NfrTuple> out;
  for (const NfrTuple& t : rel.tuples()) {
    if (!pred.EvalNfrAny(t)) continue;  // Cheap pre-filter.
    for (const FlatTuple& flat : t.Expand()) {
      if (pred.EvalFlat(flat)) {
        out.push_back(NfrTuple::FromFlat(flat));
      }
    }
  }
  return NfrRelation(rel.schema(), std::move(out));
}

Result<std::vector<GroupCount>> GroupedDistinctCounts(
    const NfrRelation& rel, size_t group_attr, size_t counted_attr) {
  if (group_attr >= rel.degree() || counted_attr >= rel.degree()) {
    return Status::OutOfRange("aggregate attribute out of range");
  }
  if (group_attr == counted_attr) {
    return Status::InvalidArgument(
        "GROUP BY attribute equals the counted attribute");
  }
  // Distinct counted values per group value. NFR tuples contribute
  // their counted component once per contained group value; sets union
  // across tuples (a group value may appear in several tuples). The
  // accumulation runs interned: group and counted values intern once per
  // tuple, the per-group unions are integer merges, and the dictionary's
  // rank order recovers the sorted-by-group output contract.
  ValueDictionary dict;
  std::unordered_map<ValueId, IdSet> per_group;
  for (const NfrTuple& t : rel.tuples()) {
    IdSet groups = InternValueSet(&dict, t.at(group_attr));
    IdSet counted = InternValueSet(&dict, t.at(counted_attr));
    for (ValueId g : groups.ids()) {
      IdSet& acc = per_group[g];
      acc = acc.Union(counted);
    }
  }
  std::vector<ValueId> group_ids;
  group_ids.reserve(per_group.size());
  for (const auto& [g, counted] : per_group) group_ids.push_back(g);
  std::sort(group_ids.begin(), group_ids.end(),
            [&dict](ValueId a, ValueId b) {
              return dict.CompareIds(a, b) < 0;
            });
  std::vector<GroupCount> out;
  out.reserve(group_ids.size());
  for (ValueId g : group_ids) {
    out.push_back(GroupCount{dict.value(g), per_group[g].size()});
  }
  return out;
}

NfrRelation ProjectNfr(const NfrRelation& rel,
                       const std::vector<size_t>& attrs) {
  Schema projected = rel.schema().Project(attrs);
  std::vector<NfrTuple> out;
  out.reserve(rel.size());
  for (const NfrTuple& t : rel.tuples()) {
    std::vector<ValueSet> components;
    components.reserve(attrs.size());
    for (size_t a : attrs) components.push_back(t.at(a));
    NfrTuple projected_tuple(std::move(components));
    if (std::find(out.begin(), out.end(), projected_tuple) == out.end()) {
      out.push_back(std::move(projected_tuple));
    }
  }
  return NfrRelation(std::move(projected), std::move(out));
}

}  // namespace nf2
