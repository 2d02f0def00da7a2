#include "storage/table.h"

#include <atomic>
#include <chrono>

#include "storage/serde.h"
#include "util/string_util.h"

namespace nf2 {

namespace {
constexpr uint32_t kTableMagic = 0x4e463252;  // "NF2R".
}  // namespace

std::string EncodeTableMeta(const TableMeta& meta) {
  BufferWriter out;
  out.PutU32(kTableMagic);
  EncodeSchema(meta.schema, &out);
  out.PutU32(static_cast<uint32_t>(meta.nest_order.size()));
  for (size_t p : meta.nest_order) {
    out.PutU32(static_cast<uint32_t>(p));
  }
  out.PutU64(meta.file_id);
  return out.data();
}

Result<TableMeta> DecodeTableMeta(std::string_view bytes) {
  BufferReader in(bytes);
  NF2_ASSIGN_OR_RETURN(uint32_t magic, in.GetU32());
  if (magic != kTableMagic) {
    return Status::Corruption("bad table magic");
  }
  TableMeta meta;
  NF2_ASSIGN_OR_RETURN(meta.schema, DecodeSchema(&in));
  NF2_ASSIGN_OR_RETURN(uint32_t n, in.GetU32());
  meta.nest_order.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    NF2_ASSIGN_OR_RETURN(uint32_t p, in.GetU32());
    meta.nest_order.push_back(p);
  }
  if (!IsValidPermutation(meta.nest_order, meta.schema.degree())) {
    return Status::Corruption("stored nest order is not a permutation");
  }
  // Files written before the manifest era end here; their id stays 0,
  // which every manifest check treats as "mapping does not apply".
  if (in.remaining() >= 8) {
    NF2_ASSIGN_OR_RETURN(meta.file_id, in.GetU64());
  }
  return meta;
}

uint64_t NewTableFileId() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t t = static_cast<uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  const uint64_t c = counter.fetch_add(1, std::memory_order_relaxed);
  // splitmix64-style mix: ids must differ across process restarts, so
  // wall time seeds the hash and the counter separates ids minted in
  // the same tick. A collision is only ever detected work (the CRC
  // check fails closed), never silent corruption.
  uint64_t x = t + 0x9E3779B97F4A7C15ull * (c + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

Result<std::vector<Page>> SerializeTablePages(const Schema& schema,
                                              const Permutation& nest_order,
                                              uint64_t file_id,
                                              const NfrRelation& relation) {
  if (relation.schema() != schema) {
    return Status::InvalidArgument("relation schema mismatch on serialize");
  }
  std::vector<Page> pages(1);
  pages.back().Format();
  if (!pages.back()
           .Insert(EncodeTableMeta({schema, nest_order, file_id}))
           .has_value()) {
    return Status::Internal("metadata does not fit in one page");
  }
  BufferWriter out;
  for (const NfrTuple& t : relation.tuples()) {
    out.Clear();
    EncodeNfrTuple(t, &out);
    if (!pages.back().Insert(out.data()).has_value()) {
      pages.emplace_back();
      pages.back().Format();
      if (!pages.back().Insert(out.data()).has_value()) {
        return Status::InvalidArgument(
            StrCat("tuple record of ", out.size(),
                   " bytes does not fit in a fresh page"));
      }
    }
  }
  return pages;
}

}  // namespace nf2
