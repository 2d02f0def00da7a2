#include "storage/checkpoint.h"

#include <filesystem>
#include <vector>

#include "storage/heap_file.h"
#include "storage/table.h"
#include "util/string_util.h"

namespace nf2 {

namespace {
constexpr uint32_t kManifestMagic = 0x4e463243;  // "NF2C".
constexpr uint32_t kManifestVersion = 1;

std::string_view PageView(const Page& page) {
  return std::string_view(page.data(), kPageSize);
}
}  // namespace

void EncodeManifest(const Manifest& m, BufferWriter* out) {
  out->PutU32(kManifestMagic);
  out->PutU32(kManifestVersion);
  out->PutU64(m.checkpoint_seq);
  out->PutU64(m.dict_size);
  out->PutU32(static_cast<uint32_t>(m.tables.size()));
  for (const auto& [name, t] : m.tables) {
    out->PutString(name);
    out->PutU64(t.file_id);
    out->PutU32(t.physical_pages);
    out->PutU32(static_cast<uint32_t>(t.pages.size()));
    for (const PageVersion& pv : t.pages) {
      out->PutU32(pv.physical);
      out->PutU64(pv.version);
      out->PutU32(pv.crc);
    }
  }
  out->PutU64(m.wal_epoch);
  out->PutU64(m.wal_base_lsn);
}

Result<Manifest> DecodeManifest(BufferReader* in) {
  NF2_ASSIGN_OR_RETURN(uint32_t magic, in->GetU32());
  if (magic != kManifestMagic) {
    return Status::Corruption("bad manifest magic");
  }
  NF2_ASSIGN_OR_RETURN(uint32_t version, in->GetU32());
  if (version != kManifestVersion) {
    return Status::Corruption(
        StrCat("unsupported manifest version ", version));
  }
  Manifest m;
  NF2_ASSIGN_OR_RETURN(m.checkpoint_seq, in->GetU64());
  NF2_ASSIGN_OR_RETURN(m.dict_size, in->GetU64());
  NF2_ASSIGN_OR_RETURN(uint32_t n_tables, in->GetU32());
  for (uint32_t i = 0; i < n_tables; ++i) {
    NF2_ASSIGN_OR_RETURN(std::string name, in->GetString());
    TableManifest t;
    NF2_ASSIGN_OR_RETURN(t.file_id, in->GetU64());
    NF2_ASSIGN_OR_RETURN(t.physical_pages, in->GetU32());
    NF2_ASSIGN_OR_RETURN(uint32_t n_pages, in->GetU32());
    t.pages.reserve(n_pages);
    for (uint32_t p = 0; p < n_pages; ++p) {
      PageVersion pv;
      NF2_ASSIGN_OR_RETURN(pv.physical, in->GetU32());
      NF2_ASSIGN_OR_RETURN(pv.version, in->GetU64());
      NF2_ASSIGN_OR_RETURN(pv.crc, in->GetU32());
      if (pv.physical >= t.physical_pages) {
        return Status::Corruption(
            StrCat("manifest maps logical page ", p, " of ", name,
                   " to physical ", pv.physical, " past file end ",
                   t.physical_pages));
      }
      t.pages.push_back(pv);
    }
    m.tables.emplace(std::move(name), std::move(t));
  }
  // WAL position fields postdate kManifestVersion's introduction;
  // manifests written before them simply end here, which reads as
  // position (0, 0) — "nothing to adopt".
  if (!in->AtEnd()) {
    NF2_ASSIGN_OR_RETURN(m.wal_epoch, in->GetU64());
    NF2_ASSIGN_OR_RETURN(m.wal_base_lsn, in->GetU64());
  }
  return m;
}

Result<Manifest> LoadManifest(Env* env, const std::string& path) {
  if (!env->FileExists(path)) {
    return Status::NotFound(StrCat("manifest ", path, " not found"));
  }
  NF2_ASSIGN_OR_RETURN(std::string bytes, env->ReadFileToString(path));
  if (bytes.size() < 4) {
    return Status::Corruption("manifest too short for checksum");
  }
  std::string_view payload(bytes.data(), bytes.size() - 4);
  BufferReader crc_reader(
      std::string_view(bytes.data() + payload.size(), 4));
  NF2_ASSIGN_OR_RETURN(uint32_t stored_crc, crc_reader.GetU32());
  if (Crc32(payload) != stored_crc) {
    return Status::Corruption("manifest checksum mismatch");
  }
  BufferReader in(payload);
  NF2_ASSIGN_OR_RETURN(Manifest m, DecodeManifest(&in));
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes after manifest");
  }
  return m;
}

Status SaveManifestAtomic(Env* env, const std::string& path,
                          const Manifest& m) {
  BufferWriter payload;
  EncodeManifest(m, &payload);
  BufferWriter file;
  file.PutRaw(payload.data());
  file.PutU32(Crc32(payload.data()));
  return env->WriteFileAtomic(path, file.data());
}

Status ReplaceTableFile(Env* env, const std::string& path,
                        const std::vector<Page>& pages) {
  const std::string tmp = path + ".tmp";
  {
    NF2_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> file,
                         HeapFile::Create(env, tmp));
    for (size_t i = 0; i < pages.size(); ++i) {
      NF2_RETURN_IF_ERROR(
          file->WritePageAt(static_cast<PageId>(i), pages[i]));
    }
    NF2_RETURN_IF_ERROR(file->Sync());
  }
  NF2_RETURN_IF_ERROR(env->RenameFile(tmp, path));
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  return env->SyncDir(dir);
}

namespace {
// Replaces the file at `path` wholesale with `pages` and sets `*entry`
// to their identity mapping. The safe path whenever no DURABLE
// manifest entry protects the file — shadow-writing into such a file
// and crashing before the manifest lands would make the flat-read
// fallback see mixed pages.
Status ReplaceWithIdentityMapping(Env* env, const std::string& path,
                                  const std::vector<Page>& pages,
                                  uint64_t file_id, uint64_t new_version,
                                  TableManifest* entry,
                                  CheckpointDeltaStats* stats) {
  NF2_RETURN_IF_ERROR(ReplaceTableFile(env, path, pages));
  TableManifest next;
  next.file_id = file_id;
  next.physical_pages = static_cast<PageId>(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    next.pages.push_back(
        {static_cast<PageId>(i), new_version, Crc32(PageView(pages[i]))});
  }
  stats->pages_written += pages.size();
  stats->bytes_written += pages.size() * kPageSize;
  *entry = std::move(next);
  return Status::OK();
}

// The one page decoder behind ReadTableFlat and ReadTableMapped. Logical
// page i is physical page i when `entry` is null (a flat read, no CRCs)
// and `entry->pages[i]` otherwise, checked against its CRC and, for the
// metadata page, the entry's file identity.
Result<StoredTable> DecodeTablePages(HeapFile* file, const std::string& path,
                                     const TableManifest* entry) {
  const size_t logical_pages =
      entry != nullptr ? entry->pages.size() : file->page_count();
  if (logical_pages == 0) {
    return Status::Corruption(
        StrCat("table file ", path, " has no metadata page"));
  }
  StoredTable out;
  Page page;
  for (size_t i = 0; i < logical_pages; ++i) {
    const PageId physical = entry != nullptr ? entry->pages[i].physical
                                             : static_cast<PageId>(i);
    if (physical >= file->page_count()) {
      return Status::Corruption(
          StrCat("manifest maps logical page ", i, " of ", path,
                 " past file end"));
    }
    NF2_RETURN_IF_ERROR(file->ReadPage(physical, &page));
    if (entry != nullptr && Crc32(PageView(page)) != entry->pages[i].crc) {
      return Status::Corruption(
          StrCat("page checksum mismatch on logical page ", i, " of ",
                 path));
    }
    if (i == 0) {
      NF2_ASSIGN_OR_RETURN(std::string meta_bytes, page.Read(0));
      NF2_ASSIGN_OR_RETURN(TableMeta meta, DecodeTableMeta(meta_bytes));
      if (entry != nullptr && meta.file_id != entry->file_id) {
        return Status::Corruption(
            StrCat("file identity mismatch on ", path,
                   ": manifest expects ", entry->file_id, ", file has ",
                   meta.file_id));
      }
      out.schema = std::move(meta.schema);
      out.nest_order = std::move(meta.nest_order);
      out.file_id = meta.file_id;
      out.relation = NfrRelation(out.schema);
    }
    for (auto& [slot, record] : page.LiveRecords()) {
      if (i == 0 && slot == 0) continue;  // Metadata record.
      BufferReader reader(record);
      NF2_ASSIGN_OR_RETURN(NfrTuple tuple, DecodeNfrTuple(&reader));
      if (tuple.degree() != out.schema.degree()) {
        return Status::Corruption("stored tuple degree mismatch");
      }
      out.relation.Add(std::move(tuple));
    }
  }
  return out;
}
}  // namespace

Result<CheckpointDeltaStats> CheckpointTableDelta(
    Env* env, const std::string& path, const Schema& schema,
    const Permutation& nest_order, const NfrRelation& relation,
    TableManifest* entry, uint64_t new_version) {
  CheckpointDeltaStats stats;

  uint64_t file_id =
      env->FileExists(path) ? ProbeTableFileId(env, path) : 0;

  if (file_id == 0) {
    // Missing (or unreadable) file: write from scratch under a fresh
    // identity stamp.
    file_id = NewTableFileId();
    NF2_ASSIGN_OR_RETURN(
        std::vector<Page> pages,
        SerializeTablePages(schema, nest_order, file_id, relation));
    NF2_RETURN_IF_ERROR(ReplaceWithIdentityMapping(
        env, path, pages, file_id, new_version, entry, &stats));
    return stats;
  }

  NF2_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFile> file,
      HeapFile::Open(env, path, /*tolerate_torn_tail=*/true));

  NF2_ASSIGN_OR_RETURN(
      std::vector<Page> pages,
      SerializeTablePages(schema, nest_order, file_id, relation));

  const bool durable_mapping =
      entry->file_id == file_id && !entry->pages.empty();
  TableManifest base = *entry;
  if (!durable_mapping) {
    // No durable entry protects this file (fresh CREATE, or an entry
    // built against a replaced file). Its current pages ARE the live
    // versions — adopt them as an identity baseline.
    base = TableManifest{};
    base.file_id = file_id;
    base.physical_pages = file->page_count();
    Page scratch;
    for (PageId i = 0; i < file->page_count(); ++i) {
      NF2_RETURN_IF_ERROR(file->ReadPage(i, &scratch));
      base.pages.push_back({i, /*version=*/0, Crc32(PageView(scratch))});
    }
    bool identical = pages.size() == base.pages.size();
    for (size_t i = 0; identical && i < pages.size(); ++i) {
      identical = Crc32(PageView(pages[i])) == base.pages[i].crc;
    }
    if (identical) {
      // A file freshly produced by ReplaceTableFile diffs to zero
      // writes: adopt the identity mapping, touch nothing.
      stats.pages_skipped += pages.size();
      *entry = std::move(base);
      return stats;
    }
    // Changed, and shadow slots in this file are NOT protected by the
    // durable manifest — a crash mid-shadow-write would feed mixed
    // pages to the flat-read fallback. Replace the file wholesale
    // (crash-atomic) instead; from the next checkpoint on, the durable
    // entry enables true page deltas.
    file.reset();
    NF2_RETURN_IF_ERROR(ReplaceWithIdentityMapping(
        env, path, pages, file_id, new_version, entry, &stats));
    return stats;
  }

  // Physical slots the durable mapping references must survive until
  // the next manifest is published; anything else below page_count is a
  // free shadow slot. Physical page 0 is never recycled: it always
  // holds the metadata record ProbeTableFileId reads.
  std::vector<bool> referenced(file->page_count(), false);
  if (!referenced.empty()) referenced[0] = true;
  for (const PageVersion& pv : base.pages) {
    if (pv.physical < referenced.size()) referenced[pv.physical] = true;
  }

  TableManifest next;
  next.file_id = file_id;
  PageId free_cursor = 1;
  bool wrote = false;
  for (size_t i = 0; i < pages.size(); ++i) {
    const uint32_t crc = Crc32(PageView(pages[i]));
    if (i < base.pages.size() && base.pages[i].crc == crc) {
      next.pages.push_back(base.pages[i]);
      ++stats.pages_skipped;
      continue;
    }
    PageId slot = kInvalidPageId;
    while (free_cursor < referenced.size()) {
      if (!referenced[free_cursor]) {
        slot = free_cursor;
        break;
      }
      ++free_cursor;
    }
    if (slot == kInvalidPageId) {
      slot = file->page_count();
      referenced.resize(file->page_count() + 1, false);
    }
    referenced[slot] = true;
    NF2_RETURN_IF_ERROR(file->WritePageAt(slot, pages[i]));
    next.pages.push_back({slot, new_version, crc});
    ++stats.pages_written;
    stats.bytes_written += kPageSize;
    wrote = true;
  }
  next.physical_pages = file->page_count();
  if (wrote) NF2_RETURN_IF_ERROR(file->Sync());
  *entry = std::move(next);
  return stats;
}

Result<StoredTable> ReadTableFlat(Env* env, const std::string& path) {
  NF2_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> file,
                       HeapFile::Open(env, path));
  return DecodeTablePages(file.get(), path, nullptr);
}

Result<StoredTable> ReadTableMapped(Env* env, const std::string& path,
                                    const TableManifest& entry) {
  if (entry.pages.empty()) {
    return Status::Corruption(
        StrCat("empty manifest mapping for ", path));
  }
  NF2_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFile> file,
      HeapFile::Open(env, path, /*tolerate_torn_tail=*/true));
  return DecodeTablePages(file.get(), path, &entry);
}

uint64_t ProbeTableFileId(Env* env, const std::string& path) {
  auto file = HeapFile::Open(env, path, /*tolerate_torn_tail=*/true);
  if (!file.ok() || (*file)->page_count() == 0) return 0;
  Page page;
  if (!(*file)->ReadPage(0, &page).ok()) return 0;
  auto record = page.Read(0);
  if (!record.ok()) return 0;
  auto meta = DecodeTableMeta(*record);
  if (!meta.ok()) return 0;
  return meta->file_id;
}

}  // namespace nf2
