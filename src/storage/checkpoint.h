#ifndef NF2_STORAGE_CHECKPOINT_H_
#define NF2_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/nest.h"
#include "core/relation.h"
#include "core/schema.h"
#include "storage/env.h"
#include "storage/page.h"
#include "storage/serde.h"
#include "util/result.h"

namespace nf2 {

/// Incremental, page-level checkpoints (DESIGN.md §12).
///
/// A checkpoint no longer rewrites every table file. Instead each table
/// file is shadow-paged: the MANIFEST maps every *logical* page of a
/// table to the *physical* page slot holding its live version. Writing
/// a checkpoint serializes the relation into logical page images, skips
/// every page whose CRC matches the manifest, and writes the changed
/// ones into physical slots the durable manifest does NOT reference —
/// old versions stay intact until the next manifest is published by an
/// atomic rename. The WAL truncate after that rename is the commit
/// point: a crash anywhere earlier recovers from the old manifest plus
/// a full (idempotent) replay, a crash after it from the new manifest.

/// The live version of one logical page.
struct PageVersion {
  PageId physical = kInvalidPageId;  // Slot in the heap file.
  uint64_t version = 0;              // checkpoint_seq that wrote it.
  uint32_t crc = 0;                  // CRC32 of the full page image.

  bool operator==(const PageVersion&) const = default;
};

/// The manifest entry for one table file.
struct TableManifest {
  /// Identity stamp of the file the mapping was built against (from the
  /// table's metadata record). A mismatch on recovery means the file
  /// was wholesale-replaced (CREATE after DROP) after this manifest was
  /// written — the mapping is stale and the file is read flat instead.
  uint64_t file_id = 0;
  /// Physical size of the heap file, in pages, after the checkpoint.
  PageId physical_pages = 0;
  /// Logical page index -> live version. Index 0 is the metadata page;
  /// its content never changes for a given file, so physical slot 0 is
  /// never recycled as a shadow slot.
  std::vector<PageVersion> pages;

  bool operator==(const TableManifest&) const = default;
};

/// The whole-database checkpoint manifest, persisted as MANIFEST.nf2
/// via WriteFileAtomic (never torn; either the old mapping or the new
/// one is on disk).
struct Manifest {
  uint64_t checkpoint_seq = 0;  // Monotone, bumped per checkpoint.
  uint64_t dict_size = 0;       // Dictionary entries covered by dict.nf2.
  std::map<std::string, TableManifest> tables;  // Key: table file name.
  /// WAL stream position carried across the truncate this checkpoint
  /// commits with: the truncate bumps the log to `wal_epoch` and its
  /// first post-truncate record gets lsn >= `wal_base_lsn`. Recovery
  /// folds these into the reopened log (AdoptDurablePosition) so a
  /// stream position (epoch, lsn) is never reissued across a restart.
  /// Both 0 on manifests written before replication existed.
  uint64_t wal_epoch = 0;
  uint64_t wal_base_lsn = 0;

  bool operator==(const Manifest&) const = default;
};

void EncodeManifest(const Manifest& m, BufferWriter* out);
Result<Manifest> DecodeManifest(BufferReader* in);

/// Loads and CRC-verifies the manifest; NotFound when the file does not
/// exist (a fresh or pre-manifest database), Corruption when it fails
/// validation — recovery must then fail closed rather than guess a
/// page mapping.
Result<Manifest> LoadManifest(Env* env, const std::string& path);

/// Atomically replaces the manifest file (write temp -> sync -> rename
/// -> sync dir).
Status SaveManifestAtomic(Env* env, const std::string& path,
                          const Manifest& m);

/// What one CheckpointTableDelta call did.
struct CheckpointDeltaStats {
  uint64_t pages_written = 0;
  uint64_t pages_skipped = 0;
  uint64_t bytes_written = 0;

  CheckpointDeltaStats& operator+=(const CheckpointDeltaStats& o) {
    pages_written += o.pages_written;
    pages_skipped += o.pages_skipped;
    bytes_written += o.bytes_written;
    return *this;
  }
};

/// Writes `relation` into the table file at `path` as a page-level
/// delta against `*entry` (the durable manifest's mapping for the
/// file), updating `*entry` in place to the new mapping:
///  - Durable mapping present (entry matches the file's identity
///    stamp): changed logical pages go to physical slots the old
///    mapping does not reference (shadow paging); unchanged pages are
///    skipped. Safe because recovery reads such a file only through
///    the durable mapping, never flat.
///  - No durable mapping (missing file, fresh CREATE, or a stale
///    entry): if the serialized pages already equal the file's pages
///    (a fresh ReplaceTableFile product) the identity mapping is
///    adopted with zero writes; otherwise the file is replaced
///    wholesale via ReplaceTableFile — shadow slots in an unmapped
///    file are not crash-protected, so in-place deltas are off the
///    table.
/// The file is fdatasync'd before returning whenever anything was
/// written. The caller must only persist `*entry` (SaveManifestAtomic)
/// AFTER this returns OK.
Result<CheckpointDeltaStats> CheckpointTableDelta(
    Env* env, const std::string& path, const Schema& schema,
    const Permutation& nest_order, const NfrRelation& relation,
    TableManifest* entry, uint64_t new_version);

/// Crash-atomic whole-file replacement: writes `pages` (physical page
/// i = pages[i]) to a sibling temp path, fdatasyncs it, renames it over
/// `path` and syncs the parent directory. A crash at any point leaves
/// either the old file or the complete new one, never a torn hybrid.
/// CREATE writes its empty table file this way; so does a checkpoint
/// whose file no durable manifest entry protects.
Status ReplaceTableFile(Env* env, const std::string& path,
                        const std::vector<Page>& pages);

/// A table file decoded by ReadTableFlat or ReadTableMapped.
struct StoredTable {
  Schema schema;
  Permutation nest_order;
  uint64_t file_id = 0;
  NfrRelation relation;
};

/// Reads the table at `path` flat: physical page i is logical page i,
/// with no CRCs to check (a flat file is only ever renamed into place
/// whole). Corruption when the file has no metadata page, is not
/// page-aligned, carries a bad metadata record, or stores a tuple of
/// the wrong degree.
Result<StoredTable> ReadTableFlat(Env* env, const std::string& path);

/// Reads the table at `path` through `entry`'s logical->physical
/// mapping, verifying every page against its manifest CRC and the
/// file_id against the metadata record. Any mismatch is Corruption:
/// a mapped read must never silently mix page versions.
Result<StoredTable> ReadTableMapped(Env* env, const std::string& path,
                                    const TableManifest& entry);

/// The file_id stamped in the table file's metadata record (physical
/// page 0, slot 0), or 0 when it cannot be read — callers treat 0 as
/// "mapping does not apply" and fall back to a flat read, which
/// surfaces real corruption with a proper error.
uint64_t ProbeTableFileId(Env* env, const std::string& path);

}  // namespace nf2

#endif  // NF2_STORAGE_CHECKPOINT_H_
