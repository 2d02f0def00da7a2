#ifndef NF2_STORAGE_TABLE_H_
#define NF2_STORAGE_TABLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/nest.h"
#include "core/relation.h"
#include "storage/page.h"
#include "util/result.h"

namespace nf2 {

/// The on-disk format of one table file — the paper's "realization
/// view": the nested relation IS the physical representation, one
/// record per NFR tuple, with correspondingly fewer records than the
/// 1NF expansion. Files are written only by storage/checkpoint.h
/// (ReplaceTableFile, CheckpointTableDelta) and read only through its
/// one page decoder (ReadTableFlat, ReadTableMapped).

/// The metadata record every table file carries in page 0, slot 0.
/// `file_id` is a unique identity stamp minted whenever the file is
/// built from scratch (CREATE, or a checkpoint's wholesale replacement);
/// the checkpoint manifest records it so recovery can tell a
/// shadow-paged file from one that was wholesale-replaced after the
/// manifest was written.
struct TableMeta {
  Schema schema;
  Permutation nest_order;
  uint64_t file_id = 0;  // 0 = pre-file_id file (legacy, read flat).
};

std::string EncodeTableMeta(const TableMeta& meta);
Result<TableMeta> DecodeTableMeta(std::string_view bytes);

/// A fresh, process-unique table file identity (never 0).
uint64_t NewTableFileId();

/// Deterministically packs `relation` into logical page images: the
/// metadata record in page 0 slot 0, then tuple records in tuple order,
/// each appended to the last page or, when it does not fit, to a fresh
/// one. A record larger than a fresh page is InvalidArgument. The
/// incremental checkpoint diffs these images against the manifest's
/// per-page CRCs to find the pages worth writing.
Result<std::vector<Page>> SerializeTablePages(const Schema& schema,
                                              const Permutation& nest_order,
                                              uint64_t file_id,
                                              const NfrRelation& relation);

}  // namespace nf2

#endif  // NF2_STORAGE_TABLE_H_
