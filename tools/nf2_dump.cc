// nf2_dump — prints the contents of a single nf2db table file (.tbl):
// the stored schema, nest order, page statistics, and every live tuple.
//
// Table files are shadow-paged by incremental checkpoints (DESIGN.md
// §12): when a MANIFEST.nf2 in the file's directory maps this file, the
// flat byte order contains stale page versions and only the manifest's
// logical->physical mapping is the live view — the dump follows it and
// says so. Without a (matching) manifest entry the file is read flat.
//
//   $ nf2_dump <table_file> [--tuples] [--shard <i>]
//
// For sharded databases (nf2d --shards N, DESIGN.md §13) the table
// files live under <db_dir>/shard-<i>/; --shard <i> redirects the
// given path into that shard's subdirectory, so scripts can keep the
// unsharded path and pick the shard with a flag.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/format.h"
#include "storage/checkpoint.h"
#include "storage/env.h"
#include "util/string_util.h"

namespace {

// Prints one decoded table file; `view` names how it was read.
void PrintTable(const char* file, const std::string& view,
                const nf2::StoredTable& table, bool show_tuples) {
  std::printf("table file : %s\n", file);
  std::printf("view       : %s\n", view.c_str());
  std::printf("schema     : %s\n", table.schema.ToString().c_str());
  std::vector<std::string> order_names;
  for (size_t p : table.nest_order) {
    order_names.push_back(table.schema.attribute(p).name);
  }
  std::printf("nest order : %s\n",
              nf2::Join(order_names, " then ").c_str());
  std::printf("tuples     : %zu\n", table.relation.size());
  uint64_t expanded = 0;
  for (const nf2::NfrTuple& tuple : table.relation.tuples()) {
    expanded += tuple.ExpandedCount();
  }
  std::printf("|R*|       : %llu\n",
              static_cast<unsigned long long>(expanded));
  if (show_tuples) {
    std::printf("\n");
    for (const nf2::NfrTuple& tuple : table.relation.tuples()) {
      std::printf("%s\n", tuple.ToString(table.schema).c_str());
    }
  } else {
    std::printf("\n%s", nf2::RenderTable(table.relation).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <table_file> [--tuples] [--shard <i>]\n",
                 argv[0]);
    return 2;
  }
  bool show_tuples = false;
  long shard = -1;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tuples") == 0) {
      show_tuples = true;
    } else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) {
      char* end = nullptr;
      shard = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || shard < 0) {
        std::fprintf(stderr, "--shard takes a non-negative index\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s <table_file> [--tuples] [--shard <i>]\n",
                   argv[0]);
      return 2;
    }
  }

  // Prefer the checkpoint manifest's page mapping when it covers this
  // file: that is the live view of a shadow-paged table.
  std::filesystem::path path(argv[1]);
  std::string shard_path;
  if (shard >= 0) {
    path = path.parent_path() / ("shard-" + std::to_string(shard)) /
           path.filename();
    shard_path = path.string();
    argv[1] = shard_path.data();
  }
  nf2::Env* env = nf2::Env::Default();
  auto manifest = nf2::LoadManifest(
      env, (path.parent_path() / "MANIFEST.nf2").string());
  if (manifest.ok()) {
    auto it = manifest->tables.find(path.filename().string());
    if (it != manifest->tables.end() && !it->second.pages.empty() &&
        nf2::ProbeTableFileId(env, argv[1]) == it->second.file_id) {
      auto mapped = nf2::ReadTableMapped(env, argv[1], it->second);
      if (!mapped.ok()) {
        std::fprintf(stderr, "mapped read failed: %s\n",
                     mapped.status().ToString().c_str());
        return 1;
      }
      PrintTable(argv[1],
                 nf2::StrCat("MANIFEST.nf2 mapping (", it->second.pages.size(),
                             " logical pages, ", it->second.physical_pages,
                             " physical)"),
                 *mapped, show_tuples);
      return 0;
    }
  } else if (manifest.status().code() != nf2::StatusCode::kNotFound) {
    std::fprintf(stderr, "warning: ignoring invalid MANIFEST.nf2: %s\n",
                 manifest.status().ToString().c_str());
  }

  auto flat = nf2::ReadTableFlat(env, argv[1]);
  if (!flat.ok()) {
    std::fprintf(stderr, "cannot read table: %s\n",
                 flat.status().ToString().c_str());
    return 1;
  }
  PrintTable(argv[1], "flat (no manifest mapping)", *flat, show_tuples);
  return 0;
}
