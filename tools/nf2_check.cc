// nf2_check — offline integrity checker for an nf2db database directory.
//
//   $ nf2_check <db_dir>
//
// Verifies, for every cataloged relation:
//   1. the table file loads and its tuples match the schema,
//   2. the stored NFR is well-formed (disjoint expansions),
//   3. it is exactly the canonical form V_P(R*) for its nest order,
//   4. declared FDs hold on R* (MVDs are reported but not required —
//      the paper's §2 point),
//   5. the WAL replays cleanly on top (by opening the engine).
//
// Exit code 0 when everything checks out.

#include <cstdio>
#include <filesystem>

#include "core/nest.h"
#include "engine/database.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <db_dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  if (!std::filesystem::exists(dir)) {
    std::fprintf(stderr, "no such directory: %s\n", dir.c_str());
    return 2;
  }
  // Opening the database runs recovery, which itself verifies stored
  // canonical forms and replays the WAL.
  auto db = nf2::Database::Open(dir);
  if (!db.ok()) {
    std::printf("FAIL: recovery: %s\n", db.status().ToString().c_str());
    return 1;
  }
  nf2::Status audit = (*db)->VerifyIntegrity();
  if (!audit.ok()) {
    std::printf("FAIL: integrity audit: %s\n", audit.ToString().c_str());
    return 1;
  }
  int failures = 0;
  for (const std::string& name : (*db)->ListRelations()) {
    auto info = (*db)->Info(name);
    auto rel = (*db)->Relation(name);
    if (!info.ok() || !rel.ok()) {
      std::printf("FAIL %s: metadata missing\n", name.c_str());
      ++failures;
      continue;
    }
    nf2::Status valid = (*rel)->Validate();
    bool canonical = (*rel)->EqualsAsSet(
        nf2::CanonicalForm((*rel)->Expand(), (*info)->nest_order));
    bool fds_ok = (*info)->fd_set().SatisfiedBy((*rel)->Expand());
    bool mvds_ok = (*info)->mvd_set().SatisfiedBy((*rel)->Expand());
    if (!valid.ok() || !canonical || !fds_ok) {
      std::printf("FAIL %s: well-formed=%s canonical=%s fds=%s\n",
                  name.c_str(), valid.ok() ? "yes" : "NO",
                  canonical ? "yes" : "NO", fds_ok ? "yes" : "NO");
      ++failures;
      continue;
    }
    auto stats = (*db)->Stats(name);
    std::printf("OK   %s: %zu NFR tuples, |R*|=%llu, canonical, "
                "FDs hold, MVDs %s\n",
                name.c_str(), (*rel)->size(),
                static_cast<unsigned long long>((*rel)->ExpandedSize()),
                mvds_ok ? "hold" : "do not currently hold (advisory)");
    (void)stats;
  }
  if (failures == 0) {
    std::printf("database %s: all checks passed\n", dir.c_str());
    return 0;
  }
  std::printf("database %s: %d relation(s) FAILED\n", dir.c_str(), failures);
  return 1;
}
