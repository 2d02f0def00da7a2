// Reproduces Figures 1 and 2 of the paper: the motivating NFRs
// R1[Student, Course, Club] and R2[Student, Course, Semester], and the
// update "student s1 stops taking course c1". In R1 (which satisfies
// Student ->-> Course | Club) the deletion is a value drop inside one
// tuple; in R2 (no MVD) the same logical deletion splits a tuple and
// re-composes others — the "complicated operations" of §2, executed
// here by the §4 deletion algorithm.

#include <cstdio>

#include "bench/workload.h"
#include "core/fixedness.h"
#include "core/format.h"
#include "core/update.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {
namespace {

FlatRelation Fig1R1Flat() {
  // R1 as drawn: s1,s3 take {c1,c2,c3} in club b1; s2 takes {c1,c2,c3}
  // in club b2.
  FlatRelation rel(Schema::OfStrings({"Student", "Course", "Club"}));
  for (const char* s : {"s1", "s2", "s3"}) {
    const char* club = (s[1] == '2') ? "b2" : "b1";
    for (const char* c : {"c1", "c2", "c3"}) {
      rel.Insert(FlatTuple{V(s), V(c), V(club)});
    }
  }
  return rel;
}

FlatRelation Fig1R2Flat() {
  // R2 as drawn: [s1,s2,s3 | c1,c2 | t1], [s1,s3 | c3 | t1],
  // [s2 | c3 | t2].
  FlatRelation rel(Schema::OfStrings({"Student", "Course", "Semester"}));
  for (const char* s : {"s1", "s2", "s3"}) {
    for (const char* c : {"c1", "c2"}) {
      rel.Insert(FlatTuple{V(s), V(c), V("t1")});
    }
  }
  rel.Insert(FlatTuple{V("s1"), V("c3"), V("t1")});
  rel.Insert(FlatTuple{V("s3"), V("c3"), V("t1")});
  rel.Insert(FlatTuple{V("s2"), V("c3"), V("t2")});
  return rel;
}

void Run() {
  std::printf("Reproduction of Fig. 1 / Fig. 2 (paper section 2)\n");
  std::printf("=================================================\n");

  // ---- Fig. 1 ----
  FlatRelation r1_flat = Fig1R1Flat();
  FlatRelation r2_flat = Fig1R2Flat();
  Permutation p1 = *PermutationFromNames(
      r1_flat.schema(), {"Course", "Club", "Student"});
  Permutation p2 = *PermutationFromNames(
      r2_flat.schema(), {"Student", "Course", "Semester"});
  CanonicalRelation r1 = *CanonicalRelation::FromFlat(r1_flat, p1);
  CanonicalRelation r2 = *CanonicalRelation::FromFlat(r2_flat, p2);

  std::printf(
      "\nFig. 1 (paper): R1 = {[s1,s3|c1,c2,c3|b1], [s2|c1,c2,c3|b2]}\n");
  std::printf("Fig. 1 (ours):\n%s",
              RenderTable(r1.relation(), "R1").c_str());
  std::printf(
      "\nFig. 1 (paper): R2 = {[s1,s2,s3|c1,c2|t1], [s1,s3|c3|t1], "
      "[s2|c3|t2]}\n");
  std::printf("Fig. 1 (ours):\n%s",
              RenderTable(r2.relation(), "R2").c_str());

  // ---- The update: drop (s1, c1, *) ----
  UpdateStats before_r1 = r1.stats();
  Status s1 = r1.Delete(FlatTuple{V("s1"), V("c1"), V("b1")});
  NF2_CHECK(s1.ok()) << s1;
  UpdateStats delta_r1 = r1.stats() - before_r1;

  UpdateStats before_r2 = r2.stats();
  Status s2 = r2.Delete(FlatTuple{V("s1"), V("c1"), V("t1")});
  NF2_CHECK(s2.ok()) << s2;
  UpdateStats delta_r2 = r2.stats() - before_r2;

  std::printf(
      "\nFig. 2 (paper): R1 = {[s1|c2,c3|b1], [s2|c1,c2,c3|b2], "
      "[s3|c1,c2,c3|b1]}\n");
  std::printf("Fig. 2 (ours):\n%s",
              RenderTable(r1.relation(), "R1 after delete").c_str());
  std::printf(
      "\nFig. 2 (paper): R2 = {[s2,s3|c1,c2|t1], [s1|c2|t1], "
      "[s1,s3|c3|t1], [s2|c3|t2]}\n");
  std::printf("Fig. 2 (ours):\n%s",
              RenderTable(r2.relation(), "R2 after delete").c_str());
  std::printf(
      "\n(Note: the paper prints one specific irreducible form of R2; the\n"
      " engine maintains the *canonical* form for its fixed nest order —\n"
      " both denote the same R*, verified below.)\n");

  // Verify equivalence with the paper's stated outcomes.
  FlatRelation expected_r1 = Fig1R1Flat();
  expected_r1.Erase(FlatTuple{V("s1"), V("c1"), V("b1")});
  FlatRelation expected_r2 = Fig1R2Flat();
  expected_r2.Erase(FlatTuple{V("s1"), V("c1"), V("t1")});
  bool ok_r1 = r1.relation().Expand() == expected_r1;
  bool ok_r2 = r2.relation().Expand() == expected_r2;

  bench::PrintReportTable(
      "Fig.1 -> Fig.2 deletion, measured",
      {"relation", "MVD?", "R* ok", "tuples before", "tuples after",
       "compositions", "decompositions", "fixed on Student"},
      {{"R1", "Student->->Course|Club", ok_r1 ? "yes" : "NO", "2",
        std::to_string(r1.size()), std::to_string(delta_r1.compositions),
        std::to_string(delta_r1.decompositions),
        IsFixedOn(r1.relation(), {0}) ? "yes" : "no"},
       {"R2", "none", ok_r2 ? "yes" : "NO", "3",
        std::to_string(r2.size()), std::to_string(delta_r2.compositions),
        std::to_string(delta_r2.decompositions),
        IsFixedOn(r2.relation(), {0}) ? "yes" : "no"}});

  std::printf(
      "\nShape check: R1 (with the MVD) stays one-tuple-per-student (fixed\n"
      "on Student), so the delete was a value drop inside the student's\n"
      "tuple. R2 (no MVD) ends with students scattered across tuples and a\n"
      "grown tuple count (3 -> %zu) — the §2 \"complicated operations\".\n",
      r2.size());
  NF2_CHECK(ok_r1 && ok_r2) << "Fig.2 reproduction mismatch";
}

}  // namespace
}  // namespace nf2

int main() {
  nf2::Run();
  return 0;
}
