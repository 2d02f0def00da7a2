// nf2bench — the wire-level benchmark driver (see README.md).
//
//   nf2bench --workload W --seed N --seconds S --trace 0|1
//            --nf2d PATH --work-dir DIR [--trace-out FILE]
//   nf2bench --selftest
//
// Prints one JSON object as its last line: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

std::string UnitOf(const std::string& name) {
  auto ends = [&](const char* s) {
    const size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (ends("_bytes") || ends("_bytes_per_write")) return "B";
  if (ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_s")) return "1/s";
  if (ends("_ratio") || ends("_per_commit") || ends("_per_update") ||
      ends("_per_row") || ends("_per_segment") || ends("_per_scatter")) {
    return "ratio";
  }
  return "count";
}

void PrintResult(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.process_start = Clock::now();
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : "";
    if (flag == "--selftest") { selftest = true; continue; }
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::stoull(value);
    else if (flag == "--seconds") opt.seconds = std::stoi(value);
    else if (flag == "--trace") opt.trace = std::string(value) == "1";
    else if (flag == "--nf2d") opt.nf2d = value;
    else if (flag == "--work-dir") opt.work_dir = value;
    else if (flag == "--trace-out") opt.trace_out = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
    ++i;
  }
  if (selftest) return SelfTest();
  if (opt.workload.empty() || opt.nf2d.empty() || opt.work_dir.empty() ||
      opt.seconds < 1) {
    std::fprintf(stderr, "usage: nf2bench --workload W --seed N --seconds S "
                         "--trace 0|1 --nf2d PATH --work-dir DIR\n");
    return 2;
  }
  Plan plan;
  try {
    plan = MakeSetup(opt.workload, opt.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);
  WireOutput wire = RunWire(opt, &plan);
  RunResult result = wire.result;
  if (opt.trace) {
    Metrics layer;
    for (const auto& [name, v] : wire.layer) layer[name] = {UnitOf(name), v};
    RunTraced(opt, plan, &layer, &result);
    if (plan.workload == "ingest" &&
        layer["server.main_compositions"].value != layer["core.main_compositions"].value) {
      result.Fail("shadow compositions differ from the server's nf2_compo_total delta");
    }
    result.metrics = layer;
  }
  std::filesystem::remove_all(opt.work_dir);
  for (const std::string& e : result.errors) std::fprintf(stderr, "check: %s\n", e.c_str());
  PrintResult(result);
  return 0;
}
