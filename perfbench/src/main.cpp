// perfbench: one run of one workload against a real dmf-serve process.
//
//   perfbench --workload serve_st|route_mix|mutate_persist --seed N
//             --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR
//
// Prints the run stamp, a table of every metric (value, unit, samples),
// and as the last line one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// Exits 1 when an oracle or replica-parity check failed, 2 on bad usage
// or a set-up failure.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workload.h"

#ifndef PERFBENCH_CXX_ID
#define PERFBENCH_CXX_ID "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

long cache_bytes(int name) {
  const long v = ::sysconf(name);
  return v > 0 ? v : 0;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunConfig cfg;
  cfg.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--serve-bin") {
      cfg.serve_bin = value;
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  cfg.trace = trace != 0;
  if (cfg.workload.empty() || cfg.serve_bin.empty() || cfg.work_dir.empty() ||
      cfg.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --serve-bin PATH --work-dir DIR\n");
    return 2;
  }

#ifdef DMF_HAVE_OPENMP
  const char* openmp = "on";
#else
  const char* openmp = "off";
#endif
  std::printf("stamp workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, trace);
  std::printf("stamp nproc=%d l2_bytes=%ld l3_bytes=%ld openmp=%s\n", cfg.nproc,
              cache_bytes(_SC_LEVEL2_CACHE_SIZE),
              cache_bytes(_SC_LEVEL3_CACHE_SIZE), openmp);
  std::printf("stamp compiler=\"%s\" build_type=%s flags=\"%s\"\n",
              PERFBENCH_CXX_ID, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  std::fflush(stdout);

  pb::RunOutput out;
  const bool ran = pb::run_workload(cfg, &out);
  for (const std::string& s : out.stamp) std::printf("stamp %s\n", s.c_str());
  for (const std::string& v : out.violations) {
    std::fprintf(stderr, "perfbench: %s\n", v.c_str());
  }
  if (!ran) {
    std::fprintf(stderr, "perfbench: run failed\n");
    return 2;
  }

  std::printf("%-42s %16s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, metric] : out.metrics) {
    std::printf("%-42s %16.6g %-6s %ld\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
  }
  const bool correct = out.violations.empty() && out.failed == 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
            json_number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
