// Full-stack benchmark entry point.
//
//   perfbench --workload <fastpay_cold|fastpay_hot_mixed|dispute_storm>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints a human-readable report, then, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status is 0 only when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "fastpay.h"
#include "storm.h"
#include "util.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fastpay_cold|fastpay_hot_mixed|dispute_storm> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n");
  return 2;
}

void print_result(const RunResult& r, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(), m.value,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val.c_str());
    } else if (key == "--work-dir") {
      work_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0 || (trace != 0 && trace != 1) || work_dir.empty()) {
    return usage();
  }

  RunResult r;
  if (workload == "fastpay_cold" || workload == "fastpay_hot_mixed") {
    const FastpayKind kind =
        workload == "fastpay_cold" ? FastpayKind::kCold : FastpayKind::kHotMixed;
    r = run_fastpay(kind, seed, seconds, trace == 1, work_dir);
    std::error_code ec;
    std::filesystem::remove_all(work_dir, ec);
  } else if (workload == "dispute_storm") {
    r = run_storm(seed, seconds, trace == 1);
  } else {
    return usage();
  }
  for (const auto& [name, m] : r.end_to_end) {
    std::printf("# %-22s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  print_result(r, trace == 1 ? r.per_layer : r.end_to_end);
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
