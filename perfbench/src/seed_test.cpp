// Pins seeded generation: the same seed yields byte-identical frames and
// the same open-loop arrival schedule (across two independent world
// builds), and a different seed yields different ones. Exit 0 on pass.
#include <cstdio>
#include <string>

#include "workload.h"

using namespace perfbench;

namespace {

bool fingerprint_of(const FastpayShape& shape, std::uint64_t seed, std::uint64_t* out) {
  const Plan plan = make_plan(shape, seed);
  std::string error;
  auto world = build_world(plan, &error);
  if (!world) {
    std::fprintf(stderr, "build_world(seed %llu): %s\n", static_cast<unsigned long long>(seed),
                 error.c_str());
    return false;
  }
  *out = fingerprint(plan, make_frames(plan, *world));
  return true;
}

}  // namespace

int main() {
  int failures = 0;
  for (const FastpayKind kind : {FastpayKind::kCold, FastpayKind::kHotMixed}) {
    FastpayShape shape;
    shape.kind = kind;
    shape.customers = kind == FastpayKind::kCold ? 24 : 4;
    shape.closed_groups = 40;
    shape.open_rate_per_s = 200;
    shape.open_seconds = 0.25;
    std::uint64_t a = 0, b = 0, c = 0;
    if (!fingerprint_of(shape, 7, &a) || !fingerprint_of(shape, 7, &b) ||
        !fingerprint_of(shape, 8, &c)) {
      return 1;
    }
    const char* name = kind == FastpayKind::kCold ? "fastpay_cold" : "fastpay_hot_mixed";
    if (a != b) {
      std::fprintf(stderr, "%s: seed 7 generated different frames on two builds\n", name);
      ++failures;
    }
    if (a == c) {
      std::fprintf(stderr, "%s: seeds 7 and 8 generated identical frames\n", name);
      ++failures;
    }
    std::printf("%s: seed 7 -> %016llx (twice), seed 8 -> %016llx\n", name,
                static_cast<unsigned long long>(a), static_cast<unsigned long long>(c));
  }
  return failures == 0 ? 0 : 1;
}
