// Self-tests for the benchmark's own helpers. Run with
//   python3 perfbench/run.py --selftest
// or ctest in the benchmark's build directory. Exits non-zero on failure.
#include <cmath>
#include <cstdio>
#include <string>

#include "recorder.hpp"
#include "stats_util.hpp"
#include "workload.hpp"
#include "zipf.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b, double eps = 1e-9) { return std::abs(a - b) <= eps; }

void zipf_top_key_share() {
  constexpr std::uint64_t kKeys = 100'000;
  constexpr double kTheta = 0.99;
  const perfbench::ZipfSampler zipf(kKeys, kTheta);
  double harmonic = 0.0;
  for (std::uint64_t k = 1; k <= kKeys; ++k) harmonic += std::pow(static_cast<double>(k), -kTheta);
  const double analytic = 1.0 / harmonic;
  expect(near(zipf.probability(0), analytic, 1e-12), "zipf: P(top key) is 1/H(n, theta)");

  dsm::SplitMix64 rng(7);
  constexpr int kSamples = 2'000'000;
  int top = 0;
  for (int i = 0; i < kSamples; ++i) top += zipf.sample(rng) == 0;
  const double share = static_cast<double>(top) / kSamples;
  expect(std::abs(share - analytic) / analytic < 0.01,
         "zipf: sampled top-key share " + std::to_string(share) + " within 1% of " +
             std::to_string(analytic));
}

void percentile_known_inputs() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect(near(perfbench::percentile(v, 0), 1), "percentile: p0 is the minimum");
  expect(near(perfbench::percentile(v, 50), 50.5), "percentile: p50 of 1..100 is 50.5");
  expect(near(perfbench::percentile(v, 90), 90.1), "percentile: p90 of 1..100 is 90.1");
  expect(near(perfbench::percentile(v, 99), 99.01), "percentile: p99 of 1..100 is 99.01");
  expect(near(perfbench::percentile(v, 100), 100), "percentile: p100 is the maximum");
  expect(near(perfbench::percentile({4.0}, 90), 4), "percentile: single sample");
  expect(near(perfbench::percentile({}, 50), 0), "percentile: empty sample is 0");
  expect(near(perfbench::median({3, 1, 2}), 2), "median: odd count");
}

void self_time_overlapping_children() {
  using perfbench::Layer;
  perfbench::SpanRecorder rec(2);
  rec.add(0, Layer::kCore, "run", 0, 0, 0, 100);
  const perfbench::SpanId run = perfbench::SpanRecorder::make_id(0, 0);
  // Two overlapping children on different tracks, and one running past the
  // parent's end: covered = [10, 70) + [90, 100) = 70.
  rec.add(0, Layer::kApp, "body", 0, run, 10, 50);
  rec.add(1, Layer::kApp, "body", 0, run, 30, 70);
  rec.add(1, Layer::kApp, "body", 0, run, 90, 120);
  // A grandchild is subtracted from its parent only, never from the grandparent.
  rec.add(1, Layer::kSync, "barrier", 0, perfbench::SpanRecorder::make_id(1, 0), 40, 60);
  const auto self = rec.self_time_us();
  expect(near(self.at("core"), 30.0 / 1e3), "self time: overlapping children subtracted once");
  expect(near(self.at("app"), (40 + 20 + 30) / 1e3), "self time: child minus its own children");
  expect(near(self.at("sync"), 20.0 / 1e3), "self time: leaf span is all self");
  expect(perfbench::union_length({{5, 8}, {1, 3}, {2, 6}}, 0, 10) == 7, "union_length: merges overlaps");
  expect(perfbench::union_length({{0, 10}}, 4, 6) == 2, "union_length: clips to the window");
}

void migrate_op_count_formula() {
  constexpr std::size_t kRounds = 2;
  std::uint64_t msgs[2] = {0, 0};
  for (int s = 0; s < 2; ++s) {
    auto wl = perfbench::make_migrate_udp(static_cast<std::uint64_t>(11 + s), kRounds);
    const perfbench::TrialResult t = wl->trial(nullptr);
    const std::uint64_t formula = kRounds * 2 * 512;
    const std::uint64_t reads = t.stats.counter("proto.read_faults");
    const std::uint64_t writes = t.stats.counter("proto.write_faults");
    expect(t.ops == formula, "migrate-udp: ops == rounds x 2 x pages");
    expect(reads == formula / 2 && writes == formula / 2,
           "migrate-udp: every access faults (" + std::to_string(reads) + " read + " +
               std::to_string(writes) + " write faults)");
    expect(t.failed == 0, "migrate-udp: per-page counters verified");
    msgs[s] = t.stats.counter("net.msgs");
  }
  expect(msgs[0] == msgs[1] && msgs[0] > 0, "migrate-udp: message count does not depend on the seed");
}

}  // namespace

int main() {
  zipf_top_key_share();
  percentile_known_inputs();
  self_time_overlapping_children();
  migrate_op_count_formula();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
