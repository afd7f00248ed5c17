// sor-hlrc: red-black SOR on a 1024x1024 grid under HLRC, row-block
// partitioned over the nodes. The sweep loop mirrors apps::run_sor (same
// sweep order and compute charge) but times every row and half-sweep. The
// grid is fully determined by its size, so the seed is not used.
#include <array>
#include <cmath>
#include <cstdio>

#include "apps/sor.hpp"
#include "harness.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kRows = 1024;
constexpr std::size_t kCols = 1024;
constexpr int kIterations = 10;
constexpr double kTop = 100.0;
constexpr std::size_t kWidth = kCols + 2;
constexpr std::size_t kHeight = kRows + 2;
/// Ops charged per stencil update, as apps::run_sor charges them.
constexpr std::uint64_t kOpsPerCell = 6;
constexpr double kTolerance = 1e-9;

class SorHlrc final : public Workload {
 public:
  SorHlrc() {
    dsm::apps::SorParams params;
    params.rows = kRows;
    params.cols = kCols;
    params.iterations = kIterations;
    params.top_temperature = kTop;
    reference_ = dsm::apps::sor_reference_checksum(params);
  }

  std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\"protocol\":\"hlrc\",\"transport\":\"inproc\",\"rows\":%zu,\"cols\":%zu,"
                  "\"iterations\":%d,\"seed_used\":false",
                  kRows, kCols, kIterations);
    return buf;
  }

  TrialResult trial(SpanRecorder* rec) override {
    TrialResult out;
    const std::uint64_t t_setup = dsm::realclock::now_ns();
    const dsm::Config cfg =
        dsm::bench::base_config(kNodes, pages_for(kWidth * kHeight * sizeof(double)),
                                dsm::ProtocolKind::kHlrc);
    auto sys = construct(cfg, out);
    const auto grid = sys->alloc_page_aligned<double>(kWidth * kHeight);
    RunTimer timer(*sys, rec);
    // Warm-up: each node zeroes its own rows; node 0 sets the hot top edge.
    timer.run(
        [&](dsm::Worker& w) {
          double* g = w.get(grid);
          const auto [lo, hi] = rows_of(w.id());
          for (std::size_t i = lo; i < hi; ++i) {
            for (std::size_t j = 0; j < kWidth; ++j) g[i * kWidth + j] = 0.0;
          }
          if (w.id() == 0) {
            for (std::size_t j = 0; j < kWidth; ++j) g[j] = kTop;
          }
          if (w.id() == kNodes - 1) {
            for (std::size_t j = 0; j < kWidth; ++j) g[(kHeight - 1) * kWidth + j] = 0.0;
          }
          w.barrier(0);
        },
        false);
    out.setup_s = seconds_since(t_setup);

    sys->reset_stats();
    sys->reset_clocks();
    constexpr std::uint64_t kHalfSweeps = 2 * kIterations;
    std::atomic<std::uint64_t> cells_done{0};
    GrowthProbe probe(sys->stats_registry().counter("net.bytes"), cells_done, kHalfSweeps);
    std::array<std::vector<double>, kNodes> latency;
    timer.run(
        [&](dsm::Worker& w) {
          const std::size_t me = w.id();
          double* g = w.get(grid);
          const auto [lo, hi] = rows_of(me);
          auto& lat = latency[me];
          lat.reserve(kHalfSweeps * (hi - lo));
          for (std::uint64_t h = 0; h < kHalfSweeps; ++h) {
            const std::size_t color = h % 2;
            if (me == 0) probe.before(h);
            {
              Scope sweep(rec, me, Layer::kMem, "sweep", h + 1);
              for (std::size_t i = lo; i < hi; ++i) {
                const std::uint64_t t0 = dsm::realclock::now_ns();
                for (std::size_t j = 2 - (i + color) % 2; j <= kCols; j += 2) {
                  double* c = g + i * kWidth + j;
                  *c = 0.25 * (c[-static_cast<std::ptrdiff_t>(kWidth)] + c[kWidth] + c[-1] + c[1]);
                }
                lat.push_back(static_cast<double>(dsm::realclock::now_ns() - t0) / 1e3 /
                              static_cast<double>(kCols / 2));
              }
            }
            cells_done.fetch_add((hi - lo) * kCols / 2, std::memory_order_relaxed);
            w.compute(kOpsPerCell * (hi - lo) * kCols / 2);
            {
              Scope s(rec, me, Layer::kSync, "barrier", h + 1);
              w.barrier(0);
            }
            if (me == 0) probe.after(h);
          }
        },
        true);
    out.stats = sys->stats();
    out.virtual_s = static_cast<double>(sys->virtual_time()) / 1e9;
    out.measure_s = timer.measure_s();
    out.run_enter_us = timer.enter_us();
    out.run_exit_ms = timer.exit_ms();
    out.bytes_growth = probe.growth();
    out.ops = kRows * kCols * kIterations;
    for (auto& l : latency) out.op_us.insert(out.op_us.end(), l.begin(), l.end());

    double checksum = 0.0;
    timer.run(
        [&](dsm::Worker& w) {
          w.barrier(0);
          if (w.id() != 0) return;
          const double* g = w.get(grid);
          for (std::size_t i = 1; i <= kRows; ++i) {
            for (std::size_t j = 1; j <= kCols; ++j) checksum += g[i * kWidth + j];
          }
        },
        false);
    // A wrong checksum cannot be pinned on single updates: the trial's ops
    // all count as failed.
    const double rel = std::abs(checksum - reference_) / std::max(1.0, std::abs(reference_));
    if (!(rel <= kTolerance)) out.failed = out.ops;
    return out;
  }

 private:
  /// Interior rows [lo, hi) of `node`, the same block partition as apps::run_sor.
  static std::pair<std::size_t, std::size_t> rows_of(std::size_t node) {
    const std::size_t base = kRows / kNodes;
    const std::size_t extra = kRows % kNodes;
    const std::size_t lo = 1 + node * base + std::min(node, extra);
    return {lo, lo + base + (node < extra ? 1 : 0)};
  }

  double reference_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_sor_hlrc(std::uint64_t /*seed: unused, see header*/) {
  return std::make_unique<SorHlrc>();
}

}  // namespace perfbench
