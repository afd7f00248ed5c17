// migrate-udp: IVY dynamic-manager page migration over real UDP loopback
// sockets. In round r node i writes its own word of every page p with
// (p+r) mod 4 == i, then reads one word of every page with (p+r+1) mod 4 == i;
// a barrier closes each phase. Rounds start at r = 1 so that no write lands on
// a page its writer already owns: every access faults. The barrier between
// the phases keeps a page's writer and reader of one round from racing, so
// each page sees exactly one request per phase and message counts repeat
// exactly. A write is one atomic increment of the writer's word on the shared
// page (a locked read-modify-write faults as a single write), so every lost
// write shows in the final count; a read checks the word against the reader's
// own write count. The seed shuffles each node's page visit order within a
// phase; counts do not depend on it.
#include <array>
#include <atomic>
#include <cstdio>

#include "harness.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPages = 512;

class MigrateUdp final : public Workload {
 public:
  MigrateUdp(std::uint64_t seed, std::size_t rounds) : seed_(seed), rounds_(rounds) {}

  std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\"protocol\":\"ivy-dynamic\",\"transport\":\"udp\",\"pages\":%zu,"
                  "\"rounds\":%zu,\"ops_per_round\":%zu",
                  kPages, rounds_, ops_per_round());
    return buf;
  }

  /// One write and one read of every page per round.
  static std::size_t ops_per_round() { return 2 * kPages; }

  TrialResult trial(SpanRecorder* rec) override {
    // Trial k uses the k-th visit order of this seed.
    const std::uint64_t order_seed = seed_ * 0x9E3779B97F4A7C15ULL + trials_++ * (rounds_ + 1) * kNodes;
    TrialResult out;
    const std::uint64_t t_setup = dsm::realclock::now_ns();
    dsm::Config cfg = dsm::bench::base_config(kNodes, kPages, dsm::ProtocolKind::kIvyDynamic);
    cfg.transport.kind = dsm::TransportKind::kUdp;
    auto sys = construct(cfg, out);
    const std::size_t words = cfg.page_size / sizeof(std::uint64_t);
    const auto pages = sys->alloc_page_aligned<std::uint64_t>(kPages * words);
    RunTimer timer(*sys, rec);
    timer.run([](dsm::Worker& w) { w.barrier(0); }, false);
    out.setup_s = seconds_since(t_setup);

    sys->reset_stats();
    sys->reset_clocks();
    const std::uint64_t node0_ops = rounds_ * ops_per_round() / kNodes;
    std::atomic<std::uint64_t> ops_done{0};
    GrowthProbe probe(sys->stats_registry().counter("net.bytes"), ops_done, node0_ops);
    std::array<std::vector<double>, kNodes> latency;
    std::atomic<std::uint64_t> wrong_reads{0};
    timer.run(
        [&](dsm::Worker& w) {
          const std::size_t me = w.id();
          std::uint64_t* base = w.get(pages);
          auto& lat = latency[me];
          lat.reserve(node0_ops);
          std::vector<std::uint64_t> writes(kPages, 0);
          std::uint64_t wrong = 0;
          std::uint64_t op = 0;
          const auto access = [&](std::size_t p, bool write) {
            const std::uint64_t req = (static_cast<std::uint64_t>(me) << 32) | (op + 1);
            if (me == 0) probe.before(op);
            const std::uint64_t t0 = dsm::realclock::now_ns();
            {
              Scope op_span(rec, me, Layer::kApp, "op", req);
              Scope s(rec, me, Layer::kMem, "access", req);
              std::uint64_t* word = base + p * words + me;
              if (write) {
                std::atomic_ref<std::uint64_t>(*word).fetch_add(1, std::memory_order_relaxed);
                ++writes[p];
              } else {
                wrong += *static_cast<volatile std::uint64_t*>(word) != writes[p];
              }
            }
            lat.push_back(static_cast<double>(dsm::realclock::now_ns() - t0) / 1e3);
            ops_done.fetch_add(1, std::memory_order_relaxed);
            if (me == 0) probe.after(op);
            ++op;
          };
          const auto barrier = [&](std::uint64_t id) {
            Scope s(rec, me, Layer::kSync, "barrier", id);
            w.barrier(0);
          };
          for (std::size_t r = 1; r <= rounds_; ++r) {
            dsm::SplitMix64 rng(order_seed + r * kNodes + me);
            for (const std::size_t p : visit_order(r, me, rng)) access(p, true);
            barrier(2 * r);
            for (const std::size_t p : visit_order(r + 1, me, rng)) access(p, false);
            barrier(2 * r + 1);
          }
          wrong_reads.fetch_add(wrong, std::memory_order_relaxed);
        },
        true);
    out.stats = sys->stats();
    out.virtual_s = static_cast<double>(sys->virtual_time()) / 1e9;
    out.measure_s = timer.measure_s();
    out.run_enter_us = timer.enter_us();
    out.run_exit_ms = timer.exit_ms();
    out.bytes_growth = probe.growth();
    out.ops = rounds_ * ops_per_round();
    for (auto& l : latency) out.op_us.insert(out.op_us.end(), l.begin(), l.end());

    // Verification: node i's word of page p must equal the number of rounds
    // in which node i wrote p. Each missing write and each wrong read is a
    // failed op.
    std::uint64_t wrong = wrong_reads.load();
    timer.run(
        [&](dsm::Worker& w) {
          w.barrier(0);
          if (w.id() != 0) return;
          const std::uint64_t* base = w.get(pages);
          for (std::size_t p = 0; p < kPages; ++p) {
            for (std::size_t n = 0; n < kNodes; ++n) {
              std::uint64_t want = 0;
              for (std::size_t r = 1; r <= rounds_; ++r) want += (p + r) % kNodes == n;
              const std::uint64_t got = base[p * words + n];
              wrong += got > want ? got - want : want - got;
            }
          }
        },
        false);
    out.failed = wrong;
    return out;
  }

 private:
  /// Pages p with (p + shift) mod kNodes == node, in seeded random order.
  static std::vector<std::size_t> visit_order(std::size_t shift, std::size_t node,
                                              dsm::SplitMix64& rng) {
    std::vector<std::size_t> order;
    for (std::size_t p = 0; p < kPages; ++p) {
      if ((p + shift) % kNodes == node) order.push_back(p);
    }
    shuffle(order, rng);
    return order;
  }

  std::uint64_t seed_;
  std::size_t rounds_;
  std::uint64_t trials_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_migrate_udp(std::uint64_t seed, std::size_t rounds) {
  return std::make_unique<MigrateUdp>(seed, rounds);
}

}  // namespace perfbench
