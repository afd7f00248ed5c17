// kv-zipf: a closed loop of get/put requests on a DSM-resident hash table
// under LRC reader-writer locks. Each node runs kOpsPerNode requests back to
// back; keys follow Zipf(0.99) over 100k keys, 90% gets / 10% puts.
#include <algorithm>
#include <array>
#include <cstdio>

#include "harness.hpp"
#include "workload.hpp"
#include "zipf.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBuckets = 1024;
constexpr std::size_t kLocks = 256;
constexpr std::uint64_t kKeys = 100'000;
constexpr double kTheta = 0.99;
constexpr double kPutShare = 0.10;
constexpr std::size_t kOpsPerNode = 2000;
constexpr auto kPuts = static_cast<std::size_t>(kOpsPerNode * kPutShare);

/// 64 bytes: 64 buckets share each 4 KiB page (false sharing across locks).
struct Bucket {
  std::array<std::uint64_t, kNodes> puts;  ///< per-node put count
  std::uint64_t key;                       ///< last key put
  std::uint64_t version;                   ///< total puts == sum of puts[]
  std::uint64_t seal;                      ///< seal_of(key, version)
  std::uint64_t pad;
};
static_assert(sizeof(Bucket) == 64);

std::uint64_t mix(std::uint64_t x) { return dsm::SplitMix64(x).next(); }
std::uint64_t seal_of(std::uint64_t key, std::uint64_t version) { return mix(key ^ (version << 32)); }

struct Op {
  std::uint32_t bucket;
  bool put;
  std::uint64_t key;
};

class KvZipf final : public Workload {
 public:
  explicit KvZipf(std::uint64_t seed) : seed_(seed), zipf_(kKeys, kTheta) {}

  std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\"protocol\":\"lrc\",\"transport\":\"inproc\",\"buckets\":%zu,"
                  "\"bucket_bytes\":64,\"locks\":%zu,\"keys\":%llu,\"zipf_theta\":%.2f,"
                  "\"put_share\":%.2f,\"ops_per_node\":%zu",
                  kBuckets, kLocks, static_cast<unsigned long long>(kKeys), kTheta, kPutShare,
                  kOpsPerNode);
    return buf;
  }

  TrialResult trial(SpanRecorder* rec) override {
    // Trial k replays the k-th key stream of this seed, so a run's median
    // spans many streams rather than hinging on one.
    make_streams(mix(seed_) + trials_++ * kNodes);
    TrialResult out;
    const std::uint64_t t_setup = dsm::realclock::now_ns();
    dsm::Config cfg = dsm::bench::base_config(kNodes, pages_for(kBuckets * sizeof(Bucket)),
                                              dsm::ProtocolKind::kLrc);
    cfg.n_locks = kLocks;
    auto sys = construct(cfg, out);
    const auto table = sys->alloc_page_aligned<Bucket>(kBuckets);
    RunTimer timer(*sys, rec);
    timer.run([](dsm::Worker& w) { w.barrier(0); }, false);
    out.setup_s = seconds_since(t_setup);

    sys->reset_stats();
    sys->reset_clocks();
    std::atomic<std::uint64_t> ops_done{0};
    std::atomic<std::uint64_t> torn_reads{0};
    GrowthProbe probe(sys->stats_registry().counter("net.bytes"), ops_done, kOpsPerNode);
    std::array<std::vector<double>, kNodes> latency;
    std::array<std::vector<std::uint64_t>, kNodes> puts;
    timer.run(
        [&](dsm::Worker& w) {
          const std::size_t me = w.id();
          Bucket* tbl = w.get(table);
          auto& lat = latency[me];
          lat.reserve(kOpsPerNode);
          puts[me].assign(kBuckets, 0);
          for (std::size_t i = 0; i < kOpsPerNode; ++i) {
            const Op& op = streams_[me][i];
            const auto lock = static_cast<dsm::LockId>(op.bucket % kLocks);
            const std::uint64_t req = (static_cast<std::uint64_t>(me) << 32) | (i + 1);
            if (me == 0) probe.before(i);
            const std::uint64_t t0 = dsm::realclock::now_ns();
            {
              Scope op_span(rec, me, Layer::kApp, "op", req);
              if (op.put) {
                {
                  Scope s(rec, me, Layer::kSync, "acquire_write", req);
                  w.acquire_write(lock);
                }
                {
                  Scope s(rec, me, Layer::kMem, "access", req);
                  Bucket& b = tbl[op.bucket];
                  b.puts[me] += 1;
                  b.version += 1;
                  b.key = op.key;
                  b.seal = seal_of(op.key, b.version);
                }
                {
                  Scope s(rec, me, Layer::kSync, "release_write", req);
                  w.release_write(lock);
                }
                ++puts[me][op.bucket];
              } else {
                {
                  Scope s(rec, me, Layer::kSync, "acquire_read", req);
                  w.acquire_read(lock);
                }
                {
                  Scope s(rec, me, Layer::kMem, "access", req);
                  const Bucket b = tbl[op.bucket];
                  std::uint64_t sum = 0;
                  for (const auto p : b.puts) sum += p;
                  const bool consistent =
                      sum == b.version && (b.version == 0 || b.seal == seal_of(b.key, b.version));
                  if (!consistent) torn_reads.fetch_add(1);
                }
                {
                  Scope s(rec, me, Layer::kSync, "release_read", req);
                  w.release_read(lock);
                }
              }
            }
            lat.push_back(static_cast<double>(dsm::realclock::now_ns() - t0) / 1e3);
            ops_done.fetch_add(1, std::memory_order_relaxed);
            if (me == 0) probe.after(i);
          }
        },
        true);
    out.stats = sys->stats();
    out.virtual_s = static_cast<double>(sys->virtual_time()) / 1e9;
    out.measure_s = timer.measure_s();
    out.run_enter_us = timer.enter_us();
    out.run_exit_ms = timer.exit_ms();
    out.bytes_growth = probe.growth();
    out.ops = kNodes * kOpsPerNode;
    for (auto& l : latency) out.op_us.insert(out.op_us.end(), l.begin(), l.end());

    // Verification: after a barrier every put is visible to node 0; each
    // (bucket, node) slot must equal that node's put count.
    std::uint64_t missing = 0;
    timer.run(
        [&](dsm::Worker& w) {
          w.barrier(0);
          if (w.id() != 0) return;
          const Bucket* tbl = w.get(table);
          for (std::size_t b = 0; b < kBuckets; ++b) {
            for (std::size_t n = 0; n < kNodes; ++n) {
              const std::uint64_t got = tbl[b].puts[n];
              const std::uint64_t want = puts[n][b];
              missing += got > want ? got - want : want - got;
            }
          }
        },
        false);
    out.failed = missing + torn_reads.load();
    return out;
  }

 private:
  void make_streams(std::uint64_t stream_seed) {
    for (std::size_t n = 0; n < kNodes; ++n) {
      dsm::SplitMix64 rng(stream_seed + n);
      // Exactly kPuts of each node's ops are puts, at seeded positions: LRC
      // grant traffic grows with the number of intervals, so a binomial put
      // count would add stream-to-stream noise to every metric.
      std::vector<char> put(kOpsPerNode, 0);
      std::fill_n(put.begin(), kPuts, 1);
      shuffle(put, rng);
      streams_[n].clear();
      for (std::size_t i = 0; i < kOpsPerNode; ++i) {
        const std::uint64_t key = zipf_.sample(rng);
        streams_[n].push_back(
            Op{static_cast<std::uint32_t>(mix(key) % kBuckets), put[i] != 0, key});
      }
    }
  }

  std::uint64_t seed_;
  ZipfSampler zipf_;
  std::uint64_t trials_ = 0;
  std::array<std::vector<Op>, kNodes> streams_;
};

}  // namespace

std::unique_ptr<Workload> make_kv_zipf(std::uint64_t seed) { return std::make_unique<KvZipf>(seed); }

}  // namespace perfbench
