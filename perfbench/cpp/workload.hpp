// The benchmark's workloads and the trial scaffolding they share. A trial
// builds a fresh System (timed as set-up), runs a fixed amount of work on
// four nodes with one app thread each (timed), verifies the final shared
// state, and tears the System down. Fixed work per trial keeps per-op counts
// comparable across runs even where they grow with history.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/dsm.hpp"
#include "recorder.hpp"

namespace perfbench {

inline constexpr std::size_t kNodes = 4;
/// Span track of the thread that constructs Systems and calls run().
inline constexpr std::size_t kMainTrack = kNodes;

struct TrialResult {
  std::uint64_t ops = 0;     ///< ops attempted
  std::uint64_t failed = 0;  ///< ops whose effect the verification found wrong
  double ctor_s = 0;         ///< System construction
  double setup_s = 0;        ///< construction + alloc + warm-up run()
  double measure_s = 0;      ///< wall time of the measured run() calls
  double virtual_s = 0;      ///< modeled makespan of the measured phase
  std::vector<double> op_us; ///< wall latency of each op
  dsm::StatsSnapshot stats;  ///< counters over the measured phase only
  double run_enter_us = 0;   ///< run() call -> first body start (measured runs, median)
  double run_exit_ms = 0;    ///< last body return -> run() return (measured runs, median)
  double bytes_growth = 0;   ///< bytes/op over node 0's last tenth of ops / first tenth
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// JSON object fields (no braces) naming protocol, transport and sizes.
  virtual std::string describe() const = 0;
  /// One trial; `rec` is null in an untraced trial.
  virtual TrialResult trial(SpanRecorder* rec) = 0;
};

std::unique_ptr<Workload> make_kv_zipf(std::uint64_t seed);
std::unique_ptr<Workload> make_sor_hlrc(std::uint64_t seed);
/// `rounds` rounds of 2 x 512 faulting accesses each.
std::unique_ptr<Workload> make_migrate_udp(std::uint64_t seed, std::size_t rounds);

// --- shared scaffolding -------------------------------------------------------

/// Pages of the OS page size needed to hold `bytes`.
inline std::size_t pages_for(std::size_t bytes) {
  const std::size_t page = dsm::ViewRegion::os_page_size();
  return (bytes + page - 1) / page;
}

/// Fisher-Yates shuffle driven by the workload's seeded generator.
template <typename T>
void shuffle(std::vector<T>& v, dsm::SplitMix64& rng) {
  for (std::size_t k = v.size(); k > 1; --k) {
    std::swap(v[k - 1], v[static_cast<std::size_t>(rng.next_below(k))]);
  }
}

inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(dsm::realclock::now_ns() - t0_ns) / 1e9;
}

/// Constructs a System, recording its construction time in `out.ctor_s`.
std::unique_ptr<dsm::System> construct(const dsm::Config& cfg, TrialResult& out);

/// Calls sys.run(body). A measured run adds its wall time to measure_s(),
/// records its entry/exit overheads, and (when tracing) is wrapped in a core
/// "run" span whose children are the per-node app "body" spans. Set-up and
/// verification runs are not measured, so spans cover the measured phase only.
class RunTimer {
 public:
  RunTimer(dsm::System& sys, SpanRecorder* rec) : sys_(sys), rec_(rec) {}
  void run(const std::function<void(dsm::Worker&)>& body, bool measured);
  double measure_s() const { return measure_s_; }
  double enter_us() const;
  double exit_ms() const;

 private:
  dsm::System& sys_;
  SpanRecorder* rec_;
  double measure_s_ = 0;
  std::vector<double> enter_us_, exit_ms_;
};

/// Tracks network bytes per op over node 0's first and last tenth of its ops.
/// Node 0 calls before(i)/after(i) around its op i; every node adds its
/// completed ops to the shared `ops_done`.
class GrowthProbe {
 public:
  GrowthProbe(dsm::Counter& bytes, const std::atomic<std::uint64_t>& ops_done,
              std::uint64_t node0_ops);
  void before(std::uint64_t i);
  void after(std::uint64_t i);
  double growth() const;

 private:
  struct Mark {
    std::uint64_t bytes = 0, ops = 0;
  };
  Mark mark() const { return {bytes_.value(), ops_done_.load(std::memory_order_relaxed)}; }
  dsm::Counter& bytes_;
  const std::atomic<std::uint64_t>& ops_done_;
  std::uint64_t n_, tenth_;
  Mark first0_, first1_, last0_, last1_;
};

}  // namespace perfbench
