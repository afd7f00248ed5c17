#include "workload.hpp"

#include <algorithm>

#include "stats_util.hpp"

namespace perfbench {

std::unique_ptr<dsm::System> construct(const dsm::Config& cfg, TrialResult& out) {
  const std::uint64_t t0 = dsm::realclock::now_ns();
  auto sys = std::make_unique<dsm::System>(cfg);
  out.ctor_s = seconds_since(t0);
  return sys;
}

void RunTimer::run(const std::function<void(dsm::Worker&)>& body, bool measured) {
  std::atomic<std::uint64_t> first_start{UINT64_MAX};
  std::atomic<std::uint64_t> last_end{0};
  SpanRecorder* const rec = measured ? rec_ : nullptr;
  Scope run_span(rec, kMainTrack, Layer::kCore, "run");
  const std::uint64_t t0 = dsm::realclock::now_ns();
  sys_.run([&](dsm::Worker& w) {
    const std::uint64_t start = dsm::realclock::now_ns();
    std::uint64_t seen = first_start.load();
    while (start < seen && !first_start.compare_exchange_weak(seen, start)) {
    }
    {
      Scope body_span(rec, w.id(), Layer::kApp, "body", 0, run_span.id());
      body(w);
    }
    const std::uint64_t end = dsm::realclock::now_ns();
    seen = last_end.load();
    while (end > seen && !last_end.compare_exchange_weak(seen, end)) {
    }
  });
  const std::uint64_t t1 = dsm::realclock::now_ns();
  if (!measured) return;
  measure_s_ += static_cast<double>(t1 - t0) / 1e9;
  enter_us_.push_back(static_cast<double>(first_start.load() - t0) / 1e3);
  exit_ms_.push_back(static_cast<double>(t1 - last_end.load()) / 1e6);
}

double RunTimer::enter_us() const { return median(enter_us_); }
double RunTimer::exit_ms() const { return median(exit_ms_); }

GrowthProbe::GrowthProbe(dsm::Counter& bytes, const std::atomic<std::uint64_t>& ops_done,
                         std::uint64_t node0_ops)
    : bytes_(bytes), ops_done_(ops_done), n_(node0_ops),
      tenth_(std::max<std::uint64_t>(1, node0_ops / 10)) {}

void GrowthProbe::before(std::uint64_t i) {
  if (i == 0) first0_ = mark();
  if (i == n_ - tenth_) last0_ = mark();
}

void GrowthProbe::after(std::uint64_t i) {
  if (i == tenth_ - 1) first1_ = mark();
  if (i == n_ - 1) last1_ = mark();
}

double GrowthProbe::growth() const {
  const auto per_op = [](const Mark& a, const Mark& b) {
    return b.ops > a.ops ? static_cast<double>(b.bytes - a.bytes) / static_cast<double>(b.ops - a.ops)
                         : 0.0;
  };
  const double first = per_op(first0_, first1_);
  return first > 0 ? per_op(last0_, last1_) / first : 0.0;
}

}  // namespace perfbench
