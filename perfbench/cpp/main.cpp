// The wall-clock benchmark:
//
//   perfbench --workload kv-zipf|sor-hlrc|migrate-udp --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--commit ID]
//
// Pins the process to one CPU, runs warm-up trials for two seconds, then
// measured trials of the workload until S seconds have passed (at least
// three).
// With --trace 0 every trial is untraced and the end-to-end metrics are
// reported; with --trace 1 trials alternate untraced/traced, the traced ones
// record spans around every call into the library, and the per-layer metrics
// are reported (the untraced ones give the tracing overhead). Every metric is
// the median over trials. The last stdout line is a JSON object with
// "correct", "attempted", "failed" and "values" (metric name -> value);
// run.py turns it into the result line BENCHMARK.json describes.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "stats_util.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

/// Rounds per migrate-udp trial.
constexpr std::size_t kMigrateRounds = 16;
constexpr double kWarmupSeconds = 2.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload kv-zipf|sor-hlrc|migrate-udp "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--commit ID]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0)) usage("--seconds must be a positive number");
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage("--trace must be 0 or 1");
      opt.trace = value[0] - '0';
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--commit") {
      opt.commit = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || opt.seconds <= 0 || opt.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return opt;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "kv-zipf") return make_kv_zipf(opt.seed);
  if (opt.workload == "sor-hlrc") return make_sor_hlrc(opt.seed);
  if (opt.workload == "migrate-udp") return make_migrate_udp(opt.seed, kMigrateRounds);
  usage(("unknown workload " + opt.workload).c_str());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

using Values = std::map<std::string, double>;

Values end_to_end(const TrialResult& t) {
  const auto ops = static_cast<double>(t.ops);
  return {
      {"ops_per_s", ratio(ops, t.measure_s)},
      {"op_p50_us", percentile(t.op_us, 50)},
      {"op_p90_us", percentile(t.op_us, 90)},
      {"virtual_s", t.virtual_s},
      {"msgs_per_op", ratio(static_cast<double>(t.stats.counter("net.msgs")), ops)},
      {"wire_bytes_per_op", ratio(static_cast<double>(t.stats.counter("net.bytes")), ops)},
      {"setup_s", t.setup_s},
  };
}

Values per_layer(const TrialResult& t, const SpanRecorder& rec) {
  const auto c = [&](const char* name) { return static_cast<double>(t.stats.counter(name)); };
  const auto ops = static_cast<double>(t.ops);
  const double faults = c("proto.read_faults") + c("proto.write_faults");
  const double msgs = c("net.msgs");
  const double acquires =
      c("sync.lock_acquires") + c("sync.rw_read_acquires") + c("sync.rw_write_acquires");
  const double lock_msgs =
      c("net.msgs.LockRequest") + c("net.msgs.LockGrant") + c("net.msgs.LockRelease");
  std::vector<double> release = rec.durations_us("release_read");
  for (double d : rec.durations_us("release_write")) release.push_back(d);
  const auto access = rec.durations_us("access");
  const auto sweep = rec.durations_us("sweep");
  const auto acq_r = rec.durations_us("acquire_read");
  const auto acq_w = rec.durations_us("acquire_write");
  const auto barrier = rec.durations_us("barrier");
  Values v = {
      {"core.ctor_ms", t.ctor_s * 1e3},
      {"core.run_enter_us", t.run_enter_us},
      {"core.run_exit_ms", t.run_exit_ms},
      {"mem.access_us_p50", percentile(access, 50)},
      {"mem.access_us_p99", percentile(access, 99)},
      {"mem.sweep_us_p50", percentile(sweep, 50)},
      {"mem.sweep_us_p90", percentile(sweep, 90)},
      {"mem.read_faults_per_op", ratio(c("proto.read_faults"), ops)},
      {"mem.write_faults_per_op", ratio(c("proto.write_faults"), ops)},
      {"sync.acquire_read_us_p50", percentile(acq_r, 50)},
      {"sync.acquire_read_us_p99", percentile(acq_r, 99)},
      {"sync.acquire_write_us_p50", percentile(acq_w, 50)},
      {"sync.acquire_write_us_p99", percentile(acq_w, 99)},
      {"sync.release_us_p50", percentile(release, 50)},
      {"sync.barrier_us_p50", percentile(barrier, 50)},
      {"sync.barrier_us_p90", percentile(barrier, 90)},
      {"sync.queued_per_acquire", ratio(c("sync.lock_queued"), acquires)},
      {"sync.lock_msgs_per_op", ratio(lock_msgs, ops)},
      {"proto.ivy.forwards_per_fault", ratio(c("ivy.forwards"), faults)},
      {"proto.ivy.parked_per_fault", ratio(c("ivy.parked"), faults)},
      {"proto.lrc.intervals_per_op", ratio(c("lrc.intervals"), ops)},
      {"proto.lrc.diff_requests_per_op", ratio(c("lrc.diff_requests"), ops)},
      {"proto.lrc.diff_bytes_per_op", ratio(c("lrc.diff_bytes_created"), ops)},
      {"proto.lrc.notice_invalidations_per_op", ratio(c("lrc.notice_invalidations"), ops)},
      {"proto.hlrc.flush_bytes_per_op", ratio(c("hlrc.flush_bytes"), ops)},
      {"proto.hlrc.notice_invalidations_per_op", ratio(c("hlrc.notice_invalidations"), ops)},
      {"net.datagrams_per_msg", ratio(c("net.datagrams"), msgs)},
      {"net.retransmit_ratio", ratio(c("net.retransmits"), msgs)},
      {"net.acks_standalone_per_msg", ratio(c("net.acks_standalone"), msgs)},
      {"net.bytes_growth", t.bytes_growth},
      {"op_p99_us", percentile(t.op_us, 99)},
  };
  for (const auto& [layer, us] : rec.self_time_us()) v["self." + layer + "_us_per_op"] = ratio(us, ops);
  return v;
}

/// Median over trials of every metric.
Values medians(const std::vector<Values>& trials) {
  std::map<std::string, std::vector<double>> cols;
  for (const Values& t : trials) {
    for (const auto& [k, v] : t) cols[k].push_back(v);
  }
  Values out;
  for (auto& [k, vs] : cols) out[k] = median(vs);
  return out;
}

/// Returns freed heap to the kernel and resets the kernel's peak-RSS mark of
/// this process, so that the next peak_rss_mb() covers one trial and does not
/// grow with the heap earlier trials left behind. Where unsupported the mark
/// stays process-wide.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void print_self_table(const SpanRecorder& rec, std::uint64_t ops) {
  std::fprintf(stderr, "  %-6s %14s %12s\n", "layer", "self_ms", "us/op");
  for (const auto& [layer, us] : rec.self_time_us()) {
    std::fprintf(stderr, "  %-6s %14.3f %12.4f\n", layer.c_str(), us / 1e3,
                 ratio(us, static_cast<double>(ops)));
  }
}

/// Pins the calling thread, and so every thread the library starts later, to
/// the lowest CPU it may run on. Cross-CPU wake-ups on a shared VM wait for
/// the hypervisor to schedule a halted vCPU; that wait swings run to run by
/// 2-3x and would swamp every wall-clock metric (see README.md).
int pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof one, &one) == 0) return cpu;
      break;
    }
  }
  std::perror("perfbench: cannot pin to one CPU");
  std::exit(1);
}

int run(const Options& opt) {
  const int cpu = pin_to_one_cpu();
  auto workload = make_workload(opt);
  std::printf("{\"run\":{\"workload\":\"%s\",\"seed\":%llu,\"nodes\":%zu,\"app_threads\":1,%s,"
              "\"cpu\":%d,\"seconds\":%s,\"trace\":%d,\"commit\":\"%s\"}}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), kNodes,
              workload->describe().c_str(), cpu, number(opt.seconds).c_str(), opt.trace,
              opt.commit.c_str());
  std::fflush(stdout);

  // Warm-up trials run for kWarmupSeconds: they fill the allocator and page
  // cache and bring idle vCPUs up to speed (the first second after idling
  // runs markedly slower on a VM). They are verified but not measured.
  const std::size_t min_trials = opt.trace != 0 ? 4 : 3;
  std::vector<Values> plain, traced;
  std::unique_ptr<SpanRecorder> last_rec;
  std::uint64_t attempted = 0, failed = 0;
  bool warm = false;
  std::size_t measured = 0;
  std::uint64_t t0 = dsm::realclock::now_ns();
  while (!warm || measured < min_trials || seconds_since(t0) < opt.seconds) {
    if (!warm && seconds_since(t0) >= kWarmupSeconds) {
      warm = true;
      t0 = dsm::realclock::now_ns();
    }
    const std::size_t n = warm ? ++measured : 0;
    const bool trace_this = opt.trace != 0 && n > 0 && n % 2 == 0;
    auto rec = trace_this ? std::make_unique<SpanRecorder>(kNodes + 1) : nullptr;
    reset_peak_rss();
    const double cpu0 = cpu_seconds();
    const TrialResult t = workload->trial(rec.get());
    const double cpu_s = cpu_seconds() - cpu0;
    attempted += t.ops;
    failed += t.failed;
    Values e2e = end_to_end(t);
    e2e["peak_rss_mb"] = peak_rss_mb();
    std::fprintf(stderr,
                 "trial %zu%s: %.0f op/s, p50 %.2f us, %.6f msg/op, %.3f B/op, virtual %.6f s, "
                 "setup %.4f s, peak rss %.1f MB, cpu %.3f s, failed %llu\n",
                 n, n == 0 ? " (warm-up)" : trace_this ? " (traced)" : "", e2e["ops_per_s"],
                 e2e["op_p50_us"], e2e["msgs_per_op"], e2e["wire_bytes_per_op"], t.virtual_s,
                 t.setup_s, e2e["peak_rss_mb"], cpu_s, static_cast<unsigned long long>(t.failed));
    if (n == 0) continue;
    if (trace_this) {
      Values v = per_layer(t, *rec);
      v["ops_per_s"] = e2e["ops_per_s"];
      traced.push_back(std::move(v));
      print_self_table(*rec, t.ops);
      last_rec = std::move(rec);
    } else {
      plain.push_back(std::move(e2e));
    }
  }

  Values out;
  if (opt.trace == 0) {
    out = medians(plain);
  } else {
    out = medians(traced);
    const double traced_rate = out["ops_per_s"];
    out["trace.overhead_ratio"] = ratio(medians(plain)["ops_per_s"], traced_rate) - 1.0;
    out["error_rate"] = ratio(static_cast<double>(failed), static_cast<double>(attempted));
    if (!opt.trace_out.empty() && last_rec) {
      std::ofstream os(opt.trace_out);
      last_rec->write_chrome_json(os);
      std::fprintf(stderr, "trace: wrote %s\n", opt.trace_out.c_str());
    }
  }

  // Every computed metric, by name; run.py picks the ones BENCHMARK.json lists
  // and adds their units.
  std::string values;
  for (const auto& [name, value] : out) {
    if (!values.empty()) values += ",";
    values += "\"" + name + "\":" + number(value);
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"values\":{%s}}\n",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), values.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(perfbench::parse(argc, argv)); }
