// The tutordsm runtime: constructs N simulated nodes (view + page table +
// protocol + sync agent + service thread), runs an SPMD body on one
// application thread per node, and tears everything down after draining the
// fabric. This is the library's public entry point — see core/dsm.hpp.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "common/clock.hpp"
#include "common/stats.hpp"
#include "common/thread_attach.hpp"
#include "core/context.hpp"
#include "core/shared.hpp"
#include "core/watchdog.hpp"
#include "mem/fault.hpp"
#include "mem/fault_engine.hpp"
#include "proto/protocol.hpp"
#include "sync/sync_agent.hpp"

namespace dsm {

class System;

/// Thrown through the application body when the seeded fault schedule kills
/// this worker at an operation boundary; run() absorbs it and the app thread
/// simply stops. Not derived from std::exception on purpose: application
/// catch(...) blocks aside, nothing should intercept a crash.
struct WorkerKilled {};

/// The per-node handle an SPMD body receives: identity, shared-memory
/// access, synchronization, compute-cost accounting, and EC bindings.
class Worker {
 public:
  NodeId id() const { return node_; }
  /// Which of the node's app threads this handle belongs to (0 = the
  /// primary thread running the SPMD body; siblings from spawn get 1..N-1).
  ThreadId tid() const { return tid_; }
  std::size_t n_nodes() const;

  /// Starts a sibling application thread on this node. The thread attaches
  /// to the node (System::attach_thread), runs `fn` with its own Worker
  /// handle, and detaches on return; the caller joins the returned thread
  /// before its own body finishes. Requires the uffd fault engine — the
  /// sigsegv engine's signal-frame fault service is single-thread-only
  /// (see DESIGN.md "Threading model").
  std::thread spawn(std::function<void(Worker&)> fn);

  /// Resolves a shared handle in this node's view. Accessing the result may
  /// page-fault into the coherence protocol — that is the point.
  template <typename T>
  T* get(Shared<T> handle) const {
    return reinterpret_cast<T*>(view_base() + handle.offset);
  }

  void acquire(LockId lock);
  void release(LockId lock);
  /// Reader-writer mode on a lock id (use instead of acquire/release for
  /// that id): any number of concurrent readers or one exclusive writer.
  /// Grants carry the same consistency payloads as mutex grants.
  void acquire_read(LockId lock);
  void release_read(LockId lock);
  void acquire_write(LockId lock);
  void release_write(LockId lock);
  void barrier(BarrierId barrier);

  /// Charges `ops` units of application compute to this node's virtual time.
  void compute(std::uint64_t ops);
  VirtualTime now() const;

  /// Entry-consistency annotations (no-ops under other protocols).
  template <typename T>
  void bind(LockId lock, Shared<T> handle, std::size_t count = 1) {
    bind_region(lock, handle.offset, count * sizeof(T));
  }
  template <typename T>
  void bind_barrier(BarrierId barrier, Shared<T> handle, std::size_t count = 1) {
    bind_barrier_region(barrier, handle.offset, count * sizeof(T));
  }

 private:
  friend class System;
  Worker(System& system, NodeId node, ThreadId tid = 0)
      : system_(&system), node_(node), tid_(tid) {}
  std::byte* view_base() const;
  /// Runs a SyncAgent operation on lock/barrier `id` (see runtime.cpp).
  void sync_op(void (SyncAgent::*op)(std::uint32_t), const char* what, std::uint32_t id);
  void bind_region(LockId lock, std::size_t offset, std::size_t size);
  void bind_barrier_region(BarrierId barrier, std::size_t offset, std::size_t size);

  System* system_;
  NodeId node_;
  ThreadId tid_ = 0;
};

class System {
 public:
  explicit System(Config cfg);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  const Config& config() const { return cfg_; }

  /// Allocates `count` T's from the shared heap. Offsets are global (the
  /// same on every node); memory starts zeroed. Must not be called while a
  /// run is in progress.
  template <typename T>
  Shared<T> alloc(std::size_t count = 1) {
    return Shared<T>{alloc_bytes(count * sizeof(T), alignof(T))};
  }
  /// Page-aligned variant, for workloads that lay data out page-by-page.
  template <typename T>
  Shared<T> alloc_page_aligned(std::size_t count = 1) {
    return Shared<T>{alloc_bytes(count * sizeof(T), cfg_.page_size)};
  }
  std::size_t alloc_bytes(std::size_t size, std::size_t align);
  /// Bytes of shared heap handed out so far.
  std::size_t heap_used() const { return heap_used_; }

  /// Runs `body` once per node, each on its own thread, and returns when all
  /// bodies have finished and the fabric has drained. May be called again.
  /// With Config::app_threads > 1 (uffd engine only) each node additionally
  /// hosts `app_threads - 1` attached sibling threads exercising the
  /// concurrent fault path; the body itself still runs once per node, so
  /// workload results are engine- and thread-count-independent.
  void run(const std::function<void(Worker&)>& body);

  /// Attaches the calling thread to `node` as a new app thread and returns
  /// its ThreadId. Aborts if the thread is already attached or the node's
  /// kMaxAppThreads slots are taken. Worker::spawn wraps this; tests may
  /// call it directly to drive the lifecycle.
  ThreadId attach_thread(NodeId node);
  /// Reverses attach_thread. Must be called on the attached thread itself.
  void detach_thread(NodeId node, ThreadId tid);

  /// Effective app threads per node (after the TUTORDSM_APP_THREADS
  /// override and the sigsegv single-thread clamp).
  std::size_t app_threads() const { return cfg_.app_threads; }

  // --- observability --------------------------------------------------------
  StatsSnapshot stats() const { return stats_.snapshot(); }
  void reset_stats() { stats_.reset(); }
  /// Max over node clocks: the run's virtual makespan.
  VirtualTime virtual_time() const;
  void reset_clocks();

  /// The span tracer, or nullptr when Config::trace.enabled is false.
  /// Export with tracer()->write_json(os) after run() returns.
  Tracer* tracer() { return tracer_.get(); }
  const Tracer* tracer() const { return tracer_.get(); }

  /// The dsmcheck verifier, or nullptr when Config::check_level is kOff.
  DsmChecker* checker() { return checker_.get(); }
  const DsmChecker* checker() const { return checker_.get(); }

  /// The fault engine trapping every hosted node's app view. Reflects the
  /// effective choice: Config::fault_engine after the TUTORDSM_FAULT_ENGINE
  /// override and the uffd-unavailable fallback have been applied.
  FaultEngine& fault_engine() { return *fault_engine_; }
  const FaultEngine& fault_engine() const { return *fault_engine_; }

  // --- white-box access (tests, benches) -----------------------------------
  Network& network() { return *network_; }
  PageTable& table(NodeId node) { return *nodes_[node]->table; }
  Protocol& protocol(NodeId node) { return *nodes_[node]->protocol; }
  ViewRegion& view(NodeId node) { return *nodes_[node]->view; }
  StatsRegistry& stats_registry() { return stats_; }

  /// Writes the watchdog's diagnostic report: per-node page-table state,
  /// parked work, mailbox backlogs, and the fabric's in-flight messages.
  void dump_diagnostics(std::ostream& os) const;

 private:
  friend class Worker;
  struct Node {
    NodeContext ctx;
    LogicalClock clock;
    std::unique_ptr<ViewRegion> view;
    std::unique_ptr<PageTable> table;
    std::unique_ptr<Protocol> protocol;
    std::unique_ptr<SyncAgent> sync;
    int fault_token = -1;
    std::thread service_thread;
    // Seeded crash (Config::ft.faults): die at the first operation boundary
    // past kill_at on this node's virtual clock.
    VirtualTime kill_at = 0;
    bool kill_restart = false;
    std::atomic<bool> killed{false};
    /// Kernel tid of each attached app thread (0 = slot vacant). Lock-free:
    /// fault attribution reads it from uffd executor threads concurrently
    /// with attach/detach. Slot 0 is the primary body thread.
    std::array<std::atomic<std::uint32_t>, kMaxAppThreads> thread_ktid{};
    /// ThreadId whose attachment owns `ktid`, or 0 (the primary) if unknown.
    ThreadId tid_of_ktid(std::uint32_t ktid) const {
      for (ThreadId t = 0; t < kMaxAppThreads; ++t) {
        if (thread_ktid[t].load(std::memory_order_acquire) == ktid) return t;
      }
      return 0;
    }
  };

  /// Fault injection: called at every worker operation boundary. Throws
  /// WorkerKilled when this node's scheduled death is due, after announcing
  /// the death to the fabric.
  void maybe_kill(NodeId node);
  /// Service-thread side of a kill_restart fault: wipe the node's protocol /
  /// sync / link state and rejoin the memory fabric (worker stays dead).
  void restart_node(Node& node);

  void service_loop(Node& node);
  /// Blocks until every sent message has been fully processed.
  void drain();

  bool multiprocess() const { return cfg_.transport.multiprocess(); }
  /// Does this process host `node`? (Always true single-process; exactly
  /// one node per process under dsmrun.)
  bool hosted(NodeId node) const {
    return !multiprocess() || node == cfg_.transport.local_node;
  }
  /// Multi-process exit barrier: every rank reports local quiescence to
  /// rank 0 (kExitReady) and waits for the all-clear (kExitGo) before
  /// stopping its service thread — a rank that tore down early would
  /// blackhole a peer's retransmits.
  void exit_rendezvous();

  Config cfg_;
  StatsRegistry stats_;
  std::unique_ptr<Tracer> tracer_;       // null when tracing is off
  std::unique_ptr<DsmChecker> checker_;  // null when check_level is kOff
  std::unique_ptr<FaultEngine> fault_engine_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<Watchdog> watchdog_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Process-wide scratch region the mt sibling threads fault on
  /// (app_threads > 1 only). Registered with the same engine — siblings go
  /// through the real dispatcher/executor/coalescing machinery — but its
  /// handler self-serves page rights and never touches protocol, network,
  /// clock, or checker state, so the SPMD workload's fault sequence,
  /// message flow, and checksums stay identical to the single-thread run.
  std::unique_ptr<ViewRegion> scratch_view_;
  int scratch_token_ = -1;
  std::size_t heap_used_ = 0;
  bool running_ = false;
  bool pages_initialized_ = false;
  std::atomic<std::uint64_t> processed_{0};
  /// Completed run() calls. Rendezvous counters below are cumulative and
  /// monotone (never reset — a reset would race a straggling increment from
  /// the previous run), so waits compare against ordinal-scaled targets.
  std::uint64_t run_ordinal_ = 0;
  std::atomic<std::uint64_t> exit_ready_{0};  ///< kExitReady received (rank 0)
  std::atomic<std::uint64_t> exit_go_{0};     ///< kExitGo received (rank != 0)
};

inline std::size_t Worker::n_nodes() const { return system_->config().n_nodes; }
inline std::byte* Worker::view_base() const {
  return system_->view(node_).base();
}

}  // namespace dsm
