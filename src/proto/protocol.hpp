// The coherence-protocol interface. A protocol is a distributed state machine
// driven from two sides:
//   * the faulting application thread (on_read_fault / on_write_fault, which
//     block until access is legal), and
//   * the node's service thread (on_message), which must NEVER block on
//     remote state — it parks work on per-page pending queues instead
//     (DESIGN.md "No-blocking service rule").
// Synchronization-piggyback hooks let relaxed-consistency protocols move
// write notices and data with lock grants and barrier releases; they are
// invoked by the SyncAgent, which owns lock/barrier mechanics.
#pragma once

#include <memory>
#include <string_view>

#include "common/serialize.hpp"
#include "core/context.hpp"
#include "net/message.hpp"

namespace dsm {

class Protocol {
 public:
  explicit Protocol(NodeContext& ctx) : ctx_(ctx) {}
  virtual ~Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  virtual std::string_view name() const = 0;

  /// Sets initial page states/protections (home ownership etc.). Called once
  /// per run on the runtime thread before any application thread starts.
  virtual void init_pages() = 0;

  // --- application-thread side -------------------------------------------
  /// Service a read miss on `page`; returns when the page is readable.
  virtual void on_read_fault(PageId page) = 0;
  /// Service a write miss/upgrade on `page`; returns when writable.
  virtual void on_write_fault(PageId page) = 0;

  // --- service-thread side -------------------------------------------------
  /// Dispatch for every coherence message type (sync types go to SyncAgent).
  virtual void on_message(const Message& msg) = 0;

  // --- peer liveness (crash fault tolerance; no-ops outside FT runs) -------
  /// Service thread: `peer` was declared dead (kPeerDown). FT protocols
  /// fail over (recompute primaries, re-send outstanding work); must be
  /// idempotent — the failure detector may announce the same death twice.
  virtual void on_peer_down(NodeId /*peer*/) {}
  /// Service thread: `peer` rejoined the fabric (kPeerUp).
  virtual void on_peer_up(NodeId /*peer*/) {}
  /// Service thread of the *restarting* node itself: wipe all protocol and
  /// page state back to the post-init_pages picture. Only the restarting
  /// node's own service thread calls this (race-free: sole toucher).
  virtual void on_self_restart() {}

  // --- synchronization piggyback hooks (no-ops for SC protocols) ----------
  /// App thread, acquirer: extra payload for the lock request (e.g. LRC
  /// vector clock, so the grantor can filter write notices).
  virtual void fill_lock_request(LockId, WireWriter&) {}
  /// Forward-chain holder (service or app thread): payload to ship with a
  /// holder-to-holder grant. `request_payload` is the acquirer's
  /// fill_lock_request payload.
  virtual void fill_lock_grant(LockId, NodeId /*to*/,
                               std::span<const std::byte> /*request_payload*/,
                               WireWriter&) {}
  /// Acquirer's service thread, before the blocked app thread resumes:
  /// consume a holder grant payload (apply diffs, invalidate noticed pages).
  virtual void on_lock_granted(LockId, WireReader&) {}
  /// App thread, holder: called before the release is performed anywhere
  /// (eager RC flushes and waits for acks here; LRC closes its interval).
  virtual void before_release(LockId) {}

  // --- home-managed locks (acquire_read/acquire_write, and acquire under
  // kCentralized): releases go to the lock's home, which grants ----------
  /// App thread, holder: payload for the release message to the home. By
  /// default a holder grant for an acquirer that knows nothing.
  virtual void fill_lock_release(LockId lock, WireWriter& out) {
    fill_lock_grant(lock, kNoNode, {}, out);
  }
  /// Lock home's service thread: merge a release payload into the lock's
  /// home-side state. Returns false if the protocol keeps none; the home
  /// then stores the last release payload and ships it with every grant.
  virtual bool on_home_release(LockId, WireReader&) { return false; }
  /// Lock home's service thread: payload for a grant to a requester whose
  /// fill_lock_request payload is `request_payload`. Returns false if the
  /// protocol keeps no home-side state (the stored payload ships instead).
  virtual bool fill_home_grant(LockId, std::span<const std::byte> /*request_payload*/,
                               WireWriter&) {
    return false;
  }
  /// Acquirer's service thread: consume a home grant payload. By default the
  /// same as a holder grant.
  virtual void on_home_granted(LockId lock, WireReader& in) { on_lock_granted(lock, in); }

  // --- barrier hooks -------------------------------------------------------
  /// App thread, before sending the arrive (eager RC flush; LRC interval).
  virtual void before_barrier(BarrierId) {}
  /// App thread: payload on the arrive message (LRC notices+diffs, EC data).
  virtual void fill_barrier_arrive(BarrierId, WireWriter&) {}
  /// Manager's service thread, once per arriving node.
  virtual void on_barrier_collect(BarrierId, NodeId /*from*/, WireReader&) {}
  /// Manager's service thread, composing the release broadcast.
  virtual void fill_barrier_release(BarrierId, WireWriter&) {}
  /// Every node's service thread, on receiving the release (apply + GC).
  virtual void on_barrier_release(BarrierId, WireReader&) {}
  /// True if no application thread may leave the barrier until EVERY node
  /// has processed the release (two-phase barrier). LRC needs this: a node
  /// resuming early could fetch a base copy from a home that has not yet
  /// applied the barrier's diffs — after the notices were already GC'd.
  virtual bool barrier_needs_settlement() const { return false; }

  // --- entry-consistency annotations (no-ops elsewhere) --------------------
  /// Associates [offset, offset+size) with a lock: the region's writes move
  /// with that lock's grants.
  virtual void bind_lock_region(LockId, std::size_t /*offset*/, std::size_t /*size*/) {}
  /// Associates a region with a barrier: dirty data is exchanged at the
  /// barrier.
  virtual void bind_barrier_region(BarrierId, std::size_t /*offset*/, std::size_t /*size*/) {}

 protected:
  NodeContext& ctx_;
};

/// Instantiates the protocol selected by ctx.cfg->protocol.
std::unique_ptr<Protocol> make_protocol(NodeContext& ctx);

}  // namespace dsm
