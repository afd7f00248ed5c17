// Distributed synchronization: queue-based locks (two policies) and a
// centralized sense-counting barrier. The SyncAgent owns the mechanics;
// consistency protocols piggyback their payloads (write notices, bound data)
// through the Protocol hooks at well-defined points:
//
//   acquire:  fill_lock_request ──request──▶ holder: fill_lock_grant
//             (home: fill_home_grant) ◀──grant── on_lock_granted
//             (on_home_granted) on the service thread → app resumes
//   release:  before_release (flush/interval close), then a holder grant,
//             or fill_lock_release ──release──▶ home: on_home_release
//   barrier:  before_barrier + fill_barrier_arrive ──▶ manager collects
//             (on_barrier_collect), then fill_barrier_release ──▶ everyone
//             runs on_barrier_release.
//
// Every home-managed acquire runs through one state machine at the lock's
// home (HomeLock): any number of readers or one exclusive holder, FIFO
// queues per mode, queued writers blocking new readers, and a dead holder's
// token regenerated exactly once under FT. acquire_read/acquire_write always
// use it. Releases go to the home (fill_lock_release → on_home_release); a
// protocol with home-side state (LRC, HLRC: proto/notice_log.hpp) merges
// every release and fills each grant with what that requester lacks
// (fill_home_grant → on_home_granted); for the others the home ships the
// last release payload with each grant.
//
// Lock policies for the plain acquire/release (compared by bench_locks, F5):
//   * kCentralized — the mutex *is* the home machine's exclusive mode, so
//     acquire() and acquire_write() on one lock id exclude each other and
//     acquire_read() waits for both.
//   * kForwardChain — the home only remembers the chain tail and forwards
//     each request to it; grants flow holder → next holder directly, and an
//     uncontended re-acquire by the last holder is free (lock caching). The
//     chained token is separate from the id's rw state.
#pragma once

#include <deque>
#include <optional>
#include <set>
#include <vector>

#include "check/checker.hpp"
#include "common/lock_order.hpp"
#include "common/thread_annotations.hpp"
#include "core/context.hpp"
#include "net/message.hpp"
#include "proto/protocol.hpp"

namespace dsm {

class SyncAgent {
 public:
  SyncAgent(NodeContext& ctx, Protocol& protocol);

  // --- application-thread operations --------------------------------------
  void acquire(LockId lock);
  void release(LockId lock);
  /// Reader-writer mode: any number of concurrent readers OR one writer.
  /// Managed at the lock's home under every policy; queued writers block new
  /// readers. Grants carry the same consistency payload as write grants, so
  /// a reader sees everything the last writer released.
  void acquire_read(LockId lock);
  void release_read(LockId lock);
  /// The writer side of reader-writer mode: the home's exclusive mode, which
  /// is also what acquire() takes under the centralized policy. Never caches
  /// the token.
  void acquire_write(LockId lock);
  void release_write(LockId lock);
  void barrier(BarrierId barrier);

  /// True for message types this agent dispatches (the runtime routes all
  /// other types to the protocol).
  static bool handles(MsgType type);

  // --- service-thread dispatch ---------------------------------------------
  void on_message(const Message& msg);

  // --- peer liveness (crash fault tolerance) -------------------------------
  /// Service thread, every node: `peer` died. The lock home (node 0 under
  /// FT) regenerates tokens the dead holder held, purges its queued
  /// requests, and re-checks barrier rounds against the shrunk live worker
  /// set. Idempotent (the detector may announce a death twice).
  void on_peer_down(NodeId peer);
  /// Service thread: `peer` rejoined the memory fabric. Its worker stays
  /// dead (restarted nodes serve pages; they do not rejoin the computation),
  /// so lock and barrier state need no changes — kept for symmetry.
  void on_peer_up(NodeId peer);
  /// Restarting node's own service thread: wipe local lock state.
  void on_self_restart();

 private:
  using LockMode = DsmChecker::LockMode;

  /// A request queued at the home, with its protocol payload (the
  /// requester's clock, which filters what its grant ships).
  struct Waiter {
    NodeId node = kNoNode;
    std::vector<std::byte> request;
  };
  struct HomeLock {
    // Protocols without home-side lock state (Protocol::on_home_release
    // returns false): the last release's payload, shipped with grants.
    std::vector<std::byte> release_payload;
    NodeId writer = kNoNode;                  // exclusive holder, if any
    // One entry per read grant out: a node's next app thread may be granted
    // a read before the previous thread's release reaches the home.
    std::multiset<NodeId> readers;
    std::deque<Waiter> read_queue;            // queued requesters, FIFO
    std::deque<Waiter> write_queue;
    NodeId tail = kNoNode;                    // forward-chain: last requester
  };
  struct LocalLock {
    bool have_token = false;  // forward-chain: the token is cached here
    bool granted = false;     // grant arrived; app thread may resume
    bool home_grant = false;  // the awaited grant comes from the home
    std::optional<LockMode> held;  // between acquire return and release call
    std::optional<Message> successor;  // forwarded request awaiting our release
    // Multi-threaded nodes: at most one app thread per (node, lock) may be
    // between acquire entry and release exit at a time. The gate keeps the
    // single request/grant/token plumbing above valid with N app threads —
    // a second local acquirer waits here and then rides the normal path
    // (for forward-chain, usually the cached-token fast path). `owner_ktid`
    // distinguishes a recursive acquire by the holding thread (still a bug,
    // still aborts) from a different thread waiting its turn.
    bool busy = false;
    std::uint32_t owner_ktid = 0;
  };

  /// App thread: passes this node's gate on `lock` (see LocalLock::busy).
  LocalLock& enter(LockId lock) REQUIRES(mutex_);
  /// App thread: drops this node's `mode` hold on `lock` and opens the gate.
  LocalLock& leave(LockId lock, LockMode mode) REQUIRES(mutex_);
  /// App thread: sends a `mode` request for `lock` (to its home, or to the
  /// chain for forward-chain mode 0) and blocks until the grant arrives.
  void request_and_wait(LockId lock, std::uint8_t mode, const char* span_name);
  /// App thread: consistency flush and checker release edge, which must
  /// both precede any grant of `lock` to someone else.
  void flush_for_release(LockId lock, LockMode mode);
  /// App thread: releases a home-managed hold (mode 2 or 3) to the home.
  void release_to_home(LockId lock, std::uint8_t mode);

  void handle_lock_request(const Message& msg);
  void handle_lock_grant(const Message& msg);
  void handle_lock_release(const Message& msg);
  /// Home-side state machine: request, release, and granting every queued
  /// request that is now admissible.
  void home_request(LockId lock, Waiter waiter, bool exclusive);
  void home_release(LockId lock, bool exclusive, std::span<const std::byte> payload,
                    NodeId from);
  void home_drain(LockId lock);
  void handle_barrier_arrive(const Message& msg);
  void handle_barrier_release(const Message& msg);
  /// Manager: has every live worker arrived (phase 0) / acked (phase 1)?
  /// Completes the round if so. Called on arrival and on a peer death.
  void maybe_complete_barrier(BarrierId barrier);
  void broadcast_barrier_release(BarrierId barrier, std::uint8_t phase,
                                 std::vector<std::byte> payload);

  /// ThreadId of the calling app thread for checker epochs: the current
  /// thread's attachment if it belongs to this node, else 0 (service
  /// threads and single-thread runs).
  ThreadId self_tid() const;

  /// Home-side (forward-chain): route a fresh request to the chain tail.
  void route_to_tail(const Message& msg, LockId lock, NodeId origin);
  /// Holder-side (forward-chain): grant the token to `origin` now.
  void send_grant(LockId lock, NodeId origin, std::span<const std::byte> request_payload);
  /// Home-side: grant `lock` to a waiter, with what the protocol's home
  /// state says it lacks (or the stored release payload).
  void send_home_grant(LockId lock, const Waiter& waiter);

  NodeContext& ctx_;
  Protocol& protocol_;

  // Held across checker lock/barrier hooks (sync → checker is a real
  // nesting edge) but never across sends — grants and broadcasts are
  // composed and shipped outside the guard scopes.
  Mutex mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  CondVar cv_;
  // App threads: held from composing a release to the home until it is
  // sent, so releases leave in the order their payloads were composed.
  Mutex release_mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  std::vector<HomeLock> home_ GUARDED_BY(mutex_);   // by LockId; home == self
  std::vector<LocalLock> local_ GUARDED_BY(mutex_); // indexed by LockId
  std::vector<std::uint64_t> barrier_gen_
      GUARDED_BY(mutex_);                           // client: generations released
  std::vector<std::uint64_t> barrier_entered_
      GUARDED_BY(mutex_);                           // client: generations entered
  // Multi-threaded nodes: serializes this node's app threads through a
  // barrier id one rendezvous at a time. The home collapses arrivals into a
  // per-round identity set, so two concurrent arrivals from one node would
  // merge into a single round and strand the second thread; gating turns
  // them into sequential rounds instead (every node must then enter the
  // barrier the same total number of times, the usual SPMD contract).
  std::vector<bool> barrier_busy_ GUARDED_BY(mutex_);
  // Manager-side rendezvous state, per barrier id. Identity sets instead of
  // counters so a round can settle against the *live* worker set when a
  // participant dies mid-round (a dead arrival must not stand in for a live
  // worker that has yet to arrive).
  std::vector<std::set<NodeId>> barrier_arrived_
      GUARDED_BY(mutex_);                           // manager: arrivals this round
  std::vector<std::set<NodeId>> barrier_acked_
      GUARDED_BY(mutex_);                           // manager: settlement acks
};

}  // namespace dsm
