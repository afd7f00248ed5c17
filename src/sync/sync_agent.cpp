#include "sync/sync_agent.hpp"

#include "check/checker.hpp"
#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/thread_attach.hpp"

namespace dsm {
namespace {

// Payload layouts:
//   kLockRequest   : u32 lock | u32 origin | u8 mode | bytes protocol payload
//                    mode: 0 = forward-chain fresh, 1 = forward-chain
//                          forwarded, 2 = home read, 3 = home exclusive
//                          (rw write, or the mutex under kCentralized)
//   kLockGrant     : u32 lock | bytes protocol payload
//   kLockRelease   : u32 lock | u8 mode (2 or 3) | bytes protocol payload
//   kBarrierArrive : u32 barrier | u8 phase | bytes protocol payload
//   kBarrierRelease: u32 barrier | u8 phase | bytes protocol payload

constexpr std::uint8_t kModeChain = 0;
constexpr std::uint8_t kModeForwarded = 1;
constexpr std::uint8_t kModeRead = 2;
constexpr std::uint8_t kModeWrite = 3;

struct LockReq {
  LockId lock;
  NodeId origin;
  std::uint8_t mode;
  std::span<const std::byte> payload;
};

LockReq parse_lock_request(const Message& msg) {
  WireReader r(msg.payload);
  LockReq req;
  req.lock = r.get<LockId>();
  req.origin = r.get<NodeId>();
  req.mode = r.get<std::uint8_t>();
  req.payload = r.get_bytes();
  DSM_CHECK(r.done());
  return req;
}

}  // namespace

SyncAgent::SyncAgent(NodeContext& ctx, Protocol& protocol)
    : ctx_(ctx),
      protocol_(protocol),
      home_(ctx.cfg->n_locks),
      local_(ctx.cfg->n_locks),
      barrier_gen_(ctx.cfg->n_barriers, 0),
      barrier_entered_(ctx.cfg->n_barriers, 0),
      barrier_busy_(ctx.cfg->n_barriers, false),
      barrier_arrived_(ctx.cfg->n_barriers),
      barrier_acked_(ctx.cfg->n_barriers) {
  // Forward-chain: the token (and the chain tail) starts at each lock's home.
  if (ctx_.cfg->lock_policy != LockPolicy::kForwardChain) return;
  for (LockId l = 0; l < ctx_.cfg->n_locks; ++l) {
    home_[l].tail = ctx_.lock_home(l);
    if (ctx_.lock_home(l) == ctx_.id) local_[l].have_token = true;
  }
}

bool SyncAgent::handles(MsgType type) {
  switch (type) {
    case MsgType::kLockRequest:
    case MsgType::kLockGrant:
    case MsgType::kLockRelease:
    case MsgType::kBarrierArrive:
    case MsgType::kBarrierRelease: return true;
    default: return false;
  }
}

ThreadId SyncAgent::self_tid() const {
  const ThreadAttachment* att = current_attachment();
  return att != nullptr && att->node == ctx_.id ? att->tid : 0;
}

void SyncAgent::on_message(const Message& msg) {
  switch (msg.type) {
    case MsgType::kLockRequest: handle_lock_request(msg); return;
    case MsgType::kLockGrant: handle_lock_grant(msg); return;
    case MsgType::kLockRelease: handle_lock_release(msg); return;
    case MsgType::kBarrierArrive: handle_barrier_arrive(msg); return;
    case MsgType::kBarrierRelease: handle_barrier_release(msg); return;
    default: DSM_CHECK_MSG(false, "sync: unexpected message " << to_string(msg.type));
  }
}

// --------------------------------------------------------------------------
// Locks: application-thread side
// --------------------------------------------------------------------------

void SyncAgent::acquire(LockId lock) {
  ctx_.stats->counter("sync.lock_acquires").add();
  if (ctx_.cfg->lock_policy == LockPolicy::kCentralized) {
    request_and_wait(lock, kModeWrite, "lock-acquire");
    return;
  }
  {
    const MutexLock guard(mutex_);
    auto& L = enter(lock);
    if (L.have_token) {
      // Lock caching: we were the last holder and nobody asked since.
      DSM_CHECK(!L.successor.has_value());
      L.held = LockMode::kWrite;
      ctx_.stats->counter("sync.local_acquires").add();
      if (ctx_.check != nullptr) {
        ctx_.check->on_lock_acquired(ctx_.id, self_tid(), lock, LockMode::kWrite);
      }
      return;
    }
  }
  // Slow path only: cached re-acquires above never wait, so the span set
  // measures genuine handoff latency (bench_locks reads these).
  request_and_wait(lock, kModeChain, "lock-acquire");
}

void SyncAgent::release(LockId lock) {
  const TraceScope span(ctx_.trace, ctx_.id, TraceCat::kSync, "lock-release",
                        ctx_.clock, "lock", lock);
  if (ctx_.cfg->lock_policy == LockPolicy::kCentralized) {
    release_to_home(lock, kModeWrite);
    return;
  }
  flush_for_release(lock, LockMode::kWrite);
  std::optional<Message> successor;
  {
    const MutexLock guard(mutex_);
    auto& L = leave(lock, LockMode::kWrite);
    if (L.successor.has_value()) {
      successor = std::move(L.successor);
      L.successor.reset();
      L.have_token = false;
    }
    // else: keep the token; a later request will be forwarded to us.
  }
  cv_.notify_all();
  if (successor.has_value()) {
    const auto req = parse_lock_request(*successor);
    send_grant(lock, req.origin, req.payload);
  }
}

void SyncAgent::acquire_read(LockId lock) {
  ctx_.stats->counter("sync.rw_read_acquires").add();
  request_and_wait(lock, kModeRead, "rw-acquire-read");
}

void SyncAgent::release_read(LockId lock) { release_to_home(lock, kModeRead); }

void SyncAgent::acquire_write(LockId lock) {
  ctx_.stats->counter("sync.rw_write_acquires").add();
  request_and_wait(lock, kModeWrite, "rw-acquire-write");
}

void SyncAgent::release_write(LockId lock) { release_to_home(lock, kModeWrite); }

SyncAgent::LocalLock& SyncAgent::enter(LockId lock) {
  DSM_CHECK_MSG(lock < local_.size(), "lock id " << lock << " out of range");
  auto& L = local_[lock];
  DSM_CHECK_MSG(!(L.busy && L.owner_ktid == current_ktid()),
                "recursive acquire of lock " << lock);
  // Another app thread of this node is between acquire and release: wait
  // for it — the request/grant plumbing carries one transaction per
  // (node, lock) at a time.
  while (L.busy) cv_.wait(mutex_);
  L.busy = true;
  L.owner_ktid = current_ktid();
  return L;
}

SyncAgent::LocalLock& SyncAgent::leave(LockId lock, LockMode mode) {
  auto& L = local_[lock];
  DSM_CHECK_MSG(L.held == mode, "release of lock " << lock
                                    << (mode == LockMode::kRead ? " not read-held"
                                                                : " not held"));
  L.held.reset();
  L.busy = false;
  L.owner_ktid = 0;
  return L;
}

void SyncAgent::request_and_wait(LockId lock, std::uint8_t mode, const char* span_name) {
  const VirtualTime t0 = ctx_.clock->now();
  const TraceScope span(ctx_.trace, ctx_.id, TraceCat::kSync, span_name, ctx_.clock,
                        "lock", lock);
  {
    const MutexLock guard(mutex_);
    // Forward-chain acquire() entered already, to try its cached token.
    if (mode != kModeChain) enter(lock);
    local_[lock].home_grant = mode != kModeChain;
  }
  WireWriter req(32);
  protocol_.fill_lock_request(lock, req);
  WireWriter w(req.size() + 16);
  w.put(lock);
  w.put(ctx_.id);
  w.put(mode);
  w.put_bytes(std::move(req).take());
  ctx_.send(MsgType::kLockRequest, ctx_.lock_home(lock), std::move(w).take());

  const LockMode held = mode == kModeRead ? LockMode::kRead : LockMode::kWrite;
  const MutexLock guard(mutex_);
  auto& L = local_[lock];
  while (!L.granted) cv_.wait(mutex_);
  L.granted = false;
  L.held = held;
  if (mode == kModeChain) L.have_token = true;
  if (ctx_.check != nullptr) ctx_.check->on_lock_acquired(ctx_.id, self_tid(), lock, held);
  ctx_.stats->histogram("sync.lock_wait_ns").record(ctx_.clock->now() - t0);
}

void SyncAgent::flush_for_release(LockId lock, LockMode mode) {
  DSM_CHECK_MSG(lock < local_.size(), "lock id " << lock << " out of range");
  // Consistency actions must complete before anyone else can hold the lock.
  // Readers flush too: a reader may have written *other* data, and this
  // makes its release a proper release for the consistency protocol.
  protocol_.before_release(lock);
  // Hook after the consistency flush but before any grant can be sent: the
  // checker's release edge must precede the next acquirer's acquire edge.
  if (ctx_.check != nullptr) ctx_.check->on_lock_released(ctx_.id, self_tid(), lock, mode);
}

void SyncAgent::release_to_home(LockId lock, std::uint8_t mode) {
  const LockMode held = mode == kModeRead ? LockMode::kRead : LockMode::kWrite;
  flush_for_release(lock, held);
  {
    const MutexLock guard(mutex_);
    leave(lock, held);
  }
  cv_.notify_all();
  // Composed and sent under one guard: a release payload may omit what an
  // earlier release to the same home carried, so this node's releases must
  // reach each home in the order they were composed.
  const MutexLock order(release_mutex_);
  WireWriter payload(64);
  protocol_.fill_lock_release(lock, payload);
  WireWriter w(payload.size() + 16);
  w.put(lock);
  w.put(mode);
  w.put_bytes(std::move(payload).take());
  ctx_.send(MsgType::kLockRelease, ctx_.lock_home(lock), std::move(w).take());
}

// --------------------------------------------------------------------------
// Locks: service-thread side
// --------------------------------------------------------------------------

void SyncAgent::handle_lock_request(const Message& msg) {
  const auto req = parse_lock_request(msg);

  // FT: a request from an already-dead worker (its kPeerDown overtook the
  // request) must not be granted — the grant would be dead-dropped and the
  // token would be lost with no second regeneration coming.
  if (ctx_.cfg->ft.enabled && !ctx_.net->liveness().worker_live(req.origin)) return;

  if (req.mode == kModeRead || req.mode == kModeWrite) {
    home_request(req.lock, {req.origin, {req.payload.begin(), req.payload.end()}},
                 req.mode == kModeWrite);
    return;
  }

  // Forward-chain.
  if (req.mode != kModeForwarded) {
    DSM_CHECK(ctx_.lock_home(req.lock) == ctx_.id);
    route_to_tail(msg, req.lock, req.origin);
    return;
  }

  // Holder side: we are (or are about to become) the previous holder.
  bool grant_now = false;
  {
    const MutexLock guard(mutex_);
    auto& L = local_[req.lock];
    // Only a mutex hold keeps the token: a read hold on the same id is
    // home-managed state, separate from the chain.
    if (L.have_token && L.held != LockMode::kWrite) {
      L.have_token = false;
      grant_now = true;
    } else {
      DSM_CHECK_MSG(!L.successor.has_value(),
                    "two successors for lock " << req.lock << " at node " << ctx_.id);
      L.successor = msg;
    }
  }
  if (grant_now) send_grant(req.lock, req.origin, req.payload);
}

void SyncAgent::home_request(LockId lock, Waiter waiter, bool exclusive) {
  DSM_CHECK(ctx_.lock_home(lock) == ctx_.id);
  {
    const MutexLock guard(mutex_);
    auto& H = home_[lock];
    // Queued writers block new readers (no writer starvation).
    const bool blocked = H.writer != kNoNode ||
                         (exclusive ? !H.readers.empty() : !H.write_queue.empty());
    if (blocked) {
      (exclusive ? H.write_queue : H.read_queue).push_back(std::move(waiter));
      ctx_.stats->counter("sync.lock_queued").add();
      return;
    }
    if (exclusive) {
      H.writer = waiter.node;
    } else {
      H.readers.insert(waiter.node);
    }
  }
  send_home_grant(lock, waiter);
}

void SyncAgent::home_release(LockId lock, bool exclusive,
                             std::span<const std::byte> payload, NodeId from) {
  {
    const MutexLock guard(mutex_);
    auto& H = home_[lock];
    const auto reader = H.readers.find(from);
    // FT: the holder died and its kPeerDown overtook this release in our
    // mailbox — its grant was already regenerated, so the release is stale.
    if (ctx_.cfg->ft.enabled && (exclusive ? H.writer != from : reader == H.readers.end())) {
      return;
    }
    if (exclusive) {
      DSM_CHECK(H.writer != kNoNode);
      H.writer = kNoNode;
    } else {
      DSM_CHECK(reader != H.readers.end());
      H.readers.erase(reader);
    }
  }
  // Every release counts, not only the last: readers overlap, so the last
  // release may know less than an earlier one. Only this service thread
  // grants, so the merge lands before any grant below.
  WireReader r(payload);
  if (!protocol_.on_home_release(lock, r)) {
    const MutexLock guard(mutex_);
    home_[lock].release_payload.assign(payload.begin(), payload.end());
  }
  home_drain(lock);
}

void SyncAgent::home_drain(LockId lock) {
  // Writer preference: a queued writer goes next once readers drain;
  // otherwise admit every queued reader at once.
  std::deque<Waiter> grants;
  {
    const MutexLock guard(mutex_);
    auto& H = home_[lock];
    if (H.writer != kNoNode) return;
    if (!H.write_queue.empty()) {
      if (!H.readers.empty()) return;  // writer waits for readers to drain
      H.writer = H.write_queue.front().node;
      grants.push_back(std::move(H.write_queue.front()));
      H.write_queue.pop_front();
    } else {
      for (const auto& waiter : H.read_queue) H.readers.insert(waiter.node);
      grants.swap(H.read_queue);
    }
  }
  for (const auto& waiter : grants) send_home_grant(lock, waiter);
}

void SyncAgent::route_to_tail(const Message& msg, LockId lock, NodeId origin) {
  NodeId previous_tail;
  {
    const MutexLock guard(mutex_);
    auto& H = home_[lock];
    previous_tail = H.tail;
    H.tail = origin;
  }
  DSM_CHECK_MSG(previous_tail != origin,
                "lock " << lock << ": chain tail re-requesting without token");
  // Re-encode with the forwarded flag set; the protocol payload rides along.
  WireReader r(msg.payload);
  r.get<LockId>();
  r.get<NodeId>();
  r.get<std::uint8_t>();
  const auto payload = r.get_bytes();
  WireWriter w(payload.size() + 16);
  w.put(lock);
  w.put(origin);
  w.put(kModeForwarded);
  w.put_bytes(payload);
  ctx_.send(MsgType::kLockRequest, previous_tail, std::move(w).take());
}

void SyncAgent::send_grant(LockId lock, NodeId origin,
                           std::span<const std::byte> request_payload) {
  WireWriter payload(64);
  protocol_.fill_lock_grant(lock, origin, request_payload, payload);
  WireWriter w(payload.size() + 8);
  w.put(lock);
  w.put_bytes(std::move(payload).take());
  ctx_.send(MsgType::kLockGrant, origin, std::move(w).take());
}

void SyncAgent::send_home_grant(LockId lock, const Waiter& waiter) {
  WireWriter filled(64);
  std::vector<std::byte> payload;
  if (protocol_.fill_home_grant(lock, waiter.request, filled)) {
    payload = std::move(filled).take();
  } else {
    const MutexLock guard(mutex_);
    payload = home_[lock].release_payload;
  }
  WireWriter w(payload.size() + 8);
  w.put(lock);
  w.put_bytes(payload);
  ctx_.send(MsgType::kLockGrant, waiter.node, std::move(w).take());
}

void SyncAgent::handle_lock_grant(const Message& msg) {
  WireReader r(msg.payload);
  const auto lock = r.get<LockId>();
  auto payload = r.get_bytes();
  DSM_CHECK_MSG(lock < local_.size(), "grant of lock " << lock << " out of range");
  bool home_grant;
  {
    const MutexLock guard(mutex_);
    home_grant = local_[lock].home_grant;
  }
  WireReader payload_reader(payload);
  if (home_grant) {
    protocol_.on_home_granted(lock, payload_reader);
  } else {
    protocol_.on_lock_granted(lock, payload_reader);
  }
  {
    const MutexLock guard(mutex_);
    local_[lock].granted = true;
  }
  cv_.notify_all();
}

void SyncAgent::handle_lock_release(const Message& msg) {
  WireReader r(msg.payload);
  const auto lock = r.get<LockId>();
  const auto mode = r.get<std::uint8_t>();
  const auto payload = r.get_bytes();
  DSM_CHECK(ctx_.lock_home(lock) == ctx_.id);
  DSM_CHECK(mode == kModeRead || mode == kModeWrite);
  home_release(lock, mode == kModeWrite, payload, msg.src);
}

// --------------------------------------------------------------------------
// Barriers
// --------------------------------------------------------------------------

void SyncAgent::barrier(BarrierId barrier) {
  DSM_CHECK_MSG(barrier < barrier_gen_.size(), "barrier id " << barrier << " out of range");
  ctx_.stats->counter("sync.barriers").add();
  const VirtualTime t0 = ctx_.clock->now();
  const TraceScope span(ctx_.trace, ctx_.id, TraceCat::kSync, "barrier-wait",
                        ctx_.clock, "barrier", barrier);

  // Multi-threaded nodes: one app thread per node in the rendezvous at a
  // time (see barrier_busy_).
  {
    RelockableMutexLock gate(mutex_);
    while (barrier_busy_[barrier]) cv_.wait(mutex_);
    barrier_busy_[barrier] = true;
  }

  protocol_.before_barrier(barrier);
  WireWriter payload(64);
  protocol_.fill_barrier_arrive(barrier, payload);
  WireWriter w(payload.size() + 8);
  w.put(barrier);
  w.put(std::uint8_t{0});  // phase 0: arrive
  w.put_bytes(std::move(payload).take());

  std::uint64_t target;
  {
    const MutexLock guard(mutex_);
    target = ++barrier_entered_[barrier];
  }
  // Arrive hook strictly before the arrive message: the home releases only
  // after all N arrivals, so every arrive hook precedes every depart hook
  // for this round — the checker's accumulator is complete by departure.
  if (ctx_.check != nullptr) {
    ctx_.check->on_barrier_arrive(ctx_.id, self_tid(), barrier);
  }
  ctx_.send(MsgType::kBarrierArrive, ctx_.barrier_home(barrier), std::move(w).take());

  {
    RelockableMutexLock guard(mutex_);
    while (barrier_gen_[barrier] < target) cv_.wait(mutex_);
    if (ctx_.check != nullptr) {
      ctx_.check->on_barrier_depart(ctx_.id, self_tid(), barrier);
    }
    barrier_busy_[barrier] = false;
  }
  cv_.notify_all();
  ctx_.stats->histogram("sync.barrier_wait_ns").record(ctx_.clock->now() - t0);
}

void SyncAgent::handle_barrier_arrive(const Message& msg) {
  WireReader r(msg.payload);
  const auto barrier = r.get<BarrierId>();
  const auto phase = r.get<std::uint8_t>();
  const auto payload = r.get_bytes();
  DSM_CHECK(ctx_.barrier_home(barrier) == ctx_.id);

  if (phase == 1) {
    // Settlement ack (two-phase barrier): everyone applied the release.
    const MutexLock guard(mutex_);
    barrier_acked_[barrier].insert(msg.src);
  } else {
    WireReader payload_reader(payload);
    protocol_.on_barrier_collect(barrier, msg.src, payload_reader);
    const MutexLock guard(mutex_);
    barrier_arrived_[barrier].insert(msg.src);
  }
  maybe_complete_barrier(barrier);
}

void SyncAgent::maybe_complete_barrier(BarrierId barrier) {
  // A round completes when every *live* worker has arrived (or acked, for
  // the settlement phase). Without faults the live worker set is all N
  // nodes, so this degenerates to the classic full-count rendezvous. The
  // empty-set guard keeps an idle round (nothing arrived yet) from
  // completing spuriously when a death shrinks the target.
  const auto& live = ctx_.net->liveness();
  const auto covers = [&](const std::set<NodeId>& arrived) {
    if (arrived.empty()) return false;
    for (std::size_t n = 0; n < ctx_.n_nodes; ++n) {
      const auto node = static_cast<NodeId>(n);
      if (live.worker_live(node) && arrived.count(node) == 0) return false;
    }
    return true;
  };
  bool arrive_complete = false;
  bool ack_complete = false;
  {
    const MutexLock guard(mutex_);
    if (covers(barrier_arrived_[barrier])) {
      barrier_arrived_[barrier].clear();
      arrive_complete = true;
    }
    if (covers(barrier_acked_[barrier])) {
      barrier_acked_[barrier].clear();
      ack_complete = true;
    }
  }
  if (arrive_complete) {
    WireWriter release(64);
    protocol_.fill_barrier_release(barrier, release);
    broadcast_barrier_release(barrier, 0, std::move(release).take());
  }
  if (ack_complete) broadcast_barrier_release(barrier, 1, {});
}

void SyncAgent::broadcast_barrier_release(BarrierId barrier, std::uint8_t phase,
                                          std::vector<std::byte> payload) {
  WireWriter w(payload.size() + 16);
  w.put(barrier);
  w.put(phase);
  w.put_bytes(payload);
  const Message prototype =
      ctx_.make(MsgType::kBarrierRelease, kNoNode, std::move(w).take());
  std::vector<NodeId> everyone(ctx_.n_nodes);
  for (std::size_t n = 0; n < ctx_.n_nodes; ++n) everyone[n] = static_cast<NodeId>(n);
  ctx_.net->multicast(everyone, prototype);
}

void SyncAgent::handle_barrier_release(const Message& msg) {
  WireReader r(msg.payload);
  const auto barrier = r.get<BarrierId>();
  const auto phase = r.get<std::uint8_t>();
  const auto payload = r.get_bytes();

  if (phase == 0) {
    WireReader payload_reader(payload);
    protocol_.on_barrier_release(barrier, payload_reader);
    if (protocol_.barrier_needs_settlement()) {
      // Two-phase: ack, and only resume on the phase-1 broadcast, so no
      // node can observe a peer that has not yet applied the release.
      WireWriter w(16);
      w.put(barrier);
      w.put(std::uint8_t{1});
      w.put_bytes({});
      ctx_.send(MsgType::kBarrierArrive, ctx_.barrier_home(barrier), std::move(w).take());
      return;
    }
  }
  {
    const MutexLock guard(mutex_);
    ++barrier_gen_[barrier];
  }
  cv_.notify_all();
}

// --------------------------------------------------------------------------
// Crash fault tolerance
// --------------------------------------------------------------------------

void SyncAgent::on_peer_down(NodeId peer) {
  // Lock state lives at each lock's home (node 0 under FT, which is never a
  // kill victim), so only the home acts here. Re-running after a duplicate
  // death announcement is safe: the holder fields were already cleared.
  for (LockId l = 0; l < ctx_.cfg->n_locks; ++l) {
    if (ctx_.lock_home(l) != ctx_.id) continue;
    bool regenerated = false;
    {
      const MutexLock guard(mutex_);
      auto& H = home_[l];
      const auto from_peer = [peer](const Waiter& waiter) { return waiter.node == peer; };
      std::erase_if(H.read_queue, from_peer);
      std::erase_if(H.write_queue, from_peer);
      regenerated = H.readers.erase(peer) > 0;
      if (H.writer == peer) {
        H.writer = kNoNode;
        regenerated = true;
      }
      if (regenerated) {
        // The holder died inside its critical section: mint a replacement
        // token, exactly once (the checker audits the exactly-once part).
        ctx_.stats->counter("ft.token_regens").add();
        if (ctx_.check != nullptr) ctx_.check->on_token_regenerated(l, peer);
      }
    }
    if (regenerated) home_drain(l);
  }
  // A dead worker shrinks the rendezvous: a round it never arrived at may
  // now be complete with the arrivals already collected.
  for (BarrierId b = 0; b < ctx_.cfg->n_barriers; ++b) {
    if (ctx_.barrier_home(b) == ctx_.id) maybe_complete_barrier(b);
  }
}

void SyncAgent::on_peer_up(NodeId /*peer*/) {
  // A restarted node rejoins the memory fabric only; its worker never
  // re-enters the computation, so lock and barrier state are unaffected.
}

void SyncAgent::on_self_restart() {
  const MutexLock guard(mutex_);
  // Home-side state matters only at node 0, which never restarts under FT.
  for (auto& L : local_) L = LocalLock{};
}

}  // namespace dsm
