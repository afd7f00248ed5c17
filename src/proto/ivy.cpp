#include "proto/ivy.hpp"

#include <mutex>

#include "common/logging.hpp"
#include "proto/page_io.hpp"

namespace dsm {
namespace {

// Payload layouts (see WireWriter):
//   kReadRequest / kWriteRequest : u32 page | u32 requester
//   kReadForward / kWriteForward : u32 page | u32 requester   (central/fixed)
//   kReadReply                   : u32 page | raw page bytes
//   kWriteReply                  : u32 page | u32 n | n×u32 holders | raw page bytes
//   kInvalidate                  : u32 page | u32 new_owner
//   kInvalidateAck / kConfirm    : u32 page

struct PageReq {
  PageId page;
  NodeId requester;
};

PageReq parse_req(const Message& msg) {
  WireReader r(msg.payload);
  PageReq req{r.get<PageId>(), r.get<NodeId>()};
  DSM_CHECK(r.done());
  return req;
}

std::vector<std::byte> encode_req(PageId page, NodeId requester) {
  WireWriter w(8);
  w.put(page);
  w.put(requester);
  return std::move(w).take();
}

std::vector<std::byte> encode_page(PageId page) {
  WireWriter w(4);
  w.put(page);
  return std::move(w).take();
}

}  // namespace

IvyProtocol::IvyProtocol(NodeContext& ctx, Placement placement)
    : Protocol(ctx), placement_(placement) {}

std::string_view IvyProtocol::name() const {
  switch (placement_) {
    case Placement::kCentral: return "ivy-central";
    case Placement::kFixed: return "ivy-fixed";
    case Placement::kDynamic: return "ivy-dynamic";
  }
  return "ivy";
}

NodeId IvyProtocol::manager_of(PageId page) const {
  return placement_ == Placement::kCentral ? NodeId{0} : ctx_.home_of(page);
}

NodeId IvyProtocol::route(PageId page, const PageEntry& e) const {
  return managed() ? manager_of(page) : e.prob_owner;
}

void IvyProtocol::init_pages() {
  for (PageId p = 0; p < ctx_.table->n_pages(); ++p) {
    auto& e = ctx_.table->entry(p);
    const MutexLock lock(e.mutex);
    const NodeId home = ctx_.home_of(p);
    e.owner = home;  // the manager's directory; unused by dynamic
    e.prob_owner = home;
    e.is_owner = home == ctx_.id;
    e.state = e.is_owner ? PageState::kReadWrite : PageState::kInvalid;
    page_io::note_state(ctx_, p, e.state);
    ctx_.view->protect(p, page_io::rights_for(e.state));
    e.copyset.clear();
    e.busy = false;
    e.manager_busy = false;
    e.discard_reply = false;
    e.acks_outstanding = 0;
    e.parked.clear();
    e.manager_parked.clear();
  }
}

void IvyProtocol::on_read_fault(PageId page) { fault(page, /*is_write=*/false); }
void IvyProtocol::on_write_fault(PageId page) { fault(page, /*is_write=*/true); }

void IvyProtocol::fault(PageId page, bool is_write) {
  auto& e = ctx_.table->entry(page);
  RelockableMutexLock lock(e.mutex);
  // Wait for *our transaction* (!busy), not for the state: the service
  // thread may end our acquisition and at once hand the page on to a parked
  // or forwarded request. If access is gone by the time we run, we request
  // again; the faulting instruction retries after this returns either way.
  for (;;) {
    if (is_write ? e.state == PageState::kReadWrite : e.state != PageState::kInvalid) return;
    if (e.busy) {
      e.cv.wait(e.mutex);
      continue;
    }
    e.busy = true;
    ctx_.stats->counter(is_write ? "proto.write_faults" : "proto.read_faults").add();
    ctx_.clock->advance(ctx_.cfg->fault_ns);
    const VirtualTime t0 = ctx_.clock->now();
    if (is_write && e.is_owner && !managed()) {
      // The dynamic owner upgrades its read-only copy in place; no
      // ownership motion. (A manager routes the upgrade like any write —
      // kWriteForward to the owner itself — so it queues behind the
      // transactions the manager already forwarded.) With no holders the
      // write finishes within this hold: nobody saw `busy`, so there is
      // nothing to wake or replay.
      const auto holders = e.copyset.members();
      e.copyset.clear();
      invalidate(page, e, holders);
    } else {
      const NodeId target = route(page, e);
      lock.unlock();
      ctx_.send(is_write ? MsgType::kWriteRequest : MsgType::kReadRequest, target,
                encode_req(page, ctx_.id));
      if (!is_write) prefetch_sequential(page);
      lock.lock();
    }
    while (e.busy) e.cv.wait(e.mutex);
    ctx_.stats->histogram("proto.fault_service_ns").record(ctx_.clock->now() - t0);
    if (ctx_.trace != nullptr)
      ctx_.trace->complete(ctx_.id, TraceCat::kProto, "fault-txn", t0,
                           ctx_.clock->now(), "page", page);
  }
}

void IvyProtocol::prefetch_sequential(PageId page) {
  for (std::size_t k = 1; k <= ctx_.cfg->prefetch_pages; ++k) {
    const PageId next = page + static_cast<PageId>(k);
    if (next >= ctx_.table->n_pages()) return;
    auto& e = ctx_.table->entry(next);
    NodeId target;
    {
      const MutexLock lock(e.mutex);
      if (e.state != PageState::kInvalid || e.busy) continue;
      // An asynchronous read transaction: nobody waits; the normal reply
      // path installs the page and clears busy. A later fault on this page
      // simply joins the wait.
      e.busy = true;
      target = route(next, e);
    }
    ctx_.stats->counter("proto.prefetches").add();
    ctx_.send(MsgType::kReadRequest, target, encode_req(next, ctx_.id));
  }
}

void IvyProtocol::on_message(const Message& msg) {
  switch (msg.type) {
    case MsgType::kReadRequest:
    case MsgType::kWriteRequest:
      if (managed()) {
        handle_manager_request(msg);
      } else {
        serve(msg);
      }
      return;
    case MsgType::kReadForward:
    case MsgType::kWriteForward: serve(msg); return;
    case MsgType::kReadReply: handle_read_reply(msg); return;
    case MsgType::kWriteReply: handle_write_reply(msg); return;
    case MsgType::kInvalidate: handle_invalidate(msg); return;
    case MsgType::kInvalidateAck: handle_invalidate_ack(msg); return;
    case MsgType::kConfirm: handle_confirm(msg); return;
    default:
      DSM_CHECK_MSG(false, name() << ": unexpected message " << to_string(msg.type));
  }
}

void IvyProtocol::handle_manager_request(const Message& msg) {
  const auto [page, requester] = parse_req(msg);
  auto& e = ctx_.table->entry(page);
  NodeId owner;
  {
    const MutexLock lock(e.mutex);
    if (e.manager_busy) {
      e.manager_parked.push_back(msg);
      ctx_.stats->counter("ivy.manager_parked").add();
      return;
    }
    e.manager_busy = true;
    owner = e.owner;
    if (msg.type == MsgType::kWriteRequest) e.owner = requester;  // next transactions route to the new owner once confirmed
  }
  const auto fwd = msg.type == MsgType::kReadRequest ? MsgType::kReadForward
                                                     : MsgType::kWriteForward;
  ctx_.send(fwd, owner, encode_req(page, requester));
}

void IvyProtocol::serve(const Message& msg) {
  const auto [page, requester] = parse_req(msg);
  const bool is_write =
      msg.type == MsgType::kWriteRequest || msg.type == MsgType::kWriteForward;
  auto& e = ctx_.table->entry(page);
  MsgType type = msg.type;
  NodeId to = requester;
  std::vector<std::byte> bytes;
  std::vector<NodeId> holders;
  bool upgraded = false;
  {
    // One hold covers the decision (park, forward or serve) and the state
    // change it implies. A dynamic owner's app thread may start an in-place
    // upgrade at any moment; between a check and a re-lock it would
    // invalidate the copyset and then find this reader added to the fresh
    // one, or see the page transferred under its own pending upgrade.
    const MutexLock lock(e.mutex);
    if (e.busy && !managed()) {
      // This node is in the middle of its own transaction on the page. Once
      // it ends, the node either owns the page and serves, or forwards.
      e.parked.push_back(msg);
      ctx_.stats->counter("ivy.parked").add();
      return;
    }
    // Under a manager the owner serves even while busy: its own request
    // waits at the manager behind this one, so parking would deadlock both.
    if (!e.is_owner) {
      DSM_CHECK_MSG(!managed(), "ivy: non-owner " << ctx_.id << " asked to serve page " << page);
      to = e.prob_owner;
      DSM_CHECK_MSG(to != ctx_.id, "probable-owner self loop on page " << page);
      // Path compression: the requester is about to become (or talk to) the
      // owner, so future traffic should head its way.
      e.prob_owner = requester;
      ctx_.stats->counter("ivy.forwards").add();
    } else if (!is_write) {
      if (e.state == PageState::kReadWrite) {
        ctx_.view->protect(page, Access::kRead);
        e.state = PageState::kReadOnly;
        page_io::note_state(ctx_, page, PageState::kReadOnly);
      }
      e.copyset.insert(requester);
      bytes = page_io::read_page(ctx_, page, e.state);
      type = MsgType::kReadReply;
    } else if (requester == ctx_.id) {
      // Manager-routed upgrade of the owner's own read-only copy: no data
      // moves; invalidate the copyset and finish here.
      DSM_CHECK(e.state != PageState::kInvalid);
      holders = e.copyset.members();
      e.copyset.clear();
      if (!invalidate(page, e, holders)) return;
      upgraded = true;
    } else {
      // Revoke the app view BEFORE copying the bytes out. The old owner's
      // app thread may be storing to an unrelated word of this page right
      // now (it holds a different lock); with copy-first, a store landing
      // between the copy and the revocation stays local, dies with the zap,
      // and the new owner never sees it — a lost update. Revoke-first makes
      // any concurrent store fault and replay against the new owner. The
      // copy goes through the service alias, which the zap cannot touch.
      // The old owner's copy dies right here — no invalidate message needed.
      const PageState had = e.state;
      ctx_.view->protect(page, Access::kNone);
      e.state = PageState::kInvalid;
      page_io::note_state(ctx_, page, PageState::kInvalid);
      bytes = page_io::read_page(ctx_, page, had);
      for (const NodeId n : e.copyset.members()) {
        if (n != requester) holders.push_back(n);
      }
      e.copyset.clear();
      e.is_owner = false;
      e.prob_owner = requester;
      type = MsgType::kWriteReply;
    }
  }
  if (upgraded) {
    complete(page);  // no holders: the upgrade finished inline
  } else if (type == msg.type) {
    ctx_.send(type, to, msg.payload);  // forwarded unchanged
  } else {
    WireWriter w(bytes.size() + 16);
    w.put(page);
    if (type == MsgType::kWriteReply) w.put_vector(holders);
    page_io::put_page(ctx_, w, bytes);
    ctx_.send(type, to, std::move(w).take());
  }
}

void IvyProtocol::handle_read_reply(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto bytes = page_io::get_page(ctx_, r);
  auto& e = ctx_.table->entry(page);
  {
    const MutexLock lock(e.mutex);
    if (e.discard_reply) {
      // A new writer invalidated the copy this reply carries while it was
      // in flight (we already acked the invalidation). Installing it would
      // leave a read-only copy the writer believes is gone — drop it; the
      // faulting thread requests again. prob_owner already points at the
      // new writer (set by the invalidation).
      e.discard_reply = false;
      ctx_.stats->counter("ivy.discarded_replies").add();
    } else {
      page_io::install_page(ctx_, page, bytes, Access::kRead);
      e.state = PageState::kReadOnly;
      page_io::note_state(ctx_, page, PageState::kReadOnly);
      e.prob_owner = msg.src;  // learned: the replier is the owner
    }
    e.busy = false;
  }
  complete(page);
  if (managed()) ctx_.send(MsgType::kConfirm, manager_of(page), encode_page(page));
}

void IvyProtocol::handle_write_reply(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto holders = r.get_vector<NodeId>();
  const auto bytes = page_io::get_page(ctx_, r);
  auto& e = ctx_.table->entry(page);
  bool done;
  {
    const MutexLock lock(e.mutex);
    // The bytes go in through the service window; the app view keeps its
    // rights until finish_write, once every stale copy is gone. Granting
    // write access here would let a sibling app thread store while other
    // nodes still read their old copies.
    page_io::write_page(ctx_, page, bytes);
    e.is_owner = true;
    e.prob_owner = ctx_.id;
    e.discard_reply = false;  // a write reply is authoritative (linearized transfer)
    e.copyset.clear();
    done = invalidate(page, e, holders);
  }
  if (done) complete(page);
}

bool IvyProtocol::invalidate(PageId page, PageEntry& e, const std::vector<NodeId>& holders) {
  // Sending while holding the entry lock is safe: Mailbox::push only takes
  // the mailbox mutex.
  if (holders.empty()) {
    finish_write(page, e);
    return true;
  }
  e.acks_outstanding = static_cast<int>(holders.size());
  WireWriter w(8);
  w.put(page);
  w.put(ctx_.id);
  const auto payload = std::move(w).take();
  for (const NodeId n : holders) ctx_.send(MsgType::kInvalidate, n, payload);
  return false;
}

void IvyProtocol::finish_write(PageId page, PageEntry& e) {
  ctx_.view->protect(page, Access::kReadWrite);
  e.state = PageState::kReadWrite;
  page_io::note_state(ctx_, page, PageState::kReadWrite);
  e.busy = false;
  if (managed()) ctx_.send(MsgType::kConfirm, manager_of(page), encode_page(page));
}

void IvyProtocol::handle_invalidate(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto new_owner = r.get<NodeId>();
  auto& e = ctx_.table->entry(page);
  {
    const MutexLock lock(e.mutex);
    if (e.state != PageState::kInvalid) {
      ctx_.view->protect(page, Access::kNone);
      e.state = PageState::kInvalid;
      page_io::note_state(ctx_, page, PageState::kInvalid);
    }
    if (e.busy && !e.is_owner) {
      // Our request is outstanding: a read reply may carry the very copy
      // this message invalidates. Poison it (see handle_read_reply); a
      // write reply clears the poison.
      e.discard_reply = true;
    }
    e.prob_owner = new_owner;
  }
  ctx_.send(MsgType::kInvalidateAck, msg.src, encode_page(page));
}

void IvyProtocol::handle_invalidate_ack(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  auto& e = ctx_.table->entry(page);
  bool done = false;
  {
    const MutexLock lock(e.mutex);
    DSM_CHECK(e.acks_outstanding > 0);
    if (--e.acks_outstanding == 0) {
      finish_write(page, e);
      done = true;
    }
  }
  if (done) complete(page);
}

void IvyProtocol::handle_confirm(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  {
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    DSM_CHECK(e.manager_busy);
    e.manager_busy = false;
  }
  replay(page);
}

void IvyProtocol::complete(PageId page) {
  ctx_.table->entry(page).cv.notify_all();
  if (!managed()) replay(page);
}

void IvyProtocol::replay(PageId page) {
  auto& e = ctx_.table->entry(page);
  for (;;) {
    Message next;
    {
      const MutexLock lock(e.mutex);
      auto& queue = managed() ? e.manager_parked : e.parked;
      if ((managed() ? e.manager_busy : e.busy) || queue.empty()) return;
      next = std::move(queue.front());
      queue.pop_front();
    }
    on_message(next);
  }
}

}  // namespace dsm
