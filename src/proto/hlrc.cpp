#include "proto/hlrc.hpp"

#include <algorithm>
#include <cstring>

#include "common/logging.hpp"
#include "mem/diff.hpp"
#include "proto/page_io.hpp"

namespace dsm {

// Payload layouts (lock and barrier notice payloads: proto/notice_log.hpp,
// in its lamport-free format):
//   kPageRequest         : u32 page | u32 requester
//   kPageReply           : u32 page | raw page bytes
//   kUpdate (flush)      : u32 page | bytes diff
//   kUpdateAck           : (empty)

HlrcProtocol::HlrcProtocol(NodeContext& ctx)
    : Protocol(ctx),
      notices_(ctx.n_nodes, ctx.cfg->n_pages, /*lamport=*/false,
               [this](const IntervalRecord& rec) { on_notice(rec); }) {}

std::string_view HlrcProtocol::name() const { return "hlrc"; }

void HlrcProtocol::init_pages() {
  for (PageId p = 0; p < ctx_.table->n_pages(); ++p) {
    auto& e = ctx_.table->entry(p);
    const MutexLock lock(e.mutex);
    if (ctx_.home_of(p) == ctx_.id) {
      e.state = PageState::kReadOnly;
      page_io::note_state(ctx_, p, PageState::kReadOnly);
      ctx_.view->protect(p, Access::kRead);
    } else {
      e.state = PageState::kInvalid;
      page_io::note_state(ctx_, p, PageState::kInvalid);
      ctx_.view->protect(p, Access::kNone);
    }
    e.busy = false;
    e.dirty = false;
    e.twin.reset();
  }
  const MutexLock meta(meta_mutex_);
  notices_.reset();
  {
    const MutexLock lock(dirty_mutex_);
    dirty_pages_.clear();
  }
  flush_outstanding_ = 0;
}

// --------------------------------------------------------------------------
// Faults
// --------------------------------------------------------------------------

void HlrcProtocol::on_read_fault(PageId page) {
  ctx_.stats->counter("proto.read_faults").add();
  auto& e = ctx_.table->entry(page);
  RelockableMutexLock lock(e.mutex);
  ctx_.clock->advance(ctx_.cfg->fault_ns);
  for (;;) {
    if (e.state != PageState::kInvalid) return;
    if (e.busy) {
      e.cv.wait(e.mutex);
      continue;
    }
    e.busy = true;
    lock.unlock();
    const VirtualTime t0 = ctx_.clock->now();
    WireWriter w(8);
    w.put(page);
    w.put(ctx_.id);
    ctx_.send(MsgType::kPageRequest, ctx_.home_of(page), std::move(w).take());
    prefetch_sequential(page);
    lock.lock();
    while (e.busy) e.cv.wait(e.mutex);
    ctx_.stats->histogram("proto.fault_service_ns").record(ctx_.clock->now() - t0);
    if (ctx_.trace != nullptr)
      ctx_.trace->complete(ctx_.id, TraceCat::kProto, "fault-txn", t0,
                           ctx_.clock->now(), "page", page);
  }
}

void HlrcProtocol::prefetch_sequential(PageId page) {
  for (std::size_t k = 1; k <= ctx_.cfg->prefetch_pages; ++k) {
    const PageId next = page + static_cast<PageId>(k);
    if (next >= ctx_.table->n_pages()) return;
    auto& e = ctx_.table->entry(next);
    {
      const MutexLock lock(e.mutex);
      if (e.state != PageState::kInvalid || e.busy) continue;
      e.busy = true;  // async fetch; handle_page_reply completes it
    }
    ctx_.stats->counter("proto.prefetches").add();
    WireWriter w(8);
    w.put(next);
    w.put(ctx_.id);
    ctx_.send(MsgType::kPageRequest, ctx_.home_of(next), std::move(w).take());
  }
}

void HlrcProtocol::on_write_fault(PageId page) {
  ctx_.stats->counter("proto.write_faults").add();
  auto& e = ctx_.table->entry(page);
  RelockableMutexLock lock(e.mutex);
  ctx_.clock->advance(ctx_.cfg->fault_ns);
  for (;;) {
    if (e.state == PageState::kReadWrite) return;
    if (e.busy) {
      e.cv.wait(e.mutex);
      continue;
    }
    if (e.state == PageState::kReadOnly) {
      if (e.twin == nullptr) e.twin = make_twin(ctx_.view->alias_span(page));
      ctx_.view->protect(page, Access::kReadWrite);
      e.state = PageState::kReadWrite;
      page_io::note_state(ctx_, page, PageState::kReadWrite);
      if (!e.dirty) {
        e.dirty = true;
        const MutexLock dirty(dirty_mutex_);
        dirty_pages_.push_back(page);
      }
      return;
    }
    e.busy = true;
    lock.unlock();
    WireWriter w(8);
    w.put(page);
    w.put(ctx_.id);
    ctx_.send(MsgType::kPageRequest, ctx_.home_of(page), std::move(w).take());
    lock.lock();
    while (e.busy) e.cv.wait(e.mutex);
  }
}

// --------------------------------------------------------------------------
// Intervals and flushes
// --------------------------------------------------------------------------

void HlrcProtocol::close_and_flush() {
  // Swap the dirty list out whole: a concurrent write fault on another app
  // thread may be appending. A racer that swaps an empty list still waits
  // out the outstanding acks below — no release completes before every
  // page dirtied under it is home-acknowledged.
  std::vector<PageId> dirty;
  {
    const MutexLock lock(dirty_mutex_);
    dirty.swap(dirty_pages_);
  }
  if (dirty.empty()) {
    RelockableMutexLock lock(flush_mutex_);
    while (flush_outstanding_ != 0) flush_cv_.wait(flush_mutex_);
    return;
  }
  {
    const MutexLock flush(flush_mutex_);
    flush_outstanding_ += static_cast<int>(dirty.size());
  }
  {
    const MutexLock meta(meta_mutex_);
    notices_.add_interval(ctx_.id, dirty);
    publish_vclock();
    for (const PageId page : dirty) {
      auto& e = ctx_.table->entry(page);
      const MutexLock lock(e.mutex);
      DSM_CHECK(e.dirty && e.twin != nullptr);
      // Read through the service window: the page may have been invalidated
      // (PROT_NONE) while dirty, and a fault here would self-deadlock.
      std::vector<std::byte> diff =
          encode_diff(ctx_.view->alias_span(page), {e.twin.get(), ctx_.cfg->page_size});
      ctx_.stats->counter("hlrc.flush_bytes").add(diff.size());
      e.twin.reset();
      e.dirty = false;
      // The copy stays readable: its content is exactly what we flushed.
      // A later write re-twins; remote writes arrive as notices.
      if (e.state != PageState::kInvalid) {
        ctx_.view->protect(page, Access::kRead);
        e.state = PageState::kReadOnly;
        page_io::note_state(ctx_, page, PageState::kReadOnly);
      }
      WireWriter w(diff.size() + 16);
      w.put(page);
      w.put_bytes(diff);
      ctx_.send(MsgType::kUpdate, ctx_.home_of(page), std::move(w).take());
    }
  }

  // Eager half of HLRC: the release is not complete (and no grant can be
  // filled) until every home acknowledged — homes are then hb-current.
  RelockableMutexLock lock(flush_mutex_);
  while (flush_outstanding_ != 0) flush_cv_.wait(flush_mutex_);
}

void HlrcProtocol::before_release(LockId) { close_and_flush(); }
void HlrcProtocol::before_barrier(BarrierId) { close_and_flush(); }

void HlrcProtocol::handle_flush(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto diff = r.get_bytes();
  auto& e = ctx_.table->entry(page);
  {
    const MutexLock lock(e.mutex);
    DSM_CHECK_MSG(ctx_.home_of(page) == ctx_.id, "hlrc: flush at non-home");
    // Arrival order is happens-before-consistent: an hb-later writer could
    // only have started after this diff was acknowledged. Apply through the
    // service window — relaxing the app view's protection would let a
    // concurrent app-thread store retire without faulting (lost update).
    apply_diff(ctx_.view->alias_span(page), diff);
    if (e.twin != nullptr) apply_diff({e.twin.get(), ctx_.cfg->page_size}, diff);
  }
  ctx_.send(MsgType::kUpdateAck, msg.src, {});
}

void HlrcProtocol::handle_flush_ack(const Message&) {
  bool done;
  {
    const MutexLock lock(flush_mutex_);
    DSM_CHECK(flush_outstanding_ > 0);
    done = --flush_outstanding_ == 0;
  }
  if (done) flush_cv_.notify_all();
}

// --------------------------------------------------------------------------
// Page fetches
// --------------------------------------------------------------------------

void HlrcProtocol::handle_page_request(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto requester = r.get<NodeId>();
  DSM_CHECK_MSG(ctx_.home_of(page) == ctx_.id, "hlrc: page request at non-home");
  auto& e = ctx_.table->entry(page);
  std::vector<std::byte> bytes(ctx_.cfg->page_size);
  {
    const MutexLock lock(e.mutex);
    std::memcpy(bytes.data(), ctx_.view->alias_ptr(page), bytes.size());
  }
  WireWriter w(bytes.size() + 8);
  w.put(page);
  page_io::put_page(ctx_, w, bytes);
  ctx_.send(MsgType::kPageReply, requester, std::move(w).take());
}

void HlrcProtocol::handle_page_reply(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto bytes = page_io::get_page(ctx_, r);
  auto& e = ctx_.table->entry(page);
  {
    const MutexLock lock(e.mutex);
    if (e.twin != nullptr) {
      // We were mid-write when the copy was invalidated: preserve the
      // unflushed local words (disjoint from remote ones under DRF) by
      // re-applying our local diff over the fetched page. All moves go
      // through the service window — the page is PROT_NONE right now, and
      // a fault on the service thread would deadlock.
      const auto local = encode_diff(ctx_.view->alias_span(page),
                                     {e.twin.get(), ctx_.cfg->page_size});
      std::memcpy(ctx_.view->alias_ptr(page), bytes.data(), bytes.size());
      std::memcpy(e.twin.get(), bytes.data(), bytes.size());
      apply_diff(ctx_.view->alias_span(page), local);
      ctx_.view->protect(page, Access::kReadWrite);
      e.state = PageState::kReadWrite;
      page_io::note_state(ctx_, page, PageState::kReadWrite);
    } else {
      page_io::install_page(ctx_, page, bytes, Access::kRead);
      e.state = PageState::kReadOnly;
      page_io::note_state(ctx_, page, PageState::kReadOnly);
    }
    e.busy = false;
  }
  e.cv.notify_all();
}

// --------------------------------------------------------------------------
// Notices (locks and barriers)
// --------------------------------------------------------------------------

void HlrcProtocol::fill_lock_request(LockId, WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  notices_.write_request(out);
}

void HlrcProtocol::fill_lock_grant(LockId, NodeId /*to*/,
                                   std::span<const std::byte> request_payload,
                                   WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  notices_.write_grant(request_payload, out);
}

void HlrcProtocol::on_lock_granted(LockId, WireReader& in) {
  const MutexLock meta(meta_mutex_);
  notices_.absorb(in);
  publish_vclock();
}

void HlrcProtocol::fill_lock_release(LockId lock, WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  notices_.write_release(lock, ctx_.lock_home(lock), out);
}

bool HlrcProtocol::on_home_release(LockId lock, WireReader& in) {
  const MutexLock meta(meta_mutex_);
  notices_.absorb_release(lock, in);
  return true;
}

bool HlrcProtocol::fill_home_grant(LockId lock, std::span<const std::byte> request_payload,
                                   WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  notices_.write_home_grant(lock, request_payload, out);
  return true;
}

void HlrcProtocol::on_home_granted(LockId lock, WireReader& in) {
  const MutexLock meta(meta_mutex_);
  notices_.absorb_home_grant(lock, in);
  publish_vclock();
}

void HlrcProtocol::on_notice(const IntervalRecord& rec) {
  for (const PageId page : rec.pages) {
    if (ctx_.home_of(page) == ctx_.id) continue;  // home copy is kept current
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    if (e.state != PageState::kInvalid) {
      ctx_.view->protect(page, Access::kNone);
      e.state = PageState::kInvalid;
      page_io::note_state(ctx_, page, PageState::kInvalid);
      ctx_.stats->counter("hlrc.notice_invalidations").add();
    }
  }
}

void HlrcProtocol::publish_vclock() {
  if (ctx_.check != nullptr) ctx_.check->on_vclock(ctx_.id, notices_.vc());
}

void HlrcProtocol::fill_barrier_arrive(BarrierId, WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  notices_.write_arrive(ctx_.id, out);
}

void HlrcProtocol::on_barrier_collect(BarrierId, NodeId /*from*/, WireReader& in) {
  const MutexLock meta(meta_mutex_);
  notices_.collect_arrive(in);
}

void HlrcProtocol::fill_barrier_release(BarrierId, WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  notices_.write_barrier_release(out);
}

void HlrcProtocol::on_barrier_release(BarrierId, WireReader& in) {
  const MutexLock meta(meta_mutex_);
  notices_.absorb(in);
  publish_vclock();
  // All homes were flushed before anyone arrived and everyone has now seen
  // every notice: the interval logs can be collected. (No diff caches exist
  // to collect — that is the point of HLRC.)
  notices_.collect_garbage();
}

// --------------------------------------------------------------------------

void HlrcProtocol::on_message(const Message& msg) {
  switch (msg.type) {
    case MsgType::kPageRequest: handle_page_request(msg); return;
    case MsgType::kPageReply: handle_page_reply(msg); return;
    case MsgType::kUpdate: handle_flush(msg); return;
    case MsgType::kUpdateAck: handle_flush_ack(msg); return;
    default:
      DSM_CHECK_MSG(false, "hlrc: unexpected message " << to_string(msg.type));
  }
}

}  // namespace dsm
