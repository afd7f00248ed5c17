#include "proto/hlrc.hpp"

#include <algorithm>
#include <cstring>

#include "common/logging.hpp"
#include "mem/diff.hpp"
#include "proto/page_io.hpp"

namespace dsm {

// Payload layouts (vector clocks use the common/vclock.hpp codec):
//   lock request payload : u32 n | n×u32 vclock
//   lock grant payload   : u32 n | vclock | u32 nrec |
//                          nrec × { u32 node | u32 interval | u32 npages | pages }
//   barrier arrive/release: same as grant payload
//   kPageRequest         : u32 page | u32 requester
//   kPageReply           : u32 page | raw page bytes
//   kUpdate (flush)      : u32 page | bytes diff
//   kUpdateAck           : (empty)

HlrcProtocol::HlrcProtocol(NodeContext& ctx)
    : Protocol(ctx), vc_(ctx.n_nodes), interval_log_(ctx.n_nodes), barrier_vc_(ctx.n_nodes) {}

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
  vc_ = VectorClock(ctx_.n_nodes);
  for (auto& log : interval_log_) log.clear();
  {
    const MutexLock lock(dirty_mutex_);
    dirty_pages_.clear();
  }
  flush_outstanding_ = 0;
  barrier_records_.clear();
  barrier_vc_ = VectorClock(ctx_.n_nodes);
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
  IntervalRecord rec;
  rec.node = ctx_.id;
  rec.pages = dirty;
  {
    const MutexLock meta(meta_mutex_);
    vc_.tick(ctx_.id);
    if (ctx_.check != nullptr) ctx_.check->on_vclock(ctx_.id, vc_);
    rec.interval = vc_[ctx_.id];
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
    interval_log_[ctx_.id].push_back(std::move(rec));
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
  write_vclock(vc_, out);
}

void HlrcProtocol::write_records_after(const VectorClock& horizon, WireWriter& out) {
  // meta_mutex_ held by the caller.
  std::uint32_t count = 0;
  for (const auto& log : interval_log_) {
    for (const auto& rec : log) {
      if (rec.interval > horizon[rec.node]) ++count;
    }
  }
  out.put(count);
  for (const auto& log : interval_log_) {
    for (const auto& rec : log) {
      if (rec.interval <= horizon[rec.node]) continue;
      out.put(rec.node);
      out.put(rec.interval);
      out.put_vector(rec.pages);
    }
  }
}

void HlrcProtocol::fill_lock_grant(LockId, NodeId /*to*/,
                                   std::span<const std::byte> request_payload,
                                   WireWriter& out) {
  VectorClock horizon(ctx_.n_nodes);
  if (!request_payload.empty()) {
    WireReader r(request_payload);
    horizon = read_vclock(r, ctx_.n_nodes);
  }
  const MutexLock meta(meta_mutex_);
  write_vclock(vc_, out);
  write_records_after(horizon, out);
}

void HlrcProtocol::ingest_records(WireReader& in, std::size_t count) {
  // meta_mutex_ held by the caller.
  for (std::size_t i = 0; i < count; ++i) {
    IntervalRecord rec;
    rec.node = in.get<NodeId>();
    DSM_CHECK_MSG(rec.node < interval_log_.size(),
                  "hlrc: write notice from node " << rec.node << " out of range");
    rec.interval = in.get<std::uint32_t>();
    rec.pages = in.get_vector<PageId>();
    if (vc_.covers(rec.node, rec.interval)) continue;
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
    interval_log_[rec.node].push_back(std::move(rec));
  }
}

void HlrcProtocol::on_lock_granted(LockId, WireReader& in) {
  if (in.remaining() == 0) return;
  const VectorClock granter_vc = read_vclock(in, ctx_.n_nodes);
  const auto count = in.get<std::uint32_t>();
  const MutexLock meta(meta_mutex_);
  ingest_records(in, count);
  vc_.merge(granter_vc);
  if (ctx_.check != nullptr) ctx_.check->on_vclock(ctx_.id, vc_);
}

void HlrcProtocol::fill_barrier_arrive(BarrierId, WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  write_vclock(vc_, out);
  const auto& mine = interval_log_[ctx_.id];
  out.put(static_cast<std::uint32_t>(mine.size()));
  for (const auto& rec : mine) {
    out.put(rec.node);
    out.put(rec.interval);
    out.put_vector(rec.pages);
  }
}

void HlrcProtocol::on_barrier_collect(BarrierId, NodeId /*from*/, WireReader& in) {
  const VectorClock vc = read_vclock(in, ctx_.n_nodes);
  const auto count = in.get<std::uint32_t>();
  barrier_vc_.merge(vc);
  for (std::uint32_t i = 0; i < count; ++i) {
    IntervalRecord rec;
    rec.node = in.get<NodeId>();
    rec.interval = in.get<std::uint32_t>();
    rec.pages = in.get_vector<PageId>();
    barrier_records_.push_back(std::move(rec));
  }
}

void HlrcProtocol::fill_barrier_release(BarrierId, WireWriter& out) {
  write_vclock(barrier_vc_, out);
  out.put(static_cast<std::uint32_t>(barrier_records_.size()));
  for (const auto& rec : barrier_records_) {
    out.put(rec.node);
    out.put(rec.interval);
    out.put_vector(rec.pages);
  }
  barrier_records_.clear();
}

void HlrcProtocol::on_barrier_release(BarrierId, WireReader& in) {
  const VectorClock merged = read_vclock(in, ctx_.n_nodes);
  const auto count = in.get<std::uint32_t>();
  const MutexLock meta(meta_mutex_);
  ingest_records(in, count);
  vc_.merge(merged);
  if (ctx_.check != nullptr) ctx_.check->on_vclock(ctx_.id, vc_);
  // All homes were flushed before anyone arrived and everyone has now seen
  // every notice: the interval logs can be collected. (No diff caches exist
  // to collect — that is the point of HLRC.)
  for (auto& log : interval_log_) log.clear();
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
