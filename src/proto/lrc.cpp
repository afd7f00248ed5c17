#include "proto/lrc.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "mem/diff.hpp"
#include "proto/page_io.hpp"

namespace dsm {

// Payload layouts (lock and barrier notice payloads: proto/notice_log.hpp,
// in its lamport-stamped format; barrier payloads lead with u8 settle):
//   kPageRequest         : u32 page | u32 requester
//   kPageReply           : u32 page | raw page bytes
//   kDiffRequest         : u32 page | u32 requester | u32 n | n×u32 intervals
//   kDiffReply           : u32 page | u32 n | n × { u32 interval | u64 lamport |
//                                                   bytes diff }
//   kUpdate (settle push): u32 page | u32 interval | u64 lamport | bytes diff

LrcProtocol::LrcProtocol(NodeContext& ctx)
    : Protocol(ctx),
      notices_(ctx.n_nodes, ctx.cfg->n_pages, /*lamport=*/true,
               [this](const IntervalRecord& rec) { on_notice(rec); }),
      pending_(ctx.cfg->n_pages) {}

std::string_view LrcProtocol::name() const { return "lrc"; }

void LrcProtocol::init_pages() {
  for (PageId p = 0; p < ctx_.table->n_pages(); ++p) {
    auto& e = ctx_.table->entry(p);
    const MutexLock lock(e.mutex);
    if (ctx_.home_of(p) == ctx_.id) {
      e.state = PageState::kReadOnly;
      page_io::note_state(ctx_, p, PageState::kReadOnly);
      e.has_base = true;
      ctx_.view->protect(p, Access::kRead);
    } else {
      e.state = PageState::kInvalid;
      page_io::note_state(ctx_, p, PageState::kInvalid);
      e.has_base = false;
      ctx_.view->protect(p, Access::kNone);
    }
    e.busy = false;
    e.dirty = false;
    e.twin.reset();
    e.acks_outstanding = 0;
    pending_[p].clear();
  }
  const MutexLock meta(meta_mutex_);
  notices_.reset();
  diff_cache_.clear();
  diff_inbox_.clear();
  {
    const MutexLock lock(dirty_mutex_);
    dirty_pages_.clear();
  }
  barrier_gen_.clear();
  barrier_settle_round_.reset();
  arriving_at_settle_ = false;
  last_release_was_settle_ = false;
  settle_buffer_.clear();
  push_outstanding_ = 0;
}

// --------------------------------------------------------------------------
// Faults (application thread)
// --------------------------------------------------------------------------

void LrcProtocol::on_read_fault(PageId page) {
  ctx_.stats->counter("proto.read_faults").add();
  make_page_valid(page);
}

void LrcProtocol::on_write_fault(PageId page) {
  ctx_.stats->counter("proto.write_faults").add();
  auto& e = ctx_.table->entry(page);
  for (;;) {
    {
      const MutexLock lock(e.mutex);
      if (e.state == PageState::kReadWrite) return;
      if (e.state == PageState::kReadOnly) {
        // Multiple-writer upgrade: twin now, diff at the next sync. Local.
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
    }
    make_page_valid(page);
  }
}

void LrcProtocol::make_page_valid(PageId page) {
  auto& e = ctx_.table->entry(page);
  RelockableMutexLock lock(e.mutex);
  if (e.state != PageState::kInvalid) return;
  e.busy = true;
  const bool need_base = !e.has_base;
  std::vector<WriteNotice> notices = std::move(pending_[page]);
  pending_[page].clear();
  lock.unlock();

  ctx_.clock->advance(ctx_.cfg->fault_ns);
  const VirtualTime t0 = ctx_.clock->now();

  if (need_base) {
    WireWriter w(8);
    w.put(page);
    w.put(ctx_.id);
    ctx_.send(MsgType::kPageRequest, ctx_.home_of(page), std::move(w).take());
    lock.lock();
    while (!e.has_base) e.cv.wait(e.mutex);
    lock.unlock();
  }

  if (!notices.empty()) {
    // Group the unapplied notices by writer and fetch each writer's diffs.
    std::map<NodeId, std::vector<std::uint32_t>> by_writer;
    for (const auto& n : notices) by_writer[n.writer].push_back(n.interval);
    {
      const MutexLock g(e.mutex);
      e.acks_outstanding = static_cast<int>(by_writer.size());
    }
    for (const auto& [writer, intervals] : by_writer) {
      WireWriter w(16 + intervals.size() * 4);
      w.put(page);
      w.put(ctx_.id);
      w.put(static_cast<std::uint32_t>(intervals.size()));
      for (const auto i : intervals) w.put(i);
      ctx_.send(MsgType::kDiffRequest, writer, std::move(w).take());
      ctx_.stats->counter("lrc.diff_requests").add();
    }
    lock.lock();
    while (e.acks_outstanding != 0) e.cv.wait(e.mutex);
    lock.unlock();

    std::vector<DiffRecord> records;
    {
      const MutexLock meta(meta_mutex_);
      auto it = diff_inbox_.find(page);
      if (it != diff_inbox_.end()) {
        records = std::move(it->second);
        diff_inbox_.erase(it);
      }
    }
    std::sort(records.begin(), records.end(), [](const DiffRecord& a, const DiffRecord& b) {
      return a.lamport != b.lamport ? a.lamport < b.lamport : a.writer < b.writer;
    });
    lock.lock();
    // Service window: the page stays PROT_NONE while the diffs land.
    for (const auto& rec : records) {
      apply_diff(ctx_.view->alias_span(page), rec.bytes);
      if (e.twin != nullptr) {
        apply_diff({e.twin.get(), ctx_.cfg->page_size}, rec.bytes);
      }
    }
    lock.unlock();
  }

  lock.lock();
  if (e.twin != nullptr) {
    // We were mid-write when the page was invalidated: restore write access.
    ctx_.view->protect(page, Access::kReadWrite);
    e.state = PageState::kReadWrite;
    page_io::note_state(ctx_, page, PageState::kReadWrite);
  } else {
    ctx_.view->protect(page, Access::kRead);
    e.state = PageState::kReadOnly;
    page_io::note_state(ctx_, page, PageState::kReadOnly);
  }
  e.busy = false;
  ctx_.stats->histogram("proto.fault_service_ns").record(ctx_.clock->now() - t0);
  if (ctx_.trace != nullptr)
    ctx_.trace->complete(ctx_.id, TraceCat::kProto, "fault-txn", t0,
                         ctx_.clock->now(), "page", page);
}

// --------------------------------------------------------------------------
// Intervals and diffs
// --------------------------------------------------------------------------

void LrcProtocol::close_interval() {
  // Swap the dirty list out whole: a concurrent write fault on another app
  // thread may be appending while this thread closes its interval.
  std::vector<PageId> dirty;
  {
    const MutexLock lock(dirty_mutex_);
    dirty.swap(dirty_pages_);
  }
  if (dirty.empty()) return;
  const MutexLock meta(meta_mutex_);
  const IntervalRecord& rec = notices_.add_interval(ctx_.id, dirty);
  publish_vclock();

  for (const PageId page : dirty) {
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    DSM_CHECK(e.dirty && e.twin != nullptr);
    DiffRecord d;
    d.interval = rec.interval;
    d.lamport = rec.lamport;
    d.writer = ctx_.id;
    // Read through the service window: the page may have been invalidated
    // (PROT_NONE) while dirty, and a fault here would deadlock on our own
    // entry lock.
    d.bytes = encode_diff(ctx_.view->alias_span(page), {e.twin.get(), ctx_.cfg->page_size});
    ctx_.stats->counter("lrc.diff_bytes_created").add(d.bytes.size());
    diff_cache_[page].push_back(std::move(d));
    e.twin.reset();
    e.dirty = false;
    if (pending_[page].empty()) {
      ctx_.view->protect(page, Access::kRead);
      e.state = PageState::kReadOnly;
      page_io::note_state(ctx_, page, PageState::kReadOnly);
    } else {
      // Unseen remote writes exist: stay invalid so the next access fetches
      // their diffs before reading.
      ctx_.view->protect(page, Access::kNone);
      e.state = PageState::kInvalid;
      page_io::note_state(ctx_, page, PageState::kInvalid);
    }
  }
  ctx_.stats->counter("lrc.intervals").add();
}

void LrcProtocol::before_release(LockId) { close_interval(); }

void LrcProtocol::before_barrier(BarrierId barrier) {
  close_interval();
  const auto gen = ++barrier_gen_[barrier];
  arriving_at_settle_ =
      ctx_.cfg->lrc_gc_period <= 1 || gen % ctx_.cfg->lrc_gc_period == 0;
  if (arriving_at_settle_) push_diffs_to_homes();
}

void LrcProtocol::push_diffs_to_homes() {
  // Unicast every diff this node created this epoch to its page's home;
  // block until all are acknowledged. Every home therefore holds the whole
  // epoch before any node can arrive at the barrier — the release can then
  // move notices only, instead of broadcasting O(data × nodes).
  int sent = 0;
  {
    const MutexLock meta(meta_mutex_);
    sent = 0;
    for (const auto& [page, records] : diff_cache_) sent += static_cast<int>(records.size());
    if (sent == 0) return;
    {
      const MutexLock p(push_mutex_);
      push_outstanding_ += sent;
    }
    for (const auto& [page, records] : diff_cache_) {
      for (const auto& rec : records) {
        WireWriter w(rec.bytes.size() + 24);
        w.put(page);
        w.put(rec.interval);
        w.put(rec.lamport);
        w.put_bytes(rec.bytes);
        ctx_.send(MsgType::kUpdate, ctx_.home_of(page), std::move(w).take());
        ctx_.stats->counter("lrc.settle_push_bytes").add(rec.bytes.size());
      }
    }
  }
  RelockableMutexLock lock(push_mutex_);
  while (push_outstanding_ != 0) push_cv_.wait(push_mutex_);
}

void LrcProtocol::fill_lock_request(LockId, WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  notices_.write_request(out);
}

void LrcProtocol::fill_lock_grant(LockId, NodeId /*to*/,
                                  std::span<const std::byte> request_payload,
                                  WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  notices_.write_grant(request_payload, out);
}

void LrcProtocol::on_lock_granted(LockId, WireReader& in) {
  const MutexLock meta(meta_mutex_);
  notices_.absorb(in);
  publish_vclock();
}

void LrcProtocol::fill_lock_release(LockId lock, WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  notices_.write_release(lock, ctx_.lock_home(lock), out);
}

bool LrcProtocol::on_home_release(LockId lock, WireReader& in) {
  const MutexLock meta(meta_mutex_);
  notices_.absorb_release(lock, in);
  return true;
}

bool LrcProtocol::fill_home_grant(LockId lock, std::span<const std::byte> request_payload,
                                  WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  notices_.write_home_grant(lock, request_payload, out);
  return true;
}

void LrcProtocol::on_home_granted(LockId lock, WireReader& in) {
  const MutexLock meta(meta_mutex_);
  notices_.absorb_home_grant(lock, in);
  publish_vclock();
}

void LrcProtocol::on_notice(const IntervalRecord& rec) {
  for (const PageId page : rec.pages) {
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    pending_[page].push_back(WriteNotice{rec.node, rec.interval, rec.lamport});
    if (e.state != PageState::kInvalid) {
      ctx_.view->protect(page, Access::kNone);
      e.state = PageState::kInvalid;
      page_io::note_state(ctx_, page, PageState::kInvalid);
      ctx_.stats->counter("lrc.notice_invalidations").add();
    }
  }
}

void LrcProtocol::publish_vclock() {
  if (ctx_.check != nullptr) ctx_.check->on_vclock(ctx_.id, notices_.vc());
}

// --------------------------------------------------------------------------
// Service-thread message handlers
// --------------------------------------------------------------------------

void LrcProtocol::on_message(const Message& msg) {
  switch (msg.type) {
    case MsgType::kPageRequest: handle_page_request(msg); return;
    case MsgType::kPageReply: handle_page_reply(msg); return;
    case MsgType::kDiffRequest: handle_diff_request(msg); return;
    case MsgType::kDiffReply: handle_diff_reply(msg); return;
    case MsgType::kUpdate: {
      // A settle-round diff push: buffer it for lamport-ordered application
      // at the barrier release, and acknowledge.
      WireReader r(msg.payload);
      const auto page = r.get<PageId>();
      DiffRecord rec;
      rec.interval = r.get<std::uint32_t>();
      rec.lamport = r.get<std::uint64_t>();
      rec.writer = msg.src;
      const auto bytes = r.get_bytes();
      rec.bytes.assign(bytes.begin(), bytes.end());
      {
        const MutexLock meta(meta_mutex_);
        DSM_CHECK_MSG(ctx_.home_of(page) == ctx_.id, "lrc: diff push at non-home");
        settle_buffer_[page].push_back(std::move(rec));
      }
      ctx_.send(MsgType::kUpdateAck, msg.src, {});
      return;
    }
    case MsgType::kUpdateAck: {
      bool done;
      {
        const MutexLock lock(push_mutex_);
        DSM_CHECK(push_outstanding_ > 0);
        done = --push_outstanding_ == 0;
      }
      if (done) push_cv_.notify_all();
      return;
    }
    default:
      DSM_CHECK_MSG(false, "lrc: unexpected message " << to_string(msg.type));
  }
}

void LrcProtocol::handle_page_request(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto requester = r.get<NodeId>();
  DSM_CHECK_MSG(ctx_.home_of(page) == ctx_.id, "lrc: page request at non-home");
  auto& e = ctx_.table->entry(page);
  std::vector<std::byte> bytes(ctx_.cfg->page_size);
  {
    const MutexLock lock(e.mutex);
    DSM_CHECK(e.has_base);
    // The home's bytes are always *some* consistent base (its applied-diff
    // prefix respects happens-before); the faulter layers its pending diffs
    // on top. Read through the service window: the copy may be
    // access-revoked here.
    std::memcpy(bytes.data(), ctx_.view->alias_ptr(page), bytes.size());
  }
  WireWriter w(bytes.size() + 8);
  w.put(page);
  page_io::put_page(ctx_, w, bytes);
  ctx_.send(MsgType::kPageReply, requester, std::move(w).take());
}

void LrcProtocol::handle_page_reply(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto bytes = page_io::get_page(ctx_, r);
  auto& e = ctx_.table->entry(page);
  {
    const MutexLock lock(e.mutex);
    DSM_CHECK(!e.has_base && e.twin == nullptr);
    std::memcpy(ctx_.view->alias_ptr(page), bytes.data(), bytes.size());
    e.has_base = true;
  }
  e.cv.notify_all();
}

void LrcProtocol::handle_diff_request(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto requester = r.get<NodeId>();
  const auto n = r.get<std::uint32_t>();
  std::vector<std::uint32_t> intervals(n);
  for (auto& i : intervals) i = r.get<std::uint32_t>();

  WireWriter w(256);
  w.put(page);
  w.put(n);
  {
    const MutexLock meta(meta_mutex_);
    const auto it = diff_cache_.find(page);
    DSM_CHECK_MSG(it != diff_cache_.end(), "lrc: no cached diffs for page " << page);
    for (const auto interval : intervals) {
      const auto rec = std::find_if(it->second.begin(), it->second.end(),
                                    [&](const DiffRecord& d) { return d.interval == interval; });
      DSM_CHECK_MSG(rec != it->second.end(),
                    "lrc: diff for page " << page << " interval " << interval << " missing");
      w.put(rec->interval);
      w.put(rec->lamport);
      w.put_bytes(rec->bytes);
    }
  }
  ctx_.send(MsgType::kDiffReply, requester, std::move(w).take());
}

void LrcProtocol::handle_diff_reply(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto n = r.get<std::uint32_t>();
  {
    const MutexLock meta(meta_mutex_);
    auto& inbox = diff_inbox_[page];
    for (std::uint32_t i = 0; i < n; ++i) {
      DiffRecord rec;
      rec.interval = r.get<std::uint32_t>();
      rec.lamport = r.get<std::uint64_t>();
      rec.writer = msg.src;
      const auto bytes = r.get_bytes();
      rec.bytes.assign(bytes.begin(), bytes.end());
      inbox.push_back(std::move(rec));
    }
  }
  auto& e = ctx_.table->entry(page);
  bool done;
  {
    const MutexLock lock(e.mutex);
    DSM_CHECK(e.acks_outstanding > 0);
    done = --e.acks_outstanding == 0;
  }
  if (done) e.cv.notify_all();
}

// --------------------------------------------------------------------------
// Barriers: the global settle-up and GC point
// --------------------------------------------------------------------------

// Barrier payloads (both directions, both round kinds): u8 settle, then the
// NoticeLog arrive/release payload. Notices only: at a settle round the
// actual diffs were already unicast to each page's home
// (push_diffs_to_homes) before anyone arrived.

void LrcProtocol::fill_barrier_arrive(BarrierId, WireWriter& out) {
  const MutexLock meta(meta_mutex_);
  out.put(static_cast<std::uint8_t>(arriving_at_settle_ ? 1 : 0));
  notices_.write_arrive(ctx_.id, out);
}

void LrcProtocol::on_barrier_collect(BarrierId, NodeId /*from*/, WireReader& in) {
  const bool settle = in.get<std::uint8_t>() != 0;
  DSM_CHECK_MSG(barrier_settle_round_.value_or(settle) == settle,
                "lrc: nodes disagree about the settle round");
  barrier_settle_round_ = settle;
  const MutexLock meta(meta_mutex_);
  notices_.collect_arrive(in);
}

void LrcProtocol::fill_barrier_release(BarrierId, WireWriter& out) {
  out.put(static_cast<std::uint8_t>(barrier_settle_round_.value_or(false) ? 1 : 0));
  barrier_settle_round_.reset();
  const MutexLock meta(meta_mutex_);
  notices_.write_barrier_release(out);
}

void LrcProtocol::on_barrier_release(BarrierId, WireReader& in) {
  const bool settle = in.get<std::uint8_t>() != 0;
  last_release_was_settle_ = settle;

  if (!settle) {
    // Lazy round: learn the merged write notices; data stays where it is
    // until someone faults. Diff caches and pending notices are retained.
    const MutexLock meta(meta_mutex_);
    notices_.absorb(in);
    publish_vclock();
    ctx_.stats->counter("lrc.lazy_barriers").add();
    return;
  }

  // Settle-up. First learn any notices we missed (marks pages stale), then:
  //   * home pages: apply the epoch's pushed diffs in lamport order — every
  //     home is current afterwards;
  //   * other copies with unapplied notices: drop to cold (refetch later);
  // and garbage-collect every piece of epoch metadata.
  std::map<PageId, std::vector<DiffRecord>> pushed;
  {
    const MutexLock meta(meta_mutex_);
    notices_.absorb(in);
    publish_vclock();
    pushed = std::move(settle_buffer_);
    settle_buffer_.clear();
    notices_.collect_garbage();
    diff_cache_.clear();
    DSM_CHECK(diff_inbox_.empty());
  }

  for (auto& [page, records] : pushed) {
    std::sort(records.begin(), records.end(), [](const DiffRecord& a, const DiffRecord& b) {
      return a.lamport != b.lamport ? a.lamport < b.lamport : a.writer < b.writer;
    });
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    DSM_CHECK_MSG(e.twin == nullptr && !e.dirty, "lrc: open interval at barrier");
    DSM_CHECK(e.has_base);
    for (const auto& rec : records) {
      apply_diff(ctx_.view->alias_span(page), rec.bytes);
    }
  }

  for (PageId p = 0; p < ctx_.table->n_pages(); ++p) {
    auto& e = ctx_.table->entry(p);
    const MutexLock lock(e.mutex);
    if (ctx_.home_of(p) == ctx_.id) {
      // Home: current after the diff application above.
      pending_[p].clear();
      if (e.state == PageState::kInvalid) {
        ctx_.view->protect(p, Access::kRead);
        e.state = PageState::kReadOnly;
        page_io::note_state(ctx_, p, PageState::kReadOnly);
      }
      continue;
    }
    if (!pending_[p].empty()) {
      // A copy with unapplied epoch writes — and the diffs are about to be
      // collected. Drop to cold; the next access refetches from the home.
      pending_[p].clear();
      if (e.state != PageState::kInvalid) {
        ctx_.view->protect(p, Access::kNone);
        e.state = PageState::kInvalid;
        page_io::note_state(ctx_, p, PageState::kInvalid);
      }
      e.has_base = false;
      ctx_.stats->counter("lrc.settle_dropped_copies").add();
    }
    // else: this copy applied everything it ever heard of — still current.
  }
  ctx_.stats->counter("lrc.settle_barriers").add();
}

std::size_t LrcProtocol::cached_diffs() const {
  const MutexLock meta(meta_mutex_);
  std::size_t n = 0;
  for (const auto& [page, records] : diff_cache_) n += records.size();
  return n;
}

}  // namespace dsm
