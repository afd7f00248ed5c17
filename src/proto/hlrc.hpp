// Home-based lazy release consistency (HLRC, Zhou & Iftode's successor to
// TreadMarks — the "future work" direction the tutorial's material points
// at). Like LRC, nothing is broadcast and invalidations travel as write
// notices filtered by vector clocks at acquire time. Unlike LRC, every
// page has a *home* whose copy is kept current: a releaser flushes its
// diffs to the homes (and waits for acks) before the release completes, so
// a faulting acquirer simply fetches the whole page from the home — no
// per-writer diff requests, no diff caches, no accumulation, no GC.
//
// The trade (measured by the benches): releases pay eager unicast diffs
// like Munin, but acquire-side faults are one round trip to a single place
// like IVY, and barriers are pure notice exchanges.
#pragma once

#include <map>
#include <vector>

#include "common/lock_order.hpp"
#include "common/thread_annotations.hpp"
#include "common/vclock.hpp"
#include "proto/notice_log.hpp"
#include "proto/protocol.hpp"

namespace dsm {

class HlrcProtocol final : public Protocol {
 public:
  explicit HlrcProtocol(NodeContext& ctx);

  std::string_view name() const override;
  void init_pages() override;
  void on_read_fault(PageId page) override;
  void on_write_fault(PageId page) override;
  void on_message(const Message& msg) override;

  void fill_lock_request(LockId, WireWriter& out) override;
  void fill_lock_grant(LockId, NodeId to, std::span<const std::byte> request_payload,
                       WireWriter& out) override;
  void on_lock_granted(LockId, WireReader& in) override;
  void before_release(LockId) override;
  void fill_lock_release(LockId lock, WireWriter& out) override;
  bool on_home_release(LockId lock, WireReader& in) override;
  bool fill_home_grant(LockId lock, std::span<const std::byte> request_payload,
                       WireWriter& out) override;
  void on_home_granted(LockId lock, WireReader& in) override;
  void before_barrier(BarrierId) override;
  void fill_barrier_arrive(BarrierId, WireWriter& out) override;
  void on_barrier_collect(BarrierId, NodeId from, WireReader& in) override;
  void fill_barrier_release(BarrierId, WireWriter& out) override;
  void on_barrier_release(BarrierId, WireReader& in) override;

  const VectorClock& vclock() const NO_THREAD_SAFETY_ANALYSIS { return notices_.vc(); }

 private:
  /// Closes the open interval: encode diffs, flush them to the pages'
  /// homes, wait for acks, record the interval. App thread.
  void close_and_flush();

  /// NoticeLog callback: invalidates a freshly-noticed record's pages
  /// (except at their home, whose copy is authoritative and already
  /// flushed-to).
  void on_notice(const IntervalRecord& rec);
  /// Tells dsmcheck about this node's clock after it changed.
  void publish_vclock() REQUIRES(meta_mutex_);

  void handle_page_request(const Message& msg);
  void handle_page_reply(const Message& msg);
  /// Fire-and-forget fetches of the next Config::prefetch_pages pages.
  void prefetch_sequential(PageId page);
  void handle_flush(const Message& msg);      // home side: apply a diff
  void handle_flush_ack(const Message& msg);  // writer side

  // ---- metadata, guarded by meta_mutex_ ----
  mutable Mutex meta_mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  NoticeLog notices_ GUARDED_BY(meta_mutex_);

  // ---- flush rendezvous ----
  Mutex flush_mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  CondVar flush_cv_;
  int flush_outstanding_ GUARDED_BY(flush_mutex_) = 0;

  // ---- dirty list ----
  // Appended by whichever thread services a write fault (uffd executors run
  // several concurrently), swapped out whole by close_and_flush — its own
  // leaf mutex, as in LRC.
  Mutex dirty_mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  std::vector<PageId> dirty_pages_ GUARDED_BY(dirty_mutex_);
};

}  // namespace dsm
