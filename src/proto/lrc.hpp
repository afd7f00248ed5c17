// Lazy release consistency (TreadMarks). Nothing moves at release time;
// instead each sync operation closes an *interval* whose modified pages are
// recorded as *write notices*. A lock grant piggybacks only the notices the
// acquirer has not seen (filtered by its vector clock); the acquirer
// invalidates those pages and fetches the actual *diffs* lazily, on its next
// fault, directly from the writers. Barriers are the global settle-up: every
// node ships its intervals *with* diffs to the manager, which broadcasts the
// merged set; everyone applies, and all protocol metadata is garbage
// collected.
//
// Diffs are applied in "lamport order": every interval carries a scalar
// Lamport stamp advanced at sync operations, which totally orders any two
// happens-before-related intervals. For data-race-free programs (the only
// programs LRC gives guarantees for) this reproduces the happens-before
// order of conflicting writes.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/lock_order.hpp"
#include "common/thread_annotations.hpp"
#include "common/vclock.hpp"
#include "proto/notice_log.hpp"
#include "proto/protocol.hpp"

namespace dsm {

class LrcProtocol final : public Protocol {
 public:
  explicit LrcProtocol(NodeContext& ctx);

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
  /// Two-phase completion is required exactly for settle-up rounds (see
  /// Config::lrc_gc_period): after a GC the pending notices are gone, so a
  /// cold fault must not reach a home that has not applied the diffs yet.
  /// Lazy rounds retain notices and diff caches, making early resumption
  /// safe. The flag reflects the release processed last on this node's
  /// service thread, which is the thread that queries it.
  bool barrier_needs_settlement() const override { return last_release_was_settle_; }

  /// Test hooks.
  const VectorClock& vclock() const NO_THREAD_SAFETY_ANALYSIS { return notices_.vc(); }
  std::size_t cached_diffs() const;

 private:
  /// An unapplied write notice parked at a page.
  struct WriteNotice {
    NodeId writer = kNoNode;
    std::uint32_t interval = 0;
    std::uint64_t lamport = 0;
  };
  /// A cached or fetched diff.
  struct DiffRecord {
    std::uint32_t interval = 0;
    std::uint64_t lamport = 0;
    NodeId writer = kNoNode;
    std::vector<std::byte> bytes;
  };

  /// Closes the current interval if any pages are dirty: encodes and caches
  /// diffs, downgrades pages to read-only, records the interval. App thread.
  void close_interval();

  /// The common fault engine: ensure a base copy, fetch and apply pending
  /// diffs, and leave the page read-only. App thread.
  void make_page_valid(PageId page);

  void handle_page_request(const Message& msg);
  void handle_page_reply(const Message& msg);
  void handle_diff_request(const Message& msg);
  void handle_diff_reply(const Message& msg);

  /// NoticeLog callback: parks a freshly-noticed record's notices at its
  /// pages and invalidates them.
  void on_notice(const IntervalRecord& rec);
  /// Tells dsmcheck about this node's clock after it changed.
  void publish_vclock() REQUIRES(meta_mutex_);

  // ---- metadata, guarded by meta_mutex_ ----
  mutable Mutex meta_mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  NoticeLog notices_ GUARDED_BY(meta_mutex_);
  /// My own diffs: page → records ascending by interval.
  std::map<PageId, std::vector<DiffRecord>> diff_cache_ GUARDED_BY(meta_mutex_);
  /// Diff replies parked for the faulting app thread: page → records.
  std::map<PageId, std::vector<DiffRecord>> diff_inbox_ GUARDED_BY(meta_mutex_);

  // ---- per-page pending notices, guarded by that page's entry mutex ----
  std::vector<std::vector<WriteNotice>> pending_;

  // ---- dirty list ----
  // Appended by whichever thread services a write fault (uffd executors run
  // several concurrently), swapped out whole by close_interval. Its own
  // leaf mutex: the push site already holds the page's entry mutex and
  // close_interval takes meta_mutex_ after releasing this, so neither
  // existing mutex could guard it without an ordering cycle.
  Mutex dirty_mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  std::vector<PageId> dirty_pages_ GUARDED_BY(dirty_mutex_);

  /// Settle round, app-thread side: unicast every cached diff to its page's
  /// home and block until all are acknowledged. Runs in before_barrier, so
  /// every home holds the complete epoch before any node arrives.
  void push_diffs_to_homes();

  // ---- barrier bookkeeping ----
  /// Generations per barrier id (app thread only): deterministic and equal
  /// on every node, so all nodes agree on which rounds settle.
  std::map<BarrierId, std::uint64_t> barrier_gen_;
  /// Set in before_barrier (app thread), read by fill_barrier_arrive on the
  /// same thread: this round is a settle-up.
  bool arriving_at_settle_ = false;
  /// Set by on_barrier_release, read by barrier_needs_settlement() on the
  /// same service thread.
  bool last_release_was_settle_ = false;

  /// Home-side buffer of diffs pushed for the current settle round,
  /// applied in lamport order at the release.
  std::map<PageId, std::vector<DiffRecord>> settle_buffer_ GUARDED_BY(meta_mutex_);
  /// Push-acknowledgement rendezvous (app thread ↔ service thread).
  Mutex push_mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  CondVar push_cv_;
  int push_outstanding_ GUARDED_BY(push_mutex_) = 0;

  // ---- barrier manager scratch (only used at the barrier home) ----
  /// Whether the round being collected settles; unset before its first
  /// arrival.
  std::optional<bool> barrier_settle_round_;
};

}  // namespace dsm
