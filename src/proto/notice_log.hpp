// Write notices for the lazy protocols (LRC and HLRC): the interval log, the
// vector clock that summarizes it, and every payload that moves notices —
// lock requests, holder and home grants, releases to a lock's home, and
// barrier arrive/release.
//
// A record {node, interval, lamport, pages} says "node's interval closed
// after writing these pages". Every node keeps one list per node, ascending
// and holding every record its clock covers since the last GC; a grant ships
// only the records the acquirer's clock does not cover (Keleher, Cox &
// Zwaenepoel, ISCA 1992).
//
// Home-managed locks (acquire_read/acquire_write, and acquire under
// kCentralized) have no holder to filter from, so each lock home keeps one
// union log for all its locks plus, per lock, the merge of every release's
// clock and lamport stamp. Invariant: the union holds every record since the
// last GC up to each of its locks' clocks. A grant ships the records between
// the requester's clock and the lock's. A release ships only what its home
// may lack: the records after the merge of the lock clock this node got in
// its last home grant and this node's clock at its last release to the same
// home (per-link FIFO delivery makes the second term sound).
//
// Wire codec (vector clocks use the common/vclock.hpp codec; the lamport
// fields are present only in LRC's format, so HLRC's payloads are the
// lamport-free subset):
//   clock  : u32 n | n×u32 vclock | u64 lamport
//   record : u32 node | u32 interval | u64 lamport | u32 npages | npages×u32
//   request: u32 n | n×u32 vclock
//   grant, release, barrier arrive and release: clock | u32 nrec | nrec×record
//
// Not thread-safe: the owning protocol guards it with its metadata mutex,
// and the ingest callback runs under that mutex.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "common/vclock.hpp"

namespace dsm {

/// One closed interval of one node: which pages it modified.
struct IntervalRecord {
  NodeId node = kNoNode;
  std::uint32_t interval = 0;  // that node's interval counter value
  std::uint64_t lamport = 0;   // scalar sync stamp, for LRC's diff ordering
  std::vector<PageId> pages;
};

class NoticeLog {
 public:
  /// Called once per record this node learns, before it enters the log.
  using OnNotice = std::function<void(const IntervalRecord&)>;

  /// `lamport` selects LRC's wire format (stamps on clocks and records).
  NoticeLog(std::size_t n_nodes, std::size_t n_pages, bool lamport, OnNotice on_notice);

  const VectorClock& vc() const { return vc_; }

  /// Closes `self`'s next interval over `pages` and logs it.
  const IntervalRecord& add_interval(NodeId self, std::vector<PageId> pages);
  /// Back to the initial state (no records, zero clocks, no lock state).
  void reset();
  /// GC after a barrier merged every clock: drops every record this node's
  /// clock covers, from its own log and from the home union log.
  void collect_garbage();

  // --- locks ---------------------------------------------------------------
  /// Acquirer: request payload (this node's clock).
  void write_request(WireWriter& out) const;
  /// Forward-chain holder: grant for a requester whose request payload is
  /// `request`.
  void write_grant(std::span<const std::byte> request, WireWriter& out) const;
  /// Acquirer: consumes a holder grant or a barrier release.
  void absorb(WireReader& in);
  /// Acquirer: consumes a home grant for `lock`, remembering the lock clock.
  void absorb_home_grant(LockId lock, WireReader& in);
  /// Releaser: payload for the release of `lock` to its `home`.
  void write_release(LockId lock, NodeId home, WireWriter& out);
  /// Lock home: merges a release into the union log and the lock's clock.
  void absorb_release(LockId lock, WireReader& in);
  /// Lock home: grant of `lock` for the requester's `request` payload.
  void write_home_grant(LockId lock, std::span<const std::byte> request,
                        WireWriter& out) const;

  // --- barriers ------------------------------------------------------------
  /// Arriving node: its clock and its own records.
  void write_arrive(NodeId self, WireWriter& out) const;
  /// Barrier manager: adds one arrival to the round.
  void collect_arrive(WireReader& in);
  /// Barrier manager: the merged clock and every collected record (consumed
  /// by absorb); starts a new round.
  void write_barrier_release(WireWriter& out);

 private:
  /// Per node, ascending by interval.
  using Log = std::vector<std::vector<IntervalRecord>>;
  struct LockClock {
    VectorClock vc;
    std::uint64_t lamport = 0;
  };

  void write_clock(const VectorClock& vc, std::uint64_t lamport, WireWriter& out) const;
  LockClock read_clock(WireReader& in) const;
  void write_record(const IntervalRecord& rec, WireWriter& out) const;
  IntervalRecord read_record(WireReader& in) const;
  /// u32 count | the records of `log` with after[n] < interval <= upto[n].
  void write_records(const Log& log, const VectorClock& after, const VectorClock& upto,
                     WireWriter& out) const;
  /// Reads u32 count | records, logging and announcing the ones vc_ lacks.
  void ingest(WireReader& in);
  VectorClock request_clock(std::span<const std::byte> request) const;

  const std::size_t n_nodes_;
  const std::size_t n_pages_;
  const bool lamport_on_wire_;
  const OnNotice on_notice_;
  const VectorClock all_;  // every component at its maximum: "no upper bound"

  VectorClock vc_;
  std::uint64_t lamport_ = 0;
  Log log_;

  // Lock home: the union of every release received, and each lock's clock.
  Log home_log_;
  std::unordered_map<LockId, LockClock> home_locks_;

  // Releaser: what each home is known to hold (see the header comment).
  std::unordered_map<LockId, VectorClock> granted_;  // lock clock of the last home grant
  std::vector<VectorClock> released_to_;             // by home: clock at the last release

  // Barrier manager: the round being collected.
  std::vector<IntervalRecord> round_records_;
  LockClock round_;
};

}  // namespace dsm
