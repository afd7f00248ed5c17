#include "proto/notice_log.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace dsm {
namespace {

VectorClock unbounded(std::size_t n_nodes) {
  VectorClock vc(n_nodes);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    vc.set(static_cast<NodeId>(n), std::numeric_limits<std::uint32_t>::max());
  }
  return vc;
}

/// The records of one node's ascending list with after < interval <= upto.
std::span<const IntervalRecord> between(const std::vector<IntervalRecord>& list,
                                        std::uint32_t after, std::uint32_t upto) {
  if (upto <= after) return {};
  const auto by_interval = [](std::uint32_t i, const IntervalRecord& r) { return i < r.interval; };
  const auto first = std::upper_bound(list.begin(), list.end(), after, by_interval);
  const auto last = std::upper_bound(first, list.end(), upto, by_interval);
  return {first, last};
}

}  // namespace

NoticeLog::NoticeLog(std::size_t n_nodes, std::size_t n_pages, bool lamport,
                     OnNotice on_notice)
    : n_nodes_(n_nodes),
      n_pages_(n_pages),
      lamport_on_wire_(lamport),
      on_notice_(std::move(on_notice)),
      all_(unbounded(n_nodes)) {
  reset();
}

const IntervalRecord& NoticeLog::add_interval(NodeId self, std::vector<PageId> pages) {
  ++lamport_;
  vc_.tick(self);
  IntervalRecord rec;
  rec.node = self;
  rec.interval = vc_[self];
  rec.lamport = lamport_;
  rec.pages = std::move(pages);
  return log_[self].emplace_back(std::move(rec));
}

void NoticeLog::reset() {
  vc_ = VectorClock(n_nodes_);
  lamport_ = 0;
  log_.assign(n_nodes_, {});
  home_log_.assign(n_nodes_, {});
  home_locks_.clear();
  granted_.clear();
  released_to_.assign(n_nodes_, VectorClock(n_nodes_));
  round_records_.clear();
  round_ = LockClock{VectorClock(n_nodes_), 0};
}

void NoticeLog::collect_garbage() {
  for (auto* log : {&log_, &home_log_}) {
    for (std::size_t n = 0; n < n_nodes_; ++n) {
      auto& list = (*log)[n];
      const auto covered = between(list, 0, vc_[static_cast<NodeId>(n)]);
      list.erase(list.begin(), list.begin() + static_cast<std::ptrdiff_t>(covered.size()));
    }
  }
}

// --------------------------------------------------------------------------
// Codec
// --------------------------------------------------------------------------

void NoticeLog::write_clock(const VectorClock& vc, std::uint64_t lamport,
                            WireWriter& out) const {
  write_vclock(vc, out);
  if (lamport_on_wire_) out.put(lamport);
}

NoticeLog::LockClock NoticeLog::read_clock(WireReader& in) const {
  LockClock clock{read_vclock(in, n_nodes_), 0};
  if (lamport_on_wire_) clock.lamport = in.get<std::uint64_t>();
  return clock;
}

void NoticeLog::write_record(const IntervalRecord& rec, WireWriter& out) const {
  out.put(rec.node);
  out.put(rec.interval);
  if (lamport_on_wire_) out.put(rec.lamport);
  out.put_vector(rec.pages);
}

IntervalRecord NoticeLog::read_record(WireReader& in) const {
  IntervalRecord rec;
  rec.node = in.get<NodeId>();
  DSM_CHECK_MSG(rec.node < n_nodes_, "write notice from node " << rec.node << " out of range");
  rec.interval = in.get<std::uint32_t>();
  if (lamport_on_wire_) rec.lamport = in.get<std::uint64_t>();
  rec.pages = in.get_vector<PageId>();
  for (const PageId page : rec.pages) {
    DSM_CHECK_MSG(page < n_pages_, "write notice for page " << page << " out of range");
  }
  return rec;
}

void NoticeLog::write_records(const Log& log, const VectorClock& after, const VectorClock& upto,
                              WireWriter& out) const {
  std::vector<std::span<const IntervalRecord>> ranges;
  ranges.reserve(n_nodes_);
  std::uint32_t count = 0;
  for (std::size_t n = 0; n < n_nodes_; ++n) {
    const auto node = static_cast<NodeId>(n);
    ranges.push_back(between(log[n], after[node], upto[node]));
    count += static_cast<std::uint32_t>(ranges.back().size());
  }
  out.put(count);
  for (const auto range : ranges) {
    for (const auto& rec : range) write_record(rec, out);
  }
}

void NoticeLog::ingest(WireReader& in) {
  const auto count = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    IntervalRecord rec = read_record(in);
    if (vc_.covers(rec.node, rec.interval)) continue;  // already known
    auto& list = log_[rec.node];
    DSM_CHECK_MSG(list.empty() || list.back().interval < rec.interval,
                  "write notice " << rec.node << ":" << rec.interval << " out of order");
    on_notice_(rec);
    list.push_back(std::move(rec));
  }
}

VectorClock NoticeLog::request_clock(std::span<const std::byte> request) const {
  WireReader r(request);
  return read_vclock(r, n_nodes_);
}

// --------------------------------------------------------------------------
// Locks
// --------------------------------------------------------------------------

void NoticeLog::write_request(WireWriter& out) const { write_vclock(vc_, out); }

void NoticeLog::write_grant(std::span<const std::byte> request, WireWriter& out) const {
  write_clock(vc_, lamport_, out);
  write_records(log_, request_clock(request), all_, out);
}

void NoticeLog::absorb(WireReader& in) {
  const LockClock granter = read_clock(in);
  ingest(in);
  vc_.merge(granter.vc);
  lamport_ = std::max(lamport_, granter.lamport);
}

void NoticeLog::absorb_home_grant(LockId lock, WireReader& in) {
  WireReader clock = in;  // the lock's clock leads the payload
  granted_.insert_or_assign(lock, read_vclock(clock, n_nodes_));
  absorb(in);
}

void NoticeLog::write_release(LockId lock, NodeId home, WireWriter& out) {
  VectorClock horizon = released_to_[home];
  if (const auto it = granted_.find(lock); it != granted_.end()) horizon.merge(it->second);
  write_clock(vc_, lamport_, out);
  write_records(log_, horizon, all_, out);
  released_to_[home] = vc_;
}

void NoticeLog::absorb_release(LockId lock, WireReader& in) {
  const LockClock release = read_clock(in);
  const auto count = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    IntervalRecord rec = read_record(in);
    auto& list = home_log_[rec.node];
    // Releases overlap: keep the first copy of each record.
    if (list.empty() || list.back().interval < rec.interval) list.push_back(std::move(rec));
  }
  DSM_CHECK(in.done());
  auto& clock = home_locks_.try_emplace(lock, LockClock{VectorClock(n_nodes_), 0}).first->second;
  clock.vc.merge(release.vc);
  clock.lamport = std::max(clock.lamport, release.lamport);
}

void NoticeLog::write_home_grant(LockId lock, std::span<const std::byte> request,
                                 WireWriter& out) const {
  const auto it = home_locks_.find(lock);
  const LockClock none{VectorClock(n_nodes_), 0};
  const LockClock& clock = it != home_locks_.end() ? it->second : none;
  write_clock(clock.vc, clock.lamport, out);
  write_records(home_log_, request_clock(request), clock.vc, out);
}

// --------------------------------------------------------------------------
// Barriers
// --------------------------------------------------------------------------

void NoticeLog::write_arrive(NodeId self, WireWriter& out) const {
  write_clock(vc_, lamport_, out);
  const auto& mine = log_[self];
  out.put(static_cast<std::uint32_t>(mine.size()));
  for (const auto& rec : mine) write_record(rec, out);
}

void NoticeLog::collect_arrive(WireReader& in) {
  const LockClock arrival = read_clock(in);
  round_.vc.merge(arrival.vc);
  round_.lamport = std::max(round_.lamport, arrival.lamport);
  const auto count = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) round_records_.push_back(read_record(in));
}

void NoticeLog::write_barrier_release(WireWriter& out) {
  write_clock(round_.vc, round_.lamport, out);
  out.put(static_cast<std::uint32_t>(round_records_.size()));
  for (const auto& rec : round_records_) write_record(rec, out);
  round_records_.clear();
}

}  // namespace dsm
