// Per-node page table: the coherence state machine's bookkeeping. Protocols
// own the transition logic; the table provides the fields, per-page locking,
// and the app-thread wait/notify discipline described in DESIGN.md
// ("No-blocking service rule").
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/bitset.hpp"
#include "common/lock_order.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace dsm {

/// Logical coherence state of a page in one node's view. Mirrors the view's
/// mprotect rights (kInvalid=NONE, kReadOnly=READ, kReadWrite=READ|WRITE).
enum class PageState : std::uint8_t { kInvalid = 0, kReadOnly = 1, kReadWrite = 2 };

const char* to_string(PageState state);

/// All per-page fields any implemented protocol needs. Unused fields cost a
/// few bytes per page; sharing one entry type keeps the service-thread
/// dispatch and the tests uniform across protocols.
struct PageEntry {
  /// Outermost entry-layer lock: held across protocol transitions that call
  /// into the checker, the view's protect(), and (in some protocols) sends.
  mutable Mutex mutex ACQUIRED_BEFORE(lock_order::fabric_gate);
  /// App thread waits here for its fault transition to complete; protocol
  /// code also reuses it for ack-counting waits.
  CondVar cv;

  PageState state GUARDED_BY(mutex) = PageState::kInvalid;

  /// A coherence transaction initiated by this node is in flight.
  bool busy GUARDED_BY(mutex) = false;
  /// An invalidation overtook our in-flight read reply (IVY): the reply's
  /// data is stale — drop it and re-request. A write reply clears it.
  bool discard_reply GUARDED_BY(mutex) = false;
  /// Manager-side per-page transaction lock (IVY central/fixed, ERC).
  bool manager_busy GUARDED_BY(mutex) = false;

  /// The manager's routing directory: where it forwards the next request
  /// (IVY central/fixed).
  NodeId owner GUARDED_BY(mutex) = kNoNode;
  /// Probable owner hint (IVY dynamic distributed manager).
  NodeId prob_owner GUARDED_BY(mutex) = kNoNode;
  /// This node is the true owner (IVY, every placement): set by a write
  /// reply, cleared by a transfer. dsmcheck finds the owner through it.
  bool is_owner GUARDED_BY(mutex) = false;

  /// Nodes holding read copies; valid at the owner (IVY) or home (ERC/LRC).
  NodeSet copyset GUARDED_BY(mutex);

  /// Requests that arrived while `busy` — replayed on completion (IVY
  /// dynamic).
  std::deque<Message> parked GUARDED_BY(mutex);
  /// Requests that arrived while `manager_busy` — replayed on kConfirm.
  std::deque<Message> manager_parked GUARDED_BY(mutex);

  /// Pristine pre-write copy for diffing (multi-writer protocols).
  std::unique_ptr<std::byte[]> twin GUARDED_BY(mutex);
  /// Page written since the last release/barrier flush.
  bool dirty GUARDED_BY(mutex) = false;

  /// Invalidate/update acknowledgements the app thread is waiting for.
  int acks_outstanding GUARDED_BY(mutex) = 0;
  /// Home-side: the writer whose release transaction is in flight (ERC).
  NodeId pending_node GUARDED_BY(mutex) = kNoNode;

  /// This view holds bytes for the page that form a consistent base (LRC):
  /// set once a copy is installed or at init on the home; an invalidation
  /// revokes access rights but keeps the bytes (and this flag).
  bool has_base GUARDED_BY(mutex) = false;

  /// Generic monotone per-page version (ERC home version / LRC floor).
  std::uint32_t version GUARDED_BY(mutex) = 0;
};

class PageTable {
 public:
  PageTable(std::size_t n_pages, std::size_t n_nodes);

  std::size_t n_pages() const { return entries_.size(); }
  PageEntry& entry(PageId page);
  const PageEntry& entry(PageId page) const;

  /// Snapshot of a page's state without holding the caller's lock (tests).
  PageState state_of(PageId page) const;

  /// Count of pages currently in `state` (tests/stats).
  std::size_t count_in_state(PageState state) const;

 private:
  std::vector<std::unique_ptr<PageEntry>> entries_;
};

}  // namespace dsm
