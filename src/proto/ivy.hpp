// Li & Hudak write-invalidate coherence: single writer / multiple readers ⇒
// sequential consistency. Every page has one owner (`is_owner`), which holds
// a copy and the copyset. It serves a read by adding the reader to the
// copyset, and a write by handing page, copyset and ownership to the writer,
// which invalidates the copies itself before it may write.
//
// The tutorial's three manager placements share all of that and differ only
// in where a request goes:
//   * central — node 0 manages every page (the simplest scheme, and its
//     scalability bottleneck);
//   * fixed distributed — page p is managed by its home, p mod N;
//   * dynamic distributed — no manager: every node keeps a probable-owner
//     hint per page, requests chase the hint chain, and each hop compresses
//     the path by pointing its hint at the requester. Ownership migrates to
//     writers, so after warm-up a migratory page costs one hop instead of
//     the manager round trip (bench_manager, F1).
// A manager serializes its pages' transactions: it forwards each request to
// the owner on record (kReadForward/kWriteForward) and starts the next only
// after the requester's kConfirm. Without a manager the owner serializes: a
// request reaching a node in the middle of its own transaction parks there.
#pragma once

#include "proto/protocol.hpp"

namespace dsm {

class IvyProtocol final : public Protocol {
 public:
  enum class Placement { kCentral, kFixed, kDynamic };

  IvyProtocol(NodeContext& ctx, Placement placement);

  std::string_view name() const override;
  void init_pages() override;
  void on_read_fault(PageId page) override;
  void on_write_fault(PageId page) override;
  void on_message(const Message& msg) override;

 private:
  bool managed() const { return placement_ != Placement::kDynamic; }
  NodeId manager_of(PageId page) const;
  /// The one decision placement makes: the first hop of a request.
  NodeId route(PageId page, const PageEntry& e) const REQUIRES(e.mutex);

  void fault(PageId page, bool is_write);
  /// Fire-and-forget read requests for the next Config::prefetch_pages pages.
  void prefetch_sequential(PageId page);

  // Service-thread handlers.
  void handle_manager_request(const Message& msg);  // at the manager
  void serve(const Message& msg);                   // at (or toward) the owner
  void handle_read_reply(const Message& msg);       // at the faulter
  void handle_write_reply(const Message& msg);      // at the faulter
  void handle_invalidate(const Message& msg);       // at a copy holder
  void handle_invalidate_ack(const Message& msg);   // at the faulter
  void handle_confirm(const Message& msg);          // at the manager

  /// Sends kInvalidate to every holder; with none, finishes the write at
  /// once and returns true (the caller then calls complete()).
  bool invalidate(PageId page, PageEntry& e, const std::vector<NodeId>& holders)
      REQUIRES(e.mutex);
  /// Grants write access — only now, with every other copy gone — and ends
  /// the transaction.
  void finish_write(PageId page, PageEntry& e) REQUIRES(e.mutex);
  /// After a transaction of this node ended: wake the app threads and
  /// replay requests parked behind it.
  void complete(PageId page);
  /// Replays parked requests: the node's own (`parked`, dynamic) or the
  /// manager's (`manager_parked`, central/fixed).
  void replay(PageId page);

  const Placement placement_;
};

}  // namespace dsm
