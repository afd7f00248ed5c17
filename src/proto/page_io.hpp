// Small helpers protocols share for moving page contents in and out of a
// node's view, independent of the page's current protection — plus the
// negotiated wire codec for full-page payloads (zero-run RLE with a raw
// escape, gated by Config::wire.compress_pages).
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "check/checker.hpp"
#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "core/context.hpp"
#include "mem/diff.hpp"
#include "mem/page_table.hpp"

namespace dsm::page_io {

/// Reports a page-state transition to dsmcheck (no-op when checking is
/// off). Protocols call this alongside every `entry.state` assignment so
/// the checker can mirror coherence state and assert SWMR; the quiescence
/// pass cross-checks the mirror against the real tables, which catches any
/// assignment that forgets this call.
inline void note_state(const NodeContext& ctx, PageId page, PageState state) {
  if (ctx.check != nullptr) ctx.check->on_page_state(ctx.id, page, state);
}

/// Copies the page's current contents out of the view (through the service
/// window, so any protection state is readable). The caller must hold the
/// page entry lock.
inline std::vector<std::byte> read_page(const NodeContext& ctx, PageId page,
                                        PageState current_state) {
  std::vector<std::byte> bytes(ctx.cfg->page_size);
  if (current_state == PageState::kInvalid) {
    // Owner invariant violations are protocol bugs; readable is required.
    DSM_CHECK_MSG(false, "read_page of invalid page " << page);
  }
  std::memcpy(bytes.data(), ctx.view->alias_ptr(page), bytes.size());
  return bytes;
}

/// Copies `bytes` into the page through the service window and leaves the
/// app view's rights as they are. The caller must hold the page entry lock.
inline void write_page(const NodeContext& ctx, PageId page,
                       std::span<const std::byte> bytes) {
  DSM_CHECK(bytes.size() == ctx.cfg->page_size);
  std::memcpy(ctx.view->alias_ptr(page), bytes.data(), bytes.size());
}

/// Installs `bytes` into the view and leaves the page with `rights`.
/// The caller must hold the page entry lock and update entry.state itself.
/// The copy goes through the service window: the app view's protection is
/// set exactly once, never relaxed-then-restored, so a concurrent app-thread
/// store can never slip into a transiently writable page unrecorded.
inline void install_page(const NodeContext& ctx, PageId page,
                         std::span<const std::byte> bytes, Access rights) {
  write_page(ctx, page, bytes);
  ctx.view->protect(page, rights);
}

/// Maps a PageState onto the mprotect rights that represent it.
inline Access rights_for(PageState state) {
  switch (state) {
    case PageState::kInvalid: return Access::kNone;
    case PageState::kReadOnly: return Access::kRead;
    case PageState::kReadWrite: return Access::kReadWrite;
  }
  return Access::kNone;
}

// --- full-page wire codec ---------------------------------------------------
// With `Config::wire.compress_pages` off the page ships as raw bytes —
// bit-identical to the historical wire format. With it on, a 1-byte codec
// tag is negotiated per message: kZrle when zero-run RLE actually shrinks
// the page, kRaw as the incompressible escape. Both sides consult the same
// Config, so framing is never ambiguous. The page must be the *last* field
// of its payload (true for every kPageReply/kReadReply/kWriteReply today):
// the compressed body has no length prefix, it runs to the payload's end.

constexpr std::uint8_t kPageCodecRaw = 0;
constexpr std::uint8_t kPageCodecZrle = 1;

/// Appends `bytes` (one full page) to `w` under the negotiated codec.
inline void put_page(const NodeContext& ctx, WireWriter& w,
                     std::span<const std::byte> bytes) {
  DSM_CHECK(bytes.size() == ctx.cfg->page_size);
  if (!ctx.cfg->wire.compress_pages) {
    w.put_raw(bytes);
    return;
  }
  std::vector<std::byte> packed = zrle_encode(bytes);
  if (packed.size() + 1 < bytes.size()) {
    ctx.stats->counter("net.bytes_saved").add(bytes.size() - packed.size() - 1);
    w.put<std::uint8_t>(kPageCodecZrle);
    w.put_raw(packed);
  } else {
    w.put<std::uint8_t>(kPageCodecRaw);
    w.put_raw(bytes);
  }
}

/// Reads a full page written by put_page; consumes the rest of `r`.
inline std::vector<std::byte> get_page(const NodeContext& ctx, WireReader& r) {
  if (!ctx.cfg->wire.compress_pages) {
    const auto bytes = r.get_raw(ctx.cfg->page_size);
    return {bytes.begin(), bytes.end()};
  }
  const auto codec = r.get<std::uint8_t>();
  const auto body = r.get_raw(r.remaining());
  if (codec == kPageCodecRaw) {
    DSM_CHECK(body.size() == ctx.cfg->page_size);
    return {body.begin(), body.end()};
  }
  DSM_CHECK_MSG(codec == kPageCodecZrle, "unknown page codec " << int{codec});
  std::vector<std::byte> out = zrle_decode(body);
  DSM_CHECK_MSG(out.size() == ctx.cfg->page_size,
                "decompressed page is " << out.size() << " bytes");
  return out;
}

// --- diff wire codec --------------------------------------------------------
// Gated by `Config::wire.compress_diffs`; same negotiation shape as pages,
// but the coded diff travels as a length-prefixed *field* (put_bytes), so
// payload layouts — and the off-mode bytes — are unchanged. kDiffXorZrle
// additionally requires the decoder to hold a base equal to the encoder's
// twin for every diffed word (the ERC writer→home path guarantees this
// under DRF; see DESIGN.md). With compression off the field is the plain
// diff itself.

constexpr std::uint8_t kDiffCodecPlain = 0;
constexpr std::uint8_t kDiffCodecZrle = 1;     ///< zrle(value diff)
constexpr std::uint8_t kDiffCodecXorZrle = 2;  ///< zrle(xor-vs-twin diff)

/// Encodes a value diff as a wire field (no XOR form — safe for any
/// receiver).
inline std::vector<std::byte> pack_diff_field(const NodeContext& ctx,
                                              std::span<const std::byte> diff) {
  if (!ctx.cfg->wire.compress_diffs) return {diff.begin(), diff.end()};
  std::vector<std::byte> packed = zrle_encode(diff);
  std::vector<std::byte> field;
  if (packed.size() + 1 < diff.size()) {
    ctx.stats->counter("net.bytes_saved").add(diff.size() - packed.size() - 1);
    field.push_back(std::byte{kDiffCodecZrle});
    field.insert(field.end(), packed.begin(), packed.end());
  } else {
    field.push_back(std::byte{kDiffCodecPlain});
    field.insert(field.end(), diff.begin(), diff.end());
  }
  return field;
}

/// Encodes a diff choosing the best of plain / zrle(value) / zrle(xor).
/// `current`/`twin` are the encoder's live page and twin behind `diff`;
/// only use when the receiver's base is known to equal `twin` on every
/// diffed word.
inline std::vector<std::byte> pack_diff_field_xor(const NodeContext& ctx,
                                                  std::span<const std::byte> diff,
                                                  std::span<const std::byte> current,
                                                  std::span<const std::byte> twin) {
  if (!ctx.cfg->wire.compress_diffs) return {diff.begin(), diff.end()};
  std::vector<std::byte> xored = zrle_encode(encode_diff_xor(current, twin));
  std::vector<std::byte> packed = zrle_encode(diff);
  std::vector<std::byte> field;
  if (xored.size() <= packed.size() && xored.size() + 1 < diff.size()) {
    ctx.stats->counter("net.bytes_saved").add(diff.size() - xored.size() - 1);
    field.push_back(std::byte{kDiffCodecXorZrle});
    field.insert(field.end(), xored.begin(), xored.end());
  } else if (packed.size() + 1 < diff.size()) {
    ctx.stats->counter("net.bytes_saved").add(diff.size() - packed.size() - 1);
    field.push_back(std::byte{kDiffCodecZrle});
    field.insert(field.end(), packed.begin(), packed.end());
  } else {
    field.push_back(std::byte{kDiffCodecPlain});
    field.insert(field.end(), diff.begin(), diff.end());
  }
  return field;
}

/// Decodes a diff field back to a plain value diff. `base` is the
/// receiver's copy matching the encoder's twin (needed only for the XOR
/// form; ERC home decode passes the pre-apply home page).
inline std::vector<std::byte> unpack_diff_field(const NodeContext& ctx,
                                                std::span<const std::byte> field,
                                                std::span<const std::byte> base) {
  if (!ctx.cfg->wire.compress_diffs) return {field.begin(), field.end()};
  DSM_CHECK_MSG(!field.empty(), "empty diff field");
  const auto codec = static_cast<std::uint8_t>(field.front());
  const auto body = field.subspan(1);
  if (codec == kDiffCodecPlain) return {body.begin(), body.end()};
  if (codec == kDiffCodecZrle) return zrle_decode(body);
  DSM_CHECK_MSG(codec == kDiffCodecXorZrle, "unknown diff codec " << int{codec});
  return xor_diff_to_value(zrle_decode(body), base);
}

}  // namespace dsm::page_io
