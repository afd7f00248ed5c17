#include "proto/ec.hpp"
#include "proto/erc.hpp"
#include "proto/hlrc.hpp"
#include "proto/ivy.hpp"
#include "proto/lrc.hpp"
#include "proto/protocol.hpp"
#include "proto/qrc.hpp"

namespace dsm {

const char* to_string(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kIvyCentral: return "ivy-central";
    case ProtocolKind::kIvyFixed: return "ivy-fixed";
    case ProtocolKind::kIvyDynamic: return "ivy-dynamic";
    case ProtocolKind::kErcInvalidate: return "erc-invalidate";
    case ProtocolKind::kErcUpdate: return "erc-update";
    case ProtocolKind::kLrc: return "lrc";
    case ProtocolKind::kEc: return "ec";
    case ProtocolKind::kHlrc: return "hlrc";
    case ProtocolKind::kQrc: return "qrc";
  }
  return "?";
}

std::unique_ptr<Protocol> make_protocol(NodeContext& ctx) {
  switch (ctx.cfg->protocol) {
    case ProtocolKind::kIvyCentral:
      return std::make_unique<IvyProtocol>(ctx, IvyProtocol::Placement::kCentral);
    case ProtocolKind::kIvyFixed:
      return std::make_unique<IvyProtocol>(ctx, IvyProtocol::Placement::kFixed);
    case ProtocolKind::kIvyDynamic:
      return std::make_unique<IvyProtocol>(ctx, IvyProtocol::Placement::kDynamic);
    case ProtocolKind::kErcInvalidate:
      return std::make_unique<ErcProtocol>(ctx, ErcProtocol::Mode::kInvalidate);
    case ProtocolKind::kErcUpdate:
      return std::make_unique<ErcProtocol>(ctx, ErcProtocol::Mode::kUpdate);
    case ProtocolKind::kLrc:
      return std::make_unique<LrcProtocol>(ctx);
    case ProtocolKind::kEc:
      return std::make_unique<EcProtocol>(ctx);
    case ProtocolKind::kHlrc:
      return std::make_unique<HlrcProtocol>(ctx);
    case ProtocolKind::kQrc:
      return std::make_unique<QrcProtocol>(ctx);
  }
  DSM_CHECK_MSG(false, "unknown protocol kind");
  return nullptr;
}

}  // namespace dsm
