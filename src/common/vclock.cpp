#include "common/vclock.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"
#include "common/serialize.hpp"

namespace dsm {

void VectorClock::merge(const VectorClock& other) {
  DSM_CHECK(other.size() == size());
  for (std::size_t i = 0; i < components_.size(); ++i) {
    components_[i] = std::max(components_[i], other.components_[i]);
  }
}

bool VectorClock::dominates(const VectorClock& other) const {
  DSM_CHECK(other.size() == size());
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i] < other.components_[i]) return false;
  }
  return true;
}

std::string VectorClock::to_string() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (i != 0) out << ',';
    out << components_[i];
  }
  out << ']';
  return out.str();
}

void write_vclock(const VectorClock& vc, WireWriter& out) {
  out.put(static_cast<std::uint32_t>(vc.size()));
  for (const std::uint32_t c : vc.components()) out.put(c);
}

VectorClock read_vclock(WireReader& in, std::size_t n_nodes) {
  const auto n = in.get<std::uint32_t>();
  DSM_CHECK_MSG(n == n_nodes, "vector clock of " << n << " components, expected " << n_nodes);
  VectorClock vc(n);
  for (std::uint32_t i = 0; i < n; ++i) vc.set(i, in.get<std::uint32_t>());
  return vc;
}

}  // namespace dsm
