#include "recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/clock.hpp"

namespace perfbench {
namespace {

constexpr int kIndexBits = 40;
constexpr SpanId kIndexMask = (SpanId{1} << kIndexBits) - 1;
constexpr int kLayers = 4;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kApp: return "app";
    case Layer::kCore: return "core";
    case Layer::kMem: return "mem";
    case Layer::kSync: return "sync";
  }
  return "?";
}

}  // namespace

SpanRecorder::SpanRecorder(std::size_t tracks) : tracks_(tracks) {}

SpanId SpanRecorder::make_id(std::size_t track, std::size_t index) {
  return (static_cast<SpanId>(track + 1) << kIndexBits) | static_cast<SpanId>(index);
}

SpanId SpanRecorder::open(std::size_t track, Layer layer, const char* name,
                          std::uint64_t req, SpanId parent) {
  Track& t = tracks_[track];
  if (parent == 0 && !t.open.empty()) parent = t.open.back();
  const SpanId id = make_id(track, t.spans.size());
  t.spans.push_back(Span{parent, req, dsm::realclock::now_ns(), 0, name, layer});
  t.open.push_back(id);
  return id;
}

void SpanRecorder::close(SpanId id) {
  Track& t = tracks_[static_cast<std::size_t>(id >> kIndexBits) - 1];
  DSM_CHECK_MSG(!t.open.empty() && t.open.back() == id, "spans must close innermost first");
  t.open.pop_back();
  t.spans[static_cast<std::size_t>(id & kIndexMask)].t1_ns = dsm::realclock::now_ns();
}

void SpanRecorder::add(std::size_t track, Layer layer, const char* name, std::uint64_t req,
                       SpanId parent, std::uint64_t t0_ns, std::uint64_t t1_ns) {
  tracks_[track].spans.push_back(Span{parent, req, t0_ns, t1_ns, name, layer});
}

std::vector<double> SpanRecorder::durations_us(const char* name) const {
  const std::string wanted(name);
  std::vector<double> out;
  for (const Track& t : tracks_) {
    for (const Span& s : t.spans) {
      if (s.t1_ns != 0 && wanted == s.name) {
        out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
      }
    }
  }
  return out;
}

std::uint64_t union_length(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
                           std::uint64_t from, std::uint64_t to) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t cursor = from;
  for (auto [lo, hi] : intervals) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, to);
    if (hi <= lo) continue;
    total += hi - lo;
    cursor = hi;
  }
  return total;
}

std::map<std::string, double> SpanRecorder::self_time_us() const {
  std::unordered_map<SpanId, std::vector<std::pair<std::uint64_t, std::uint64_t>>> children;
  for (const Track& t : tracks_) {
    for (const Span& s : t.spans) {
      if (s.parent != 0 && s.t1_ns != 0) children[s.parent].emplace_back(s.t0_ns, s.t1_ns);
    }
  }
  std::map<std::string, double> self;
  for (int l = 0; l < kLayers; ++l) self[layer_name(static_cast<Layer>(l))] = 0.0;
  for (std::size_t ti = 0; ti < tracks_.size(); ++ti) {
    const auto& spans = tracks_[ti].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.t1_ns == 0) continue;
      std::uint64_t covered = 0;
      if (auto it = children.find(make_id(ti, i)); it != children.end()) {
        covered = union_length(it->second, s.t0_ns, s.t1_ns);
      }
      self[layer_name(s.layer)] += static_cast<double>(s.t1_ns - s.t0_ns - covered) / 1e3;
    }
  }
  return self;
}

void SpanRecorder::write_chrome_json(std::ostream& os) const {
  std::uint64_t origin = UINT64_MAX;
  for (const Track& t : tracks_) {
    for (const Span& s : t.spans) origin = std::min(origin, s.t0_ns);
  }
  os << "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  const auto us = [&](std::uint64_t ns) {
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
    return std::string(buf);
  };
  for (std::size_t ti = 0; ti < tracks_.size(); ++ti) {
    const auto& spans = tracks_[ti].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.t1_ns == 0) continue;
      os << (first ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"cat\":\""
         << layer_name(s.layer) << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << ti
         << ",\"ts\":" << us(s.t0_ns - origin) << ",\"dur\":" << us(s.t1_ns - s.t0_ns)
         << ",\"args\":{\"id\":" << make_id(ti, i) << ",\"parent\":" << s.parent
         << ",\"req\":" << s.req << "}}";
      first = false;
    }
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace perfbench
