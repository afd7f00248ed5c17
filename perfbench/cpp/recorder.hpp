// In-memory span recorder for the benchmark's traced run. Spans are recorded
// from the benchmark's own code around each call into a library layer (core,
// mem, sync), kept per thread track in memory, and exported when the run ends
// as Chrome-trace JSON. Self time of a span is its duration minus the union of
// its children's intervals, so overlapping children are never subtracted twice.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t { kApp, kCore, kMem, kSync };

/// Packed (track, index) span identity; 0 means "no span".
using SpanId = std::uint64_t;

struct Span {
  SpanId parent = 0;
  std::uint64_t req = 0;  ///< request id shared by an op and its children
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  const char* name = "";  ///< string literal
  Layer layer = Layer::kApp;
};

/// One track per recording thread. A track is written only by its own thread
/// while a run is in progress; readers run after every writer has joined.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t tracks);

  /// Opens a span on `track`. With parent == 0 the innermost open span of
  /// the same track (if any) becomes the parent.
  SpanId open(std::size_t track, Layer layer, const char* name, std::uint64_t req,
              SpanId parent = 0);
  void close(SpanId id);

  /// A span with given endpoints (lets a test build a span tree directly).
  void add(std::size_t track, Layer layer, const char* name, std::uint64_t req,
           SpanId parent, std::uint64_t t0_ns, std::uint64_t t1_ns);

  static SpanId make_id(std::size_t track, std::size_t index);

  /// Durations in microseconds of every closed span named `name`.
  std::vector<double> durations_us(const char* name) const;
  /// Summed self time per layer, in microseconds.
  std::map<std::string, double> self_time_us() const;

  void write_chrome_json(std::ostream& os) const;

 private:
  struct Track {
    std::vector<Span> spans;
    std::vector<SpanId> open;  // stack of open spans
  };
  std::vector<Track> tracks_;
};

/// RAII span; a null recorder makes it a no-op.
class Scope {
 public:
  Scope(SpanRecorder* rec, std::size_t track, Layer layer, const char* name,
        std::uint64_t req = 0, SpanId parent = 0)
      : rec_(rec), id_(rec ? rec->open(track, layer, name, req, parent) : 0) {}
  ~Scope() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  SpanId id() const { return id_; }

 private:
  SpanRecorder* rec_;
  SpanId id_;
};

/// Length of the union of [lo, hi) intervals, each clipped to [from, to).
std::uint64_t union_length(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
                           std::uint64_t from, std::uint64_t to);

}  // namespace perfbench
