// In-memory span recorder for the serial traced replays.
//
// Every span records its name, start, end, parent span and the scenario
// or request id it belongs to. Spans stay in memory and are written out
// once, at the end. A span's self time is its duration minus the part of
// its interval that its child spans cover; summing self times by name
// splits a replay's wall time across the layers, and the root span's
// self time is the unattributed remainder.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span list; -1 = root
  std::uint64_t id = 0;      // scenario / request id
};

struct LayerTime {
  double self_ms = 0.0;
  double total_ms = 0.0;
  std::size_t count = 0;
};

class Tracer {
 public:
  /// RAII span: opens on construction, closes on destruction. Spans nest
  /// by lexical scope (the replays are single-threaded).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time, total time and count of every span name.
  std::map<std::string, LayerTime> by_name() const;
  /// Durations (ms) of every span named `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Writes the spans as a JSON array.
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
