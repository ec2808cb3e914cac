#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "bench_stats.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t id)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  const std::int64_t parent =
      tracer.open_.empty() ? -1 : static_cast<std::int64_t>(tracer.open_.back());
  tracer.spans_.push_back({name, now_ns(), 0, parent, id});
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns = now_ns();
  tracer_.open_.pop_back();
}

std::map<std::string, LayerTime> Tracer::by_name() const {
  // One pass accumulating each span's duration into its parent's covered
  // time (children of one parent never overlap in a serial replay).
  std::vector<std::uint64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    covered[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::uint64_t duration = span.end_ns - span.start_ns;
    LayerTime& layer = out[span.name];
    layer.total_ms += static_cast<double>(duration) * 1e-6;
    layer.self_ms += static_cast<double>(duration - std::min(duration, covered[i])) * 1e-6;
    ++layer.count;
  }
  return out;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name << "\",\"start_ns\":"
        << span.start_ns << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"id\":" << span.id << "}";
  }
  out << "\n]\n";
}

}  // namespace perfbench
