#include "dag/linearize.hpp"

#include <algorithm>

#include "dag/traversal.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace fpsched {

std::string to_string(LinearizeMethod method) {
  switch (method) {
    case LinearizeMethod::depth_first: return "DF";
    case LinearizeMethod::breadth_first: return "BF";
    case LinearizeMethod::random_first: return "RF";
  }
  return "?";
}

std::span<const LinearizeMethod> all_linearize_methods() {
  static constexpr LinearizeMethod kAll[] = {
      LinearizeMethod::depth_first,
      LinearizeMethod::breadth_first,
      LinearizeMethod::random_first,
  };
  return kAll;
}

void linearize_into(const Dag& dag, std::span<const double> weights, LinearizeMethod method,
                    const LinearizeOptions& options, LinearizeWorkspace& ws,
                    std::vector<VertexId>& out) {
  const std::size_t n = dag.vertex_count();
  ensure(weights.size() == n, "weights size must match vertex count");

  ws.remaining.resize(n);
  std::vector<VertexId>& ready = ws.ready;
  ready.clear();
  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
    ws.remaining[v] = static_cast<std::uint32_t>(dag.in_degree(v));
    if (ws.remaining[v] == 0) ready.push_back(v);
  }
  out.clear();
  out.reserve(n);

  if (method == LinearizeMethod::random_first) {
    // RF's output depends on the exact layout of the ready pool (swap
    // remove + append), so it keeps the historic vector algorithm.
    Rng rng(options.seed);
    while (!ready.empty()) {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_index(ready.size()));
      const VertexId v = ready[pick];
      ready[pick] = ready.back();
      ready.pop_back();
      out.push_back(v);
      for (const VertexId s : dag.successors(v)) {
        if (--ws.remaining[s] == 0) ready.push_back(s);
      }
    }
  } else {
    ws.priority.resize(n);
    if (options.outweight == OutweightMode::direct) {
      for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
        double sum = 0.0;
        for (const VertexId s : dag.successors(v)) sum += weights[s];
        ws.priority[v] = sum;
      }
    } else {
      const std::vector<double> transitive = descendant_outweights(dag, weights);
      std::copy(transitive.begin(), transitive.end(), ws.priority.begin());
    }
    // DF and BF keep the ready set as a sequence of enabling waves: the
    // sources, then the successors each executed vertex enables, each wave
    // sorted once by (priority desc, id asc). DF holds the waves on a
    // stack and pops its back, so a wave is sorted worst-first; BF reads
    // them first-in first-out through a head cursor, so a wave is sorted
    // best-first. Most waves hold a handful of vertices.
    const std::span<const double> priority(ws.priority);
    const auto best_first = [priority](VertexId a, VertexId b) {
      if (priority[a] != priority[b]) return priority[a] > priority[b];
      return a < b;
    };
    if (method == LinearizeMethod::depth_first) {
      const auto worst_first = [best_first](VertexId a, VertexId b) { return best_first(b, a); };
      std::sort(ready.begin(), ready.end(), worst_first);
      while (!ready.empty()) {
        const VertexId v = ready.back();
        ready.pop_back();
        out.push_back(v);
        const std::size_t wave = ready.size();
        for (const VertexId s : dag.successors(v)) {
          if (--ws.remaining[s] == 0) ready.push_back(s);
        }
        std::sort(ready.begin() + wave, ready.end(), worst_first);
      }
    } else {
      // BF's FIFO never drops an entry, so the output is the FIFO itself.
      std::sort(ready.begin(), ready.end(), best_first);
      out.assign(ready.begin(), ready.end());
      for (std::size_t head = 0; head < out.size(); ++head) {
        const std::size_t wave = out.size();
        for (const VertexId s : dag.successors(out[head])) {
          if (--ws.remaining[s] == 0) out.push_back(s);
        }
        std::sort(out.begin() + wave, out.end(), best_first);
      }
    }
  }

  if (out.size() != n) throw GraphError("linearization failed: graph has a cycle");
}

std::vector<VertexId> linearize(const Dag& dag, std::span<const double> weights,
                                LinearizeMethod method, const LinearizeOptions& options) {
  LinearizeWorkspace ws;
  std::vector<VertexId> order;
  linearize_into(dag, weights, method, options, ws, order);
  return order;
}

}  // namespace fpsched
