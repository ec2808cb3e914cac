#include "dag/graph.hpp"

#include <algorithm>
#include <queue>
#include <string>

#include "support/error.hpp"

namespace fpsched {

DagBuilder::DagBuilder(std::size_t expected_vertices) {
  reserve(expected_vertices, expected_vertices * 2);
}

void DagBuilder::reserve(std::size_t /*vertices*/, std::size_t edges) {
  edge_from_.reserve(edges);
  edge_to_.reserve(edges);
}

VertexId DagBuilder::add_vertex() { return add_vertices(1); }

VertexId DagBuilder::add_vertices(std::size_t count) {
  const VertexId first = static_cast<VertexId>(vertex_count_);
  vertex_count_ += count;
  return first;
}

void DagBuilder::add_edge(VertexId from, VertexId to) {
  if (from == to) throw GraphError("self loop on vertex " + std::to_string(from));
  if (from >= vertex_count_ || to >= vertex_count_)
    throw GraphError("edge (" + std::to_string(from) + "," + std::to_string(to) +
                     ") references an unknown vertex");
  edge_from_.push_back(from);
  edge_to_.push_back(to);
}

Dag DagBuilder::build() && {
  return Dag::freeze(vertex_count_, std::move(edge_from_), std::move(edge_to_));
}

Dag Dag::from_edges(std::size_t n, std::span<const std::pair<VertexId, VertexId>> raw_edges) {
  std::vector<VertexId> edge_from;
  std::vector<VertexId> edge_to;
  edge_from.reserve(raw_edges.size());
  edge_to.reserve(raw_edges.size());
  for (const auto& [u, v] : raw_edges) {
    if (u == v) throw GraphError("self loop on vertex " + std::to_string(u));
    if (u >= n || v >= n)
      throw GraphError("edge (" + std::to_string(u) + "," + std::to_string(v) +
                       ") references an unknown vertex");
    edge_from.push_back(u);
    edge_to.push_back(v);
  }
  return freeze(n, std::move(edge_from), std::move(edge_to));
}

Dag Dag::freeze(std::size_t n, std::vector<VertexId> edge_from, std::vector<VertexId> edge_to) {
  Dag dag;

  // Counting sort by source: one count pass, one scatter pass. Rows come
  // out in emission order; duplicates survive until the per-row dedup.
  dag.succ_offsets_.assign(n + 1, 0);
  for (const VertexId u : edge_from) ++dag.succ_offsets_[u + 1];
  for (std::size_t i = 0; i < n; ++i) dag.succ_offsets_[i + 1] += dag.succ_offsets_[i];

  dag.succ_list_.resize(edge_from.size());
  std::vector<std::uint32_t> fill(dag.succ_offsets_.begin(),
                                  dag.succ_offsets_.end() - (n ? 1 : 0));
  for (std::size_t i = 0; i < edge_from.size(); ++i) {
    dag.succ_list_[fill[edge_from[i]]++] = edge_to[i];
  }
  // The emission-order arrays are dead from here; release them before the
  // second CSR so peak memory stays at one copy of the edge set.
  edge_from = {};
  edge_to = {};

  // Per-row sort + dedup, compacting the list in place (the write cursor
  // never passes the read cursor because rows only shrink).
  std::uint32_t write = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t begin = dag.succ_offsets_[v];
    const std::uint32_t end = dag.succ_offsets_[v + 1];
    std::sort(dag.succ_list_.begin() + begin, dag.succ_list_.begin() + end);
    dag.succ_offsets_[v] = write;
    for (std::uint32_t i = begin; i < end; ++i) {
      if (i == begin || dag.succ_list_[i] != dag.succ_list_[i - 1]) {
        dag.succ_list_[write++] = dag.succ_list_[i];
      }
    }
  }
  if (n > 0) dag.succ_offsets_[n] = write;
  dag.succ_list_.resize(write);
  dag.succ_list_.shrink_to_fit();

  // Predecessor CSR from the deduplicated successor CSR. Scanning sources
  // in ascending order leaves every predecessor row already sorted.
  dag.pred_offsets_.assign(n + 1, 0);
  for (const VertexId w : dag.succ_list_) ++dag.pred_offsets_[w + 1];
  for (std::size_t i = 0; i < n; ++i) dag.pred_offsets_[i + 1] += dag.pred_offsets_[i];
  dag.pred_list_.resize(write);
  if (n > 0) fill.assign(dag.pred_offsets_.begin(), dag.pred_offsets_.end() - 1);
  for (VertexId u = 0; u < static_cast<VertexId>(n); ++u) {
    for (const VertexId w : dag.successors(u)) dag.pred_list_[fill[w]++] = u;
  }

  // Kahn's algorithm, smallest ready id first: deterministic topological
  // order and cycle detection in one pass. A cursor sweeps the ids and
  // emits each vertex that is ready when it gets there; only a vertex
  // enabled behind the cursor goes on the min-heap, and the heap's top,
  // being behind the cursor, always precedes it. Generators number
  // vertices in dependency order, so the heap mostly stays empty.
  std::vector<std::uint32_t> remaining(n);
  for (std::size_t v = 0; v < n; ++v) {
    remaining[v] = static_cast<std::uint32_t>(dag.in_degree(static_cast<VertexId>(v)));
  }
  std::priority_queue<VertexId, std::vector<VertexId>, std::greater<>> behind;
  dag.topo_order_.reserve(n);
  VertexId cursor = 0;
  while (true) {
    VertexId v = 0;
    if (!behind.empty()) {
      v = behind.top();
      behind.pop();
    } else {
      while (cursor < n && remaining[cursor] != 0) ++cursor;
      if (cursor == n) break;
      v = cursor++;
    }
    dag.topo_order_.push_back(v);
    for (const VertexId s : dag.successors(v)) {
      if (--remaining[s] == 0 && s < cursor) behind.push(s);
    }
  }
  if (dag.topo_order_.size() != n) throw GraphError("graph contains a cycle");

  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
    if (dag.in_degree(v) == 0) dag.sources_.push_back(v);
    if (dag.out_degree(v) == 0) dag.sinks_.push_back(v);
  }
  return dag;
}

std::span<const VertexId> Dag::predecessors(VertexId v) const {
  return {pred_list_.data() + pred_offsets_[v], pred_list_.data() + pred_offsets_[v + 1]};
}

std::span<const VertexId> Dag::successors(VertexId v) const {
  return {succ_list_.data() + succ_offsets_[v], succ_list_.data() + succ_offsets_[v + 1]};
}

bool Dag::has_edge(VertexId from, VertexId to) const {
  const auto row = successors(from);
  return std::binary_search(row.begin(), row.end(), to);
}

std::size_t Dag::memory_bytes() const {
  return pred_offsets_.capacity() * sizeof(std::uint32_t) +
         pred_list_.capacity() * sizeof(VertexId) +
         succ_offsets_.capacity() * sizeof(std::uint32_t) +
         succ_list_.capacity() * sizeof(VertexId) + topo_order_.capacity() * sizeof(VertexId) +
         sources_.capacity() * sizeof(VertexId) + sinks_.capacity() * sizeof(VertexId);
}

}  // namespace fpsched
