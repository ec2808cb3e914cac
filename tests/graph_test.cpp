// Tests for the CSR DAG container and builder.
#include "dag/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <random>

#include "support/error.hpp"
#include "workflows/generator.hpp"

namespace fpsched {
namespace {

/// Kahn's algorithm with every ready vertex on one min-heap: the oracle
/// for the freeze's smallest-ready-id-first order.
std::vector<VertexId> heap_kahn_order(const Dag& dag) {
  const std::size_t n = dag.vertex_count();
  std::vector<std::size_t> remaining(n);
  std::priority_queue<VertexId, std::vector<VertexId>, std::greater<>> ready;
  for (VertexId v = 0; v < n; ++v) {
    remaining[v] = dag.in_degree(v);
    if (remaining[v] == 0) ready.push(v);
  }
  std::vector<VertexId> order;
  while (!ready.empty()) {
    const VertexId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (const VertexId s : dag.successors(v)) {
      if (--remaining[s] == 0) ready.push(s);
    }
  }
  return order;
}

std::size_t descending_edges(const Dag& dag) {
  std::size_t count = 0;
  for (VertexId u = 0; u < dag.vertex_count(); ++u) {
    for (const VertexId s : dag.successors(u)) count += s < u ? 1 : 0;
  }
  return count;
}

std::vector<VertexId> topological_order_of(const Dag& dag) {
  const auto topo = dag.topological_order();
  return {topo.begin(), topo.end()};
}

Dag diamond() {
  DagBuilder builder;
  builder.add_vertices(4);
  builder.add_edge(0, 1);
  builder.add_edge(0, 2);
  builder.add_edge(1, 3);
  builder.add_edge(2, 3);
  return std::move(builder).build();
}

TEST(Dag, EmptyGraph) {
  DagBuilder builder;
  const Dag dag = std::move(builder).build();
  EXPECT_EQ(dag.vertex_count(), 0u);
  EXPECT_EQ(dag.edge_count(), 0u);
  EXPECT_TRUE(dag.sources().empty());
  EXPECT_TRUE(dag.topological_order().empty());
}

TEST(Dag, DiamondAdjacency) {
  const Dag dag = diamond();
  EXPECT_EQ(dag.vertex_count(), 4u);
  EXPECT_EQ(dag.edge_count(), 4u);
  EXPECT_EQ(dag.in_degree(0), 0u);
  EXPECT_EQ(dag.out_degree(0), 2u);
  EXPECT_EQ(dag.in_degree(3), 2u);
  const auto preds3 = dag.predecessors(3);
  EXPECT_EQ(std::vector<VertexId>(preds3.begin(), preds3.end()), (std::vector<VertexId>{1, 2}));
  const auto succs0 = dag.successors(0);
  EXPECT_EQ(std::vector<VertexId>(succs0.begin(), succs0.end()), (std::vector<VertexId>{1, 2}));
}

TEST(Dag, SourcesAndSinks) {
  const Dag dag = diamond();
  const auto sources = dag.sources();
  const auto sinks = dag.sinks();
  EXPECT_EQ(std::vector<VertexId>(sources.begin(), sources.end()), std::vector<VertexId>{0});
  EXPECT_EQ(std::vector<VertexId>(sinks.begin(), sinks.end()), std::vector<VertexId>{3});
}

TEST(Dag, HasEdge) {
  const Dag dag = diamond();
  EXPECT_TRUE(dag.has_edge(0, 1));
  EXPECT_TRUE(dag.has_edge(2, 3));
  EXPECT_FALSE(dag.has_edge(1, 0));
  EXPECT_FALSE(dag.has_edge(0, 3));
}

TEST(Dag, DuplicateEdgesAreDeduplicated) {
  DagBuilder builder;
  builder.add_vertices(2);
  builder.add_edge(0, 1);
  builder.add_edge(0, 1);
  builder.add_edge(0, 1);
  const Dag dag = std::move(builder).build();
  EXPECT_EQ(dag.edge_count(), 1u);
}

TEST(Dag, TopologicalOrderIsDeterministicSmallestFirst) {
  // Two independent chains: 0->2, 1->3. Kahn with a min-heap gives
  // 0 1 2 3.
  DagBuilder builder;
  builder.add_vertices(4);
  builder.add_edge(0, 2);
  builder.add_edge(1, 3);
  const Dag dag = std::move(builder).build();
  const auto topo = dag.topological_order();
  EXPECT_EQ(std::vector<VertexId>(topo.begin(), topo.end()), (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(Dag, TopologicalOrderMatchesHeapKahnOnShuffledIds) {
  // Random DAGs whose ids are a shuffle of their dependency order, so
  // edges run down the ids as often as up and vertices become ready
  // behind the freeze's cursor.
  std::size_t descending = 0;
  for (std::uint32_t seed = 1; seed <= 100; ++seed) {
    std::mt19937 rng(seed);
    const std::size_t n = 2 + rng() % 200;
    std::vector<VertexId> id(n);
    for (std::size_t i = 0; i < n; ++i) id[i] = static_cast<VertexId>(i);
    std::shuffle(id.begin(), id.end(), rng);
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (std::size_t rank = 1; rank < n; ++rank) {
      const std::size_t parents = rng() % 4;
      for (std::size_t p = 0; p < parents; ++p) edges.emplace_back(id[rng() % rank], id[rank]);
    }
    const Dag dag = Dag::from_edges(n, edges);
    EXPECT_EQ(topological_order_of(dag), heap_kahn_order(dag)) << "seed=" << seed;
    descending += descending_edges(dag);
  }
  EXPECT_GT(descending, 1000u);
}

TEST(Dag, TopologicalOrderMatchesHeapKahnOnGenome) {
  // Genome is the generated workflow with edges from higher ids to lower.
  const TaskGraph graph =
      generate_workflow(WorkflowKind::genome, {.task_count = 100000, .seed = 42});
  EXPECT_GT(descending_edges(graph.dag()), 0u);
  EXPECT_EQ(topological_order_of(graph.dag()), heap_kahn_order(graph.dag()));
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  const Dag dag = diamond();
  const auto topo = dag.topological_order();
  std::vector<std::size_t> pos(dag.vertex_count());
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (VertexId v = 0; v < dag.vertex_count(); ++v) {
    for (const VertexId s : dag.successors(v)) EXPECT_LT(pos[v], pos[s]);
  }
}

TEST(Dag, CycleDetection) {
  DagBuilder builder;
  builder.add_vertices(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 0);
  EXPECT_THROW(std::move(builder).build(), GraphError);
}

TEST(Dag, SelfLoopRejectedImmediately) {
  DagBuilder builder;
  builder.add_vertices(2);
  EXPECT_THROW(builder.add_edge(1, 1), GraphError);
}

TEST(Dag, OutOfRangeEdgeRejected) {
  DagBuilder builder;
  builder.add_vertices(2);
  EXPECT_THROW(builder.add_edge(0, 5), GraphError);
  const std::vector<std::pair<VertexId, VertexId>> edges{{0, 7}};
  EXPECT_THROW(Dag::from_edges(2, edges), GraphError);
}

TEST(Dag, FromEdgesMatchesBuilder) {
  const std::vector<std::pair<VertexId, VertexId>> edges{{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  const Dag dag = Dag::from_edges(4, edges);
  EXPECT_EQ(dag.edge_count(), 4u);
  EXPECT_TRUE(dag.has_edge(1, 3));
}

TEST(DagBuilder, AddVerticesReturnsFirstId) {
  DagBuilder builder;
  EXPECT_EQ(builder.add_vertex(), 0u);
  EXPECT_EQ(builder.add_vertices(5), 1u);
  EXPECT_EQ(builder.add_vertex(), 6u);
  EXPECT_EQ(builder.vertex_count(), 7u);
}

}  // namespace
}  // namespace fpsched
