// Tests for the DF / BF / RF linearization strategies.
#include "dag/linearize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <random>

#include "dag/traversal.hpp"
#include "workflows/generator.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

// --- reference implementation ------------------------------------------
//
// The historic DF/BF algorithms in their plainest form, kept here as the
// oracle: DF keeps the ready set on an explicit stack (newly enabled
// tasks sorted by decreasing priority, pushed so the best is on top); BF
// keeps it in a deque of enabling waves. `linearize` must reproduce these
// orders exactly, including the ascending-id tie-break.

std::vector<VertexId> reference_linearize(const Dag& dag, std::span<const double> weights,
                                          LinearizeMethod method,
                                          const LinearizeOptions& options) {
  const std::size_t n = dag.vertex_count();
  const std::vector<double> priority = options.outweight == OutweightMode::direct
                                           ? direct_outweights(dag, weights)
                                           : descendant_outweights(dag, weights);
  const auto before = [&](VertexId a, VertexId b) {
    if (priority[a] != priority[b]) return priority[a] > priority[b];
    return a < b;
  };
  std::vector<std::uint32_t> remaining(n);
  std::vector<VertexId> initial;
  for (VertexId v = 0; v < n; ++v) {
    remaining[v] = static_cast<std::uint32_t>(dag.in_degree(v));
    if (remaining[v] == 0) initial.push_back(v);
  }
  std::sort(initial.begin(), initial.end(), before);

  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<VertexId> enabled;
  if (method == LinearizeMethod::depth_first) {
    std::vector<VertexId> stack(initial.rbegin(), initial.rend());
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      order.push_back(v);
      enabled.clear();
      for (const VertexId s : dag.successors(v)) {
        if (--remaining[s] == 0) enabled.push_back(s);
      }
      std::sort(enabled.begin(), enabled.end(), before);
      stack.insert(stack.end(), enabled.rbegin(), enabled.rend());
    }
  } else {
    std::deque<VertexId> queue(initial.begin(), initial.end());
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop_front();
      order.push_back(v);
      enabled.clear();
      for (const VertexId s : dag.successors(v)) {
        if (--remaining[s] == 0) enabled.push_back(s);
      }
      std::sort(enabled.begin(), enabled.end(), before);
      queue.insert(queue.end(), enabled.begin(), enabled.end());
    }
  }
  return order;
}

/// Random layered DAG with integer weights (small range, to force
/// priority ties and exercise the id tie-break) and occasional
/// layer-skipping edges.
std::pair<Dag, std::vector<double>> random_layered_dag(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const std::size_t layers = 3 + rng() % 5;
  std::vector<std::vector<VertexId>> layer(layers);
  DagBuilder builder;
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t width = 1 + rng() % 8;
    for (std::size_t i = 0; i < width; ++i) layer[l].push_back(builder.add_vertex());
  }
  for (std::size_t l = 1; l < layers; ++l) {
    for (const VertexId v : layer[l]) {
      // One mandatory parent in the previous layer, then a few random
      // extras from any earlier layer (duplicates exercise CSR dedup).
      builder.add_edge(layer[l - 1][rng() % layer[l - 1].size()], v);
      const std::size_t extras = rng() % 3;
      for (std::size_t i = 0; i < extras; ++i) {
        const std::size_t from_layer = rng() % l;
        builder.add_edge(layer[from_layer][rng() % layer[from_layer].size()], v);
      }
    }
  }
  Dag dag = std::move(builder).build();
  std::vector<double> weights(dag.vertex_count());
  for (double& w : weights) w = 1.0 + static_cast<double>(rng() % 4);
  return {std::move(dag), std::move(weights)};
}

TEST(Linearize, MatchesReferenceOnRandomizedDags) {
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    const auto [dag, weights] = random_layered_dag(seed);
    for (const LinearizeMethod method :
         {LinearizeMethod::depth_first, LinearizeMethod::breadth_first}) {
      for (const OutweightMode mode : {OutweightMode::direct, OutweightMode::descendants}) {
        const LinearizeOptions options{.outweight = mode};
        const auto got = linearize(dag, weights, method, options);
        const auto want = reference_linearize(dag, weights, method, options);
        EXPECT_EQ(got, want) << "seed=" << seed << " method=" << to_string(method)
                             << " mode=" << static_cast<int>(mode);
        EXPECT_TRUE(is_valid_linearization(dag, got));
      }
    }
  }
}

// The random DAGs above are 1-8 wide. Generated workflows add the wide
// waves they never reach: at this size Montage starts from ~25,000
// sources and has a task with as many successors, and CyberShake and
// Genome have tasks with 24 and 30.
TEST(Linearize, MatchesReferenceOnGeneratedWorkflows) {
  for (const WorkflowKind kind : all_workflow_kinds()) {
    const TaskGraph graph = generate_workflow(kind, {.task_count = 100000, .seed = 42});
    for (const LinearizeMethod method :
         {LinearizeMethod::depth_first, LinearizeMethod::breadth_first}) {
      EXPECT_EQ(linearize(graph.dag(), graph.weights_view(), method),
                reference_linearize(graph.dag(), graph.weights_view(), method, {}))
          << to_string(kind) << " " << to_string(method);
    }
  }
}

TEST(Linearize, WorkspaceReuseMatchesFreshCalls) {
  // One workspace carried across differently-sized DAGs and every method
  // must still produce exactly what fresh `linearize` calls produce.
  LinearizeWorkspace ws;
  std::vector<VertexId> out;
  for (std::uint32_t seed = 20; seed <= 25; ++seed) {
    const auto [dag, weights] = random_layered_dag(seed);
    for (const LinearizeMethod method : all_linearize_methods()) {
      const LinearizeOptions options{.seed = seed};
      linearize_into(dag, weights, method, options, ws, out);
      EXPECT_EQ(out, linearize(dag, weights, method, options))
          << "seed=" << seed << " method=" << to_string(method);
    }
  }
}

TEST(Linearize, NamesAndEnumeration) {
  EXPECT_EQ(to_string(LinearizeMethod::depth_first), "DF");
  EXPECT_EQ(to_string(LinearizeMethod::breadth_first), "BF");
  EXPECT_EQ(to_string(LinearizeMethod::random_first), "RF");
  EXPECT_EQ(all_linearize_methods().size(), 3u);
}

TEST(Linearize, DepthFirstFollowsTheHeavyBranchFirst) {
  // The paper's priority is the OUTWEIGHT (sum of successors' weights), so
  // build branches whose heads differ in successor weight:
  //   0 -> 1 -> 4 (w=50), 0 -> 2 -> 5 (w=10), 0 -> 3 -> 6 (w=1).
  DagBuilder builder;
  builder.add_vertices(7);
  builder.add_edge(0, 1);
  builder.add_edge(0, 2);
  builder.add_edge(0, 3);
  builder.add_edge(1, 4);
  builder.add_edge(2, 5);
  builder.add_edge(3, 6);
  const Dag dag = std::move(builder).build();
  const std::vector<double> w{1.0, 1.0, 1.0, 1.0, 50.0, 10.0, 1.0};
  const auto order = linearize(dag, w, LinearizeMethod::depth_first);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);  // outweight 50 first
  EXPECT_EQ(order[2], 4u);  // DF dives into the branch it started
  EXPECT_EQ(order[3], 2u);  // then outweight 10
  EXPECT_EQ(order[4], 5u);
  EXPECT_EQ(order[5], 3u);  // then outweight 1
  EXPECT_EQ(order[6], 6u);
}

TEST(Linearize, DepthFirstDivesBeforeSwitchingBranches) {
  // Two independent chains a0->a1, b0->b1 with equal weights: DF finishes
  // the chain it starts; BF alternates between the chains.
  DagBuilder builder;
  builder.add_vertices(4);
  builder.add_edge(0, 1);  // chain A
  builder.add_edge(2, 3);  // chain B
  const Dag dag = std::move(builder).build();
  const std::vector<double> w{1.0, 1.0, 1.0, 1.0};

  const auto df = linearize(dag, w, LinearizeMethod::depth_first);
  // DF: after executing a source, its newly-enabled successor runs next.
  const auto pos = [&](const std::vector<VertexId>& order, VertexId v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_EQ(pos(df, 1), pos(df, 0) + 1);  // A's successor immediately follows
  const auto bf = linearize(dag, w, LinearizeMethod::breadth_first);
  EXPECT_EQ(bf, (std::vector<VertexId>{0, 2, 1, 3}));  // wave by wave
}

TEST(Linearize, BreadthFirstOrdersWavesByOutweight) {
  // Join: sources with different outweights... all share the sink, so use
  // weights to check in-wave ordering via the outweight tie-break on ids.
  const TaskGraph join = make_join(std::vector<double>{5.0, 1.0, 3.0}, 2.0);
  const auto order = linearize(join.dag(), join.weights(), LinearizeMethod::breadth_first);
  // All sources have outweight = w_sink = 2; tie-break is ascending id.
  EXPECT_EQ(order, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(Linearize, RandomFirstIsSeededAndValid) {
  const TaskGraph graph = make_paper_figure1(1.0);
  const auto a = linearize(graph.dag(), graph.weights(), LinearizeMethod::random_first,
                           {.seed = 1});
  const auto b = linearize(graph.dag(), graph.weights(), LinearizeMethod::random_first,
                           {.seed = 1});
  const auto c = linearize(graph.dag(), graph.weights(), LinearizeMethod::random_first,
                           {.seed = 2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // with 8 tasks a collision is vanishingly unlikely
  EXPECT_TRUE(is_valid_linearization(graph.dag(), a));
  EXPECT_TRUE(is_valid_linearization(graph.dag(), c));
}

TEST(Linearize, OutweightModeChangesPriorities) {
  // Vertex 1's direct successors are light but its subtree is heavy:
  //   0 -> {1, 2}; 1 -> 3 (w=1) -> 4 (w=100); 2 -> 5 (w=10).
  DagBuilder builder;
  builder.add_vertices(6);
  builder.add_edge(0, 1);
  builder.add_edge(0, 2);
  builder.add_edge(1, 3);
  builder.add_edge(3, 4);
  builder.add_edge(2, 5);
  const Dag dag = std::move(builder).build();
  const std::vector<double> w{1.0, 1.0, 1.0, 1.0, 100.0, 10.0};

  const auto direct = linearize(dag, w, LinearizeMethod::depth_first,
                                {.outweight = OutweightMode::direct});
  const auto deep = linearize(dag, w, LinearizeMethod::depth_first,
                              {.outweight = OutweightMode::descendants});
  // direct: d(1) = w3 = 1 < d(2) = w5 = 10 -> vertex 2 first.
  EXPECT_EQ(direct[1], 2u);
  // descendants: d(1) = 1 + 100 = 101 > d(2) = 10 -> vertex 1 first.
  EXPECT_EQ(deep[1], 1u);
}

// Every strategy must produce a valid linearization on every workflow.
class LinearizeAllWorkflows
    : public ::testing::TestWithParam<std::tuple<WorkflowKind, LinearizeMethod>> {};

TEST_P(LinearizeAllWorkflows, ProducesValidLinearizations) {
  const auto [kind, method] = GetParam();
  const TaskGraph graph = generate_workflow(kind, {.task_count = 120, .seed = 3});
  const auto order = linearize(graph.dag(), graph.weights(), method, {.seed = 99});
  EXPECT_TRUE(is_valid_linearization(graph.dag(), order));
}

// Instance scale: a 200k-task genome generates and linearizes under every
// strategy through one workspace, within a 20 s budget for the whole run.
TEST(Linearize, GenomeAt200kTasksLinearizesUnderEveryStrategyWithinBudget) {
  const auto start = std::chrono::steady_clock::now();
  const TaskGraph graph = generate_workflow(
      WorkflowKind::genome,
      {.task_count = 200000, .seed = 5, .cost_model = CostModel::proportional(0.1)});
  ASSERT_EQ(graph.task_count(), 200000u);
  LinearizeWorkspace ws;
  std::vector<VertexId> order;
  for (const LinearizeMethod method : all_linearize_methods()) {
    linearize_into(graph.dag(), graph.weights_view(), method, {}, ws, order);
    EXPECT_TRUE(is_valid_linearization(graph.dag(), order)) << to_string(method);
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 20.0) << "generate + DF/BF/RF linearizations";
}

INSTANTIATE_TEST_SUITE_P(
    Workflows, LinearizeAllWorkflows,
    ::testing::Combine(::testing::ValuesIn(all_workflow_kinds().begin(),
                                           all_workflow_kinds().end()),
                       ::testing::Values(LinearizeMethod::depth_first,
                                         LinearizeMethod::breadth_first,
                                         LinearizeMethod::random_first)));

}  // namespace
}  // namespace fpsched
