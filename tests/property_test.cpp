// Cross-cutting property tests over randomized inputs: invariants the
// model must satisfy regardless of DAG shape, schedule, or parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "dag/graph.hpp"
#include "dag/linearize.hpp"
#include "dag/traversal.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "workflows/generator.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

struct PropertyCase {
  std::uint64_t seed;
  std::size_t tasks;
  std::size_t layers;
};

class RandomDagProperties : public ::testing::TestWithParam<PropertyCase> {
 protected:
  TaskGraph make_graph() const {
    TaskGraph graph = make_layered_random({.task_count = GetParam().tasks,
                                           .layer_count = GetParam().layers,
                                           .edge_probability = 0.3,
                                           .mean_weight = 12.0,
                                           .weight_cv = 0.7,
                                           .seed = GetParam().seed});
    graph.apply_cost_model(CostModel::proportional(0.1));
    return graph;
  }

  Schedule random_schedule(const TaskGraph& graph, double ckpt_probability) const {
    Rng rng(GetParam().seed * 7919 + 13);
    Schedule schedule = make_schedule(linearize(graph.dag(), graph.weights(),
                                                LinearizeMethod::random_first,
                                                {.seed = rng()}));
    for (VertexId v = 0; v < graph.task_count(); ++v)
      schedule.checkpointed[v] = rng.bernoulli(ckpt_probability) ? 1 : 0;
    return schedule;
  }
};

TEST_P(RandomDagProperties, MakespanDominatesFaultFreeTime) {
  const TaskGraph graph = make_graph();
  const ScheduleEvaluator evaluator(graph, FailureModel(0.004, 1.0));
  const Schedule schedule = random_schedule(graph, 0.3);
  const Evaluation eval = evaluator.evaluate(schedule);
  EXPECT_GE(eval.expected_makespan, eval.fault_free_time * (1.0 - 1e-12));
  EXPECT_GE(eval.fault_free_time, eval.total_weight);
}

TEST_P(RandomDagProperties, MonotoneInLambda) {
  const TaskGraph graph = make_graph();
  const Schedule schedule = random_schedule(graph, 0.3);
  double previous = 0.0;
  for (const double lambda : {1e-5, 1e-4, 1e-3, 1e-2}) {
    const double value = ScheduleEvaluator(graph, FailureModel(lambda, 0.0))
                             .evaluate(schedule)
                             .expected_makespan;
    EXPECT_GT(value, previous);
    previous = value;
  }
}

TEST_P(RandomDagProperties, MonotoneInDowntime) {
  const TaskGraph graph = make_graph();
  const Schedule schedule = random_schedule(graph, 0.3);
  double previous = -1.0;
  for (const double downtime : {0.0, 1.0, 10.0, 100.0}) {
    const double value = ScheduleEvaluator(graph, FailureModel(0.003, downtime))
                             .evaluate(schedule)
                             .expected_makespan;
    EXPECT_GT(value, previous);
    previous = value;
  }
}

TEST_P(RandomDagProperties, ExactlyAffineInDowntime) {
  // E(D) = (1/lambda + D) * sum_i e^{lambda L^i_i} accum_i: the downtime
  // enters only through the rate factor, so E(D) * lambda / (1 + lambda D)
  // is one constant for every D (the law that lets a family share
  // everything but the combine tail across downtimes).
  const TaskGraph graph = make_graph();
  const Schedule schedule = random_schedule(graph, 0.3);
  const std::vector<double> downtimes{0.0, 0.5, 7.0, 60.0, 3600.0};
  for (const double lambda : {1e-4, 3e-3, 5e-2}) {
    std::vector<FailureModel> cells;
    for (const double downtime : downtimes) cells.emplace_back(lambda, downtime);
    const ScheduleEvaluator family(graph, cells);
    EvaluatorWorkspace ws;
    std::vector<double> expected(cells.size());
    family.expected_makespans(schedule, ws, expected);
    const double invariant = expected[0] * lambda;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const double scaled = expected[c] * lambda / (1.0 + lambda * downtimes[c]);
      EXPECT_NEAR(scaled / invariant, 1.0, 1e-12)
          << "lambda=" << lambda << " D=" << downtimes[c];
      // The family cell equals the one-cell evaluation of the same model.
      EXPECT_EQ(expected[c], ScheduleEvaluator(graph, cells[c]).expected_makespan(schedule, ws));
    }
  }
}

TEST_P(RandomDagProperties, LambdaToZeroLimitIsFaultFreeTime) {
  const TaskGraph graph = make_graph();
  const Schedule schedule = random_schedule(graph, 0.5);
  const Evaluation tiny = ScheduleEvaluator(graph, FailureModel(1e-12, 0.0)).evaluate(schedule);
  EXPECT_NEAR(tiny.expected_makespan / tiny.fault_free_time, 1.0, 1e-6);
}

TEST_P(RandomDagProperties, InflatingACheckpointCostNeverHelps) {
  const TaskGraph graph = make_graph();
  Schedule schedule = random_schedule(graph, 0.5);
  // Pick some checkpointed vertex (if none, checkpoint vertex 0).
  VertexId target = 0;
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    if (schedule.is_checkpointed(v)) {
      target = v;
      break;
    }
  }
  schedule.checkpointed[target] = 1;
  const FailureModel model(0.005, 0.0);
  const double base = ScheduleEvaluator(graph, model).evaluate(schedule).expected_makespan;
  TaskGraph costly = graph;
  costly.set_costs(target, graph.ckpt_cost(target) * 3.0 + 1.0, graph.recovery_cost(target));
  const double inflated =
      ScheduleEvaluator(costly, model).evaluate(schedule).expected_makespan;
  EXPECT_GT(inflated, base);
}

TEST_P(RandomDagProperties, EveryLinearizationGivesFiniteConsistentValues) {
  const TaskGraph graph = make_graph();
  const ScheduleEvaluator evaluator(graph, FailureModel(0.002, 0.5));
  for (const LinearizeMethod method : all_linearize_methods()) {
    const auto order =
        linearize(graph.dag(), graph.weights(), method, {.seed = GetParam().seed});
    ASSERT_TRUE(is_valid_linearization(graph.dag(), order));
    const double value = evaluator.evaluate(make_schedule(order)).expected_makespan;
    EXPECT_TRUE(std::isfinite(value));
    EXPECT_GT(value, graph.total_weight());
  }
}

TEST_P(RandomDagProperties, CheckpointingEverythingBoundsTheLostWork) {
  // With every task checkpointed, the lost work of task i is at most the
  // recoveries of its direct predecessors R_i (re-execution chains cannot
  // survive), so E[X_i] <= E[t(R_i + w_i; c_i; 0)] — the worst case where
  // every attempt starts from a full recovery.
  const TaskGraph graph = make_graph();
  const FailureModel model(0.006, 0.0);
  Schedule schedule = random_schedule(graph, 0.0);
  for (VertexId v = 0; v < graph.task_count(); ++v) schedule.checkpointed[v] = 1;
  const Evaluation eval = ScheduleEvaluator(graph, model).evaluate(schedule);
  for (std::size_t i = 0; i < schedule.order.size(); ++i) {
    const VertexId v = schedule.order[i];
    double recovery_bound = 0.0;
    for (const VertexId p : graph.dag().predecessors(v))
      recovery_bound += graph.recovery_cost(p);
    EXPECT_LE(eval.per_task_expected[i],
              model.expected_time(recovery_bound + graph.weight(v), graph.ckpt_cost(v), 0.0) *
                  (1.0 + 1e-12));
  }
}

/// `graph` with every w, c and r multiplied by `alpha`.
TaskGraph scaled(const TaskGraph& graph, double alpha) {
  TaskGraph out = graph;
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    out.set_weight(v, graph.weight(v) * alpha);
    out.set_costs(v, graph.ckpt_cost(v) * alpha, graph.recovery_cost(v) * alpha);
  }
  return out;
}

TEST_P(RandomDagProperties, ScaleInvariance) {
  // Measuring time in other units (w, c, r and D times alpha, lambda over
  // alpha) scales E by alpha. For alpha = 2^k every product lambda * x is
  // unchanged, and every sum, 1/lambda + D and the combine scale exactly,
  // so the law holds bit for bit under either backend. Any other alpha
  // rounds differently and holds to 1e-12.
  const TaskGraph graph = make_graph();
  const Schedule schedule = random_schedule(graph, 0.3);
  const double lambda = 0.004;
  const double downtime = 1.5;
  EvaluatorWorkspace ws;
  for (const EvalMath math : {EvalMath::exact, EvalMath::fast}) {
    const double expected = ScheduleEvaluator(graph, FailureModel(lambda, downtime))
                                .expected_makespan(schedule, ws, true, math);
    for (const int k : {-6, 3, 11}) {
      const double alpha = std::ldexp(1.0, k);
      const double actual =
          ScheduleEvaluator(scaled(graph, alpha), FailureModel(lambda / alpha, downtime * alpha))
              .expected_makespan(schedule, ws, true, math);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
                std::bit_cast<std::uint64_t>(expected * alpha))
          << "alpha=2^" << k << " math=" << to_string(math);
    }
    for (const double alpha : {0.3, 3.7, 1000.0}) {
      const double actual =
          ScheduleEvaluator(scaled(graph, alpha), FailureModel(lambda / alpha, downtime * alpha))
              .expected_makespan(schedule, ws, true, math);
      testing::expect_rel_near(expected * alpha, actual, 1e-12, "scaled E");
    }
  }
}

/// `graph` and `schedule` with vertex v renamed to rename[v].
std::pair<TaskGraph, Schedule> relabeled(const TaskGraph& graph, const Schedule& schedule,
                                         const std::vector<VertexId>& rename) {
  const std::size_t n = graph.task_count();
  std::vector<Task> tasks(n);
  DagBuilder builder;
  builder.add_vertices(n);
  Schedule out{std::vector<VertexId>(n), std::vector<std::uint8_t>(n)};
  for (VertexId v = 0; v < n; ++v) {
    tasks[rename[v]] = graph.task(v);
    for (const VertexId p : graph.dag().predecessors(v)) builder.add_edge(rename[p], rename[v]);
    out.checkpointed[rename[v]] = schedule.checkpointed[v];
  }
  for (std::size_t i = 0; i < n; ++i) out.order[i] = rename[schedule.order[i]];
  return {TaskGraph(std::move(builder).build(), std::move(tasks)), std::move(out)};
}

TEST_P(RandomDagProperties, RelabelingInvariance) {
  // Renaming the vertices (and the schedule with them) describes the same
  // execution, so E agrees to 1e-12 under any renaming. It is bit for bit
  // only when every predecessor row keeps its relative order: Dag sorts
  // each row by vertex id, and the lost-work walk sums L^i_k in row order.
  const TaskGraph graph = make_graph();
  const Schedule schedule = random_schedule(graph, 0.3);
  const std::size_t n = graph.task_count();
  const FailureModel model(0.004, 1.0);
  EvaluatorWorkspace ws;

  // Any renaming: a seeded shuffle.
  std::vector<VertexId> shuffled(n);
  for (VertexId v = 0; v < n; ++v) shuffled[v] = v;
  Rng rng(GetParam().seed + 101);
  for (std::size_t i = n; i > 1; --i) std::swap(shuffled[i - 1], shuffled[rng.uniform_index(i)]);

  // A row-order-preserving renaming: deepest layer first, ids ascending
  // within a layer. Every predecessor of a layered graph's vertex sits in
  // the previous layer, so each row keeps its order.
  std::vector<std::size_t> depth(n, 0);
  for (const VertexId v : graph.dag().topological_order()) {
    for (const VertexId p : graph.dag().predecessors(v)) depth[v] = std::max(depth[v], depth[p] + 1);
  }
  std::vector<VertexId> by_depth(n);
  for (VertexId v = 0; v < n; ++v) by_depth[v] = v;
  std::stable_sort(by_depth.begin(), by_depth.end(),
                   [&](VertexId a, VertexId b) { return depth[a] > depth[b]; });
  std::vector<VertexId> layered(n);
  for (VertexId id = 0; id < n; ++id) layered[by_depth[id]] = id;
  for (VertexId v = 0; v < n; ++v) {
    std::vector<VertexId> row;
    for (const VertexId p : graph.dag().predecessors(v)) row.push_back(layered[p]);
    ASSERT_TRUE(std::is_sorted(row.begin(), row.end())) << "renaming reorders the row of " << v;
  }

  for (const EvalMath math : {EvalMath::exact, EvalMath::fast}) {
    const double expected = ScheduleEvaluator(graph, model).expected_makespan(schedule, ws, true, math);
    const auto [any_graph, any_schedule] = relabeled(graph, schedule, shuffled);
    testing::expect_rel_near(
        expected, ScheduleEvaluator(any_graph, model).expected_makespan(any_schedule, ws, true, math),
        1e-12, "shuffled ids");
    const auto [kept_graph, kept_schedule] = relabeled(graph, schedule, layered);
    const double kept =
        ScheduleEvaluator(kept_graph, model).expected_makespan(kept_schedule, ws, true, math);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(kept), std::bit_cast<std::uint64_t>(expected))
        << "math=" << to_string(math) << ": " << kept << " vs " << expected;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomDagProperties,
                         ::testing::Values(PropertyCase{1, 10, 3}, PropertyCase{2, 18, 4},
                                           PropertyCase{3, 30, 5}, PropertyCase{4, 30, 10},
                                           PropertyCase{5, 50, 5}, PropertyCase{6, 80, 8},
                                           PropertyCase{7, 15, 15}, PropertyCase{8, 64, 4}));

// Workflow-level property: on every family, the ratio T/T_inf grows with
// the failure rate and shrinks... (stays >= 1 always).
class WorkflowRatioProperties : public ::testing::TestWithParam<WorkflowKind> {};

TEST_P(WorkflowRatioProperties, RatioGrowsWithLambda) {
  const TaskGraph graph = generate_workflow(GetParam(), {.task_count = 60, .seed = 17});
  const auto order = linearize(graph.dag(), graph.weights(), LinearizeMethod::depth_first);
  Schedule schedule = make_schedule(order);
  for (std::size_t i = 0; i < schedule.order.size(); i += 4)
    schedule.checkpointed[schedule.order[i]] = 1;
  const double base_lambda = paper_lambda(GetParam());
  double previous = 1.0;
  for (const double factor : {0.1, 0.3, 1.0, 3.0}) {
    const Evaluation eval =
        ScheduleEvaluator(graph, FailureModel(base_lambda * factor, 0.0)).evaluate(schedule);
    EXPECT_GT(eval.ratio, previous);
    previous = eval.ratio;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, WorkflowRatioProperties,
                         ::testing::ValuesIn(all_workflow_kinds().begin(),
                                             all_workflow_kinds().end()));

}  // namespace
}  // namespace fpsched
