// Cross-cutting property tests over randomized inputs: invariants the
// model must satisfy regardless of DAG shape, schedule, or parameters.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/evaluator.hpp"
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
