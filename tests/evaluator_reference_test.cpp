// Differential tests: the optimized evaluator must agree exactly (up to
// floating-point noise) with the literal Algorithm-1 transcription on
// randomized DAGs, schedules, and checkpoint patterns.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/evaluator_naive.hpp"
#include "dag/linearize.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "workflows/generator.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

using testing::assert_rel_near;

Schedule random_schedule(const TaskGraph& graph, Rng& rng, double ckpt_probability) {
  const std::vector<double> weights = graph.weights();
  Schedule schedule = make_schedule(
      linearize(graph.dag(), weights, LinearizeMethod::random_first, {.seed = rng()}));
  for (VertexId v = 0; v < graph.task_count(); ++v)
    schedule.checkpointed[v] = rng.bernoulli(ckpt_probability) ? 1 : 0;
  return schedule;
}

void expect_evaluators_agree(const TaskGraph& graph, const FailureModel& model,
                             const Schedule& schedule) {
  const double fast = ScheduleEvaluator(graph, model).evaluate(schedule).expected_makespan;
  const double reference = evaluate_reference(graph, model, schedule);
  if (std::isinf(reference)) {
    EXPECT_EQ(reference, fast) << "both must overflow Eq. (1) alike";
    return;
  }
  assert_rel_near(reference, fast, 1e-9, "optimized vs Algorithm 1");
}

TEST(EvaluatorReference, PaperFigure1Example) {
  TaskGraph graph = make_paper_figure1(10.0);
  graph.apply_cost_model(CostModel::proportional(0.1));
  const Schedule schedule({0, 3, 1, 2, 4, 5, 6, 7}, {0, 0, 0, 1, 1, 0, 0, 0});
  expect_evaluators_agree(graph, FailureModel(0.01, 0.0), schedule);
  expect_evaluators_agree(graph, FailureModel(0.001, 5.0), schedule);
}

TEST(EvaluatorReference, LostWorkTableMatchesPaperExample) {
  // Linearization T0 T3 T1 T2 T4 T5 T6 T7 with T3, T4 checkpointed
  // (positions: T0=0, T3=1, T1=2, T2=3, T4=4, T5=5, T6=6, T7=7).
  TaskGraph graph = make_paper_figure1(10.0);
  graph.apply_cost_model(CostModel::proportional(0.1));
  const Schedule schedule({0, 3, 1, 2, 4, 5, 6, 7}, {0, 0, 0, 1, 1, 0, 0, 0});

  // Failure during X_5 (T5, position 5): T5 recovers T3's checkpoint only.
  const LostWorkTable at5 = find_lost_work_reference(graph, schedule, 5);
  EXPECT_DOUBLE_EQ(at5.reexecuted_weight[5], 0.0);
  EXPECT_DOUBLE_EQ(at5.recovered_cost[5], graph.recovery_cost(3));
  // Next, T6 (position 6) recovers T4's checkpoint; T5 is in memory.
  EXPECT_DOUBLE_EQ(at5.reexecuted_weight[6], 0.0);
  EXPECT_DOUBLE_EQ(at5.recovered_cost[6], graph.recovery_cost(4));
  // T7 (position 7) needs T2, which needs T1: both re-executed, as in the
  // paper's walk-through.
  EXPECT_DOUBLE_EQ(at5.reexecuted_weight[7], graph.weight(1) + graph.weight(2));
  EXPECT_DOUBLE_EQ(at5.recovered_cost[7], 0.0);
}

TEST(EvaluatorReference, ChainsForksJoins) {
  Rng rng(99);
  const FailureModel model(0.02, 1.0);
  {
    TaskGraph graph = make_uniform_chain(9, 7.0);
    graph.apply_cost_model(CostModel::constant(1.0));
    for (int rep = 0; rep < 5; ++rep)
      expect_evaluators_agree(graph, model, random_schedule(graph, rng, 0.4));
  }
  {
    TaskGraph graph = make_fork(20.0, std::vector<double>{3.0, 8.0, 15.0, 2.0, 9.0});
    graph.apply_cost_model(CostModel::proportional(0.2));
    for (int rep = 0; rep < 5; ++rep)
      expect_evaluators_agree(graph, model, random_schedule(graph, rng, 0.4));
  }
  {
    TaskGraph graph = make_join(std::vector<double>{3.0, 8.0, 15.0, 2.0, 9.0}, 12.0);
    graph.apply_cost_model(CostModel::proportional(0.2));
    for (int rep = 0; rep < 5; ++rep)
      expect_evaluators_agree(graph, model, random_schedule(graph, rng, 0.4));
  }
}

// Randomized sweep: layered DAGs of several shapes x failure rates x
// checkpoint densities.
struct DifferentialCase {
  std::uint64_t seed;
  std::size_t tasks;
  std::size_t layers;
  double lambda;
  double downtime;
  double ckpt_probability;
};

class EvaluatorDifferential : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(EvaluatorDifferential, OptimizedMatchesAlgorithmOne) {
  const DifferentialCase& param = GetParam();
  TaskGraph graph = make_layered_random({.task_count = param.tasks,
                                         .layer_count = param.layers,
                                         .edge_probability = 0.35,
                                         .mean_weight = 15.0,
                                         .weight_cv = 0.6,
                                         .seed = param.seed});
  graph.apply_cost_model(CostModel::proportional(0.15));
  const FailureModel model(param.lambda, param.downtime);
  Rng rng(param.seed ^ 0xabcdef);
  for (int rep = 0; rep < 3; ++rep) {
    expect_evaluators_agree(graph, model, random_schedule(graph, rng, param.ckpt_probability));
  }
}

std::vector<DifferentialCase> differential_cases() {
  std::vector<DifferentialCase> cases;
  std::uint64_t seed = 1;
  for (const std::size_t tasks : {6, 12, 25, 40}) {
    for (const double lambda : {1e-3, 1e-2}) {
      for (const double ckpt_probability : {0.0, 0.3, 0.8}) {
        cases.push_back({seed++, tasks, std::max<std::size_t>(2, tasks / 6), lambda,
                         (seed % 2) ? 0.0 : 2.0, ckpt_probability});
      }
    }
  }
  // Tiny graphs, down to a single task.
  for (const std::size_t tasks : {1, 2, 3, 5}) {
    cases.push_back({seed++, tasks, std::min<std::size_t>(tasks, 2), 1e-2, 0.0, 0.5});
  }
  // Failure-dominated rates, where e^{-lambda S} underflows, the
  // zero-probability events are skipped and Eq. (1) may overflow to +inf,
  // and a vanishing rate, where P(Z^{k+1}_k) rounds to 0 and every pass
  // is dead.
  for (const double lambda : {0.5, 2.0, 1e-18}) {
    cases.push_back({seed++, 40, 6, lambda, 1.0, 0.3});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomDags, EvaluatorDifferential,
                         ::testing::ValuesIn(differential_cases()));

// Family evaluation: one K-cell call must reproduce K one-cell calls bit
// for bit, under both math backends, whatever mix of lambdas and downtimes
// the cells hold (repeated lambdas share a lane, lambda = 0 cells take the
// deterministic branch).
struct FamilyCase {
  const char* name;
  std::uint64_t seed;
  std::size_t tasks;
  std::vector<double> lambdas;
  double ckpt_probability;

  friend void PrintTo(const FamilyCase& c, std::ostream* os) { *os << c.name; }
};

class EvaluatorFamily : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(EvaluatorFamily, KCellCallIsBitIdenticalToKOneCellCalls) {
  const FamilyCase& param = GetParam();
  TaskGraph graph = make_layered_random({.task_count = param.tasks,
                                         .layer_count = std::min<std::size_t>(param.tasks, 4),
                                         .edge_probability = 0.35,
                                         .mean_weight = 15.0,
                                         .weight_cv = 0.6,
                                         .seed = param.seed});
  graph.apply_cost_model(CostModel::proportional(0.15));
  std::vector<FailureModel> cells;
  for (const double lambda : param.lambdas) {
    for (const double downtime : {0.0, 1.0, 60.0}) cells.emplace_back(lambda, downtime);
  }
  cells.push_back(cells.front());  // a duplicated cell is scored like any other
  const ScheduleEvaluator family(graph, cells);
  Rng rng(param.seed ^ 0x5eed);
  // One workspace for every call: family and one-cell calls of different
  // widths must not leak state into each other.
  EvaluatorWorkspace ws;
  for (int rep = 0; rep < 3; ++rep) {
    const Schedule schedule = random_schedule(graph, rng, param.ckpt_probability);
    for (const EvalMath math : {EvalMath::exact, EvalMath::fast}) {
      std::vector<double> together(cells.size());
      family.expected_makespans(schedule, ws, together, /*validate=*/true, math);
      for (std::size_t c = 0; c < cells.size(); ++c) {
        const double alone =
            ScheduleEvaluator(graph, cells[c]).expected_makespan(schedule, ws, true, math);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(together[c]), std::bit_cast<std::uint64_t>(alone))
            << param.name << " cell " << c << " lambda=" << cells[c].lambda()
            << " D=" << cells[c].downtime() << " math=" << to_string(math) << ": " << together[c]
            << " vs " << alone;
      }
    }
  }
}

std::vector<FamilyCase> family_cases() {
  return {
      {"random_dag_a", 11, 30, {1e-3, 4e-3, 1e-2}, 0.3},
      {"random_dag_b", 12, 60, {2e-3, 1e-3}, 0.1},
      {"random_dag_dense_ckpt", 13, 45, {5e-3, 5e-2}, 0.8},
      {"n1", 14, 1, {1e-2, 3e-2}, 0.5},
      {"n2", 15, 2, {1e-2, 3e-2}, 0.5},
      {"n3", 16, 3, {1e-2, 3e-2}, 0.5},
      // All but a few passes are dead, in every lane or in one only.
      {"dead_passes", 17, 40, {1e-18, 3e-18}, 0.3},
      {"dead_passes_one_lane", 20, 40, {1e-18, 1e-3}, 0.3},
      // Failure-dominated: Eq. (1) overflows to +inf.
      {"overflow", 18, 40, {2.0, 1e-2}, 0.3},
      // A failure-free cell mixed with live ones.
      {"lambda_zero_mix", 19, 35, {0.0, 1e-3, 2e-2}, 0.3},
  };
}

INSTANTIATE_TEST_SUITE_P(Cells, EvaluatorFamily, ::testing::ValuesIn(family_cases()),
                         [](const ::testing::TestParamInfo<FamilyCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(EvaluatorFamilyApi, OneCellEntryPointsRejectFamilies) {
  TaskGraph graph = make_uniform_chain(4, 5.0);
  graph.apply_cost_model(CostModel::constant(1.0));
  const ScheduleEvaluator family(graph, {FailureModel(1e-2), FailureModel(2e-2)});
  const Schedule schedule = make_schedule({0, 1, 2, 3});
  EvaluatorWorkspace ws;
  EXPECT_THROW(family.evaluate(schedule), Error);
  EXPECT_THROW(family.expected_makespan(schedule, ws), Error);
  std::vector<double> one(1);
  EXPECT_THROW(family.expected_makespans(schedule, ws, one), Error);
  EXPECT_THROW(ScheduleEvaluator(graph, std::vector<FailureModel>{}), Error);
}

TEST(EvaluatorReference, PegasusWorkflowsSmall) {
  // One real workflow of each family, moderate size.
  Rng rng(2024);
  for (const WorkflowKind kind : all_workflow_kinds()) {
    const TaskGraph graph = generate_workflow(
        kind, {.task_count = 50, .seed = 5, .weight_cv = 0.3,
               .cost_model = CostModel::proportional(0.1)});
    const FailureModel model(kind == WorkflowKind::genome ? 1e-5 : 1e-3, 0.0);
    expect_evaluators_agree(graph, model, random_schedule(graph, rng, 0.25));
  }
}

}  // namespace
}  // namespace fpsched
