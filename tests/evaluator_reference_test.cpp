// Differential tests: the optimized evaluator must agree exactly (up to
// floating-point noise) with the literal Algorithm-1 transcription on
// randomized DAGs, schedules, and checkpoint patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <set>
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

/// A pass pattern a test row must exercise, checked on Algorithm 1's
/// lost-work tables so the row cannot silently stop covering it.
enum class PassPattern : std::uint8_t {
  any,
  /// Some position's L^i_k takes >= 3 distinct nonzero values across the
  /// passes that score it, so the evaluator's one-entry factor memo per
  /// position must recompute at every change.
  lost_work_changes,
  /// p = q * P(Z^{k+1}_k) underflows to 0 mid-pass while q = e^{-lambda
  /// S^i_k} > 0: the record is skipped and must leave the memo untouched.
  probability_underflow,
  /// e^{-lambda L^i_k} underflows to 0 on a record with p > 0, where
  /// expm1(lambda (L + w_i + delta_i c_i)) overflows to +inf: the product
  /// must be +inf, as in Algorithm 1, and never 0 * inf = NaN.
  lost_factor_underflow,
};

/// Replays the evaluator's probability recurrence over Algorithm 1's
/// tables and reports whether `schedule` under `lambda` shows `pattern`.
bool shows_pattern(const TaskGraph& graph, const Schedule& schedule, double lambda,
                   PassPattern pattern) {
  if (pattern == PassPattern::any) return true;
  const std::size_t n = graph.task_count();
  std::vector<double> work(n);
  std::vector<double> ckpt(n);
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = schedule.order[i];
    work[i] = graph.weight(v);
    ckpt[i] = schedule.checkpointed[v] ? graph.ckpt_cost(v) : 0.0;
  }
  std::vector<double> sum_prob(n);
  double elapsed = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum_prob[i] = std::exp(-lambda * elapsed);
    elapsed += work[i] + ckpt[i];
  }
  bool underflow = false;
  bool factor_underflow = false;
  std::vector<std::set<double>> lost_values(n);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double base = std::clamp(1.0 - sum_prob[k + 1], 0.0, 1.0);
    if (base == 0.0) continue;
    const LostWorkTable table = find_lost_work_reference(graph, schedule, k);
    double span = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lost = table.reexecuted_weight[i] + table.recovered_cost[i];
      const double q = std::exp(-lambda * span);
      const double p = q * base;
      underflow = underflow || (q > 0.0 && p == 0.0);
      if (p > 0.0) {
        sum_prob[i] += p;
        if (lost != 0.0) lost_values[i].insert(lost);
        factor_underflow = factor_underflow || (lost != 0.0 && std::exp(-lambda * lost) == 0.0);
      }
      span += lost + work[i] + ckpt[i];
    }
  }
  if (pattern == PassPattern::probability_underflow) return underflow;
  if (pattern == PassPattern::lost_factor_underflow) return factor_underflow;
  return std::any_of(lost_values.begin(), lost_values.end(),
                     [](const std::set<double>& values) { return values.size() >= 3; });
}

void expect_evaluators_agree(const TaskGraph& graph, const FailureModel& model,
                             const Schedule& schedule, EvalMath math = EvalMath::exact) {
  EvaluatorWorkspace ws;
  const double optimized =
      ScheduleEvaluator(graph, model).evaluate(schedule, ws, math).expected_makespan;
  const double reference = evaluate_reference(graph, model, schedule);
  if (std::isinf(reference)) {
    EXPECT_EQ(reference, optimized) << "both must overflow Eq. (1) alike, math="
                                    << to_string(math);
    return;
  }
  assert_rel_near(reference, optimized, 1e-9,
                  math == EvalMath::exact ? "exact vs Algorithm 1" : "fast vs Algorithm 1");
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
  double weight_cv = 0.6;
  PassPattern pattern = PassPattern::any;
};

class EvaluatorDifferential : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(EvaluatorDifferential, OptimizedMatchesAlgorithmOne) {
  const DifferentialCase& param = GetParam();
  TaskGraph graph = make_layered_random({.task_count = param.tasks,
                                         .layer_count = param.layers,
                                         .edge_probability = 0.35,
                                         .mean_weight = 15.0,
                                         .weight_cv = param.weight_cv,
                                         .seed = param.seed});
  graph.apply_cost_model(CostModel::proportional(0.15));
  const FailureModel model(param.lambda, param.downtime);
  Rng rng(param.seed ^ 0xabcdef);
  bool pattern_seen = false;
  for (int rep = 0; rep < 3; ++rep) {
    const Schedule schedule = random_schedule(graph, rng, param.ckpt_probability);
    for (const EvalMath math : {EvalMath::exact, EvalMath::fast}) {
      expect_evaluators_agree(graph, model, schedule, math);
    }
    pattern_seen = pattern_seen || shows_pattern(graph, schedule, param.lambda, param.pattern);
  }
  EXPECT_TRUE(pattern_seen) << "no schedule of this row exercises its pass pattern";
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
  // Two layers: each task of the second one loses more of its inputs at
  // every later failure position, so its L^i_k keeps changing.
  cases.push_back({41, 30, 2, 1e-2, 1.0, 0.3, 0.6, PassPattern::lost_work_changes});
  // Strongly skewed weights: a near-zero task makes P(Z^{k+1}_k) tiny, and
  // its pass then reaches spans whose q is positive but p is not.
  cases.push_back({40, 80, 6, 0.5, 1.0, 0.3, 3.0, PassPattern::probability_underflow});
  // Skewed weights at lambda = 1: e^{-lambda L} underflows while expm1
  // overflows, and Eq. (1) is +inf.
  for (const std::uint64_t skewed_seed : {40, 45, 48}) {
    cases.push_back({skewed_seed, 60, 6, 1.0, 1.0, 0.3, 3.0, PassPattern::lost_factor_underflow});
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
  double weight_cv = 0.6;
  PassPattern pattern = PassPattern::any;
  std::size_t layers = 4;

  friend void PrintTo(const FamilyCase& c, std::ostream* os) { *os << c.name; }
};

class EvaluatorFamily : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(EvaluatorFamily, KCellCallIsBitIdenticalToKOneCellCalls) {
  const FamilyCase& param = GetParam();
  TaskGraph graph = make_layered_random({.task_count = param.tasks,
                                         .layer_count = std::min(param.tasks, param.layers),
                                         .edge_probability = 0.35,
                                         .mean_weight = 15.0,
                                         .weight_cv = param.weight_cv,
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
  bool pattern_seen = false;
  for (int rep = 0; rep < 3; ++rep) {
    const Schedule schedule = random_schedule(graph, rng, param.ckpt_probability);
    pattern_seen =
        pattern_seen || shows_pattern(graph, schedule, param.lambdas.front(), param.pattern);
    for (const EvalMath math : {EvalMath::exact, EvalMath::fast}) {
      std::vector<double> together(cells.size());
      family.expected_makespans(schedule, ws, together, /*validate=*/true, math);
      for (std::size_t c = 0; c < cells.size(); ++c) {
        const double alone =
            ScheduleEvaluator(graph, cells[c]).expected_makespan(schedule, ws, true, math);
        EXPECT_FALSE(std::isnan(alone))
            << param.name << " cell " << c << " math=" << to_string(math);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(together[c]), std::bit_cast<std::uint64_t>(alone))
            << param.name << " cell " << c << " lambda=" << cells[c].lambda()
            << " D=" << cells[c].downtime() << " math=" << to_string(math) << ": " << together[c]
            << " vs " << alone;
      }
    }
  }
  EXPECT_TRUE(pattern_seen) << param.name << ": no schedule exercises its pass pattern";
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
      // Factor reuse: L^i_k changes across passes (each lane recomputes
      // its own factors), and p underflows mid-pass while q > 0.
      {"lost_work_changes", 21, 30, {1e-2, 1e-3}, 0.3, 0.6, PassPattern::lost_work_changes},
      {"probability_underflow", 26, 80, {0.5, 0.3}, 0.3, 3.0,
       PassPattern::probability_underflow},
      // e^{-lambda L} underflows while expm1 overflows: +inf, never NaN.
      {"lost_factor_underflow", 40, 60, {1.0, 1e-2}, 0.3, 3.0,
       PassPattern::lost_factor_underflow, 6},
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

TEST(EvaluatorReference, LostWorkNeverDecreasesAcrossPasses) {
  // A later failure position loses a superset of the outputs and leaves
  // fewer tasks between the failure and i to recover shared inputs first,
  // so L^i_k is nondecreasing in k. No schedule therefore makes a
  // position's lost work return to an earlier value (A, B, A); the
  // evaluator's per-position factor memo hits whenever L^i_k did not grow
  // since the last pass that scored it, and the lost_work_changes rows
  // above force the growth.
  Rng rng(77);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    TaskGraph graph = make_layered_random({.task_count = 24,
                                           .layer_count = 2 + seed % 5,
                                           .edge_probability = 0.2 + 0.06 * static_cast<double>(seed),
                                           .mean_weight = 15.0,
                                           .weight_cv = 0.6,
                                           .seed = seed});
    graph.apply_cost_model(CostModel::proportional(0.15));
    const Schedule schedule = random_schedule(graph, rng, 0.1 * static_cast<double>(seed % 8));
    const std::size_t n = graph.task_count();
    std::vector<double> previous(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      const LostWorkTable table = find_lost_work_reference(graph, schedule, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const double lost = table.reexecuted_weight[i] + table.recovered_cost[i];
        EXPECT_GE(lost, previous[i]) << "seed " << seed << " position " << i << " pass " << k;
        previous[i] = lost;
      }
    }
  }
}

TEST(EvaluatorWorkspaceReuse, MatchesAFreshWorkspaceAcrossSchedulesGraphsAndLambdas) {
  // The lanes memoize lost-work factors by position and L alone, so a
  // factor surviving from an earlier call would be wrong for another
  // lambda or another graph with the same L. Both graphs have the same
  // size, so no buffer is reallocated between the calls.
  const auto make_graph = [](std::uint64_t seed) {
    TaskGraph graph = make_layered_random({.task_count = 40,
                                           .layer_count = 5,
                                           .edge_probability = 0.35,
                                           .mean_weight = 15.0,
                                           .weight_cv = 0.6,
                                           .seed = seed});
    graph.apply_cost_model(CostModel::proportional(0.15));
    return graph;
  };
  const TaskGraph graph_x = make_graph(31);
  const TaskGraph graph_y = make_graph(32);
  Rng rng(33);
  const Schedule x = random_schedule(graph_x, rng, 0.3);
  const Schedule y = random_schedule(graph_y, rng, 0.3);
  struct Step {
    const TaskGraph* graph;
    const Schedule* schedule;
    double lambda;
  };
  const Step steps[] = {
      {&graph_x, &x, 4e-3}, {&graph_y, &y, 4e-3}, {&graph_x, &x, 1e-2}, {&graph_x, &x, 4e-3}};
  for (const EvalMath math : {EvalMath::exact, EvalMath::fast}) {
    EvaluatorWorkspace reused;
    for (std::size_t s = 0; s < std::size(steps); ++s) {
      const ScheduleEvaluator evaluator(*steps[s].graph, FailureModel(steps[s].lambda, 2.0));
      EvaluatorWorkspace fresh;
      const double expected = evaluator.expected_makespan(*steps[s].schedule, fresh, true, math);
      const double actual = evaluator.expected_makespan(*steps[s].schedule, reused, true, math);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(actual), std::bit_cast<std::uint64_t>(expected))
          << "step " << s << " math=" << to_string(math) << ": " << actual << " vs " << expected;
    }
  }
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
