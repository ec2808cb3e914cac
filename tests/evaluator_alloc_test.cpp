// A budget sweep scores thousands of candidates per instance through one
// workspace each, so a warm evaluation must not touch the heap. This
// binary replaces the global operator new with a counting one, which is
// why the test lives alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/evaluator.hpp"
#include "dag/linearize.hpp"
#include "support/rng.hpp"
#include "workflows/synthetic.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace fpsched {
namespace {

TEST(EvaluatorAllocations, WarmEvaluationsAllocateNothing) {
  TaskGraph graph = make_layered_random({.task_count = 60,
                                         .layer_count = 6,
                                         .edge_probability = 0.35,
                                         .mean_weight = 15.0,
                                         .weight_cv = 0.6,
                                         .seed = 3});
  graph.apply_cost_model(CostModel::proportional(0.15));
  Schedule schedule = make_schedule(
      linearize(graph.dag(), graph.weights(), LinearizeMethod::random_first, {.seed = 4}));
  Rng rng(5);
  for (VertexId v = 0; v < graph.task_count(); ++v)
    schedule.checkpointed[v] = rng.bernoulli(0.3) ? 1 : 0;

  // Two lanes (lambdas), one of them with two downtimes, plus a one-cell
  // evaluator sharing the workspace, as a sweep's candidates do.
  const ScheduleEvaluator family(graph, {FailureModel(1e-3, 0.0), FailureModel(1e-3, 60.0),
                                         FailureModel(4e-3, 1.0)});
  const ScheduleEvaluator single(graph, FailureModel(2e-3, 0.0));
  EvaluatorWorkspace ws;
  std::vector<double> out(family.cells().size());
  for (const EvalMath math : {EvalMath::exact, EvalMath::fast}) {
    family.expected_makespans(schedule, ws, out, /*validate=*/false, math);  // warm-up
    const std::size_t before = g_allocations.load();
    for (int rep = 0; rep < 3; ++rep) {
      family.expected_makespans(schedule, ws, out, /*validate=*/false, math);
      single.expected_makespan(schedule, ws, /*validate=*/false, math);
    }
    EXPECT_EQ(g_allocations.load() - before, 0u) << to_string(math);
  }
}

}  // namespace
}  // namespace fpsched
