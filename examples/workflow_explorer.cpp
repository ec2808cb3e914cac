// Interactive-grade CLI over the whole library: generate any of the four
// Pegasus-like workflows (or load one from a .wf file), run the 14
// heuristics, report the ranking, optionally validate the winner with
// Monte-Carlo simulation, and export artifacts (.wf / .dot).
//
//   $ ./workflow_explorer --workflow cybershake --tasks 300
//   $ ./workflow_explorer --load my.wf --lambda 2e-3 --simulate
#include <algorithm>
#include <fstream>
#include <iostream>

#include "core/evaluator.hpp"
#include "dag/dot.hpp"
#include "engine/engine.hpp"
#include "heuristics/heuristic.hpp"
#include "sim/trial_runner.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "workflows/generator.hpp"
#include "workflows/io.hpp"

using namespace fpsched;

namespace {

WorkflowKind parse_kind(const std::string& name) {
  for (const WorkflowKind kind : all_workflow_kinds()) {
    if (to_string(kind) == name) return kind;
  }
  throw InvalidArgument("unknown workflow '" + name +
                        "' (expected Montage, Ligo, CyberShake or Genome)");
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Explore DAG-ChkptSched heuristics on Pegasus-like workflows.");
  cli.add_option("workflow", "Montage", "Montage | Ligo | CyberShake | Genome");
  cli.add_option("tasks", "150", "number of tasks to generate");
  cli.add_option("seed", "1", "generator seed");
  cli.add_option("lambda", "-1", "failure rate; -1 picks the paper's value per workflow");
  cli.add_option("downtime", "0", "downtime per failure (s)");
  cli.add_option("ckpt-factor", "0.1", "proportional checkpoint cost factor");
  cli.add_option("ckpt-const", "-1", "constant checkpoint cost (s); overrides ckpt-factor");
  cli.add_option("load", "", "load a .wf workflow file instead of generating");
  cli.add_option("save", "", "write the workflow to this .wf file");
  cli.add_option("dot", "", "write the DAG (with winner's checkpoints) to this .dot file");
  cli.add_option("stride", "1", "N-sweep stride (1 = exhaustive, as in the paper)");
  cli.add_option("threads", "0", "cores to compute on (0 = all, 1 = serial)");
  cli.add_option("trials", "20000", "Monte-Carlo trials when --simulate is given");
  cli.add_flag("simulate", "validate the winning schedule with the fault simulator");
  try {
    if (!cli.parse(argc, argv)) return 0;
    // Validate numeric options up front, before any generation work.
    const std::size_t stride = cli.get_count("stride", 1);
    const engine::ExperimentEngine eng({.threads = cli.get_count("threads")});

    // --- Obtain the workflow. -----------------------------------------
    double lambda = cli.get_double("lambda");
    TaskGraph graph = [&] {
      if (const std::string path = cli.get_string("load"); !path.empty()) {
        return load_workflow_file(path);
      }
      const WorkflowKind kind = parse_kind(cli.get_string("workflow"));
      if (lambda <= 0.0) lambda = paper_lambda(kind);
      GeneratorConfig config;
      config.task_count = cli.get_count("tasks", 1);
      config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
      const double constant = cli.get_double("ckpt-const");
      config.cost_model = constant >= 0.0 ? CostModel::constant(constant)
                                          : CostModel::proportional(cli.get_double("ckpt-factor"));
      return generate_workflow(kind, config);
    }();
    if (lambda <= 0.0) lambda = 1e-3;
    const FailureModel model(lambda, cli.get_double("downtime"));

    std::cout << "Workflow: " << graph.task_count() << " tasks, " << graph.dag().edge_count()
              << " dependencies, T_inf = " << graph.total_weight()
              << " s, average weight = " << graph.average_weight() << " s\n";
    std::cout << "Platform: lambda = " << model.lambda() << "/s (MTBF " << model.mtbf()
              << " s), downtime " << model.downtime() << " s\n\n";

    // --- Run all heuristics (sharded across the engine's workers). -----
    const ScheduleEvaluator evaluator(graph, model);
    HeuristicOptions options;
    options.sweep.stride = stride;
    std::vector<HeuristicResult> results =
        eng.run_heuristics(evaluator, all_heuristics(), options);
    std::sort(results.begin(), results.end(), [](const auto& a, const auto& b) {
      return a.evaluation.expected_makespan < b.evaluation.expected_makespan;
    });

    Table table({"rank", "heuristic", "E[makespan] (s)", "T/T_inf", "ckpts", "best N"});
    for (std::size_t rank = 0; rank < results.size(); ++rank) {
      const HeuristicResult& r = results[rank];
      table.row()
          .cell(rank + 1)
          .cell(r.spec.name())
          .cell(r.evaluation.expected_makespan, 1)
          .cell(r.evaluation.ratio, 4)
          .cell(r.schedule.checkpoint_count())
          .cell(r.best_budget);
    }
    table.print(std::cout);

    const HeuristicResult& winner = results.front();

    // --- Optional artifacts. --------------------------------------------
    if (const std::string path = cli.get_string("save"); !path.empty()) {
      save_workflow_file(path, graph);
      std::cout << "\nworkflow written to " << path << "\n";
    }
    if (const std::string path = cli.get_string("dot"); !path.empty()) {
      std::ofstream os(path);
      DotOptions dot;
      dot.checkpointed = winner.schedule.checkpointed;
      write_dot(os, graph.dag(), dot);
      std::cout << "DAG written to " << path << " (winner's checkpoints shaded)\n";
    }

    // --- Optional Monte-Carlo validation. --------------------------------
    if (cli.get_flag("simulate")) {
      const FaultSimulator simulator(graph, model, winner.schedule);
      const MonteCarloSummary mc = run_trials(
          simulator, {.trials = cli.get_count("trials", 1), .seed = 99, .pool = eng.pool()});
      std::cout << "\nMonte-Carlo check of " << winner.spec.name() << ": "
                << mc.mean_makespan() << " +/- " << mc.ci95() << " s vs analytic "
                << winner.evaluation.expected_makespan << " s -> "
                << (mc.consistent_with(winner.evaluation.expected_makespan) ? "consistent"
                                                                            : "INCONSISTENT")
                << "\n";
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
