// Checkpoint placement strategies from Section 5 of the paper.
//
// CkptNvr / CkptAlws are the baselines. CkptW / CkptC / CkptD checkpoint
// the top-N tasks by, respectively, decreasing weight, increasing
// checkpoint cost, and decreasing outweight (sum of successor weights).
// CkptPer mimics periodic checkpointing: on the fault-free timeline of the
// linearization, it checkpoints the task completing earliest after
// x * W / N for x = 1..N-1, W = total weight.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "workflows/task_graph.hpp"

namespace fpsched {

enum class CkptStrategy : std::uint8_t {
  never,        // CkptNvr
  always,       // CkptAlws
  by_weight,    // CkptW
  by_cost,      // CkptC
  by_outweight, // CkptD
  periodic,     // CkptPer
};

/// Paper names: "CkptNvr", "CkptAlws", "CkptW", "CkptC", "CkptD", "CkptPer".
std::string to_string(CkptStrategy strategy);

std::span<const CkptStrategy> all_ckpt_strategies();

/// True for the strategies parameterized by a checkpoint budget N
/// (by_weight / by_cost / by_outweight / periodic).
bool is_budgeted(CkptStrategy strategy);

/// The budget-independent part of place_checkpoints, computed once per
/// (graph, order, strategy): CkptW/C/D rank every task once, so each
/// budget's flags are a prefix of the ranking. A budget sweep builds one
/// ranking and places every candidate from it. Keeps references to
/// `graph` and `order`, which must outlive it.
class CheckpointRanking {
 public:
  CheckpointRanking(const TaskGraph& graph, std::span<const VertexId> order,
                    CkptStrategy strategy);

  CkptStrategy strategy() const { return strategy_; }

  /// Writes the flags of `budget` into `flags` (resized to the task
  /// count); identical to place_checkpoints(graph, order, strategy,
  /// budget).
  void place(std::size_t budget, std::vector<std::uint8_t>& flags) const;

 private:
  const TaskGraph* graph_;
  std::span<const VertexId> order_;
  CkptStrategy strategy_;
  /// Sorting strategies only: vertex ids, best first (ties by ascending id).
  std::vector<VertexId> ranked_;
};

/// Computes the checkpoint flags (indexed by vertex id) for the strategy.
/// `order` is the linearization (needed by `periodic`; ignored by the
/// sorting strategies, which rank all tasks globally as in the paper).
/// `budget` is N for budgeted strategies and ignored otherwise. For
/// `periodic`, the number of checkpoints taken is at most budget - 1 (the
/// paper places marks at x*W/N, x = 1..N-1). A sorting strategy with
/// budget < n selects its top tasks without ranking the rest, so a sweep
/// over many budgets should build one CheckpointRanking instead.
std::vector<std::uint8_t> place_checkpoints(const TaskGraph& graph,
                                            std::span<const VertexId> order,
                                            CkptStrategy strategy, std::size_t budget);

/// Convenience: full schedule from order + strategy + budget.
Schedule make_heuristic_schedule(const TaskGraph& graph, std::vector<VertexId> order,
                                 CkptStrategy strategy, std::size_t budget);

}  // namespace fpsched
