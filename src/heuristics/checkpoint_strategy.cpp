#include "heuristics/checkpoint_strategy.hpp"

#include <algorithm>
#include <numeric>

#include "dag/traversal.hpp"
#include "support/error.hpp"

namespace fpsched {

std::string to_string(CkptStrategy strategy) {
  switch (strategy) {
    case CkptStrategy::never: return "CkptNvr";
    case CkptStrategy::always: return "CkptAlws";
    case CkptStrategy::by_weight: return "CkptW";
    case CkptStrategy::by_cost: return "CkptC";
    case CkptStrategy::by_outweight: return "CkptD";
    case CkptStrategy::periodic: return "CkptPer";
  }
  return "?";
}

std::span<const CkptStrategy> all_ckpt_strategies() {
  static constexpr CkptStrategy kAll[] = {
      CkptStrategy::never,     CkptStrategy::always,      CkptStrategy::by_weight,
      CkptStrategy::by_cost,   CkptStrategy::by_outweight, CkptStrategy::periodic,
  };
  return kAll;
}

bool is_budgeted(CkptStrategy strategy) {
  switch (strategy) {
    case CkptStrategy::never:
    case CkptStrategy::always: return false;
    default: return true;
  }
}

namespace {

/// Vertex ids ordered by `better(a, b)` (strict weak order); stable on ids
/// for determinism.
template <typename Better>
std::vector<VertexId> rank_vertices(std::size_t n, Better better) {
  std::vector<VertexId> ranked(n);
  std::iota(ranked.begin(), ranked.end(), 0);
  std::stable_sort(ranked.begin(), ranked.end(), better);
  return ranked;
}

}  // namespace

CheckpointRanking::CheckpointRanking(const TaskGraph& graph, std::span<const VertexId> order,
                                     CkptStrategy strategy)
    : graph_(&graph), order_(order), strategy_(strategy) {
  const std::size_t n = graph.task_count();
  switch (strategy) {
    case CkptStrategy::never:
    case CkptStrategy::always: break;
    case CkptStrategy::by_weight: {
      const std::span<const double> weight = graph.weights_view();
      ranked_ = rank_vertices(n, [&](VertexId a, VertexId b) {
        return weight[a] > weight[b];  // longest computations first
      });
      break;
    }
    case CkptStrategy::by_cost: {
      const std::span<const double> cost = graph.ckpt_costs_view();
      ranked_ = rank_vertices(n, [&](VertexId a, VertexId b) {
        return cost[a] < cost[b];  // cheapest checkpoints first
      });
      break;
    }
    case CkptStrategy::by_outweight: {
      const std::vector<double> out = direct_outweights(graph.dag(), graph.weights_view());
      ranked_ = rank_vertices(n, [&](VertexId a, VertexId b) {
        return out[a] > out[b];  // heaviest successor sets first
      });
      break;
    }
    case CkptStrategy::periodic:
      ensure(order.size() == n, "periodic placement needs the linearization");
      break;
    default: throw InvalidArgument("unknown checkpoint strategy");
  }
}

void CheckpointRanking::place(std::size_t budget, std::vector<std::uint8_t>& flags) const {
  const std::size_t n = graph_->task_count();
  flags.assign(n, strategy_ == CkptStrategy::always ? 1 : 0);
  if (!ranked_.empty()) {
    for (std::size_t i = 0; i < std::min(budget, n); ++i) flags[ranked_[i]] = 1;
    return;
  }
  if (strategy_ != CkptStrategy::periodic) return;
  if (budget < 2 || n == 0) return;  // x = 1..N-1 is empty for N < 2
  const double total = graph_->total_weight();
  if (total <= 0.0) return;
  const double period = total / static_cast<double>(budget);
  double elapsed = 0.0;
  std::size_t next_mark = 1;
  for (const VertexId v : order_) {
    elapsed += graph_->weight(v);
    // This task is the first to complete after mark x * W / N.
    while (next_mark < budget && elapsed >= period * static_cast<double>(next_mark)) {
      flags[v] = 1;
      ++next_mark;
    }
  }
}

std::vector<std::uint8_t> place_checkpoints(const TaskGraph& graph,
                                            std::span<const VertexId> order,
                                            CkptStrategy strategy, std::size_t budget) {
  std::vector<std::uint8_t> flags;
  CheckpointRanking(graph, order, strategy).place(budget, flags);
  return flags;
}

Schedule make_heuristic_schedule(const TaskGraph& graph, std::vector<VertexId> order,
                                 CkptStrategy strategy, std::size_t budget) {
  std::vector<std::uint8_t> flags = place_checkpoints(graph, order, strategy, budget);
  return Schedule(std::move(order), std::move(flags));
}

}  // namespace fpsched
