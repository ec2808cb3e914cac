#include "heuristics/checkpoint_strategy.hpp"

#include <algorithm>
#include <functional>
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

/// Task ids under the total order (key, then ascending id), which is the
/// historic stable ranking by key. The first min(top, n) entries are the
/// `top` best; only when top >= n is the whole vector in order.
template <typename Better>
std::vector<VertexId> rank_by(std::span<const double> key, Better better, std::size_t top) {
  std::vector<VertexId> ranked(key.size());
  std::iota(ranked.begin(), ranked.end(), 0);
  const auto before = [key, better](VertexId a, VertexId b) {
    return key[a] != key[b] ? better(key[a], key[b]) : a < b;
  };
  if (top < ranked.size()) {
    std::nth_element(ranked.begin(), ranked.begin() + top, ranked.end(), before);
  } else {
    std::sort(ranked.begin(), ranked.end(), before);
  }
  return ranked;
}

/// rank_by for the sorting strategies CkptW / CkptC / CkptD; empty for
/// the others.
std::vector<VertexId> rank_tasks(const TaskGraph& graph, CkptStrategy strategy, std::size_t top) {
  switch (strategy) {
    case CkptStrategy::by_weight:  // longest computations first
      return rank_by(graph.weights_view(), std::greater<>(), top);
    case CkptStrategy::by_cost:  // cheapest checkpoints first
      return rank_by(graph.ckpt_costs_view(), std::less<>(), top);
    case CkptStrategy::by_outweight:  // heaviest successor sets first
      return rank_by(direct_outweights(graph.dag(), graph.weights_view()), std::greater<>(), top);
    default: return {};
  }
}

}  // namespace

CheckpointRanking::CheckpointRanking(const TaskGraph& graph, std::span<const VertexId> order,
                                     CkptStrategy strategy)
    : graph_(&graph), order_(order), strategy_(strategy) {
  const std::size_t n = graph.task_count();
  switch (strategy) {
    case CkptStrategy::never:
    case CkptStrategy::always: break;
    case CkptStrategy::by_weight:
    case CkptStrategy::by_cost:
    case CkptStrategy::by_outweight: ranked_ = rank_tasks(graph, strategy, n); break;
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
  if (budget < graph.task_count()) {
    // One budget needs the set of its top tasks, not their order: select
    // them in O(n) instead of ranking all n.
    const std::vector<VertexId> ranked = rank_tasks(graph, strategy, budget);
    if (!ranked.empty()) {
      flags.assign(ranked.size(), 0);
      for (std::size_t i = 0; i < budget; ++i) flags[ranked[i]] = 1;
      return flags;
    }
  }
  CheckpointRanking(graph, order, strategy).place(budget, flags);
  return flags;
}

Schedule make_heuristic_schedule(const TaskGraph& graph, std::vector<VertexId> order,
                                 CkptStrategy strategy, std::size_t budget) {
  std::vector<std::uint8_t> flags = place_checkpoints(graph, order, strategy, budget);
  return Schedule(std::move(order), std::move(flags));
}

}  // namespace fpsched
