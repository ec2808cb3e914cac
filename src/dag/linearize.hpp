// DAG linearization strategies from Section 5 of the paper.
//
// A linearization is a total order of the tasks respecting dependencies.
// The paper considers three: Depth First (DF), Breadth First (BF) and
// Random First (RF). DF and BF prioritize ready tasks by decreasing
// "outweight" — the sum of the weights of a task's successors — so that
// heavy subtrees are started early.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dag/graph.hpp"

namespace fpsched {

enum class LinearizeMethod : std::uint8_t {
  depth_first,
  breadth_first,
  random_first,
};

/// Which outweight definition drives the DF/BF priorities.
enum class OutweightMode : std::uint8_t {
  direct,       // sum of weights of immediate successors (paper's definition)
  descendants,  // sum of weights of all descendants (transitive variant)
};

struct LinearizeOptions {
  OutweightMode outweight = OutweightMode::direct;
  std::uint64_t seed = 42;  // only used by random_first

  /// Options fully determine a method's output on a fixed DAG, so equality
  /// is field-wise (used by the engine's instance cache key).
  bool operator==(const LinearizeOptions&) const = default;
};

/// Short display name: "DF", "BF", "RF".
std::string to_string(LinearizeMethod method);

/// All three methods in the paper's order.
std::span<const LinearizeMethod> all_linearize_methods();

/// Scratch arena for `linearize_into`. Buffers are resized on use and keep
/// their capacity across calls, so linearizing the same instance (or a
/// sweep of same-sized instances) repeatedly allocates nothing after the
/// first call. Holding one per worker (as the engine's instance cache
/// does) removes per-step container churn from the hot path.
struct LinearizeWorkspace {
  std::vector<double> priority;         // DF/BF outweight per vertex
  std::vector<std::uint32_t> remaining;  // open predecessor count per vertex
  std::vector<VertexId> ready;           // sources; then DF's wave stack, RF's pool
};

/// Produces a linearization of `dag` under the given strategy.
///
/// DF: among ready tasks, continue with the most recently enabled ones
/// (LIFO); newly enabled tasks of equal recency are taken by decreasing
/// priority. This makes progress toward sinks aggressively, the behavior
/// the paper argues for.
/// BF: FIFO over enabling "waves"; inside a wave, decreasing priority.
/// DF and BF break priority ties by ascending id, and sort each wave once
/// when it is enabled, so they run in O(n + e) time plus one sort per wave.
/// RF: uniformly random ready task, using options.seed.
std::vector<VertexId> linearize(const Dag& dag, std::span<const double> weights,
                                LinearizeMethod method, const LinearizeOptions& options = {});

/// Allocation-free variant: writes the order into `out` (resized to n)
/// using `ws` for every intermediate buffer. Output is identical to
/// `linearize` for every method, seed, and tie-break case.
void linearize_into(const Dag& dag, std::span<const double> weights, LinearizeMethod method,
                    const LinearizeOptions& options, LinearizeWorkspace& ws,
                    std::vector<VertexId>& out);

}  // namespace fpsched
