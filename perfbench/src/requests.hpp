// The serve-mixed request sequence: a seed-generated list of small
// POST /runs requests of which about two thirds repeat or overlap
// earlier ones, plus the warm/cold classification of each request.
//
// The sequence comes in blocks of six, in seeded order: two fresh
// requests (the next shape of a fixed cycle with a new workflow seed, so
// every scenario is new and every seed sees the same cost mix), two
// exact repeats of earlier requests, and two overlaps: a size-axis
// request that drops one size of an earlier request (every scenario seen
// before) or adds the smallest other size to it (some scenarios new). A
// request is warm when every one of its scenarios appeared in an earlier
// request of the sequence, cold otherwise.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/experiment.hpp"

namespace perfbench {

struct ServeRequest {
  enum class Origin : std::uint8_t { fresh, repeat, overlap };

  std::string experiment;          // fig2 | fig3 | fig7 | downtime
  std::vector<std::size_t> sizes;  // size-axis experiments (fig2, fig3)
  std::size_t tasks = 0;           // fixed-size experiments (fig7, downtime)
  std::uint64_t seed = 0;          // workflow generation seed
  Origin origin = Origin::fresh;

  /// The request as POST /runs query parameters.
  std::map<std::string, std::string> params() const;
  /// params() as a URL query string ("experiment=fig2&sizes=25,50&...").
  std::string query() const;
};

/// Sweep stride of every serve-mixed request.
inline constexpr std::size_t kServeStride = 8;

/// `count` requests generated from `seed`; the same seed gives the same
/// sequence.
std::vector<ServeRequest> make_request_sequence(std::uint64_t seed, std::size_t count);

/// The options the service derives from the request (parsed exactly as
/// POST /runs parses them).
fpsched::engine::FigureOptions request_options(const ServeRequest& request);

/// Content hashes (the result-cache key hashes) of every scenario of the
/// request, in flatten-plan order.
std::vector<std::uint64_t> scenario_hashes(const ServeRequest& request,
                                           const fpsched::engine::ExperimentRegistry& registry);

/// warm[i] is true when every scenario hash of request i appeared in a
/// request j < i.
std::vector<bool> classify_warm(const std::vector<std::vector<std::uint64_t>>& hashes);

}  // namespace perfbench
