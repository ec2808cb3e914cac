#include "requests.hpp"

#include <algorithm>
#include <unordered_set>

#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSizePool[] = {25, 50, 75, 100};

/// Fresh requests cycle through these shapes (with a new workflow seed
/// each time), so every seed sees the same mix of request costs.
struct Shape {
  const char* experiment;
  std::vector<std::size_t> sizes;
  std::size_t tasks;
};
const std::vector<Shape>& fresh_shapes() {
  static const std::vector<Shape> shapes{
      {"fig2", {25, 50}, 0}, {"fig7", {}, 25},   {"fig3", {50}, 0},     {"downtime", {}, 50},
      {"fig2", {75, 100}, 0}, {"fig7", {}, 50},  {"fig3", {25, 75}, 0}, {"downtime", {}, 25}};
  return shapes;
}

bool size_axis(const std::string& experiment) {
  return experiment == "fig2" || experiment == "fig3";
}

std::string join_sizes(const std::vector<std::size_t>& sizes) {
  std::string out;
  for (const std::size_t size : sizes) {
    if (!out.empty()) out += ',';
    out += std::to_string(size);
  }
  return out;
}

}  // namespace

std::map<std::string, std::string> ServeRequest::params() const {
  std::map<std::string, std::string> out{{"experiment", experiment},
                                         {"stride", std::to_string(kServeStride)},
                                         {"seed", std::to_string(seed)}};
  if (size_axis(experiment)) {
    out["sizes"] = join_sizes(sizes);
  } else {
    out["tasks"] = std::to_string(tasks);
  }
  return out;
}

std::string ServeRequest::query() const {
  std::string out;
  for (const auto& [key, value] : params()) {
    if (!out.empty()) out += '&';
    out += key + '=' + value;
  }
  return out;
}

std::vector<ServeRequest> make_request_sequence(std::uint64_t seed, std::size_t count) {
  fpsched::Rng rng(seed);
  std::vector<ServeRequest> sequence;
  sequence.reserve(count);
  std::vector<std::size_t> size_axis_requests;  // indices of fig2/fig3 requests
  std::vector<ServeRequest::Origin> block;       // origins of the current block of six
  std::size_t fresh_count = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (block.empty()) {
      // Two fresh, two repeats and two overlaps per block, in seeded order.
      block = {ServeRequest::Origin::fresh,  ServeRequest::Origin::fresh,
               ServeRequest::Origin::repeat, ServeRequest::Origin::repeat,
               ServeRequest::Origin::overlap, ServeRequest::Origin::overlap};
      rng.shuffle(block);
    }
    ServeRequest::Origin origin = block.back();
    block.pop_back();
    if ((origin == ServeRequest::Origin::repeat && sequence.empty()) ||
        (origin == ServeRequest::Origin::overlap && size_axis_requests.empty())) {
      origin = ServeRequest::Origin::fresh;
    }

    ServeRequest request;
    if (origin == ServeRequest::Origin::repeat) {
      request = sequence[rng.uniform_index(sequence.size())];
    } else if (origin == ServeRequest::Origin::overlap) {
      // Drop one size of a two-size request (every scenario seen before) or
      // add the smallest other size to a one-size request (some scenarios
      // new, at a cost that does not depend on the seed).
      request = sequence[size_axis_requests[rng.uniform_index(size_axis_requests.size())]];
      if (request.sizes.size() > 1) {
        request.sizes.erase(request.sizes.begin() +
                            static_cast<long>(rng.uniform_index(request.sizes.size())));
      } else {
        const std::size_t added = request.sizes.front() == kSizePool[0] ? kSizePool[1]
                                                                         : kSizePool[0];
        request.sizes.push_back(added);
        std::sort(request.sizes.begin(), request.sizes.end());
      }
    } else {
      const Shape& shape = fresh_shapes()[fresh_count % fresh_shapes().size()];
      request.experiment = shape.experiment;
      request.sizes = shape.sizes;
      request.tasks = shape.tasks;
      request.seed = seed * 100000 + fresh_count;
      ++fresh_count;
    }
    request.origin = origin;
    if (size_axis(request.experiment)) size_axis_requests.push_back(i);
    sequence.push_back(std::move(request));
  }
  return sequence;
}

fpsched::engine::FigureOptions request_options(const ServeRequest& request) {
  return fpsched::service::parse_job_request(request.params()).options;
}

std::vector<std::uint64_t> scenario_hashes(const ServeRequest& request,
                                           const fpsched::engine::ExperimentRegistry& registry) {
  const fpsched::service::JobRequest job = fpsched::service::parse_job_request(request.params());
  const fpsched::engine::FigurePlan plan = registry.find(job.experiment).build(job.options);
  std::vector<std::uint64_t> hashes;
  for (const fpsched::engine::PlannedScenario& planned : fpsched::engine::flatten_plan(plan)) {
    hashes.push_back(
        fpsched::service::ResultCacheKey::of(planned.spec, job.options.eval_math).hash);
  }
  return hashes;
}

std::vector<bool> classify_warm(const std::vector<std::vector<std::uint64_t>>& hashes) {
  std::unordered_set<std::uint64_t> seen;
  std::vector<bool> warm(hashes.size(), false);
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    const auto seen_before = [&](std::uint64_t hash) { return seen.count(hash) > 0; };
    warm[i] = !hashes[i].empty() && std::all_of(hashes[i].begin(), hashes[i].end(), seen_before);
    seen.insert(hashes[i].begin(), hashes[i].end());
  }
  return warm;
}

}  // namespace perfbench
