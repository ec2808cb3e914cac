// Shared CLI harness of the bench binaries — a thin adapter over the
// experiment registry in src/engine/.
//
// Every figure is registered declaratively in the engine
// (engine::ExperimentRegistry::global()) and run by name through
// fpsched_run; fpsched_merge parses the same options.
// parse_figure_options maps the shared CLI onto engine::FigureOptions.
// `--quick` shrinks the grid for smoke runs; the default reproduces the
// paper's full grid (sizes 50-700, exhaustive N-sweep). `--threads` is
// the number of cores (0 = all, 1 = serial); results are identical for
// any thread count.
#pragma once

#include <optional>

#include "engine/experiment.hpp"
#include "support/cli.hpp"

namespace fpsched::bench {

using engine::FigureOptions;
using engine::PanelSpec;

/// Registers the sweep-figure extras (`--tasks`, `--downtimes`) that
/// fig7/downtime/robustness consume and the other figures ignore; call
/// before parse_figure_options.
void add_sweep_options(CliParser& cli);

/// Registers `--trials` (Monte-Carlo trials per simulated cell, consumed
/// by the robustness experiment); call before parse_figure_options.
void add_trial_options(CliParser& cli);

/// Registers the shared options on `cli`, parses, and converts. Returns
/// nullopt when --help was requested. Rejects malformed values
/// (e.g. --stride 0) with a clear error; creates the --csv directory when
/// it does not exist yet (rejecting paths that exist as non-directories).
/// Reads `--tasks` / `--downtimes` only when the binary registered them
/// (add_sweep_options, or its own option of the same name).
std::optional<FigureOptions> parse_figure_options(CliParser& cli, int argc, const char* const* argv);

}  // namespace fpsched::bench
