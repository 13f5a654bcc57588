// Independent deadlock-freedom verification.
//
// Deliberately implemented without reusing CycleFinder's resumable search:
// a straightforward iterative DFS per layer, so tests can cross-check the
// production machinery against a dumb oracle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cdg/paths.hpp"
#include "common/parallel.hpp"
#include "common/types.hpp"

namespace dfsssp {

/// True when the directed graph induced by the given paths is acyclic.
/// Nodes are channels; edges are consecutive channel pairs of each path.
bool paths_are_acyclic(const PathSet& paths,
                       std::span<const std::uint32_t> members,
                       std::uint32_t num_channels);

/// True when every layer's CDG is acyclic for the given assignment —
/// the paper's (sufficient) deadlock-freedom condition. Layers are
/// independent, so each layer's CDG is built and searched on its own
/// thread under `exec`.
bool layering_is_deadlock_free(const PathSet& paths,
                               std::span<const Layer> layer,
                               std::uint32_t num_channels,
                               const ExecContext& exec = {});

}  // namespace dfsssp
