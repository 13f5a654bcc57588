// Named topology configurations shared by benches, dftopo and tests, and
// the one resolver of a topology spec (build_topology_config).
//
// The per-figure generator parameter tables used to be duplicated across
// bench_util.hpp and the bench roster; they live here once. A config is a
// registry key, a one-line summary, and a build function taking the
// ExecContext (chunked configs generate in parallel under it; sequential
// ones ignore it). The registry key is stable tooling vocabulary ("dftopo
// generate xgft-1024"); the built Topology keeps its generator-assigned
// name, which is what bench tables print.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "topology/topology.hpp"

namespace dfsssp {

struct TopoConfig {
  std::string name;
  std::string summary;
  std::function<Topology(const ExecContext&)> build;
};

/// All registered configs, in registry order (Table I rows, real systems,
/// modern zoo, tori, chunked mid-size, warehouse).
const std::vector<TopoConfig>& topology_configs();

/// Nullptr when `name` is not registered.
const TopoConfig* find_topology_config(const std::string& name);

/// The one resolver of a topology spec, the string every tool, bench and
/// example takes as --topo and a journal header records. Tried in order:
///   1. a registered config name ("deimos");
///   2. a family spec "<family>:<fields>" ("kary-tree:4:2", "torus:4x4:2",
///      "random:32:4:80:8:7"; the forms are in docs/verification.md), each
///      field a whole decimal number and <dims> an 'x'-separated list;
///   3. an existing topology file, read by read_topology_path.
/// So a name beats a file of the same name, and a family spec a file whose
/// name looks like one ("./deimos" reads the file). Throws
/// std::invalid_argument naming the spec (and, when nothing matched,
/// listing the known configs and family forms); a file the reader rejects
/// throws what the reader throws.
Topology build_topology_config(const std::string& spec,
                               const ExecContext& exec = {});

/// Table I of the paper, as data: per nominal endpoint count the XGFT
/// parameters, the Kautz parameters, and the k-ary n-tree parameters.
struct TableOneRow {
  std::uint32_t nominal_endpoints;
  std::vector<std::uint32_t> xgft_ms, xgft_ws;
  std::uint32_t kautz_b, kautz_n;
  std::uint32_t tree_k, tree_n;
};

std::vector<TableOneRow> table_one(bool full);

/// Warehouse-scale chunked dragonfly(a, h, g) with `dests` terminals spread
/// evenly over the switches instead of p per switch — destination sharding:
/// routing cost scales with `dests` while the fabric keeps its full size.
Topology make_warehouse_dragonfly(std::uint32_t a, std::uint32_t h,
                                  std::uint32_t g, std::uint32_t dests,
                                  const ExecContext& exec = {},
                                  bool record_names = false);

}  // namespace dfsssp
