#include "topology/configs.hpp"

#include <stdexcept>
#include <utility>

#include "common/narrow.hpp"

#include "topology/chunked.hpp"
#include "topology/generators.hpp"

namespace dfsssp {

std::vector<TableOneRow> table_one(bool full) {
  std::vector<TableOneRow> rows = {
      {64, {6}, {3}, 2, 2, 6, 2},
      {128, {10}, {5}, 2, 2, 10, 2},
      {256, {16}, {8}, 2, 3, 16, 2},
      {512, {6, 6}, {3, 3}, 3, 3, 6, 3},
      {1024, {10, 10}, {5, 5}, 3, 3, 10, 3},
      {2048, {14, 14}, {7, 7}, 4, 3, 14, 3},
  };
  if (full) rows.push_back({4096, {18, 18}, {9, 9}, 6, 3, 18, 3});
  return rows;
}

namespace {

/// Dragonfly with `dests` terminals spread evenly instead of p per switch.
class SparseDragonfly : public ChunkedDragonfly {
 public:
  SparseDragonfly(std::uint32_t a, std::uint32_t h, std::uint32_t g,
                  std::uint32_t dests)
      : ChunkedDragonfly(a, /*p=*/0, h, g), dests_(dests) {
    if (dests == 0) {
      throw std::invalid_argument("warehouse dragonfly: dests >= 1");
    }
  }

  std::string topo_name() const override {
    return ChunkedDragonfly::topo_name() + "-d" + std::to_string(dests_);
  }

  GenLayout layout() const override {
    GenLayout lay = ChunkedDragonfly::layout();
    lay.num_terminals = dests_;
    lay.terminal_chunks = 1;
    return lay;
  }

  void emit_terminals(std::uint64_t chunk,
                      std::vector<std::uint32_t>& out) const override {
    (void)chunk;
    const std::uint64_t num_switches =
        static_cast<std::uint64_t>(a_) * g_;
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, num_switches / dests_);
    for (std::uint32_t t = 0; t < dests_; ++t) {
      out.push_back(checked_u32((t * stride) % num_switches, "hot dest"));
    }
  }

 private:
  std::uint32_t dests_;
};

void add(std::vector<TopoConfig>& out, std::string name, std::string summary,
         std::function<Topology(const ExecContext&)> build) {
  out.push_back({std::move(name), std::move(summary), std::move(build)});
}

std::vector<TopoConfig> make_registry() {
  std::vector<TopoConfig> cfgs;

  // Table I families (paper Section V). Registry keys index by nominal
  // endpoint count; the built topology keeps its generator name.
  for (const TableOneRow& row : table_one(/*full=*/true)) {
    const std::string n = std::to_string(row.nominal_endpoints);
    add(cfgs, "xgft-" + n, "Table I XGFT, ~" + n + " endpoints",
        [row](const ExecContext&) {
          return make_xgft(checked_u32(row.xgft_ms.size(), "xgft height"),
                           row.xgft_ms, row.xgft_ws, 0);
        });
    add(cfgs, "kautz-" + n, "Table I Kautz graph, " + n + " endpoints",
        [row](const ExecContext&) {
          return make_kautz(row.kautz_b, row.kautz_n, row.nominal_endpoints);
        });
    add(cfgs, "tree-" + n, "Table I k-ary n-tree, ~" + n + " endpoints",
        [row](const ExecContext&) {
          return make_kary_ntree(row.tree_k, row.tree_n);
        });
  }

  // Real-system stand-ins (Figures 4/8/10).
  add(cfgs, "odin", "Odin stand-in: 128 nodes, one 144-port switch",
      [](const ExecContext&) { return make_odin(); });
  add(cfgs, "chic", "CHiC stand-in: 550 nodes, leaf/core",
      [](const ExecContext&) { return make_chic(); });
  add(cfgs, "deimos", "Deimos stand-in: 724 nodes, 3-director chain",
      [](const ExecContext&) { return make_deimos(); });
  add(cfgs, "tsubame", "Tsubame stand-in: 1430 nodes, 6 edges + 2 cores",
      [](const ExecContext&) { return make_tsubame(); });
  add(cfgs, "juropa", "JUROPA stand-in: 3288 nodes, 137 leaves x 12 cores",
      [](const ExecContext&) { return make_juropa(); });
  add(cfgs, "ranger", "Ranger stand-in: 3936 nodes, irregular NEM uplinks",
      [](const ExecContext&) { return make_ranger(); });

  // Modern-topology zoo (extension bench).
  add(cfgs, "dragonfly-a4p4h2g9", "dragonfly(4,4,2,9): 36 switches",
      [](const ExecContext&) { return make_dragonfly(4, 4, 2, 9); });
  add(cfgs, "hyperx-8-8", "HyperX 8x8, 4 terminals/switch",
      [](const ExecContext&) {
        const std::uint32_t dims[2] = {8, 8};
        return make_hyperx(dims, 4);
      });
  add(cfgs, "hyperx-4-4-4", "HyperX 4x4x4, 2 terminals/switch",
      [](const ExecContext&) {
        const std::uint32_t dims[3] = {4, 4, 4};
        return make_hyperx(dims, 2);
      });
  add(cfgs, "complete-16", "complete graph, 16 switches x 8 terminals",
      [](const ExecContext&) { return make_fully_connected(16, 8); });
  add(cfgs, "kautz-3-3", "Kautz K(3,3), 512 endpoints",
      [](const ExecContext&) { return make_kautz(3, 3, 512); });

  // Torus sweep (extension bench).
  for (const auto& dims : std::vector<std::vector<std::uint32_t>>{
           {8, 8}, {12, 12}, {6, 6, 6}, {16, 16}}) {
    std::string key = "torus";
    for (std::uint32_t d : dims) {
      key += '-';
      key += std::to_string(d);
    }
    add(cfgs, key, "torus, 2 terminals/switch",
        [dims](const ExecContext&) { return make_torus(dims, 2, true); });
  }

  // Mid-size chunked configs: the gen_scale bench roster. Sized so quick
  // runs finish in seconds while the link streams are big enough to time.
  add(cfgs, "dragonfly-mid",
      "chunked dragonfly(32,1,16,513): 16416 switches, ~394k links",
      [](const ExecContext& exec) {
        return generate_chunked(ChunkedDragonfly(32, 1, 16, 513), exec);
      });
  add(cfgs, "torus-mid", "chunked torus 32x32x16: 16384 switches",
      [](const ExecContext& exec) {
        return generate_chunked(ChunkedTorus({32, 32, 16}, 1, true), exec);
      });
  add(cfgs, "xgft-mid", "chunked XGFT(2;32,32;16,16): 1792 switches",
      [](const ExecContext& exec) {
        return generate_chunked(ChunkedXgft(2, {32, 32}, {16, 16}, 1), exec);
      });
  add(cfgs, "random-regular-mid",
      "chunked random-regular 16384 switches, degree 8",
      [](const ExecContext& exec) {
        return generate_chunked(
            ChunkedRandomRegular(16384, 8, 1, 0xC0FFEE), exec);
      });

  // Warehouse scale: the full-tier end-to-end bench fabric.
  add(cfgs, "warehouse-dragonfly",
      "chunked dragonfly(50,40,2001): 100050 switches, 64 sharded dests",
      [](const ExecContext& exec) {
        return make_warehouse_dragonfly(50, 40, 2001, 64, exec);
      });

  return cfgs;
}

}  // namespace

const std::vector<TopoConfig>& topology_configs() {
  static const std::vector<TopoConfig> registry = make_registry();
  return registry;
}

const TopoConfig* find_topology_config(const std::string& name) {
  for (const TopoConfig& cfg : topology_configs()) {
    if (cfg.name == name) return &cfg;
  }
  return nullptr;
}

Topology build_topology_config(const std::string& name,
                               const ExecContext& exec) {
  const TopoConfig* cfg = find_topology_config(name);
  if (cfg == nullptr) {
    std::string known;
    for (const TopoConfig& c : topology_configs()) {
      known += known.empty() ? c.name : ", " + c.name;
    }
    throw std::invalid_argument("unknown topology config '" + name +
                                "' (known: " + known + ")");
  }
  return cfg->build(exec);
}

Topology make_warehouse_dragonfly(std::uint32_t a, std::uint32_t h,
                                  std::uint32_t g, std::uint32_t dests,
                                  const ExecContext& exec,
                                  bool record_names) {
  SparseDragonfly gen(a, h, g, dests);
  ChunkedOptions opts;
  opts.record_names = record_names;
  return generate_chunked(gen, exec, opts);
}

}  // namespace dfsssp
