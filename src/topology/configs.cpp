#include "topology/configs.hpp"

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/cli.hpp"
#include "common/narrow.hpp"
#include "common/rng.hpp"

#include "topology/chunked.hpp"
#include "topology/generators.hpp"
#include "topology/io.hpp"

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

/// "a:b::c" -> {"a", "b", "", "c"}: an empty field stays, to be refused.
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out(1);
  for (const char c : s) {
    if (c == sep) {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

/// A family spec ("ring:6:2") read against its family's form
/// ("ring:<switches>:<terminals>"): field i is named by part i of the form.
class Fields {
 public:
  Fields(const std::string& spec, const char* form)
      : fields_(split(spec, ':')), names_(split(form, ':')) {
    if (fields_.size() != names_.size()) {
      throw std::invalid_argument("want " + std::string(form));
    }
  }

  /// Field i (1 = the first after the family) as a whole decimal number in
  /// [min, max].
  std::uint32_t num(std::size_t i, std::uint32_t min = 0,
                    std::uint32_t max = UINT32_MAX) const {
    return whole(fields_[i], names_[i], min, max);
  }

  /// Field i as an 'x'-separated list of whole numbers ("4x4").
  std::vector<std::uint32_t> dims(std::size_t i) const {
    std::vector<std::uint32_t> out;
    for (const std::string& d : split(fields_[i], 'x')) {
      out.push_back(whole(d, names_[i], 0, UINT32_MAX));
    }
    return out;
  }

 private:
  static std::uint32_t whole(const std::string& text, const std::string& name,
                             std::uint32_t min, std::uint32_t max) {
    const std::optional<std::uint64_t> v = parse_count(text, min, max);
    if (!v) {
      throw std::invalid_argument(
          name + " '" + text + "': expected a whole number from " +
          std::to_string(min) + " to " + std::to_string(max));
    }
    return checked_u32(*v, "topology spec field");
  }

  std::vector<std::string> fields_, names_;
};

/// A generator family: its spec form and the generator call.
struct Family {
  const char* form;
  Topology (*build)(const Fields&);
};

const Family kFamilies[] = {
    {"ring:<switches>:<terminals>",
     [](const Fields& f) { return make_ring(f.num(1), f.num(2)); }},
    {"torus:<dims>:<terminals>",
     [](const Fields& f) { return make_torus(f.dims(1), f.num(2), true); }},
    {"mesh:<dims>:<terminals>",
     [](const Fields& f) { return make_torus(f.dims(1), f.num(2), false); }},
    {"hypercube:<dimension>:<terminals>",
     [](const Fields& f) { return make_hypercube(f.num(1), f.num(2)); }},
    {"kary-tree:<k>:<n>",
     [](const Fields& f) {
       return make_kary_ntree(f.num(1, 1, 64), f.num(2, 1, 5));
     }},
    {"xgft:<m1>x...x<mh>:<w1>x...x<wh>",
     [](const Fields& f) {
       const std::vector<std::uint32_t> ms = f.dims(1);
       return make_xgft(checked_u32(ms.size(), "xgft height"), ms, f.dims(2));
     }},
    {"kautz:<b>:<n>:<terminals>",
     [](const Fields& f) { return make_kautz(f.num(1), f.num(2), f.num(3)); }},
    {"dragonfly:<a>:<p>:<h>:<g>",
     [](const Fields& f) {
       return make_dragonfly(f.num(1), f.num(2), f.num(3), f.num(4));
     }},
    {"hyperx:<dims>:<terminals>",
     [](const Fields& f) { return make_hyperx(f.dims(1), f.num(2)); }},
    {"complete:<switches>:<terminals>",
     [](const Fields& f) { return make_fully_connected(f.num(1), f.num(2)); }},
    // The seed is offset as dfcheck has always drawn it, so a random spec
    // names the same fabric in every version.
    {"random:<switches>:<terminals>:<links>:<ports>:<seed>",
     [](const Fields& f) {
       Rng rng(0xDFC0'0000ULL + f.num(5));
       return make_random(f.num(1), f.num(2), f.num(3), f.num(4), rng);
     }},
};

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

Topology build_topology_config(const std::string& spec,
                               const ExecContext& exec) {
  if (const TopoConfig* cfg = find_topology_config(spec)) {
    return cfg->build(exec);
  }
  // "ring:6:2" names the family "ring:"; a spec without ':' names none.
  const std::string family = spec.substr(0, spec.find(':') + 1);
  for (const Family& f : kFamilies) {
    if (family.empty() || !std::string_view(f.form).starts_with(family)) {
      continue;
    }
    try {
      return f.build(Fields(spec, f.form));
    } catch (const std::invalid_argument& e) {
      // Field errors and the generator's own argument errors.
      throw std::invalid_argument("topology spec '" + spec + "': " +
                                  e.what());
    }
  }
  std::error_code ec;
  if (std::filesystem::is_regular_file(spec, ec)) {
    return read_topology_path(spec);
  }
  std::string known;
  for (const TopoConfig& c : topology_configs()) {
    known += (known.empty() ? "" : ", ") + c.name;
  }
  known += "; families:";
  for (const Family& f : kFamilies) known += std::string(" ") + f.form;
  throw std::invalid_argument("unknown topology spec '" + spec +
                              "': not a config, a family spec or a file "
                              "(known: " + known + ")");
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
