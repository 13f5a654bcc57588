#include "topology/configs.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <set>
#include <stdexcept>

#include "common/rng.hpp"
#include "topology/generators.hpp"
#include "topology/io.hpp"
#include "topology/metrics.hpp"

namespace dfsssp {
namespace {

TEST(TopoConfigs, RegistryIsWellFormed) {
  const auto& configs = topology_configs();
  ASSERT_FALSE(configs.empty());
  std::set<std::string> names;
  for (const TopoConfig& cfg : configs) {
    EXPECT_FALSE(cfg.name.empty());
    EXPECT_FALSE(cfg.summary.empty());
    EXPECT_TRUE(static_cast<bool>(cfg.build));
    EXPECT_TRUE(names.insert(cfg.name).second) << "duplicate " << cfg.name;
  }
}

TEST(TopoConfigs, LookupAndBuild) {
  ASSERT_NE(find_topology_config("torus-8-8"), nullptr);
  EXPECT_EQ(find_topology_config("no-such-config"), nullptr);
  Topology topo = build_topology_config("torus-8-8");
  EXPECT_EQ(topo.net.num_switches(), 64U);
  EXPECT_EQ(topo.meta.family, "torus");
  topo.net.validate();
  EXPECT_TRUE(topo.net.connected());
}

TEST(TopoConfigs, UnknownNameThrowsWithListing) {
  try {
    build_topology_config("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("torus-8-8"), std::string::npos);
  }
}

// Each family spec builds exactly what its generator builds from the same
// numbers: one row per family.
TEST(TopoConfigs, FamilySpecsMatchTheirGenerators) {
  const std::uint32_t dims2[] = {4, 4};
  const std::uint32_t dims3[] = {3, 4, 2};
  const std::uint32_t ms[] = {4, 4};
  const std::uint32_t ws[] = {2, 2};
  struct Row {
    const char* spec;
    std::function<Topology()> direct;
  };
  const Row rows[] = {
      {"ring:6:2", [] { return make_ring(6, 2); }},
      {"torus:4x4:2", [&] { return make_torus(dims2, 2, true); }},
      {"mesh:3x4x2:1", [&] { return make_torus(dims3, 1, false); }},
      {"hypercube:4:2", [] { return make_hypercube(4, 2); }},
      {"kary-tree:4:2", [] { return make_kary_ntree(4, 2); }},
      {"xgft:4x4:2x2", [&] { return make_xgft(2, ms, ws); }},
      {"kautz:2:3:24", [] { return make_kautz(2, 3, 24); }},
      {"dragonfly:4:2:2:9", [] { return make_dragonfly(4, 2, 2, 9); }},
      {"hyperx:4x4:2", [&] { return make_hyperx(dims2, 2); }},
      {"complete:8:2", [] { return make_fully_connected(8, 2); }},
      {"random:32:4:80:8:7",
       [] {
         Rng rng(0xDFC0'0000ULL + 7);
         return make_random(32, 4, 80, 8, rng);
       }},
  };
  for (const Row& row : rows) {
    const Topology spec = build_topology_config(row.spec);
    const Topology direct = row.direct();
    EXPECT_EQ(spec.name, direct.name) << row.spec;
    EXPECT_EQ(structure_hash(spec.net), structure_hash(direct.net))
        << row.spec;
  }
}

// Field counts, whole numbers, bounds, dims lists, unknown families and
// missing files: each error is an invalid_argument that names the spec.
TEST(TopoConfigs, MalformedSpecsThrowNamingTheSpec) {
  for (const char* spec :
       {"ring:6", "ring:6:2:1", "ring:6:x", "ring:-1:2", "ring:4x:2",
        "ring:2:2", "kary-tree:65:2", "kary-tree:4:6", "kary-tree:0:2",
        "torus:4xx4:2", "torus:4x4x:2", "blob:4:2", "no-such-file.dfel"}) {
    try {
      build_topology_config(spec);
      ADD_FAILURE() << spec << " built";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
          << e.what();
    }
  }
}

// A spec that is neither a config nor a family spec is read as a file, its
// format sniffed from the content.
TEST(TopoConfigs, FileSpecIsReadAndSniffed) {
  const std::string dir = ::testing::TempDir();
  const std::string dfel = dir + "spec_ring.dfel";
  const std::string netfile = dir + "spec_ring.net";
  const Topology ring = make_ring(5, 2);
  write_edgelist(ring.net, dfel);
  write_netfile(ring.net, netfile);
  for (const std::string& path : {dfel, netfile}) {
    const Topology topo = build_topology_config(path);
    EXPECT_EQ(topo.name, path);
    EXPECT_EQ(topo.net.num_switches(), 5U) << path;
    EXPECT_EQ(topo.net.num_terminals(), 10U) << path;
    EXPECT_EQ(topo.net.num_channels(), ring.net.num_channels()) << path;
  }
  // DFEL round-trips the numbering bit for bit; a netfile need not.
  EXPECT_EQ(structure_hash(build_topology_config(dfel).net),
            structure_hash(ring.net));
  EXPECT_EQ(build_topology_config(dfel).meta.family, "edgelist");
  EXPECT_EQ(build_topology_config(netfile).meta.family, "netfile");
  std::remove(dfel.c_str());
  std::remove(netfile.c_str());
}

TEST(TopoConfigs, TableOneSizes) {
  const auto quick = table_one(false);
  const auto full = table_one(true);
  ASSERT_FALSE(quick.empty());
  EXPECT_GT(full.size(), quick.size());
  for (const TableOneRow& row : quick) {
    EXPECT_EQ(row.xgft_ms.size(), row.xgft_ws.size());
    EXPECT_GT(row.nominal_endpoints, 0U);
  }
}

TEST(TopoConfigs, BenchKeysResolve) {
  // Keys the benches iterate over must stay registered.
  for (const char* key :
       {"dragonfly-a4p4h2g9", "hyperx-8-8", "hyperx-4-4-4", "complete-16",
        "kautz-3-3", "torus-8-8", "torus-12-12", "torus-6-6-6", "torus-16-16",
        "xgft-1024", "kautz-1024", "tree-1024", "dragonfly-mid", "torus-mid",
        "xgft-mid", "random-regular-mid", "warehouse-dragonfly"}) {
    EXPECT_NE(find_topology_config(key), nullptr) << key;
  }
}

// Small variant of the warehouse config: destination sharding attaches
// `dests` terminals with an even stride instead of p per switch.
TEST(TopoConfigs, WarehouseDragonflySharded) {
  Topology topo = make_warehouse_dragonfly(4, 2, 9, 8);
  EXPECT_EQ(topo.net.num_switches(), 36U);  // a * g
  EXPECT_EQ(topo.net.num_terminals(), 8U);
  topo.net.validate();
  EXPECT_TRUE(topo.net.connected());
  // Sharded terminals land on distinct, spread-out switches.
  std::set<NodeId> attach;
  for (std::size_t t = 0; t < topo.net.num_terminals(); ++t) {
    attach.insert(topo.net.switch_of(topo.net.terminal_by_index(
        static_cast<std::uint32_t>(t))));
  }
  EXPECT_EQ(attach.size(), 8U);
  // Structure is independent of thread count.
  Topology threaded = make_warehouse_dragonfly(4, 2, 9, 8, ExecContext(4));
  EXPECT_EQ(structure_hash(threaded.net), structure_hash(topo.net));
  // Warehouse path skips the name side table by default.
  EXPECT_FALSE(topo.net.has_custom_name(0));
  EXPECT_EQ(topo.net.node_name(0), "sw0");
}

}  // namespace
}  // namespace dfsssp
