#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "routing/dfsssp.hpp"
#include "routing/collect.hpp"
#include "routing/verify.hpp"
#include "topology/generators.hpp"
#include "topology/io.hpp"

namespace dfsssp {
namespace {

// A small fabric the way `ibnetdiscover` prints it: two 24-port switches,
// three HCAs (one dual-ported), every link mentioned from both sides.
constexpr const char* kSample = R"(#
# Topology file: generated on Thu Jul  2 12:00:00 2026
#
vendid=0x2c9
devid=0xb924
sysimgguid=0x2c9020048d8f3
switchguid=0x2c9020048d8f0(2c9020048d8f0)
Switch  24 "S-0002c9020048d8f0"   # "sw-left ISR9024" base port 0 lid 2 lmc 0
[1]  "H-0002c90200aaaaaa"[1](2c90200aaaaab)  # "node01 HCA-1" lid 4 4xDDR
[2]  "H-0002c90200bbbbbb"[1](2c90200bbbbbc)  # "node02 HCA-1" lid 6 4xDDR
[13] "S-0002c902004c0001"[13]  # "sw-right ISR9024" lid 3 4xDDR
[14] "S-0002c902004c0001"[14]  # "sw-right ISR9024" lid 3 4xDDR

switchguid=0x2c902004c0001(2c902004c0001)
Switch  24 "S-0002c902004c0001"   # "sw-right ISR9024" base port 0 lid 3 lmc 0
[1]  "H-0002c90200cccccc"[1](2c90200cccccd)  # "node03 HCA-1" lid 8 4xDDR
[5]  "H-0002c90200cccccc"[2](2c90200ccccce)  # "node03 HCA-2" lid 9 4xDDR
[13] "S-0002c9020048d8f0"[13]  # "sw-left ISR9024" lid 2 4xDDR
[14] "S-0002c9020048d8f0"[14]  # "sw-left ISR9024" lid 2 4xDDR

caguid=0x2c90200aaaaaa
Ca  1 "H-0002c90200aaaaaa"  # "node01 HCA-1"
[1](2c90200aaaaab)  "S-0002c9020048d8f0"[1]  # lid 4 lmc 0 "sw-left" lid 2 4xDDR

caguid=0x2c90200bbbbbb
Ca  1 "H-0002c90200bbbbbb"  # "node02 HCA-1"
[1](2c90200bbbbbc)  "S-0002c9020048d8f0"[2]  # lid 6 lmc 0 "sw-left" lid 2 4xDDR

caguid=0x2c90200cccccc
Ca  2 "H-0002c90200cccccc"  # "node03 HCA-1"
[1](2c90200cccccd)  "S-0002c902004c0001"[1]  # lid 8 lmc 0 "sw-right" lid 3 4xDDR
[2](2c90200ccccce)  "S-0002c902004c0001"[5]  # lid 9 lmc 0 "sw-right" lid 3 4xDDR
)";

TEST(IbNetDiscover, ParsesStructure) {
  std::istringstream in(kSample);
  Topology topo = read_ibnetdiscover(in);
  EXPECT_EQ(topo.net.num_switches(), 2U);
  // Three HCAs; node03's second rail is dropped (single-port model).
  EXPECT_EQ(topo.net.num_terminals(), 3U);
  // Two parallel inter-switch links, each mentioned twice -> deduped to 2.
  std::size_t inter = 0;
  for (ChannelId c = 0; c < topo.net.num_channels(); ++c) {
    if (topo.net.is_switch_channel(c) && c < topo.net.channel(c).reverse) {
      ++inter;
    }
  }
  EXPECT_EQ(inter, 2U);
  EXPECT_TRUE(topo.net.connected());
}

TEST(IbNetDiscover, UsesCommentNames) {
  std::istringstream in(kSample);
  Topology topo = read_ibnetdiscover(in);
  bool found_sw = false, found_node = false;
  for (NodeId sw : topo.net.switches()) {
    if (topo.net.node_name(sw).rfind("sw-left", 0) == 0) found_sw = true;
  }
  for (NodeId t : topo.net.terminals()) {
    if (topo.net.node_name(t).rfind("node01", 0) == 0) found_node = true;
  }
  EXPECT_TRUE(found_sw);
  EXPECT_TRUE(found_node);
}

TEST(IbNetDiscover, LoadedFabricRoutes) {
  std::istringstream in(kSample);
  Topology topo = read_ibnetdiscover(in);
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(verify_routing(topo.net, out.table).connected());
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, out.table));
}

TEST(IbNetDiscover, RejectsEmptyOrSwitchless) {
  std::istringstream empty("# nothing here\n");
  EXPECT_THROW(read_ibnetdiscover(empty), std::runtime_error);
  std::istringstream only_ca("Ca 1 \"H-01\"\n[1](x) \"H-02\"[1]\n");
  EXPECT_THROW(read_ibnetdiscover(only_ca), std::runtime_error);
}

TEST(IbNetDiscover, PortLineOutsideBlockFails) {
  std::istringstream bad("[1] \"S-01\"[2]\n");
  EXPECT_THROW(read_ibnetdiscover(bad), std::runtime_error);
}

// read_topology_path reads each file format back by its content: the DFEL
// that `dftopo generate` writes by default, a netfile, and this sample,
// whose '#' header and vendid= line are neither.
TEST(TopologyPath, SniffsEachFormat) {
  const std::string dir = ::testing::TempDir();
  const std::string dfel = dir + "sniff_ring.dfel";
  const std::string netfile = dir + "sniff_ring.net";
  const std::string dump = dir + "sniff_sample.ibnd";
  const Topology ring = make_ring(5, 2);
  write_edgelist(ring.net, dfel);
  write_netfile(ring.net, netfile);
  std::ofstream(dump) << kSample;

  struct Case {
    std::string path, family;
    std::size_t switches, terminals;
  };
  for (const Case& c : {Case{dfel, "edgelist", 5, 10},
                        Case{netfile, "netfile", 5, 10},
                        Case{dump, "ibnetdiscover", 2, 3}}) {
    const Topology topo = read_topology_path(c.path);
    EXPECT_EQ(topo.meta.family, c.family) << c.path;
    EXPECT_EQ(topo.net.num_switches(), c.switches) << c.path;
    EXPECT_EQ(topo.net.num_terminals(), c.terminals) << c.path;
  }
  // A missing file throws.
  EXPECT_THROW(read_topology_path(dir + "sniff_missing.net"),
               std::runtime_error);
  for (const std::string& path : {dfel, netfile, dump}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace dfsssp
