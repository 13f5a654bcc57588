#include "analysis/certificate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <regex>
#include <set>
#include <sstream>

#include "analysis/witness.hpp"
#include "fault/churn.hpp"
#include "fault/incremental.hpp"
#include "routing/collect.hpp"
#include "routing/dfsssp.hpp"
#include "routing/dump.hpp"
#include "routing/minhop.hpp"
#include "topology/generators.hpp"

namespace dfsssp {
namespace {

// The checker names the offending (source switch, destination terminal)
// pair; names are formatted only when a path is rejected.
bool names_a_pair(const std::string& error) {
  return std::regex_search(error, std::regex("path sw[0-9]+ -> t[0-9]+ "));
}

Topology routed_random(RouteResponse& out) {
  Rng rng(7);
  Topology topo = make_random(32, 4, 80, 8, rng);
  out = DfssspRouter().route(RouteRequest(topo));
  return topo;
}

// Reference maker: every layer's dependency set from the extracted paths,
// deduplicated in a std::set, then the same canonical min-heap Kahn.
CertificateResult reference_certificate(const Network& net,
                                        const RoutingTable& table) {
  const PathSet paths = collect_paths(net, table);
  const std::vector<Layer> layer = collect_layers(net, table, paths);
  Layer num_layers = 1;
  for (Layer l : layer) num_layers = std::max(num_layers, Layer(l + 1));
  std::vector<std::set<std::pair<ChannelId, ChannelId>>> deps(num_layers);
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    auto seq = paths.channels(p);
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      deps[layer[p]].emplace(seq[i], seq[i + 1]);
    }
  }
  CertificateResult result;
  std::vector<std::vector<ChannelId>> orders(num_layers);
  for (Layer l = 0; l < num_layers; ++l) {
    std::map<ChannelId, std::uint32_t> indegree;  // the present channels
    std::map<ChannelId, std::vector<ChannelId>> succ;
    for (const auto& [u, v] : deps[l]) {
      indegree[u];
      ++indegree[v];
      succ[u].push_back(v);
    }
    std::priority_queue<ChannelId, std::vector<ChannelId>,
                        std::greater<ChannelId>>
        ready;
    for (const auto& [c, d] : indegree) {
      if (d == 0) ready.push(c);
    }
    while (!ready.empty()) {
      const ChannelId u = ready.top();
      ready.pop();
      orders[l].push_back(u);
      for (ChannelId v : succ[u]) {
        if (--indegree[v] == 0) ready.push(v);
      }
    }
    if (orders[l].size() < indegree.size()) {
      result.cyclic_layer = l;
      return result;
    }
  }
  result.ok = true;
  result.cert.num_layers = std::max(num_layers, table.num_layers());
  result.cert.order = std::move(orders);
  result.cert.order.resize(result.cert.num_layers);
  return result;
}

void expect_matches_reference(const Network& net, const RoutingTable& table) {
  const CertificateResult want = reference_certificate(net, table);
  const CertificateResult got = make_certificate(net, table);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.cyclic_layer, want.cyclic_layer);
  EXPECT_EQ(got.cert.num_layers, want.cert.num_layers);
  EXPECT_EQ(got.cert.order, want.cert.order);
}

// A random fabric with two links and one switch down, repaired in place.
Topology degraded_random(RouteResponse& out) {
  Rng rng(11);
  Topology topo = make_random(24, 4, 60, 8, rng);
  IncrementalDfsssp inc;
  out = inc.route(RouteRequest(topo));
  ChurnEngine churn(topo);
  const NodeId sw = topo.net.switch_by_index(5);
  std::vector<FaultEvent> events;
  const NodeId first = topo.net.switch_by_index(0);
  for (ChannelId c : topo.net.out_switch_channels(first)) {
    if (events.size() < 2) events.push_back({FaultKind::kLinkDown, c});
  }
  events.push_back({FaultKind::kSwitchDown, kInvalidChannel, sw});
  for (const FaultEvent& ev : events) {
    const ChurnDelta delta = churn.apply(ev);
    if (delta.applied) out = inc.repair(RouteRequest(topo), delta);
  }
  return topo;
}

// Splits every layer round-robin into `ways` layers: a subset of an
// acyclic layer's paths is acyclic too, so the table stays deadlock-free.
void spread_layers(const Network& net, RoutingTable& table, Layer ways) {
  std::vector<std::uint32_t> placed(table.num_layers(), 0);
  for (NodeId sw : net.switches()) {
    for (NodeId t : net.terminals()) {
      if (net.switch_of(t) == sw) continue;
      const Layer l = table.layer(sw, t);
      table.set_layer(sw, t, Layer(l * ways + placed[l]++ % ways));
    }
  }
  table.set_num_layers(Layer(table.num_layers() * ways));
}

// The first hops of a path of at least two hops: a switch `via` the path
// enters and leaves before reaching `t`'s switch.
struct Detour {
  NodeId src = kInvalidNode, t = kInvalidNode, via = kInvalidNode;
  ChannelId first_hop = kInvalidChannel;
};

Detour find_detour(const Network& net, const RoutingTable& table) {
  for (NodeId sw : net.switches()) {
    for (NodeId t : net.terminals()) {
      if (net.switch_of(t) == sw || table.path_hops(net, sw, t) < 2) continue;
      const ChannelId c = table.next(sw, t);
      return {sw, t, net.channel(c).dst, c};
    }
  }
  return {};
}

TEST(Certificate, RoundTripAcceptsDfssspRouting) {
  RouteResponse out;
  Topology topo = routed_random(out);
  ASSERT_TRUE(out.ok);

  CertificateResult cert = make_certificate(topo.net, out.table);
  ASSERT_TRUE(cert.ok);

  std::ostringstream os;
  write_certificate(topo.net, cert.cert, os);
  std::istringstream is(os.str());
  Certificate loaded = read_certificate(topo.net, is);

  CertCheckResult check = check_certificate(topo.net, out.table, loaded);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.paths_checked, 0u);
  EXPECT_GT(check.deps_checked, 0u);
}

TEST(Certificate, ReversedLayerOrderRejected) {
  RouteResponse out;
  Topology topo = routed_random(out);
  ASSERT_TRUE(out.ok);
  CertificateResult cert = make_certificate(topo.net, out.table);
  ASSERT_TRUE(cert.ok);

  // Reversing a layer's order violates every dependency that layer has
  // (a mere swap of two entries can still be a different valid topological
  // order, which the checker rightly accepts).
  auto busiest = std::max_element(
      cert.cert.order.begin(), cert.cert.order.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  ASSERT_GE(busiest->size(), 2u);
  std::reverse(busiest->begin(), busiest->end());
  CertCheckResult check = check_certificate(topo.net, out.table, cert.cert);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("violates the topological order"),
            std::string::npos)
      << check.error;
  EXPECT_TRUE(names_a_pair(check.error)) << check.error;
}

TEST(Certificate, MissingChannelRejected) {
  RouteResponse out;
  Topology topo = routed_random(out);
  ASSERT_TRUE(out.ok);
  CertificateResult cert = make_certificate(topo.net, out.table);
  ASSERT_TRUE(cert.ok);

  auto busiest = std::max_element(
      cert.cert.order.begin(), cert.cert.order.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  ASSERT_FALSE(busiest->empty());
  busiest->erase(busiest->begin());
  CertCheckResult check = check_certificate(topo.net, out.table, cert.cert);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("is missing from the order"), std::string::npos)
      << check.error;
  EXPECT_TRUE(names_a_pair(check.error)) << check.error;
}

TEST(Certificate, WrongLayerCountRejected) {
  RouteResponse out;
  Topology topo = routed_random(out);
  ASSERT_TRUE(out.ok);
  CertificateResult cert = make_certificate(topo.net, out.table);
  ASSERT_TRUE(cert.ok);

  cert.cert.num_layers = static_cast<Layer>(cert.cert.num_layers + 1);
  cert.cert.order.emplace_back();
  CertCheckResult check = check_certificate(topo.net, out.table, cert.cert);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("layer"), std::string::npos) << check.error;
}

TEST(Certificate, TruncatedTextRejected) {
  RouteResponse out;
  Topology topo = routed_random(out);
  ASSERT_TRUE(out.ok);
  CertificateResult cert = make_certificate(topo.net, out.table);
  ASSERT_TRUE(cert.ok);

  std::ostringstream os;
  write_certificate(topo.net, cert.cert, os);
  const std::string text = os.str();
  // Cut mid-file: channel lines are missing and `end` never arrives.
  std::istringstream is(text.substr(0, text.size() / 2));
  EXPECT_THROW(read_certificate(topo.net, is), std::runtime_error);
  // Unknown node names must be rejected too.
  std::istringstream bad("cert 1\nlayers 1\nlayer 0 1\nc bogus sw0 0\nend\n");
  EXPECT_THROW(read_certificate(topo.net, bad), std::runtime_error);
}

TEST(Certificate, ThreadCountInvariant) {
  Topology topo = make_tsubame();
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);

  std::string serial;
  for (unsigned threads : {1u, 2u, 8u}) {
    CertificateResult cert =
        make_certificate(topo.net, out.table, ExecContext(threads));
    ASSERT_TRUE(cert.ok);
    std::ostringstream os;
    write_certificate(topo.net, cert.cert, os);
    if (threads == 1) serial = os.str();
    EXPECT_EQ(os.str(), serial) << threads << " threads";
    EXPECT_TRUE(check_certificate(topo.net, out.table, cert.cert).ok);
  }
}

TEST(Certificate, MatchesPathSetReferenceOnRandomFabrics) {
  for (LayeringMode mode : {LayeringMode::kOnline, LayeringMode::kOffline}) {
    for (std::uint64_t seed : {3u, 4u}) {
      Rng rng(seed);
      Topology topo = make_random(48, 4, 64, 8, rng);
      DfssspOptions opts;
      opts.mode = mode;
      opts.balance = false;
      opts.max_layers = 16;
      RouteResponse out = DfssspRouter(opts).route(RouteRequest(topo));
      ASSERT_TRUE(out.ok) << out.error;
      ASSERT_GE(out.table.num_layers(), 3);
      expect_matches_reference(topo.net, out.table);
    }
  }
}

TEST(Certificate, MatchesPathSetReferenceOnRepairedFabric) {
  RouteResponse out;
  Topology topo = degraded_random(out);
  ASSERT_TRUE(out.ok) << out.error;
  ASSERT_GT(topo.net.num_dead_channels(), 0u);
  ASSERT_LT(topo.net.num_alive_switches(), topo.net.num_switches());
  expect_matches_reference(topo.net, out.table);
  EXPECT_TRUE(make_certificate(topo.net, out.table).ok);
}

TEST(Certificate, MatchesPathSetReferenceOverManyLayers) {
  RouteResponse out;
  Topology topo = routed_random(out);
  ASSERT_TRUE(out.ok);
  const Layer ways = Layer((24 + out.table.num_layers() - 1) /
                           out.table.num_layers());
  spread_layers(topo.net, out.table, ways);
  ASSERT_GE(out.table.num_layers(), 20);
  expect_matches_reference(topo.net, out.table);

  const CertificateResult cert = make_certificate(topo.net, out.table);
  ASSERT_TRUE(cert.ok);
  const CertCheckResult check =
      check_certificate(topo.net, out.table, cert.cert);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(Certificate, MatchesPathSetReferenceOnCyclicRing) {
  Topology topo = make_ring(6, 2);
  RouteResponse out = MinHopRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  expect_matches_reference(topo.net, out.table);
  EXPECT_FALSE(make_certificate(topo.net, out.table).ok);
}

TEST(Certificate, BrokenWalksThrowAndAreRejected) {
  RouteResponse out;
  Topology topo = routed_random(out);
  ASSERT_TRUE(out.ok);
  const Network& net = topo.net;
  const CertificateResult cert = make_certificate(net, out.table);
  ASSERT_TRUE(cert.ok);
  const Detour d = find_detour(net, out.table);
  ASSERT_NE(d.via, kInvalidNode);

  // A channel that leaves neither `via` nor enters a switch from it, and
  // the ejection channel of a terminal on `via` (not `t`'s switch).
  ChannelId foreign = kInvalidChannel;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    if (net.is_switch_channel(c) && net.channel(c).src != d.via) foreign = c;
  }
  ChannelId into_terminal = kInvalidChannel;
  for (NodeId t : net.terminals()) {
    if (net.switch_of(t) == d.via) into_terminal = net.ejection_channel(t);
  }
  ASSERT_NE(foreign, kInvalidChannel);
  ASSERT_NE(into_terminal, kInvalidChannel);

  const std::pair<const char*, ChannelId> breaks[] = {
      {"dead end", kInvalidChannel},
      {"two-switch loop", net.channel(d.first_hop).reverse},
      {"foreign channel", foreign},
      {"hop into a terminal", into_terminal},
  };
  for (const auto& [what, next] : breaks) {
    RoutingTable broken = out.table;
    broken.set_next(d.via, d.t, next);
    EXPECT_THROW(make_certificate(net, broken), std::runtime_error) << what;
    const CertCheckResult check = check_certificate(net, broken, cert.cert);
    EXPECT_FALSE(check.ok) << what;
    EXPECT_NE(check.error.find("broken forwarding path"), std::string::npos)
        << what << ": " << check.error;
    EXPECT_TRUE(names_a_pair(check.error)) << what << ": " << check.error;
  }
}

TEST(Certificate, CheckerCountsEveryPathAndDependency) {
  RouteResponse out;
  Topology topo = degraded_random(out);
  ASSERT_TRUE(out.ok) << out.error;
  const PathSet paths = collect_paths(topo.net, out.table);
  std::uint64_t deps = 0;
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    deps += paths.channels(p).size() - 1;
  }
  const CertificateResult cert = make_certificate(topo.net, out.table);
  ASSERT_TRUE(cert.ok);
  const CertCheckResult check =
      check_certificate(topo.net, out.table, cert.cert);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.paths_checked, paths.size());
  EXPECT_EQ(check.deps_checked, deps);
}

// An in-memory certificate can name any channel id; the checker must
// refuse one the network does not have before indexing by it.
TEST(Certificate, OutOfRangeChannelIdRejected) {
  RouteResponse out;
  Topology topo = routed_random(out);
  ASSERT_TRUE(out.ok);
  CertificateResult cert = make_certificate(topo.net, out.table);
  ASSERT_TRUE(cert.ok);
  const ChannelId bogus =
      static_cast<ChannelId>(topo.net.num_channels() + 1000);
  cert.cert.order.back().push_back(bogus);
  const CertCheckResult check =
      check_certificate(topo.net, out.table, cert.cert);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("names channel id " + std::to_string(bogus)),
            std::string::npos)
      << check.error;
}

TEST(Certificate, FlippedPathLayerRejected) {
  RouteResponse out;
  Topology topo = routed_random(out);
  ASSERT_TRUE(out.ok);
  ASSERT_GE(out.table.num_layers(), 2);
  CertificateResult cert = make_certificate(topo.net, out.table);
  ASSERT_TRUE(cert.ok);

  // Move one multi-hop path to another (declared) layer: its dependencies
  // were never certified there, so the checker must refuse.
  bool flipped = false;
  for (NodeId sw : topo.net.switches()) {
    if (flipped || topo.net.terminals_on(sw) == 0) continue;
    for (NodeId t : topo.net.terminals()) {
      if (topo.net.switch_of(t) == sw) continue;
      if (out.table.path_hops(topo.net, sw, t) < 2) continue;
      const Layer l = out.table.layer(sw, t);
      out.table.set_layer(sw, t, l == 0 ? Layer{1} : Layer{0});
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped);
  EXPECT_FALSE(check_certificate(topo.net, out.table, cert.cert).ok);
}

TEST(Certificate, CyclicLayerReportedWithWitness) {
  // A bidirectional ring routed minimally without virtual layers is the
  // paper's canonical deadlocking configuration (Figure 2).
  Topology topo = make_ring(6, 2);
  RouteResponse out = MinHopRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  ASSERT_FALSE(routing_is_deadlock_free(topo.net, out.table));

  CertificateResult cert = make_certificate(topo.net, out.table);
  EXPECT_FALSE(cert.ok);
  EXPECT_NE(cert.cyclic_layer, kInvalidLayer);

  DeadlockWitness witness = extract_witness(topo.net, out.table);
  ASSERT_FALSE(witness.empty());
  EXPECT_EQ(witness.layer, cert.cyclic_layer);
  // The edges must close a cycle, and every edge must carry at least one
  // concrete inducing path.
  for (std::size_t i = 0; i < witness.edges.size(); ++i) {
    const WitnessEdge& e = witness.edges[i];
    EXPECT_EQ(e.to, witness.edges[(i + 1) % witness.edges.size()].from);
    EXPECT_GE(e.inducing_paths, 1u);
    ASSERT_FALSE(e.examples.empty());
    EXPECT_LE(e.examples.size(), e.inducing_paths);
    // The layer's members are collected in ascending path order, and the
    // CDG lists an edge's paths in member order.
    EXPECT_TRUE(std::is_sorted(
        e.examples.begin(), e.examples.end(),
        [](const WitnessPathRef& a, const WitnessPathRef& b) {
          return a.path < b.path;
        }));
  }

  std::ostringstream os;
  write_witness(topo.net, witness, os);
  EXPECT_NE(os.str().find("deadlock witness"), std::string::npos);
}

TEST(Certificate, DeadlockFreeRoutingHasEmptyWitness) {
  RouteResponse out;
  Topology topo = routed_random(out);
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(extract_witness(topo.net, out.table).empty());
}

}  // namespace
}  // namespace dfsssp
