#include "analysis/certificate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <sstream>

#include "analysis/witness.hpp"
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
  RouteResponse out;
  Topology topo = routed_random(out);
  ASSERT_TRUE(out.ok);

  CertificateResult serial = make_certificate(topo.net, out.table,
                                              ExecContext::serial());
  CertificateResult threaded = make_certificate(topo.net, out.table,
                                                ExecContext(4));
  ASSERT_TRUE(serial.ok);
  ASSERT_TRUE(threaded.ok);

  std::ostringstream s1, s4;
  write_certificate(topo.net, serial.cert, s1);
  write_certificate(topo.net, threaded.cert, s4);
  EXPECT_EQ(s1.str(), s4.str());
  EXPECT_TRUE(check_certificate(topo.net, out.table, threaded.cert).ok);
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
