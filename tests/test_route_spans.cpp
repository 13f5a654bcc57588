// Every engine's RoutingStats times are read from its phase spans: they
// are measured with no trace or profile session active, and under a
// profiling session each engine's span opens exactly once per route call.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/incremental.hpp"
#include "obs/trace.hpp"
#include "routing/registry.hpp"
#include "topology/generators.hpp"

namespace dfsssp {
namespace {

struct RouteSpans : ::testing::Test {
  void SetUp() override { obs::stop_profiling(); }
  void TearDown() override { obs::stop_profiling(); }
};

/// A fabric the engine accepts: fat-tree routing needs tree levels, every
/// other engine routes a 4x4 torus (DOR needs its coordinates).
Topology fabric_for(const std::string& key) {
  if (key == "fattree") return make_kary_ntree(4, 2);
  const std::uint32_t dims[2] = {4, 4};
  return make_torus(dims, 1, true);
}

/// Profile paths of the spans an engine's route() opens once per call.
std::vector<std::string> phase_spans(const std::string& key) {
  if (key == "sssp") return {"root;sssp/fill_planes"};
  if (key == "dfsssp") return {"root;sssp/fill_planes", "root;dfsssp/layering"};
  if (key == "dordateline") {
    return {"root;dordateline/route", "root;dordateline/route;dor/route"};
  }
  return {"root;" + key + "/route"};
}

std::map<std::string, std::uint64_t> invocations(const obs::Profile& p) {
  std::map<std::string, std::uint64_t> out;
  for (const obs::ProfileNode& n : p.nodes) out[n.path] = n.invocations;
  return out;
}

TEST_F(RouteSpans, StatsTimesNeedNoSession) {
  ASSERT_FALSE(obs::tracing_active());
  ASSERT_FALSE(obs::profiling_active());
  for (const routing::EngineInfo& e : routing::engine_roster()) {
    const Topology topo = fabric_for(e.name);
    const RouteResponse out =
        routing::make_router(e.name)->route(RouteRequest(topo));
    ASSERT_TRUE(out.ok) << e.name << ": " << out.error;
    EXPECT_GT(out.stats.route_seconds, 0.0) << e.name;
    if (e.layered) {
      EXPECT_GT(out.stats.layering_seconds, 0.0) << e.name;
    }
  }
}

TEST_F(RouteSpans, EachEngineSpanOpensOncePerRoute) {
  for (const routing::EngineInfo& e : routing::engine_roster()) {
    const Topology topo = fabric_for(e.name);
    const auto router = routing::make_router(e.name);
    obs::start_profiling();
    for (int call = 0; call < 2; ++call) {
      ASSERT_TRUE(router->route(RouteRequest(topo)).ok) << e.name;
    }
    const std::map<std::string, std::uint64_t> calls =
        invocations(obs::stop_profiling());
    for (const std::string& path : phase_spans(e.name)) {
      ASSERT_EQ(calls.count(path), 1U) << e.name << ": no " << path;
      EXPECT_EQ(calls.at(path), 2U) << e.name << ": " << path;
    }
  }
}

TEST_F(RouteSpans, IncrementalEngineTimesItsPhasesWithSpans) {
  const Topology topo = make_deimos();
  IncrementalDfsssp engine(IncrementalOptions{.max_layers = 8});
  const RouteResponse first = engine.route(RouteRequest(topo));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_GT(first.stats.route_seconds, 0.0);
  EXPECT_GT(first.stats.layering_seconds, 0.0);

  obs::start_profiling();
  ASSERT_TRUE(engine.route(RouteRequest(topo)).ok);
  const std::map<std::string, std::uint64_t> calls =
      invocations(obs::stop_profiling());
  const std::uint64_t dests = topo.net.num_terminals();
  EXPECT_EQ(calls.at("root;fault/route_full"), 1U);
  EXPECT_EQ(calls.at("root;fault/route_full;fault/sssp"), dests);
  // One first-fit pass places every destination's paths, source-major.
  EXPECT_EQ(calls.at("root;fault/route_full;fault/first_fit"), 1U);
  EXPECT_EQ(calls.at("root;fault/route_full;fault/certificate"), 1U);
}

}  // namespace
}  // namespace dfsssp
