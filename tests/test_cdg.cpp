#include "cdg/cdg.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <utility>

#include "cdg/verify.hpp"
#include "common/rng.hpp"

namespace dfsssp {
namespace {

PathSet make_paths(std::initializer_list<std::vector<ChannelId>> seqs) {
  PathSet paths;
  std::uint32_t i = 0;
  for (const auto& s : seqs) {
    paths.add(i, i, s, 1);
    ++i;
  }
  return paths;
}

std::vector<std::uint32_t> all_members(const PathSet& paths) {
  std::vector<std::uint32_t> m(paths.size());
  std::iota(m.begin(), m.end(), 0U);
  return m;
}

TEST(Cdg, BuildsEdgesWithPathLists) {
  // Two paths sharing the edge (1,2).
  PathSet paths = make_paths({{0, 1, 2}, {1, 2, 3}});
  Cdg cdg(paths, all_members(paths), 4);
  EXPECT_EQ(cdg.num_edges(), 3U);  // (0,1) (1,2) (2,3)
  auto edges1 = cdg.out_edges(1);
  ASSERT_EQ(edges1.size(), 1U);
  EXPECT_EQ(edges1[0].to, 2U);
  EXPECT_EQ(edges1[0].alive_count, 2U);
  EXPECT_EQ(edges1[0].alive_weight, 2U);
}

TEST(Cdg, RemovePathDecrementsEdges) {
  PathSet paths = make_paths({{0, 1, 2}, {1, 2, 3}});
  Cdg cdg(paths, all_members(paths), 4);
  cdg.remove_path(paths, 0);
  EXPECT_FALSE(cdg.path_alive(0));
  auto edges1 = cdg.out_edges(1);
  EXPECT_EQ(edges1[0].alive_count, 1U);
  auto edges0 = cdg.out_edges(0);
  EXPECT_EQ(edges0[0].alive_count, 0U);
}

// Reference CDG: every (u, v) dependency of the members, with the paths
// that induce it in member order (a path repeating a dependency is listed
// once per use, as the build does).
using RefCdg =
    std::map<std::pair<ChannelId, ChannelId>, std::vector<std::uint32_t>>;

RefCdg reference_cdg(const PathSet& paths,
                     const std::vector<std::uint32_t>& members) {
  RefCdg ref;
  for (std::uint32_t p : members) {
    auto seq = paths.channels(p);
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      ref[{seq[i], seq[i + 1]}].push_back(p);
    }
  }
  return ref;
}

// Checks every observable of `cdg` against the reference; `alive[p]` marks
// the members not yet removed.
void expect_matches_reference(const Cdg& cdg, const PathSet& paths,
                              const RefCdg& ref,
                              const std::vector<bool>& alive) {
  ASSERT_EQ(cdg.num_edges(), ref.size());
  auto it = ref.begin();
  std::uint32_t e = 0;
  for (ChannelId u = 0; u < cdg.num_nodes(); ++u) {
    ASSERT_EQ(cdg.first_edge(u), e) << "u=" << u;
    for (const Cdg::Edge& edge : cdg.out_edges(u)) {
      ASSERT_NE(it, ref.end());
      ASSERT_EQ(it->first, std::make_pair(u, edge.to)) << "edge " << e;
      EXPECT_EQ(&cdg.edge(e), &edge);
      EXPECT_EQ(cdg.edge_source(e), u);
      const std::vector<std::uint32_t>& want = it->second;
      auto got = cdg.edge_paths(e);
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
          << "edge " << e;
      EXPECT_EQ(edge.path_count, want.size());
      std::vector<std::uint32_t> want_alive;
      std::uint64_t want_weight = 0;
      for (std::uint32_t p : want) {
        if (!alive[p]) continue;
        want_alive.push_back(p);
        want_weight += paths.weight(p);
      }
      EXPECT_EQ(edge.alive_count, want_alive.size()) << "edge " << e;
      EXPECT_EQ(edge.alive_weight, want_weight) << "edge " << e;
      EXPECT_EQ(cdg.alive_paths(e), want_alive) << "edge " << e;
      ++it;
      ++e;
    }
  }
  EXPECT_EQ(it, ref.end());
  std::uint32_t alive_members = 0;
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    EXPECT_EQ(cdg.path_alive(p), alive[p]) << "path " << p;
    alive_members += alive[p] ? 1 : 0;
  }
  EXPECT_EQ(cdg.alive_members(), alive_members);
}

TEST(Cdg, EdgePathsFollowMemberOrder) {
  // Members in descending order: every edge lists its paths the same way.
  PathSet paths = make_paths({{0, 1, 2}, {0, 1}, {1, 2}, {0, 1, 3}});
  const std::vector<std::uint32_t> members{3, 2, 1, 0};
  Cdg cdg(paths, members, 4);
  ASSERT_EQ(cdg.num_edges(), 3U);  // (0,1) (1,2) (1,3)
  auto paths01 = cdg.edge_paths(cdg.first_edge(0));
  EXPECT_EQ(std::vector<std::uint32_t>(paths01.begin(), paths01.end()),
            (std::vector<std::uint32_t>{3, 1, 0}));
  auto paths12 = cdg.edge_paths(cdg.first_edge(1));
  EXPECT_EQ(std::vector<std::uint32_t>(paths12.begin(), paths12.end()),
            (std::vector<std::uint32_t>{2, 0}));
  EXPECT_EQ(cdg.out_edges(1)[1].to, 3U);
}

TEST(Cdg, EmptyMemberListBuildsNoEdges) {
  PathSet paths = make_paths({{0, 1, 2}, {2, 1}});
  Cdg cdg(paths, {}, 3);
  EXPECT_EQ(cdg.num_nodes(), 3U);
  EXPECT_EQ(cdg.num_edges(), 0U);
  for (ChannelId u = 0; u < 3; ++u) {
    EXPECT_TRUE(cdg.out_edges(u).empty());
    EXPECT_EQ(cdg.first_edge(u), 0U);
  }
  EXPECT_EQ(cdg.alive_members(), 0U);
  EXPECT_FALSE(cdg.path_alive(0));
  EXPECT_TRUE(cdg.empty_alive());
}

TEST(Cdg, RandomPathSoupsMatchReference) {
  Rng rng(0xC0DE);
  for (int round = 0; round < 200; ++round) {
    // The top channels are never used: nodes with no out-edges.
    const auto num_channels =
        static_cast<std::uint32_t>(4 + rng.next_below(28));
    const auto used =
        static_cast<std::uint32_t>(num_channels - rng.next_below(4));
    PathSet paths;
    const auto num_paths = static_cast<std::uint32_t>(rng.next_below(80));
    std::vector<ChannelId> seq;
    for (std::uint32_t p = 0; p < num_paths; ++p) {
      // Paths of 0 and 1 channels are mixed in, and some repeat the
      // previous path exactly.
      if (p == 0 || rng.next_below(6) != 0) {
        seq.clear();
        const auto len = rng.next_below(7);
        for (std::uint64_t i = 0; i < len; ++i) {
          seq.push_back(static_cast<ChannelId>(rng.next_below(used)));
        }
      }
      paths.add(p, p, seq, 1 + static_cast<std::uint32_t>(rng.next_below(4)));
    }
    // A random subset of the paths, in shuffled (non-ascending) order.
    std::vector<std::uint32_t> members;
    for (std::uint32_t p = 0; p < num_paths; ++p) {
      if (rng.next_below(4) != 0) members.push_back(p);
    }
    rng.shuffle(members);

    Cdg cdg(paths, members, num_channels);
    const RefCdg ref = reference_cdg(paths, members);
    std::vector<bool> alive(paths.size(), false);
    for (std::uint32_t p : members) alive[p] = true;
    expect_matches_reference(cdg, paths, ref, alive);
    if (::testing::Test::HasFailure()) {
      FAIL() << "round " << round << " after build";
    }

    // Remove about half of the members, then all of them.
    for (std::uint32_t p : members) {
      if (rng.next_below(2) == 0) continue;
      cdg.remove_path(paths, p);
      alive[p] = false;
    }
    expect_matches_reference(cdg, paths, ref, alive);
    for (std::uint32_t p : members) {
      if (!alive[p]) continue;
      cdg.remove_path(paths, p);
      alive[p] = false;
    }
    expect_matches_reference(cdg, paths, ref, alive);
    EXPECT_TRUE(cdg.empty_alive());
    if (::testing::Test::HasFailure()) {
      FAIL() << "round " << round << " after removals";
    }
  }
}

TEST(CycleFinderTest, FindsNoCycleInDag) {
  PathSet paths = make_paths({{0, 1, 2}, {0, 2, 3}});
  Cdg cdg(paths, all_members(paths), 4);
  CycleFinder finder(cdg);
  std::vector<std::uint32_t> cycle;
  EXPECT_FALSE(finder.next_cycle(cycle));
}

TEST(CycleFinderTest, FindsSimpleCycle) {
  // Paths 0->1 and 1->0 create a 2-cycle between channel-nodes 0 and 1.
  PathSet paths = make_paths({{0, 1}, {1, 0}});
  Cdg cdg(paths, all_members(paths), 2);
  CycleFinder finder(cdg);
  std::vector<std::uint32_t> cycle;
  ASSERT_TRUE(finder.next_cycle(cycle));
  EXPECT_EQ(cycle.size(), 2U);
}

TEST(CycleFinderTest, ResumeAfterCut) {
  // Two disjoint 2-cycles; cutting the first must still find the second.
  PathSet paths = make_paths({{0, 1}, {1, 0}, {2, 3}, {3, 2}});
  Cdg cdg(paths, all_members(paths), 4);
  CycleFinder finder(cdg);
  std::vector<std::uint32_t> cycle;
  ASSERT_TRUE(finder.next_cycle(cycle));
  for (std::uint32_t p : cdg.alive_paths(cycle.front())) {
    cdg.remove_path(paths, p);
  }
  finder.repair();
  ASSERT_TRUE(finder.next_cycle(cycle));
  for (std::uint32_t p : cdg.alive_paths(cycle.front())) {
    cdg.remove_path(paths, p);
  }
  finder.repair();
  EXPECT_FALSE(finder.next_cycle(cycle));
}

TEST(AssignLayers, AcyclicInputStaysOneLayer) {
  PathSet paths = make_paths({{0, 1, 2}, {0, 2}, {1, 3}});
  LayerResult r = assign_layers_offline(paths, 4, {});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.layers_used, 1);
  EXPECT_EQ(r.cycles_broken, 0U);
}

TEST(AssignLayers, BreaksRingCycle) {
  // The Figure 2 situation: a 5-ring routed clockwise; channels 0..4,
  // each 2-hop path uses (i, i+1 mod 5). The union is the full 5-cycle.
  PathSet paths = make_paths(
      {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  LayerResult r = assign_layers_offline(paths, 5, {});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.layers_used, 2);
  EXPECT_GE(r.cycles_broken, 1U);
  EXPECT_TRUE(layering_is_deadlock_free(paths, r.layer, 5));
}

TEST(AssignLayers, Figure3Example) {
  // Paper Figure 3: channels a=0,b=1,c=2,d=3; p1=bc, p2=abc, p3=cdab;
  // k=2 admits a cover with {p1,p2} and {p3}.
  PathSet paths = make_paths({{1, 2}, {0, 1, 2}, {2, 3, 0, 1}});
  LayerOptions opts;
  opts.max_layers = 2;
  LayerResult r = assign_layers_offline(paths, 4, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.layers_used, 2);
  EXPECT_TRUE(layering_is_deadlock_free(paths, r.layer, 4));
}

TEST(AssignLayers, FailsWhenOneLayerForced) {
  PathSet paths = make_paths({{0, 1}, {1, 0}});
  LayerOptions opts;
  opts.max_layers = 1;
  LayerResult r = assign_layers_offline(paths, 2, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not enough"), std::string::npos);
}

TEST(AssignLayers, WeakestEdgeMovesFewerPaths) {
  // Cycle 0->1->0 where edge (0,1) is induced by 3 paths and (1,0) by 1.
  PathSet paths = make_paths({{0, 1}, {0, 1}, {0, 1}, {1, 0}});
  LayerOptions opts;
  opts.heuristic = CycleHeuristic::kWeakestEdge;
  LayerResult r = assign_layers_offline(paths, 2, opts);
  ASSERT_TRUE(r.ok);
  // The single path inducing the weakest edge moved; the three stayed.
  EXPECT_EQ(r.layer[3], 1);
  EXPECT_EQ(r.layer[0], 0);
  EXPECT_EQ(r.layer[1], 0);
  EXPECT_EQ(r.layer[2], 0);
}

TEST(AssignLayers, HeaviestEdgeMovesMorePaths) {
  PathSet paths = make_paths({{0, 1}, {0, 1}, {0, 1}, {1, 0}});
  LayerOptions opts;
  opts.heuristic = CycleHeuristic::kHeaviestEdge;
  LayerResult r = assign_layers_offline(paths, 2, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.layer[0], 1);
  EXPECT_EQ(r.layer[1], 1);
  EXPECT_EQ(r.layer[2], 1);
  EXPECT_EQ(r.layer[3], 0);
}

TEST(AssignLayers, WeightsDriveWeakestChoice) {
  // Same shape but the single path on (1,0) is heavy (weight 5): the
  // weakest edge is now (0,1) with weight 3.
  PathSet paths;
  paths.add(0, 0, std::vector<ChannelId>{0, 1}, 3);
  paths.add(1, 1, std::vector<ChannelId>{1, 0}, 5);
  LayerOptions opts;
  opts.heuristic = CycleHeuristic::kWeakestEdge;
  LayerResult r = assign_layers_offline(paths, 2, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.layer[0], 1);
  EXPECT_EQ(r.layer[1], 0);
}

TEST(AssignLayers, AllHeuristicsProduceValidCovers) {
  Rng rng(1234);
  for (CycleHeuristic h : {CycleHeuristic::kWeakestEdge,
                           CycleHeuristic::kHeaviestEdge,
                           CycleHeuristic::kFirstEdge}) {
    for (int round = 0; round < 10; ++round) {
      // Random path soup over 12 channel nodes.
      PathSet paths;
      const std::uint32_t num_channels = 12;
      for (int p = 0; p < 30; ++p) {
        std::vector<ChannelId> seq;
        std::vector<bool> used(num_channels, false);
        std::uint32_t len = 2 + static_cast<std::uint32_t>(rng.next_below(5));
        for (std::uint32_t i = 0; i < len; ++i) {
          ChannelId c = static_cast<ChannelId>(rng.next_below(num_channels));
          if (used[c]) break;
          used[c] = true;
          seq.push_back(c);
        }
        if (seq.size() >= 2) {
          paths.add(p, p, seq, 1 + static_cast<std::uint32_t>(rng.next_below(3)));
        }
      }
      LayerOptions opts;
      opts.heuristic = h;
      // A pairwise-conflicting path clique can force up to |P| layers even
      // under an optimal partition, so give the full budget.
      opts.max_layers = static_cast<Layer>(paths.size());
      LayerResult r = assign_layers_offline(paths, num_channels, opts);
      ASSERT_TRUE(r.ok) << to_string(h) << " round " << round;
      EXPECT_TRUE(layering_is_deadlock_free(paths, r.layer, num_channels))
          << to_string(h) << " round " << round;
    }
  }
}

TEST(BalanceLayers, SpreadsOntoEmptyLayersAndStaysAcyclic) {
  // 8 disjoint acyclic paths in layer 0; balancing over 4 layers should
  // spread them (weighted) and preserve acyclicity trivially.
  PathSet paths;
  for (std::uint32_t p = 0; p < 8; ++p) {
    paths.add(p, p, std::vector<ChannelId>{3 * p, 3 * p + 1, 3 * p + 2}, 1);
  }
  std::vector<Layer> layer(8, 0);
  Layer used = balance_layers(paths, layer, 1, 4);
  EXPECT_EQ(used, 4);
  std::vector<int> count(4, 0);
  for (Layer l : layer) {
    ASSERT_LT(l, 4);
    ++count[l];
  }
  for (int c : count) EXPECT_EQ(c, 2);
  EXPECT_TRUE(layering_is_deadlock_free(paths, layer, 24));
}

TEST(BalanceLayers, NoOpWhenAllLayersUsed) {
  PathSet paths = make_paths({{0, 1}, {1, 0}});
  std::vector<Layer> layer{0, 1};
  EXPECT_EQ(balance_layers(paths, layer, 2, 2), 2);
  EXPECT_EQ(layer[0], 0);
  EXPECT_EQ(layer[1], 1);
}

TEST(AssignLayers, OffsetBalanceKeepsCover) {
  // End-to-end: cyclic input, 8 available layers, balancing on.
  PathSet paths = make_paths(
      {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}, {2, 4}, {4, 1}, {1, 3},
       {3, 0}});
  LayerOptions opts;
  opts.balance = true;
  LayerResult r = assign_layers_offline(paths, 5, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(layering_is_deadlock_free(paths, r.layer, 5));
  EXPECT_GE(r.layers_used, 2);
}

}  // namespace
}  // namespace dfsssp
