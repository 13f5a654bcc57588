#include "cdg/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "cdg/verify.hpp"
#include "common/rng.hpp"

namespace dfsssp {
namespace {

TEST(OnlineCdg, AcceptsAcyclicPaths) {
  OnlineCdg cdg(5);
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 1, 2}));
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 2, 3}));
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{3, 4}));
  EXPECT_EQ(cdg.num_paths(), 3U);
  EXPECT_TRUE(cdg.has_edge(0, 1));
  EXPECT_TRUE(cdg.has_edge(3, 4));
}

TEST(OnlineCdg, RejectsCycleClosingPathAndRollsBack) {
  OnlineCdg cdg(4);
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 1, 2}));
  // 2 -> 3 -> 0 would close 0->1->2->3->0.
  EXPECT_FALSE(cdg.try_add_path(std::vector<ChannelId>{2, 3, 0}));
  EXPECT_EQ(cdg.num_paths(), 1U);
  // Rollback: the partial edge (2,3) must be gone.
  EXPECT_FALSE(cdg.has_edge(2, 3));
  // And an acyclic path using (2,3) must still be accepted.
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{2, 3}));
}

TEST(OnlineCdg, RefcountsSharedEdges) {
  OnlineCdg cdg(3);
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 1}));
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 1, 2}));
  EXPECT_EQ(cdg.num_edges(), 2U);  // (0,1) shared, (1,2)
}

TEST(OnlineCdg, RejectsTwoCycle) {
  OnlineCdg cdg(2);
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 1}));
  EXPECT_FALSE(cdg.try_add_path(std::vector<ChannelId>{1, 0}));
}

TEST(OnlineCdg, ReorderKeepsAcceptingValidEdges) {
  // Insert the chain 0->1->...->5 back to front: every path forces a
  // Pearce-Kelly reorder (new edges point at smaller initial order values).
  OnlineCdg cdg(6);
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{4, 5}));
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{2, 3, 4}));
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 1, 2}));
  // The chain is now complete; closing it must be rejected...
  EXPECT_FALSE(cdg.try_add_path(std::vector<ChannelId>{5, 0}));
  // ...but a parallel shortcut in chain direction is fine.
  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{0, 3, 5}));
}

TEST(OnlineCdg, RandomizedAgainstNaiveChecker) {
  Rng rng(2024);
  for (int round = 0; round < 15; ++round) {
    const std::uint32_t num_nodes = 10;
    OnlineCdg cdg(num_nodes);
    PathSet accepted;
    std::vector<std::uint32_t> members;
    for (int step = 0; step < 60; ++step) {
      // Random simple path of length 2..4.
      std::vector<ChannelId> seq;
      std::vector<bool> used(num_nodes, false);
      std::uint32_t len = 2 + static_cast<std::uint32_t>(rng.next_below(3));
      for (std::uint32_t i = 0; i < len; ++i) {
        ChannelId c = static_cast<ChannelId>(rng.next_below(num_nodes));
        if (used[c]) break;
        used[c] = true;
        seq.push_back(c);
      }
      if (seq.size() < 2) continue;

      // Oracle: would the naive union stay acyclic?
      PathSet trial = accepted;
      trial.add(0, 0, seq, 1);
      std::vector<std::uint32_t> trial_members(trial.size());
      std::iota(trial_members.begin(), trial_members.end(), 0U);
      const bool oracle = paths_are_acyclic(trial, trial_members, num_nodes);

      const bool got = cdg.try_add_path(seq);
      ASSERT_EQ(got, oracle) << "round " << round << " step " << step;
      if (got) {
        accepted.add(0, 0, seq, 1);
        members.push_back(static_cast<std::uint32_t>(members.size()));
      }
    }
    // Final state must be acyclic.
    EXPECT_TRUE(paths_are_acyclic(accepted, members, num_nodes));
  }
}

TEST(OnlineCdg, TwoWaySearchMeetsFromEitherSide) {
  // (1,0) closes 0->1: the forward side's first expansion (node 0) sees u.
  OnlineCdg direct(2);
  EXPECT_TRUE(direct.try_add_path(std::vector<ChannelId>{0, 1}));
  EXPECT_FALSE(direct.try_add_path(std::vector<ChannelId>{1, 0}));
  EXPECT_EQ(direct.num_reorders(), 1U);
  EXPECT_EQ(direct.num_search_visits(), 1U);
  EXPECT_EQ(direct.num_cycle_rejects(), 1U);

  // (2,0) closes 0->1->2: forward expands 0 and reaches 1, then backward
  // expands 2 and finds 1 already reached from the other side.
  OnlineCdg chain(3);
  EXPECT_TRUE(chain.try_add_path(std::vector<ChannelId>{0, 1, 2}));
  EXPECT_FALSE(chain.try_add_path(std::vector<ChannelId>{2, 0}));
  EXPECT_EQ(chain.num_search_visits(), 2U);
  EXPECT_EQ(chain.num_cycle_rejects(), 1U);
  EXPECT_FALSE(chain.has_edge(2, 0));

  // An accepted reorder runs both sides to completion and counts no reject.
  OnlineCdg order(4);
  EXPECT_TRUE(order.try_add_path(std::vector<ChannelId>{2, 3}));
  EXPECT_TRUE(order.try_add_path(std::vector<ChannelId>{0, 1}));
  EXPECT_TRUE(order.try_add_path(std::vector<ChannelId>{3, 0}));
  EXPECT_EQ(order.num_reorders(), 1U);
  EXPECT_EQ(order.num_search_visits(), 4U);  // {0, 1} forward, {3, 2} back
  EXPECT_EQ(order.num_cycle_rejects(), 0U);
  EXPECT_EQ(order.topological_order(),
            (std::vector<ChannelId>{2, 3, 0, 1}));
}

// Random inserts and removals against the naive oracle: every answer
// matches it, and after every step the maintained order places every
// present edge forward. One step in `remove_one_in` removes a random
// accepted path; the others try a random simple path of 2 to
// 1 + `max_extra` channels.
struct OracleCounts {
  std::uint64_t inserts = 0, removals = 0, rejects = 0;
};

void run_against_oracle(OnlineCdg& cdg, std::uint32_t nodes,
                        std::uint64_t seed, int steps,
                        std::uint32_t remove_one_in, std::uint32_t max_extra,
                        OracleCounts& n) {
  Rng rng(seed);
  std::vector<std::vector<ChannelId>> accepted;
  for (int step = 0; step < steps; ++step) {
    if (!accepted.empty() && rng.next_below(remove_one_in) == 0) {
      const std::size_t i =
          static_cast<std::size_t>(rng.next_below(accepted.size()));
      cdg.remove_path(accepted[i]);
      accepted[i] = std::move(accepted.back());
      accepted.pop_back();
      ++n.removals;
    } else {
      std::vector<ChannelId> seq;
      const std::uint32_t len =
          2 + static_cast<std::uint32_t>(rng.next_below(max_extra));
      while (seq.size() < len) {
        const ChannelId c = static_cast<ChannelId>(rng.next_below(nodes));
        if (std::find(seq.begin(), seq.end(), c) == seq.end()) {
          seq.push_back(c);
        }
      }
      PathSet trial;
      for (const auto& p : accepted) trial.add(0, 0, p, 1);
      trial.add(0, 0, seq, 1);
      std::vector<std::uint32_t> members(trial.size());
      std::iota(members.begin(), members.end(), 0U);
      const bool oracle = paths_are_acyclic(trial, members, nodes);

      const bool got = cdg.try_add_path(seq);
      ASSERT_EQ(got, oracle) << "step " << step;
      if (got) {
        accepted.push_back(std::move(seq));
        ++n.inserts;
      } else {
        ++n.rejects;
      }
    }

    ASSERT_EQ(cdg.num_paths(), accepted.size());
    const std::vector<ChannelId> order = cdg.topological_order();
    std::vector<std::uint32_t> pos(nodes, nodes);
    for (std::uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    for (const auto& p : accepted) {
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        ASSERT_TRUE(cdg.has_edge(p[i], p[i + 1])) << "step " << step;
        ASSERT_LT(pos[p[i]], pos[p[i + 1]]) << "step " << step;
      }
    }
  }
}

// Thousands of inserts and removals on a 50-node graph. Covers meets found
// by either side, scratch reused across calls, and reorders over a graph
// that shrinks.
TEST(OnlineCdg, RandomizedInsertRemoveKeepsOrderAndMatchesOracle) {
  OnlineCdg cdg(50);
  OracleCounts n;
  run_against_oracle(cdg, 50, 2025, 4000, 4, 5, n);
  ASSERT_FALSE(HasFatalFailure());
  // The mix really exercised all three operations.
  EXPECT_GT(n.inserts, 500U);
  EXPECT_GT(n.removals, 500U);
  EXPECT_GT(n.rejects, 500U);
  // Every reject was either searched or answered by the reject cache.
  EXPECT_EQ(cdg.num_cycle_rejects() + cdg.num_cache_rejects(), n.rejects);
}

// A graph that mostly grows: with removals rare, the reject cache answers
// most rejects without a search, and every answer still matches the
// oracle.
TEST(OnlineCdg, RejectCacheMatchesOracleWhenRemovalsAreRare) {
  OnlineCdg cdg(16);
  OracleCounts n;
  run_against_oracle(cdg, 16, 2026, 3000, 100, 3, n);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(n.removals, 10U);
  EXPECT_GT(n.rejects, 2000U);
  EXPECT_EQ(cdg.num_cycle_rejects() + cdg.num_cache_rejects(), n.rejects);
  // Hits skip the reorder: every reorder is either accepted or searched.
  EXPECT_GE(cdg.num_reorders(), cdg.num_cycle_rejects());
  EXPECT_GT(cdg.num_cache_rejects() * 4, n.rejects * 3);  // over 3/4 hit
}

// a -> b -> c closes a cycle at (b,c) only through the call's own new edge
// (a,b): c -> a is committed, a -> b is not. The reject must not be cached,
// because the rollback removes (a,b) and [b, c] alone is acyclic.
TEST(OnlineCdg, RejectThroughOwnPrefixEdgeIsNotCached) {
  constexpr ChannelId c = 0, a = 1, b = 2;
  OnlineCdg cdg(3);
  ASSERT_TRUE(cdg.try_add_path(std::vector<ChannelId>{c, a}));
  EXPECT_FALSE(cdg.try_add_path(std::vector<ChannelId>{a, b, c}));
  EXPECT_EQ(cdg.num_cycle_rejects(), 1U);
  EXPECT_FALSE(cdg.has_edge(a, b));

  EXPECT_TRUE(cdg.try_add_path(std::vector<ChannelId>{b, c}));
  EXPECT_TRUE(cdg.has_edge(b, c));
  EXPECT_EQ(cdg.num_cache_rejects(), 0U);
}

// A cached reject survives try_add_path's own rollback, which restores the
// graph it was found in, and answers without a search. A remove_path that
// deletes an edge of its witness path clears it; one that only drops a
// refcount does not.
TEST(OnlineCdg, RejectCacheSurvivesRollbackAndClearsOnRemoval) {
  OnlineCdg cdg(5);
  const std::vector<ChannelId> chain{1, 2, 3}, detour{1, 4, 3}, back{3, 1};
  ASSERT_TRUE(cdg.try_add_path(chain));
  ASSERT_TRUE(cdg.try_add_path(detour));
  EXPECT_FALSE(cdg.try_add_path(back));  // searched, then cached
  EXPECT_EQ(cdg.num_cycle_rejects(), 1U);

  // (0,3) is new and needs no reorder; (3,2) is searched and rejected, and
  // the rollback removes (0,3) again.
  EXPECT_FALSE(cdg.try_add_path(std::vector<ChannelId>{0, 3, 2}));
  EXPECT_EQ(cdg.num_cycle_rejects(), 2U);
  EXPECT_FALSE(cdg.has_edge(0, 3));

  std::uint64_t visits = cdg.num_search_visits();
  std::uint64_t reorders = cdg.num_reorders();
  EXPECT_FALSE(cdg.try_add_path(back));
  EXPECT_EQ(cdg.num_cache_rejects(), 1U);
  EXPECT_EQ(cdg.num_search_visits(), visits);
  EXPECT_EQ(cdg.num_reorders(), reorders);

  // Dropping one of two references to (1,2) removes no edge: still a hit.
  ASSERT_TRUE(cdg.try_add_path(std::vector<ChannelId>{1, 2}));
  cdg.remove_path(std::vector<ChannelId>{1, 2});
  EXPECT_FALSE(cdg.try_add_path(back));
  EXPECT_EQ(cdg.num_cache_rejects(), 2U);
  EXPECT_EQ(cdg.num_search_visits(), visits);

  // Removing the chain deletes (1,2) and (2,3): the pair is searched again
  // and still rejected, now through the detour.
  cdg.remove_path(chain);
  EXPECT_FALSE(cdg.try_add_path(back));
  EXPECT_EQ(cdg.num_cache_rejects(), 2U);
  EXPECT_EQ(cdg.num_cycle_rejects(), 3U);
  EXPECT_GT(cdg.num_search_visits(), visits);

  // With the detour gone too, nothing leads from 1 back to 3.
  cdg.remove_path(detour);
  EXPECT_TRUE(cdg.try_add_path(back));
  EXPECT_EQ(cdg.num_cache_rejects(), 2U);
}

TEST(OnlineCdg, SelfLoopRejected) {
  OnlineCdg cdg(2);
  EXPECT_FALSE(cdg.try_add_path(std::vector<ChannelId>{1, 1}));
}

// LASH's transaction: both paths of a group share one layer. The group's
// first path fits layer 0, its second closes 0 -> 1 -> 0 there, so layer 0
// gives the first one back and the group lands in layer 1 after two
// attempts, one per layer tried (what LASH counts as lash/layer_attempts).
TEST(FirstFitLayerer, GroupRolledBackLandsInNextLayer) {
  FirstFitLayerer layers(4, 8);
  EXPECT_EQ(layers.place(std::vector<ChannelId>{0, 1}), 0);
  EXPECT_EQ(layers.work().attempts, 1u);

  const std::vector<ChannelId> first{2, 3}, second{1, 0};
  const std::span<const ChannelId> group[] = {first, second};
  EXPECT_EQ(layers.place(group), 1);
  EXPECT_EQ(layers.work().attempts, 3u);
  EXPECT_EQ(layers.work().cycle_rejects, 1u);
  EXPECT_EQ(layers.work().cache_rejects, 0u);
  EXPECT_EQ(layers.topological_order(0), (std::vector<ChannelId>{0, 1}));
  EXPECT_EQ(layers.topological_order(1).size(), 4u);
  EXPECT_TRUE(layers.topological_order(2).empty());  // never opened
  EXPECT_EQ(layers.layers_used(), 2);
}

// A reject found after the group added an edge is not kept: here the cycle
// 1 -> 2 -> 3 -> 1 runs through the group's own new edge 2 -> 3, so once
// the rollback removed that edge, 3 -> 1 alone fits the layer.
TEST(FirstFitLayerer, GroupRejectThroughItsOwnEdgeIsNotKept) {
  FirstFitLayerer layers(4, 1);
  EXPECT_EQ(layers.place(std::vector<ChannelId>{1, 2}), 0);

  const std::vector<ChannelId> first{2, 3}, second{3, 1};
  const std::span<const ChannelId> group[] = {first, second};
  EXPECT_EQ(layers.place(group), kInvalidLayer);
  EXPECT_EQ(layers.work().cycle_rejects, 1u);

  EXPECT_EQ(layers.place(second), 0);
  EXPECT_EQ(layers.work().cache_rejects, 0u);
  EXPECT_EQ(layers.work().cycle_rejects, 1u);
}

// Rejects cached before a group stay valid after its rollback, which only
// restores the graph they were found in: the pair is answered from the
// cache again, with no search.
TEST(FirstFitLayerer, GroupRollbackKeepsOlderRejects) {
  FirstFitLayerer layers(6, 1);
  EXPECT_EQ(layers.place(std::vector<ChannelId>{1, 2, 3}), 0);
  const std::vector<ChannelId> back{3, 1};
  EXPECT_EQ(layers.place(back), kInvalidLayer);  // searched, then cached
  EXPECT_EQ(layers.work().cycle_rejects, 1u);

  // 4 -> 5 is new; 3 -> 1 is a cache hit; the rollback removes 4 -> 5.
  const std::vector<ChannelId> side{4, 5};
  const std::span<const ChannelId> group[] = {side, back};
  EXPECT_EQ(layers.place(group), kInvalidLayer);
  EXPECT_EQ(layers.work().cache_rejects, 1u);

  const std::uint64_t visits = layers.work().search_visits;
  EXPECT_EQ(layers.place(back), kInvalidLayer);
  EXPECT_EQ(layers.work().cache_rejects, 2u);
  EXPECT_EQ(layers.work().cycle_rejects, 1u);
  EXPECT_EQ(layers.work().search_visits, visits);
}

TEST(FirstFitLayerer, LayersUsedDropsWhenTopLayerEmpties) {
  FirstFitLayerer layers(3, 2);
  EXPECT_EQ(layers.layers_used(), 1);  // nothing placed yet
  const std::vector<ChannelId> up{0, 1}, down{1, 0}, side{1, 2};
  EXPECT_EQ(layers.place(up), 0);
  EXPECT_EQ(layers.place(down), 1);
  EXPECT_EQ(layers.place(side), 0);
  EXPECT_EQ(layers.layers_used(), 2);
  // 2 -> 0 closes 0 -> 1 -> 2 in layer 0, and 0 -> 1 closes 1 -> 0 in
  // layer 1: no layer within the budget takes the path, and none keeps it.
  EXPECT_EQ(layers.place(std::vector<ChannelId>{2, 0, 1}), kInvalidLayer);
  EXPECT_EQ(layers.topological_order(0), (std::vector<ChannelId>{0, 1, 2}));
  EXPECT_EQ(layers.topological_order(1), (std::vector<ChannelId>{1, 0}));

  layers.remove(down, 1);
  EXPECT_EQ(layers.layers_used(), 1);
  layers.remove(up, 0);
  layers.remove(side, 0);
  EXPECT_EQ(layers.layers_used(), 1);
  EXPECT_EQ(layers.place(down), 0);  // layer 0 is free of 0 -> 1 again
}

}  // namespace
}  // namespace dfsssp
