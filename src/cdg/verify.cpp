#include "cdg/verify.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>

namespace dfsssp {

bool paths_are_acyclic(const PathSet& paths,
                       std::span<const std::uint32_t> members,
                       std::uint32_t num_channels) {
  // Adjacency as a set of edges (dumb and obviously correct).
  std::map<ChannelId, std::set<ChannelId>> adj;
  for (std::uint32_t p : members) {
    auto seq = paths.channels(p);
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      adj[seq[i]].insert(seq[i + 1]);
    }
  }
  // Iterative three-color DFS.
  std::vector<std::uint8_t> color(num_channels, 0);
  std::vector<std::pair<ChannelId, std::set<ChannelId>::const_iterator>> stack;
  for (const auto& [root, _] : adj) {
    if (color[root] != 0) continue;
    color[root] = 1;
    stack.emplace_back(root, adj[root].begin());
    while (!stack.empty()) {
      auto& [node, it] = stack.back();
      auto list_it = adj.find(node);
      if (list_it == adj.end() || it == list_it->second.end()) {
        color[node] = 2;
        stack.pop_back();
        continue;
      }
      ChannelId next = *it;
      ++it;
      if (color[next] == 1) return false;
      if (color[next] == 0) {
        color[next] = 1;
        auto next_it = adj.find(next);
        stack.emplace_back(next, next_it == adj.end()
                                     ? std::set<ChannelId>::const_iterator{}
                                     : next_it->second.begin());
      }
    }
  }
  return true;
}

bool layering_is_deadlock_free(const PathSet& paths,
                               std::span<const Layer> layer,
                               std::uint32_t num_channels,
                               const ExecContext& exec) {
  if (layer.size() != paths.size()) return false;
  Layer max_layer = 0;
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    max_layer = std::max(max_layer, layer[p]);
  }
  std::vector<std::vector<std::uint32_t>> members(max_layer + 1);
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    members[layer[p]].push_back(p);
  }
  // One independent CDG build + cycle search per virtual layer.
  std::atomic<bool> all_acyclic{true};
  parallel_for(exec, members.size(), [&](std::size_t l) {
    if (!paths_are_acyclic(paths, members[l], num_channels)) {
      all_acyclic.store(false, std::memory_order_relaxed);
    }
  });
  return all_acyclic.load();
}

}  // namespace dfsssp
