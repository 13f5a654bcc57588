#include "cdg/app.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "cdg/online.hpp"

namespace dfsssp::app {

namespace {

/// DFS acyclicity over an edge-set adjacency.
bool acyclic(std::uint32_t num_nodes,
             const std::map<Node, std::set<Node>>& adj) {
  std::vector<std::uint8_t> color(num_nodes, 0);
  std::vector<Node> order;  // iterative DFS with explicit finish handling
  for (const auto& [root, _] : adj) {
    if (color[root] != 0) continue;
    std::vector<std::pair<Node, std::size_t>> stack{{root, 0}};
    color[root] = 1;
    while (!stack.empty()) {
      auto& [node, idx] = stack.back();
      auto it = adj.find(node);
      const std::set<Node>* succ = it == adj.end() ? nullptr : &it->second;
      if (succ == nullptr || idx >= succ->size()) {
        color[node] = 2;
        stack.pop_back();
        continue;
      }
      auto sit = succ->begin();
      std::advance(sit, static_cast<std::ptrdiff_t>(idx));
      ++idx;
      Node next = *sit;
      if (color[next] == 1) return false;
      if (color[next] == 0) {
        color[next] = 1;
        stack.emplace_back(next, 0);
      }
    }
  }
  return true;
}

std::map<Node, std::set<Node>> build_adj(
    const Instance& inst, std::span<const std::uint32_t> members) {
  std::map<Node, std::set<Node>> adj;
  for (std::uint32_t p : members) {
    const Path& path = inst.paths[p];
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      adj[path[i]].insert(path[i + 1]);
    }
  }
  return adj;
}

}  // namespace

bool union_is_acyclic(const Instance& inst,
                      std::span<const std::uint32_t> member_path_ids) {
  return acyclic(inst.num_nodes, build_adj(inst, member_path_ids));
}

bool is_cover(const Instance& inst, std::span<const std::uint32_t> assignment,
              std::uint32_t k) {
  if (assignment.size() != inst.paths.size()) return false;
  for (std::uint32_t c : assignment) {
    if (c >= k) return false;
  }
  for (std::uint32_t cls = 0; cls < k; ++cls) {
    std::vector<std::uint32_t> members;
    for (std::uint32_t p = 0; p < assignment.size(); ++p) {
      if (assignment[p] == cls) members.push_back(p);
    }
    if (!union_is_acyclic(inst, members)) return false;
  }
  return true;
}

namespace {

bool backtrack(const Instance& inst, std::uint32_t k,
               std::vector<std::uint32_t>& assignment, std::size_t next,
               std::uint32_t classes_open) {
  if (next == inst.paths.size()) return true;
  // Symmetry pruning: path `next` may join an open class or open exactly
  // the next fresh one.
  const std::uint32_t limit = std::min(k, classes_open + 1);
  for (std::uint32_t cls = 0; cls < limit; ++cls) {
    assignment[next] = cls;
    // Incremental feasibility: the class the path joined must stay acyclic.
    std::vector<std::uint32_t> members;
    for (std::size_t p = 0; p <= next; ++p) {
      if (assignment[p] == cls) members.push_back(static_cast<std::uint32_t>(p));
    }
    if (union_is_acyclic(inst, members) &&
        backtrack(inst, k, assignment, next + 1,
                  std::max(classes_open, cls + 1))) {
      return true;
    }
  }
  assignment[next] = 0;
  return false;
}

}  // namespace

std::uint32_t exact_min_layers(const Instance& inst, std::uint32_t max_k) {
  if (inst.paths.empty()) return 1;
  std::vector<std::uint32_t> assignment(inst.paths.size(), 0);
  for (std::uint32_t k = 1; k <= max_k; ++k) {
    if (backtrack(inst, k, assignment, 0, 0)) return k;
  }
  return 0;
}

std::uint32_t first_fit_layers(const Instance& inst, std::uint32_t max_k) {
  FirstFitLayerer classes(inst.num_nodes,
                          static_cast<Layer>(std::min<std::uint32_t>(
                              max_k, kInvalidLayer)));
  for (const Path& path : inst.paths) {
    if (classes.place(path) == kInvalidLayer) return 0;
  }
  return classes.layers_used();
}

Instance reduction_from_coloring(
    std::uint32_t num_vertices,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> edges) {
  Instance inst;
  inst.paths.resize(num_vertices);
  // Node layout: per vertex one private node (so isolated vertices still
  // yield a non-empty path), then two nodes a_e, b_e per undirected edge.
  inst.num_nodes = num_vertices + 2 * static_cast<std::uint32_t>(edges.size());
  for (std::uint32_t v = 0; v < num_vertices; ++v) {
    inst.paths[v].push_back(v);
  }
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    const auto [v, w] = edges[e];
    const Node a = num_vertices + 2 * e;
    const Node b = a + 1;
    // The smaller endpoint traverses a then b, the larger b then a; any
    // partition putting p_v and p_w into one class closes the 2-cycle a<->b.
    inst.paths[std::min(v, w)].push_back(a);
    inst.paths[std::min(v, w)].push_back(b);
    inst.paths[std::max(v, w)].push_back(b);
    inst.paths[std::max(v, w)].push_back(a);
  }
  return inst;
}

namespace {

bool colorable(std::uint32_t num_vertices,
               const std::vector<std::vector<std::uint32_t>>& adj,
               std::uint32_t k, std::vector<std::uint32_t>& color,
               std::uint32_t v, std::uint32_t open) {
  if (v == num_vertices) return true;
  const std::uint32_t limit = std::min(k, open + 1);
  for (std::uint32_t c = 0; c < limit; ++c) {
    bool ok = true;
    for (std::uint32_t w : adj[v]) {
      if (w < v && color[w] == c) {
        ok = false;
        break;
      }
    }
    if (ok) {
      color[v] = c;
      if (colorable(num_vertices, adj, k, color, v + 1,
                    std::max(open, c + 1))) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::uint32_t chromatic_number(
    std::uint32_t num_vertices,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> edges,
    std::uint32_t max_k) {
  if (num_vertices == 0) return 1;
  std::vector<std::vector<std::uint32_t>> adj(num_vertices);
  for (auto [v, w] : edges) {
    adj[v].push_back(w);
    adj[w].push_back(v);
  }
  std::vector<std::uint32_t> color(num_vertices, 0);
  for (std::uint32_t k = 1; k <= max_k; ++k) {
    if (colorable(num_vertices, adj, k, color, 0, 0)) return k;
  }
  return 0;
}

}  // namespace dfsssp::app
