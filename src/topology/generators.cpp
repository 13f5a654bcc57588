#include "topology/generators.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>

#include "common/narrow.hpp"
#include "obs/trace.hpp"
#include "topology/chunked.hpp"

namespace dfsssp {

namespace {

/// Freeze + validate + name; every generator funnels through here.
Topology finish(std::string name, Network net, TopologyMeta meta) {
  net.freeze();
  net.validate();
  Topology topo;
  topo.name = std::move(name);
  topo.net = std::move(net);
  topo.meta = std::move(meta);
  return topo;
}

/// Attaches `total` terminals round-robin over `sws`.
void attach_round_robin(Network& net, std::span<const NodeId> sws,
                        std::uint32_t total) {
  for (std::uint32_t t = 0; t < total; ++t) {
    net.add_terminal(sws[t % sws.size()]);
  }
}

/// A big modular switch (e.g. a 288-port director) modeled as its internal
/// two-level Clos of 24-port chips. External ports live on the leaf chips;
/// next_port() hands them out round-robin.
struct BigSwitch {
  std::vector<NodeId> leaf_chips;
  std::size_t cursor = 0;

  NodeId next_port() {
    NodeId chip = leaf_chips[cursor];
    cursor = (cursor + 1) % leaf_chips.size();
    return chip;
  }
};

/// Builds a director-class switch with `num_chips` 24-port leaf chips
/// (12 external ports each => 12 * num_chips external ports total) and
/// `num_spines` spine chips, one internal link per leaf-spine pair.
BigSwitch make_big_switch(Network& net, std::uint32_t num_chips,
                          std::uint32_t num_spines, const std::string& name) {
  BigSwitch big;
  big.leaf_chips.reserve(num_chips);
  std::vector<NodeId> spines;
  spines.reserve(num_spines);
  for (std::uint32_t i = 0; i < num_chips; ++i) {
    big.leaf_chips.push_back(net.add_switch(name + ".leaf" + std::to_string(i)));
  }
  for (std::uint32_t i = 0; i < num_spines; ++i) {
    spines.push_back(net.add_switch(name + ".spine" + std::to_string(i)));
  }
  for (NodeId leaf : big.leaf_chips) {
    for (NodeId spine : spines) net.add_link(leaf, spine);
  }
  return big;
}

}  // namespace

Topology make_single_switch(std::uint32_t num_terminals) {
  Network net;
  NodeId sw = net.add_switch();
  for (std::uint32_t i = 0; i < num_terminals; ++i) net.add_terminal(sw);
  TopologyMeta meta;
  meta.family = "single-switch";
  meta.sw_level = {0};
  return finish("single-switch-" + std::to_string(num_terminals),
                std::move(net), std::move(meta));
}

Topology make_path(std::uint32_t num_switches,
                   std::uint32_t terminals_per_switch) {
  if (num_switches == 0) throw std::invalid_argument("path: no switches");
  Network net;
  std::vector<NodeId> sws;
  for (std::uint32_t i = 0; i < num_switches; ++i) {
    sws.push_back(net.add_switch());
  }
  for (std::uint32_t i = 0; i + 1 < num_switches; ++i) {
    net.add_link(sws[i], sws[i + 1]);
  }
  for (NodeId sw : sws) {
    for (std::uint32_t t = 0; t < terminals_per_switch; ++t) {
      net.add_terminal(sw);
    }
  }
  TopologyMeta meta;
  meta.family = "path";
  return finish("path-" + std::to_string(num_switches), std::move(net),
                std::move(meta));
}

Topology make_ring(std::uint32_t num_switches,
                   std::uint32_t terminals_per_switch) {
  if (num_switches < 3) throw std::invalid_argument("ring: need >= 3 switches");
  Network net;
  std::vector<NodeId> sws;
  for (std::uint32_t i = 0; i < num_switches; ++i) {
    sws.push_back(net.add_switch());
  }
  for (std::uint32_t i = 0; i < num_switches; ++i) {
    net.add_link(sws[i], sws[(i + 1) % num_switches]);
  }
  for (NodeId sw : sws) {
    for (std::uint32_t t = 0; t < terminals_per_switch; ++t) {
      net.add_terminal(sw);
    }
  }
  TopologyMeta meta;
  meta.family = "ring";
  meta.dims = {num_switches};
  meta.wraparound = true;
  meta.sw_coord.resize(num_switches);
  std::iota(meta.sw_coord.begin(), meta.sw_coord.end(), 0U);
  return finish("ring-" + std::to_string(num_switches), std::move(net),
                std::move(meta));
}

Topology make_torus(std::span<const std::uint32_t> dims,
                    std::uint32_t terminals_per_switch, bool wraparound) {
  if (dims.empty()) throw std::invalid_argument("torus: no dimensions");
  std::uint64_t total = 1;
  for (std::uint32_t d : dims) {
    if (d < 2) throw std::invalid_argument("torus: dimension radix < 2");
    total *= d;
  }
  Network net;
  std::vector<NodeId> sws(total);
  for (std::uint64_t i = 0; i < total; ++i) sws[i] = net.add_switch();

  // Mixed-radix index <-> coordinates, dimension 0 fastest.
  auto coord_of = [&](std::uint64_t idx, std::size_t dim) {
    for (std::size_t d = 0; d < dim; ++d) idx /= dims[d];
    return checked_u32(idx % dims[dim], "torus coord");
  };
  auto step = [&](std::uint64_t idx, std::size_t dim, std::uint32_t to) {
    std::uint64_t stride = 1;
    for (std::size_t d = 0; d < dim; ++d) stride *= dims[d];
    std::uint32_t from = coord_of(idx, dim);
    return idx + (static_cast<std::int64_t>(to) - from) * stride;
  };

  for (std::uint64_t i = 0; i < total; ++i) {
    for (std::size_t d = 0; d < dims.size(); ++d) {
      std::uint32_t c = coord_of(i, d);
      if (c + 1 < dims[d]) net.add_link(sws[i], sws[step(i, d, c + 1)]);
      // Wrap link once per ring, skipped for radix 2 where it would
      // duplicate the 0-1 link.
      if (wraparound && c == dims[d] - 1 && dims[d] > 2) {
        net.add_link(sws[i], sws[step(i, d, 0)]);
      }
    }
  }
  for (NodeId sw : sws) {
    for (std::uint32_t t = 0; t < terminals_per_switch; ++t) {
      net.add_terminal(sw);
    }
  }
  TopologyMeta meta;
  meta.family = wraparound ? "torus" : "mesh";
  meta.dims.assign(dims.begin(), dims.end());
  meta.wraparound = wraparound;
  meta.sw_coord.resize(total * dims.size());
  for (std::uint64_t i = 0; i < total; ++i) {
    for (std::size_t d = 0; d < dims.size(); ++d) {
      meta.sw_coord[i * dims.size() + d] = coord_of(i, d);
    }
  }
  std::string name = meta.family;
  for (std::uint32_t d : dims) name += "-" + std::to_string(d);
  return finish(std::move(name), std::move(net), std::move(meta));
}

Topology make_hypercube(std::uint32_t dimension,
                        std::uint32_t terminals_per_switch) {
  std::vector<std::uint32_t> dims(dimension, 2U);
  Topology t = make_torus(dims, terminals_per_switch, /*wraparound=*/false);
  t.meta.family = "hypercube";
  t.name = "hypercube-" + std::to_string(dimension);
  return t;
}

Topology make_kary_ntree(std::uint32_t k, std::uint32_t n) {
  if (k < 1 || n < 1) throw std::invalid_argument("kary-ntree: k,n >= 1");
  std::uint64_t per_level = 1;
  for (std::uint32_t i = 0; i + 1 < n; ++i) per_level *= k;

  Network net;
  TopologyMeta meta;
  // sws[l][w]: switch at level l with digit index w in [0, k^(n-1)).
  std::vector<std::vector<NodeId>> sws(n, std::vector<NodeId>(per_level));
  for (std::uint32_t l = 0; l < n; ++l) {
    for (std::uint64_t w = 0; w < per_level; ++w) {
      sws[l][w] = net.add_switch("L" + std::to_string(l) + "." +
                                 std::to_string(w));
      meta.sw_level.push_back(static_cast<std::int32_t>(l));
    }
  }
  // Switch <w, l> connects to <w', l+1> iff the digit strings agree on every
  // position except l (digit position 0 = least significant).
  std::uint64_t stride = 1;
  for (std::uint32_t l = 0; l + 1 < n; ++l) {
    for (std::uint64_t w = 0; w < per_level; ++w) {
      std::uint32_t digit = checked_u32((w / stride) % k, "xgft digit");
      std::uint64_t base = w - static_cast<std::uint64_t>(digit) * stride;
      for (std::uint32_t v = 0; v < k; ++v) {
        net.add_link(sws[l][w], sws[l + 1][base + static_cast<std::uint64_t>(v) * stride]);
      }
    }
    stride *= k;
  }
  for (std::uint64_t w = 0; w < per_level; ++w) {
    for (std::uint32_t t = 0; t < k; ++t) net.add_terminal(sws[0][w]);
  }
  meta.family = "kary-ntree";
  return finish(std::to_string(k) + "-ary-" + std::to_string(n) + "-tree",
                std::move(net), std::move(meta));
}

namespace {

/// Recursive XGFT builder; returns the top-level switches of the sub-tree
/// and appends all leaf switches to `leaves`.
std::vector<NodeId> build_xgft(Network& net, TopologyMeta& meta,
                               std::uint32_t h,
                               std::span<const std::uint32_t> ms,
                               std::span<const std::uint32_t> ws,
                               std::vector<NodeId>& leaves) {
  if (h == 0) {
    NodeId leaf = net.add_switch();
    meta.sw_level.push_back(0);
    leaves.push_back(leaf);
    return {leaf};
  }
  const std::uint32_t m = ms[h - 1];
  const std::uint32_t w = ws[h - 1];
  std::vector<std::vector<NodeId>> subtree_tops;
  subtree_tops.reserve(m);
  for (std::uint32_t s = 0; s < m; ++s) {
    subtree_tops.push_back(build_xgft(net, meta, h - 1, ms, ws, leaves));
  }
  const std::size_t tops_per_subtree = subtree_tops.front().size();
  std::vector<NodeId> roots;
  roots.reserve(tops_per_subtree * w);
  for (std::size_t r = 0; r < tops_per_subtree; ++r) {
    for (std::uint32_t j = 0; j < w; ++j) {
      NodeId root = net.add_switch();
      meta.sw_level.push_back(static_cast<std::int32_t>(h));
      for (std::uint32_t s = 0; s < m; ++s) {
        net.add_link(root, subtree_tops[s][r]);
      }
      roots.push_back(root);
    }
  }
  return roots;
}

}  // namespace

Topology make_xgft(std::uint32_t h, std::span<const std::uint32_t> ms,
                   std::span<const std::uint32_t> ws,
                   std::uint32_t terminals_per_leaf) {
  if (ms.size() != h || ws.size() != h) {
    throw std::invalid_argument("xgft: need h entries in ms and ws");
  }
  if (h == 0) throw std::invalid_argument("xgft: h >= 1");
  if (terminals_per_leaf == 0) terminals_per_leaf = ms[0];

  Network net;
  TopologyMeta meta;
  std::vector<NodeId> leaves;
  build_xgft(net, meta, h, ms, ws, leaves);
  for (NodeId leaf : leaves) {
    for (std::uint32_t t = 0; t < terminals_per_leaf; ++t) {
      net.add_terminal(leaf);
    }
  }
  meta.family = "xgft";
  std::string name = "xgft-" + std::to_string(h);
  for (std::uint32_t m : ms) name += "-m" + std::to_string(m);
  for (std::uint32_t w : ws) name += "-w" + std::to_string(w);
  return finish(std::move(name), std::move(net), std::move(meta));
}

Topology make_kautz(std::uint32_t b, std::uint32_t n,
                    std::uint32_t num_terminals) {
  if (b < 2 || n < 1) throw std::invalid_argument("kautz: b >= 2, n >= 1");
  // Vertices: strings of length n over {0..b} with distinct adjacent letters.
  std::vector<std::vector<std::uint32_t>> strings;
  {
    std::vector<std::vector<std::uint32_t>> frontier;
    for (std::uint32_t c = 0; c <= b; ++c) frontier.push_back({c});
    for (std::uint32_t len = 1; len < n; ++len) {
      std::vector<std::vector<std::uint32_t>> next;
      for (const auto& s : frontier) {
        for (std::uint32_t c = 0; c <= b; ++c) {
          if (c == s.back()) continue;
          auto t = s;
          t.push_back(c);
          next.push_back(std::move(t));
        }
      }
      frontier = std::move(next);
    }
    strings = std::move(frontier);
  }
  std::map<std::vector<std::uint32_t>, std::uint32_t> index;
  for (std::uint32_t i = 0; i < strings.size(); ++i) index[strings[i]] = i;

  Network net;
  std::vector<NodeId> sws;
  sws.reserve(strings.size());
  for (std::uint32_t i = 0; i < strings.size(); ++i) {
    sws.push_back(net.add_switch());
  }
  // One physical link per digraph arc; arcs u->v and v->u collapse to one.
  std::set<std::pair<std::uint32_t, std::uint32_t>> linked;
  for (std::uint32_t u = 0; u < strings.size(); ++u) {
    for (std::uint32_t c = 0; c <= b; ++c) {
      if (c == strings[u].back()) continue;
      std::vector<std::uint32_t> shifted(strings[u].begin() + (n > 1 ? 1 : 0),
                                         strings[u].end());
      if (n == 1) shifted.clear();
      shifted.push_back(c);
      std::uint32_t v = index.at(shifted);
      if (v == u) continue;  // possible only for degenerate n == 1
      auto key = std::minmax(u, v);
      if (linked.insert({key.first, key.second}).second) {
        net.add_link(sws[u], sws[v]);
      }
    }
  }
  attach_round_robin(net, sws, num_terminals);
  TopologyMeta meta;
  meta.family = "kautz";
  return finish("kautz-" + std::to_string(b) + "-" + std::to_string(n),
                std::move(net), std::move(meta));
}

Topology make_random(std::uint32_t num_switches,
                     std::uint32_t terminals_per_switch,
                     std::uint32_t num_links,
                     std::uint32_t max_inter_switch_ports, Rng& rng) {
  obs::TraceSpan span("topology/generate");
  if (num_switches < 2) throw std::invalid_argument("random: >= 2 switches");
  if (num_links + 1 < num_switches) {
    throw std::invalid_argument("random: too few links for connectivity");
  }
  if (static_cast<std::uint64_t>(max_inter_switch_ports) * num_switches <
      2ULL * num_links) {
    throw std::invalid_argument("random: not enough ports for links");
  }

  Network net;
  std::vector<NodeId> sws;
  for (std::uint32_t i = 0; i < num_switches; ++i) {
    sws.push_back(net.add_switch());
  }
  std::vector<std::uint32_t> degree(num_switches, 0);
  std::set<std::pair<std::uint32_t, std::uint32_t>> used;

  auto link = [&](std::uint32_t a, std::uint32_t b) {
    net.add_link(sws[a], sws[b]);
    ++degree[a];
    ++degree[b];
    used.insert(std::minmax(a, b));
  };

  // Random spanning tree over a random order: attach each new switch to a
  // uniformly chosen earlier switch that still has a free port.
  std::vector<std::uint32_t> order(num_switches);
  std::iota(order.begin(), order.end(), 0U);
  rng.shuffle(order);
  for (std::uint32_t i = 1; i < num_switches; ++i) {
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t j = 0; j < i; ++j) {
      if (degree[order[j]] < max_inter_switch_ports) {
        candidates.push_back(order[j]);
      }
    }
    if (candidates.empty()) {
      throw std::runtime_error("random: port budget prevents spanning tree");
    }
    link(order[i], candidates[rng.next_below(candidates.size())]);
  }

  // Extra random links. Prefer simple edges; fall back to parallel links
  // when the remaining port budget admits nothing else.
  std::uint32_t remaining = num_links - (num_switches - 1);
  std::uint32_t stuck = 0;
  while (remaining > 0) {
    std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(num_switches));
    std::uint32_t b = static_cast<std::uint32_t>(rng.next_below(num_switches));
    bool ok = a != b && degree[a] < max_inter_switch_ports &&
              degree[b] < max_inter_switch_ports;
    if (ok && used.count(std::minmax(a, b)) > 0 && stuck < 200) {
      ok = false;  // avoid parallel links until we look stuck
    }
    if (!ok) {
      if (++stuck > 100000) {
        throw std::runtime_error("random: cannot place requested links");
      }
      continue;
    }
    stuck = 0;
    link(a, b);
    --remaining;
  }

  for (NodeId sw : sws) {
    for (std::uint32_t t = 0; t < terminals_per_switch; ++t) {
      net.add_terminal(sw);
    }
  }
  TopologyMeta meta;
  meta.family = "random";
  return finish("random-" + std::to_string(num_switches) + "sw-" +
                    std::to_string(num_links) + "l",
                std::move(net), std::move(meta));
}

Topology make_random_regular(std::uint32_t num_switches, std::uint32_t degree,
                             std::uint32_t terminals_per_switch,
                             std::uint64_t seed) {
  if (num_switches < 3) {
    throw std::invalid_argument("random-regular: >= 3 switches");
  }
  if (degree < 2 || degree % 2 != 0) {
    throw std::invalid_argument("random-regular: degree must be even >= 2");
  }
  Network net;
  std::vector<NodeId> sws;
  sws.reserve(num_switches);
  for (std::uint32_t i = 0; i < num_switches; ++i) {
    sws.push_back(net.add_switch());
  }
  for (std::uint32_t i = 0; i < num_switches; ++i) {
    net.add_link(sws[i], sws[(i + 1) % num_switches]);
  }
  for (std::uint32_t round = 1; round < degree / 2; ++round) {
    const IndexPermutation perm(num_switches,
                                random_regular_round_seed(seed, round));
    for (std::uint32_t i = 0; i < num_switches; ++i) {
      const std::uint64_t j = perm(i);
      if (j != i) net.add_link(sws[i], sws[checked_u32(j, "rrg peer")]);
    }
  }
  for (NodeId sw : sws) {
    for (std::uint32_t t = 0; t < terminals_per_switch; ++t) {
      net.add_terminal(sw);
    }
  }
  TopologyMeta meta;
  meta.family = "random-regular";
  return finish("random-regular-" + std::to_string(num_switches) + "x" +
                    std::to_string(degree) + "-s" + std::to_string(seed),
                std::move(net), std::move(meta));
}

Topology make_clos2(std::uint32_t num_leaves, std::uint32_t num_spines,
                    std::uint32_t links_per_pair,
                    std::uint32_t terminals_per_leaf) {
  Network net;
  TopologyMeta meta;
  std::vector<NodeId> leaves, spines;
  for (std::uint32_t i = 0; i < num_leaves; ++i) {
    leaves.push_back(net.add_switch("leaf" + std::to_string(i)));
    meta.sw_level.push_back(0);
  }
  for (std::uint32_t i = 0; i < num_spines; ++i) {
    spines.push_back(net.add_switch("spine" + std::to_string(i)));
    meta.sw_level.push_back(1);
  }
  for (NodeId leaf : leaves) {
    for (NodeId spine : spines) {
      for (std::uint32_t l = 0; l < links_per_pair; ++l) {
        net.add_link(leaf, spine);
      }
    }
  }
  for (NodeId leaf : leaves) {
    for (std::uint32_t t = 0; t < terminals_per_leaf; ++t) {
      net.add_terminal(leaf);
    }
  }
  meta.family = "clos";
  return finish("clos2-" + std::to_string(num_leaves) + "x" +
                    std::to_string(num_spines),
                std::move(net), std::move(meta));
}

Topology make_dragonfly(std::uint32_t a, std::uint32_t p, std::uint32_t h,
                        std::uint32_t g) {
  if (a * h != g - 1) {
    throw std::invalid_argument(
        "dragonfly: balanced layout requires a*h == g-1");
  }
  Network net;
  std::vector<std::vector<NodeId>> sws(g, std::vector<NodeId>(a));
  for (std::uint32_t grp = 0; grp < g; ++grp) {
    for (std::uint32_t i = 0; i < a; ++i) {
      sws[grp][i] =
          net.add_switch("g" + std::to_string(grp) + ".s" + std::to_string(i));
    }
    for (std::uint32_t i = 0; i < a; ++i) {
      for (std::uint32_t j = i + 1; j < a; ++j) {
        net.add_link(sws[grp][i], sws[grp][j]);
      }
    }
  }
  // Global links: switch i, global port j of group x handles group offset
  // o = i*h + j + 1 and connects to group (x + o) mod g, where the peer is
  // the switch handling the complementary offset g - o. Added once (x < y
  // ordering resolved via o <= g/2 with tie handling).
  for (std::uint32_t x = 0; x < g; ++x) {
    for (std::uint32_t i = 0; i < a; ++i) {
      for (std::uint32_t j = 0; j < h; ++j) {
        std::uint32_t o = i * h + j + 1;
        std::uint32_t y = (x + o) % g;
        std::uint32_t back = g - o;
        std::uint32_t peer_slot = back - 1;
        std::uint32_t pi = peer_slot / h;
        // Add each global link once: from the side with the smaller offset,
        // or for the symmetric middle offset from the smaller group id.
        if (o < back || (o == back && x < y)) {
          net.add_link(sws[x][i], sws[y][pi]);
        }
      }
    }
  }
  for (std::uint32_t grp = 0; grp < g; ++grp) {
    for (std::uint32_t i = 0; i < a; ++i) {
      for (std::uint32_t t = 0; t < p; ++t) net.add_terminal(sws[grp][i]);
    }
  }
  TopologyMeta meta;
  meta.family = "dragonfly";
  return finish("dragonfly-a" + std::to_string(a) + "p" + std::to_string(p) +
                    "h" + std::to_string(h) + "g" + std::to_string(g),
                std::move(net), std::move(meta));
}

Topology make_hyperx(std::span<const std::uint32_t> dims,
                     std::uint32_t terminals_per_switch) {
  if (dims.empty()) throw std::invalid_argument("hyperx: no dimensions");
  std::uint64_t total = 1;
  for (std::uint32_t d : dims) {
    if (d < 2) throw std::invalid_argument("hyperx: dimension radix < 2");
    total *= d;
  }
  Network net;
  std::vector<NodeId> sws(total);
  for (std::uint64_t i = 0; i < total; ++i) sws[i] = net.add_switch();

  auto coord_of = [&](std::uint64_t idx, std::size_t dim) {
    for (std::size_t d = 0; d < dim; ++d) idx /= dims[d];
    return checked_u32(idx % dims[dim], "hyperx coord");
  };
  // Full connectivity along each axis line: link to every higher coordinate
  // in the same dimension (each unordered pair once).
  for (std::uint64_t i = 0; i < total; ++i) {
    std::uint64_t stride = 1;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      const std::uint32_t c = coord_of(i, d);
      for (std::uint32_t other = c + 1; other < dims[d]; ++other) {
        net.add_link(sws[i], sws[i + static_cast<std::uint64_t>(other - c) * stride]);
      }
      stride *= dims[d];
    }
  }
  for (NodeId sw : sws) {
    for (std::uint32_t t = 0; t < terminals_per_switch; ++t) {
      net.add_terminal(sw);
    }
  }
  TopologyMeta meta;
  meta.family = "hyperx";
  meta.dims.assign(dims.begin(), dims.end());
  meta.sw_coord.resize(total * dims.size());
  for (std::uint64_t i = 0; i < total; ++i) {
    for (std::size_t d = 0; d < dims.size(); ++d) {
      meta.sw_coord[i * dims.size() + d] = coord_of(i, d);
    }
  }
  std::string name = "hyperx";
  for (std::uint32_t d : dims) name += "-" + std::to_string(d);
  return finish(std::move(name), std::move(net), std::move(meta));
}

Topology make_fully_connected(std::uint32_t num_switches,
                              std::uint32_t terminals_per_switch) {
  if (num_switches < 2) throw std::invalid_argument("complete: >= 2 switches");
  Network net;
  std::vector<NodeId> sws;
  for (std::uint32_t i = 0; i < num_switches; ++i) {
    sws.push_back(net.add_switch());
  }
  for (std::uint32_t i = 0; i < num_switches; ++i) {
    for (std::uint32_t j = i + 1; j < num_switches; ++j) {
      net.add_link(sws[i], sws[j]);
    }
  }
  for (NodeId sw : sws) {
    for (std::uint32_t t = 0; t < terminals_per_switch; ++t) {
      net.add_terminal(sw);
    }
  }
  TopologyMeta meta;
  meta.family = "complete";
  return finish("complete-" + std::to_string(num_switches), std::move(net),
                std::move(meta));
}

// ---- real-system stand-ins --------------------------------------------------

Topology make_odin() {
  // One 144-port switch, modeled as 12 leaf chips x 12 external ports with
  // 12 spine chips (single links) so the internal Clos is non-blocking and
  // down-paths are unique (the OpenSM fat-tree engine handles Odin).
  Network net;
  TopologyMeta meta;
  std::vector<NodeId> leaves, spines;
  for (std::uint32_t i = 0; i < 12; ++i) {
    leaves.push_back(net.add_switch("odin.leaf" + std::to_string(i)));
    meta.sw_level.push_back(0);
  }
  for (std::uint32_t i = 0; i < 12; ++i) {
    spines.push_back(net.add_switch("odin.spine" + std::to_string(i)));
    meta.sw_level.push_back(1);
  }
  for (NodeId leaf : leaves) {
    for (NodeId spine : spines) net.add_link(leaf, spine);
  }
  attach_round_robin(net, leaves, 128);
  meta.family = "real/odin";
  return finish("odin", std::move(net), std::move(meta));
}

Topology make_chic() {
  // 550 nodes on 24-port leaf switches (18 down + 6 up), core = one
  // 288-port director modeled as a chip-level Clos.
  Network net;
  TopologyMeta meta;
  BigSwitch core = make_big_switch(net, /*num_chips=*/24, /*num_spines=*/12,
                                   "chic.core");
  const std::uint32_t num_leaves = 31;
  std::vector<NodeId> leaves;
  for (std::uint32_t i = 0; i < num_leaves; ++i) {
    leaves.push_back(net.add_switch("chic.leaf" + std::to_string(i)));
  }
  for (NodeId leaf : leaves) {
    for (std::uint32_t u = 0; u < 6; ++u) net.add_link(leaf, core.next_port());
  }
  std::uint32_t remaining = 550;
  for (NodeId leaf : leaves) {
    std::uint32_t here = std::min<std::uint32_t>(18, remaining);
    for (std::uint32_t t = 0; t < here; ++t) net.add_terminal(leaf);
    remaining -= here;
  }
  meta.family = "real/chic";
  return finish("chic", std::move(net), std::move(meta));
}

Topology make_deimos() {
  // Three 288-port directors in a chain, 30 parallel links between
  // neighbors (paper Figure 11); 724 endpoints split 248/228/248.
  Network net;
  TopologyMeta meta;
  std::vector<BigSwitch> bigs;
  for (std::uint32_t i = 0; i < 3; ++i) {
    // ISR-9288-class directors were commonly run with a partially populated
    // spine stage: 2:1 internal oversubscription (12 external ports per
    // chip, 6 spine links). This internal contention is what the paper's
    // Netgauge measurements expose and global balancing mitigates.
    bigs.push_back(make_big_switch(net, /*num_chips=*/24, /*num_spines=*/6,
                                   "deimos.sw" + std::to_string(i)));
  }
  for (std::uint32_t pair = 0; pair < 2; ++pair) {
    for (std::uint32_t l = 0; l < 30; ++l) {
      net.add_link(bigs[pair].next_port(), bigs[pair + 1].next_port());
    }
  }
  const std::uint32_t terminals[3] = {248, 228, 248};
  for (std::uint32_t i = 0; i < 3; ++i) {
    for (std::uint32_t t = 0; t < terminals[i]; ++t) {
      net.add_terminal(bigs[i].next_port());
    }
  }
  meta.family = "real/deimos";
  return finish("deimos", std::move(net), std::move(meta));
}

Topology make_tsubame() {
  // 1430-node configuration: six oversubscribed 288-port edge directors
  // (about 239 nodes and 48 uplinks each) under two core directors.
  Network net;
  TopologyMeta meta;
  std::vector<BigSwitch> edges;
  for (std::uint32_t i = 0; i < 6; ++i) {
    edges.push_back(make_big_switch(net, 24, 6, "tsubame.edge" + std::to_string(i)));
  }
  std::vector<BigSwitch> cores;
  for (std::uint32_t i = 0; i < 2; ++i) {
    cores.push_back(make_big_switch(net, 24, 12, "tsubame.core" + std::to_string(i)));
  }
  for (auto& edge : edges) {
    for (auto& core : cores) {
      for (std::uint32_t l = 0; l < 24; ++l) {
        net.add_link(edge.next_port(), core.next_port());
      }
    }
  }
  const std::uint32_t terminals[6] = {239, 239, 238, 238, 238, 238};
  for (std::uint32_t i = 0; i < 6; ++i) {
    for (std::uint32_t t = 0; t < terminals[i]; ++t) {
      net.add_terminal(edges[i].next_port());
    }
  }
  meta.family = "real/tsubame";
  return finish("tsubame", std::move(net), std::move(meta));
}

Topology make_juropa() {
  // 3288 nodes: 137 36-port leaf switches (24 nodes + 12 uplinks), one link
  // to each of 12 M9-class cores (modeled as abstract high-radix switches).
  Network net;
  TopologyMeta meta;
  std::vector<NodeId> cores, leaves;
  const std::uint32_t num_leaves = 137, num_cores = 12;
  for (std::uint32_t i = 0; i < num_leaves; ++i) {
    leaves.push_back(net.add_switch("juropa.leaf" + std::to_string(i)));
    meta.sw_level.push_back(0);
  }
  for (std::uint32_t i = 0; i < num_cores; ++i) {
    cores.push_back(net.add_switch("juropa.core" + std::to_string(i)));
    meta.sw_level.push_back(1);
  }
  for (NodeId leaf : leaves) {
    for (NodeId core : cores) net.add_link(leaf, core);
  }
  std::uint32_t remaining = 3288;
  for (NodeId leaf : leaves) {
    std::uint32_t here = std::min<std::uint32_t>(24, remaining);
    for (std::uint32_t t = 0; t < here; ++t) net.add_terminal(leaf);
    remaining -= here;
  }
  meta.family = "real/juropa";
  return finish("juropa", std::move(net), std::move(meta));
}

Topology make_ranger() {
  // 3936 nodes: 328 chassis NEMs (12 nodes each) with uplinks to two Magnum
  // directors (abstract high-radix switches). The production machine was
  // notoriously irregularly cabled (depopulated and failed uplinks), which
  // is where the paper's large DFSSSP gain comes from; the stand-in models
  // that with a deterministic mix of 4+4, 2+2 and single-rail NEMs.
  Network net;
  TopologyMeta meta;
  // Each Magnum is itself a chip-level Clos (110 leaf chips x 12 external
  // ports feed the 1312 used ports, 12 spine chips).
  BigSwitch magnumA = make_big_switch(net, 110, 12, "ranger.magnumA");
  BigSwitch magnumB = make_big_switch(net, 110, 12, "ranger.magnumB");
  const std::uint32_t num_nems = 328;
  for (std::uint32_t i = 0; i < num_nems; ++i) {
    NodeId nem = net.add_switch("ranger.nem" + std::to_string(i));
    std::uint32_t to_a = 4, to_b = 4;
    switch (i % 8) {
      case 1: to_a = 2; to_b = 2; break;  // depopulated chassis
      case 3: to_a = 4; to_b = 1; break;  // B-rail mostly dark
      case 5: to_a = 1; to_b = 4; break;  // A-rail mostly dark
      case 6: to_a = 3; to_b = 2; break;  // failed cables
      default: break;
    }
    for (std::uint32_t l = 0; l < to_a; ++l) {
      net.add_link(nem, magnumA.next_port());
    }
    for (std::uint32_t l = 0; l < to_b; ++l) {
      net.add_link(nem, magnumB.next_port());
    }
    for (std::uint32_t t = 0; t < 12; ++t) net.add_terminal(nem);
  }
  meta.family = "real/ranger";
  return finish("ranger", std::move(net), std::move(meta));
}

std::vector<Topology> make_all_real_systems() {
  std::vector<Topology> all;
  all.push_back(make_odin());
  all.push_back(make_chic());
  all.push_back(make_deimos());
  all.push_back(make_tsubame());
  all.push_back(make_juropa());
  all.push_back(make_ranger());
  return all;
}

}  // namespace dfsssp
