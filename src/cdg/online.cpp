#include "cdg/online.hpp"

#include <algorithm>
#include <cassert>

namespace dfsssp {

namespace {

/// Sorted-adjacency lookup; returns index or size() when absent.
std::size_t find_adj(const std::vector<OnlineCdg::Adj>& list, ChannelId to);

}  // namespace

OnlineCdg::OnlineCdg(std::uint32_t num_channels)
    : out_(num_channels), in_(num_channels), ord_(num_channels),
      mark_(num_channels, kUnmarked) {
  for (std::uint32_t i = 0; i < num_channels; ++i) ord_[i] = i;
}

namespace {

std::size_t find_adj(const std::vector<OnlineCdg::Adj>& list, ChannelId to) {
  auto it = std::lower_bound(
      list.begin(), list.end(), to,
      [](const OnlineCdg::Adj& a, ChannelId t) { return a.to < t; });
  if (it == list.end() || it->to != to) return list.size();
  return static_cast<std::size_t>(it - list.begin());
}

void insert_adj(std::vector<OnlineCdg::Adj>& list, ChannelId to) {
  auto it = std::lower_bound(
      list.begin(), list.end(), to,
      [](const OnlineCdg::Adj& a, ChannelId t) { return a.to < t; });
  list.insert(it, {to, 1});
}

void erase_adj(std::vector<OnlineCdg::Adj>& list, ChannelId to) {
  std::size_t i = find_adj(list, to);
  assert(i < list.size());
  if (--list[i].refcount == 0) {
    list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

}  // namespace

bool OnlineCdg::has_edge(ChannelId u, ChannelId v) const {
  return find_adj(out_[u], v) < out_[u].size();
}

std::vector<ChannelId> OnlineCdg::topological_order() const {
  std::vector<ChannelId> order;
  for (ChannelId c = 0; c < out_.size(); ++c) {
    if (!out_[c].empty() || !in_[c].empty()) order.push_back(c);
  }
  std::sort(order.begin(), order.end(),
            [&](ChannelId a, ChannelId b) { return ord_[a] < ord_[b]; });
  return order;
}

bool OnlineCdg::add_edge(ChannelId u, ChannelId v, bool may_cache) {
  if (u == v) return false;
  std::size_t i = find_adj(out_[u], v);
  if (i < out_[u].size()) {  // already present, just bump refcounts
    ++out_[u][i].refcount;
    ++in_[v][find_adj(in_[v], u)].refcount;
    return true;
  }
  if (ord_[u] > ord_[v]) {
    const std::uint64_t key = std::uint64_t{u} << 32 | v;
    if (rejected_.contains(key)) {
      ++num_cache_rejects_;
      return false;
    }
    if (!reorder(u, v)) {
      if (may_cache) rejected_.insert(key);
      return false;
    }
  }
  insert_adj(out_[u], v);
  insert_adj(in_[v], u);
  ++num_edges_;
  ++num_insertions_;
  return true;
}

bool OnlineCdg::remove_edge(ChannelId u, ChannelId v) {
  const bool last = out_[u][find_adj(out_[u], v)].refcount == 1;
  erase_adj(out_[u], v);
  erase_adj(in_[v], u);
  if (last) --num_edges_;
  return last;
}

bool OnlineCdg::reorder(ChannelId u, ChannelId v) {
  ++num_reorders_;
  // Because every existing edge (a,b) satisfies ord_[a] < ord_[b], any
  // directed path has strictly increasing order values; both searches stay
  // inside the affected window [ord_[v], ord_[u]] automatically.
  const std::uint32_t ub = ord_[u];
  const std::uint32_t lb = ord_[v];

  // Two-way search, one node per side per turn: forward from v (order
  // below ub), backward from u (order above lb). The visited lists double
  // as the BFS queues. A node reached from both sides lies on a path
  // v ~> u, so (u,v) would close a cycle. The other side's mark is tested
  // before the order bound because u and v sit exactly on the bounds.
  fwd_.assign(1, v);
  bwd_.assign(1, u);
  mark_[v] = kForward;
  mark_[u] = kBackward;
  std::size_t fi = 0, bi = 0;
  bool cycle = false;
  while (!cycle && (fi < fwd_.size() || bi < bwd_.size())) {
    if (fi < fwd_.size()) {
      const ChannelId w = fwd_[fi++];
      ++num_search_visits_;
      for (const Adj& a : out_[w]) {
        if (mark_[a.to] == kBackward) {
          cycle = true;
          break;
        }
        if (mark_[a.to] == kUnmarked && ord_[a.to] < ub) {
          mark_[a.to] = kForward;
          fwd_.push_back(a.to);
        }
      }
    }
    if (!cycle && bi < bwd_.size()) {
      const ChannelId w = bwd_[bi++];
      ++num_search_visits_;
      for (const Adj& a : in_[w]) {
        if (mark_[a.to] == kForward) {
          cycle = true;
          break;
        }
        if (mark_[a.to] == kUnmarked && ord_[a.to] > lb) {
          mark_[a.to] = kBackward;
          bwd_.push_back(a.to);
        }
      }
    }
  }
  for (ChannelId w : fwd_) mark_[w] = kUnmarked;
  for (ChannelId w : bwd_) mark_[w] = kUnmarked;
  if (cycle) {
    ++num_cycle_rejects_;
    return false;
  }

  // Without a meet both searches ran to completion, so fwd_ and bwd_ are
  // exactly the forward and backward regions, whatever the visit order.
  // Reassign the union's order slots: the backward region (ending in u)
  // first, then the forward region (starting at v).
  auto by_ord = [this](ChannelId a, ChannelId b) { return ord_[a] < ord_[b]; };
  std::sort(fwd_.begin(), fwd_.end(), by_ord);
  std::sort(bwd_.begin(), bwd_.end(), by_ord);
  pool_.clear();
  for (ChannelId w : fwd_) pool_.push_back(ord_[w]);
  for (ChannelId w : bwd_) pool_.push_back(ord_[w]);
  std::sort(pool_.begin(), pool_.end());
  std::size_t idx = 0;
  for (ChannelId w : bwd_) ord_[w] = pool_[idx++];
  for (ChannelId w : fwd_) ord_[w] = pool_[idx++];
  return true;
}

bool OnlineCdg::try_add_path(std::span<const ChannelId> channels) {
  const std::uint64_t committed = num_insertions_;
  std::size_t added = 0;
  bool ok = true;
  for (std::size_t i = 0; i + 1 < channels.size(); ++i) {
    if (!add_edge(channels[i], channels[i + 1],
                  num_insertions_ == committed)) {
      ok = false;
      break;
    }
    ++added;
  }
  if (!ok) {
    for (std::size_t i = 0; i < added; ++i) {
      remove_edge(channels[i], channels[i + 1]);
    }
    return false;
  }
  ++num_paths_;
  return true;
}

void OnlineCdg::remove_path(std::span<const ChannelId> channels) {
  bool edge_gone = false;
  for (std::size_t i = 0; i + 1 < channels.size(); ++i) {
    edge_gone |= remove_edge(channels[i], channels[i + 1]);
  }
  // A vanished edge may have been on a cached reject's witness path. The
  // empty() test matters: clear() zeroes every bucket even when empty, and
  // retraction removes thousands of paths per repair.
  if (edge_gone && !rejected_.empty()) rejected_.clear();
  --num_paths_;
}

// One path at a time is the hot case (DFSSSP online, repairs); routed
// through the group loop below, its first-fit ran ~5% slower (Figure 9
// fabrics, GCC 12 -O3, x86-64).
Layer FirstFitLayerer::place(std::span<const ChannelId> path) {
  for (Layer l = 0; l < max_layers_; ++l) {
    if (l == layers_.size()) layers_.emplace_back(num_channels_);
    ++attempts_;
    if (layers_[l].try_add_path(path)) return l;
  }
  return kInvalidLayer;
}

Layer FirstFitLayerer::place(
    std::span<const std::span<const ChannelId>> group) {
  for (Layer l = 0; l < max_layers_; ++l) {
    if (l == layers_.size()) layers_.emplace_back(num_channels_);
    ++attempts_;
    OnlineCdg& cdg = layers_[l];
    std::size_t taken = 0;
    while (taken < group.size() && cdg.try_add_path(group[taken])) ++taken;
    if (taken == group.size()) return l;
    while (taken > 0) cdg.remove_path(group[--taken]);
  }
  return kInvalidLayer;
}

Layer FirstFitLayerer::layers_used() const {
  std::size_t used = layers_.size();
  while (used > 1 && layers_[used - 1].num_paths() == 0) --used;
  return static_cast<Layer>(std::max<std::size_t>(used, 1));
}

std::vector<ChannelId> FirstFitLayerer::topological_order(Layer layer) const {
  if (layer >= layers_.size()) return {};
  return layers_[layer].topological_order();
}

FirstFitLayerer::Work FirstFitLayerer::work() const {
  Work w;
  w.attempts = attempts_;
  for (const OnlineCdg& cdg : layers_) {
    w.insertions += cdg.num_insertions();
    w.reorders += cdg.num_reorders();
    w.search_visits += cdg.num_search_visits();
    w.cycle_rejects += cdg.num_cycle_rejects();
    w.cache_rejects += cdg.num_cache_rejects();
  }
  return w;
}

}  // namespace dfsssp
