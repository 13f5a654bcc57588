#include "cdg/online.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace dfsssp {

namespace {

constexpr std::size_t kMinSlots = 16;

void insert_sorted(std::vector<ChannelId>& list, ChannelId c) {
  list.insert(std::lower_bound(list.begin(), list.end(), c), c);
}

void erase_sorted(std::vector<ChannelId>& list, ChannelId c) {
  auto it = std::lower_bound(list.begin(), list.end(), c);
  assert(it != list.end() && *it == c);
  list.erase(it);
}

}  // namespace

OnlineCdg::OnlineCdg(std::uint32_t num_channels)
    : slots_(kMinSlots), mask_(kMinSlots - 1),
      shift_(64 - static_cast<unsigned>(std::countr_zero(kMinSlots))),
      out_(num_channels), in_(num_channels), ord_(num_channels),
      mark_(num_channels, kUnmarked) {
  for (std::uint32_t i = 0; i < num_channels; ++i) ord_[i] = i;
}

std::size_t OnlineCdg::probe(ChannelId u, ChannelId v) const {
  std::size_t i = home(u, v);
  while (slots_[i].u != kInvalidChannel &&
         (slots_[i].u != u || slots_[i].v != v)) {
    i = (i + 1) & mask_;
  }
  return i;
}

void OnlineCdg::store(std::size_t i, ChannelId u, ChannelId v,
                      std::uint32_t val) {
  if (slots_[i].u != kInvalidChannel) {
    slots_[i].val = val;
    return;
  }
  slots_[i] = {u, v, val};
  if (++occupied_ * 4 > slots_.size() * 3) rehash(/*keep_rejects=*/true);
}

void OnlineCdg::vacate(std::size_t i) {
  // Backward shift: pull each later entry of the run into the hole unless
  // its home lies cyclically after the hole (then it must stay put).
  for (std::size_t j = (i + 1) & mask_; slots_[j].u != kInvalidChannel;
       j = (j + 1) & mask_) {
    const std::size_t h = home(slots_[j].u, slots_[j].v);
    if (((j - h) & mask_) >= ((j - i) & mask_)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = {};
  --occupied_;
}

void OnlineCdg::rehash(bool keep_rejects) {
  const std::uint32_t current = kRejectBit | generation_;
  auto live = [&](const Slot& s) {
    return s.u != kInvalidChannel &&
           (s.val < kRejectBit || (keep_rejects && s.val == current));
  };
  occupied_ = static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(), live));
  std::size_t size = kMinSlots;
  while (size < 2 * occupied_) size *= 2;
  const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(size));
  mask_ = size - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  for (const Slot& s : old) {
    if (live(s)) slots_[probe(s.u, s.v)] = s;
  }
}

bool OnlineCdg::has_edge(ChannelId u, ChannelId v) const {
  const Slot& s = slots_[probe(u, v)];
  return s.u != kInvalidChannel && s.val < kRejectBit;
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
  const std::size_t i = probe(u, v);
  Slot& s = slots_[i];
  const bool in_table = s.u != kInvalidChannel;
  if (in_table && s.val < kRejectBit) {  // already present, one more path
    assert(s.val < kRejectBit - 1);
    ++s.val;
    return true;
  }
  if (in_table && s.val == (kRejectBit | generation_)) {
    assert(ord_[u] > ord_[v]);  // v ~> u is in the graph
    ++num_cache_rejects_;
    return false;
  }
  // Absent, or a stale reject whose slot the pair takes back. reorder()
  // leaves the table alone, so slot `i` stays valid across it.
  if (ord_[u] > ord_[v] && !reorder(u, v)) {
    if (may_cache) store(i, u, v, kRejectBit | generation_);
    return false;
  }
  insert_sorted(out_[u], v);
  insert_sorted(in_[v], u);
  ++num_edges_;
  ++num_insertions_;
  store(i, u, v, 1);
  return true;
}

bool OnlineCdg::remove_edge(ChannelId u, ChannelId v) {
  const std::size_t i = probe(u, v);
  assert(slots_[i].u != kInvalidChannel && slots_[i].val < kRejectBit);
  if (--slots_[i].val > 0) return false;
  vacate(i);
  erase_sorted(out_[u], v);
  erase_sorted(in_[v], u);
  --num_edges_;
  return true;
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
      for (const ChannelId x : out_[w]) {
        if (mark_[x] == kBackward) {
          cycle = true;
          break;
        }
        if (mark_[x] == kUnmarked && ord_[x] < ub) {
          mark_[x] = kForward;
          fwd_.push_back(x);
        }
      }
    }
    if (!cycle && bi < bwd_.size()) {
      const ChannelId w = bwd_[bi++];
      ++num_search_visits_;
      for (const ChannelId x : in_[w]) {
        if (mark_[x] == kForward) {
          cycle = true;
          break;
        }
        if (mark_[x] == kUnmarked && ord_[x] > lb) {
          mark_[x] = kBackward;
          bwd_.push_back(x);
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

bool OnlineCdg::try_add_path(std::span<const ChannelId> channels,
                             std::uint64_t group_start) {
  std::size_t added = 0;
  bool ok = true;
  for (std::size_t i = 0; i + 1 < channels.size(); ++i) {
    if (!add_edge(channels[i], channels[i + 1],
                  num_insertions_ == group_start)) {
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
  // A vanished edge may have been on a cached reject's witness path: every
  // reject recorded so far goes stale. At the wrap, generation 0 would read
  // entries written 2^31 generations ago as current, so all are dropped.
  if (edge_gone) {
    generation_ = (generation_ + 1) & (kRejectBit - 1);
    if (generation_ == 0) rehash(/*keep_rejects=*/false);
  }
  --num_paths_;
}

void OnlineCdg::roll_back_group(
    std::span<const std::span<const ChannelId>> paths) {
  for (std::span<const ChannelId> path : paths) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      remove_edge(path[i], path[i + 1]);
    }
    --num_paths_;
  }
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
    const std::uint64_t start = cdg.num_insertions();
    std::size_t taken = 0;
    while (taken < group.size() && cdg.try_add_path(group[taken], start)) {
      ++taken;
    }
    if (taken == group.size()) return l;
    cdg.roll_back_group(group.first(taken));
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
