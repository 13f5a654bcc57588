#include "analysis/certificate.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <queue>
#include <span>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/dump.hpp"

namespace dfsssp {

namespace {

/// The switch index of a channel end that is a terminal.
constexpr std::uint32_t kNoSwitch = std::numeric_limits<std::uint32_t>::max();

std::string channel_name(const Network& net, ChannelId c) {
  const Channel& ch = net.channel(c);
  return net.node_name(ch.src) + "->" + net.node_name(ch.dst);
}

// ---- the maker --------------------------------------------------------------

/// The channels as the maker's walk sees them, and the slot numbering of a
/// layer's dependency set. A dependency (u, v) has u entering some switch w
/// and v leaving it toward a switch; its slot is u's first slot plus v's
/// position among w's physical switch-bound out-channels (physical, because
/// a table may still name a dead channel). One bit per slot is then a
/// layer's whole adjacency: u's successors are the set bits of u's slot
/// range, in the order of w's out-channels.
struct PairSlots {
  std::vector<std::uint32_t> tail;        // per channel: source switch index
  std::vector<std::uint32_t> head;        // per channel: target switch index
  std::vector<std::uint32_t> out_pos;     // per channel: index at its tail
  std::vector<std::uint32_t> out_first;   // per switch index, + 1
  std::vector<ChannelId> out;             // switch-bound out-channels
  std::vector<std::uint64_t> first_slot;  // per channel, + 1

  explicit PairSlots(const Network& net);

  std::uint64_t num_words() const { return (first_slot.back() + 63) / 64; }
  std::uint64_t slot(ChannelId u, ChannelId v) const {
    return first_slot[u] + out_pos[v];
  }
};

PairSlots::PairSlots(const Network& net) {
  const std::size_t num_channels = net.num_channels();
  const std::size_t num_switches = net.num_switches();
  auto switch_index = [&](NodeId n) {
    return net.is_switch(n) ? net.node(n).type_index : kNoSwitch;
  };
  tail.resize(num_channels);
  head.resize(num_channels);
  for (ChannelId c = 0; c < num_channels; ++c) {
    tail[c] = switch_index(net.channel(c).src);
    head[c] = switch_index(net.channel(c).dst);
  }
  out_pos.assign(num_channels, 0);
  out_first.assign(num_switches + 1, 0);
  for (std::uint32_t i = 0; i < num_switches; ++i) {
    std::uint32_t k = 0;
    for (ChannelId c : net.out_channels_all(net.switch_by_index(i))) {
      if (head[c] == kNoSwitch) continue;
      out_pos[c] = k++;
      out.push_back(c);
    }
    out_first[i + 1] = out_first[i] + k;
  }
  first_slot.assign(num_channels + 1, 0);
  for (ChannelId c = 0; c < num_channels; ++c) {
    const std::uint32_t h = head[c];
    const bool between_switches = tail[c] != kNoSwitch && h != kNoSwitch;
    const std::uint32_t degree =
        between_switches ? out_first[h + 1] - out_first[h] : 0;
    first_slot[c + 1] = first_slot[c] + degree;
  }
}

/// One thread's share of the walks: per layer value, the dependency bits of
/// the destinations it walked (empty for a layer it never met).
struct WalkShare {
  std::vector<std::vector<std::uint64_t>> bits;
  Layer max_layer = 0;
  std::uint64_t hops = 0;
};

[[noreturn]] void throw_broken(const Network& net, std::uint32_t src,
                               NodeId t, std::uint32_t at, const char* what) {
  throw std::runtime_error(
      "make_certificate: broken forwarding path " +
      net.node_name(net.switch_by_index(src)) + " -> " + net.node_name(t) +
      " (" + what + " at " + net.node_name(net.switch_by_index(at)) + ")");
}

/// Walks the paths toward terminals [first, last). Per destination the
/// sources (switch indices) are taken layer by layer, and a walk stops at
/// the first switch an earlier walk of the same layer passed: from there on
/// the path is the one that walk already marked.
WalkShare walk_destinations(const Network& net, const RoutingTable& table,
                            const PairSlots& slots,
                            std::span<const std::uint32_t> sources,
                            std::size_t first, std::size_t last) {
  const std::size_t num_switches = net.num_switches();
  const std::uint32_t num_channels =
      static_cast<std::uint32_t>(net.num_channels());
  WalkShare share;
  share.bits.resize(kInvalidLayer);
  // Stamp of the last walk through each switch. Stamps only grow, so a
  // switch carries the current (destination, layer) group iff its mark is
  // above the group's base, and the current walk was there iff the mark
  // is the walk's own stamp.
  std::vector<std::uint64_t> mark(num_switches, 0);
  std::uint64_t stamp = 0;
  std::uint64_t hops = 0;
  std::vector<ChannelId> next(num_switches);  // the destination's column
  // 32 bits wide: a one-byte store may alias anything, which would make
  // every later table read reload.
  std::vector<std::uint32_t> src_layer(sources.size());
  std::vector<std::uint32_t> by_layer;
  std::array<std::uint32_t, kInvalidLayer> end{};
  for (std::size_t ti = first; ti < last; ++ti) {
    const NodeId t = net.terminal_by_index(static_cast<std::uint32_t>(ti));
    if (!net.terminal_alive(t)) continue;
    const std::uint32_t dst = net.node(net.switch_of(t)).type_index;
    for (std::uint32_t i = 0; i < num_switches; ++i) {
      next[i] = table.next(net.switch_by_index(i), t);
    }

    // Counting sort of the sources by layer; stable, so each layer's group
    // keeps source order. Afterwards end[l] is one past group l.
    std::uint32_t top = 0;  // one past the highest layer seen
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (sources[i] == dst) continue;
      const Layer l = table.layer(net.switch_by_index(sources[i]), t);
      if (l == kInvalidLayer) {
        throw std::runtime_error(
            "make_certificate: path " +
            net.node_name(net.switch_by_index(sources[i])) + " -> " +
            net.node_name(t) + " has no layer");
      }
      for (; top <= l; ++top) end[top] = 0;
      src_layer[i] = l;
      ++end[l];
    }
    std::uint32_t total = 0;
    for (std::uint32_t l = 0; l < top; ++l) {
      total += end[l];
      end[l] = total - end[l];
    }
    by_layer.resize(total);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (sources[i] != dst) by_layer[end[src_layer[i]]++] = sources[i];
    }

    std::uint32_t begin = 0;
    for (std::uint32_t l = 0; l < top; ++l) {
      if (begin == end[l]) continue;
      share.max_layer = std::max(share.max_layer, static_cast<Layer>(l));
      std::vector<std::uint64_t>& bits = share.bits[l];
      if (bits.empty()) bits.assign(slots.num_words(), 0);
      const std::uint64_t group = stamp;
      for (; begin < end[l]; ++begin) {
        const std::uint32_t src = by_layer[begin];
        const std::uint64_t walk = ++stamp;
        ChannelId in = kInvalidChannel;
        std::uint32_t cur = src;
        for (;;) {
          std::uint64_t& seen = mark[cur];
          if (seen == walk) throw_broken(net, src, t, cur, "forwarding loop");
          const bool carried = seen > group;
          const ChannelId c = next[cur];
          ++hops;
          if (c >= num_channels) throw_broken(net, src, t, cur, "dead end");
          if (slots.tail[c] != cur) {
            throw_broken(net, src, t, cur, "next channel leaves another node");
          }
          if (slots.head[c] == kNoSwitch) {
            throw_broken(net, src, t, cur, "next channel enters a terminal");
          }
          if (in != kInvalidChannel) {
            const std::uint64_t s = slots.slot(in, c);
            bits[s / 64] |= std::uint64_t{1} << (s % 64);
          }
          if (carried) break;
          seen = walk;
          in = c;
          cur = slots.head[c];
          if (cur == dst) break;
        }
      }
    }
  }
  share.hops = hops;
  return share;
}

/// Canonical topological order of one layer's CDG: Kahn's algorithm with a
/// min-heap over channel ids, so the order depends only on the graph, never
/// on scheduling. Empty result + present nodes => the layer is cyclic.
struct LayerOrder {
  bool acyclic = true;
  std::vector<ChannelId> order;
};

LayerOrder order_one_layer(const Network& net, const PairSlots& slots,
                           std::span<const std::uint64_t> bits) {
  LayerOrder result;
  if (bits.empty()) return result;
  const std::uint32_t num_channels =
      static_cast<std::uint32_t>(net.num_channels());
  auto for_each_successor = [&](ChannelId u, auto&& visit) {
    const std::uint64_t first = slots.first_slot[u];
    const std::uint64_t last = slots.first_slot[u + 1];
    if (first == last) return;
    const ChannelId* out = slots.out.data() + slots.out_first[slots.head[u]];
    for (std::uint64_t s = first; s < last; ++s) {
      if ((bits[s / 64] >> (s % 64) & 1) != 0) visit(out[s - first]);
    }
  };

  std::vector<std::uint32_t> indegree(num_channels, 0);
  std::vector<std::uint8_t> present(num_channels, 0);
  for (ChannelId u = 0; u < num_channels; ++u) {
    for_each_successor(u, [&](ChannelId v) {
      ++indegree[v];
      present[u] = 1;
      present[v] = 1;
    });
  }
  std::uint32_t num_present = 0;
  std::priority_queue<ChannelId, std::vector<ChannelId>,
                      std::greater<ChannelId>>
      ready;
  for (ChannelId u = 0; u < num_channels; ++u) {
    if (!present[u]) continue;
    ++num_present;
    if (indegree[u] == 0) ready.push(u);
  }
  result.order.reserve(num_present);
  while (!ready.empty()) {
    const ChannelId u = ready.top();
    ready.pop();
    result.order.push_back(u);
    for_each_successor(u, [&](ChannelId v) {
      if (--indegree[v] == 0) ready.push(v);
    });
  }
  if (result.order.size() < num_present) {
    result.acyclic = false;
    result.order.clear();
  }
  return result;
}

}  // namespace

CertificateResult make_certificate(const Network& net,
                                   const RoutingTable& table,
                                   const ExecContext& exec) {
  obs::TraceSpan span("certificate/make");
  const PairSlots slots(net);
  std::vector<std::uint32_t> sources;
  for (NodeId sw : net.switches()) {
    if (net.terminals_on(sw) > 0 && net.switch_up(sw)) {
      sources.push_back(net.node(sw).type_index);
    }
  }

  // One block of destinations per thread, each with its own marks; the
  // blocks' bits are OR-merged, which no split can change.
  const std::size_t num_terminals = net.num_terminals();
  const std::size_t blocks = std::max<std::size_t>(
      1, std::min<std::size_t>(exec.num_threads(), num_terminals));
  std::vector<WalkShare> shares =
      parallel_map(exec, blocks, [&](std::size_t b) {
        return walk_destinations(net, table, slots, sources,
                                 b * num_terminals / blocks,
                                 (b + 1) * num_terminals / blocks);
      });
  WalkShare& all = shares.front();
  for (std::size_t b = 1; b < shares.size(); ++b) {
    all.hops += shares[b].hops;
    all.max_layer = std::max(all.max_layer, shares[b].max_layer);
    for (std::size_t l = 0; l < all.bits.size(); ++l) {
      std::vector<std::uint64_t>& from = shares[b].bits[l];
      std::vector<std::uint64_t>& into = all.bits[l];
      if (into.empty()) {
        into.swap(from);
      } else if (!from.empty()) {
        for (std::size_t w = 0; w < into.size(); ++w) into[w] |= from[w];
      }
    }
  }
  static obs::Counter& c_hops =
      obs::registry().counter("certificate/walk_hops");
  c_hops.tally(all.hops);

  const Layer num_layers = static_cast<Layer>(all.max_layer + 1);
  auto per_layer = parallel_map(exec, num_layers, [&](std::size_t l) {
    return order_one_layer(net, slots, all.bits[l]);
  });
  CertificateResult result;
  for (std::size_t l = 0; l < per_layer.size(); ++l) {
    if (!per_layer[l].acyclic) {
      result.cyclic_layer = static_cast<Layer>(l);
      return result;
    }
  }
  result.ok = true;
  // Declared-but-unused layers have empty CDGs: vacuously acyclic, and the
  // checker requires the layer counts to agree.
  result.cert.num_layers = std::max(num_layers, table.num_layers());
  result.cert.order.resize(result.cert.num_layers);
  for (std::size_t l = 0; l < per_layer.size(); ++l) {
    result.cert.order[l] = std::move(per_layer[l].order);
  }
  return result;
}

void write_certificate(const Network& net, const Certificate& cert,
                       std::ostream& out) {
  out << "# dfsssp deadlock-freedom certificate\n";
  out << "cert 1\n";
  out << "layers " << unsigned(cert.num_layers) << "\n";
  for (std::size_t l = 0; l < cert.order.size(); ++l) {
    out << "layer " << l << " " << cert.order[l].size() << "\n";
    for (ChannelId c : cert.order[l]) {
      auto [neighbor, index] = channel_slot(net, c);
      out << "c " << net.node_name(net.channel(c).src) << " "
          << net.node_name(neighbor) << " " << index << "\n";
    }
  }
  out << "end\n";
}

void write_certificate_path(const Network& net, const Certificate& cert,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_certificate(net, cert, out);
}

Certificate read_certificate(const Network& net, std::istream& in,
                             const std::string& source) {
  std::map<std::string, NodeId> by_name;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    by_name[net.node_name(n)] = n;
  }

  std::size_t lineno = 0;
  auto fail = [&](const std::string& msg) -> void {
    throw std::runtime_error(source + ":" + std::to_string(lineno) + ": " +
                             msg);
  };
  // Next non-blank, non-comment line split into tokens; empty at EOF.
  auto next_tokens = [&]() {
    std::vector<std::string> tokens;
    std::string line;
    while (std::getline(in, line)) {
      ++lineno;
      auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::istringstream ls(line);
      std::string tok;
      while (ls >> tok) tokens.push_back(tok);
      if (!tokens.empty()) return tokens;
    }
    return tokens;
  };
  auto parse_u32 = [&](const std::string& tok, const char* what) {
    std::uint64_t v = 0;
    std::size_t used = 0;
    try {
      v = std::stoull(tok, &used);
    } catch (...) {
      used = 0;
    }
    if (used != tok.size() ||
        v > std::numeric_limits<std::uint32_t>::max()) {
      fail(std::string("bad ") + what + " '" + tok + "'");
    }
    return static_cast<std::uint32_t>(v);
  };

  auto header = next_tokens();
  if (header.size() != 2 || header[0] != "cert" || header[1] != "1") {
    fail("expected 'cert 1' header");
  }
  auto layers_line = next_tokens();
  if (layers_line.size() != 2 || layers_line[0] != "layers") {
    fail("expected 'layers <count>'");
  }
  const std::uint32_t num_layers = parse_u32(layers_line[1], "layer count");
  if (num_layers == 0 || num_layers > kMaxLayers) {
    fail("layer count " + std::to_string(num_layers) + " outside [1, " +
         std::to_string(unsigned(kMaxLayers)) + "]");
  }

  Certificate cert;
  cert.num_layers = static_cast<Layer>(num_layers);
  cert.order.resize(num_layers);
  for (std::uint32_t l = 0; l < num_layers; ++l) {
    auto head = next_tokens();
    if (head.size() != 3 || head[0] != "layer") {
      fail("expected 'layer " + std::to_string(l) + " <n>' (truncated?)");
    }
    if (parse_u32(head[1], "layer index") != l) {
      fail("layer blocks out of order: expected layer " + std::to_string(l) +
           ", got " + head[1]);
    }
    const std::uint32_t n = parse_u32(head[2], "channel count");
    cert.order[l].reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto chan = next_tokens();
      if (chan.size() != 4 || chan[0] != "c") {
        fail("expected 'c <src> <dst> <slot>' (truncated?)");
      }
      auto src_it = by_name.find(chan[1]);
      auto dst_it = by_name.find(chan[2]);
      if (src_it == by_name.end() || dst_it == by_name.end()) {
        fail("unknown node in channel '" + chan[1] + "->" + chan[2] + "'");
      }
      const ChannelId c = channel_from_slot(net, src_it->second,
                                            dst_it->second,
                                            parse_u32(chan[3], "slot"));
      if (c == kInvalidChannel) {
        fail("no such channel slot '" + chan[1] + " " + chan[2] + " " +
             chan[3] + "'");
      }
      cert.order[l].push_back(c);
    }
  }
  auto tail = next_tokens();
  if (tail.size() != 1 || tail[0] != "end") fail("missing 'end' (truncated?)");
  if (!next_tokens().empty()) fail("trailing garbage after 'end'");
  return cert;
}

Certificate read_certificate_path(const Network& net,
                                  const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open certificate: " + path);
  return read_certificate(net, in, path);
}

namespace {

CertCheckResult check_walks(const Network& net, const RoutingTable& table,
                            const Certificate& cert) {
  CertCheckResult result;
  auto reject = [&](std::string why) {
    result.ok = false;
    result.error = std::move(why);
    return result;
  };

  if (cert.num_layers != table.num_layers()) {
    return reject("layer count mismatch: certificate declares " +
                  std::to_string(unsigned(cert.num_layers)) +
                  ", routing declares " +
                  std::to_string(unsigned(table.num_layers())));
  }
  if (cert.order.size() != cert.num_layers) {
    return reject("malformed certificate: " +
                  std::to_string(cert.order.size()) + " layer orders for " +
                  std::to_string(unsigned(cert.num_layers)) + " layers");
  }

  // One past each channel's position within its layer's topological order
  // (0: not listed), every layer in one flat array: pos[l * num_channels + c].
  const std::uint32_t num_channels =
      static_cast<std::uint32_t>(net.num_channels());
  std::vector<std::uint32_t> pos(std::size_t{cert.num_layers} * num_channels,
                                 0);
  for (std::size_t l = 0; l < cert.order.size(); ++l) {
    std::uint32_t* layer_pos = pos.data() + l * num_channels;
    for (std::size_t i = 0; i < cert.order[l].size(); ++i) {
      const ChannelId c = cert.order[l][i];
      if (c >= num_channels) {
        return reject("layer " + std::to_string(l) + ": order entry " +
                      std::to_string(i) + " names channel id " +
                      std::to_string(c) + ", but the network has " +
                      std::to_string(num_channels) + " channels");
      }
      if (layer_pos[c] != 0) {
        return reject("layer " + std::to_string(l) +
                      ": channel " + channel_name(net, c) +
                      " listed twice in the order");
      }
      layer_pos[c] = static_cast<std::uint32_t>(i + 1);
    }
  }

  // Every path walked in full, hop by hop, one destination at a time; no
  // cycle search anywhere, and no step shared with the maker's walk. The
  // walk runs on switch indices: per channel, the switch it leaves and the
  // one it enters (kNoSwitch at a terminal end).
  const std::size_t num_switches = net.num_switches();
  auto switch_index = [&](NodeId n) {
    return net.is_switch(n) ? net.node(n).type_index : kNoSwitch;
  };
  std::vector<std::uint32_t> from(num_channels), to(num_channels);
  for (ChannelId c = 0; c < num_channels; ++c) {
    from[c] = switch_index(net.channel(c).src);
    to[c] = switch_index(net.channel(c).dst);
  }
  std::vector<std::uint8_t> source(num_switches);  // up, with terminals
  for (std::uint32_t i = 0; i < num_switches; ++i) {
    const NodeId sw = net.switch_by_index(i);
    source[i] = net.terminals_on(sw) > 0 && net.switch_up(sw);
  }
  std::vector<ChannelId> next(num_switches);  // the destination's column
  for (NodeId t : net.terminals()) {
    if (!net.terminal_alive(t)) continue;
    const std::uint32_t dst = net.node(net.switch_of(t)).type_index;
    for (std::uint32_t i = 0; i < num_switches; ++i) {
      next[i] = table.next(net.switch_by_index(i), t);
    }
    for (std::uint32_t i = 0; i < num_switches; ++i) {
      if (i == dst || !source[i]) continue;
      const NodeId sw = net.switch_by_index(i);
      // Formatted only on a reject: the name costs more than the check.
      auto pair_name = [&] {
        return net.node_name(sw) + " -> " + net.node_name(t);
      };
      // One pass per path: validate each hop and compare the positions of
      // consecutive channels, which must both be listed and rise strictly.
      // The first hop compares against -1, which passes; a path that fails
      // is walked again to name the failing dependency. A correct path
      // visits each switch at most once, so a walk longer than the switch
      // count is a loop.
      const Layer l = table.layer(sw, t);
      const std::uint32_t* layer_pos =
          l < cert.num_layers ? pos.data() + std::size_t{l} * num_channels
                              : nullptr;
      std::uint32_t hops = 0;
      std::int64_t pa = -1;
      bool bad = false;
      bool broken = false;
      for (std::uint32_t cur = i; cur != dst;) {
        const ChannelId c = next[cur];
        if (c >= num_channels || from[c] != cur || to[c] == kNoSwitch ||
            hops == num_switches) {
          broken = true;
          break;
        }
        if (layer_pos != nullptr) {
          const std::int64_t pb = layer_pos[c];
          bad |= pa == 0 || pa >= pb;
          pa = pb;
        }
        ++hops;
        cur = to[c];
      }
      if (broken) {
        return reject("broken forwarding path " + pair_name() +
                      " (dead end or loop); nothing to certify");
      }
      if (layer_pos == nullptr) {
        return reject("path " + pair_name() + " on layer " +
                      std::to_string(unsigned(l)) +
                      " beyond the certificate's " +
                      std::to_string(unsigned(cert.num_layers)) + " layers");
      }
      ++result.paths_checked;
      if (!bad) {
        if (hops > 1) result.deps_checked += hops - 1;
        continue;
      }
      ChannelId a = next[i];
      ChannelId b = next[to[a]];
      while (layer_pos[a] != 0 && layer_pos[a] < layer_pos[b]) {
        ++result.deps_checked;
        a = b;
        b = next[to[a]];
      }
      if (layer_pos[a] == 0 || layer_pos[b] == 0) {
        const ChannelId missing = layer_pos[a] == 0 ? a : b;
        return reject("layer " + std::to_string(unsigned(l)) + ": channel " +
                      channel_name(net, missing) + " used by path " +
                      pair_name() + " is missing from the order");
      }
      return reject("layer " + std::to_string(unsigned(l)) + ": dependency " +
                    channel_name(net, a) + " => " + channel_name(net, b) +
                    " of path " + pair_name() +
                    " violates the topological order");
    }
  }
  result.ok = true;
  return result;
}

}  // namespace

CertCheckResult check_certificate(const Network& net,
                                  const RoutingTable& table,
                                  const Certificate& cert) {
  obs::TraceSpan span("certificate/check");
  CertCheckResult result = check_walks(net, table, cert);
  static obs::Counter& c_deps =
      obs::registry().counter("certificate/deps_checked");
  c_deps.tally(result.deps_checked);
  return result;
}

}  // namespace dfsssp
