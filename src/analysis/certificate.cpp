#include "analysis/certificate.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "cdg/cdg.hpp"
#include "routing/collect.hpp"
#include "routing/dump.hpp"

namespace dfsssp {

namespace {

constexpr std::uint32_t kNoPos = std::numeric_limits<std::uint32_t>::max();

std::string channel_name(const Network& net, ChannelId c) {
  const Channel& ch = net.channel(c);
  return net.node_name(ch.src) + "->" + net.node_name(ch.dst);
}

/// Canonical topological order of one layer's CDG: Kahn's algorithm with a
/// min-heap over channel ids, so the order depends only on the graph, never
/// on scheduling. Empty result + present nodes => the layer is cyclic.
struct LayerOrder {
  bool acyclic = true;
  std::vector<ChannelId> order;
};

LayerOrder order_one_layer(const PathSet& paths,
                           std::span<const Layer> layer, Layer which,
                           std::uint32_t num_channels) {
  std::vector<std::uint32_t> members;
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    if (layer[p] == which && paths.channels(p).size() >= 2) {
      members.push_back(p);
    }
  }
  LayerOrder result;
  if (members.empty()) return result;

  Cdg cdg(paths, members, num_channels);
  std::vector<std::uint32_t> indegree(num_channels, 0);
  std::vector<std::uint8_t> present(num_channels, 0);
  for (ChannelId u = 0; u < num_channels; ++u) {
    for (const Cdg::Edge& e : cdg.out_edges(u)) {
      ++indegree[e.to];
      present[u] = 1;
      present[e.to] = 1;
    }
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
    for (const Cdg::Edge& e : cdg.out_edges(u)) {
      if (--indegree[e.to] == 0) ready.push(e.to);
    }
  }
  if (result.order.size() < num_present) {
    result.acyclic = false;
    result.order.clear();
  }
  return result;
}

}  // namespace

CertificateResult make_certificate(const PathSet& paths,
                                   std::span<const Layer> layer,
                                   std::uint32_t num_channels,
                                   const ExecContext& exec) {
  Layer num_layers = 1;
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    num_layers = std::max<Layer>(num_layers, layer[p] + 1);
  }
  auto per_layer =
      parallel_map(exec, num_layers, [&](std::size_t l) {
        return order_one_layer(paths, layer, static_cast<Layer>(l),
                               num_channels);
      });
  CertificateResult result;
  result.cert.num_layers = num_layers;
  result.cert.order.resize(num_layers);
  for (std::size_t l = 0; l < per_layer.size(); ++l) {
    if (!per_layer[l].acyclic) {
      result.ok = false;
      result.cyclic_layer = static_cast<Layer>(l);
      result.cert = Certificate{};
      return result;
    }
    result.cert.order[l] = std::move(per_layer[l].order);
  }
  result.ok = true;
  return result;
}

CertificateResult make_certificate(const Network& net,
                                   const RoutingTable& table,
                                   const ExecContext& exec) {
  const PathSet paths = collect_paths(net, table);
  const std::vector<Layer> layers = collect_layers(net, table, paths);
  CertificateResult result = make_certificate(
      paths, layers, static_cast<std::uint32_t>(net.num_channels()), exec);
  if (result.ok && result.cert.num_layers < table.num_layers()) {
    // Declared-but-unused layers have empty CDGs: vacuously acyclic, and
    // the checker requires the layer counts to agree.
    result.cert.order.resize(table.num_layers());
    result.cert.num_layers = table.num_layers();
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

CertCheckResult check_certificate(const Network& net,
                                  const RoutingTable& table,
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

  // Position of each channel within its layer's topological order.
  const std::uint32_t num_channels =
      static_cast<std::uint32_t>(net.num_channels());
  std::vector<std::vector<std::uint32_t>> pos(
      cert.num_layers, std::vector<std::uint32_t>(num_channels, kNoPos));
  for (std::size_t l = 0; l < cert.order.size(); ++l) {
    for (std::size_t i = 0; i < cert.order[l].size(); ++i) {
      const ChannelId c = cert.order[l][i];
      if (pos[l][c] != kNoPos) {
        return reject("layer " + std::to_string(l) +
                      ": channel " + channel_name(net, c) +
                      " listed twice in the order");
      }
      pos[l][c] = static_cast<std::uint32_t>(i);
    }
  }

  // One pass over every forwarding path; no cycle search anywhere.
  std::vector<ChannelId> seq;
  for (NodeId sw : net.switches()) {
    if (net.terminals_on(sw) == 0 || !net.switch_up(sw)) continue;
    for (NodeId t : net.terminals()) {
      if (net.switch_of(t) == sw || !net.terminal_alive(t)) continue;
      // Formatted only on a reject: the name costs more than the check.
      auto pair_name = [&] {
        return net.node_name(sw) + " -> " + net.node_name(t);
      };
      if (!table.extract_path(net, sw, t, seq)) {
        return reject("broken forwarding path " + pair_name() +
                      " (dead end or loop); nothing to certify");
      }
      const Layer l = table.layer(sw, t);
      if (l >= cert.num_layers) {
        return reject("path " + pair_name() + " on layer " +
                      std::to_string(unsigned(l)) +
                      " beyond the certificate's " +
                      std::to_string(unsigned(cert.num_layers)) + " layers");
      }
      ++result.paths_checked;
      for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
        const std::uint32_t pa = pos[l][seq[i]];
        const std::uint32_t pb = pos[l][seq[i + 1]];
        if (pa == kNoPos || pb == kNoPos) {
          const ChannelId missing = pa == kNoPos ? seq[i] : seq[i + 1];
          return reject("layer " + std::to_string(unsigned(l)) +
                        ": channel " + channel_name(net, missing) +
                        " used by path " + pair_name() +
                        " is missing from the order");
        }
        if (pa >= pb) {
          return reject("layer " + std::to_string(unsigned(l)) +
                        ": dependency " + channel_name(net, seq[i]) +
                        " => " + channel_name(net, seq[i + 1]) +
                        " of path " + pair_name() +
                        " violates the topological order");
        }
        ++result.deps_checked;
      }
    }
  }
  result.ok = true;
  return result;
}

}  // namespace dfsssp
