#include "topology/io.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/narrow.hpp"

namespace dfsssp {

void write_dot(const Network& net, std::ostream& out) {
  out << "graph network {\n";
  for (NodeId sw : net.switches()) {
    out << "  \"" << net.node_name(sw) << "\" [shape=box];\n";
  }
  for (NodeId t : net.terminals()) {
    out << "  \"" << net.node_name(t) << "\" [shape=circle];\n";
  }
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    const Channel& ch = net.channel(c);
    if (c < ch.reverse) {  // one line per physical link
      out << "  \"" << net.node_name(ch.src) << "\" -- \""
          << net.node_name(ch.dst) << "\";\n";
    }
  }
  out << "}\n";
}

void write_netfile(const Network& net, std::ostream& out) {
  out << "# dfsssp netfile: " << net.num_switches() << " switches, "
      << net.num_terminals() << " terminals\n";
  for (NodeId sw : net.switches()) {
    out << "switch " << net.node_name(sw) << "\n";
  }
  for (NodeId t : net.terminals()) {
    out << "terminal " << net.node_name(t) << " "
        << net.node_name(net.switch_of(t)) << "\n";
  }
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    const Channel& ch = net.channel(c);
    if (c < ch.reverse && net.is_switch(ch.src) && net.is_switch(ch.dst)) {
      out << "link " << net.node_name(ch.src) << " " << net.node_name(ch.dst)
          << "\n";
    }
  }
}

void write_netfile(const Network& net, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_netfile(net, out);
}

Topology read_netfile(std::istream& in, const std::string& name) {
  Network net;
  std::map<std::string, NodeId> by_name;
  std::string line;
  std::size_t lineno = 0;
  auto fail = [&](const std::string& msg) {
    throw std::runtime_error("netfile:" + std::to_string(lineno) + ": " + msg);
  };
  auto lookup_switch = [&](const std::string& n) {
    auto it = by_name.find(n);
    if (it == by_name.end()) fail("unknown switch '" + n + "'");
    if (!net.is_switch(it->second)) fail("'" + n + "' is not a switch");
    return it->second;
  };

  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;
    if (kind == "switch") {
      std::string n;
      if (!(ls >> n)) fail("switch needs a name");
      if (by_name.count(n)) fail("duplicate name '" + n + "'");
      by_name[n] = net.add_switch(n);
    } else if (kind == "terminal") {
      std::string n, swn;
      if (!(ls >> n >> swn)) fail("terminal needs <name> <switch>");
      if (by_name.count(n)) fail("duplicate name '" + n + "'");
      by_name[n] = net.add_terminal(lookup_switch(swn), n);
    } else if (kind == "link") {
      std::string a, b;
      if (!(ls >> a >> b)) fail("link needs two switch names");
      net.add_link(lookup_switch(a), lookup_switch(b));
    } else {
      fail("unknown keyword '" + kind + "'");
    }
  }
  net.freeze();
  net.validate();
  Topology topo;
  topo.name = name;
  topo.net = std::move(net);
  topo.meta.family = "netfile";
  return topo;
}

Topology read_netfile_path(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open netfile: " + path);
  return read_netfile(in, path);
}

// ---- binary edge list (DFEL) ------------------------------------------------

namespace {

void put_u32(unsigned char* out, std::uint32_t v) {
  out[0] = static_cast<unsigned char>(v);
  out[1] = static_cast<unsigned char>(v >> 8);
  out[2] = static_cast<unsigned char>(v >> 16);
  out[3] = static_cast<unsigned char>(v >> 24);
}

void put_u64(unsigned char* out, std::uint64_t v) {
  put_u32(out, lo_u32(v));
  put_u32(out + 4, hi_u32(v));
}

std::uint32_t get_u32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* in) {
  return static_cast<std::uint64_t>(get_u32(in)) |
         (static_cast<std::uint64_t>(get_u32(in + 4)) << 32);
}

/// Links or terminals serialized per buffer flush.
constexpr std::size_t kEdgeListBatch = 1 << 16;

}  // namespace

struct EdgeListWriter::Impl {
  std::ofstream out;
  std::string path;
  std::uint64_t num_links = 0;
  std::uint64_t num_terminals = 0;
  bool in_terminals = false;
  bool finished = false;
};

EdgeListWriter::EdgeListWriter(const std::string& path,
                               std::uint64_t num_switches)
    : impl_(new Impl) {
  impl_->path = path;
  impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->out) {
    delete impl_;
    throw std::runtime_error("cannot open for writing: " + path);
  }
  unsigned char header[32];
  put_u64(header, kEdgeListMagic);
  put_u64(header + 8, num_switches);
  put_u64(header + 16, 0);  // num_links, patched by finish()
  put_u64(header + 24, 0);  // num_terminals, patched by finish()
  impl_->out.write(reinterpret_cast<const char*>(header), sizeof header);
}

EdgeListWriter::~EdgeListWriter() {
  try {
    finish();
  } catch (...) {
    // Destructor swallows; call finish() directly for error reporting.
  }
  delete impl_;
}

void EdgeListWriter::add_links(std::span<const SwitchLink> links) {
  if (impl_->in_terminals) {
    throw std::logic_error("EdgeListWriter: links after terminals");
  }
  std::vector<unsigned char> buf;
  for (std::size_t base = 0; base < links.size(); base += kEdgeListBatch) {
    const std::size_t n = std::min(kEdgeListBatch, links.size() - base);
    buf.resize(n * 8);
    for (std::size_t i = 0; i < n; ++i) {
      put_u32(buf.data() + i * 8, links[base + i].a);
      put_u32(buf.data() + i * 8 + 4, links[base + i].b);
    }
    impl_->out.write(reinterpret_cast<const char*>(buf.data()),
                     static_cast<std::streamsize>(buf.size()));
  }
  impl_->num_links += links.size();
}

void EdgeListWriter::add_terminals(std::span<const std::uint32_t> switch_of) {
  impl_->in_terminals = true;
  std::vector<unsigned char> buf;
  for (std::size_t base = 0; base < switch_of.size();
       base += kEdgeListBatch) {
    const std::size_t n = std::min(kEdgeListBatch, switch_of.size() - base);
    buf.resize(n * 4);
    for (std::size_t i = 0; i < n; ++i) {
      put_u32(buf.data() + i * 4, switch_of[base + i]);
    }
    impl_->out.write(reinterpret_cast<const char*>(buf.data()),
                     static_cast<std::streamsize>(buf.size()));
  }
  impl_->num_terminals += switch_of.size();
}

void EdgeListWriter::finish() {
  if (impl_->finished) return;
  impl_->finished = true;
  unsigned char counts[16];
  put_u64(counts, impl_->num_links);
  put_u64(counts + 8, impl_->num_terminals);
  impl_->out.seekp(16);
  impl_->out.write(reinterpret_cast<const char*>(counts), sizeof counts);
  impl_->out.close();
  if (!impl_->out) {
    throw std::runtime_error("edgelist: write failed: " + impl_->path);
  }
}

void write_edgelist(const Network& net, const std::string& path) {
  EdgeListWriter writer(path, net.num_switches());
  std::vector<SwitchLink> links;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    const Channel& ch = net.channel(c);
    if (c < ch.reverse && net.is_switch(ch.src) && net.is_switch(ch.dst)) {
      links.push_back({net.node(ch.src).type_index,
                       net.node(ch.dst).type_index});
      if (links.size() == kEdgeListBatch) {
        writer.add_links(links);
        links.clear();
      }
    }
  }
  writer.add_links(links);
  std::vector<std::uint32_t> terminals;
  terminals.reserve(net.num_terminals());
  for (NodeId t : net.terminals()) {
    terminals.push_back(net.node(net.switch_of(t)).type_index);
  }
  writer.add_terminals(terminals);
  writer.finish();
}

Topology read_edgelist(std::istream& in, const std::string& name) {
  unsigned char header[32];
  in.read(reinterpret_cast<char*>(header), sizeof header);
  if (in.gcount() != sizeof header) {
    throw std::runtime_error("edgelist: truncated header");
  }
  if (get_u64(header) != kEdgeListMagic) {
    throw std::runtime_error("edgelist: bad magic");
  }
  const std::uint64_t num_switches = get_u64(header + 8);
  const std::uint64_t num_links = get_u64(header + 16);
  const std::uint64_t num_terminals = get_u64(header + 24);

  // Untrusted counts size no allocation: reserve what the rest of the
  // stream can hold (nothing when it cannot seek), so a header claiming
  // more fails below as a truncated section.
  std::uint64_t body_bytes = 0;
  const std::istream::pos_type body = in.tellg();
  if (body != std::istream::pos_type(-1) && in.seekg(0, std::ios::end)) {
    const std::streamoff rest = in.tellg() - body;
    body_bytes = rest > 0 ? static_cast<std::uint64_t>(rest) : 0;
    in.seekg(body);
  }
  in.clear();
  NetworkBuilder builder(num_switches);
  builder.reserve_links(std::min(num_links, body_bytes / 8));
  builder.reserve_terminals(std::min(num_terminals, body_bytes / 4));
  try {
    std::vector<unsigned char> buf;
    for (std::uint64_t done = 0; done < num_links; done += kEdgeListBatch) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kEdgeListBatch, num_links - done));
      buf.resize(n * 8);
      in.read(reinterpret_cast<char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
      if (static_cast<std::size_t>(in.gcount()) != buf.size()) {
        throw std::runtime_error("edgelist: truncated link section");
      }
      for (std::size_t i = 0; i < n; ++i) {
        builder.add_link(get_u32(buf.data() + i * 8),
                         get_u32(buf.data() + i * 8 + 4));
      }
    }
    for (std::uint64_t done = 0; done < num_terminals;
         done += kEdgeListBatch) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kEdgeListBatch, num_terminals - done));
      buf.resize(n * 4);
      in.read(reinterpret_cast<char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
      if (static_cast<std::size_t>(in.gcount()) != buf.size()) {
        throw std::runtime_error("edgelist: truncated terminal section");
      }
      for (std::size_t i = 0; i < n; ++i) {
        builder.add_terminal(get_u32(buf.data() + i * 4));
      }
    }
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("edgelist: ") + e.what());
  }

  Topology topo;
  topo.net = builder.build();
  topo.name = name;
  topo.meta.family = "edgelist";
  return topo;
}

Topology read_edgelist_path(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open edgelist: " + path);
  return read_edgelist(in, path);
}

namespace {

/// First quoted token on the line, or empty.
std::string quoted(const std::string& line, std::size_t from = 0) {
  auto a = line.find('"', from);
  if (a == std::string::npos) return {};
  auto b = line.find('"', a + 1);
  if (b == std::string::npos) return {};
  return line.substr(a + 1, b - a - 1);
}

/// The comment name: the first quoted token after '#', or empty.
std::string comment_name(const std::string& line) {
  auto hash = line.find('#');
  if (hash == std::string::npos) return {};
  std::string n = quoted(line, hash);
  // "node01 HCA-1" -> keep it whole but make it identifier-ish.
  for (char& ch : n) {
    if (ch == ' ' || ch == '\t') ch = '_';
  }
  return n;
}

}  // namespace

Topology read_ibnetdiscover(std::istream& in, const std::string& name) {
  struct PortRef {
    std::string guid;
    std::uint32_t port;
  };
  struct Link {
    PortRef a, b;
  };
  std::map<std::string, std::string> display;  // guid -> pretty name
  std::set<std::string> switch_guids, ca_guids;
  std::vector<Link> links;

  std::string line;
  std::string current_guid;
  bool current_is_switch = false;
  std::size_t lineno = 0;
  auto fail = [&](const std::string& msg) {
    throw std::runtime_error("ibnetdiscover:" + std::to_string(lineno) + ": " +
                             msg);
  };

  while (std::getline(in, line)) {
    ++lineno;
    // Strip trailing CR (files often come from the fabric host).
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;

    if (line.rfind("Switch", 0) == 0 || line.rfind("Ca", 0) == 0) {
      current_is_switch = line[0] == 'S';
      current_guid = quoted(line);
      if (current_guid.empty()) fail("node header without GUID");
      (current_is_switch ? switch_guids : ca_guids).insert(current_guid);
      std::string pretty = comment_name(line);
      if (!pretty.empty()) display[current_guid] = pretty;
      continue;
    }
    if (line[0] == '[') {
      if (current_guid.empty()) fail("port line outside a node block");
      auto close = line.find(']');
      if (close == std::string::npos) fail("malformed port number");
      const std::uint32_t my_port =
          checked_u32(std::strtoul(line.c_str() + 1, nullptr, 10),
                      "ibnetdiscover port");
      const std::string peer = quoted(line);
      if (peer.empty()) continue;  // unconnected port
      // Peer port: the [N] right after the closing quote of the peer GUID.
      auto q2 = line.find('"', line.find('"') + 1);
      auto bracket = line.find('[', q2);
      std::uint32_t peer_port = 1;
      if (bracket != std::string::npos) {
        peer_port =
            checked_u32(std::strtoul(line.c_str() + bracket + 1, nullptr, 10),
                        "ibnetdiscover peer port");
      }
      links.push_back({{current_guid, my_port}, {peer, peer_port}});
      continue;
    }
    // Header lines (vendid=, devid=, sysimgguid=, ...) are skipped.
  }

  // Fold duplicate link mentions (each physical link appears in both
  // endpoint blocks).
  auto key_of = [](const PortRef& r) {
    return r.guid + "/" + std::to_string(r.port);
  };
  std::set<std::pair<std::string, std::string>> seen;
  Network net;
  std::map<std::string, NodeId> node_of;
  auto switch_node = [&](const std::string& guid) {
    auto it = node_of.find(guid);
    if (it != node_of.end()) return it->second;
    auto dn = display.find(guid);
    NodeId id = net.add_switch(dn == display.end() ? guid : dn->second);
    node_of[guid] = id;
    return id;
  };
  // Switches first so CA attachment can reference them.
  for (const std::string& guid : switch_guids) switch_node(guid);

  for (const Link& link : links) {
    auto ka = key_of(link.a), kb = key_of(link.b);
    auto canonical = ka < kb ? std::make_pair(ka, kb) : std::make_pair(kb, ka);
    if (!seen.insert(canonical).second) continue;

    const bool a_is_switch = switch_guids.count(link.a.guid) > 0;
    const bool b_is_switch = switch_guids.count(link.b.guid) > 0;
    if (a_is_switch && b_is_switch) {
      net.add_link(node_of.at(link.a.guid), node_of.at(link.b.guid));
    } else if (a_is_switch != b_is_switch) {
      const PortRef& ca = a_is_switch ? link.b : link.a;
      const PortRef& sw = a_is_switch ? link.a : link.b;
      if (ca.port != 1) continue;  // keep rail 1 of multi-rail HCAs
      if (node_of.count(ca.guid)) continue;  // already attached
      auto dn = display.find(ca.guid);
      node_of[ca.guid] = net.add_terminal(
          node_of.at(sw.guid), dn == display.end() ? ca.guid : dn->second);
    }
    // CA-to-CA links (back-to-back HCAs) are outside our model: skipped.
  }
  if (net.num_switches() == 0) {
    throw std::runtime_error("ibnetdiscover: no switches found");
  }
  net.freeze();
  net.validate();
  Topology topo;
  topo.name = name;
  topo.net = std::move(net);
  topo.meta.family = "ibnetdiscover";
  return topo;
}

Topology read_ibnetdiscover_path(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open: " + path);
  return read_ibnetdiscover(in, path);
}

// ---- any format -------------------------------------------------------------

namespace {

/// The DFEL magic means edgelist; else the first token outside comments
/// decides: a netfile keyword means netfile, anything else ibnetdiscover.
std::string sniff_format(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open topology: " + path);
  unsigned char head[8] = {0};
  in.read(reinterpret_cast<char*>(head), sizeof head);
  if (in.gcount() == sizeof head && get_u64(head) == kEdgeListMagic) {
    return "edgelist";
  }
  in.clear();
  in.seekg(0);
  std::string line;
  while (std::getline(in, line)) {
    line.erase(std::min(line.find('#'), line.size()));
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok)) continue;
    return tok == "switch" || tok == "terminal" || tok == "link"
               ? "netfile"
               : "ibnetdiscover";
  }
  return "ibnetdiscover";
}

}  // namespace

Topology read_topology_path(const std::string& path) {
  const std::string fmt = sniff_format(path);
  if (fmt == "edgelist") return read_edgelist_path(path);
  if (fmt == "netfile") return read_netfile_path(path);
  return read_ibnetdiscover_path(path);
}

}  // namespace dfsssp
