// Serialization of topologies.
//
// Three formats:
//  * DOT (write-only) for visual inspection with graphviz;
//  * a line-based "netfile" (read/write), the role the paper's graph files
//    for ORCS played: one line per switch/terminal/link, '#' comments;
//  * a binary streaming edge list ("DFEL"), the warehouse-scale format:
//    switch count up front, then raw little-endian u32 link pairs and
//    terminal attachment switch ids — 8 bytes per link, 4 per terminal,
//    no names. Read back through NetworkBuilder, which canonicalizes the
//    channel numbering to links-then-terminals (the order every generator
//    produces anyway).
//
//      switch <name>
//      terminal <name> <switch-name>
//      link <switch-name> <switch-name>
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

#include "topology/builder.hpp"
#include "topology/topology.hpp"

namespace dfsssp {

/// Writes the network as an undirected graphviz graph (one edge per link).
void write_dot(const Network& net, std::ostream& out);

/// Writes the netfile format described in the file header.
void write_netfile(const Network& net, std::ostream& out);
void write_netfile(const Network& net, const std::string& path);

/// Parses a netfile. Throws std::runtime_error with a line number on
/// malformed input. The result is frozen and validated; meta is empty
/// (family "netfile").
Topology read_netfile(std::istream& in, const std::string& name = "netfile");
Topology read_netfile_path(const std::string& path);

// ---- binary edge list (DFEL) ------------------------------------------------
//
// Layout (all integers little-endian):
//   u64 magic        "DFELIST1"
//   u64 num_switches
//   u64 num_links
//   u64 num_terminals
//   num_links     x (u32 a, u32 b)   inter-switch links, stream order
//   num_terminals x u32              attachment switch per terminal, in
//                                    terminal-index order

/// The 8-byte magic ("DFELIST1" as a little-endian u64): the first thing
/// read_topology_path checks when it sniffs a file's format.
constexpr std::uint64_t kEdgeListMagic = 0x315453494C454644ULL;

/// Incremental writer for generators that stream chunks to disk: the
/// header goes out with placeholder counts, add_links/add_terminals append
/// raw records (all links before any terminal), and finish() seeks back to
/// patch the counts. The stream must therefore be seekable (a file).
class EdgeListWriter {
 public:
  EdgeListWriter(const std::string& path, std::uint64_t num_switches);
  ~EdgeListWriter();

  EdgeListWriter(const EdgeListWriter&) = delete;
  EdgeListWriter& operator=(const EdgeListWriter&) = delete;

  void add_links(std::span<const SwitchLink> links);
  void add_terminals(std::span<const std::uint32_t> switch_of);

  /// Patches the header counts and closes the file. Called by the
  /// destructor when not invoked explicitly; call it directly to surface
  /// write errors as exceptions.
  void finish();

 private:
  struct Impl;
  Impl* impl_;
};

/// Writes a frozen network: links in channel order (each physical link
/// once), then terminals in terminal-index order.
void write_edgelist(const Network& net, const std::string& path);

/// Reads a DFEL file into a frozen, validated topology (family
/// "edgelist"). Throws std::runtime_error on bad magic, truncated body, or
/// out-of-range endpoints.
Topology read_edgelist(std::istream& in, const std::string& name = "edgelist");
Topology read_edgelist_path(const std::string& path);

/// Parses the text format of InfiniBand's `ibnetdiscover` tool (the way a
/// real fabric is dumped), covering the structural subset:
///
///   Switch  24 "S-0002c9020048d8f0"  # "sw1" ... lid 2 lmc 0
///   [1]  "H-0002c9020020e98c"[1](...)  # "node01 HCA-1" lid 4 4xDDR
///   [13] "S-0002c902004c0001"[2]       # ...
///   Ca  2 "H-0002c9020020e98c"         # "node01 HCA-1"
///   [1](...) "S-0002c9020048d8f0"[1]   # lid 4 ...
///
/// Every physical link appears in both endpoint blocks; duplicates are
/// folded by (guid,port,guid,port). Nodes are named by the quoted comment
/// name when present, else by GUID. CA links beyond port 1 are ignored
/// (our model is single-ported terminals; multi-rail HCAs keep rail 1).
Topology read_ibnetdiscover(std::istream& in,
                            const std::string& name = "ibnetdiscover");
Topology read_ibnetdiscover_path(const std::string& path);

/// Reads a topology file in the format its content names: the DFEL magic
/// means edgelist, a first token (outside '#' comments) of
/// switch/terminal/link means netfile, anything else ibnetdiscover. Throws
/// std::runtime_error on a missing file or whatever that reader rejects.
Topology read_topology_path(const std::string& path);

}  // namespace dfsssp
