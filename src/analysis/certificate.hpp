// Machine-checkable deadlock-freedom certificates.
//
// `layering_is_deadlock_free` answers "is this routing deadlock-free?" with
// a boolean by *searching* each layer's channel dependency graph for cycles.
// A certificate turns that answer into a proof a third party can re-check
// without trusting (or re-running) the cycle search: per virtual layer it
// records a topological order of the layer's CDG nodes. Checking the proof
// is a single O(V + E) pass — walk every forwarding path and verify that
// consecutive channels appear in strictly increasing order positions — and
// a topological order *exists* iff the layer's CDG is acyclic, so an
// accepted certificate is exactly the paper's sufficient deadlock-freedom
// condition (Section III), made auditable. This mirrors what OpenSM's
// `ibdmchk` provides for production fabrics: offline validation of a dumped
// routing configuration.
//
// Channels are named in the serialized form by (source node, destination
// node, parallel index), the same stable slot naming forwarding dumps use,
// so a certificate stays valid across save/load of the topology.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/types.hpp"
#include "routing/table.hpp"
#include "topology/network.hpp"

namespace dfsssp {

/// Per layer, the channels of that layer's CDG in topological order.
/// Channels that induce no dependency in the layer (paths of a single
/// channel) are not listed; the checker only constrains consecutive pairs.
struct Certificate {
  Layer num_layers = 1;
  std::vector<std::vector<ChannelId>> order;  // one entry per layer

  bool empty() const { return order.empty(); }
};

struct CertificateResult {
  bool ok = false;
  /// First layer whose CDG is cyclic (when !ok) — feed it to
  /// extract_witness to see why.
  Layer cyclic_layer = kInvalidLayer;
  Certificate cert;
};

/// Builds the certificate straight from a finished routing's forwarding
/// table: one Kahn topological sort per layer over that layer's dependency
/// set. The set is read with one early-stopping walk per (source switch,
/// destination): destination-based forwarding makes a destination's paths
/// one tree, so a walk stops at the first switch an earlier walk of the
/// same layer and destination already passed. Destinations are split over
/// `exec`'s threads and layers sorted on them; the order within each layer
/// is canonical (smallest channel id first among ready nodes), so the
/// result is identical at any thread count. Throws std::runtime_error when
/// a forwarding walk is broken (dead end, loop, a next channel that does
/// not leave the current switch or that enters a terminal) or a path has
/// no layer.
CertificateResult make_certificate(const Network& net,
                                   const RoutingTable& table,
                                   const ExecContext& exec = {});

/// Text serialization:
///   # dfsssp deadlock-freedom certificate
///   cert 1
///   layers <L>
///   layer <l> <n>        (for each l in 0..L-1, in order)
///   c <src> <dst> <slot> (exactly n per layer, topological order)
///   end
void write_certificate(const Network& net, const Certificate& cert,
                       std::ostream& out);
void write_certificate_path(const Network& net, const Certificate& cert,
                            const std::string& path);

/// Parses a certificate against the topology it was produced on. Throws
/// std::runtime_error ("<source>:<line>: <what>") on malformed input,
/// unknown node names or channel slots, a layer count outside
/// [1, kMaxLayers], out-of-order layer blocks, or truncation (missing
/// channel lines or a missing trailing `end`).
Certificate read_certificate(const Network& net, std::istream& in,
                             const std::string& source = "certificate");
Certificate read_certificate_path(const Network& net,
                                  const std::string& path);

struct CertCheckResult {
  bool ok = false;
  /// First violation, human-readable; empty when ok.
  std::string error;
  std::uint64_t paths_checked = 0;
  /// Consecutive-channel dependencies verified against the order.
  std::uint64_t deps_checked = 0;
};

/// The independent checker: validates `cert` against a routing in one
/// O(V + E) pass with no cycle search. It walks every path hop by hop and
/// shares no walk code with make_certificate. Rejects when the layer
/// counts disagree, a layer's order lists a channel twice or names a
/// channel id the network does not have, a path's layer has no order, a
/// dependency's channel is missing from its layer's order, a dependency
/// violates the order, or a forwarding walk is broken (a path that cannot
/// be walked cannot be certified).
CertCheckResult check_certificate(const Network& net,
                                  const RoutingTable& table,
                                  const Certificate& cert);

}  // namespace dfsssp
