#include "analysis/lints.hpp"

#include <algorithm>
#include <cstdio>

#include "analysis/existence.hpp"
#include "topology/metrics.hpp"

namespace dfsssp {

const char* to_string(LintKind kind) {
  switch (kind) {
    case LintKind::kUnreachableDestination: return "unreachable-destination";
    case LintKind::kNonMinimalPath: return "non-minimal-path";
    case LintKind::kLayerSkew: return "layer-skew";
    case LintKind::kExcessVirtualLayers: return "excess-virtual-layers";
    case LintKind::kDanglingLftEntry: return "dangling-lft-entry";
    case LintKind::kDuplicateLftEntry: return "duplicate-lft-entry";
    case LintKind::kSlOutOfRange: return "sl-out-of-range";
    case LintKind::kEmptyLayer: return "empty-layer";
    case LintKind::kLayersBelowExistenceBound:
      return "layers-below-existence-bound";
  }
  return "unknown";
}

namespace {

/// Everything one destination terminal contributes, produced independently
/// per destination and folded in destination order.
struct DestFindings {
  std::vector<Lint> lints;  // capped at max_reports_per_kind per kind
  std::array<std::uint64_t, kNumLintKinds> counts{};
  std::vector<std::uint64_t> layer_weight;  // indexed by layer
  std::uint64_t paths_checked = 0;
};

}  // namespace

LintReport lint_routing(const Network& net, const RoutingTable& table,
                        const LintOptions& options, const DumpStats* dump,
                        const ExecContext& exec) {
  const Layer num_layers = std::max<Layer>(1, table.num_layers());
  const std::uint32_t cap = std::max<std::uint32_t>(1,
                                                    options.max_reports_per_kind);

  auto per_dest = parallel_map(
      exec, net.num_terminals(), [&](std::size_t ti) {
        DestFindings f;
        f.layer_weight.assign(num_layers, 0);
        const NodeId dst = net.terminal_by_index(
            static_cast<std::uint32_t>(ti));
        if (!net.terminal_alive(dst)) return f;  // fell off with its switch
        const NodeId dst_sw = net.switch_of(dst);
        std::vector<std::uint32_t> dist;
        bfs_hops_to(net, dst_sw, dist);
        auto emit = [&](LintKind kind, std::string msg) {
          const auto k = static_cast<std::size_t>(kind);
          ++f.counts[k];
          std::uint32_t reported = 0;
          for (const Lint& l : f.lints) reported += l.kind == kind ? 1 : 0;
          if (reported < cap) f.lints.push_back({kind, std::move(msg)});
        };
        std::vector<ChannelId> seq;
        for (NodeId sw : net.switches()) {
          if (sw == dst_sw) {
            if (table.next(sw, dst) != kInvalidChannel) {
              emit(LintKind::kDanglingLftEntry,
                   "lft entry at " + net.node_name(sw) + " for local terminal " +
                       net.node_name(dst) + " (should eject, not forward)");
            }
            continue;
          }
          // Source switches without terminals originate no paths; their LFT
          // entries are exercised as transit hops of the walks below. Down
          // switches originate nothing either.
          if (net.terminals_on(sw) == 0 || !net.switch_up(sw)) continue;
          const std::string pair_name =
              net.node_name(sw) + " -> " + net.node_name(dst);
          const Layer l = table.layer(sw, dst);
          if (l >= table.num_layers()) {
            emit(LintKind::kSlOutOfRange,
                 "sl entry " + pair_name + " selects layer " +
                     std::to_string(unsigned(l)) + " but only " +
                     std::to_string(unsigned(table.num_layers())) +
                     " layers are declared");
          }
          if (table.next(sw, dst) == kInvalidChannel) {
            emit(LintKind::kUnreachableDestination,
                 "no lft entry for " + pair_name);
            continue;
          }
          if (!table.extract_path(net, sw, dst, seq)) {
            emit(LintKind::kUnreachableDestination,
                 "forwarding walk " + pair_name + " dead-ends or loops");
            continue;
          }
          ++f.paths_checked;
          if (l < num_layers && net.terminals_on(sw) > 0) {
            f.layer_weight[l] += net.terminals_on(sw);
          }
          const std::uint32_t d = dist[net.node(sw).type_index];
          if (seq.size() > d) {
            emit(LintKind::kNonMinimalPath,
                 "path " + pair_name + " takes " +
                     std::to_string(seq.size()) + " hops, BFS distance is " +
                     std::to_string(d));
          }
        }
        return f;
      });

  LintReport report;
  std::vector<std::uint64_t> layer_weight(num_layers, 0);
  std::array<std::uint32_t, kNumLintKinds> reported{};
  for (DestFindings& f : per_dest) {
    report.paths_checked += f.paths_checked;
    for (std::size_t k = 0; k < kNumLintKinds; ++k) {
      report.counts[k] += f.counts[k];
    }
    for (Layer l = 0; l < num_layers; ++l) layer_weight[l] += f.layer_weight[l];
    for (Lint& lint : f.lints) {
      std::uint32_t& seen = reported[static_cast<std::size_t>(lint.kind)];
      if (seen < cap) {
        ++seen;
        report.lints.push_back(std::move(lint));
      }
    }
  }

  auto emit_global = [&](LintKind kind, std::string msg) {
    ++report.counts[static_cast<std::size_t>(kind)];
    report.lints.push_back({kind, std::move(msg)});
  };

  // Layer-level lints (global, computed after the fold).
  if (table.num_layers() > options.hardware_vls) {
    emit_global(
        LintKind::kExcessVirtualLayers,
        "routing declares " + std::to_string(unsigned(table.num_layers())) +
            " virtual layers but the hardware offers " +
            std::to_string(unsigned(options.hardware_vls)) +
            " VLs (cf. the paper's Figure 9/10 LASH-vs-DFSSSP VL counts)");
  }
  std::uint64_t total_weight = 0, max_weight = 0;
  for (Layer l = 0; l < num_layers; ++l) {
    total_weight += layer_weight[l];
    max_weight = std::max(max_weight, layer_weight[l]);
    if (table.num_layers() > 1 && layer_weight[l] == 0) {
      emit_global(LintKind::kEmptyLayer,
                  "layer " + std::to_string(unsigned(l)) +
                      " is declared but carries no paths");
    }
  }
  if (total_weight > 0 && num_layers > 1) {
    const double mean =
        static_cast<double>(total_weight) / static_cast<double>(num_layers);
    const double skew = static_cast<double>(max_weight) / mean;
    if (skew > options.skew_threshold) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "weighted layer load is skewed: max/mean = %.2f "
                    "(threshold %.2f); consider balancing",
                    skew, options.skew_threshold);
      emit_global(LintKind::kLayerSkew, buf);
    }
  }

  // Existence lower bound: only binds minimal routings (every non-minimal
  // path is a routed-around dependency the bound knows nothing about). A
  // valid minimal routing can never trip this — the bound is provably below
  // the layer count of every certificate-passing minimal routing — so a hit
  // means the dump is truncated or the claimed routing is deadlock-prone.
  if (options.existence_bound && report.paths_checked > 0 &&
      report.count(LintKind::kNonMinimalPath) == 0) {
    const ExistenceBound bound =
        existence_lower_bound(net, options.existence_max_switches);
    if (bound.computed && num_layers < bound.min_layers) {
      emit_global(
          LintKind::kLayersBelowExistenceBound,
          "routing declares " + std::to_string(unsigned(num_layers)) +
              " layer(s) but any minimal deadlock-free routing of this "
              "fabric needs at least " +
              std::to_string(unsigned(bound.min_layers)) +
              (bound.union_cyclic
                   ? " (the forced-dependency union is cyclic;"
                   : " (conflict clique of " +
                         std::to_string(bound.conflict_clique) + " pairs;") +
              " conservative Mendlovic-Matias existence bound, "
              "arXiv:2503.04583)");
    }
  }

  // File-level lints only the dump reader can see.
  if (dump != nullptr) {
    if (dump->duplicate_lft > 0) {
      emit_global(LintKind::kDuplicateLftEntry,
                  std::to_string(dump->duplicate_lft) +
                      " duplicate lft line(s) in the dump "
                      "(later lines overwrote earlier ones)");
    }
    if (dump->duplicate_sl > 0) {
      emit_global(LintKind::kDuplicateLftEntry,
                  std::to_string(dump->duplicate_sl) +
                      " duplicate sl line(s) in the dump");
    }
    // dump->local_lft needs no extra lint: the loaded table carries those
    // entries, so the per-destination dangling check above reports them.
  }
  return report;
}

}  // namespace dfsssp
