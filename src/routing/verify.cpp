#include "routing/verify.hpp"

#include <vector>

#include "topology/metrics.hpp"

namespace dfsssp {

VerifyReport verify_routing(const Network& net, const RoutingTable& table,
                            const ExecContext& exec) {
  const auto terminals = net.terminals();
  std::vector<NodeId> dsts(terminals.begin(), terminals.end());
  return parallel_map_reduce(
      exec, dsts.size(), VerifyReport{},
      [&](std::size_t i) {
        const NodeId t = dsts[i];
        const NodeId dst_switch = net.switch_of(t);
        VerifyReport local;
        if (!net.terminal_alive(t)) return local;
        std::vector<std::uint32_t> dist;
        std::vector<ChannelId> seq;
        bfs_hops_to(net, dst_switch, dist);
        for (NodeId s : net.switches()) {
          if (s == dst_switch || net.terminals_on(s) == 0 ||
              !net.switch_up(s)) {
            continue;
          }
          ++local.total_paths;
          if (!table.extract_path(net, s, t, seq)) {
            ++local.broken;
            continue;
          }
          if (seq.size() > dist[net.node(s).type_index]) ++local.non_minimal;
        }
        return local;
      },
      [](VerifyReport acc, VerifyReport local) {
        acc.total_paths += local.total_paths;
        acc.broken += local.broken;
        acc.non_minimal += local.non_minimal;
        return acc;
      });
}

}  // namespace dfsssp
