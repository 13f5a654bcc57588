#include "routing/router.hpp"

#include <stdexcept>

#include "routing/registry.hpp"

namespace dfsssp {

const Topology& RouteRequest::topo() const {
  if (topology == nullptr) {
    throw std::logic_error("RouteRequest without a topology");
  }
  return *topology;
}

std::vector<std::unique_ptr<Router>> make_all_routers(Layer max_layers) {
  // The registry is the source of truth; this keeps the historical
  // "Figure 4 plot order" contract by construction (roster order).
  std::vector<std::unique_ptr<Router>> routers;
  for (const routing::EngineInfo& e : routing::engine_roster()) {
    if (!e.in_default_roster) continue;
    routers.push_back(routing::make_router(e.name, max_layers));
  }
  return routers;
}

}  // namespace dfsssp
