// Compatibility header: the monolithic System was decomposed into
// sim::Node (one socket: cores + hierarchy + NTCs + Kiln + memory, each
// node on its own clock and event queue, see sim/node.hpp) and
// sim::Cluster (N nodes with sharded service routing, see
// topo/cluster.hpp). `System` is a 1-node cluster, and its output stays
// byte-identical to the pre-cluster simulator.
#pragma once

#include "topo/cluster.hpp"

namespace ntcsim::sim {

using System = Cluster;

}  // namespace ntcsim::sim
