// Canonical topology builders: meshes, rings, and the single-router "star"
// used by most NI-level experiments.
#ifndef AETHEREAL_TOPOLOGY_BUILDERS_H
#define AETHEREAL_TOPOLOGY_BUILDERS_H

#include <vector>

#include "topology/topology.h"

namespace aethereal::topology {

/// Mesh router port convention (ports 0..3 = compass, 4+ = local NIs).
inline constexpr int kMeshNorth = 0;
inline constexpr int kMeshEast = 1;
inline constexpr int kMeshSouth = 2;
inline constexpr int kMeshWest = 3;
inline constexpr int kMeshLocalBase = 4;

/// Ring router port convention (ports 0..1 = neighbours, 2+ = local NIs).
inline constexpr int kRingLocalBase = 2;

/// A built mesh: the topology plus id lookup helpers.
struct Mesh {
  Topology topology;
  int rows = 0;
  int cols = 0;
  int nis_per_router = 0;
  std::vector<RouterId> routers;  // row-major
  std::vector<NiId> nis;          // router-major, then local index

  RouterId RouterAt(int row, int col) const;
  NiId NiAt(int row, int col, int local = 0) const;
};

/// Builds a rows x cols mesh with `nis_per_router` NIs on every router.
/// Routers get 4 + nis_per_router ports following the port convention above.
Mesh BuildMesh(int rows, int cols, int nis_per_router);

/// Builds a single router with `num_nis` NIs attached (ports 0..num_nis-1).
/// This matches the scale of most NI-level experiments in the paper.
struct Star {
  Topology topology;
  RouterId router = kInvalidId;
  std::vector<NiId> nis;
};
Star BuildStar(int num_nis);

/// Builds a ring of `num_routers` routers (port 0 = clockwise next, port 1 =
/// counterclockwise prev, port kRingLocalBase+k = local NI k), with
/// `nis_per_router` NIs.
struct Ring {
  Topology topology;
  std::vector<RouterId> routers;
  std::vector<NiId> nis;  // router-major
  int nis_per_router = 0;

  NiId NiAt(int router_index, int local = 0) const;
};
Ring BuildRing(int num_routers, int nis_per_router);

}  // namespace aethereal::topology

#endif  // AETHEREAL_TOPOLOGY_BUILDERS_H
