#include "topology/builders.h"

#include "util/check.h"

namespace aethereal::topology {

RouterId Mesh::RouterAt(int row, int col) const {
  AETHEREAL_CHECK(row >= 0 && row < rows && col >= 0 && col < cols);
  return routers[static_cast<std::size_t>(row * cols + col)];
}

NiId Mesh::NiAt(int row, int col, int local) const {
  AETHEREAL_CHECK(local >= 0 && local < nis_per_router);
  const int router_index = row * cols + col;
  return nis[static_cast<std::size_t>(router_index * nis_per_router + local)];
}

Mesh BuildMesh(int rows, int cols, int nis_per_router) {
  AETHEREAL_CHECK(rows > 0 && cols > 0 && nis_per_router >= 0);
  Mesh mesh;
  mesh.rows = rows;
  mesh.cols = cols;
  mesh.nis_per_router = nis_per_router;
  const int ports = kMeshLocalBase + nis_per_router;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      mesh.routers.push_back(mesh.topology.AddRouter(ports));
    }
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const RouterId here = mesh.RouterAt(r, c);
      if (c + 1 < cols) {
        AETHEREAL_CHECK(mesh.topology
                            .ConnectRouters(here, kMeshEast,
                                            mesh.RouterAt(r, c + 1), kMeshWest)
                            .ok());
      }
      if (r + 1 < rows) {
        AETHEREAL_CHECK(mesh.topology
                            .ConnectRouters(here, kMeshSouth,
                                            mesh.RouterAt(r + 1, c), kMeshNorth)
                            .ok());
      }
    }
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      for (int k = 0; k < nis_per_router; ++k) {
        const NiId ni = mesh.topology.AddNi();
        mesh.nis.push_back(ni);
        AETHEREAL_CHECK(mesh.topology
                            .AttachNi(ni, mesh.RouterAt(r, c),
                                      kMeshLocalBase + k)
                            .ok());
      }
    }
  }
  return mesh;
}

Star BuildStar(int num_nis) {
  AETHEREAL_CHECK(num_nis > 0);
  Star star;
  star.router = star.topology.AddRouter(num_nis);
  for (int i = 0; i < num_nis; ++i) {
    const NiId ni = star.topology.AddNi();
    star.nis.push_back(ni);
    AETHEREAL_CHECK(star.topology.AttachNi(ni, star.router, i).ok());
  }
  return star;
}

NiId Ring::NiAt(int router_index, int local) const {
  AETHEREAL_CHECK(local >= 0 && local < nis_per_router);
  return nis[static_cast<std::size_t>(router_index * nis_per_router + local)];
}

Ring BuildRing(int num_routers, int nis_per_router) {
  AETHEREAL_CHECK(num_routers >= 2 && nis_per_router >= 0);
  Ring ring;
  ring.nis_per_router = nis_per_router;
  const int ports = kRingLocalBase + nis_per_router;
  for (int i = 0; i < num_routers; ++i) {
    ring.routers.push_back(ring.topology.AddRouter(ports));
  }
  for (int i = 0; i < num_routers; ++i) {
    const int next = (i + 1) % num_routers;
    AETHEREAL_CHECK(ring.topology
                        .ConnectRouters(ring.routers[static_cast<std::size_t>(i)], 0,
                                        ring.routers[static_cast<std::size_t>(next)], 1)
                        .ok());
  }
  for (int i = 0; i < num_routers; ++i) {
    for (int k = 0; k < nis_per_router; ++k) {
      const NiId ni = ring.topology.AddNi();
      ring.nis.push_back(ni);
      AETHEREAL_CHECK(
          ring.topology.AttachNi(ni, ring.routers[static_cast<std::size_t>(i)], 2 + k)
              .ok());
    }
  }
  return ring;
}

}  // namespace aethereal::topology
