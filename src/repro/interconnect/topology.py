"""2D mesh topology and node placement.

The evaluation platform of the paper is a tiled CMP: every mesh tile hosts a
core with its private L1 and a slice (tile) of the shared NUCA L2.  The
on-chip network is a 2D mesh (4 rows in Table 2) with XY routing.

:class:`MeshTopology` assigns network node ids to L1 controllers and L2 tiles
and answers hop-count queries.  Node ids are globally unique:

* L1 controller of core ``i``  ->  node id ``i``
* L2 tile ``j``                ->  node id ``num_cores + j``

When ``num_l2_tiles == num_cores`` (the paper's configuration), L1 ``i`` and
L2 tile ``i`` are co-located on the same mesh tile, so requests to the local
slice take zero hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple


@dataclass(frozen=True)
class MeshTopology:
    """Placement of cores and L2 tiles on a 2D mesh.

    Args:
        num_cores: number of cores (each with a private L1).
        num_l2_tiles: number of shared-L2 tiles.
        rows: number of mesh rows (Table 2 uses 4).
    """

    num_cores: int
    num_l2_tiles: int
    rows: int = 4

    def __post_init__(self) -> None:
        if self.num_cores < 1 or self.num_l2_tiles < 1:
            raise ValueError("num_cores and num_l2_tiles must be >= 1")
        if self.rows < 1:
            raise ValueError("rows must be >= 1")

    # -- node id helpers ---------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Total number of network endpoints (L1s + L2 tiles)."""
        return self.num_cores + self.num_l2_tiles

    def l1_node(self, core_id: int) -> int:
        """Network node id of core ``core_id``'s L1 controller."""
        self._check_core(core_id)
        return core_id

    def l2_node(self, tile_id: int) -> int:
        """Network node id of L2 tile ``tile_id``."""
        self._check_tile(tile_id)
        return self.num_cores + tile_id

    def is_l1_node(self, node_id: int) -> bool:
        """Return ``True`` if ``node_id`` addresses an L1 controller."""
        return 0 <= node_id < self.num_cores

    def is_l2_node(self, node_id: int) -> bool:
        """Return ``True`` if ``node_id`` addresses an L2 tile."""
        return self.num_cores <= node_id < self.num_nodes

    def core_of_node(self, node_id: int) -> int:
        """Return the core id for an L1 node id."""
        if not self.is_l1_node(node_id):
            raise ValueError(f"node {node_id} is not an L1 node")
        return node_id

    def tile_of_node(self, node_id: int) -> int:
        """Return the L2 tile id for an L2 node id."""
        if not self.is_l2_node(node_id):
            raise ValueError(f"node {node_id} is not an L2 node")
        return node_id - self.num_cores

    # -- geometry ----------------------------------------------------------

    @cached_property
    def cols(self) -> int:
        """Number of mesh columns (enough to place every core)."""
        tiles = max(self.num_cores, self.num_l2_tiles)
        return max(1, -(-tiles // self.rows))  # ceil division

    def _mesh_position(self, tile_index: int) -> Tuple[int, int]:
        """Return the (row, col) of physical mesh tile ``tile_index``."""
        return (tile_index // self.cols, tile_index % self.cols)

    @cached_property
    def _node_positions(self) -> Tuple[Tuple[int, int], ...]:
        """Mesh coordinates of every node id, computed once.

        The topology is frozen, so positions (and the hops table below) are
        immutable; caching them turns every geometry query on the message
        delivery path into a tuple index.
        """
        mesh_tiles = self.rows * self.cols
        positions = []
        for node_id in range(self.num_nodes):
            if node_id < self.num_cores:
                tile_index = node_id % mesh_tiles
            else:
                tile_index = (node_id - self.num_cores) % mesh_tiles
            positions.append(self._mesh_position(tile_index))
        return tuple(positions)

    @cached_property
    def hops_table(self) -> Tuple[Tuple[int, ...], ...]:
        """``hops_table[src][dst]`` — precomputed Manhattan hop counts."""
        positions = self._node_positions
        return tuple(
            tuple(abs(r1 - r2) + abs(c1 - c2) for (r2, c2) in positions)
            for (r1, c1) in positions
        )

    @cached_property
    def max_hops(self) -> int:
        """The largest hop count between any two nodes."""
        return max(max(row) for row in self.hops_table)

    def node_position(self, node_id: int) -> Tuple[int, int]:
        """Return the (row, col) mesh coordinates of a network node.

        Cores are placed round-robin over mesh tiles; L2 tiles likewise, so
        with equal counts core ``i`` and tile ``i`` share a mesh tile.
        """
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"unknown node id {node_id}")
        return self._node_positions[node_id]

    def hops(self, src: int, dst: int) -> int:
        """Manhattan (XY-routing) hop count between two nodes."""
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise ValueError(f"unknown node id in ({src}, {dst})")
        return self.hops_table[src][dst]

    @cached_property
    def l1_nodes(self) -> Tuple[int, ...]:
        """Node ids of every L1 controller, indexed by core id."""
        return tuple(range(self.num_cores))

    @cached_property
    def l2_nodes(self) -> Tuple[int, ...]:
        """Node ids of every L2 tile, indexed by tile id."""
        return tuple(range(self.num_cores, self.num_nodes))

    # -- validation --------------------------------------------------------

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core id {core_id} out of range [0, {self.num_cores})")

    def _check_tile(self, tile_id: int) -> None:
        if not 0 <= tile_id < self.num_l2_tiles:
            raise ValueError(f"tile id {tile_id} out of range [0, {self.num_l2_tiles})")
