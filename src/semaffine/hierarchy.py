"""Multi-level voxel coarsening of a point cloud, feature pooling/unpooling
across levels, and multi-hot label propagation that shadows the coarsening.

Level i+1 points are centroids of level-i points sharing an axis-aligned
voxel whose edge doubles per level. Voxel membership is floor(coord / edge),
with cells ordered lexicographically, so construction is deterministic.
Ground-truth labels follow the same parent maps: a coarse point's label row
is the union (min(1, sum)) of its children's rows, so a patch that straddles
a boundary keeps every class it covers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError, int_array
from .tensor import Tensor

MAX_CELL = 2.0 ** 62  # bound on |coord / edge|: int64 voxel keys with a factor-2 margin


@dataclass
class Hierarchy:
    """One or more scenes' levels, scene after scene in every level."""

    coords: list[np.ndarray]  # per level, (n_i, 3) meters
    parents: list[np.ndarray]  # per level < L-1, (n_i,) indices into level i+1
    offsets: list[tuple[int, ...]]  # per level, the scene row offsets (0, ..., n_i); (0, n_i) for one scene

    @property
    def levels(self) -> int:
        return len(self.coords)

    @property
    def sizes(self) -> list[int]:
        return [c.shape[0] for c in self.coords]

    def _check_level(self, level: int):
        if not 0 <= level < self.levels - 1:
            raise ContractError(f"level {level} out of range for {self.levels}-level hierarchy")


def _voxel_cells(coords: np.ndarray, edge: float) -> np.ndarray:
    """Each point's cell index, with cells keyed by floor(coord / edge) and
    numbered in lexicographic key order (x, then y, then z)."""
    scaled = coords / edge
    on_grid = (np.abs(scaled) < MAX_CELL).all(axis=1)  # also False for NaN
    if not on_grid.all():
        i = int(np.argmin(on_grid))
        raise ContractError(f"build_hierarchy: point {i} {coords[i].tolist()} is off the voxel grid of edge "
                            f"{edge} (|coord / edge| must stay below 2**62)")
    keys = np.floor(scaled).astype(np.int64)
    order = np.lexsort(keys.T[::-1])  # lexsort's last key is the primary one
    sorted_keys = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[0] = True
    np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=starts[1:])
    parent = np.empty(len(keys), dtype=np.int64)
    parent[order] = np.cumsum(starts) - 1
    return parent


def build_hierarchy(coords, base_voxel: float, levels: int) -> Hierarchy:
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ShapeError(f"build_hierarchy: expected (n, 3) coords, got {coords.shape}")
    if coords.shape[0] == 0:
        raise ContractError("build_hierarchy: empty point cloud")
    if base_voxel <= 0:
        raise ContractError(f"build_hierarchy: base_voxel must be positive, got {base_voxel}")
    if levels < 2:
        raise ContractError(f"build_hierarchy: need at least 2 levels, got {levels}")

    level_coords = [coords]
    parent_maps = []
    for i in range(levels - 1):
        edge = base_voxel * (2.0 ** i)
        parent = _voxel_cells(level_coords[i], edge)
        counts = np.bincount(parent)
        # bincount adds each cell's members in point order, a sequential sum whatever the sort
        centroids = np.column_stack([np.bincount(parent, weights=col) for col in level_coords[i].T])
        centroids /= counts[:, None]
        parent_maps.append(parent)
        level_coords.append(centroids)
    return Hierarchy(coords=level_coords, parents=parent_maps,
                     offsets=[(0, c.shape[0]) for c in level_coords])


def stack_hierarchies(hiers: list[Hierarchy]) -> Hierarchy:
    """One hierarchy of several scenes: each level's points concatenated
    scene after scene, each parent map shifted by its scene's offset one
    level up, so pooling and unpooling run once over the stacked rows."""
    if not hiers:
        raise ContractError("stack_hierarchies: no hierarchies")
    if len({h.levels for h in hiers}) != 1:
        raise ContractError(f"stack_hierarchies: level counts {[h.levels for h in hiers]} differ")
    levels = hiers[0].levels
    starts = np.zeros((len(hiers) + 1, levels), dtype=np.int64)
    np.cumsum([h.sizes for h in hiers], axis=0, out=starts[1:])
    return Hierarchy(
        coords=[np.concatenate([h.coords[level] for h in hiers]) for level in range(levels)],
        parents=[np.concatenate([h.parents[level] + starts[s, level + 1] for s, h in enumerate(hiers)])
                 for level in range(levels - 1)],
        offsets=[tuple(level) for level in starts.T.tolist()],
    )


def pool_features(h: Hierarchy, level: int, f: Tensor) -> Tensor:
    """Mean of child features per parent: (n_i, d) -> (n_{i+1}, d)."""
    h._check_level(level)
    if f.shape[0] != h.sizes[level]:
        raise ShapeError(f"pool_features: {f.shape} does not match level {level} size {h.sizes[level]}")
    return T.pool_rows_mean(f, h.parents[level], h.sizes[level + 1])


def unpool_features(h: Hierarchy, level: int, f_parent: Tensor, skip: Tensor) -> Tensor:
    """Copy each parent's feature to its children and add the skip feature."""
    h._check_level(level)
    if f_parent.shape[0] != h.sizes[level + 1]:
        raise ShapeError(
            f"unpool_features: parent features {f_parent.shape} do not match level {level + 1} "
            f"size {h.sizes[level + 1]}")
    if skip.shape != (h.sizes[level], f_parent.shape[1]):
        raise ShapeError(f"unpool_features: skip {skip.shape} does not match ({h.sizes[level]}, {f_parent.shape[1]})")
    return T.gather_rows(f_parent, h.parents[level]) + skip


def shadow_labels(h: Hierarchy, labels, n_classes: int) -> dict[int, np.ndarray]:
    """Propagate integer level-0 labels upward: parent row = min(1, sum of children).
    Returns one binary (n_i, N) class-presence matrix per level i = 1..L-1, keyed by i."""
    labels = int_array(labels, n_classes, "shadow_labels labels", h.sizes[0])
    out, rows, classes = {}, np.arange(labels.size), labels  # level 0's one bit per row
    for level in range(1, h.levels):
        n = h.sizes[level]
        hits = np.bincount(h.parents[level - 1][rows] * n_classes + classes, minlength=n * n_classes)
        out[level] = (hits.reshape(n, n_classes) > 0).astype(np.uint8)
        rows, classes = np.nonzero(out[level])
    return out
