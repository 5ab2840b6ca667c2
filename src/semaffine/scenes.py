"""Synthetic labeled scenes built from geometric primitives.

Scenes are engineered so that local geometry alone cannot separate classes:
table and chair legs are cylinders drawn from the same radius/height
distribution, and every scene places at least one chair in contact distance
of a table, so cross-class points mix inside small neighborhoods. Per-scene
bookkeeping records those guarantees.

On-disk format (text, line-oriented, UTF-8):

    semaffine-scene v1
    n=<points> classes=<N> seed=<seed>
    x y z label        (exactly n lines, one point each, 17-significant-digit reals)

Only blank lines may follow the n point lines. Integers are ASCII decimal
digits after an optional ``-`` (``errors.ascii_int``): a seed may be
negative, and the range checks report a negative count or label.

A corpus manifest lists one scene path per line with a train|val split tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError, ascii_int, read_utf8, require_finite

MAGIC = "semaffine-scene v1"
INT64_MAX = int(np.iinfo(np.int64).max)

# class ids: templates are fixed, one class per template
CLASS_FLOOR = 0
CLASS_TABLE = 1
CLASS_CHAIR = 2
CLASS_CLUTTER = 3
CLASS_NAMES = ("floor", "table", "chair", "clutter")

# legs of tables and chairs share these, which is the point
LEG_RADIUS = 0.03
LEG_HEIGHT_RANGE = (0.40, 0.50)

TABLE_CLEARANCE = 0.65  # meters, a table's footprint radius for packing
MAX_EXTENT = 1000.0  # meters; squared placement distances overflow near 1e154
MAX_POINTS_PER_OBJECT = 100_000  # ~300x the default; far above it a scene exhausts memory
MAX_OBJECTS_PER_SCENE = 1000  # ~170x the default; each placement scans every placed object
MAX_PACK_RETRIES = 200


@dataclass
class SceneSpec:
    objects_per_scene: int = 6  # beyond the always-present floor
    points_per_object: int = 340
    noise_sigma: float = 0.008  # meters, added to every coordinate
    min_gap: float = -0.05  # <= 0 forces the chair/table pair into contact
    extent: float = 4.0  # scene side length, meters

    def validate(self):
        require_finite(self)
        if self.objects_per_scene < 3 or self.points_per_object < 8:
            raise ContractError("scene spec: need >= 3 objects and >= 8 points per object")
        if self.points_per_object > MAX_POINTS_PER_OBJECT:
            raise ContractError(f"scene spec: points_per_object must be <= {MAX_POINTS_PER_OBJECT}, "
                                f"got {self.points_per_object}")
        if self.objects_per_scene > MAX_OBJECTS_PER_SCENE:
            raise ContractError(f"scene spec: objects_per_scene must be <= {MAX_OBJECTS_PER_SCENE}, "
                                f"got {self.objects_per_scene}")
        if self.noise_sigma < 0:
            raise ContractError(f"scene spec: noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 2 * TABLE_CLEARANCE < self.extent <= MAX_EXTENT:
            raise ContractError(f"scene spec: extent must lie in ({2 * TABLE_CLEARANCE:g}, {MAX_EXTENT:g}] m, "
                                f"got {self.extent}")


@dataclass
class LabeledCloud:
    coords: np.ndarray  # (n, 3) float64 meters
    labels: np.ndarray  # (n,) int64 in [0, n_classes)
    n_classes: int
    seed: int = 0
    meta: dict = field(default_factory=dict)  # generator bookkeeping, not serialized

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ContractError(f"cloud coords must be (n, 3), got {self.coords.shape}")
        if self.coords.shape[0] == 0:
            raise ContractError("empty cloud")
        finite = np.isfinite(self.coords).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ContractError(f"cloud coords must be finite; point {i} is {self.coords[i].tolist()}")
        if self.labels.shape != (self.coords.shape[0],):
            raise ContractError("coords/labels length mismatch")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ContractError(f"label out of range [0, {self.n_classes})")

    @property
    def n_points(self):
        return self.coords.shape[0]


# -- primitive point samplers -------------------------------------------------


def _slab(rng, n, cx, cy, z, sx, sy, sz):
    pts = np.empty((n, 3))
    pts[:, 0] = rng.uniform(cx - sx / 2, cx + sx / 2, n)
    pts[:, 1] = rng.uniform(cy - sy / 2, cy + sy / 2, n)
    pts[:, 2] = rng.uniform(z - sz / 2, z + sz / 2, n)
    return pts


def _cylinder(rng, n, cx, cy, radius, z0, z1):
    theta = rng.uniform(0, 2 * math.pi, n)
    pts = np.empty((n, 3))
    pts[:, 0] = cx + radius * np.cos(theta)
    pts[:, 1] = cy + radius * np.sin(theta)
    pts[:, 2] = rng.uniform(z0, z1, n)
    return pts


def _blob(rng, n, center, sigma):
    return center + rng.normal(0.0, sigma, (n, 3))


def _legs(rng, n, cx, cy, half_x, half_y, leg_height):
    """Four legs at the corners; returns the leg points and their stats."""
    corners = [(cx - half_x, cy - half_y), (cx - half_x, cy + half_y),
               (cx + half_x, cy - half_y), (cx + half_x, cy + half_y)]
    per = np.array_split(np.arange(n), 4)
    parts = [_cylinder(rng, len(ix), lx, ly, LEG_RADIUS, 0.0, leg_height)
             for ix, (lx, ly) in zip(per, corners)]
    return np.concatenate(parts, axis=0)


def _table(rng, n, cx, cy, leg_height):
    n_top = n // 2
    top = _slab(rng, n_top, cx, cy, leg_height + 0.02, 1.1, 0.7, 0.04)
    legs = _legs(rng, n - n_top, cx, cy, 0.50, 0.30, leg_height)
    return np.concatenate([top, legs], axis=0), (n - n_top)


def _chair(rng, n, cx, cy, leg_height):
    n_seat = n // 3
    n_back = n // 3
    seat = _slab(rng, n_seat, cx, cy, leg_height + 0.02, 0.45, 0.45, 0.04)
    back = _slab(rng, n_back, cx, cy - 0.21, leg_height + 0.25, 0.45, 0.04, 0.45)
    legs = _legs(rng, n - n_seat - n_back, cx, cy, 0.20, 0.20, leg_height)
    return np.concatenate([seat, back, legs], axis=0), (n - n_seat - n_back)


def _clutter(rng, n, cx, cy):
    n_blobs = int(rng.integers(2, 4))
    centers = np.column_stack([
        cx + rng.uniform(-0.3, 0.3, n_blobs),
        cy + rng.uniform(-0.3, 0.3, n_blobs),
        rng.uniform(0.1, 0.6, n_blobs),
    ])
    per = np.array_split(np.arange(n), n_blobs)
    return np.concatenate([_blob(rng, len(ix), centers[i], 0.08) for i, ix in enumerate(per)], axis=0)


def generate_scene(spec: SceneSpec, seed: int) -> LabeledCloud:
    """Deterministic scene for a (spec, seed) pair.

    Composition: one floor, then tables/chairs/clutter alternating until the
    object budget is spent. The first chair is placed within ``min_gap`` of
    the first table's footprint so a cross-class adjacency always exists.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    half = spec.extent / 2.0
    n_pts = spec.points_per_object

    leg_height = float(rng.uniform(*LEG_HEIGHT_RANGE))

    parts: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    placed: list[tuple[float, float, float]] = []  # (x, y, clearance radius)
    meta = {"leg_points": 0, "adjacent_pairs": 0, "leg_height": leg_height}

    def place(radius):
        for _ in range(MAX_PACK_RETRIES):
            x = float(rng.uniform(-half + radius, half - radius))
            y = float(rng.uniform(-half + radius, half - radius))
            # allow mild interpenetration: contact between objects is wanted
            if any((x - px) ** 2 + (y - py) ** 2 < (0.8 * (pr + radius)) ** 2
                   for px, py, pr in placed):
                continue
            placed.append((x, y, radius))
            return x, y
        raise ContractError(f"scene packing failed after {MAX_PACK_RETRIES} retries (seed {seed})")

    def place_beside(table_xy, table_half, own_half):
        """Put an object flush against one side of a table footprint, with the
        configured surface gap; sides that would leave the scene are skipped."""
        tx, ty = table_xy
        options = []
        for sx, sy, th, oh in ((1, 0, table_half[0], own_half), (-1, 0, table_half[0], own_half),
                               (0, 1, table_half[1], own_half), (0, -1, table_half[1], own_half)):
            x = tx + sx * (th + oh + spec.min_gap)
            y = ty + sy * (th + oh + spec.min_gap)
            if -half + own_half < x < half - own_half and -half + own_half < y < half - own_half:
                options.append((x, y))
        if not options:
            raise ContractError(f"scene packing failed: no room beside table (seed {seed})")
        x, y = options[int(rng.integers(0, len(options)))]
        placed.append((x, y, own_half))
        return x, y

    # floor first: covers the extent, adjacent to everything standing on it
    parts.append(_slab(rng, n_pts, 0.0, 0.0, 0.0, spec.extent, spec.extent, 0.02))
    labels.append(np.full(n_pts, CLASS_FLOOR))

    # guaranteed confusable pair: one table with one chair in contact range
    tx, ty = place(TABLE_CLEARANCE)
    pts, n_leg = _table(rng, n_pts, tx, ty, leg_height)
    parts.append(pts)
    labels.append(np.full(len(pts), CLASS_TABLE))
    meta["leg_points"] += n_leg

    cx, cy = place_beside((tx, ty), (0.55, 0.35), 0.25)
    pts, n_leg = _chair(rng, n_pts, cx, cy, leg_height)
    parts.append(pts)
    labels.append(np.full(len(pts), CLASS_CHAIR))
    meta["leg_points"] += n_leg
    meta["adjacent_pairs"] += 1

    cycle = [CLASS_CLUTTER, CLASS_CHAIR, CLASS_TABLE]
    for i in range(spec.objects_per_scene - 2):
        cls = cycle[i % len(cycle)]
        if cls == CLASS_TABLE:
            x, y = place(TABLE_CLEARANCE)
            pts, n_leg = _table(rng, n_pts, x, y, leg_height)
            meta["leg_points"] += n_leg
        elif cls == CLASS_CHAIR:
            x, y = place(0.35)
            pts, n_leg = _chair(rng, n_pts, x, y, leg_height)
            meta["leg_points"] += n_leg
        else:
            x, y = place(0.45)
            pts = _clutter(rng, n_pts, x, y)
        parts.append(pts)
        labels.append(np.full(len(pts), cls))

    coords = np.concatenate(parts, axis=0)
    coords += rng.normal(0.0, spec.noise_sigma, coords.shape)
    return LabeledCloud(
        coords=coords,
        labels=np.concatenate(labels),
        n_classes=len(CLASS_NAMES),
        seed=seed,
        meta=meta,
    )


# -- scene file I/O ------------------------------------------------------------


def write_scene(cloud: LabeledCloud, path) -> None:
    header = f"{MAGIC}\nn={cloud.n_points} classes={cloud.n_classes} seed={cloud.seed}\n"
    x, y, z = cloud.coords.T.tolist()
    fields = tuple(chain.from_iterable(zip(x, y, z, cloud.labels.tolist())))
    body = ("%.17g %.17g %.17g %d\n" * cloud.n_points) % fields
    Path(path).write_text(header + body, encoding="utf-8")


def read_scene(path) -> LabeledCloud:
    text = read_utf8(path)
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise ParseError(f"bad magic, expected {MAGIC!r}", line=1)
    if len(lines) < 2:
        raise ParseError("missing header", line=2)
    header: dict[str, str] = {}
    for tok in lines[1].split():
        if "=" not in tok:
            raise ParseError(f"malformed header token {tok!r}", line=2)
        key, value = tok.split("=", 1)
        header[key] = value
    try:
        n = ascii_int(header["n"], signed=True)
        n_classes = ascii_int(header["classes"], signed=True)
        seed = ascii_int(header.get("seed", "0"), signed=True)
    except (KeyError, ValueError) as e:
        raise ParseError(f"bad header: {e}", line=2) from e
    if n <= 0:
        raise ContractError(f"scene declares n={n}; empty clouds are rejected")
    if n_classes > INT64_MAX:
        raise ParseError(f"classes={n_classes} does not fit int64 labels", line=2)
    if len(lines) - 2 < n:
        raise ParseError(f"expected {n} point lines, found {len(lines) - 2}", line=len(lines))
    xyz: list[float] = []
    labels: list[int] = []
    for i in range(2, 2 + n):
        row = lines[i].split()
        if len(row) != 4:
            raise ParseError(f"expected 'x y z label', got {lines[i]!r}", line=1 + i)
        try:
            xyz += (float(row[0]), float(row[1]), float(row[2]))
            label = ascii_int(row[3], signed=True)  # a Python int until the range check, so it cannot overflow
        except ValueError as e:
            raise ParseError(str(e), line=1 + i) from e
        if not 0 <= label < n_classes:
            raise ParseError(f"label {label} out of range [0, {n_classes})", line=1 + i)
        labels.append(label)
    for i in range(2 + n, len(lines)):
        if lines[i].strip():
            raise ParseError(f"unexpected line after the {n} declared points: {lines[i]!r}", line=1 + i)
    coords = np.array(xyz, dtype=np.float64).reshape(n, 3)
    return LabeledCloud(coords=coords, labels=np.array(labels, dtype=np.int64), n_classes=n_classes, seed=seed)


def write_manifest(entries: list[tuple[str, str]], path) -> None:
    """entries: (scene path, split tag) pairs; tags are train or val."""
    lines = []
    for scene_path, tag in entries:
        if tag not in ("train", "val"):
            raise ContractError(f"manifest split tag must be train|val, got {tag!r}")
        lines.append(f"{scene_path}\t{tag}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> list[tuple[str, str]]:
    entries = []
    for i, raw in enumerate(read_utf8(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        scene_path, _, tag = line.rpartition("\t")
        if not scene_path or tag not in ("train", "val"):
            raise ParseError(f"expected '<path>\\t<train|val>', got {raw!r}", line=i)
        if "\0" in scene_path:  # which open() would reject with a ValueError
            raise ParseError(f"NUL byte in scene path {scene_path!r}", line=i)
        entries.append((scene_path.strip(), tag))
    return entries
