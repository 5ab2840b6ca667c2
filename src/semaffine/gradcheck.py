"""Central finite-difference verification of analytic gradients.

The relative error for one parameter entry is

    |analytic - numeric| / max(|analytic| + |numeric|, DELTA)

so a gradient corrupted by a factor of 2 reports ~1/3. The floor ``DELTA``
absorbs central-difference roundoff (about eps*|f|/H) on entries whose true
gradient is zero or tiny; a genuinely wrong gradient lands far above it.

The perturbed losses replay only the op nodes downstream of the moved
parameters (their cone), at most ``MAX_SLOTS`` losses per replay. The chosen
entries, laid end to end in parameter order, are cut into consecutive groups
of ``MAX_SLOTS // 2``, across parameter boundaries. In a group's replay the
data of each of its parameters becomes a stack of copies on a leading batch
axis: copy 2j has the group's entry j moved up by H and copy 2j + 1 moved
down when entry j is the parameter's own, and is the parameter's data
otherwise. Each node of the union of the parameters' cones, in creation
order, runs its recorded array kernel again on its parents' current arrays,
making no node, and gives each slot its plain call's bits: the loss comes
out as the group's (B,) perturbed losses. A replay skips the op's front (the
checks and scene cuts), which depends only on shapes and non-tensor
arguments. One joint audit checks every replay: it moves every chosen entry
of every parameter at once, each by its own step of about H, and compares a
full ``f()`` bit for bit with the replay of the union of all cones on
one-slot stacks. So ``f`` runs twice in a check whose replays are exact: for
the analytic gradients and for the audit. If the audit finds other bits,
some parameter reaches the loss outside the recorded kernels (or a kernel
drops the batch axis), and every entry of every parameter takes two full
forwards instead. Everything runs in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .tensor import Tensor

H = 1e-6  # central-difference step
DELTA = 1e-3  # floor of the relative error's denominator
TOL = 1e-5  # default largest relative error that passes
MAX_SLOTS = 128  # perturbed losses of one replay: at most that many copies of its cone


@dataclass
class ParamReport:
    name: str
    n_checked: int
    max_rel_err: float
    ok: bool
    note: str = ""


@dataclass
class GradCheckReport:
    params: list[ParamReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.ok for p in self.params)

    @property
    def max_rel_err(self) -> float:
        return max((p.max_rel_err for p in self.params), default=0.0)

    def lines(self) -> list[str]:
        out = []
        for p in self.params:
            status = "PASS" if p.ok else "FAIL"
            msg = f"{status}  {p.name}  max_rel_err={p.max_rel_err:.3e}  entries={p.n_checked}"
            if p.note:
                msg += f"  ({p.note})"
            out.append(msg)
        return out


def _slots(data: np.ndarray, n: int) -> np.ndarray:
    """``n`` copies of ``data`` stacked on a new leading axis; a (d,) row becomes (n, 1, d)."""
    return np.repeat(data[None, None] if data.ndim == 1 else data[None], n, axis=0)


def _cones(loss: Tensor, groups: Sequence[Sequence[Tensor]]) -> list[list[Tensor]]:
    """For each group of leaves, the op nodes reachable from ``loss`` whose
    parents depend on a leaf of the group, in creation order: recomputing
    them in that order recomputes ``loss`` after those leaves' data change.
    The walk stops at a node without a record (a leaf, or an op node whose
    record was dropped). One pass in creation order gives each node the
    bitmask of the groups its parents depend on."""
    masks: dict[int, int] = {}  # node_id -> bit g set when the node depends on group g
    for g, leaves in enumerate(groups):
        for leaf in leaves:
            masks[leaf.node_id] = masks.get(leaf.node_id, 0) | 1 << g
    recorded, stack = {}, [loss]  # node_id -> node
    while stack:
        node = stack.pop()
        if node.call is not None and node.node_id not in recorded:
            recorded[node.node_id] = node
            stack += node.parents
    cones: list[list[Tensor]] = [[] for _ in groups]
    for node_id in sorted(recorded):
        node, mask = recorded[node_id], 0
        for t in node.parents:
            mask |= masks.get(t.node_id, 0)
        if mask:
            masks[node_id] = masks.get(node_id, 0) | mask
            while mask:
                bit = mask & -mask
                cones[bit.bit_length() - 1].append(node)
                mask ^= bit
    return cones


def _replay(nodes: list[Tensor], loss: Tensor, slots: int) -> np.ndarray:
    """The (slots,) losses after recomputing ``nodes`` in order with their recorded kernels on
    their parents' current arrays; a loss that no node recomputes is the same in every slot."""
    for node in nodes:
        kernel, static = node.call
        node.data = kernel(*static, *[t.data for t in node.parents])
    return loss.data if nodes else np.broadcast_to(loss.data, (slots,))


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    tol: float = TOL,
    max_entries: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients of the scalar ``f()`` against central differences.

    ``f`` must be deterministic and rebuild its graph from the live ``params``
    tensors on every call; it runs twice when every replay is exact (module
    docstring). When ``max_entries`` (None or an int >= 1) is set, a seeded
    subsample of entries per parameter is perturbed instead of every entry.
    """
    if max_entries is not None and (type(max_entries) is not int or max_entries < 1):
        raise ConfigError(f"max_entries must be None or an int >= 1, got {max_entries!r}")
    report = GradCheckReport()

    for _, p in params:
        p.zero_grad()
    loss = f()
    loss.backward()
    # by position, not by name: two parameters may share a name
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for _, p in params]

    rng = np.random.default_rng(seed)
    chosen = []
    for _, p in params:
        n = p.data.size
        if max_entries is not None and n > max_entries:
            idx = rng.choice(n, size=max_entries, replace=False)
            idx.sort()
        else:
            idx = np.arange(n)
        chosen.append(idx)
    groups: list[list[tuple[int, np.ndarray]]] = []  # (k, entries of parameter k), MAX_SLOTS // 2 entries each
    room = 0
    for k, idx in enumerate(chosen):
        while idx.size:
            if not room:
                groups.append([])
                room = MAX_SLOTS // 2
            take = min(room, idx.size)
            groups[-1].append((k, idx[:take]))
            idx, room = idx[take:], room - take
    tensors = list(dict.fromkeys(p for _, p in params))  # by tensor, not position: a tensor may have two names
    joint, *cones = _cones(loss, [tensors] + [[params[k][1] for k, _ in group] for group in groups])

    def audit() -> bool:
        """Whether a full f() and the replay of ``joint`` (the cone of all the
        parameters at once) on one-slot stacks of the parameters give the same
        bits (every NaN hexes to "nan") with every chosen entry of every
        parameter moved at once, each by its own step in [H/2, 3H/2) from
        ``default_rng(k)`` for parameter ``k``: a uniform step can vanish, as
        in a layer_norm."""
        datas, saved = [p.data for p in tensors], [node.data for node in joint]
        try:
            for k, (_, p) in enumerate(params):
                p.data = p.data.copy()
                p.data.reshape(-1)[chosen[k]] += H * np.random.default_rng(k).uniform(0.5, 1.5, chosen[k].size)
            full = float(f().data).hex()
            for p in tensors:
                p.data = _slots(p.data, 1)
            batched = _replay(joint, loss, 1)  # a kernel that drops the batch axis gives another shape
            return batched.shape == (1,) and float(batched[0]).hex() == full
        finally:
            for p, data in zip(tensors, datas):
                p.data = data
            for node, data in zip(joint, saved):
                node.data = data

    def replayed_pairs(group: list[tuple[int, np.ndarray]], cone: list[Tensor]) -> list[tuple[float, float]]:
        """``(f(p+H), f(p-H))`` for each entry of ``group`` in order, from one
        replay of ``cone``: slot 2j holds the group's entry j moved up, 2j + 1 down."""
        slots = 2 * sum(idx.size for _, idx in group)
        datas = {params[k][1]: params[k][1].data for k, _ in group}  # by tensor, as in the audit
        saved = [node.data for node in cone]
        try:
            for p, data in datas.items():
                p.data = _slots(data, slots)
            j = 0
            for k, idx in group:
                p = params[k][1]
                rows, flat, up = p.data.reshape(slots, -1), datas[p].reshape(-1), 2 * np.arange(j, j + idx.size)
                rows[up, idx], rows[up + 1, idx] = flat[idx] + H, flat[idx] - H
                j += idx.size
            values = _replay(cone, loss, slots).tolist()
        finally:
            for p, data in datas.items():
                p.data = data
            for node, data in zip(cone, saved):
                node.data = data
        return list(zip(values[0::2], values[1::2]))

    def full_pair(k: int, i: int) -> tuple[float, float]:
        """``(f(p+H), f(p-H))`` by full forwards for entry ``i`` of parameter ``k``."""
        p, data, pair = params[k][1], params[k][1].data, []
        try:
            for step in (H, -H):
                p.data = data.copy()  # a moved copy, as the audit and the replays use: data may be a view
                p.data.reshape(-1)[i] += step
                pair.append(float(f().data))
        finally:
            p.data = data
        return pair[0], pair[1]

    if audit():
        pairs = [pair for group, cone in zip(groups, cones) for pair in replayed_pairs(group, cone)]
    else:  # the loss depends on a parameter by a path that no recorded kernel shows
        pairs = [full_pair(k, i) for k, idx in enumerate(chosen) for i in idx]
    start = 0
    for (name, _), idx, grad in zip(params, chosen, analytic):
        a_flat = grad.reshape(-1)
        max_rel = 0.0
        note = ""
        for i, (f_plus, f_minus) in zip(idx, pairs[start:start + len(idx)]):
            a = a_flat[i]
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                note = f"non-finite forward while perturbing entry {i}"
            elif not np.isfinite(a):
                note = f"non-finite analytic gradient at entry {i}"
            if note:
                max_rel = np.inf
                break
            numeric = (f_plus - f_minus) / (2.0 * H)
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), DELTA)
            max_rel = max(max_rel, rel)
        start += len(idx)
        report.params.append(
            ParamReport(name=name, n_checked=len(idx), max_rel_err=max_rel, ok=max_rel <= tol, note=note)
        )
    return report
