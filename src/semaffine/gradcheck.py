"""Central finite-difference verification of analytic gradients.

The relative error for one parameter entry is

    |analytic - numeric| / max(|analytic| + |numeric|, DELTA)

so a gradient corrupted by a factor of 2 reports ~1/3. The floor ``DELTA``
absorbs central-difference roundoff (about eps*|f|/H) on entries whose true
gradient is zero or tiny; a genuinely wrong gradient lands far above it.

A perturbed loss replays only the op nodes downstream of the parameter
(``tensor.downstream``, the parameter's cone): each node's recorded array
kernel runs again on its parents' current arrays, making no node. A replay
skips the op's front: the shape, label, index and offset checks and the
scene cuts, whose results the node recorded. Those checks and cuts depend
only on shapes and non-tensor arguments, and a perturbation changes neither,
so they would pass and resolve the same again. One joint audit checks every
replay: it moves every chosen entry of every parameter at once, each by its
own step of about H, and compares a full ``f()`` bit for bit with the replay
of the union of all cones. So ``f`` runs twice in a check whose replays are
exact: once for the analytic gradients and once for the joint audit. If the
audit finds other bits, some parameter reaches the loss outside the recorded
kernels, and every entry of every parameter takes full forwards instead.

The perturbed forwards do not depend on each other, so they may run in
parallel: the chosen entries are split into contiguous blocks of about
equal numbers of replayed ops, and each block after the first runs in a
forked child. A check gets at most one block per CPU in the process's
affinity mask, and at most one per ``MIN_OPS_PER_WORKER`` replayed ops,
because a fork costs more than a few thousand replayed ops save. So a small
check runs wholly in the calling process (of ``verify``'s suite, every check
but the 16-point model does), and under ``taskset -c 0`` every check does.
Each forward sees the same parameter values either way, so the reports are
bit-identical for any number of CPUs.
"""

from __future__ import annotations

import bisect
import itertools
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, downstream

H = 1e-6  # central-difference step
DELTA = 1e-3  # floor of the relative error's denominator
TOL = 1e-5  # default largest relative error that passes
MIN_OPS_PER_WORKER = 8000  # replayed ops that repay forking one more worker


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


def _worker_count() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or ask."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run_block(fn: Callable, block: Sequence, fd: int) -> None:
    """In a forked child: write the pickled ``([fn(x) for x in block], None)``,
    or ``(None, exc)`` for its first exception, to ``fd``; then exit without
    running the parent's exit handlers or flushing its buffered output."""
    status = 1
    try:
        try:
            payload = ([fn(x) for x in block], None)
        except BaseException as exc:  # sent to the parent, which re-raises it
            payload = (None, exc)
        try:
            data = pickle.dumps(payload)
            pickle.loads(data)
        except Exception as exc:  # an exception that cannot cross, or its pickling error
            data = pickle.dumps((None, RuntimeError(f"finite-difference worker: {exc!r}")))
        with os.fdopen(fd, "wb") as out:
            out.write(data)
        status = 0
    finally:
        os._exit(status)


def _ordered_map(fn: Callable, items: Sequence, costs: Sequence[int]) -> list:
    """``[fn(x) for x in items]``, split over ``w`` processes.

    ``w`` is ``_worker_count()``, but at most one per item and one per
    ``MIN_OPS_PER_WORKER`` of the items' total cost (their replayed ops),
    and at least 1. The items are cut into ``w`` contiguous, non-empty blocks
    of about equal total cost: with ``costs`` laid end to end, an item goes
    to block ``b`` when the middle of its span lies in the ``b``-th
    ``w``-th of the total (moved where a block would otherwise be empty). The
    calling process runs the first block; a forked child runs each other
    block on its own copy-on-write memory, so what ``fn`` mutates there
    never reaches the caller. (``fn`` is a closure over live tensors, which a
    spawned worker could not receive.) Every child is reaped before this
    returns or raises, and the first exception in item order is re-raised."""
    n, total = len(items), sum(costs)
    w = max(1, min(_worker_count(), n, total // MIN_OPS_PER_WORKER))  # one worker forks nothing
    middles = [2 * end - c for end, c in zip(itertools.accumulate(costs), costs)]  # twice each span's middle
    bounds = [0]
    for b in range(1, w):  # at least one item before the bound and one per later block
        crossed = bisect.bisect_left(middles, 2 * b * total / w)
        bounds.append(min(max(crossed, bounds[-1] + 1), n - w + b))
    bounds.append(n)
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    payloads: list[bytes] = []
    statuses: list[int] = []
    try:
        for b in range(1, w):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_block(fn, items[bounds[b]:bounds[b + 1]], write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [fn(x) for x in items[:bounds[1]]]
        for _, read_fd in children:
            with os.fdopen(read_fd, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        # a child whose result was not read is not needed: the caller raises
        for k, (pid, read_fd) in enumerate(children):
            if k >= len(payloads):
                os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            statuses.append(os.waitpid(pid, 0)[1])
    for data, status in zip(payloads, statuses):
        if not data:
            raise RuntimeError(f"a finite-difference worker exited without a result (wait status {status})")
        values, error = pickle.loads(data)
        if error is not None:
            raise error
        results.extend(values)
    return results


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
    docstring). When ``max_entries`` is set, a seeded subsample of
    entries per parameter is perturbed instead of every entry.
    """
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
    flats = [p.data.reshape(-1) for _, p in params]
    cones = downstream(loss, [p for _, p in params])
    joint = [node for _, node in sorted({node.node_id: node for cone in cones for node in cone}.items())]

    def replay(nodes: list[Tensor]) -> float:
        for node in nodes:
            kernel, static = node.call
            node.data = kernel(*static, *[t.data for t in node.parents])
        return float(loss.data)

    def audit() -> bool:
        """Whether a full f() and the replay of ``joint`` (every cone's ops,
        in creation order) give the same bits (every NaN hexes to "nan") with
        every chosen entry of every parameter moved at once, each by its own
        step in [H/2, 3H/2) from ``default_rng(k)`` for parameter ``k``: a
        uniform step can vanish, as in a layer_norm."""
        origs, saved = [flat[idx] for flat, idx in zip(flats, chosen)], [node.data for node in joint]
        try:
            for k, orig in enumerate(origs):
                flats[k][chosen[k]] = orig + H * np.random.default_rng(k).uniform(0.5, 1.5, orig.size)
            return float(f().data).hex() == replay(joint).hex()
        finally:
            for k, orig in enumerate(origs):
                flats[k][chosen[k]] = orig
            for node, data in zip(joint, saved):
                node.data = data

    exact = audit()  # False: the loss depends on a parameter by a path that no recorded kernel shows
    loss_of = replay if exact else (lambda _: float(f().data))

    def forward_pair(entry: tuple[int, int]) -> tuple[float, float]:
        """``(f(p+H), f(p-H))`` for entry ``i`` of parameter ``k``."""
        k, i = entry
        flat, orig, saved = flats[k], flats[k][i], [node.data for node in cones[k]]
        try:
            flat[i] = orig + H
            f_plus = loss_of(cones[k])
            flat[i] = orig - H
            return f_plus, loss_of(cones[k])
        finally:
            flat[i] = orig
            for node, data in zip(cones[k], saved):
                node.data = data

    items = [(k, i) for k, idx in enumerate(chosen) for i in idx]
    # a full forward recomputes every op of the joint replay
    pairs = _ordered_map(forward_pair, items, [len(cones[k]) if exact else len(joint) for k, _ in items])
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
