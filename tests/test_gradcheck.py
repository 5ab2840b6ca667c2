"""Finite-difference checker behaviour, plus per-op gradient verification."""

import inspect
import os

import numpy as np
import pytest

from semaffine import gradcheck, verify
from semaffine import tensor as T
from semaffine.errors import ConfigError, NumericError
from semaffine.gradcheck import finite_diff_check
from semaffine.tensor import Tensor
from upstream import _weighted_sum, weighted_sum


def _wrong_sum(x, factor):
    """sum(x) as one recorded op node with a deliberately wrong backward:
    ``factor`` times the true gradient."""
    ones = np.ones(x.shape)
    return T._result(_weighted_sum(ones, x.data), (x,), "bad_sum",
                     lambda g: T._accumulate(x, factor * np.full_like(x.data, float(g))), _weighted_sum, (ones,))


class TestFiniteDiffCheck:
    def test_quadratic_three_params(self):
        # sum(c * x**2) = x @ (c x).T: an mlp layer makes the row c x, a second one dots x with it
        x = Tensor([[1.5, -0.5, 2.0]], requires_grad=True)
        c = np.array([2.0, 1.0, 3.0])

        def f():
            cx = T.mlp(x, [(Tensor(np.diag(c)), Tensor(np.zeros(3)))])
            return weighted_sum(T.mlp(x, [(cx, Tensor([0.0]))]), [[1.0]])

        report = finite_diff_check(f, [("x", x)], tol=1e-8)
        assert report.passed
        assert report.max_rel_err < 1e-8

    def test_zero_function_passes_by_absolute_floor(self):
        x = Tensor([0.3, -0.8], requires_grad=True)

        def f():
            return weighted_sum(x, [0.0, 0.0])

        report = finite_diff_check(f, [("x", x)])
        assert report.passed
        assert report.max_rel_err == 0.0

    def test_corrupted_gradient_detected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)

        def f():
            return _wrong_sum(x, 2.0)  # forward sum(x), backward 2

        report = finite_diff_check(f, [("x", x)], tol=1e-5)
        assert not report.passed
        np.testing.assert_allclose(report.params[0].max_rel_err, 1 / 3, atol=1e-6)

    def test_nan_forward_names_parameter(self):
        x = Tensor([1e308], requires_grad=True)

        def f():
            return weighted_sum(x, [10.0])

        with np.errstate(over="ignore"):  # 10 * x overflows
            report = finite_diff_check(f, [("x", x)])
        assert not report.passed
        assert "non-finite" in report.params[0].note

    def test_nan_gradient_fails(self):
        # a NaN analytic entry compares False against every error bound, so it
        # must fail on its own rather than slip past the max_rel_err test
        x = Tensor([1.0, 2.0], requires_grad=True)

        def f():
            return T._result(x.data.sum(), (x,), "nan_sum", lambda g: T._accumulate(x, np.array([1.0, np.nan])),
                             np.sum)

        report = finite_diff_check(f, [("x", x)])
        assert not report.passed
        assert report.params[0].note == "non-finite analytic gradient at entry 1"

    def test_entry_subsampling_is_deterministic(self):
        x = Tensor(np.linspace(-1, 1, 50), requires_grad=True)

        def f():
            return weighted_sum(T.softplus(x), np.ones(50))

        r1 = finite_diff_check(f, [("x", x)], max_entries=10, seed=3)
        r2 = finite_diff_check(f, [("x", x)], max_entries=10, seed=3)
        assert r1.params[0].n_checked == 10
        assert r1.params[0].max_rel_err == r2.params[0].max_rel_err

    @pytest.mark.parametrize("max_entries", [0, -1, 2.0, True, "3", np.int64(3)])
    def test_max_entries_must_be_none_or_a_positive_int(self, max_entries):
        # 0 used to report every parameter PASS with entries=0, and -1 to raise numpy's ValueError
        x = Tensor([1.0, 2.0], requires_grad=True)

        def f():
            pytest.fail("ran a forward before checking max_entries")

        with pytest.raises(ConfigError, match="max_entries must be None or an int >= 1"):
            finite_diff_check(f, [("x", x)], max_entries=max_entries)

    @pytest.mark.parametrize("hidden", [False, True], ids=["replayed", "full_forwards"])
    def test_a_parameter_that_is_a_view_is_moved(self, hidden):
        # w's data is a transposed view, so a flat copy of it is no view: moving entries of
        # that copy never reached the forward, and w failed with max_rel_err 1
        rng = np.random.default_rng(18)
        w = Tensor(rng.standard_normal((4, 3)).T, requires_grad=True)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        targets = rng.random((5, 3)) < 0.5

        def f():
            loss = T.bce_with_logits(T.mlp(x, [(w, Tensor(np.zeros(3)))]), targets)
            # x read outside the ops fails the joint audit, so every entry takes full forwards
            return T.add(loss, T.bce_with_logits(Tensor(x.data.copy()), np.zeros((5, 4)))) if hidden else loss

        report = finite_diff_check(f, [("w", w), ("x", x)])
        statuses = [line.split()[0] for line in report.lines()]
        assert statuses == ["PASS", "FAIL" if hidden else "PASS"], report.lines()
        assert not w.data.flags.c_contiguous

    @pytest.mark.parametrize("names", [("w", "w2"), ("w", "w")], ids=["distinct", "shared"])
    def test_parameters_sharing_a_name_keep_their_own_gradients(self, names):
        rng = np.random.default_rng(17)
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        targets = (rng.random((3, 4)) < 0.5).astype(float)

        def f():
            return T.bce_with_logits(T.matmul(a, b), targets)

        report = finite_diff_check(f, list(zip(names, (a, b))))
        assert [p.name for p in report.params] == list(names)
        assert report.passed, report.lines()


def _subsampled_case():
    """Three parameters, two of them subsampled, with a gradient error on one."""
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    b = Tensor(rng.standard_normal(7), requires_grad=True)
    c = Tensor(rng.standard_normal(40), requires_grad=True)

    def f():
        return T.add(T.add(_mix_loss(T.softplus(a)), _mix_loss(T.softplus(b), seed=1)), _wrong_sum(c, 1.5))

    return f, [("a", a), ("b", b), ("c", c)], dict(max_entries=10, seed=4)


def _non_finite_case():
    """A forward that overflows, as in ``test_nan_forward_names_parameter``,
    but only when ``x`` moves up, and after a finite parameter, so the
    non-finite forward lands in a later block."""
    y = Tensor(np.linspace(-1, 1, 5), requires_grad=True)
    x = Tensor([1.7976931], requires_grad=True)  # x * 1e308 is finite, (x + 1e-6) * 1e308 is not

    def f():
        edge = T.add(weighted_sum(x, [1e308]), Tensor(-1.7976931e308))
        return T.add(_mix_loss(T.softplus(y)), edge)

    return f, [("y", y), ("x", x)], {}


def _fork_for(monkeypatch, workers, ops_per_worker=1):
    """Let ``_ordered_map`` use ``workers`` workers, one per ``ops_per_worker``
    kernel calls (None: the module's threshold)."""
    monkeypatch.setattr(gradcheck, "_worker_count", lambda: workers)
    if ops_per_worker is not None:
        monkeypatch.setattr(gradcheck, "MIN_OPS_PER_WORKER", ops_per_worker)


def _check_with_workers(monkeypatch, workers, make_case):
    _fork_for(monkeypatch, workers)
    f, params, kwargs = make_case()
    before = [p.data.tobytes() for _, p in params]
    with np.errstate(over="ignore"):
        report = finite_diff_check(f, params, **kwargs)
    assert [p.data.tobytes() for _, p in params] == before
    return report


def _count_forks(monkeypatch) -> list:
    """Patch ``os.fork`` to append to the returned list on every call."""
    started, real_fork = [], os.fork

    def counted_fork():
        started.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return started


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the forward pairs run inline without os.fork")
class TestParallelForwards:
    @pytest.mark.parametrize("make_case", [_subsampled_case, _non_finite_case], ids=["subsampled", "non_finite"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_reports_equal_serial_and_parameters_untouched(self, monkeypatch, workers, make_case):
        serial = _check_with_workers(monkeypatch, 1, make_case)
        report = _check_with_workers(monkeypatch, workers, make_case)
        _assert_no_children()
        assert report == serial
        assert not report.passed and any(p.ok for p in report.params)

    @pytest.mark.parametrize("entry", [8, 0], ids=["last_block", "first_block"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_exception_keeps_type_and_message(self, monkeypatch, workers, entry):
        # entry 8 lies in a child's block, entry 0 in the caller's own; the
        # joint audit moves both, so it raises first, in the caller
        _fork_for(monkeypatch, workers)
        x = Tensor(np.arange(9.0), requires_grad=True)

        def checked_sum(a):  # a recorded kernel, so replaying the entry's perturbation raises
            if a[entry] != entry:
                raise NumericError(f"entry {entry} perturbed")
            return a.sum()

        def f():
            return T._result(checked_sum(x.data), (x,), "checked_sum",
                             lambda g: T._accumulate(x, np.full_like(x.data, float(g))), checked_sum)

        with pytest.raises(NumericError, match=f"entry {entry} perturbed"):
            finite_diff_check(f, [("x", x)])
        _assert_no_children()
        assert x.data.tolist() == list(np.arange(9.0))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_no_items_fork_nothing(self, monkeypatch, workers):
        _fork_for(monkeypatch, workers)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for an empty item list"))
        assert gradcheck._ordered_map(lambda x: 2 * x, [], []) == []

    # with two slots per replay each entry is one replay of 2 ops (softplus, weighted_sum), so 9
    # entries replay 18: with 9 ops per worker they are worth 2 workers, with 10 or the
    # module's threshold (None) only 1
    @pytest.mark.parametrize("workers, entries, forks, ops_per_worker", [
        pytest.param(1, 9, 0, 1, id="1-9-0"), pytest.param(2, 9, 1, 1, id="2-9-1"),
        pytest.param(3, 9, 2, 1, id="3-9-2"), pytest.param(3, 2, 1, 1, id="3-2-1"),
        pytest.param(3, 9, 1, 9, id="3-9-1-9_ops_per_worker"),
        pytest.param(3, 9, 0, 10, id="3-9-0-10_ops_per_worker"),
        pytest.param(3, 9, 0, None, id="3-9-0-module_threshold"),
    ])
    def test_forks_at_most_one_child_per_other_worker(self, monkeypatch, workers, entries, forks, ops_per_worker):
        _fork_for(monkeypatch, workers, ops_per_worker)
        monkeypatch.setattr(gradcheck, "MAX_SLOTS", 2)
        started = _count_forks(monkeypatch)
        x = Tensor(np.linspace(0.5, 1.5, entries), requires_grad=True)
        assert finite_diff_check(lambda: weighted_sum(T.softplus(x), np.ones(entries)), [("x", x)]).passed
        assert len(started) == forks
        _assert_no_children()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_costs_cut_contiguous_blocks_in_item_order(self, monkeypatch, workers):
        # three heavy items and six light ones, as early backbone cones against affine heads
        _fork_for(monkeypatch, workers)
        started = _count_forks(monkeypatch)
        items, costs = list(range(9)), [70] * 3 + [10] * 6
        results = gradcheck._ordered_map(lambda x: (os.getpid(), x * x), items, costs)
        _assert_no_children()
        assert [r[1] for r in results] == [x * x for x in items]
        pids = [r[0] for r in results]
        runs = [pid for n, pid in enumerate(pids) if n == 0 or pids[n - 1] != pid]
        assert runs[0] == os.getpid() and len(runs) == len(set(runs)) == workers  # contiguous, non-empty
        assert len(started) == workers - 1
        blocks = [sum(c for c, pid in zip(costs, pids) if pid == run) for run in runs]
        assert blocks == {1: [270], 2: [140, 130], 3: [70, 140, 60]}[workers]

        def square_below_8(x):
            if x == 8:
                raise NumericError("item 8 raised")
            return x * x

        with pytest.raises(NumericError, match="item 8 raised"):  # from the last block
            gradcheck._ordered_map(square_below_8, items, costs)
        _assert_no_children()


class TestReplay:
    @pytest.mark.parametrize("read", [slice(None), slice(1, None)], ids=["whole", "tail"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_data_read_outside_the_ops_still_fails(self, monkeypatch, workers, read):
        # 2 * x.data[read] moves with x in a full forward but is no recorded
        # argument, so the joint audit sees it, and the check falls back to full forwards
        _fork_for(monkeypatch, workers)
        x = Tensor([0.5, -0.5, -1.5], requires_grad=True)
        y = Tensor([-1.0, 0.0, -0.5], requires_grad=True)

        def f():
            hidden = np.zeros(3)
            hidden[read] = 2 * x.data[read]
            return T.add(_linear_loss(x, y), weighted_sum(Tensor(hidden), np.ones(3)))

        report = finite_diff_check(f, [("x", x), ("y", y)])
        assert [line.split("max_rel_err")[0] for line in report.lines()] == ["FAIL  x  ", "PASS  y  "]
        np.testing.assert_allclose(report.params[0].max_rel_err, 1.0, rtol=1e-6)
        assert x.data.tolist() == [0.5, -0.5, -1.5]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_joint_audit_falls_back_the_whole_check(self, monkeypatch, workers):
        # the joint audit moves x and y at once and sees x's hidden read, so
        # every entry of x and of y takes full forwards
        _fork_for(monkeypatch, workers)
        x = Tensor([0.5, -0.5, -1.5], requires_grad=True)
        y = Tensor([-1.0, 0.0, -0.5], requires_grad=True)
        read_fd, write_fd = os.pipe()  # one byte per call of f, from the forked workers too

        def f():
            os.write(write_fd, b".")
            return T.add(_linear_loss(x, y), weighted_sum(Tensor(2 * x.data), np.ones(3)))

        try:
            report = finite_diff_check(f, [("x", x), ("y", y)])
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd, "rb") as calls:
            assert len(calls.read()) == 1 + 1 + 2 * 6  # first, joint audit, every entry's pair
        _assert_no_children()
        assert [line.split("max_rel_err")[0] for line in report.lines()] == ["FAIL  x  ", "PASS  y  "]
        assert x.data.tolist() == [0.5, -0.5, -1.5] and y.data.tolist() == [-1.0, 0.0, -0.5]

    @pytest.mark.parametrize("module", verify.MODULES)
    def test_suite_replays_exactly_with_two_forwards(self, monkeypatch, module):
        # an op that forgot to record its call would fail the joint audit here
        maps = []
        real_map = gradcheck._ordered_map

        def spied_map(fn, items, costs):
            results = real_map(fn, items, costs)
            maps.append((items, results))
            return results

        monkeypatch.setattr(gradcheck, "_ordered_map", spied_map)
        for _, name, loss, params, tol, max_entries in verify.iter_checks(module):
            maps.clear()
            read_fd, write_fd = os.pipe()  # one byte per call of f, from the forked workers too

            def f():
                os.write(write_fd, b".")
                return loss()

            try:
                assert finite_diff_check(f, params, tol=tol, max_entries=max_entries).passed, name
            finally:
                os.close(write_fd)
            with os.fdopen(read_fd, "rb") as calls:
                assert len(calls.read()) == 2, name  # the first forward and the joint audit
            items, chunks = maps[0]  # the replay pass: one item per chunk of a parameter's entries
            entries = [(k, i) for k, idx in items for i in idx]
            pairs = [pair for chunk in chunks for pair in chunk]

            def full_pair(n):  # f at p+H and at p-H for entries[n], by full forwards
                k, i = entries[n]
                flat = params[k][1].data.reshape(-1)
                orig, out = flat[i], []
                for step in (gradcheck.H, -gradcheck.H):
                    flat[i] = orig + step
                    out.append(float(loss().data).hex())
                flat[i] = orig
                return out

            first = [n for n, (k, _) in enumerate(entries) if n == 0 or entries[n - 1][0] != k]  # k's first entry
            assert [entries[n][0] for n in first] == list(range(len(params))), name
            assert [[p.hex() for p in pairs[n]] for n in first] == [full_pair(n) for n in first], name

    def test_suite_replays_each_parameter_once(self, monkeypatch):
        # after each check's joint audit, one replay per parameter: 334 replays making
        # 8,236 kernel calls per round, where one replay per entry and step made 91,178
        monkeypatch.setattr(gradcheck, "_worker_count", lambda: 1)  # count every replay in this process
        replays, real_replay = [], gradcheck._replay

        def counted(nodes, *args):
            replays[-1].append(len(nodes))
            return real_replay(nodes, *args)

        monkeypatch.setattr(gradcheck, "_replay", counted)
        for _, name, loss, params, tol, max_entries in verify.iter_checks():
            replays.append([])
            assert finite_diff_check(loss, params, tol=tol, max_entries=max_entries).passed, name
        per_parameter = [calls for check in replays for calls in check[1:]]  # each check's first is its audit
        assert (len(replays), len(per_parameter), sum(per_parameter)) == (23, 334, 8236)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_suite_forks_no_more_than_one_replay_per_entry_did(self, monkeypatch, workers):
        # with per-entry replays, only end_to_end_16pt forked: min(workers, 5) - 1 children
        monkeypatch.setattr(gradcheck, "_worker_count", lambda: workers)
        started = _count_forks(monkeypatch)
        forks = {}
        for module, name, loss, params, tol, max_entries in verify.iter_checks():
            before = len(started)
            assert finite_diff_check(loss, params, tol=tol, max_entries=max_entries).passed, name
            forks[f"{module}.{name}"] = len(started) - before
        _assert_no_children()
        assert {check: n for check, n in forks.items() if n} == {"model.end_to_end_16pt": min(workers, 5) - 1}

    def test_unrecorded_softmax_takes_full_forwards(self, monkeypatch):
        # softmax nodes without a record hide the paths through them from
        # every replay: the joint audit fails, and every entry takes two full forwards
        softmax = T.softmax

        def unrecorded_softmax(a):
            out = softmax(a)
            out.call = None
            return out

        monkeypatch.setattr(T, "softmax", unrecorded_softmax)
        [(_, _, loss, params, tol, _)] = [c for c in verify.iter_checks("model") if c[1] == "end_to_end_16pt"]
        read_fd, write_fd = os.pipe()  # one byte per call of f, from the forked workers too

        def f():
            os.write(write_fd, b".")
            return loss()

        try:
            assert finite_diff_check(f, params, tol=tol, max_entries=1).passed
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd, "rb") as calls:
            assert len(calls.read()) == 1 + 1 + 2 * len(params)  # first, joint audit, every entry's pair
        _assert_no_children()


# the recorded ops: every public function of tensor.py but the two tape walks
RECORDED_OPS = sorted(name for name, fn in vars(T).items()
                      if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_")
                      and name not in ("downstream", "backward"))
MUTATED_MODULES = ("tensor", "hierarchy", "losses")  # together they call every recorded op


def _mutated_suite() -> list[tuple[str, list[str], int]]:
    """(check, report lines, calls of its loss) for each check of ``MUTATED_MODULES``."""
    out = []
    for module, name, loss, params, tol, max_entries in verify.iter_checks():
        if module in MUTATED_MODULES:
            calls = []

            def f(loss=loss, calls=calls):
                calls.append(1)
                return loss()

            report = finite_diff_check(f, params, tol=tol, max_entries=max_entries)
            out.append((f"{module}.{name}", report.lines(), len(calls)))
    return out


@pytest.fixture(scope="module")
def unmutated_suite():
    return _mutated_suite()


@pytest.mark.parametrize("op", RECORDED_OPS)
def test_dropping_an_ops_record_falls_back_to_the_same_reports(monkeypatch, unmutated_suite, op):
    # an op node without its (kernel, static) hides the paths through it from
    # every replay; each check that uses it takes full forwards, with the same reports
    recorded = getattr(T, op)

    def unrecorded(*args, **kwargs):
        out = recorded(*args, **kwargs)
        out.call = None
        return out

    monkeypatch.setattr(T, op, unrecorded)
    monkeypatch.setattr(gradcheck, "_worker_count", lambda: 1)  # count every call of f in this process
    mutated = _mutated_suite()
    assert [(name, lines) for name, lines, _ in mutated] == [(name, lines) for name, lines, _ in unmutated_suite]
    assert all(calls == 2 for _, _, calls in unmutated_suite)
    assert any(calls > 2 for _, _, calls in mutated), f"no check uses {op}"


def _mix_loss(out, seed=0):
    """Scalar projection with fixed random weights so every entry matters."""
    return weighted_sum(out, np.random.default_rng(seed).standard_normal(out.shape))


def _linear_loss(x, y):
    """sum((x + y) * y0), y0 being y's starting values: the gradient of x and
    of y is y0, as in sum(x * y) at that point."""
    return weighted_sum(T.add(x, y), [-1.0, 0.0, -0.5])


OPS = {
    "matmul": lambda a, b: T.matmul(a, b),
    "add": lambda a, b: T.add(a, b),
}


class TestPerOpGradients:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_binary_ops(self, name):
        rng = np.random.default_rng(11)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)) if name == "matmul" else rng.standard_normal((3, 4)),
                   requires_grad=True)

        def f():
            return _mix_loss(OPS[name](a, b))

        report = finite_diff_check(f, [("a", a), ("b", b)])
        assert report.passed, report.lines()

    @pytest.mark.parametrize("op", ["relu", "softplus"])
    def test_unary_ops(self, op):
        rng = np.random.default_rng(12)
        # keep relu preactivations away from the kink
        x = Tensor(rng.uniform(0.2, 1.5, (3, 5)) * rng.choice([-1.0, 1.0], (3, 5)),
                   requires_grad=True)
        # the hidden ReLU of an mlp between identity layers, which pass x on as it is
        identity = (Tensor(np.eye(5)), Tensor(np.zeros(5)))
        fn = {"relu": lambda x: T.mlp(x, [identity, identity]), "softplus": T.softplus}[op]

        def f():
            return _mix_loss(fn(x))

        report = finite_diff_check(f, [("x", x)])
        assert report.passed, report.lines()

    @pytest.mark.parametrize("fn", [T.softmax])
    def test_softmax_family(self, fn):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)

        def f():
            return _mix_loss(fn(x))

        report = finite_diff_check(f, [("x", x)])
        assert report.passed, report.lines()

    def test_layer_norm(self):
        # (d,) gain/bias rows on one input, (n, d) per-point gain/bias on another
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
        rows = [Tensor(rng.standard_normal(7), requires_grad=True) for _ in range(2)]
        points = [Tensor(rng.standard_normal((5, 7)), requires_grad=True) for _ in range(2)]

        def f():
            return T.add(_mix_loss(T.layer_norm(x, *rows)),
                         _mix_loss(T.layer_norm(x, *points), seed=1))

        named = [("x", x), ("gain_row", rows[0]), ("bias_row", rows[1]),
                 ("gain_points", points[0]), ("bias_points", points[1])]
        report = finite_diff_check(f, named)
        assert report.passed, report.lines()

    def test_indexing_ops(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        parent = np.array([0, 1, 1, 0, 2, 2])

        def f():
            pooled = T.pool_rows_mean(x, parent, 3)
            return _mix_loss(T.gather_rows(pooled, parent))

        report = finite_diff_check(f, [("x", x)])
        assert report.passed, report.lines()

    def test_composite_softmax_matmul_graph(self):
        rng = np.random.default_rng(17)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)

        def f():
            return _mix_loss(T.softmax(T.matmul(a, b)))

        report = finite_diff_check(f, [("a", a), ("b", b)], tol=1e-5)
        assert report.passed, report.lines()
