"""Finite-difference checker behaviour, plus per-op gradient verification."""

import inspect
import itertools

import numpy as np
import pytest

from semaffine import gradcheck, verify
from semaffine import tensor as T
from semaffine.errors import ConfigError, NumericError
from semaffine.gradcheck import ParamReport, finite_diff_check
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
    non-finite forward lands in a later replay or in one shared with ``y``."""
    y = Tensor(np.linspace(-1, 1, 5), requires_grad=True)
    x = Tensor([1.7976931], requires_grad=True)  # x * 1e308 is finite, (x + 1e-6) * 1e308 is not

    def f():
        edge = T.add(weighted_sum(x, [1e308]), Tensor(-1.7976931e308))
        return T.add(_mix_loss(T.softplus(y)), edge)

    return f, [("y", y), ("x", x)], {}


def _checked(make_case):
    """The report of ``make_case``'s check, which leaves its parameters' data untouched."""
    f, params, kwargs = make_case()
    before = [p.data.tobytes() for _, p in params]
    with np.errstate(over="ignore"):
        report = finite_diff_check(f, params, **kwargs)
    assert [p.data.tobytes() for _, p in params] == before
    return report


class _Replays:
    """Spies on ``gradcheck._replay``: for each replay after the joint audit,
    the (parameter position, flat entry) that each pair of slots moves, read
    off the stacked parameters, and the (B,) losses it gives."""

    def __init__(self, monkeypatch, params):
        self.params, self.calls = params, []
        self.start = [p.data.copy() for _, p in params]
        real = gradcheck._replay

        def spied(nodes, loss, slots):
            values = real(nodes, loss, slots)
            audit = not self.calls  # the joint audit replays first, with every entry moved
            self.calls.append((None if audit else self._moved(slots), values.tolist()))
            return values

        monkeypatch.setattr(gradcheck, "_replay", spied)

    def _moved(self, slots):
        changed = [(k, p.data.reshape(slots, -1) != data.reshape(-1))
                   for k, ((_, p), data) in enumerate(zip(self.params, self.start)) if p.data.ndim > data.ndim]
        moved = []
        for s in range(slots):
            [entry] = [(k, int(i)) for k, rows in changed for i in np.flatnonzero(rows[s])]
            moved.append(entry)
        return moved

    def groups(self):
        """The replays after the joint audit: for each, its entries in slot
        order and their (f(p+H), f(p-H)) pairs."""
        out = []
        for moved, values in self.calls[1:]:
            assert moved[0::2] == moved[1::2]  # slot 2j moves entry j up, 2j + 1 down
            out.append((moved[0::2], list(zip(values[0::2], values[1::2]))))
        return out


def _full_pair(loss, params, k, i):
    """f at p+H and at p-H for entry i of parameter k, by full forwards, in hex."""
    flat = params[k][1].data.reshape(-1)
    orig, out = flat[i], []
    for step in (gradcheck.H, -gradcheck.H):
        flat[i] = orig + step
        out.append(float(loss().data).hex())
    flat[i] = orig
    return out


class TestParallelForwards:
    """Perturbed forwards run side by side, as the slots of one replay, all in the calling process."""

    @pytest.mark.parametrize("make_case", [_subsampled_case, _non_finite_case], ids=["subsampled", "non_finite"])
    @pytest.mark.parametrize("per_replay", [2, 3])
    def test_reports_equal_serial_and_parameters_untouched(self, monkeypatch, per_replay, make_case):
        # serial: one entry per replay; groups of 2 or 3 entries straddle the parameters' boundaries
        monkeypatch.setattr(gradcheck, "MAX_SLOTS", 2)
        serial = _checked(make_case)
        monkeypatch.setattr(gradcheck, "MAX_SLOTS", 2 * per_replay)
        report = _checked(make_case)
        assert report == serial
        assert not report.passed and any(p.ok for p in report.params)

    @pytest.mark.parametrize("entry", [8, 0], ids=["last_block", "first_block"])
    @pytest.mark.parametrize("per_replay", [1, 2, 3])
    def test_exception_keeps_type_and_message(self, monkeypatch, per_replay, entry):
        # the joint audit moves every entry up, so only the replay that moves the
        # entry down raises: the last or the first of the replays of per_replay entries
        monkeypatch.setattr(gradcheck, "MAX_SLOTS", 2 * per_replay)
        x = Tensor(np.arange(9.0), requires_grad=True)
        ones = np.ones(9)

        def checked_sum(a):  # a recorded kernel, so replaying the entry's perturbation raises
            if (a[..., entry] < entry).any():
                raise NumericError(f"entry {entry} moved down")
            return _weighted_sum(ones, a)

        def f():
            return T._result(checked_sum(x.data), (x,), "checked_sum",
                             lambda g: T._accumulate(x, np.full_like(x.data, float(g))), checked_sum)

        with pytest.raises(NumericError, match=f"entry {entry} moved down"):
            finite_diff_check(f, [("x", x)])
        assert x.data.shape == (9,) and x.data.tolist() == list(np.arange(9.0))

    def test_a_tensor_under_two_names_keeps_its_reports_and_data(self):
        # keyed by position, the second name's stack would save the first name's as the original
        rng = np.random.default_rng(19)
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        targets = rng.random((3, 4)) < 0.5

        def f():
            return T.bce_with_logits(T.matmul(a, b), targets)

        before = [a.data.tobytes(), b.data.tobytes()]
        once = finite_diff_check(f, [("a", a), ("b", b)])
        twice = finite_diff_check(f, [("a", a), ("b", b), ("b_again", b)])
        assert [a.data.tobytes(), b.data.tobytes()] == before
        again = ParamReport(**{**vars(once.params[1]), "name": "b_again"})
        assert twice.params == once.params + [again]
        assert twice.passed

    def test_one_replay_spans_a_parameter_boundary(self, monkeypatch):
        # 4 entries per replay: a's 5 entries and b's 130 make 34 replays, and the second moves a and b
        monkeypatch.setattr(gradcheck, "MAX_SLOTS", 8)
        rng = np.random.default_rng(21)
        a = Tensor(rng.standard_normal((1, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 26)), requires_grad=True)
        targets = rng.random((1, 26)) < 0.5

        def f():
            return T.bce_with_logits(T.softplus(T.matmul(a, b)), targets)

        params = [("a", a), ("b", b)]
        replays = _Replays(monkeypatch, params)
        assert finite_diff_check(f, params).passed
        groups = replays.groups()
        assert [len(entries) for entries, _ in groups] == [4] * 33 + [3]
        assert [sorted({k for k, _ in entries}) for entries, _ in groups][:3] == [[0], [0, 1], [1]]
        entries = [entry for group, _ in groups for entry in group]
        assert entries == [(0, i) for i in range(5)] + [(1, i) for i in range(130)]
        pairs = [[v.hex() for v in pair] for _, group_pairs in groups for pair in group_pairs]
        assert pairs == [_full_pair(f, params, k, i) for k, i in entries]


class TestReplay:
    @pytest.mark.parametrize("read", [slice(None), slice(1, None)], ids=["whole", "tail"])
    @pytest.mark.parametrize("per_replay", [1, 2])
    def test_data_read_outside_the_ops_still_fails(self, monkeypatch, per_replay, read):
        # 2 * x.data[read] moves with x in a full forward but is no recorded
        # argument, so the joint audit sees it, and the check falls back to full
        # forwards, with one entry or two per replay alike
        monkeypatch.setattr(gradcheck, "MAX_SLOTS", 2 * per_replay)
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

    @pytest.mark.parametrize("per_replay", [1, 2])
    def test_failed_joint_audit_falls_back_the_whole_check(self, monkeypatch, per_replay):
        # the joint audit moves x and y at once and sees x's hidden read, so
        # every entry of x and of y takes full forwards, whatever the replays' size
        monkeypatch.setattr(gradcheck, "MAX_SLOTS", 2 * per_replay)
        x = Tensor([0.5, -0.5, -1.5], requires_grad=True)
        y = Tensor([-1.0, 0.0, -0.5], requires_grad=True)
        calls = []

        def f():
            calls.append(1)
            return T.add(_linear_loss(x, y), weighted_sum(Tensor(2 * x.data), np.ones(3)))

        report = finite_diff_check(f, [("x", x), ("y", y)])
        assert len(calls) == 1 + 1 + 2 * 6  # first, joint audit, every entry's pair
        assert [line.split("max_rel_err")[0] for line in report.lines()] == ["FAIL  x  ", "PASS  y  "]
        assert x.data.tolist() == [0.5, -0.5, -1.5] and y.data.tolist() == [-1.0, 0.0, -0.5]

    @pytest.mark.parametrize("module", verify.MODULES)
    def test_suite_replays_exactly_with_two_forwards(self, monkeypatch, module):
        # an op that forgot to record its call would fail the joint audit here; the
        # replayed pairs checked against full forwards are each parameter's first and
        # last entry and the entries on either side of each boundary between replays
        for _, name, loss, params, tol, max_entries in verify.iter_checks(module):
            calls = []

            def f():
                calls.append(1)
                return loss()

            with monkeypatch.context() as patched:
                replays = _Replays(patched, params)
                assert finite_diff_check(f, params, tol=tol, max_entries=max_entries).passed, name
            assert len(calls) == 2, name  # the first forward and the joint audit
            groups = replays.groups()
            entries = [entry for group, _ in groups for entry in group]
            pairs = [[v.hex() for v in pair] for _, group_pairs in groups for pair in group_pairs]
            firsts = [n for n, (k, _) in enumerate(entries) if n == 0 or entries[n - 1][0] != k]
            lasts = [n - 1 for n in firsts[1:]] + [len(entries) - 1]
            assert [entries[n][0] for n in firsts] == list(range(len(params))), name
            cuts = itertools.accumulate(len(group) for group, _ in groups[:-1])  # each later replay's first entry
            picked = sorted(set(firsts + lasts) | {n for cut in cuts for n in (cut - 1, cut)})
            assert [pairs[n] for n in picked] == [_full_pair(loss, params, *entries[n]) for n in picked], name

    def test_suite_shares_replays_across_parameters(self, monkeypatch):
        # after each check's joint audit, one replay per MAX_SLOTS // 2 consecutive entries
        # across parameters: 53 replays making 877 kernel calls per round
        replays, real_replay = [], gradcheck._replay

        def counted(nodes, *args):
            replays[-1].append(len(nodes))
            return real_replay(nodes, *args)

        monkeypatch.setattr(gradcheck, "_replay", counted)
        for _, name, loss, params, tol, max_entries in verify.iter_checks():
            replays.append([])
            assert finite_diff_check(loss, params, tol=tol, max_entries=max_entries).passed, name
        shared = [calls for check in replays for calls in check[1:]]  # each check's first is its audit
        assert (len(replays), len(shared), sum(shared)) == (23, 53, 877)

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
        calls = []

        def f():
            calls.append(1)
            return loss()

        assert finite_diff_check(f, params, tol=tol, max_entries=1).passed
        assert len(calls) == 1 + 1 + 2 * len(params)  # first, joint audit, every entry's pair


# the recorded ops: every public function of tensor.py but the tape walk
RECORDED_OPS = sorted(name for name, fn in vars(T).items()
                      if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_")
                      and name != "backward")
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
