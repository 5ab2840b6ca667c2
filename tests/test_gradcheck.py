"""Finite-difference checker behaviour, plus per-op gradient verification."""

import os

import numpy as np
import pytest

from semaffine import gradcheck
from semaffine import tensor as T
from semaffine.errors import NumericError
from semaffine.gradcheck import finite_diff_check
from semaffine.tensor import Tensor


class TestFiniteDiffCheck:
    def test_quadratic_three_params(self):
        x = Tensor([1.5, -0.5, 2.0], requires_grad=True)
        c = np.array([2.0, 1.0, 3.0])

        def f():
            return T.sum_all(T.mul(T.mul(x, x), Tensor(c)))

        report = finite_diff_check(f, [("x", x)], tol=1e-8)
        assert report.passed
        assert report.max_rel_err < 1e-8

    def test_zero_function_passes_by_absolute_floor(self):
        x = Tensor([0.3, -0.8], requires_grad=True)

        def f():
            return T.sum_all(T.mul(x, Tensor([0.0, 0.0])))

        report = finite_diff_check(f, [("x", x)])
        assert report.passed
        assert report.max_rel_err == 0.0

    def test_corrupted_gradient_detected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)

        class Doubled:
            """Wraps x so the analytic gradient comes out exactly 2x too big."""

        def f():
            # op with a deliberately wrong backward: forward sum(x), backward 2
            out = Tensor(x.data.sum(), requires_grad=True, op="bad_sum", parents=(x,))

            def bad_backward(g):
                T._accumulate(x, 2.0 * np.full_like(x.data, float(g)))

            out._backward_fn = bad_backward
            return out

        report = finite_diff_check(f, [("x", x)], tol=1e-5)
        assert not report.passed
        np.testing.assert_allclose(report.params[0].max_rel_err, 1 / 3, atol=1e-6)

    def test_nan_forward_names_parameter(self):
        x = Tensor([1e308], requires_grad=True)

        def f():
            return T.sum_all(T.mul(x, x))

        with np.errstate(over="ignore"):  # x * x and its gradient 2x overflow
            report = finite_diff_check(f, [("x", x)])
        assert not report.passed
        assert "non-finite" in report.params[0].note

    def test_nan_gradient_fails(self):
        # a NaN analytic entry compares False against every error bound, so it
        # must fail on its own rather than slip past the max_rel_err test
        x = Tensor([1.0, 2.0], requires_grad=True)

        def f():
            out = Tensor(x.data.sum(), requires_grad=True, op="nan_sum", parents=(x,))
            out._backward_fn = lambda g: T._accumulate(x, np.array([1.0, np.nan]))
            return out

        report = finite_diff_check(f, [("x", x)])
        assert not report.passed
        assert report.params[0].note == "non-finite analytic gradient at entry 1"

    def test_entry_subsampling_is_deterministic(self):
        x = Tensor(np.linspace(-1, 1, 50), requires_grad=True)

        def f():
            return T.sum_all(T.mul(x, x))

        r1 = finite_diff_check(f, [("x", x)], max_entries=10, seed=3)
        r2 = finite_diff_check(f, [("x", x)], max_entries=10, seed=3)
        assert r1.params[0].n_checked == 10
        assert r1.params[0].max_rel_err == r2.params[0].max_rel_err


def _subsampled_case():
    """Three parameters, two of them subsampled, with a gradient error on one."""
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    b = Tensor(rng.standard_normal(7), requires_grad=True)
    c = Tensor(rng.standard_normal(40), requires_grad=True)

    def f():
        wrong = Tensor(c.data.sum(), requires_grad=True, op="bad_sum", parents=(c,))
        wrong._backward_fn = lambda g: T._accumulate(c, 1.5 * np.full_like(c.data, float(g)))
        return T.add(T.add(_mix_loss(T.mul(a, a)), _mix_loss(T.softplus(b), seed=1)), wrong)

    return f, [("a", a), ("b", b), ("c", c)], dict(max_entries=10, seed=4)


def _non_finite_case():
    """A forward that overflows, as in ``test_nan_forward_names_parameter``,
    but only when ``x`` moves up, and after a finite parameter, so the
    non-finite forward lands in a later block."""
    y = Tensor(np.linspace(-1, 1, 5), requires_grad=True)
    x = Tensor([1.7976931], requires_grad=True)  # x * 1e308 is finite, (x + 1e-6) * 1e308 is not

    def f():
        edge = T.add(T.mul(x, Tensor([1e308])), Tensor([-1.7976931e308]))
        return T.add(_mix_loss(T.mul(y, y)), T.sum_all(edge))

    return f, [("y", y), ("x", x)], {}


def _check_with_workers(monkeypatch, workers, make_case):
    monkeypatch.setattr(gradcheck, "_worker_count", lambda: workers)
    f, params, kwargs = make_case()
    before = [p.data.tobytes() for _, p in params]
    with np.errstate(over="ignore"):
        report = finite_diff_check(f, params, **kwargs)
    assert [p.data.tobytes() for _, p in params] == before
    return report


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
        # entry 8 raises in a child's block, entry 0 in the caller's own
        monkeypatch.setattr(gradcheck, "_worker_count", lambda: workers)
        x = Tensor(np.arange(9.0), requires_grad=True)

        def f():
            if x.data[entry] != entry:
                raise NumericError(f"entry {entry} perturbed")
            return T.sum_all(T.mul(x, x))

        with pytest.raises(NumericError, match=f"entry {entry} perturbed"):
            finite_diff_check(f, [("x", x)])
        _assert_no_children()
        assert x.data.tolist() == list(np.arange(9.0))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_no_items_fork_nothing(self, monkeypatch, workers):
        monkeypatch.setattr(gradcheck, "_worker_count", lambda: workers)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for an empty item list"))
        assert gradcheck._ordered_map(lambda x: 2 * x, []) == []

    @pytest.mark.parametrize("workers, entries, forks", [(1, 9, 0), (2, 9, 1), (3, 9, 2), (3, 2, 1)])
    def test_forks_at_most_one_child_per_other_worker(self, monkeypatch, workers, entries, forks):
        monkeypatch.setattr(gradcheck, "_worker_count", lambda: workers)
        started = []
        real_fork = os.fork

        def counted_fork():
            started.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        x = Tensor(np.linspace(0.5, 1.5, entries), requires_grad=True)
        assert finite_diff_check(lambda: T.sum_all(T.mul(x, x)), [("x", x)]).passed
        assert len(started) == forks
        _assert_no_children()


def _mix_loss(out, seed=0):
    """Scalar projection with fixed random weights so every entry matters."""
    rng = np.random.default_rng(seed)
    return T.sum_all(T.mul(out, Tensor(rng.standard_normal(out.shape))))


OPS = {
    "matmul": lambda a, b: T.matmul(a, b),
    "add": lambda a, b: T.add(a, b),
    "mul": lambda a, b: T.mul(a, b),
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
            return T.add(_mix_loss(T.layer_norm(x, *rows, eps=1e-5)),
                         _mix_loss(T.layer_norm(x, *points, eps=1e-5), seed=1))

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
