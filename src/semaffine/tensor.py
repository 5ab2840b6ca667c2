"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable value in the package is a :class:`Tensor`. Each op
records its parents and a backward closure on the result node, so the graph
hanging off a scalar loss *is* the tape: node ids increase in creation order
(parents precede children) and ``backward`` replays it in reverse.

Design constraints:

- float64 throughout; gradient checking needs the headroom.
- row-major data; the one binary op, ``add``, requires equal shapes, with
  no implicit broadcast. The (d,) bias/gain rows are operands of the fused
  ops, which broadcast them internally.
- forward values are saved eagerly by the closures; no checkpointing.
- six fused ops: a chain of dense layers with the ReLUs between them, a
  whole multi-head attention, a normalize-then-modulate ``layer_norm`` (with
  an optional residual input added first), a projected mask classifier and
  the two loss terms are one node each (``mlp``, ``attention``,
  ``layer_norm``, ``mask_logits``, ``cross_entropy``, ``bce_with_logits``).
  Most operands are a few to a few dozen rows, where the cost is per-node
  dispatch; ``mask_logits`` also folds the mask projection into the N class
  masks, so the thousands of finest-level points are never projected.
  Transformer norms, the AdaIN and bn controls (a learned (d,) row) and the
  semantic-affine transform (an (n, d) per-point blend) are all
  ``layer_norm``, with the one variance floor ``LAYER_NORM_EPS``.
- scatter-adds of rows onto groups (``pool_rows_mean``, the ``gather_rows``
  backward) are one ``np.bincount`` segment sum, not ``np.add.at``.
- a backward computes a gradient only for operands that require grad.
- each op takes Tensor operands only; labels and indices are integer
  arrays (``int_array``), targets a 0/1 numeric array and offsets an int tuple.
  It is a checking front (shape, label, index and offset checks, the scene
  cuts) and an array kernel holding its forward arithmetic. The op calls
  the kernel, and its node records ``(kernel, static)``:
  ``kernel(*static, *[t.data for t in node.parents])`` recomputes the
  node's value from its parents' current arrays with the forward's bits,
  making no node. So gradcheck can walk the nodes a leaf feeds and
  recompute only those. A kernel also takes operands with a leading batch
  axis (a (d,) row as (B, 1, d); a loss comes out as (B,)) and gives each
  slot its plain call's bits, so one replay moves B copies of its leaves.
- the tape keeps only the ops that the model and its losses call.
- a batch of scenes is one graph, its scenes stacked by rows. Row-wise ops
  run once over the stack; the ops that mix rows within a scene take the
  scenes' row offsets (``None``: one scene) and keep them apart:
  ``attention`` is block diagonal, ``mask_logits`` and ``matmul`` pair each
  scene's rows with its own block of stacked class rows, and the two losses
  are the mean of the scenes' means. Offsets are a tuple of Python ints
  (0, o_1, ..., rows), the form a hierarchy holds, checked and cut into row
  slices on each call; one scene takes the single-scene path with the same bits.

A tensor graph is single-threaded during one forward/backward pass; distinct
graphs (one per SGD batch, evaluated scene or gradient check) share no
mutable state.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ContractError, ShapeError, as_array, int_array

_NODE_IDS = itertools.count()

LAYER_NORM_EPS = 1e-5  # the variance floor of every layer_norm


class Tensor:
    """A dense array node on the differentiation tape."""

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_backward_fn", "node_id", "call")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self.parents = ()
        self._backward_fn = None
        self.node_id = next(_NODE_IDS)
        self.call = None  # an op node's (kernel, static); see ``_result``

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def backward(self):
        backward(self)


def _result(data, parents: tuple, op: str, backward_fn, kernel, static: tuple = ()) -> Tensor:
    """An op's output node, built field by field: ``Tensor.__init__`` builds
    leaves, and would convert an array that is already float64.

    ``data`` is ``kernel(*static, *[p.data for p in parents])``, the op's
    forward arithmetic, called by the op itself; ``static`` holds what the
    op's checks resolved from shapes and non-tensor arguments."""
    out = Tensor.__new__(Tensor)
    if data.__class__ is not np.ndarray or data.dtype != np.float64:
        data = np.asarray(data, dtype=np.float64)
    out.data = data
    out.grad = None
    out.requires_grad = False
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            break
    out.op = op
    out.parents = parents
    out._backward_fn = backward_fn if out.requires_grad else None
    out.node_id = next(_NODE_IDS)
    out.call = (kernel, static)
    return out


def _scene_rows(offsets, rows: int, what: str) -> tuple[slice, ...]:
    """Each scene's row range from row ``offsets``, a tuple of ints
    (0, o_1, ..., rows) that cuts the rows into non-empty scenes, the form a
    hierarchy holds; ``None`` is one scene of all ``rows`` rows."""
    if offsets is None:
        return (slice(0, rows),)
    if (offsets.__class__ is not tuple or set(map(type, offsets)) != {int} or len(offsets) < 2 or offsets[0] != 0
            or offsets[-1] != rows or not all(map(int.__lt__, offsets, offsets[1:]))):
        raise ContractError(f"{what}: scene offsets {offsets!r} do not cut {rows} rows into non-empty scenes")
    return tuple(map(slice, offsets, offsets[1:]))


def _with_blocks(scenes: tuple[slice, ...], k: int) -> list[tuple[slice, slice]]:
    """Each scene's row range paired with its block of ``k`` stacked class rows."""
    return [(rows, slice(s * k, (s + 1) * k)) for s, rows in enumerate(scenes)]


def _stack(parts: list, axis: int = -2) -> np.ndarray:
    """Per-scene parts joined along ``axis`` (the rows); a single scene's part as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _accumulate(t: Tensor, g: np.ndarray, shared: bool = False):
    """Add ``g`` into ``t.grad``. Multi-operand ops call it only for operands
    that require grad; single-operand ops have a backward only when theirs does.

    A fresh ``g`` becomes ``t.grad`` as it is; ``shared`` marks one that is
    (a view of) another node's gradient, which is copied first.
    """
    if t.grad is None:
        t.grad = g.copy() if shared else g
    else:
        t.grad += g


# -- binary arithmetic ---------------------------------------------------


def _check_binary(a: Tensor, b: Tensor, name: str):
    if a.shape != b.shape:
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}")


def add(a, b) -> Tensor:
    _check_binary(a, b, "add")

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g, shared=True)
        if b.requires_grad:
            _accumulate(b, g, shared=True)

    return _result(np.add(a.data, b.data), (a, b), "add", backward_fn, np.add)


# -- matrix ops ----------------------------------------------------------


def _matmul(pairs, a, b):
    return _stack([a[..., rows, :] @ b[..., block, :] for rows, block in pairs])


def matmul(a, b, offsets=None) -> Tensor:
    """a (n, k) @ b (k, d). With the row ``offsets`` of B scenes in a, b is
    their (k, d) blocks stacked, (B*k, d), and scene s's rows of a multiply
    block s: each point blends its own scene's class rows."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expects 2-d operands, got {a.shape} and {b.shape}")
    scenes = _scene_rows(offsets, a.shape[0], "matmul")
    if len(scenes) * a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape} "
                         f"over {len(scenes)} scene(s)")
    pairs = _with_blocks(scenes, a.shape[1])
    a_data, b_data = a.data, b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _stack([g[rows] @ b_data[block].T for rows, block in pairs]))
        if b.requires_grad:
            _accumulate(b, _stack([a_data[rows].T @ g[rows] for rows, block in pairs]))

    return _result(_matmul(pairs, a_data, b_data), (a, b), "matmul", backward_fn, _matmul, (pairs,))


def _add_into(h, row):
    """h + row, in place in the fresh array h unless a batched row meets plain rows."""
    return h + row if row.ndim > h.ndim else np.add(h, row, out=h)


def _mlp(x, *weights_and_biases, keep=None):
    """``keep`` (a list) collects each layer's input and, after each hidden
    layer, its ReLU's live mask, in that order."""
    h = x
    for i in range(0, len(weights_and_biases), 2):
        if keep is not None:
            keep.append(h)
        h = _add_into(h @ weights_and_biases[i].mT, weights_and_biases[i + 1])
        if i + 2 < len(weights_and_biases):
            live = ~(h <= 0)  # NaN stays live, so NaN in gives NaN out
            if keep is not None:
                keep.append(live)
            h = np.where(live, h, 0.0)
    return h


def mlp(x, layers) -> Tensor:
    """x (n, in) through dense layers h @ w.T + b, ``layers`` a list of (w (out, in),
    b (out,)) pairs, with a ReLU between consecutive layers, as one node; one
    layer is a linear layer."""
    if not layers:
        raise ContractError("mlp: no layers")
    wants, shape = [x.requires_grad], x.shape  # wants[i]: x or a layer before i requires grad
    for i, (w, b) in enumerate(layers):
        if len(shape) != 2 or w.data.ndim != 2 or shape[1] != w.shape[1] or b.shape != w.shape[:1]:
            raise ShapeError(f"mlp: layer {i} input {shape} does not match weight {w.shape} and bias {b.shape}")
        wants.append(wants[-1] or w.requires_grad or b.requires_grad)
        shape = (shape[0], w.shape[0])
    operands = (x, *(t for layer in layers for t in layer))
    keep = []
    out = _mlp(*(t.data for t in operands), keep=keep)
    inputs, lives = keep[0::2], keep[1::2]  # each layer's input; each hidden ReLU's live mask

    def backward_fn(g):  # last layer first; stops where neither x nor an earlier layer needs more
        for i in reversed(range(len(layers))):
            w, b = layers[i]
            if w.requires_grad:
                _accumulate(w, g.T @ inputs[i])
            if b.requires_grad:
                _accumulate(b, g.sum(axis=0))
            if not wants[i]:
                return
            g = g @ w.data if i == 0 else (g @ w.data) * lives[i - 1]
        _accumulate(x, g)

    return _result(out, operands, "mlp", backward_fn, _mlp)


def _mask_logits(pairs, f, masks, w, b, keep=None):
    """``keep`` (a list) collects A = masks @ w."""
    a = masks @ w  # (B*N, in)
    c = (masks @ np.atleast_2d(b).mT).mT  # the row c = masks @ b, each product a matrix-vector one
    if keep is not None:
        keep.append(a)
    return _stack([_add_into(f[..., rows, :] @ a[..., block, :].mT, c[..., block]) for rows, block in pairs])


def mask_logits(f, masks, w, b, offsets=None) -> Tensor:
    """(f (n, in) @ w (d_mask, in).T + b (d_mask,)) @ masks (N, d_mask).T, as one node.

    The projection is folded into the masks: forward is f @ A.T + c with
    A = masks @ w and c = masks @ b, so the n points are dotted with N rows
    instead of being projected to d_mask first. With the row ``offsets`` of B
    scenes in f, masks is their (N, d_mask) blocks stacked and each scene's
    points are scored against its own block.
    """
    f_data, m_data, w_data, b_data = f.data, masks.data, w.data, b.data
    if (f_data.ndim != 2 or m_data.ndim != 2 or w_data.ndim != 2 or f_data.shape[1] != w_data.shape[1]
            or b_data.shape != w_data.shape[:1] or m_data.shape[1] != w_data.shape[0]):
        raise ShapeError(f"mask_logits: features {f.shape} do not fit projection {w.shape} + {b.shape} "
                         f"and masks {masks.shape}")
    scenes = _scene_rows(offsets, f_data.shape[0], "mask_logits")
    if m_data.shape[0] % len(scenes):
        raise ShapeError(f"mask_logits: {m_data.shape[0]} mask rows do not split into {len(scenes)} scenes")
    pairs = _with_blocks(scenes, m_data.shape[0] // len(scenes))
    keep = []
    out = _mask_logits(pairs, f_data, m_data, w_data, b_data, keep=keep)
    [a] = keep

    def backward_fn(g):
        if f.requires_grad:
            _accumulate(f, _stack([g[rows] @ a[block] for rows, block in pairs]))
        if masks.requires_grad or w.requires_grad:
            g_a = _stack([g[rows].T @ f_data[rows] for rows, _ in pairs])
        if masks.requires_grad or b.requires_grad:
            g_c = _stack([g[rows].sum(axis=0) for rows, _ in pairs], 0)
        if masks.requires_grad:
            _accumulate(masks, g_a @ w_data.T + np.outer(g_c, b_data))
        if w.requires_grad:
            _accumulate(w, m_data.T @ g_a)
        if b.requires_grad:
            _accumulate(b, m_data.T @ g_c)

    return _result(out, (f, masks, w, b), "mask_logits", backward_fn, _mask_logits, (pairs,))


def _split_heads(a, heads, d_k):  # (..., rows, heads*d_k) -> (..., heads, rows, d_k)
    return a.reshape(*a.shape[:-1], heads, d_k).swapaxes(-3, -2)


def _merge_heads(a):  # (..., heads, rows, d_k) -> (..., rows, heads*d_k)
    return a.swapaxes(-3, -2).reshape(*a.shape[:-3], a.shape[-2], a.shape[-3] * a.shape[-1])


def _attention(heads, d_k, scenes, inv_sqrt_dk, q_in, kv_in, wq, bq, wk, bk, wv, bv, keep=None):
    """``keep`` (a list) collects q, k and v as (heads, rows, d_k) arrays,
    then each scene's (heads, n_s, m_s) attention weights."""
    q = _split_heads(q_in @ wq.mT + bq, heads, d_k)
    k = _split_heads(kv_in @ wk.mT + bk, heads, d_k)
    v = _split_heads(kv_in @ wv.mT + bv, heads, d_k)
    if keep is not None:
        keep += (q, k, v)
    outs = []  # per scene, (heads, n_s, d_k)
    for q_rows, kv_rows in scenes:
        scores = (q[..., q_rows, :] @ k[..., kv_rows, :].mT) * inv_sqrt_dk
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        if keep is not None:
            keep.append(probs)
        outs.append(probs @ v[..., kv_rows, :])
    return _merge_heads(_stack(outs))


def attention(q_in, kv_in, wq, bq, wk, bk, wv, bv, heads: int, q_offsets=None, kv_offsets=None) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``wq`` (heads*d_k, q_dim) and ``bq`` (heads*d_k,) are the query
    projections of all heads stacked by rows, row block h being head h's;
    ``wk``/``bk`` and ``wv``/``bv`` project ``kv_in`` alike. Head h attends
    softmax(q_h k_h^T / sqrt(d_k)) v_h with q_h = q_in @ wq[h].T + bq[h]; the
    result is the head outputs side by side, (n, heads*d_k). The heads run as
    (heads, n, d_k) arrays.

    ``q_offsets`` and ``kv_offsets`` cut the query and key/value rows into
    the same number of scenes (``None``: one scene); the attention is block
    diagonal, scene s's queries attending only to scene s's keys.

    Backward uses the analytic softmax backward dS = P * (dP - rowsum(dP * P)).
    """
    if q_in.data.ndim != 2 or kv_in.data.ndim != 2:
        raise ShapeError(f"attention: expects 2-d inputs, got {q_in.shape} and {kv_in.shape}")
    if kv_in.shape[0] == 0:
        raise ContractError("attention: empty key/value set")
    if heads < 1:
        raise ContractError(f"attention: {heads} heads")
    d_k = wq.shape[0] // heads if wq.data.ndim == 2 else 0
    width, kv_dim = heads * d_k, kv_in.shape[1]
    expect = ((wq, (width, q_in.shape[1])), (wk, (width, kv_dim)), (wv, (width, kv_dim)),
              (bq, (width,)), (bk, (width,)), (bv, (width,)))
    if d_k == 0 or any(t.shape != shape for t, shape in expect):
        raise ShapeError(f"attention: projections {[t.shape for t, _ in expect]} do not fit {heads} heads "
                         f"over inputs {q_in.shape} and {kv_in.shape}")
    n, m = q_in.shape[0], kv_in.shape[0]
    q_scenes = _scene_rows(q_offsets, n, "attention queries")
    kv_scenes = _scene_rows(kv_offsets, m, "attention keys")
    if len(q_scenes) != len(kv_scenes):
        raise ContractError(f"attention: {len(q_scenes)} query scenes but {len(kv_scenes)} key/value scenes")
    scenes = list(zip(q_scenes, kv_scenes))
    inv_sqrt_dk = 1.0 / np.sqrt(d_k)
    operands = (q_in, kv_in, wq, bq, wk, bk, wv, bv)
    keep = []
    out = _attention(heads, d_k, scenes, inv_sqrt_dk, *(t.data for t in operands), keep=keep)
    q, k, v, *probs = keep

    def backward_fn(g):
        g_o = _split_heads(g, heads, d_k)
        g_q, g_k, g_v = [], [], []
        for (q_rows, kv_rows), p in zip(scenes, probs):
            g_p = g_o[:, q_rows] @ v[:, kv_rows].transpose(0, 2, 1)
            g_s = p * (g_p - (g_p * p).sum(axis=2, keepdims=True)) * inv_sqrt_dk
            g_q.append(g_s @ k[:, kv_rows])
            g_k.append(g_s.transpose(0, 2, 1) @ q[:, q_rows])
            g_v.append(p.transpose(0, 2, 1) @ g_o[:, q_rows])
        g_q, g_k, g_v = (_merge_heads(_stack(parts)) for parts in (g_q, g_k, g_v))
        if q_in.requires_grad:
            _accumulate(q_in, g_q @ wq.data)
        if kv_in.requires_grad:
            _accumulate(kv_in, g_k @ wk.data + g_v @ wv.data)
        for w, b, g_proj, x in ((wq, bq, g_q, q_in), (wk, bk, g_k, kv_in), (wv, bv, g_v, kv_in)):
            if w.requires_grad:
                _accumulate(w, g_proj.T @ x.data)
            if b.requires_grad:
                _accumulate(b, g_proj.sum(axis=0))

    return _result(out, operands, "attention", backward_fn, _attention, (heads, d_k, scenes, inv_sqrt_dk))


# -- elementwise nonlinearities -------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # branch on sign to avoid overflow in exp
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a) -> Tensor:
    x = a.data

    def backward_fn(g):
        _accumulate(a, g * _sigmoid(x))

    return _result(np.logaddexp(0.0, x), (a,), "softplus", backward_fn, np.logaddexp, (0.0,))


# -- softmax and the losses ------------------------------------------------


def _softmax(a):
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a) -> Tensor:
    """Row-wise softmax of an (n, d) tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"softmax: expects (n, d) input, got {a.shape}")
    y = _softmax(a.data)

    def backward_fn(g):
        _accumulate(a, y * (g - (g * y).sum(axis=1, keepdims=True)))

    return _result(y, (a,), "softmax", backward_fn, _softmax)


def _cross_entropy(labels, rows, scenes, logits, keep=None):
    """``keep`` (a list) collects the log-softmax rows."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    if keep is not None:
        keep.append(log_probs)
    picked = np.ascontiguousarray(log_probs[..., rows, labels])  # a batch's fancy index is not row-major
    return -sum(picked[..., scene].mean(axis=-1) for scene in scenes) / len(scenes)


def cross_entropy(logits, labels, offsets=None) -> Tensor:
    """Mean over rows of -log softmax(logits)[row, label], as one node.

    With the row ``offsets`` of B scenes, the mean of the B scenes' means."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: expects (n, C) logits, got {logits.shape}")
    labels = int_array(labels, logits.shape[1], "cross_entropy labels", logits.shape[0])
    scenes = _scene_rows(offsets, labels.size, "cross_entropy")
    rows = np.arange(labels.size)
    keep = []
    loss = _cross_entropy(labels, rows, scenes, logits.data, keep=keep)
    [log_probs] = keep

    def backward_fn(g):  # the log_softmax backward of the picked entries' gradient
        g_picked = np.zeros(logits.shape)
        for scene in scenes:
            g_picked[rows[scene], labels[scene]] = -float(g) / (len(scenes) * rows[scene].size)
        _accumulate(logits, g_picked - np.exp(log_probs) * g_picked.sum(axis=1, keepdims=True))

    return _result(loss, (logits,), "cross_entropy", backward_fn, _cross_entropy, (labels, rows, scenes))


def _bce_with_logits(targets, scenes, x):
    entries = np.logaddexp(0.0, x) - x * targets
    return sum(entries[..., scene, :].mean(axis=(-2, -1)) for scene in scenes) / len(scenes)


def bce_with_logits(logits, targets, offsets=None) -> Tensor:
    """Mean over the entries of (n, N) logits of BCE(sigmoid(x), t) = softplus(x) - t * x, as one node.

    With the row ``offsets`` of B scenes, the mean of the B scenes' means."""
    targets = as_array(targets, "bce targets")
    if logits.data.ndim != 2 or targets.shape != logits.shape:
        raise ShapeError(f"bce: logits {logits.shape} vs targets {targets.shape}")
    if targets.dtype.kind not in "biuf" or not ((targets == 0) | (targets == 1)).all():
        raise ContractError(f"bce: targets must be binary numbers, got dtype {targets.dtype}")
    scenes = _scene_rows(offsets, logits.shape[0], "bce")
    x = logits.data

    def backward_fn(g):
        grads = []
        for scene in scenes:
            g_entry = float(g) / (len(scenes) * x[scene].size)
            grads.append(-g_entry * targets[scene] + g_entry * _sigmoid(x[scene]))
        _accumulate(logits, _stack(grads))

    return _result(_bce_with_logits(targets, scenes, x), (logits,), "bce_with_logits", backward_fn,
                   _bce_with_logits, (targets, scenes))


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True), bit for bit, without numpy's Python-level wrapper."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def _layer_norm(x, gain, bias, residual=None, keep=None):
    """``keep`` (a list) collects the normalized rows y and their 1/sqrt(var + LAYER_NORM_EPS)."""
    total = x if residual is None else x + residual
    centered = total - _row_mean(total)
    inv = 1.0 / np.sqrt(_row_mean(centered ** 2) + LAYER_NORM_EPS)
    y = centered * inv
    if keep is not None:
        keep += (y, inv)
    return y * gain + bias


def layer_norm(x, gain, bias, residual=None) -> Tensor:
    """normalize(x + residual) * gain + bias as one node.

    Each row of the input (n, d) goes to zero mean and (population) unit
    variance, with denominator sqrt(var + ``LAYER_NORM_EPS``), so constant
    rows map to zeros (then to ``bias``). ``gain`` and ``bias`` are each a
    (d,) row shared by all points or an (n, d) per-point array. An (n, d)
    ``residual`` (a post-norm sublayer's skip input) is added to x first;
    both get the input gradient.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm: expects (n, d) input, got {x.shape}")
    if gain.shape not in (x.shape, x.shape[1:]) or bias.shape not in (x.shape, x.shape[1:]):
        raise ShapeError(f"layer_norm: gain {gain.shape} / bias {bias.shape} fit neither "
                         f"({x.shape[1]},) nor input {x.shape}")
    summands = (x,)
    if residual is not None:
        summands += (residual,)
        _check_binary(x, summands[1], "layer_norm residual")
    gain_row, bias_row = gain.data.ndim == 1, bias.data.ndim == 1
    operands = (x, gain, bias, *summands[1:])
    keep = []
    out = _layer_norm(*(t.data for t in operands), keep=keep)
    y, inv = keep
    gain_data = gain.data

    def backward_fn(g):
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0) if bias_row else g, shared=not bias_row)
        if gain.requires_grad:
            _accumulate(gain, (g * y).sum(axis=0) if gain_row else g * y)
        wanting = [t for t in summands if t.requires_grad]
        if wanting:
            g_y = g * gain_data
            g_in = inv * (g_y - _row_mean(g_y) - y * _row_mean(g_y * y))
            for k, t in enumerate(wanting):  # the first takes g_in itself, a second a copy
                _accumulate(t, g_in, shared=k > 0)

    return _result(out, operands, "layer_norm", backward_fn, _layer_norm)


# -- reductions and indexing ----------------------------------------------


def _segment_sum(rows: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """out (..., n, d) with out[..., index[j], :] += rows[..., j, :] for every row j, in row order.

    One ``np.bincount`` over the keys index[j] * d + column (+ n * d per batch
    slot); it adds in input order, as ``np.add.at(out, index, rows)`` does, so
    the sums are the same bits. (``np.bincount`` of no keys gives integer zeros.)
    """
    lead, d = rows.shape[:-2], rows.shape[-1]
    keys = (index[:, None] * d + np.arange(d)).ravel()
    if lead:
        keys = (np.arange(0, math.prod(lead) * n * d, n * d)[:, None] + keys).ravel()
    sums = np.bincount(keys, weights=rows.ravel(), minlength=math.prod(lead) * n * d)
    return sums.astype(np.float64, copy=False).reshape(*lead, n, d)


def _gather_rows(index, a):
    return np.take(a, index, axis=-2)  # row-major, as a[index] is; a[..., index, :] on a batch is not


def gather_rows(a, index: np.ndarray) -> Tensor:
    """out[j] = a[index[j]]; gradient scatter-adds back onto the source rows."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows: expects (n, d) input, got {a.shape}")
    index = int_array(index, a.shape[0], "gather_rows index")
    in_shape = a.shape

    def backward_fn(g):
        _accumulate(a, _segment_sum(g, index, in_shape[0]))

    return _result(_gather_rows(index, a.data), (a,), "gather_rows", backward_fn, _gather_rows, (index,))


def _pool_rows_mean(parent, n_parents, inv_counts, a):
    return _segment_sum(a, parent, n_parents) * inv_counts


def pool_rows_mean(a, parent: np.ndarray, n_parents: int) -> Tensor:
    """Group rows by parent index and average each group."""
    if a.data.ndim != 2:
        raise ShapeError(f"pool_rows_mean: expects (n, d) input, got {a.shape}")
    parent = int_array(parent, n_parents, "pool_rows_mean parent map", a.shape[0])
    counts = np.bincount(parent, minlength=n_parents).astype(np.float64)
    if (counts == 0).any():
        raise ContractError("pool_rows_mean: some parents have no children")
    inv_counts = (1.0 / counts)[:, None]
    static = (parent, n_parents, inv_counts)

    def backward_fn(g):
        _accumulate(a, (g * inv_counts)[parent])

    return _result(_pool_rows_mean(*static, a.data), (a,), "pool_rows_mean", backward_fn, _pool_rows_mean, static)


# -- backward ---------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    """Grad-requiring ancestors of ``root`` (itself included) in creation
    order. Ids increase in creation order, so parents precede children."""
    seen = {root.node_id: root}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and p.node_id not in seen:
                seen[p.node_id] = p
                stack.append(p)
    return [seen[i] for i in sorted(seen)]


def backward(loss: Tensor):
    """Populate ``grad`` on every grad-enabled ancestor of a scalar loss."""
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
