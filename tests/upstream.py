"""A scalar test loss whose upstream gradient the test chooses."""

import numpy as np

from semaffine import tensor as T


def _weighted_sum(g, x):
    """sum(x * g); for a batch of x (one leading axis more than g, a (d,)
    row as (B, 1, d)), one sum per slot, with the bits of the slot's own sum."""
    lead = x.shape[:1] if x.ndim > g.ndim else ()
    return (x * g).reshape(*lead, -1).sum(axis=-1)


def weighted_sum(out, g):
    """sum(out * g) for a fixed array ``g`` of out's shape, as one recorded
    node: its backward adds float(upstream) * g to out's gradient, so ``g``
    is the gradient that reaches ``out``, and gradcheck replays its kernel."""
    g = np.asarray(g, dtype=np.float64)

    def backward_fn(up):
        T._accumulate(out, float(up) * g)

    return T._result(_weighted_sum(g, out.data), (out,), "weighted_sum", backward_fn, _weighted_sum, (g,))
