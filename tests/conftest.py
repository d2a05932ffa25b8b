import os

# One BLAS thread, as bench/run.py runs, so that a test's time follows its
# work and not the host's load. Set before numpy is first imported; the
# subprocesses that tests start inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from proctrack import autodiff as ad
from proctrack.autodiff import Tensor


def finite_difference_grad(f, tensors, h=1e-5):
    """Central finite differences of scalar f() w.r.t. each tensor's data."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.ravel()
        gf = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f()
            flat[i] = orig - h
            lo = f()
            flat[i] = orig
            gf[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric):
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(build_loss, params, h=1e-5, tol=1e-4):
    """build_loss() returns a fresh scalar Tensor over `params` each call.

    Compares backward() gradients against central finite differences.
    """
    loss = build_loss()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    for p in params:
        p.grad = None
    numeric = finite_difference_grad(lambda: float(build_loss().data), params, h=h)
    worst = max(max_rel_error(a, n) for a, n in zip(analytic, numeric))
    assert worst < tol, f"gradient mismatch: max rel error {worst:.3e}"
    return worst


def cls_rows(hidden):
    """The (..., 1, d_model) [CLS] rows of (..., T, d_model) hidden states,
    the rows `status_head` takes, as the status-first split in
    `encoder._block` gives them."""
    return ad.slice_rows(hidden, np.s_[..., :1, :])


def tape_ops(*outputs):
    """How many tape nodes each op makes on the tape behind `outputs`, keyed
    by the op's name (the function its backward closure belongs to)."""
    counts, seen, stack = {}, set(), list(outputs)
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            op = node._backward.__qualname__.split(".")[0]
            counts[op] = counts.get(op, 0) + 1
            stack.extend(node._parents)
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def leaf(rng, *shape):
    return Tensor(rng.normal(0, 1, shape), requires_grad=True)
