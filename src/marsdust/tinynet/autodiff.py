"""Reverse-mode automatic differentiation over numpy arrays.

Small tape-style engine: each op returns a Tensor holding the forward value
and a closure that maps the output gradient to one gradient per parent, or
None for a parent it skips.  ``backward()`` on a scalar root walks the graph
in reverse topological order and is the only code that stores a ``.grad``.
An op records a graph node only when one of its inputs requires a gradient.
A graph is walked once: backward releases each interior node as it goes, so
afterwards only leaves (and the root) hold a ``.grad``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    def backward(self):
        """Accumulate d(self)/d(leaf) into each leaf's ``.grad``.  Each interior
        node drops its closure, parents and gradient once its own backward has
        run, so activations are freed as the walk passes them; a second call
        on the same root adds nothing to the leaves."""
        if self.data.size != 1:
            raise ValidationError(
                f"backward requires a scalar root, got shape {self.data.shape}"
            )
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is not None:
                    parent.grad += g
                elif np.may_share_memory(g, node.grad) or not (g.flags.c_contiguous and g.flags.writeable):
                    # a view of the node's gradient, or a strided or read-only
                    # one: store an array nothing else holds, laid out so that
                    # later reductions sum in the same order whatever op made it
                    parent.grad = g.copy()
                else:
                    parent.grad = g
            node._backward, node._parents = None, ()
            if node is not self:
                node.grad = None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _node(value, parents, backward) -> Tensor:
    track = any(p.requires_grad for p in parents)
    out = Tensor(value, requires_grad=track)
    if track:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data - b.data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape) if b.requires_grad else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data * b.data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
        _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None))


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0)
    return _node(y, (x,), lambda g: (g * (y > 0),))


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    e = np.exp(-np.abs(d))
    y = np.where(d >= 0, 1.0, e) / (1.0 + e)
    return _node(y, (x,), lambda g: (g * y * (1.0 - y),))


def clamp01(x: Tensor) -> Tensor:
    inside = (x.data > 0.0) & (x.data < 1.0)
    return _node(np.clip(x.data, 0.0, 1.0), (x,), lambda g: (g * inside,))


def absval(x: Tensor) -> Tensor:
    sign = np.sign(x.data)  # subgradient 0 at ties
    return _node(np.abs(x.data), (x,), lambda g: (g * sign,))


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    return _node(np.asarray(x.data.mean(dtype=x.data.dtype)), (x,), lambda g: (np.full_like(x.data, g / n),))


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = tuple(tensors)  # the caller may append to its list later
    cuts = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                 lambda g: np.split(g, cuts, axis=axis))


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour x2 along both spatial axes of a (B, C, H, W) tensor."""

    def bw(g):
        rows = g[:, :, 0::2] + g[:, :, 1::2]
        return (rows[..., 0::2] + rows[..., 1::2],)

    return _node(np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3), (x,), bw)


def spatial_mean(x: Tensor) -> Tensor:
    """Global average pool over H and W, keeping dims: (B, C, 1, 1)."""
    n = x.data.shape[2] * x.data.shape[3]
    return _node(x.data.mean(axis=(2, 3), keepdims=True, dtype=x.data.dtype), (x,),
                 lambda g: (np.broadcast_to(g / n, x.data.shape),))


def _tap_product(wk: np.ndarray, xs: np.ndarray, out=None) -> np.ndarray:
    """``wk @ xs`` per group; a broadcast multiply when the matrices are 1x1,
    which numpy's matmul computes several times more slowly."""
    if wk.shape[-2:] == (1, 1):
        return np.multiply(wk, xs, out=out)
    return np.matmul(wk, xs, out=out)


def _conv(x, w, b, wg: np.ndarray, groups: int, stride: int, pad: int, op: str) -> Tensor:
    """Grouped convolution, ``wg`` = w.data as (O, C/G, kh, kw): output group g
    sees only input group g.  x is zero-padded, split into stride x stride
    phases (padded rows a::s, columns e::s) and copied into channel-major
    phase planes (s*s, C, B*hq*wq + slack), no im2col.  Output pixel
    (b, y, x) is column q = (b*hq + y)*wq + x, and tap (i, j) reads column
    q + (i//s)*wq + j//s of phase (i%s, j%s), so each tap is one GEMM with a
    contiguous slice, forward and backward.  Columns outside the output grid
    hold garbage that is never read."""
    o, cg, kh, kw = wg.shape
    bs, c, h, wd = x.data.shape
    if cg * groups != c:
        raise ValidationError(f"{op} channel mismatch: input {c}, weight expects {cg * groups}")
    s = stride
    hq, wq = -(-(h + 2 * pad) // s), -(-(wd + 2 * pad) // s)
    size = bs * hq * wq
    valid = np.s_[: (h + 2 * pad - kh) // s + 1, : (wd + 2 * pad - kw) // s + 1]

    def taps(buf):
        for i in range(kh):
            for j in range(kw):
                off = i // s * wq + j // s
                yield i, j, buf[i % s * s + j % s, ..., off : off + size]

    def phases(buf):  # the (s, s, C, B, hq, wq) view of a phase-plane buffer
        return buf[..., :size].reshape(s, s, c, bs, hq, wq)

    def grid(buf):  # the (B, O, oh, ow) view of the output columns of (G, O/G, size)
        return buf.reshape(o, bs, hq, wq)[(slice(None), slice(None)) + valid].transpose(1, 0, 2, 3)

    xp = np.zeros((c, bs, s * hq, s * wq), dtype=x.data.dtype)
    xp[:, :, pad : pad + h, pad : pad + wd] = x.data.transpose(1, 0, 2, 3)
    xf = np.zeros((s * s, groups, cg, size + (kh - 1) // s * wq + (kw - 1) // s), dtype=xp.dtype)
    phases(xf)[...] = xp.reshape(c, bs, hq, s, wq, s).transpose(3, 5, 0, 1, 2, 4)
    del xp  # the padded copy is not needed past this point; free it before the GEMMs
    wt = wg.reshape(groups, o // groups, cg, kh, kw).transpose(3, 4, 0, 1, 2).copy()
    yf = np.zeros((groups, o // groups, size), dtype=np.result_type(x.data, wg))
    tmp = np.empty_like(yf)
    for i, j, xs in taps(xf):
        yf += _tap_product(wt[i, j], xs, out=tmp)
    y = np.add(grid(yf), b.data.reshape(1, o, 1, 1), out=np.empty(grid(yf).shape, yf.dtype))

    def bw(g):
        gf = np.zeros((groups, o // groups, size), y.dtype)  # by shape, so the closure holds no yf
        grid(gf)[...] = g  # garbage columns get no gradient
        dx = dw = db = None
        if b.requires_grad:
            db = g.sum(axis=(0, 2, 3))
        if w.requires_grad:
            dw = np.empty_like(wt)
            for i, j, xs in taps(xf):
                np.matmul(gf, xs.swapaxes(1, 2), out=dw[i, j])
            dw = dw.transpose(2, 3, 4, 0, 1).reshape(w.data.shape)
        if x.requires_grad:
            dxf = np.zeros_like(xf)
            for i, j, dxs in taps(dxf):
                dxs += _tap_product(wt[i, j].swapaxes(1, 2), gf)
            dxp = phases(dxf).transpose(2, 3, 4, 0, 5, 1).reshape(c, bs, s * hq, s * wq)
            dx = dxp[:, :, pad : pad + h, pad : pad + wd].transpose(1, 0, 2, 3)
        return dx, dw, db

    return _node(y, (x, w, b), bw)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Standard convolution: x (B,C,H,W), w (O,C,kh,kw), b (O,)."""
    return _conv(x, w, b, w.data, 1, stride, pad, "conv2d")


def dwconv2d(x: Tensor, w: Tensor, b: Tensor, pad: int = 1) -> Tensor:
    """Depthwise convolution: x (B,C,H,W), w (C,kh,kw), b (C,); stride 1."""
    return _conv(x, w, b, w.data[:, None], w.data.shape[0], 1, pad, "dwconv2d")


def loss_l1(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all elements."""
    if pred.data.shape != target.data.shape:
        raise ValidationError(
            f"loss_l1 shape mismatch: {pred.data.shape} vs {target.data.shape}"
        )
    return mean_all(absval(sub(pred, target)))
