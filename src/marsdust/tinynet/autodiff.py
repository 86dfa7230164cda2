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


def concat(tensors) -> Tensor:
    """Join (B, C, H, W) tensors along the channel axis."""
    tensors = tuple(tensors)  # the caller may append to its list later
    cuts = np.cumsum([t.data.shape[1] for t in tensors])[:-1]
    return _node(np.concatenate([t.data for t in tensors], axis=1), tensors,
                 lambda g: np.split(g, cuts, axis=1))


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
    """``wk @ xs`` per group, broadcast over the images; a broadcast multiply
    when the matrices are 1x1, which numpy's matmul computes several times
    more slowly."""
    if wk.shape[-2:] == (1, 1):
        return np.multiply(wk, xs, out=out)
    return np.matmul(wk, xs, out=out)


def _conv(x, w, b, wg: np.ndarray, groups: int, stride: int, op: str) -> Tensor:
    """Grouped convolution, ``wg`` = w.data as (O, C/G, kh, kw): output group g
    sees only input group g.  x is zero-padded by kh // 2 on every side (the
    "same" size for odd kernels at stride 1) and split into stride x stride
    phases (padded rows a::s, columns e::s).  Each phase is one flat buffer
    holding the B*C padded (hq, wq) planes end to end in x's own (B, C)
    order, plus slack, filled from one strided slice of x; no im2col and no
    transpose.  Output pixel (y, x) of an image is column q = y*wq + x of its
    plane, and tap (i, j) reads column q + (i//s)*wq + j//s of phase
    (i%s, j%s), so each tap is one contiguous slice of the buffer: one GEMM
    per image, forward and backward.  A pixel of the output grid never reads
    past its own plane; the columns outside that grid hold garbage that is
    never read.  A 1x1 kernel at stride 1 has one phase, no padding and no
    garbage, so its buffer is x itself."""
    o, cg, kh, kw = wg.shape
    bs, c, h, wd = x.data.shape
    if cg * groups != c:
        raise ValidationError(f"{op} channel mismatch: input {c}, weight expects {cg * groups}")
    s, pad = stride, kh // 2
    hq, wq = -(-(h + 2 * pad) // s), -(-(wd + 2 * pad) // s)
    oh, ow = (h + 2 * pad - kh) // s + 1, (wd + 2 * pad - kw) // s + 1
    n = hq * wq
    size = bs * c * n
    pointwise = kh == kw == s == 1

    def taps(buf):
        for i in range(kh):
            for j in range(kw):
                off = i // s * wq + j // s
                yield i, j, buf[i % s * s + j % s, off : off + size].reshape(bs, groups, cg, n)

    def phases(buf):  # per phase (a, e): its (B, C, hq, wq) plane, and x's rows and columns in it
        for a in range(s):
            for e in range(s):
                r0, c0 = (a - pad) % s, (e - pad) % s  # x's first row and column in this phase
                y0, x0 = (r0 + pad) // s, (c0 + pad) // s
                at = np.s_[:, :, y0 : y0 + len(range(r0, h, s)), x0 : x0 + len(range(c0, wd, s))]
                yield buf[a * s + e, :size].reshape(bs, c, hq, wq)[at], np.s_[:, :, r0::s, c0::s]

    def grid(buf):  # the (B, O, oh, ow) output pixels of a (B, G, O/G, n) buffer
        return buf.reshape(bs, o, hq, wq)[:, :, :oh, :ow]

    if pointwise:
        xf = x.data.reshape(1, size)
    else:
        xf = np.zeros((s * s, size + (kh - 1) // s * wq + (kw - 1) // s), dtype=x.data.dtype)
        for plane, at in phases(xf):
            plane[...] = x.data[at]
    wt = wg.reshape(groups, o // groups, cg, kh, kw).transpose(3, 4, 0, 1, 2).copy()
    yf = tmp = None  # (B, G, O/G, n)
    for i, j, xs in taps(xf):
        if yf is None:
            yf = _tap_product(wt[i, j], xs)
        else:  # the later taps share one product buffer
            tmp = _tap_product(wt[i, j], xs, out=tmp)
            yf += tmp
    y = grid(yf) + b.data.reshape(1, o, 1, 1)

    def bw(g):
        if pointwise:
            gf = g.reshape(bs, groups, o // groups, n)
        else:
            gf = np.zeros((bs, groups, o // groups, n), y.dtype)  # by shape, so the closure holds no yf
            grid(gf)[...] = g  # garbage columns get no gradient
        dx = dw = db = None
        if b.requires_grad:
            db = g.sum(axis=(0, 2, 3))
        if w.requires_grad:
            dw = np.empty_like(wt)
            for i, j, xs in taps(xf):
                dw[i, j] = np.matmul(gf, xs.swapaxes(-1, -2)).sum(axis=0)  # summed in image order
            dw = dw.transpose(2, 3, 4, 0, 1).reshape(w.data.shape)
        if x.requires_grad and pointwise:
            dx = _tap_product(wt[0, 0].swapaxes(-1, -2), gf).reshape(x.data.shape)
        elif x.requires_grad:
            dxf = np.zeros_like(xf)
            for i, j, dxs in taps(dxf):
                dxs += _tap_product(wt[i, j].swapaxes(-1, -2), gf)
            dx = np.empty(x.data.shape, dxf.dtype)
            for plane, at in phases(dxf):
                dx[at] = plane
        return dx, dw, db

    return _node(y, (x, w, b), bw)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """Standard convolution: x (B,C,H,W), w (O,C,kh,kw), b (O,)."""
    return _conv(x, w, b, w.data, 1, stride, "conv2d")


def dwconv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Depthwise convolution: x (B,C,H,W), w (C,kh,kw), b (C,); stride 1."""
    return _conv(x, w, b, w.data[:, None], w.data.shape[0], 1, "dwconv2d")


def loss_l1(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all elements."""
    if pred.data.shape != target.data.shape:
        raise ValidationError(
            f"loss_l1 shape mismatch: {pred.data.shape} vs {target.data.shape}"
        )
    return mean_all(absval(sub(pred, target)))
