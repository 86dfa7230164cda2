"""Reverse-mode automatic differentiation over numpy arrays.

Small tape-style engine: each op returns a Tensor holding the forward value
and a closure that scatters the output gradient back to its parents.
``backward()`` on a scalar root walks the graph in reverse topological order.
Graph recording can be suspended with ``no_grad()`` for inference and
finite-difference loops; the switch is per thread, so inference on one
thread never stops another thread's training from recording.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from ..errors import ValidationError


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


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

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def backward(self):
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
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _accum(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _node(value, parents, backward) -> Tensor:
    track = _grad_mode.enabled and any(p.requires_grad for p in parents)
    out = Tensor(value, requires_grad=track)
    if track:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(a.data - b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bw)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bw(g):
        if x.requires_grad:
            _accum(x, g * mask)

    return _node(np.where(mask, x.data, 0.0), (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    y = np.empty_like(d)
    pos = d >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    y[~pos] = ex / (1.0 + ex)

    def bw(g):
        if x.requires_grad:
            _accum(x, g * y * (1.0 - y))

    return _node(y, (x,), bw)


def clamp01(x: Tensor) -> Tensor:
    inside = (x.data > 0.0) & (x.data < 1.0)

    def bw(g):
        if x.requires_grad:
            _accum(x, g * inside)

    return _node(np.clip(x.data, 0.0, 1.0), (x,), bw)


def absval(x: Tensor) -> Tensor:
    sign = np.sign(x.data)  # subgradient 0 at ties

    def bw(g):
        if x.requires_grad:
            _accum(x, g * sign)

    return _node(np.abs(x.data), (x,), bw)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def bw(g):
        if x.requires_grad:
            _accum(x, np.full_like(x.data, g / n))

    return _node(np.asarray(x.data.mean(dtype=x.data.dtype)), (x,), bw)


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                _accum(t, g[tuple(index)])

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour x2 along both spatial axes of a (B, C, H, W) tensor."""
    b, c, h, w = x.data.shape

    def bw(g):
        if x.requires_grad:
            _accum(x, g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5)))

    return _node(np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3), (x,), bw)


def spatial_mean(x: Tensor) -> Tensor:
    """Global average pool over H and W, keeping dims: (B, C, 1, 1)."""
    n = x.data.shape[2] * x.data.shape[3]

    def bw(g):
        if x.requires_grad:
            _accum(x, np.broadcast_to(g / n, x.data.shape).astype(x.data.dtype, copy=True))

    return _node(x.data.mean(axis=(2, 3), keepdims=True, dtype=x.data.dtype), (x,), bw)


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(B, C*kh*kw, oh*ow) patch columns; a view when kh = kw = stride = 1."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    b, c, oh, ow = win.shape[:4]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, oh * ow)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Standard convolution: x (B,C,H,W), w (O,C,kh,kw), b (O,)."""
    bs, c, h, wd = x.data.shape
    o, ci, kh, kw = w.data.shape
    if ci != c:
        raise ValidationError(f"conv2d channel mismatch: input {c}, weight expects {ci}")
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    w2d = w.data.reshape(o, -1)
    xp = x.data
    if pad:  # np.pad copies even for zero padding, and the graph would keep the copy
        xp = np.pad(xp, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = _im2col(xp, kh, kw, stride)
    y = (w2d @ cols).reshape(bs, o, oh, ow)
    y += b.data.reshape(1, o, 1, 1)

    def bw(g):
        gf = g.reshape(bs, o, oh * ow)
        if b.requires_grad:
            _accum(b, gf.sum(axis=(0, 2)))
        if w.requires_grad:
            dw = np.tensordot(gf, cols, axes=([0, 2], [0, 2]))
            _accum(w, dw.reshape(w.data.shape))
        if x.requires_grad:
            dc = (w2d.T @ gf).reshape(bs, c, kh, kw, oh, ow)
            dxp = np.zeros((bs, c, h + 2 * pad, wd + 2 * pad), dtype=x.data.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += dc[:, :, i, j]
            _accum(x, dxp[:, :, pad : pad + h, pad : pad + wd])

    return _node(y, (x, w, b), bw)


def dwconv2d(x: Tensor, w: Tensor, b: Tensor, pad: int = 1) -> Tensor:
    """Depthwise convolution: x (B,C,H,W), w (C,kh,kw), b (C,); stride 1."""
    bs, c, h, wd = x.data.shape
    cw, kh, kw = w.data.shape
    if cw != c:
        raise ValidationError(f"dwconv2d channel mismatch: input {c}, weight expects {cw}")
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = h + 2 * pad - kh + 1
    ow = wd + 2 * pad - kw + 1
    y = np.zeros((bs, c, oh, ow), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            y += xp[:, :, i : i + oh, j : j + ow] * w.data[:, i, j][None, :, None, None]
    y += b.data.reshape(1, c, 1, 1)

    def bw(g):
        if b.requires_grad:
            _accum(b, g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            dw = np.empty_like(w.data)
            for i in range(kh):
                for j in range(kw):
                    dw[:, i, j] = (g * xp[:, :, i : i + oh, j : j + ow]).sum(axis=(0, 2, 3))
            _accum(w, dw)
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + oh, j : j + ow] += g * w.data[:, i, j][None, :, None, None]
            if pad:
                dxp = dxp[:, :, pad:-pad, pad:-pad]
            _accum(x, dxp)

    return _node(y, (x, w, b), bw)


def loss_l1(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all elements."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise ValidationError(
            f"loss_l1 shape mismatch: {pred.data.shape} vs {target.data.shape}"
        )
    return mean_all(absval(sub(pred, target)))
