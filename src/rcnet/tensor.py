"""Dense float64 tensors with taped reverse-mode differentiation.

Every operator the neck modules need is expressed through the functions in
this module, so the full model can be gradient-checked end to end against
finite differences. Ops compute in 64-bit floats, validate their inputs,
and refuse to emit NaN/Inf silently.

Recording is explicit: wrap the forward pass in a `Tape` context and call
`backward(tape, loss)`. Without an active tape, ops run forward-only. The
active tape is held in a context variable, so each thread records into
its own tape.

Retention rule: the tape keeps only what backward reads, and only until
backward has read it. Each tensor has a grad cell (its shape,
`requires_grad`, `grad` and name); a tape node holds the cells of an op's
output and inputs plus one vjp per input, and each vjp closes over the
arrays it reads and nothing else: never a `Tensor`. An intermediate whose
data no vjp reads (the output of add, reshape, narrow, concat, transpose
or the upsample, or the conv output in front of channel_norm, whose vjp
reads only its own normalized x) is freed as soon as the forward drops
it. `requires_grad` is read from the cells when backward runs.

The reverse sweep consumes the tape. `backward` takes the nodes off the
tape, so a tape is swept once, and frees each node, with its cells, its
vjps and the arrays they read, as soon as its vjps have run: an array
only the tape kept is freed while the sweep goes on. Nothing is
recomputed. After `backward`, `.grad` is kept on leaves only (tensors that
no tape op produced); each interior gradient is dropped as soon as its
op's vjp has consumed it. A leaf gradient that is not finite when the
sweep ends raises `NonFiniteError`, as a non-finite forward value does.

Grad-ownership rule: each gradient is written once. A later gradient is
added in place, which is bitwise the out-of-place sum; narrow's vjp adds
its slice into the input's grad. An interior first gradient is stored
without a copy, views included, when it is writeable float64 and shares
no memory with a gradient handed to another input of the same op (the
one array `add` gives both inputs, or overlapping slices). A leaf's
first gradient is stored without a copy only if it also owns its data
and is C-contiguous, so a leaf's `.grad` always owns writeable,
C-contiguous data; anything else is copied. An add in place writes only
memory its own cell holds, since every vjp returns new memory or a view
of its op's output grad and no two cells hold overlapping grads. When one
tensor is an input of an op twice, the second add writes into the op's
output grad; no later vjp of that op reads that part of it (the ops whose
vjps return views have two inputs, or are concat, whose vjps read
disjoint slices), and a new op must keep it so.

conv2d picks its kernel by shape. A stride-1 conv with a kernel larger
than 1x1 and fewer output than input channels (the one-channel FGU logit
conv) contracts the channels first: its buffers hold Cout*kh*kw maps,
not the Cin*kh*kw of an im2col. Every other conv (the d->d 3x3 convs,
1x1 convs, strided convs) multiplies an im2col buffer, which does
better when Cout >= Cin. That path runs np.matmul on [N, K, P] views
(K = Cin*kh*kw, P the output pixels): the product is already NCHW and
takes the bias in place, the weight vjp is g @ cols^T on views, and a
1x1 stride-1 conv reads a view of x and gets its input vjp from one
matmul. Neither path keeps a buffer on the tape: the im2col weight vjp
rebuilds its buffer from the input data it holds, and the im2col input
vjp accumulates kernel tap by kernel tap.

The resampling kernels read strided views rather than building gather
buffers. maxpool2d folds np.maximum over its k*k window views, and its
backward re-derives each window's first maximum from x and the output.
The bilinear x2 upsample builds each axis's even and odd outputs by
slicing; each output is the same sum of two products as in the
index-gather formula, so the result is bitwise that formula's.

channel_norm is one tape node with a closed-form backward; its forward
runs the same numpy calls in the same order as the composite of
elementwise ops it replaced, so its output is bitwise unchanged. Its
backward forms the per-channel sum of g * xh once, as dot products, and
shares it between the x and the gamma vjp.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np

from . import counting

__all__ = [
    "Tensor",
    "Tape",
    "NonFiniteError",
    "TapeError",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "scale",
    "add_scalar",
    "neg",
    "exp",
    "sqrt",
    "sigmoid",
    "relu",
    "tsum",
    "tmean",
    "concat",
    "narrow",
    "roll",
    "reshape",
    "transpose",
    "broadcast_to",
    "pad2d",
    "conv2d",
    "bilinear_upsample_x2",
    "maxpool2d",
    "global_avg_pool",
    "softmax",
    "channel_norm",
]


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


class TapeError(RuntimeError):
    """Tape misuse: nested recording, double backward, or a detached loss."""


class _GradCell:
    """What the tape keeps of a tensor: its shape, `requires_grad`, `grad` and name."""

    __slots__ = ("shape", "requires_grad", "grad", "name")

    def __init__(self, shape: tuple[int, ...], requires_grad: bool, name: str | None):
        self.shape = shape
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.name = name


class Tensor:
    """N-dimensional float64 array with an optional gradient accumulator.

    Data is row-major and conceptually immutable once constructed; only
    `grad` is written to (by `backward`). `grad`, `requires_grad` and
    `name` live in the tensor's grad cell, which the tape holds in place
    of the tensor. `name` is set for learnable parameters so the counting
    harness can attribute them to operators and `backward` can name a
    leaf whose gradient is not finite.
    """

    __slots__ = ("data", "_cell")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self._cell = _GradCell(self.data.shape, requires_grad, name)

    @property
    def name(self) -> str | None:
        return self._cell.name

    @name.setter
    def name(self, value: str | None):
        self._cell.name = value

    @property
    def grad(self) -> np.ndarray | None:
        return self._cell.grad

    @grad.setter
    def grad(self, value: np.ndarray | None):
        self._cell.grad = value

    @property
    def requires_grad(self) -> bool:
        return self._cell.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool):
        self._cell.requires_grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


# A tape node: the output's grad cell, the inputs' grad cells, and one vjp
# per input. A vjp maps the output grad to that input's grad: an array of
# the input's shape, or an (index, array) pair for a grad that is zero
# outside `index`.
_Node = tuple[_GradCell, tuple[_GradCell, ...], tuple[Callable, ...]]


class Tape:
    """Ordered record of executed ops; execution order is topological.

    One tape may record at a time in each thread (or other execution
    context); a second `with` inside the first raises. `backward` sweeps a
    tape once: it takes the nodes off the tape and frees each one as soon
    as its vjps have run, so afterwards the tape is empty and spent. The
    tape holds grad cells and the arrays its vjps read, never a `Tensor`.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        if _ACTIVE_TAPE.get() is not None:
            raise TapeError("a tape is already recording; nested tapes are not allowed")
        _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.set(None)
        return False

    def __len__(self) -> int:
        return len(self._nodes)


_ACTIVE_TAPE: ContextVar[Tape | None] = ContextVar("rcnet_active_tape", default=None)


def backward(tape: Tape, loss: Tensor):
    """Reverse-sweep `tape`, accumulating dLoss/dLeaf into leaf `.grad`s.

    `loss` must be a scalar produced on this tape. A tape is swept once:
    the sweep takes its nodes, so a second `backward` on it raises, and so
    does one after a sweep that raised part way.

    Each node is dropped, with its grad cells and its vjps and the arrays
    they read, as soon as its vjps have run; an array only the tape kept
    is freed during the sweep. Each op's output gradient is taken off its
    tensor before the op's vjp runs, so afterwards every tensor the swept
    ops produced, `loss` included, has `grad is None`; only leaves keep
    theirs. At most the gradients of the tensors still awaiting their
    producer's vjp are live at any point of the sweep. A leaf gradient
    that ends the sweep non-finite raises `NonFiniteError`.
    """
    if loss.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if tape._spent:
        raise TapeError("backward already ran on this tape; a tape is swept once")
    nodes = tape._nodes
    idx = None
    for i in range(len(nodes) - 1, -1, -1):
        if nodes[i][0] is loss._cell:
            idx = i
            break
    if idx is None:
        raise TapeError("loss is not on the tape (detached graph)")
    tape._spent = True
    tape._nodes = []
    del nodes[idx + 1 :]  # ops recorded after the loss do not reach it
    interior = {out for out, _, _ in nodes}  # every other cell is a leaf here
    leaves = {cell: None for _, ins, _ in nodes for cell in ins if cell not in interior}
    loss.grad = np.ones_like(loss.data)
    while nodes:
        _sweep_node(nodes.pop(), interior)  # the node, and all it holds, is freed on return
    for cell in leaves:
        if cell.grad is not None and not np.isfinite(cell.grad).all():
            label = f"leaf {cell.name!r}" if cell.name else f"a leaf of shape {cell.shape}"
            raise NonFiniteError(f"backward produced a non-finite gradient for {label}")


def _sweep_node(node: _Node, interior: set):
    """Take the node's output grad off its cell and run the node's vjps on it."""
    out, ins, vjps = node
    g, out.grad = out.grad, None
    if g is None:
        return
    handed: list[np.ndarray] = []  # the grads already given to this op's inputs
    for cell, vjp in zip(ins, vjps):
        if cell.requires_grad:
            handed.append(_accumulate(cell, vjp(g), cell in interior, handed))


def _accumulate(cell: _GradCell, gt, interior: bool, handed: list) -> np.ndarray:
    """Add the vjp result `gt` into `cell.grad`, writing it once; return the array handed over.

    A later grad is added in place. A first grad is kept uncopied when it
    is writeable float64 and shares no memory with a grad `handed` to
    another input of the same op; a leaf's must also own its data and be
    C-contiguous. Anything else is copied into a new C-ordered array.
    """
    if isinstance(gt, tuple):  # (index, g): the grad is g at index and zero elsewhere
        index, gt = gt
        if cell.grad is None:
            cell.grad = np.zeros(cell.shape)
        cell.grad[index] += gt
        return gt
    if gt.shape != cell.shape:
        raise TapeError(f"gradient shape {gt.shape} != tensor shape {cell.shape}")
    if cell.grad is not None:
        cell.grad += gt
    elif (
        gt.flags.writeable
        and gt.dtype == np.float64
        and (interior or (gt.flags.owndata and gt.flags.c_contiguous))
        and not any(np.shares_memory(gt, h) for h in handed)
    ):
        cell.grad = gt
    else:
        cell.grad = np.array(gt, dtype=np.float64, order="C")
    return gt


def _finite(op: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    return arr


def _make(op: str, data: np.ndarray, vjps: Sequence[tuple[Tensor, Callable]]) -> Tensor:
    """Finalize an op: finite-check, note params, record on the active tape.

    The tape keeps the inputs' grad cells and the vjps; each op binds what
    its vjps read (arrays, shapes) to locals, so no vjp holds a `Tensor`.
    """
    _finite(op, data)
    for t, _ in vjps:
        if t.name is not None:
            counting.saw_param(t)
    out = Tensor(data)
    tape = _ACTIVE_TAPE.get()
    if tape is not None and any(t.requires_grad for t, _ in vjps):
        out.requires_grad = True
        tape._nodes.append(
            (out._cell, tuple(t._cell for t, _ in vjps), tuple(vjp for _, vjp in vjps))
        )
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise and broadcasting ops


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    sa, sb = a.shape, b.shape
    return _make(
        "add",
        a.data + b.data,
        [(a, lambda g: _unbroadcast(g, sa)), (b, lambda g: _unbroadcast(g, sb))],
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    sa, sb = a.shape, b.shape
    return _make(
        "sub",
        a.data - b.data,
        [(a, lambda g: _unbroadcast(g, sa)), (b, lambda g: _unbroadcast(-g, sb))],
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    ad, bd = a.data, b.data
    return _make(
        "mul",
        ad * bd,
        [
            (a, lambda g: _unbroadcast(g * bd, ad.shape)),
            (b, lambda g: _unbroadcast(g * ad, bd.shape)),
        ],
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    ad, bd = a.data, b.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ad / bd
    return _make(
        "div",
        out,
        [
            (a, lambda g: _unbroadcast(g / bd, ad.shape)),
            (b, lambda g: _unbroadcast(-g * ad / (bd * bd), bd.shape)),
        ],
    )


def scale(a: Tensor, s: float) -> Tensor:
    return _make("scale", a.data * s, [(a, lambda g: g * s)])


def add_scalar(a: Tensor, c: float) -> Tensor:
    return _make("add_scalar", a.data + c, [(a, lambda g: g)])


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    return _make("exp", out, [(a, lambda g: g * out)])


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.data)
    return _make("sqrt", out, [(a, lambda g: g * (0.5 / out))])


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _make("sigmoid", out, [(a, lambda g: g * out * (1.0 - out))])


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient 0 at 0
    return _make("relu", np.where(mask, a.data, 0.0), [(a, lambda g: g * mask)])


def tsum(a: Tensor, axes: tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axes, keepdims=keepdims)
    shape = a.shape

    def vjp(g):
        if not keepdims and axes is not None:
            g = np.expand_dims(g, axes)
        elif axes is None and not keepdims:
            g = np.asarray(g).reshape((1,) * len(shape))
        return np.broadcast_to(g, shape)

    return _make("sum", out, [(a, vjp)])


def tmean(a: Tensor, axes: tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    if axes is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[ax] for ax in axes]))
    return scale(tsum(a, axes, keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# shape and layout ops


def concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = [_tensor(t) for t in tensors]
    ref = ts[0].shape
    for t in ts[1:]:
        for ax, (da, db) in enumerate(zip(ref, t.shape)):
            if ax != axis % len(ref) and da != db:
                raise ValueError(
                    f"concat: axis {ax} extents differ ({da} vs {db}); only axis {axis} may vary"
                )
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(k):
        def vjp(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(int(offsets[k]), int(offsets[k + 1]))
            return g[tuple(sl)]

        return vjp

    return _make("concat", out, [(t, make_vjp(k)) for k, t in enumerate(ts)])


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    if start < 0 or start + length > a.shape[axis]:
        raise ValueError(
            f"narrow: [{start}, {start + length}) out of range for axis {axis} "
            f"of extent {a.shape[axis]}"
        )
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    # a view, like reshape and transpose: tensor data is never written; the
    # vjp adds g into the slice of a's grad it came from
    return _make("narrow", a.data[sl], [(a, lambda g: (sl, g))])


def roll(a: Tensor, shift: int, axis: int) -> Tensor:
    """Circular rotation along one axis; a pure copy, zero arithmetic."""
    out = np.roll(a.data, shift, axis=axis)
    return _make("roll", out, [(a, lambda g: np.roll(g, -shift, axis=axis))])


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    before = a.shape
    return _make("reshape", a.data.reshape(shape), [(a, lambda g: g.reshape(before))])


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _make(
        "transpose", a.data.transpose(axes), [(a, lambda g: g.transpose(inverse))]
    )


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = np.broadcast_to(a.data, shape).copy()
    before = a.shape
    return _make("broadcast_to", out, [(a, lambda g: _unbroadcast(g, before))])


def pad2d(a: Tensor, top: int, bottom: int, left: int, right: int) -> Tensor:
    """Zero-pad the trailing two axes; padding may be asymmetric."""
    if min(top, bottom, left, right) < 0:
        raise ValueError("pad2d: negative padding")
    width = [(0, 0)] * (a.ndim - 2) + [(top, bottom), (left, right)]
    out = np.pad(a.data, width)
    H, W = a.shape[-2], a.shape[-1]
    sl = (Ellipsis, slice(top, top + H), slice(left, left + W))
    return _make("pad2d", out, [(a, lambda g: g[sl])])


# ---------------------------------------------------------------------------
# structured ops


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Strided cross-correlation of NCHW input with OIHW weights plus bias.

    Output extents must divide exactly: H' = (H + 2*padding - kh)/stride + 1
    (and likewise for W'); a fractional extent is an error, not a floor.
    The kernel is chosen by shape; see the module docstring.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d: input must be 4-D [N,C,H,W], got {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d: weight must be 4-D [Cout,Cin,kh,kw], got {weight.shape}")
    N, Cin, H, W = x.shape
    Cout, Cw, kh, kw = weight.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel extents must be odd, got {kh}x{kw}")
    if Cw != Cin:
        raise ValueError(f"conv2d: input channels {Cin} != weight in-channels {Cw}")
    if bias.shape != (Cout,):
        raise ValueError(f"conv2d: bias shape {bias.shape} != ({Cout},)")
    if stride < 1 or padding < 0:
        raise ValueError("conv2d: stride must be >= 1 and padding >= 0")
    if (H + 2 * padding - kh) % stride or (W + 2 * padding - kw) % stride:
        raise ValueError(
            f"conv2d: non-integer output extent for input {H}x{W}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    Hp = (H + 2 * padding - kh) // stride + 1
    Wp = (W + 2 * padding - kw) // stride + 1

    counting.add_macs(N * Cout * Hp * Wp * Cin * kh * kw)
    # Fewer outputs than inputs (the one-channel FGU logit conv): contract
    # the channels first. With Cout >= Cin that buffer is no smaller than the
    # im2col, and the d->d convs measured slower and with a higher peak RSS
    # on the channel-first path.
    if stride == 1 and kh * kw > 1 and Cout < Cin:
        return _conv2d_channel_first(x, weight, bias, padding, Hp, Wp)

    taps = [(i, j) for i in range(kh) for j in range(kw)]
    pointwise = kh == kw == 1 and stride == 1 and padding == 0
    K, P = Cin * kh * kw, Hp * Wp
    xd, wd = x.data, weight.data
    wmat = wd.reshape(Cout, K)

    def window(a, i, j):  # the pixels kernel tap (i, j) reads, one per output pixel
        return a[:, :, i : i + stride * Hp : stride, j : j + stride * Wp : stride]

    def im2col():  # [N, K, P]; the GEMMs below read it and its transpose as views
        if pointwise:
            return xd.reshape(N, Cin, P)  # a view when x is contiguous
        xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        cols = np.empty((N, Cin, kh, kw, Hp, Wp), dtype=np.float64)
        for i, j in taps:
            cols[:, :, i, j] = window(xp, i, j)
        return cols.reshape(N, K, P)

    out = np.matmul(wmat, im2col()).reshape(N, Cout, Hp, Wp)  # NCHW as it comes
    out += bias.data[:, None, None]

    # Neither vjp reads a buffer kept from the forward: the weight vjp keeps
    # x's data and rebuilds the im2col buffer from it, and the input vjp
    # holds one tap's [N, Cin, Hp, Wp] product at a time.
    def vjp_x(g):
        g = g.reshape(N, Cout, P)
        if pointwise:
            gx = np.empty((N, Cin, H, W), dtype=np.float64)
            np.matmul(wmat.T, g, out=gx.reshape(N, Cin, P))
            return gx
        gxp = np.zeros((N, Cin, H + 2 * padding, W + 2 * padding), dtype=np.float64)
        for i, j in taps:
            tap = window(gxp, i, j)
            tap += np.matmul(wd[:, :, i, j].T, g).reshape(N, Cin, Hp, Wp)
        if padding:
            return gxp[:, :, padding : padding + H, padding : padding + W]
        return gxp

    def vjp_w(g):
        gw = np.matmul(g.reshape(N, Cout, P), im2col().transpose(0, 2, 1))  # [N, Cout, K]
        gwt = np.empty(wd.shape)  # owned, so the leaf keeps it without a copy
        np.sum(gw, axis=0, out=gwt.reshape(Cout, K))
        return gwt

    return _make(
        "conv2d",
        out,
        [(x, vjp_x), (weight, vjp_w), (bias, lambda g: g.sum(axis=(0, 2, 3)))],
    )


def _tap_span(i: int, padding: int, n_in: int, n_out: int) -> tuple[slice, slice]:
    """Output and input ranges along one axis where stride-1 tap i reads inside the input.

    Output o reads input o + i - padding; outputs whose read falls in the
    zero padding are left out of both ranges.
    """
    lo = max(0, padding - i)
    hi = min(n_out, n_in + padding - i)
    return slice(lo, hi), slice(lo + i - padding, hi + i - padding)


def _conv2d_channel_first(x, weight, bias, padding, Hp, Wp) -> Tensor:
    """Stride-1 conv that contracts the channels before the taps.

    Z = W . x holds one [H, W] map per (output channel, tap); the output
    sums each tap's shifted window of Z. For Cout < Cin this buffer is
    smaller than the [Cin, kh, kw] im2col, and both vjps work on the
    matching [Cout, kh, kw] scatter of the output grad, so no buffer scales
    with Cin*kh*kw. Padding only clips the windows; nothing is padded.
    """
    N, Cin, H, W = x.shape
    Cout, _, kh, kw = weight.shape
    K = Cout * kh * kw
    xd = x.data
    wk = weight.data.transpose(0, 2, 3, 1).reshape(K, Cin)  # rows ordered (o, i, j)
    spans = [
        (i, j, _tap_span(i, padding, H, Hp), _tap_span(j, padding, W, Wp))
        for i in range(kh)
        for j in range(kw)
    ]

    z = np.matmul(wk, xd.reshape(N, Cin, H * W)).reshape(N, Cout, kh, kw, H, W)
    out = np.zeros((N, Cout, Hp, Wp), dtype=np.float64)
    for i, j, (oy, iy), (ox, ix) in spans:
        out[:, :, oy, ox] += z[:, :, i, j, iy, ix]
    out += bias.data[None, :, None, None]

    def scatter(g):  # [N, K, H*W]: each tap's output grad at the input pixel it read
        gz = np.zeros((N, Cout, kh, kw, H, W), dtype=np.float64)
        for i, j, (oy, iy), (ox, ix) in spans:
            gz[:, :, i, j, iy, ix] = g[:, :, oy, ox]
        return gz.reshape(N, K, H * W)

    def vjp_x(g):
        gx = np.empty((N, Cin, H, W), dtype=np.float64)
        np.matmul(wk.T, scatter(g), out=gx.reshape(N, Cin, H * W))
        return gx

    def vjp_w(g):
        gw = np.tensordot(scatter(g), xd.reshape(N, Cin, H * W), axes=([0, 2], [0, 2]))
        return gw.reshape(Cout, kh, kw, Cin).transpose(0, 3, 1, 2)

    return _make(
        "conv2d",
        out,
        [(x, vjp_x), (weight, vjp_w), (bias, lambda g: g.sum(axis=(0, 2, 3)))],
    )


def _along(a: np.ndarray, axis: int, start, stop, step=None) -> np.ndarray:
    """The view of `a` that slices `axis` as start:stop:step."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop, step)
    return a[tuple(idx)]


def bilinear_upsample_x2(x: Tensor) -> Tensor:
    """Double the trailing two axes by bilinear interpolation.

    Alignment is half-pixel centers (align-corners OFF): this is the one
    interpolation convention used everywhere in the package, so any oracle
    must use the same formula. Rows are interpolated first, then columns.
    """
    if x.ndim < 2:
        raise ValueError(f"bilinear_upsample_x2: need at least 2 axes, got {x.shape}")
    out = _up2(_up2(x.data, -2), -1)
    return _make(
        "bilinear_upsample_x2", out, [(x, lambda g: _up2_adjoint(_up2_adjoint(g, -1), -2))]
    )


def _up2(a: np.ndarray, axis: int) -> np.ndarray:
    """The x2 half-pixel upsample along one axis (extent n -> 2n), by slicing.

    Output o samples input coordinate (o + 0.5)/2 - 0.5: output 2k is
    1/4 a[k-1] + 3/4 a[k] and output 2k+1 is 3/4 a[k] + 1/4 a[k+1], with
    a[-1] clamped to a[0] and a[n] to a[n-1]. The even and the odd outputs
    each have extent n, so the 3/4 products are written straight into them
    and the 1/4 products are added in place. Each output is one sum of the
    same two products the index-gather formula forms (a two-term IEEE sum
    does not depend on the order of its terms), so the result is bitwise
    that formula's.
    """
    shape = list(a.shape)
    shape[axis] *= 2
    out = np.empty(shape, dtype=np.float64)
    even, odd = _along(out, axis, 0, None, 2), _along(out, axis, 1, None, 2)
    np.multiply(a, 0.75, out=even)
    np.multiply(a, 0.75, out=odd)
    quarter = a * 0.25
    _along(even, axis, 1, None)[...] += _along(quarter, axis, None, -1)  # a[k-1]
    _along(even, axis, None, 1)[...] += _along(quarter, axis, None, 1)  # a[-1] clamps to a[0]
    _along(odd, axis, None, -1)[...] += _along(quarter, axis, 1, None)  # a[k+1]
    _along(odd, axis, -1, None)[...] += _along(quarter, axis, -1, None)  # a[n] clamps to a[n-1]
    return out


def _up2_adjoint(g: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of the x2 half-pixel upsample along one axis (extent 2n -> n).

    Output 2k reads 1/4 x[k-1] + 3/4 x[k] and output 2k+1 reads
    3/4 x[k] + 1/4 x[k+1], so input k collects g[2k-1], g[2k], g[2k+1] and
    g[2k+2] with weights [1/4, 3/4, 3/4, 1/4]. The forward clamps x[-1]
    to x[0] and x[n] to x[n-1], so the edge inputs also collect the 1/4
    share of g[0] and of g[2n-1].
    """
    even, odd = _along(g, axis, 0, None, 2), _along(g, axis, 1, None, 2)
    gx = 0.75 * (even + odd)
    _along(gx, axis, 1, None)[...] += 0.25 * _along(odd, axis, None, -1)  # g[2k-1]
    _along(gx, axis, None, -1)[...] += 0.25 * _along(even, axis, 1, None)  # g[2k+2]
    _along(gx, axis, None, 1)[...] += 0.25 * _along(even, axis, None, 1)  # g[-1] clamps to g[0]
    _along(gx, axis, -1, None)[...] += 0.25 * _along(odd, axis, -1, None)  # g[2n] clamps to g[2n-1]
    return gx


def maxpool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """Per-window maximum over the trailing two axes of an NCHW tensor.

    The forward folds np.maximum over the k*k strided window views, so it
    allocates nothing larger than its output. Backward routes the whole
    gradient to the window argmax: it re-derives, from x and the output,
    the first element in row-major window order that equals the maximum,
    so ties go to that element and backward is deterministic.
    """
    if x.ndim != 4:
        raise ValueError(f"maxpool2d: input must be 4-D [N,C,H,W], got {x.shape}")
    N, C, H, W = x.shape
    if (H - k) % stride or (W - k) % stride:
        raise ValueError(
            f"maxpool2d: extent {H}x{W} not divisible for window {k}, stride {stride}"
        )
    Hp = (H - k) // stride + 1
    Wp = (W - k) // stride + 1
    taps = [(i, j) for i in range(k) for j in range(k)]

    def window(a, i, j):  # the element tap (i, j) of every window
        return a[:, :, i : i + stride * Hp : stride, j : j + stride * Wp : stride]

    xd = x.data
    out = window(xd, 0, 0).copy()
    for i, j in taps[1:]:
        # on a tie np.maximum returns its second operand, so the earlier
        # tap's value is kept (its sign too, for a -0.0/0.0 tie)
        np.maximum(window(xd, i, j), out, out=out)

    def vjp(g):
        gx = np.zeros(xd.shape)
        unrouted = np.ones(out.shape, dtype=bool)
        for i, j in taps:
            first = window(xd, i, j) == out
            first &= unrouted
            unrouted ^= first
            tap = window(gx, i, j)
            tap += g * first
        return gx

    return _make("maxpool2d", out, [(x, vjp)])


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the trailing two (spatial) axes, keeping them as 1x1."""
    if x.ndim < 3:
        raise ValueError(f"global_avg_pool: need at least 3 axes, got {x.shape}")
    H, W = x.shape[-2], x.shape[-1]
    out = x.data.mean(axis=(-2, -1), keepdims=True)
    inv = 1.0 / (H * W)
    shape = x.shape
    return _make(
        "global_avg_pool", out, [(x, lambda g: np.broadcast_to(g * inv, shape).copy())]
    )


def softmax(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Exp-normalize jointly over `axes`, with max-subtraction for stability."""
    if not axes:
        raise ValueError("softmax: empty axis set")
    shift = Tensor(x.data.max(axis=axes, keepdims=True))  # constant; softmax is shift-invariant
    e = exp(sub(x, shift))
    return div(e, tsum(e, axes, keepdims=True))


def channel_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-channel standardization over (batch, spatial), then gamma*x + beta.

    Batch-statistics (training-mode) semantics only; gradients flow through
    the mean and the biased variance.
    """
    if x.ndim != 4:
        raise ValueError(f"channel_norm: input must be 4-D [N,C,H,W], got {x.shape}")
    if eps <= 0:
        raise ValueError("channel_norm: eps must be positive")
    N, C, H, W = x.shape
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ValueError(
            f"channel_norm: gamma/beta must have shape ({C},), got {gamma.shape}/{beta.shape}"
        )
    if N * H * W < 2:
        raise ValueError(f"channel_norm: {N * H * W} values per channel; variance undefined")
    axes = (0, 2, 3)
    inv = 1.0 / (N * H * W)
    # the same numpy calls, in the same order, as the taped composite
    # (tmean, sub, mul, tmean, add_scalar, sqrt, div, mul, add) it replaces,
    # so the forward is bitwise what it was
    mu = x.data.sum(axis=axes, keepdims=True) * inv
    d = x.data - mu
    var = (d * d).sum(axis=axes, keepdims=True) * inv
    den = np.sqrt(var + eps)
    xh = d / den
    del d
    g4 = gamma.data.reshape(1, C, 1, 1)
    out = xh * g4 + beta.data.reshape(1, C, 1, 1)

    # Both the x and the gamma vjp need the per-channel sum of g * xh. The
    # x vjp runs first on the same g and hands its sum on when gamma is
    # being differentiated too. Neither reads x: its data is not kept.
    handed = []
    gamma_cell = gamma._cell

    def vjp_x(g):
        # gx = (gh - mean(gh) - xh * mean(gh * xh)) / den with gh = g * gamma;
        # gamma is per channel, so it factors out of both means
        g_xh = _channel_dot(g, xh)
        if gamma_cell.requires_grad:
            handed.append(g_xh)
        gx = xh * (g_xh * inv)
        gx -= g
        gx += g.sum(axis=axes, keepdims=True) * inv
        gx *= -(g4 / den)
        return gx

    def vjp_gamma(g):
        return (handed.pop() if handed else _channel_dot(g, xh)).reshape(C)

    return _make(
        "channel_norm",
        out,
        [(x, vjp_x), (gamma, vjp_gamma), (beta, lambda g: g.sum(axis=axes))],
    )


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel sum of a * b over (batch, spatial) for [N, C, H, W] arrays, as [1, C, 1, 1].

    One dot product per (sample, channel) pair: no a * b array is formed.
    """
    N, C, H, W = a.shape
    dots = np.matmul(a.reshape(N, C, 1, H * W), b.reshape(N, C, H * W, 1))  # [N, C, 1, 1]
    return dots.sum(axis=0, keepdims=True)
