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
backward has read it. Each tensor has a grad cell (its shape, `grad` and
name). `requires_grad` is read when an op is recorded: a tape node holds
the cell of the op's output and, for each input that required grad then,
the input's cell and its vjp. Each vjp closes over the arrays (or
recipes) it reads and nothing else: never a `Tensor`. A vjp the node
does not keep is dropped with what it read, and turning a flag on or off
after the op was recorded changes no gradient. An intermediate whose
data no kept vjp reads (the output of add, reshape, narrow, concat,
transpose or the upsample, the conv output in front of channel_norm,
whose vjp reads only its own normalized x, or a product with a constant)
is freed as soon as the forward drops it.

Arrays a tape keeps must not change until `backward` has swept it: the
vjps read the forward's inputs as they are at the sweep, and a recipe
rebuilds its output from them then, so an input written in place in
between (`w.data[:] = ...`) changes the gradients silently. Nothing
detects it.

Recipe rule: under a recording tape, five ops give their output a
recipe (`_Recipe`) that rebuilds its data in backward from arrays the
tape keeps anyway, or that only a rebuild reads. `mul` always has one
(its vjps keep both operands); `add` only when both inputs have one;
`relu` only when its input has one; `channel_norm` from its kept xh and
gamma/beta; `bilinear_upsample_x2` from its input. A recipe repeats the
forward's own numpy calls in the same order, so its rebuild is bitwise
the output, and it calls raw numpy, never a Tensor op, so nothing is
taped, counted or finite-checked twice. A vjp that reads an input's data
(both conv2d kernels' weight vjps, mul's vjps, maxpool2d's) reads it
through the input's recipe when it has one, so the tape lets that
output go: the revfp blends and guided maps and the upsamples under
them, the norms under the max pools and in front of a blend, and csn's
relu output. Only elementwise outputs and upsamples are rebuilt, never
a conv.

A recipe lives as long as something holds it: its output tensor, a vjp
a node kept, or the recipe of a reader. So a recipe never pins an input
that no kept vjp reads, and an output the forward drops unread frees its
recipe's input. In backward a recipe runs at most once: its first read
builds the rebuild and keeps it on the recipe, and releases what the
build read, so a chain costs one rebuild per link, however many links or
vjps read it. The rebuild dies when the last node or recipe that holds
it is freed; inside one node it lives until the node's last vjp has run
(the conv input's rebuild, read by the weight vjp, lives through the
input vjp). A rebuild never writes into an array it reads. Without a
tape, or when no input requires grad, no output has a recipe, so a
tape-free forward frees each map at its last read; `backward` takes
every recipe off the tensors of the tape it sweeps, so a tensor kept
past backward pins nothing, and no rebuild outlives the sweep.

The reverse sweep consumes the tape. `backward` takes the nodes off the
tape, so a tape is swept once, and frees each node, with its cells, its
vjps and the arrays they read, as soon as its vjps have run: an array
only the tape kept is freed while the sweep goes on. After `backward`,
`.grad` is kept on leaves only (tensors that
no tape op produced); each interior gradient is dropped as soon as its
op's vjp has consumed it. A leaf gradient that is not finite when the
sweep ends raises `NonFiniteError`, as a non-finite forward value does.

Grad-ownership rule: gradients are copy-on-write. An interior first
gradient is stored as the vjp returned it, views and read-only
broadcasts (tsum's, global_avg_pool's) included. When it shares memory
with a gradient already handed to another input of the same op (the one
array `add` gives both inputs, or overlapping slices), both cells keep
that memory read-only: the array already handed is marked read-only and
the new one is stored as a read-only view. A later gradient is added in
place into a writeable grad and out of place into a read-only one; both
are the same IEEE sum, so the bits do not depend on which it was.
narrow's vjp adds its slice into the input's grad, after copying the
grad if it is read-only. A leaf's first gradient is stored without a
copy only if it is writeable float64, owns its data, is C-contiguous and
shares no memory with a gradient handed to another input; anything else
is copied, and a leaf's grad is never marked read-only, so a leaf's
`.grad` always owns writeable, C-contiguous data. A writeable grad is
then memory its own cell alone holds: every vjp returns new memory or a
view of its op's output grad, and an output grad is read-only wherever
another cell holds it. When one tensor is an input of an op twice, the
second add may write into the op's output grad; no later vjp of that op
reads that part of it (the ops whose vjps return views have two inputs,
or are concat, whose vjps read disjoint slices), and a new op must keep
it so.

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
rebuilds its buffer from the input data it holds, one channel block at a
time, each freed before the next is built, and the im2col input vjp
accumulates kernel tap by kernel tap. A conv's weight vjp runs before its
input vjp, so the input's grad is not yet live while the weight vjp
rebuilds the input; at batch 1 the weight vjp's GEMM writes the weight
grad itself, with no batch sum into a second array.

One rule says which input pixel a conv tap reads: pad with zeros, then
slice a window. An im2col block copies the input rows it reads into a
zero-padded slab (a view of x when padding is 0) and gathers every tap
with one copy of a read-only windowed view of it; the im2col input vjp
adds each tap into a window of a zero-padded grad; the channel-first
conv adds each tap's window of its zero-padded maps and scatters its
grad from a zero-padded g. A tap that reads padding copies +0.0, or adds
+0.0 to a sum that starts at +0.0 and so is never -0.0, which moves no
bit: tests/test_conv_taps.py holds both paths to the per-tap clipped
form bitwise.

The im2col buffer is built one block at a time. The forward takes
blocks of output rows, the least power of two holding 1024 output pixels
that is a multiple of 16, and writes each block's GEMM into its rows of
the output; a map one block covers is one block. The weight vjp takes blocks
of input channels, a power of two that divides Cin and whose buffer is no
bigger than one forward block (at least 16 weight columns), and writes
each block's GEMM into its columns of the weight grad. Every output
element is then formed by the same BLAS kernel as in one whole-map GEMM,
so the bits do not depend on the blocks; `_conv_blocks` says which block
shapes broke that, and small convs run as one block.

Allocator rule, under glibc only (`_LIBC`; any other C library is left
alone): the thresholds keep the heap through a pass, and each sweep
gives its free pages back at its end. Importing this module pins
malloc's mmap threshold at 32 MiB and its trim threshold at 64 MiB, the
values glibc reaches by itself after freeing one whole-map buffer, which
no blocked conv allocates. So maps and im2col blocks come from the heap,
and a pass reuses the pages it faulted in instead of handing them back
and faulting them in again op after op. Every `backward` then ends with
one `malloc_trim(0)`, a sweep that raises included: the tape it freed
leaves ~90 MiB of free heap pages at paper width, which would otherwise
stay resident under the caller's next allocations. A tape-free forward
never trims.

The resampling kernels read strided views rather than building gather
buffers. maxpool2d (2x2, stride 2) takes np.maximum over its four window
views, and its backward re-derives each window's first maximum from x and
the output.
The bilinear x2 upsample builds each axis's even and odd outputs by
slicing; each output is the same sum of two products as in the
index-gather formula, so the result is bitwise that formula's.

channel_norm is one tape node with a closed-form backward; its forward
runs the same numpy calls in the same order as the composite of
elementwise ops it replaced, so its output is bitwise unchanged. Its
x and gamma vjps each form the per-channel sum of g * xh as dot products.

Flat spans. The memory-bound kernels run as a few long passes over whole
arrays, not one short pass per row: the maps are 4 to 64 pixels wide, and
numpy pays a fixed cost for every row it loops over. The upsample and its
adjoint lay the lines along an axis end to end and form each shifted sum
in one pass over a block of whole lines. The blocks hold about
`_PASS_BLOCK` elements, so the temporaries stay in cache between the
passes. relu is one np.maximum, and channel_norm's forward works in two
buffers, not five. A shifted pass is wrong only where it crosses the
edge of a line (a clamped upsample tap). The rule a new kernel must
keep: such an element is overwritten afterwards, from its own operands
by the same operations in the same order as the per-row form, never
corrected by arithmetic (taking the wrong term back out moves the
bits). Every output and gradient is then bitwise the per-row form's;
tests/test_flat_kernels.py holds each kernel to it.
"""

from __future__ import annotations

import ctypes
import os
import weakref
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
    """What the tape keeps of a tensor: its shape, `grad` and name."""

    __slots__ = ("shape", "grad", "name")

    def __init__(self, shape: tuple[int, ...], name: str | None):
        self.shape = shape
        self.grad: np.ndarray | None = None
        self.name = name


class _Recipe:
    """Rebuilds a tensor's data in backward, bitwise, at most once a sweep.

    `build()` repeats the forward's numpy calls on the arrays and recipes
    it closes over. The first `take` runs it, keeps the result in
    `rebuilt` for every later reader and sets `build` to None, which
    releases what it read; the rebuild dies with the recipe (see the module
    docstring). Other readers share it, so `build` must return new memory
    and never write into a source's rebuild.
    """

    __slots__ = ("build", "rebuilt")

    def __init__(self, build: Callable[[], np.ndarray]):
        self.build: Callable[[], np.ndarray] | None = build
        self.rebuilt: np.ndarray | None = None

    def take(self) -> np.ndarray:
        """The rebuilt data, built on the first read; building releases what `build` read."""
        if self.build is not None:
            self.rebuilt, self.build = self.build(), None
        return self.rebuilt


class Tensor:
    """N-dimensional float64 array with an optional gradient accumulator.

    Data is row-major and conceptually immutable once constructed; only
    `grad` is written to (by `backward`). `grad` and `name` live in the
    tensor's grad cell, which the tape holds in place of the tensor;
    `requires_grad` is read only when an op is recorded. `name` is set for
    learnable parameters so the counting harness can attribute them to
    operators and `backward` can name a leaf whose gradient is not finite.
    """

    __slots__ = ("data", "requires_grad", "_cell", "_recipe", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._cell = _GradCell(self.data.shape, name)
        self._recipe: _Recipe | None = None  # set only by an op a tape recorded

    @property
    def name(self) -> str | None:
        return self._cell.name

    @property
    def grad(self) -> np.ndarray | None:
        return self._cell.grad

    @grad.setter
    def grad(self, value: np.ndarray | None):
        self._cell.grad = value

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


# A tape node: the output's grad cell, and a (grad cell, vjp) pair for each
# input that required grad when the op was recorded. A vjp maps the output
# grad to that input's grad: an array of the input's shape, or an (index,
# array) pair for a grad that is zero outside `index`.
_Node = tuple[_GradCell, tuple[tuple[_GradCell, Callable], ...]]


class Tape:
    """Ordered record of executed ops; execution order is topological.

    One tape may record at a time in each thread (or other execution
    context); a second `with` inside the first raises. `backward` sweeps a
    tape once: it takes the nodes off the tape and frees each one as soon
    as its vjps have run, so afterwards the tape is empty and spent, and
    recording onto it again raises. The tape holds grad cells and the
    arrays its vjps read, never a `Tensor`.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._spent = False
        # the outputs given a recipe, weakly: backward takes their recipes
        self._recipes: list[weakref.ref] = []

    def __enter__(self) -> "Tape":
        if _ACTIVE_TAPE.get() is not None:
            raise TapeError("a tape is already recording; nested tapes are not allowed")
        if self._spent:
            raise TapeError("backward already swept this tape; record on a new Tape")
        _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.set(None)
        return False

    def __len__(self) -> int:
        return len(self._nodes)


_ACTIVE_TAPE: ContextVar[Tape | None] = ContextVar("rcnet_active_tape", default=None)


def _glibc() -> ctypes.CDLL | None:
    """glibc with its mmap and trim thresholds pinned; None under any other C library.

    glibc raises its mmap threshold only when it frees a large mmapped
    chunk (to that chunk's size, at most 32 MiB), and its trim threshold
    with it (to twice that). A whole-map im2col buffer did that in the first
    conv of a process. Blocked buffers never do, so the heap top was given
    back and faulted in again on every pass: about 7000 minor faults and 20
    ms of system time in a desk-width forward pass, 74000 and 180 ms in a
    `verify` pass. Fixing both at their largest dynamic values gives every
    process the state the whole-map buffers led to.
    """
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        version = None
    if not version:
        return None
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    libc.malloc_trim.argtypes, libc.malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    return libc


#: The allocator policy's one handle: pinned at import, trimmed by `backward`.
_LIBC = _glibc()


def backward(tape: Tape, loss: Tensor):
    """Reverse-sweep `tape`, accumulating dLoss/dLeaf into leaf `.grad`s.

    `loss` must be a scalar `Tensor` produced on this `Tape`. A tape is
    swept once: the sweep takes its nodes, so a second `backward` on it
    raises, and so does one after a sweep that raised part way, or an op
    recorded onto it afterwards.

    Each node is dropped, with its grad cells and its vjps and the arrays
    they read, as soon as its vjps have run; an array only the tape kept
    is freed during the sweep. Each op's output gradient is taken off its
    tensor before the op's vjp runs, so afterwards every tensor the swept
    ops produced, `loss` included, has `grad is None`; only leaves keep
    theirs. At most the gradients of the tensors still awaiting their
    producer's vjp are live at any point of the sweep. A leaf gradient
    that ends the sweep non-finite raises `NonFiniteError`. Every sweep,
    one that raises included, ends by handing the free heap back to the
    OS (the allocator rule in the module docstring).
    """
    if not isinstance(tape, Tape):
        raise TapeError(f"backward needs a Tape, got {type(tape).__name__}")
    if not isinstance(loss, Tensor):
        raise TapeError(f"loss must be a Tensor, got {type(loss).__name__}")
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
    try:
        for ref in tape._recipes:  # the vjps hold what they read; a tensor kept past backward holds none
            t = ref()
            if t is not None:
                t._recipe = None
        tape._recipes = []
        del nodes[idx + 1 :]  # ops recorded after the loss do not reach it
        interior = {out for out, _ in nodes}  # every other cell is a leaf here
        leaves = {cell: None for _, ins in nodes for cell, _ in ins if cell not in interior}
        loss.grad = np.ones_like(loss.data)
        while nodes:
            _sweep_node(nodes.pop(), interior)  # the node, and all it holds, is freed on return
        for cell in leaves:
            if cell.grad is not None and not np.isfinite(cell.grad).all():
                label = f"leaf {cell.name!r}" if cell.name else f"a leaf of shape {cell.shape}"
                raise NonFiniteError(f"backward produced a non-finite gradient for {label}")
    finally:
        if _LIBC is not None:  # hand every free heap page back to the OS
            _LIBC.malloc_trim(0)


def _sweep_node(node: _Node, interior: set):
    """Take the node's output grad off its cell and run the node's vjps on it."""
    out, ins = node
    g, out.grad = out.grad, None
    if g is None:
        return
    handed: list[tuple[np.ndarray, bool]] = []  # grads this op's inputs hold uncopied
    for cell, vjp in ins:
        _accumulate(cell, vjp(g), cell in interior, handed)


def _accumulate(cell: _GradCell, gt, interior: bool, handed: list) -> None:
    """Add the vjp result `gt` into `cell.grad`, copy-on-write.

    A later grad is added in place into a writeable grad and out of place
    into a read-only one (the same IEEE sum); the `(index, g)` form copies
    a read-only grad before adding into its slice. A first grad is stored
    uncopied when it is float64 and the cell is interior, read-only
    broadcasts included; a leaf's must also be writeable, own its data, be
    C-contiguous and share no memory with a grad in `handed`. When an
    interior first grad shares memory with an interior cell's grad in
    `handed` (the arrays stored uncopied for this op's earlier inputs,
    each with whether a leaf holds it), that grad is marked read-only and
    this one stored read-only. Anything else, and memory a leaf holds, is
    copied into a new C-ordered array.
    """
    if isinstance(gt, tuple):  # (index, g): the grad is g at index and zero elsewhere
        index, gt = gt
        if cell.grad is None:
            cell.grad = np.zeros(cell.shape)
        elif not cell.grad.flags.writeable:
            cell.grad = np.array(cell.grad, order="C")
        cell.grad[index] += gt
        return
    if gt.shape != cell.shape:
        raise TapeError(f"gradient shape {gt.shape} != tensor shape {cell.shape}")
    if cell.grad is not None:
        if cell.grad.flags.writeable:
            cell.grad += gt
        else:
            cell.grad = cell.grad + gt
        return
    shared = [(h, leaf) for h, leaf in handed if np.shares_memory(gt, h)]
    if interior:
        keep = gt.dtype == np.float64 and not any(leaf for _, leaf in shared)
    else:
        flags = gt.flags
        keep = (
            flags.writeable and flags.owndata and flags.c_contiguous
            and gt.dtype == np.float64 and not shared
        )
    if not keep:
        cell.grad = np.array(gt, dtype=np.float64, order="C")
        return
    if shared:
        for h, _ in shared:
            h.flags.writeable = False
        gt = gt.view()
        gt.flags.writeable = False
    cell.grad = gt
    handed.append((gt, not interior))


def _finite(op: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    return arr


def _make(
    op: str, data: np.ndarray, vjps: Sequence[tuple[Tensor, Callable]], macs: int = 0
) -> Tensor:
    """Finalize an op: finite-check, record on the active tape, then count its MACs and params.

    The tape keeps the grad cell and vjp of each input that requires grad
    now; the other vjps, and what they read, are dropped. Each op binds
    what its vjps read (arrays, shapes, recipes) to locals, so no vjp holds
    a `Tensor`. An op the tape refuses reports nothing to counting.
    """
    _finite(op, data)
    out = Tensor(data)
    tape = _ACTIVE_TAPE.get()
    if tape is not None:
        kept = tuple((t._cell, vjp) for t, vjp in vjps if t.requires_grad)
        if kept:
            if tape._spent:
                raise TapeError("backward already swept this tape; record on a new Tape")
            out.requires_grad = True
            tape._nodes.append((out._cell, kept))
    if macs:
        counting.add_macs(macs)
    for t, _ in vjps:
        if t.name is not None:
            counting.saw_param(t)
    return out


def _with_recipe(out: Tensor, build: Callable[[], np.ndarray]) -> Tensor:
    """Give `out` a recipe if a tape recorded the op that made it; else none."""
    if out.requires_grad:  # set, on an op's output, only by recording it
        out._recipe = _Recipe(build)
        _ACTIVE_TAPE.get()._recipes.append(weakref.ref(out))
    return out


def _kept(t: Tensor):
    """What to keep to read `t.data`: t's recipe if it has one, else the array."""
    return t.data if t._recipe is None else t._recipe


def _read(kept) -> np.ndarray:
    """The data a `_kept` result stands for: the array, or its recipe's rebuild."""
    return kept if isinstance(kept, np.ndarray) else kept.take()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and broadcasting ops


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    ra, rb = a._recipe, b._recipe
    out = _make(
        "add",
        a.data + b.data,
        [(a, lambda g: _unbroadcast(g, sa)), (b, lambda g: _unbroadcast(g, sb))],
    )
    if ra is None or rb is None:
        return out
    return _with_recipe(out, lambda: np.add(_read(ra), _read(rb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    return _make(
        "sub",
        a.data - b.data,
        [(a, lambda g: _unbroadcast(g, sa)), (b, lambda g: _unbroadcast(-g, sb))],
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    ka, kb = _kept(a), _kept(b)
    sa, sb = a.shape, b.shape
    out = _make(
        "mul",
        a.data * b.data,
        [
            (a, lambda g: _unbroadcast(g * _read(kb), sa)),
            (b, lambda g: _unbroadcast(g * _read(ka), sb)),
        ],
    )
    return _with_recipe(out, lambda: _read(ka) * _read(kb))


def div(a: Tensor, b: Tensor) -> Tensor:
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
    ra = a._recipe
    # on a tie np.maximum returns its second operand, so -0.0 gives 0.0 as
    # np.where(mask, x, 0.0) did; a NaN passes on, and the finite check raises
    out = _make("relu", np.maximum(a.data, 0.0), [(a, lambda g: g * mask)])
    if ra is None:
        return out
    return _with_recipe(out, lambda: np.maximum(_read(ra), 0.0))


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


def tmean(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """The mean over `axes`, or over every element when `axes` is None."""
    total = tsum(a, axes)
    return scale(total, total.size / a.size)  # 1/count, rounded once


# ---------------------------------------------------------------------------
# shape and layout ops


def concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ValueError("concat: no tensors to join")
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
    if not -a.ndim <= axis < a.ndim:
        raise ValueError(f"narrow: axis {axis} out of range for ndim {a.ndim}")
    if start < 0 or length < 0 or start + length > a.shape[axis]:
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
    if a.ndim < 2:
        raise ValueError(f"pad2d: need at least 2 axes, got {a.shape}")
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
    if H + 2 * padding < kh or W + 2 * padding < kw:
        raise ValueError(
            f"conv2d: no output pixel for input {H}x{W}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}: the kernel is larger than the padded input"
        )
    if (H + 2 * padding - kh) % stride or (W + 2 * padding - kw) % stride:
        raise ValueError(
            f"conv2d: non-integer output extent for input {H}x{W}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    Hp = (H + 2 * padding - kh) // stride + 1
    Wp = (W + 2 * padding - kw) // stride + 1

    macs = N * Cout * Hp * Wp * Cin * kh * kw
    # Fewer outputs than inputs (the one-channel FGU logit conv): contract
    # the channels first. With Cout >= Cin that buffer is no smaller than the
    # im2col, and the d->d convs measured slower and with a higher peak RSS
    # on the channel-first path.
    if stride == 1 and kh * kw > 1 and Cout < Cin:
        return _conv2d_channel_first(x, weight, bias, padding, Hp, Wp, macs)

    taps = [(i, j) for i in range(kh) for j in range(kw)]
    pointwise = kh == kw == 1 and stride == 1 and padding == 0
    K, P = Cin * kh * kw, Hp * Wp
    kx, wd = _kept(x), weight.data
    wmat = wd.reshape(Cout, K)
    rows, chans = _conv_blocks(Cout, Cin, kh * kw, Hp, Wp)

    def im2col(xd, r0, r1, c0, c1):  # [N, (c1-c0)*kh*kw, (r1-r0)*Wp]
        return _im2col(xd[:, c0:c1], kh, kw, stride, padding, r0, r1, Wp)

    if pointwise:  # x itself is the im2col; a view when x is contiguous
        out = np.matmul(wmat, x.data.reshape(N, Cin, P)).reshape(N, Cout, Hp, Wp)
    else:  # each block's GEMM writes its rows of the NCHW output
        out = np.empty((N, Cout, Hp, Wp), dtype=np.float64)
        for r0, r1 in _blocks(Hp, rows):
            dst = out[:, :, r0:r1].reshape(N, Cout, (r1 - r0) * Wp)  # a view
            np.matmul(wmat, im2col(x.data, r0, r1, 0, Cin), out=dst)
    out += bias.data[:, None, None]

    # Neither vjp reads a buffer kept from the forward: the weight vjp keeps
    # x's data, or its recipe, and rebuilds the im2col buffer from it, and
    # the input vjp holds one tap's [N, Cin, Hp, Wp] product at a time. The
    # weight vjp runs first, before the input's grad is live.
    def vjp_x(g):
        g = g.reshape(N, Cout, P)
        if pointwise:
            gx = np.empty((N, Cin, H, W), dtype=np.float64)
            np.matmul(wmat.T, g, out=gx.reshape(N, Cin, P))
            return gx
        gxp = np.zeros((N, Cin, H + 2 * padding, W + 2 * padding), dtype=np.float64)
        for i, j in taps:
            tap = gxp[:, :, i : i + stride * Hp : stride, j : j + stride * Wp : stride]
            tap += np.matmul(wd[:, :, i, j].T, g).reshape(N, Cin, Hp, Wp)
        if padding:
            return gxp[:, :, padding : padding + H, padding : padding + W]
        return gxp

    def vjp_w(g):
        g = g.reshape(N, Cout, P)
        xd = _read(kx)
        gwt = np.empty(wd.shape)  # owned, so the leaf keeps it without a copy
        # [N, Cout, K]; one sample's GEMM writes the weight grad itself
        gw = gwt.reshape(1, Cout, K) if N == 1 else np.empty((N, Cout, K), dtype=np.float64)
        if pointwise:
            np.matmul(g, xd.reshape(N, Cin, P).transpose(0, 2, 1), out=gw)
        else:  # each channel block's GEMM writes its columns of gw
            for c0, c1 in _blocks(Cin, chans):  # a block's buffer is freed before the next
                cols = im2col(xd, 0, Hp, c0, c1).transpose(0, 2, 1)
                np.matmul(g, cols, out=gw[:, :, c0 * kh * kw : c1 * kh * kw])
                del cols
        if N > 1:
            np.sum(gw, axis=0, out=gwt.reshape(Cout, K))
        return gwt

    return _make(
        "conv2d",
        out,
        [(weight, vjp_w), (x, vjp_x), (bias, lambda g: g.sum(axis=(0, 2, 3)))],
        macs,
    )


#: The least number of output pixels (per sample) in one forward im2col
#: block. None of these three constants is a knob: the bits rest on them.
_BLOCK_PIXELS = 1024

#: Each block spans a multiple of this many GEMM rows (output pixels in the
#: forward, weight columns in `vjp_w`).
_GEMM_TILE = 16

#: A conv with fewer weights than this runs as one block.
_BLOCK_MIN_WEIGHTS = 4096


def _conv_blocks(Cout: int, Cin: int, taps: int, Hp: int, Wp: int) -> tuple[int, int]:
    """Output rows per forward im2col block, and input channels per `vjp_w` block.

    A forward block is the least power of two of rows that holds
    `_BLOCK_PIXELS` output pixels, a multiple of `_GEMM_TILE`; the last
    block takes the remainder. A `vjp_w` block is the greatest power of two
    of channels whose buffer is no bigger than one forward block's, but at
    least the least one whose `channels * taps` is a multiple of
    `_GEMM_TILE`, and no more than divides Cin; where no such block divides
    Cin, `vjp_w` is one block. A map one forward block covers, or a conv
    with fewer than `_BLOCK_MIN_WEIGHTS` weights, is one block of each.

    Why: the bits of a GEMM output element are the same in a block as in
    the whole GEMM only while the BLAS forms it with the same kernel. On the
    OpenBLAS measured here (SkylakeX kernels), blocks of 67 pixels, of 28
    channels at 3x3 (252 weight columns), a small last block, or a last
    channel block longer than the others each moved the last bits of some
    elements; blocks under this rule kept them on every shape tried.
    """
    rows = 1
    while rows * Wp < _BLOCK_PIXELS or rows * Wp % _GEMM_TILE:
        rows *= 2
    if rows >= Hp or Cout * Cin * taps < _BLOCK_MIN_WEIGHTS:
        return Hp, Cin
    chans = 1
    while chans * taps % _GEMM_TILE or 2 * chans * Hp <= Cin * rows:
        chans *= 2
    chans = min(chans, Cin & -Cin)  # the greatest power of two that divides Cin
    return rows, Cin if chans * taps % _GEMM_TILE else chans


def _blocks(n: int, step: int):
    """The [start, stop) blocks of `step` that cover range(n); the last one takes the remainder."""
    starts = list(range(0, max(n - step, 0) + 1, step))
    return zip(starts, starts[1:] + [n])


def _im2col(x, kh, kw, stride, padding, r0, r1, Wp) -> np.ndarray:
    """[N, C*kh*kw, (r1-r0)*Wp]: the pixels each kernel tap reads for output rows r0:r1.

    The input rows the block reads are laid in a zero-padded slab (a view
    of x when padding is 0); tap (i, j) of output pixel (y, x) reads slab
    pixel (y*stride + i, x*stride + j), so one copy of a read-only
    windowed view of the slab gathers every tap.
    """
    N, C, H, W = x.shape
    R = r1 - r0
    top = r0 * stride - padding  # the x row the slab's first row stands for
    rows = (R - 1) * stride + kh
    if padding:
        slab = np.zeros((N, C, rows, W + 2 * padding), dtype=np.float64)
        lo, hi = max(top, 0), min(top + rows, H)
        if lo < hi:
            slab[:, :, lo - top : hi - top, padding : padding + W] = x[:, :, lo:hi]
    else:
        slab = x[:, :, top : top + rows]
    sn, sc, sh, sw = slab.strides
    taps = np.lib.stride_tricks.as_strided(
        slab,
        (N, C, kh, kw, R, Wp),
        (sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return taps.copy().reshape(N, C * kh * kw, R * Wp)


def _conv2d_channel_first(x, weight, bias, padding, Hp, Wp, macs) -> Tensor:
    """Stride-1 conv that contracts the channels before the taps.

    Z = W . x holds one [H, W] map per (output channel, tap); the output
    sums each tap's window of the zero-padded Z. For Cout < Cin this buffer
    is smaller than the [Cin, kh, kw] im2col, and both vjps work on the
    matching [Cout, kh, kw] scatter of the output grad, so no buffer scales
    with Cin*kh*kw. A tap that reads padding adds +0.0 to a sum that starts
    at +0.0 and so is never -0.0, which moves no bit.
    """
    N, Cin, H, W = x.shape
    Cout, _, kh, kw = weight.shape
    K = Cout * kh * kw
    kx = _kept(x)
    wk = weight.data.transpose(0, 2, 3, 1).reshape(K, Cin)  # rows ordered (o, i, j)

    z = np.matmul(wk, x.data.reshape(N, Cin, H * W)).reshape(N, Cout, kh, kw, H, W)
    zp = np.zeros((N, Cout, kh, kw, H + 2 * padding, W + 2 * padding), dtype=np.float64)
    zp[..., padding : padding + H, padding : padding + W] = z
    out = np.zeros((N, Cout, Hp, Wp), dtype=np.float64)
    for i, j in np.ndindex(kh, kw):  # tap (i, j) of output pixel (y, x) reads zp pixel (y + i, x + j)
        out += zp[:, :, i, j, i : i + Hp, j : j + Wp]
    out += bias.data[None, :, None, None]

    def scatter(g):  # [N, K, H*W]: each tap's output grad at the input pixel it read
        # tap (i, j) reads input pixel (y, x) for the output at gp pixel
        # (y + a - i, x + b - j); gp pads g by kh-1 and kw-1, so none is outside it
        a, b = padding + kh - 1, padding + kw - 1
        gp = np.zeros((N, Cout, Hp + 2 * kh - 2, Wp + 2 * kw - 2), dtype=np.float64)
        gp[:, :, kh - 1 : kh - 1 + Hp, kw - 1 : kw - 1 + Wp] = g
        gz = np.empty((N, Cout, kh, kw, H, W), dtype=np.float64)
        for i, j in np.ndindex(kh, kw):
            gz[:, :, i, j] = gp[:, :, a - i : a - i + H, b - j : b - j + W]
        return gz.reshape(N, K, H * W)

    def vjp_x(g):
        gx = np.empty((N, Cin, H, W), dtype=np.float64)
        np.matmul(wk.T, scatter(g), out=gx.reshape(N, Cin, H * W))
        return gx

    def vjp_w(g):
        gw = np.tensordot(scatter(g), _read(kx).reshape(N, Cin, H * W), axes=([0, 2], [0, 2]))
        return gw.reshape(Cout, kh, kw, Cin).transpose(0, 3, 1, 2)

    return _make(
        "conv2d",
        out,
        [(weight, vjp_w), (x, vjp_x), (bias, lambda g: g.sum(axis=(0, 2, 3)))],
        macs,
    )


def bilinear_upsample_x2(x: Tensor) -> Tensor:
    """Double the trailing two axes by bilinear interpolation.

    Alignment is half-pixel centers (align-corners OFF): this is the one
    interpolation convention used everywhere in the package, so any oracle
    must use the same formula. Rows are interpolated first, then columns.
    """
    if x.ndim < 2:
        raise ValueError(f"bilinear_upsample_x2: need at least 2 axes, got {x.shape}")
    kx = _kept(x)
    out = _make(
        "bilinear_upsample_x2",
        _up2(_up2(x.data, -2), -1),
        [(x, lambda g: _up2_adjoint(_up2_adjoint(g, -1), -2))],
    )
    return _with_recipe(out, lambda: _up2(_up2(_read(kx), -2), -1))


def _up2(a: np.ndarray, axis: int) -> np.ndarray:
    """The x2 half-pixel upsample along axis -2 or -1 (extent n -> 2n), in flat spans.

    Output o samples input coordinate (o + 0.5)/2 - 0.5: output 2k is
    1/4 a[k-1] + 3/4 a[k] and output 2k+1 is 3/4 a[k] + 1/4 a[k+1], with
    a[-1] clamped to a[0] and a[n] to a[n-1]. Each output is one sum of the
    same two products the index-gather formula forms (a two-term IEEE sum
    does not depend on the order of its terms), so the result is bitwise
    that formula's.

    The lines along `axis` are laid end to end, so each shifted sum is one
    pass over a block of whole lines (`_line_blocks`); where the shift
    crosses from one line into the next (the clamped taps k = 0 and
    k = n-1) the output is written again afterwards from the clamped
    operands.
    """
    n = a.shape[axis]
    shape = list(a.shape)
    shape[axis] *= 2
    if not a.size:
        return np.empty(shape)
    unit = a.shape[a.ndim + axis + 1 :]  # (W,) along the rows, () along the columns
    lines = a.reshape((-1,) + unit)  # line l's element k is lines[l*n + k]; a copy if a is strided
    out = np.empty((lines.shape[0], 2) + unit, dtype=np.float64)
    for r0, r1 in _line_blocks(lines, n):
        even, odd = out[r0:r1, 0], out[r0:r1, 1]
        block = lines[r0:r1]
        three, quarter = block * 0.75, block * 0.25
        np.add(three[1:], quarter[:-1], out=even[1:])  # a[k-1]
        np.add(three[:-1], quarter[1:], out=odd[:-1])  # a[k+1]
        np.add(three[::n], quarter[::n], out=even[::n])  # a[-1] clamps to a[0]
        np.add(three[n - 1 :: n], quarter[n - 1 :: n], out=odd[n - 1 :: n])  # a[n] clamps to a[n-1]
    return out.reshape(shape)


def _up2_adjoint(g: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of the x2 half-pixel upsample along axis -2 or -1 (extent 2n -> n).

    Output 2k reads 1/4 x[k-1] + 3/4 x[k] and output 2k+1 reads
    3/4 x[k] + 1/4 x[k+1], so input k collects g[2k-1], g[2k], g[2k+1] and
    g[2k+2] with weights [1/4, 3/4, 3/4, 1/4], summed in that order after
    the 3/4 pair. The forward clamps x[-1] to x[0] and x[n] to x[n-1], so
    the edge inputs also collect, last, the 1/4 share of g[0] and of
    g[2n-1]. As in `_up2` the shifted sums run over blocks of whole lines
    laid end to end, and the edge inputs are then written again from their
    own terms.
    """
    n = g.shape[axis] // 2
    shape = list(g.shape)
    shape[axis] = n
    if not g.size:
        return np.empty(shape)
    unit = g.shape[g.ndim + axis + 1 :]
    pairs = g.reshape((-1, 2) + unit)  # [L*n, 2, *unit], as in _up2
    gx = np.empty((pairs.shape[0],) + unit, dtype=np.float64)
    for r0, r1 in _line_blocks(gx, n):
        even, odd, dst = pairs[r0:r1, 0], pairs[r0:r1, 1], gx[r0:r1]
        np.add(even, odd, out=dst)
        dst *= 0.75
        quarter = odd * 0.25
        if n == 1:  # every input is both edges: 3/4 (g[0] + g[1]) + g[0]/4 + g[1]/4
            dst += even * 0.25
            dst += quarter
            continue
        dst[1:] += quarter[:-1]  # g[2k-1]
        np.multiply(even, 0.25, out=quarter)
        dst[:-1] += quarter[1:]  # g[2k+2]
        first, last = slice(None, None, n), slice(n - 1, None, n)
        dst[first] = (even[first] + odd[first]) * 0.75 + quarter[1::n] + quarter[first]
        dst[last] = (even[last] + odd[last]) * 0.75 + odd[n - 2 :: n] * 0.25 + odd[last] * 0.25
    return gx.reshape(shape)


#: Input elements per block of the flat-pass upsample and its adjoint: a
#: block's temporaries stay in a core's cache between the passes over it,
#: and the calls a block costs are few against its passes. A block is made
#: of whole lines; the last one takes the remainder.
_PASS_BLOCK = 1 << 15


def _line_blocks(lines: np.ndarray, n: int):
    """The [start, stop) blocks of `lines` ([L*n, ...]) of whole lines, `_PASS_BLOCK` elements or so."""
    per_line = lines.size // len(lines) * n
    return _blocks(len(lines), n * max(1, _PASS_BLOCK // per_line))


def maxpool2d(x: Tensor) -> Tensor:
    """The 2x2, stride-2 maximum over the trailing two axes of an NCHW tensor.

    The forward folds np.maximum over the four strided window views into
    a copy of the first, so it allocates nothing but the output, whatever
    the input's strides. Backward routes the whole gradient to the window
    argmax: it re-derives, from x and the output, the first element in
    row-major window order that equals the maximum, so ties go to that
    element and backward is deterministic.
    """
    if x.ndim != 4:
        raise ValueError(f"maxpool2d: input must be 4-D [N,C,H,W], got {x.shape}")
    H, W = x.shape[2:]
    if H < 2 or W < 2 or H % 2 or W % 2:
        raise ValueError(f"maxpool2d: extent {H}x{W} not divisible into 2x2 windows")
    taps = ((0, 0), (0, 1), (1, 0), (1, 1))

    def window(a, i, j):  # the element tap (i, j) of every window
        return a[:, :, i::2, j::2]

    xd = x.data
    # on a tie np.maximum returns its second operand, so the earlier tap's
    # value is kept (its sign too, for a -0.0/0.0 tie)
    out = window(xd, 0, 0).copy()
    for i, j in taps[1:]:
        np.maximum(window(xd, i, j), out, out=out)

    kx = _kept(x)

    def vjp(g):
        xd = _read(kx)
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
        "global_avg_pool", out, [(x, lambda g: np.broadcast_to(g * inv, shape))]
    )


def softmax(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Exp-normalize jointly over `axes`, with max-subtraction for stability."""
    if not axes:
        raise ValueError("softmax: empty axis set")
    shift = Tensor(x.data.max(axis=axes, keepdims=True))  # constant; softmax is shift-invariant
    e = exp(sub(x, shift))
    return div(e, tsum(e, axes, keepdims=True))


#: variance floor of `channel_norm`
NORM_EPS = 1e-5


def channel_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-channel standardization over (batch, spatial), then gamma*x + beta.

    Batch-statistics (training-mode) semantics only; gradients flow through
    the mean and the biased variance.
    """
    if x.ndim != 4:
        raise ValueError(f"channel_norm: input must be 4-D [N,C,H,W], got {x.shape}")
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
    # so the forward is bitwise what it was; it works in two buffers, d
    # (which becomes xh) and d * d (which becomes the output)
    mu = x.data.sum(axis=axes, keepdims=True) * inv
    xh = x.data - mu
    out = xh * xh
    var = out.sum(axis=axes, keepdims=True) * inv
    den = np.sqrt(var + NORM_EPS)
    xh /= den
    g4, b4 = gamma.data.reshape(1, C, 1, 1), beta.data.reshape(1, C, 1, 1)
    np.multiply(xh, g4, out=out)
    out += b4

    def recipe():  # the output from the kept xh, by the same two calls
        y = xh * g4
        y += b4
        return y

    # Neither vjp reads x: its data is not kept.
    def vjp_x(g):
        # gx = (gh - mean(gh) - xh * mean(gh * xh)) / den with gh = g * gamma;
        # gamma is per channel, so it factors out of both means
        gx = xh * (_channel_dot(g, xh) * inv)
        gx -= g
        gx += g.sum(axis=axes, keepdims=True) * inv
        gx *= -(g4 / den)
        return gx

    out = _make(
        "channel_norm",
        out,
        [
            (x, vjp_x),
            (gamma, lambda g: _channel_dot(g, xh).reshape(C)),
            (beta, lambda g: g.sum(axis=axes)),
        ],
    )
    return _with_recipe(out, recipe)


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel sum of a * b over (batch, spatial) for [N, C, H, W] arrays, as [1, C, 1, 1].

    One dot product per (sample, channel) pair: no a * b array is formed.
    """
    N, C, H, W = a.shape
    dots = np.matmul(a.reshape(N, C, 1, H * W), b.reshape(N, C, H * W, 1))  # [N, C, 1, 1]
    return dots.sum(axis=0, keepdims=True)
