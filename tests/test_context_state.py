"""A seeded state machine over the tape and the counting contexts.

Each walk runs random steps: entering a `Tape`, `counting.collect`,
`counting.scope` or `counting.probes` block and leaving it normally or
by a raise inside it; a taped op; a conv that a collection counts; a
probe; and `backward` on a live, a spent or a wrong tape, with a good or
a bad loss. A model predicts each step: it succeeds, or raises its
documented type (`TapeError`; `RuntimeError` for a nested collection).
After every step the context variables hold what the model says is open.
After each walk they are back at their defaults, every swept tape holds
nothing, and each leaf grad, counted row and probe key is the model's.
"""

from __future__ import annotations

import numpy as np
import pytest

from rcnet import counting, tensor
from rcnet.tensor import Tape, TapeError, Tensor, backward, conv2d, mul, tsum

BLOCKS = ("tape", "collect", "scope", "probes")
#: each step and its weight: tapes and ops often enough that most walks sweep a tape
STEPS = {"tape": 3, "collect": 1, "scope": 1, "probes": 1,
         "op": 2, "conv": 1, "probe": 1, "backward": 2, "raise": 1}
WEIGHTS = np.array(list(STEPS.values())) / sum(STEPS.values())


class Boom(Exception):
    """Raised inside a block to leave it by an exception."""


class Model:
    """What the walk has open and recorded, and what it expects to see."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.tape: Tape | None = None  # the tape recording now
        self.tapes: list[Tape] = []
        self.spent: set[int] = set()  # id() of each swept tape
        # each loss made: (loss, the grad it gives w, the tape that recorded it)
        self.losses: list[tuple[Tensor, np.ndarray, Tape | None]] = []
        # the open collection: (report, root, path length when opened), and its expected rows
        self.collection: tuple[counting.CountReport, str, int] | None = None
        self.rows: dict[str, list[int]] = {}  # row -> [params, macs]
        self.seen: set[str] = set()  # the parameters the open collection has counted
        self.path: tuple[str, ...] = ()
        self.sinks: list[tuple[list, int, list]] = []  # open probes blocks: (seen, base, expected)
        self.w = Tensor(np.zeros((2, 3)), requires_grad=True, name="w")
        self.want: np.ndarray | None = None  # w's grad
        self.kernel = Tensor(np.ones((1, 1, 1, 1)), name="kernel")  # needs no grad: never taped
        self.image = Tensor(np.arange(4.0).reshape(1, 1, 2, 2))

    def check_contexts(self):
        assert tensor._ACTIVE_TAPE.get() is self.tape
        active = counting._ACTIVE.get()
        if self.collection is None:
            assert active is None
        else:
            assert active is not None and active.report is self.collection[0]
        assert counting._PATH.get() == self.path
        probes = counting._PROBES.get()
        assert (probes is None) == (not self.sinks)
        assert probes is None or probes[1] == self.sinks[-1][1]

    def row(self) -> list[int]:
        _, root, base = self.collection
        return self.rows.setdefault("/".join((root,) + self.path[base:]), [0, 0])

    def saw(self, param: Tensor):
        """A named parameter counts in the row that first reads it in a collection."""
        if self.collection is not None and param.name not in self.seen:
            self.seen.add(param.name)
            self.row()[0] += param.size


def walk(model: Model, depth: int):
    """Random steps in the innermost open block; may end by raising `Boom`."""
    for _ in range(int(model.rng.integers(0, 6))):
        step = str(model.rng.choice(list(STEPS), p=WEIGHTS))
        if step in BLOCKS:
            if depth < 4:
                enter(model, step, depth)
        elif step == "raise":
            raise Boom
        else:
            {"op": op, "conv": conv, "probe": fire_probe, "backward": sweep}[step](model)
        model.check_contexts()


def enter(model: Model, kind: str, depth: int):
    """Open one block and walk in it; leave it normally or by `Boom`."""
    rng = model.rng
    refused = None
    if kind == "tape":
        if model.tapes and rng.random() < 0.4:  # a tape entered before, maybe swept
            ctx = model.tapes[int(rng.integers(len(model.tapes)))]
        else:
            ctx = Tape()
            model.tapes.append(ctx)
        if model.tape is not None or id(ctx) in model.spent:
            refused = TapeError
    elif kind == "collect":
        report, root = counting.CountReport(), f"root{depth}"
        ctx = counting.collect(report, root)
        if model.collection is not None:
            refused = RuntimeError
    elif kind == "scope":
        name = f"s{int(rng.integers(3))}"
        ctx = counting.scope(name)
    else:
        seen: list = []
        ctx = counting.probes(lambda key, value: seen.append((key, value)))

    if refused is not None:
        with pytest.raises(refused):
            with ctx:
                pytest.fail(f"a {kind} block was entered that must be refused")
        return

    saved = (model.tape, model.collection, model.rows, model.seen, model.path)
    try:
        with ctx:
            if kind == "tape":
                model.tape = ctx
            elif kind == "collect":
                model.collection = (report, root, len(model.path))
                model.rows, model.seen = {}, set()
                model.row()
            elif kind == "scope":
                model.path += (name,)
                if model.collection is not None:
                    model.row()  # an entered scope gets a row even when it costs nothing
            else:
                model.sinks.append((seen, len(model.path), []))
            model.check_contexts()
            walk(model, depth + 1)
    except Boom:
        pass
    finally:
        if kind == "collect":
            assert {k: [r.params, r.macs] for k, r in report.rows.items()} == model.rows
        elif kind == "probes":
            _, _, expected = model.sinks.pop()
            assert seen == expected
        model.tape, model.collection, model.rows, model.seen, model.path = saved
    model.check_contexts()


def op(model: Model):
    """`tsum(w * c)`, or the unsummed product: recorded on a live tape, refused on a swept one."""
    c = model.rng.integers(-3, 4, (2, 3)).astype(np.float64)
    tape = model.tape
    if tape is not None and id(tape) in model.spent:
        with pytest.raises(TapeError):
            mul(model.w, Tensor(c))
        return
    loss = mul(model.w, Tensor(c))
    model.saw(model.w)  # only an op the tape took counts w
    if model.rng.random() < 0.8:
        loss = tsum(loss)
    model.losses.append((loss, c, tape))


def conv(model: Model):
    """A 1x1 conv with no input that needs grad: never taped, counted by an open collection."""
    out = conv2d(model.image, model.kernel, Tensor(np.zeros(1)))
    assert out.data.tobytes() == model.image.data.tobytes() and not out.requires_grad
    if model.collection is not None:
        model.row()[1] += 4
        model.saw(model.kernel)


def fire_probe(model: Model):
    name, value = f"p{int(model.rng.integers(2))}", object()
    counting.probe(name, value)
    if model.sinks:
        _, base, expected = model.sinks[-1]
        expected.append(("/".join(model.path[base:] + (name,)), value))


def sweep(model: Model):
    """`backward` on a picked tape and loss; refused unless the loss is on that unswept tape."""
    rng = model.rng
    if model.losses and rng.random() < 0.9:
        # mostly the latest loss, so that most walks sweep a tape
        pick = -1 if rng.random() < 0.5 else int(rng.integers(len(model.losses)))
        loss, c, on = model.losses[pick]
    else:
        loss, c, on = 3.0, None, None
    tape = model.tapes[int(rng.integers(len(model.tapes)))] if model.tapes else Tape()
    if on is not None and rng.random() < 0.6:  # mostly the tape the loss was recorded on
        tape = on
    elif rng.random() < 0.1:
        tape = "tape"
    args_ok = isinstance(tape, Tape) and isinstance(loss, Tensor) and loss.size == 1
    if not (args_ok and on is tape and id(tape) not in model.spent):
        # a swept tape is named as such, not as one that lacks the loss
        swept = args_ok and id(tape) in model.spent
        with pytest.raises(TapeError, match="already ran" if swept else None):
            backward(tape, loss)
        return
    backward(tape, loss)
    model.spent.add(id(tape))
    model.want = c.copy() if model.want is None else model.want + c
    assert model.w.grad.tobytes() == model.want.tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_random_walks_keep_every_context_consistent(seed):
    model = Model(seed)
    for _ in range(60):
        try:
            walk(model, 0)
        except Boom:
            pass
        model.check_contexts()
    assert tensor._ACTIVE_TAPE.get() is None
    assert counting._ACTIVE.get() is None
    assert counting._PROBES.get() is None
    assert counting._PATH.get() == ()
    for tape in model.tapes:
        if id(tape) in model.spent:
            assert len(tape) == 0 and not tape._recipes
    assert model.spent, "no walk swept a tape"
    grads = model.w.grad
    assert (grads is None) == (model.want is None)
