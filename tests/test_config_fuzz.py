"""Seeded config fuzz: every config NeckConfig accepts runs every invariant.

Each field is drawn from a small range that also holds values the
forwards cannot run (a width not divisible by 4r, a reference level out of
range, a 1x1 top level at batch 1, ...). An accepted config must pass all
invariants; a rejected one must name each of its problems. A second set
of draws gives one field a value of the wrong type, or r = 0; each must be
rejected with that field named.
"""

import random
import re

import pytest

from rcnet.checks import INVARIANT_CHECKS, run_invariants
from rcnet.config import NeckConfig

FUZZ_SEED = 20211
FUZZ_COUNT = 48


def _raw_config(rng: random.Random) -> dict:
    l_min = rng.choice((2, 3))
    l_max = rng.choice((6, 7))
    to_five = 5 - l_min + 1
    # a case draws up to one width per level and keeps those for levels
    # l_min..5; the surplus draws keep every later draw, the seed included,
    # and so every test id, as it was pinned
    drawn = rng.choice((to_five, l_max - l_min + 1))
    div = 2 ** (l_max - l_min)
    return dict(
        l_min=l_min,
        l_max=l_max,
        d=rng.choice((4, 8, 12, 16, 24, 32, 48, 64)),
        backbone_channels=tuple([rng.randint(2, 12) for _ in range(drawn)][:to_five]),
        r=rng.choice((1, 2, 4)),
        k=rng.randint(l_min - 1, l_max),
        batch=rng.choice((1, 1, 2)),
        base_resolution=(div * rng.choice((1, 1, 2, 3)), div * rng.choice((1, 2, 3))),
        seed=rng.randrange(2**64),
    )


def _top_values(raw: dict) -> int:
    """batch*h*w at the top level, the smallest map any channel_norm sees."""
    h, w = (e // 2 ** (raw["l_max"] - raw["l_min"]) for e in raw["base_resolution"])
    return raw["batch"] * h * w


def _expected_problems(raw: dict) -> list[str]:
    """Fragments the rejection must name, restated from the forwards' needs."""
    out = []
    if raw["l_max"] - raw["l_min"] + 1 < 5:
        out.append("at least 5 levels")
    if raw["d"] % (4 * raw["r"]):
        out.append("divisible by 4*r")
    if not raw["l_min"] <= raw["k"] <= raw["l_max"]:
        out.append(f"k={raw['k']}")
    if _top_values(raw) < 2:
        out.append("values per channel")
    return out


def _mistyped_config(rng: random.Random) -> tuple[dict, str]:
    """A drawn config with one field of the wrong type (a float, a bool, a
    string, an int in place of a list), or r = 0; and that field's name."""
    raw = _raw_config(rng)
    field = rng.choice(sorted(raw))
    value = raw[field]
    if isinstance(value, tuple):
        choices = [value[:-1] + (float(value[-1]),), value[0], (True,) + value[1:]]
    else:
        choices = [float(value), True, str(value)] + ([0] if field == "r" else [])
    raw[field] = rng.choice(choices)
    return raw, field


CASES = [_raw_config(random.Random(FUZZ_SEED * 1000 + i)) for i in range(FUZZ_COUNT)]
MISTYPED = [_mistyped_config(random.Random(FUZZ_SEED * 1000 + FUZZ_COUNT + i)) for i in range(12)]


def test_fuzz_covers_both_outcomes():
    accepted = [raw for raw in CASES if not _expected_problems(raw)]
    assert len(accepted) >= 24
    # both sides of the norm bound: rejected at one value, run at two
    assert any(_expected_problems(raw) == ["values per channel"] for raw in CASES)
    assert any(_top_values(raw) == 2 for raw in accepted)


@pytest.mark.parametrize("raw", CASES, ids=lambda raw: f"s{raw['seed'] % 1000}")
def test_accepted_configs_pass_every_invariant(raw):
    problems = _expected_problems(raw)
    if problems:
        with pytest.raises(ValueError) as err:
            NeckConfig(**raw)
        for fragment in problems:
            assert fragment in str(err.value)
        return
    cfg = NeckConfig(**raw)
    results = run_invariants(cfg)
    assert len(results) == len(INVARIANT_CHECKS) == 20
    failed = {r.name: r.measured for r in results if not r.passed}
    assert not failed, f"{cfg.to_dict()}: {failed}"


@pytest.mark.parametrize("raw, field", MISTYPED, ids=[f"{i}-{f}" for i, (_, f) in enumerate(MISTYPED)])
def test_mistyped_fields_are_named(raw, field):
    # the type is checked before any arithmetic, so the field is named
    # instead of a TypeError or ZeroDivisionError escaping later
    with pytest.raises(ValueError) as err:
        NeckConfig(**raw)
    assert re.search(rf"[:;] {field}=[^;]* must be", str(err.value)), str(err.value)
