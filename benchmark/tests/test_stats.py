import math

import pytest
from rcbench.stats import tail_percentile


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(range(99), 0.9) is None
    assert tail_percentile(range(100), 0.9) == 89
    assert sum(1 for x in range(100) if x > 89) == 10


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_reported_percentile_always_has_ten_beyond(q):
    for n in range(1, 1200):
        samples = [float(i) for i in range(n)]
        value = tail_percentile(samples, q)
        beyond_rule = n - math.ceil(q * n) >= 10
        assert (value is not None) == beyond_rule
        if value is not None:
            assert sum(1 for x in samples if x > value) >= 10
            assert sum(1 for x in samples if x <= value) >= q * n


def test_rejects_percentile_outside_unit_interval():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 50, 1.0)
