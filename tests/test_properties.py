"""Property-based checks over generated inputs.

Each property runs a derandomized, fixed number of examples, so the suite's
time and outcome do not vary from run to run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from tsadkit import SplitSpec, split
from tsadkit.errors import SeriesTooShort

from conftest import series

FIXED = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@FIXED
@given(
    train_ratio=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    n=st.integers(min_value=10, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(train_ratio=0.05, n=10, seed=0)
@example(train_ratio=0.3, n=10, seed=0)
def test_every_accepted_split_partitions_or_refuses(train_ratio, n, seed):
    """Non-empty, adjacent train and test that rebuild the series and its
    labels exactly, or SeriesTooShort when the head holds no point."""
    rng = np.random.default_rng(seed)
    whole = series(rng.normal(0.0, 1.0, n), labels=rng.integers(0, 2, n))
    spec = SplitSpec(train_ratio=train_ratio)
    head = math.floor(train_ratio * n)
    if head < 1:
        with pytest.raises(SeriesTooShort):
            split(whole, spec)
        return
    train, test = split(whole, spec)
    assert len(train) == head and len(test) == n - head > 0
    rebuilt = np.concatenate((train.values, test.values))
    assert rebuilt.tobytes() == whole.values.tobytes()
    assert np.concatenate((train.labels, test.labels)).tobytes() == whole.labels.tobytes()
