"""Property-based checks over generated inputs.

Each property runs a derandomized, fixed number of examples, so the suite's
time and outcome do not vary from run to run.
"""

from __future__ import annotations

import functools
import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from tsadkit import (
    DetectorConfig,
    RunConfig,
    SplitSpec,
    frame,
    get_detector,
    split,
    subsequences,
    with_lookback,
)
from tsadkit import evaluation
from tsadkit.bench import _preprocess
from tsadkit.core import ScoreSeries
from tsadkit.detectors import ml
from tsadkit.detectors.ml import LofModel
from tsadkit.detectors.neural import TrainSpec, _forward, dense_net, net_train
from tsadkit.errors import ConstantSeries, PeriodTooLong, SeriesTooShort

from conftest import bytes_dict_duplicates, series
from test_neural import reference_train, same_bits

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


@FIXED
@given(
    train_ratio=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    n=st.integers(min_value=10, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    standardize=st.booleans(),
    detrend=st.booleans(),
    period=st.one_of(st.none(), st.integers(min_value=1, max_value=120)),
)
@example(train_ratio=0.3, n=200, seed=0, standardize=True, detrend=True, period=50)
@example(train_ratio=0.3, n=100, seed=0, standardize=False, detrend=False, period=30)
@example(train_ratio=0.3, n=100, seed=0, standardize=False, detrend=True, period=29)
def test_preprocessing_keeps_every_test_point_and_label(
    train_ratio, n, seed, standardize, detrend, period
):
    """The test segment holds the last n - head points of the transformed
    series and ``labels[head:]``; the train segment holds what precedes
    them.  Differencing drops points from the head of the train only."""
    rng = np.random.default_rng(seed)
    whole = series(rng.normal(0.0, 1.0, n), labels=rng.integers(0, 2, n))
    config = RunConfig(
        datasets=("SYNTH",),
        detectors=("ar",),
        standardize=standardize,
        detrend=detrend,
        deseasonalize=period is not None,
        period=period,
        split=SplitSpec(train_ratio=train_ratio),
    )
    head = math.floor(train_ratio * n)
    values = whole.values
    expected_error = None
    if head < 1:
        expected_error = SeriesTooShort
    elif standardize and head == 1:
        expected_error = ConstantSeries
    else:
        if standardize:
            values = (values - values[:head].mean()) / values[:head].std()
        if period is not None:
            if n <= period:
                expected_error = PeriodTooLong
            values = values[period:] - values[:-period]
        if detrend and expected_error is None:
            if values.size <= 1:
                expected_error = SeriesTooShort
            values = np.diff(values)
        if expected_error is None and values.size - (n - head) < 1:
            expected_error = PeriodTooLong
    if expected_error is not None:
        with pytest.raises(expected_error):
            _preprocess(config, whole)
        return
    train, test = _preprocess(config, whole)
    assert np.array_equal(test.labels, whole.labels[head:])
    assert test.values.tobytes() == values[head - n :].tobytes()
    assert train.values.tobytes() == values[: head - n].tobytes()


@functools.cache
def fitted_net(name: str):
    """(detector, config, one-epoch net, train) of the mlp or the autoencoder."""
    rng = np.random.default_rng(17)
    train = series(np.sin(np.arange(600) / 6.0) + rng.normal(0.0, 0.3, 600))
    detector = get_detector(name)
    cfg = DetectorConfig(name=name, hyperparameters={"epochs": 1})
    return detector, cfg, detector.fit(train, cfg), train


def unblocked_scores(name: str, net, cfg, train, test) -> tuple[np.ndarray, np.ndarray]:
    """Scores from one forward pass over every test window, as before row
    blocks, with the size of the net output each is computed from.  Frozen
    here as the oracle for blocked scoring."""
    w = cfg.window_width
    if name == "mlp":
        windows, targets = frame(with_lookback(train, test, w), w)
        out = _forward(net, windows)
        return np.abs(out[:, 0] - targets), np.abs(out[:, 0])
    windows = subsequences(with_lookback(train, test, w - 1), w)
    out = _forward(net, windows)
    return np.sqrt(((out - windows) ** 2).sum(axis=1)), np.sqrt((out**2).sum(axis=1))


@FIXED
@given(
    name=st.sampled_from(["mlp", "autoencoder"]),
    blocks=st.integers(min_value=1, max_value=3),
    offset=st.integers(min_value=-2, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(name="mlp", blocks=1, offset=-2, seed=0)
@example(name="autoencoder", blocks=2, offset=1, seed=0)
def test_blocked_net_scores_match_one_pass(name, blocks, offset, seed):
    """Scoring in row blocks agrees with one pass over every window to
    1e-12 of the net output the score is taken from, for test lengths on
    either side of a multiple of the block height.  A block's matrix
    product may round a row differently from the whole product; an mlp
    score subtracts the target from the forecast, so its error scales with
    the forecast, not with the score."""
    detector, cfg, net, train = fitted_net(name)
    height = ml._block_height(max(max(layer.weights.shape) for layer in net.layers))
    n = blocks * height + offset
    rng = np.random.default_rng(seed)
    test = series(np.sin(np.arange(n) / 6.0) + rng.normal(0.0, 0.3, n))
    got = detector.score(net, cfg, train, test)
    want, size = unblocked_scores(name, net, cfg, train, test)
    assert got.shape == want.shape == (n,)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(want, size))


@FIXED
@given(
    widths=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=4),
    data=st.data(),
    batch_size=st.integers(min_value=2, max_value=8),
    full_batches=st.integers(min_value=0, max_value=4),
    epochs=st.integers(min_value=1, max_value=3),
    learning_rate=st.sampled_from([1e-3, 1e-2, 1e-1]),
    reconstruct=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_net_train_matches_per_layer_adam_bit_for_bit(
    widths, data, batch_size, full_batches, epochs, learning_rate, reconstruct, seed
):
    """Training through the per-fit workspaces gives the per-layer oracle's
    histories and parameters bit for bit, on small relu/linear nets of one
    to three layers, with every epoch ending on a short batch.  A
    reconstructing net trains on ``(inputs, inputs)``, the autoencoder's
    single-gather path."""
    if reconstruct:
        widths[-1] = widths[0]
    layers = len(widths) - 1
    activation = st.sampled_from(["relu", "linear"])
    activations = data.draw(st.lists(activation, min_size=layers, max_size=layers))
    short = data.draw(st.integers(min_value=1, max_value=batch_size - 1))
    n = full_batches * batch_size + short
    rng = np.random.default_rng(seed)
    inputs = rng.normal(0.0, 1.0, (n, widths[0]))
    targets = inputs if reconstruct else rng.normal(0.0, 1.0, (n, widths[-1]))
    spec = TrainSpec(batch_size=batch_size, epochs=epochs, learning_rate=learning_rate)
    net, oracle = (dense_net(widths, activations, seed=seed) for _ in range(2))
    assert net_train(net, (inputs, targets), spec) == reference_train(oracle, (inputs, targets), spec)
    assert same_bits(net.params, oracle.params)


# Signed zeros, adjacent floats and the smallest subnormals: few enough
# values that generated windows repeat, and close enough that only exact
# equality tells them apart.
NEAR_VALUES = (
    0.0,
    -0.0,
    1.0,
    math.nextafter(1.0, 2.0),
    math.nextafter(1.0, 0.0),
    -1.0,
    5e-324,
    -5e-324,
)


@FIXED
@given(width=st.integers(min_value=1, max_value=4), data=st.data())
def test_sorted_row_index_finds_the_first_equal_reference_row(width, data):
    """Queries copied from reference rows (some with the signs of their
    zeros flipped) or drawn fresh find the same first reference row as the
    bytes-keyed rule, or none."""
    row = st.lists(st.sampled_from(NEAR_VALUES), min_size=width, max_size=width)
    reference = np.array(data.draw(st.lists(row, min_size=2, max_size=40)))
    copied = st.tuples(st.integers(0, len(reference) - 1), st.booleans())
    queries = []
    for pick in data.draw(st.lists(st.one_of(copied, row), min_size=1, max_size=20)):
        if isinstance(pick, tuple):
            i, flip_zeros = pick
            pick = reference[i]
            if flip_zeros:
                pick = np.where(pick == 0.0, -pick, pick)
        queries.append(pick)
    block = np.array(queries, dtype=np.float64)
    model = LofModel(k_neighbors=1, reference_windows=reference)
    got = model._duplicates(block)
    want = bytes_dict_duplicates(reference, block)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@FIXED
@given(
    n=st.integers(min_value=2, max_value=200),
    width=st.integers(min_value=1, max_value=50),
    forecast=st.booleans(),
)
def test_window_views_are_read_only(n, width, forecast):
    """``subsequences`` and ``frame`` return views of the series values;
    writing into one raises instead of changing the series."""
    values = np.random.default_rng(n).normal(0.0, 1.0, n)
    whole = series(values)
    width = min(width, n - 1)
    windows = frame(whole, width)[0] if forecast else subsequences(whole, width)
    assert np.shares_memory(windows, whole.values)
    with pytest.raises(ValueError, match="read-only"):
        windows[0, 0] = 1.0
    assert whole.values.tobytes() == values.tobytes()


def reference_sweep(values: np.ndarray, labels: np.ndarray) -> tuple:
    """``_sweep`` as it was with one stable descending sort: each cut's
    value is the last of its run of equal scores in the stable order.
    Frozen here as the oracle for the default-sort sweep."""
    order = np.argsort(-values, kind="stable")
    sorted_scores = values[order]
    step_ends = np.append(np.nonzero(np.diff(sorted_scores))[0], values.size - 1)
    tp = np.cumsum(labels[order])[step_ends]
    return sorted_scores[step_ends], tp, step_ends + 1


def sweep_outputs(scores: ScoreSeries, labels: np.ndarray) -> list[bytes]:
    """The bytes of the ROC vertices, thresholds and area and of the best
    F-score; None for metrics the labels leave undefined."""
    positives = int(labels.sum())
    outputs = [None, None, None]
    if 0 < positives < labels.size:
        curve, auc = evaluation.roc_auc(scores, labels)
        points = curve.fpr.tobytes() + curve.tpr.tobytes()
        outputs[:2] = points, curve.thresholds.tobytes() + np.float64(auc).tobytes()
    if positives:
        outputs[2] = np.float64(evaluation.best_f1(scores, labels)).tobytes()
    return outputs


# Tie-heavy draws from NEAR_VALUES (both zeros among them), any finite
# floats (mostly distinct), and one value repeated.
SWEEP_SCORES = st.one_of(
    st.lists(st.sampled_from(NEAR_VALUES), min_size=1, max_size=80),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=80),
    st.builds(lambda value, n: [value] * n, st.sampled_from(NEAR_VALUES), st.integers(1, 80)),
)


@st.composite
def scores_and_labels(draw) -> tuple[np.ndarray, np.ndarray]:
    scores = draw(SWEEP_SCORES)
    labels = draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    return np.array(scores, dtype=np.float64), np.array(labels)


@FIXED
@given(scored=scores_and_labels())
@example(scored=(np.array([0.0]), np.array([1])))
@example(scored=(np.array([-0.0, 0.0, -0.0, 1.0]), np.array([0, 1, 0, 1])))
def test_sweep_matches_the_stable_sort(scored):
    """The sweep's cuts, counts and cut values, the ROC curve and area and
    the best F-score equal the stable-sort sweep's bit for bit, signs of
    zero included, whatever order the default sort leaves ties in."""
    values, labels = scored
    got = evaluation._sweep(values, labels)
    want = reference_sweep(values, labels)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    series = ScoreSeries(values)
    new = sweep_outputs(series, labels)
    with mock.patch.object(evaluation, "_sweep", reference_sweep):
        assert new == sweep_outputs(series, labels)
