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
from tsadkit.detectors import ml, statistical
from tsadkit.detectors.ml import LofModel
from tsadkit.detectors.neural import TrainSpec, _forward, dense_net, net_train
from tsadkit.errors import ConstantSeries, PeriodTooLong, SeriesTooShort

from conftest import bytes_dict_duplicates, series
from test_ml import frozen_gbt_best_split, frozen_gbt_fit, same_bytes
from test_neural import reference_train, same_bits
from test_statistical import frozen_holtwinters_fit, smoothing_bits

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


@FIXED
@given(
    period=st.integers(min_value=2, max_value=12),
    cycles=st.integers(min_value=2, max_value=12),
    amplitude=st.floats(min_value=0.0, max_value=10.0),
    slope=st.floats(min_value=-0.5, max_value=0.5),
    noise=st.floats(min_value=0.0, max_value=2.0),
    fixed=st.sampled_from([{}, {"alpha": 0.3}, {"beta": 0.1, "gamma": 0.6}]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_memoized_holtwinters_fit_equals_the_nine_sweep_fit(
    period, cycles, amplitude, slope, noise, fixed, seed
):
    """Skipping the sweeps the coordinate descent repeats leaves every
    field of the fit bit for bit as the fit that runs all of them, and
    the fit never runs more sweeps than that one."""
    rng = np.random.default_rng(seed)
    t = np.arange(period * cycles)
    values = amplitude * np.sin(2 * np.pi * t / period) + slope * t + rng.normal(0.0, noise, t.size)
    train = series(values)
    with mock.patch.object(statistical, "_hw_sweep", wraps=statistical._hw_sweep) as sweep:
        fit = statistical.holtwinters_fit(train, period, **fixed)
    assert sweep.call_count <= 3 * (3 - len(fixed))
    assert smoothing_bits(fit) == smoothing_bits(frozen_holtwinters_fit(train, period, **fixed))


@FIXED
@given(
    rows=st.integers(min_value=2, max_value=60),
    width=st.integers(min_value=1, max_value=8),
    tied=st.booleans(),
    constant_column=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(rows=2, width=1, tied=False, constant_column=False, seed=0)
@example(rows=40, width=6, tied=True, constant_column=True, seed=0)
def test_rank_sorted_split_search_equals_the_membership_compress(
    rows, width, tied, constant_column, seed
):
    """For a random ascending row subset of every size from 2 to N, the
    search over the node's sorted ranks finds the split that compressing
    ``order`` by membership finds, after the gather each boosting round
    makes."""
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.0, rows + width)
    if tied:
        values = np.round(values, 1)
    windows = frame(series(values), width)[0].copy()
    if constant_column:
        windows[:, rng.integers(width)] = 0.3
    order = np.argsort(windows.T, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(windows.T, order, axis=1)
    cols = ml._PresortedColumns(windows)
    g = rng.normal(0.0, 1.0, rows)
    g.take(cols.order, out=cols.g_sorted)
    for n in range(2, rows + 1):
        idx = np.sort(rng.choice(rows, n, replace=False))
        got = ml._gbt_best_split(cols, g, idx)
        assert got == frozen_gbt_best_split(order, sorted_vals, g, idx), n


def fit_searches(
    windows: np.ndarray, targets: np.ndarray, max_depth: int, n_estimators: int
) -> list:
    """``(rows, inherited)`` of every split search ``gbt_fit`` makes, in
    growth order, after checking that each one returns exactly
    ``frozen_gbt_best_split`` for its rows and that the model equals
    ``frozen_gbt_fit``'s byte for byte."""
    order = np.argsort(windows.T, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(windows.T, order, axis=1)
    search = ml._gbt_best_split
    searches = []

    def checked(cols, g, idx):
        searches.append((idx.size, idx is cols.inherits))
        got = search(cols, g, idx)
        assert got == frozen_gbt_best_split(order, sorted_vals, g, idx), searches
        return got

    train = (windows, targets)
    kwargs = {"n_estimators": n_estimators, "max_depth": max_depth, "learning_rate": 0.1}
    with mock.patch.object(ml, "_gbt_best_split", checked):
        model = ml.gbt_fit(train, **kwargs)
    frozen = frozen_gbt_fit(train, **kwargs)
    assert np.array(model.loss_history).tobytes() == np.array(frozen.loss_history).tobytes()
    assert model.base_score == frozen.base_score
    for tree, expected in zip(model.trees, frozen.trees, strict=True):
        assert tree.depth == expected.depth
        for name in ("feature", "threshold", "left", "right", "value"):
            assert same_bytes(getattr(tree, name), getattr(expected, name)), name
    return searches


@FIXED
@given(
    rows=st.integers(min_value=2, max_value=60),
    width=st.integers(min_value=1, max_value=8),
    tied=st.booleans(),
    constant_column=st.booleans(),
    max_depth=st.integers(min_value=1, max_value=5),
    n_estimators=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(rows=2, width=1, tied=False, constant_column=False, max_depth=1, n_estimators=1, seed=0)
@example(rows=60, width=8, tied=True, constant_column=True, max_depth=5, n_estimators=6, seed=0)
def test_every_node_a_fit_searches_matches_the_frozen_search(
    rows, width, tied, constant_column, max_depth, n_estimators, seed
):
    """Whichever way a node finds its presorted positions (the root's
    whole columns, the inherited mask, its sorted ranks), its search
    returns what the frozen membership compress returns for its rows, and
    the fit grows the frozen fit's ensemble."""
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.0, rows + width)
    if tied:
        values = np.round(values, 1)
    windows, targets = frame(series(values), width)
    windows = windows.copy()
    if constant_column:
        windows[:, rng.integers(width)] = 0.3
    fit_searches(windows, targets, max_depth, n_estimators)


def outlier_frame(*lifts: tuple[slice, float]) -> tuple[np.ndarray, np.ndarray]:
    """24 rows: column 0 counts up, column 1 is noise, and each ``(rows,
    lift)`` raises the targets of those rows of column 0 by ``lift``, so
    the root peels them off."""
    rng = np.random.default_rng(5)
    windows = np.column_stack((np.arange(24.0), rng.normal(0.0, 1.0, 24)))
    targets = rng.normal(0.0, 0.3, 24)
    for rows, lift in lifts:
        targets[rows] += lift
    return windows, targets


def adjacent_float_frame() -> tuple[np.ndarray, np.ndarray]:
    """Column 0 holds 1.0 and the next float up: their midpoint rounds to
    1.0, so the row at 1.0, which the search counts on the left, goes
    right."""
    windows, targets = outlier_frame((slice(0, 2), 10.0))
    windows[2, 0] = np.nextafter(1.0, 2.0)
    return windows, targets


@pytest.mark.parametrize(
    "frame_of, max_depth, first_tree",
    [
        # The root's larger child is its left one, searched next.
        (lambda: outlier_frame((slice(21, None), 10.0)), 3, [(24, False), (21, True)]),
        # The larger child is the right one: the smaller left sibling's
        # subtree grows first and must leave the mask alone.
        (
            lambda: outlier_frame((slice(0, 2), 10.0), (slice(2, 4), 40.0)),
            3,
            [(24, False), (4, False), (2, False), (2, False), (20, True)],
        ),
        # Equal siblings: the left one inherits, the right one sorts.
        (lambda: outlier_frame((slice(12, None), 10.0)), 3, [(24, False), (12, True)]),
        # The inheriting left child's children sit at the depth cap, so it
        # clears nothing; its sibling's subtree then sorts its ranks.
        (lambda: outlier_frame((slice(21, None), 10.0)), 2, [(24, False), (21, True), (3, False)]),
        # The root's split sends the row at 1.0 right, where the search
        # position counted it left: the larger child holds 23 rows, not 22.
        (adjacent_float_frame, 3, [(24, False), (23, True)]),
    ],
    ids=[
        "larger-left", "larger-right", "equal-siblings", "larger-child-at-depth-cap",
        "midpoint-rounds-down",
    ],
)
def test_inheriting_children_search_as_the_frozen_oracle(frame_of, max_depth, first_tree):
    """The first tree's first searches have the listed ``(rows,
    inherited)``, and every search and the model match the frozen ones."""
    searches = fit_searches(*frame_of(), max_depth, n_estimators=5)
    assert searches[: len(first_tree)] == first_tree
