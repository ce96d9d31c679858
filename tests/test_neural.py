"""Dense-network engine, the window forecaster and the autoencoder."""

from __future__ import annotations

import numpy as np
import pytest

from tsadkit import DetectorConfig, get_detector
from tsadkit.detectors import ml
from tsadkit.detectors.neural import (
    _BETA1,
    _BETA2,
    _EPS,
    DenseLayer,
    DenseNet,
    TrainSpec,
    _build_autoencoder,
    _forward,
    _train_forward,
    _workspace,
    dense_net,
    net_forward,
    net_gradients,
    net_train,
)
from tsadkit.errors import DimensionMismatch, NumericalDivergence

from conftest import long_synth, series, traced_peak


def two_layer_net() -> DenseNet:
    return DenseNet(
        layers=[
            DenseLayer(
                weights=np.array([[1.0, -1.0], [2.0, 0.5]]),
                bias=np.array([0.5, -1.0]),
                activation="relu",
            ),
            DenseLayer(
                weights=np.array([[1.0], [2.0]]),
                bias=np.array([0.25]),
                activation="linear",
            ),
        ]
    )


class TestEngine:
    def test_identity_layer(self):
        net = DenseNet(
            layers=[DenseLayer(weights=np.eye(3), bias=np.zeros(3), activation="linear")]
        )
        assert np.array_equal(net_forward(net, [1.0, -2.0, 3.0]), [1.0, -2.0, 3.0])

    def test_relu_clips_negatives(self):
        net = DenseNet(
            layers=[DenseLayer(weights=np.eye(2), bias=np.zeros(2), activation="relu")]
        )
        assert np.array_equal(net_forward(net, [1.5, -2.0]), [1.5, 0.0])

    def test_hand_forward(self):
        # z1 = (5.5, -1.0) -> relu (5.5, 0) -> 5.5 * 1 + 0 * 2 + 0.25.
        assert net_forward(two_layer_net(), [1.0, 2.0])[0] == 5.75

    def test_input_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            net_forward(two_layer_net(), [1.0, 2.0, 3.0])

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            DenseLayer(weights=np.eye(2), bias=np.zeros(2), activation="tanh")
        with pytest.raises(DimensionMismatch):
            DenseLayer(weights=np.eye(2), bias=np.zeros(3), activation="relu")
        with pytest.raises(DimensionMismatch):
            DenseNet(
                layers=[
                    DenseLayer(weights=np.eye(2), bias=np.zeros(2), activation="relu"),
                    DenseLayer(weights=np.eye(3), bias=np.zeros(3), activation="linear"),
                ]
            )

    def test_initialization_bounds(self):
        net = dense_net([20, 10, 1], ["relu", "linear"], seed=1)
        for layer in net.layers:
            fan_in, fan_out = layer.weights.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(layer.weights) <= bound)
            assert np.array_equal(layer.bias, np.zeros(fan_out))

    def test_activation_count_checked(self):
        with pytest.raises(DimensionMismatch):
            dense_net([4, 3, 1], ["relu"], seed=0)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(3)
        net = dense_net([4, 6, 3, 1], ["relu", "relu", "linear"], seed=5)
        batch = rng.normal(0.0, 1.0, (8, 4))
        targets = rng.normal(0.0, 1.0, (8, 1))
        _, grads = net_gradients(net, batch, targets)
        eps = 1e-6
        for layer, (grad_w, grad_b) in zip(net.layers, grads):
            for param, grad in ((layer.weights, grad_w), (layer.bias, grad_b)):
                flat = param.reshape(-1)
                for pos in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                    original = flat[pos]
                    flat[pos] = original + eps
                    up, _ = net_gradients(net, batch, targets)
                    flat[pos] = original - eps
                    down, _ = net_gradients(net, batch, targets)
                    flat[pos] = original
                    numeric = (up - down) / (2.0 * eps)
                    analytic = grad.reshape(-1)[pos]
                    scale = max(abs(numeric), abs(analytic), 1e-8)
                    assert abs(numeric - analytic) / scale < 1e-5

    def test_learns_linear_map(self):
        rng = np.random.default_rng(7)
        inputs = rng.normal(0.0, 1.0, (200, 3))
        targets = inputs @ np.array([0.5, -1.0, 0.25])
        net = dense_net([3, 16, 1], ["relu", "linear"], seed=2)
        history = net_train(
            net, (inputs, targets), TrainSpec(epochs=200, learning_rate=3e-3)
        )
        assert history[-1] < 1e-3
        assert history[-1] < history[0]

    def test_training_is_reproducible(self):
        rng = np.random.default_rng(8)
        inputs = rng.normal(0.0, 1.0, (64, 4))
        targets = rng.normal(0.0, 1.0, 64)
        runs = []
        for _ in range(2):
            net = dense_net([4, 8, 1], ["relu", "linear"], seed=11)
            history = net_train(net, (inputs, targets), TrainSpec(epochs=5))
            runs.append((history, [l.weights.copy() for l in net.layers]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(a, b)

    def test_divergence_reports_the_epoch(self):
        rng = np.random.default_rng(9)
        inputs = rng.normal(0.0, 1.0, (40, 3))
        targets = rng.normal(0.0, 1.0, 40)
        net = dense_net([3, 8, 1], ["relu", "linear"], seed=1)
        with pytest.raises(NumericalDivergence) as info:
            net_train(net, (inputs, targets), TrainSpec(epochs=10, learning_rate=1e200))
        assert info.value.epoch == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrainSpec(epochs=0)
        with pytest.raises(ValueError):
            TrainSpec(batch_size=0)
        with pytest.raises(ValueError):
            TrainSpec(learning_rate=0.0)

    def test_empty_and_mismatched_data(self):
        net = dense_net([3, 1], ["linear"], seed=0)
        with pytest.raises(DimensionMismatch):
            net_train(net, (np.empty((0, 3)), np.empty(0)))
        with pytest.raises(DimensionMismatch):
            net_train(net, (np.zeros((5, 4)), np.zeros(5)))


def reference_gradients(net: DenseNet, batch: np.ndarray, targets: np.ndarray):
    """Backprop into fresh per-layer arrays, as before the flat parameter
    vector.  Frozen here as the oracle for ``net_gradients``, with the
    forward pass that kept each layer's input and pre-activation."""
    inputs = [batch]
    pre_activations = []
    out = batch
    for layer in net.layers:
        z = out @ layer.weights + layer.bias
        pre_activations.append(z)
        out = np.maximum(z, 0.0) if layer.activation == "relu" else z
        inputs.append(out)
    diff = out - targets
    loss = float(np.mean(diff**2))
    delta = 2.0 * diff / diff.size
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == "relu":
            delta = delta * (pre_activations[i] > 0.0)
        grads[i] = (inputs[i].T @ delta, delta.sum(axis=0))
        if i:
            delta = delta @ layer.weights.T
    return loss, grads


def reference_train(net: DenseNet, data, spec: TrainSpec = TrainSpec()) -> list[float]:
    """Adam with one pair of moment arrays per weight and bias array, updated
    layer by layer, as before the flat parameter vector.  Frozen here as the
    oracle for ``net_train``."""
    inputs, targets = (np.asarray(a, dtype=np.float64) for a in data)
    if targets.ndim == 1:
        targets = targets[:, None]
    n = inputs.shape[0]
    rng = np.random.default_rng(net.seed)
    moment1 = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
    moment2 = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
    step = 0
    history = []
    for epoch in range(spec.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, spec.batch_size):
                chosen = order[start : start + spec.batch_size]
                loss, grads = reference_gradients(net, inputs[chosen], targets[chosen])
                epoch_loss += loss * chosen.size
                step += 1
                correction1 = 1.0 - _BETA1**step
                correction2 = 1.0 - _BETA2**step
                for layer, m, v, (gw, gb) in zip(net.layers, moment1, moment2, grads):
                    for param, grad, m_arr, v_arr in (
                        (layer.weights, gw, m[0], v[0]),
                        (layer.bias, gb, m[1], v[1]),
                    ):
                        m_arr *= _BETA1
                        m_arr += (1.0 - _BETA1) * grad
                        v_arr *= _BETA2
                        v_arr += (1.0 - _BETA2) * grad**2
                        param -= spec.learning_rate * (m_arr / correction1) / (
                            np.sqrt(v_arr / correction2) + _EPS
                        )
        mean_loss = epoch_loss / n
        if not np.isfinite(mean_loss):
            raise NumericalDivergence(epoch)
        history.append(mean_loss)
    return history


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# name: (net builder, n, targets from (inputs, rng), schedule, data seed)
ORACLE_CASES = {
    # The forecaster's default shape on 30-point windows, n a multiple of 32.
    "mlp": (
        lambda: dense_net([30, 100, 50, 1], ["relu", "relu", "linear"], seed=4),
        256,
        lambda x, rng: x[:, -1] * 0.8 + rng.normal(0.0, 0.1, x.shape[0]),
        TrainSpec(epochs=4),
        1,
    ),
    "autoencoder": (
        lambda: _build_autoencoder(30, (32, 16), seed=6),
        160,
        lambda x, rng: x,
        TrainSpec(epochs=4, learning_rate=3e-3),
        2,
    ),
    # 203 = 12 * 16 + 11: every epoch ends on a short batch.
    "ragged_batches": (
        lambda: dense_net([5, 9, 4, 2], ["relu", "relu", "linear"], seed=8),
        203,
        lambda x, rng: rng.normal(0.0, 1.0, (x.shape[0], 2)),
        TrainSpec(epochs=6, batch_size=16, learning_rate=1e-2),
        3,
    ),
    # 40 epochs of 10 batches: steps 356 .. 400 run with Adam's first bias
    # correction rounded to exactly 1.0.
    "past_step_356": (
        lambda: dense_net([4, 6, 1], ["relu", "linear"], seed=9),
        40,
        lambda x, rng: x @ np.array([1.0, -0.5, 0.25, 2.0]) + rng.normal(0.0, 0.1, x.shape[0]),
        TrainSpec(epochs=40, batch_size=4, learning_rate=1e-2),
        5,
    ),
    "hand_built": (
        two_layer_net,
        37,
        lambda x, rng: x @ np.array([0.5, -1.5]),
        TrainSpec(epochs=20, batch_size=5, learning_rate=5e-2),
        4,
    ),
}


def oracle_case(name: str):
    """(net builder, (inputs, targets), schedule) for one oracle case."""
    make_net, n, targets_of, spec, seed = ORACLE_CASES[name]
    rng = np.random.default_rng(seed)
    inputs = rng.normal(0.0, 1.0, (n, make_net().input_dim))
    return make_net, (inputs, targets_of(inputs, rng)), spec


class TestFlatParameters:
    def test_layers_are_views_of_one_vector(self):
        net = dense_net([4, 6, 3, 1], ["relu", "relu", "linear"], seed=5)
        assert net.params.size == sum(l.weights.size + l.bias.size for l in net.layers)
        for layer in net.layers:
            assert np.shares_memory(layer.weights, net.params)
            assert np.shares_memory(layer.bias, net.params)
        net.params[:] = 0.0
        assert all(not l.weights.any() and not l.bias.any() for l in net.layers)

    def test_hand_built_values_are_kept(self):
        net = two_layer_net()
        assert net.params.tolist() == [1.0, -1.0, 2.0, 0.5, 0.5, -1.0, 1.0, 2.0, 0.25]

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_training_matches_per_layer_adam_bit_for_bit(self, case):
        make_net, data, spec = oracle_case(case)
        if case == "autoencoder":
            assert data[1] is data[0]  # one gather serves inputs and targets
        net, oracle = make_net(), make_net()
        history = net_train(net, data, spec)
        expected = reference_train(oracle, data, spec)
        assert history == expected
        for layer, old in zip(net.layers, oracle.layers):
            assert same_bits(layer.weights, old.weights)
            assert same_bits(layer.bias, old.bias)
        assert not same_bits(net.params, make_net().params)  # training moved them

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_gradients_match_per_layer_backprop_bit_for_bit(self, case):
        make_net, (inputs, targets), _ = oracle_case(case)
        net = make_net()
        targets = targets[:, None] if targets.ndim == 1 else targets
        loss, grads = net_gradients(net, inputs[:17], targets[:17])
        expected_loss, expected = reference_gradients(net, inputs[:17], targets[:17])
        assert loss == expected_loss
        for (gw, gb), (ew, eb) in zip(grads, expected):
            assert same_bits(gw, ew)
            assert same_bits(gb, eb)

    def test_gradients_are_fresh_arrays(self):
        rng = np.random.default_rng(3)
        net = dense_net([4, 6, 1], ["relu", "linear"], seed=5)
        batch, targets = rng.normal(0.0, 1.0, (8, 4)), rng.normal(0.0, 1.0, (8, 1))
        _, first = net_gradients(net, batch, targets)
        kept = [(gw.copy(), gb.copy()) for gw, gb in first]
        net_gradients(net, batch * 2.0, targets)
        for (gw, gb), (kw, kb) in zip(first, kept):
            assert same_bits(gw, kw) and same_bits(gb, kb)

    def test_divergence_stops_at_the_same_epoch(self):
        rng = np.random.default_rng(9)
        inputs = rng.normal(0.0, 1.0, (40, 3))
        targets = rng.normal(0.0, 1.0, 40)
        spec = TrainSpec(epochs=10, learning_rate=1e200)
        epochs = []
        for train in (net_train, reference_train):
            net = dense_net([3, 8, 1], ["relu", "linear"], seed=1)
            with pytest.raises(NumericalDivergence) as info:
                train(net, (inputs, targets), spec)
            epochs.append(info.value.epoch)
        assert epochs[0] == epochs[1]


def wavy_series(n, seed, noise=0.05):
    rng = np.random.default_rng(seed)
    return series(np.sin(np.arange(n) / 6.0) + rng.normal(0.0, noise, n))


class TestMlpDetector:
    def test_default_layer_shapes(self):
        detector = get_detector("mlp")
        cfg = DetectorConfig(name="mlp", window_width=8, hyperparameters={"epochs": 1})
        net = detector.fit(wavy_series(200, 1), cfg)
        shapes = [layer.weights.shape for layer in net.layers]
        assert shapes == [(8, 100), (100, 50), (50, 1)]

    def test_constant_series_scores_near_zero(self):
        detector = get_detector("mlp")
        cfg = DetectorConfig(name="mlp", window_width=8, hyperparameters={"epochs": 50})
        train = series(np.full(200, 0.5))
        net = detector.fit(train, cfg)
        out = detector.score(net, cfg, train, series(np.full(80, 0.5)))
        assert float(np.max(out)) < 0.05

    def test_spike_ranks_top(self):
        detector = get_detector("mlp")
        cfg = DetectorConfig(name="mlp", window_width=8, seed=3)
        train = wavy_series(400, 2)
        net = detector.fit(train, cfg)
        test_values = wavy_series(200, 4).values.copy()
        test_values[120] += 5.0
        out = detector.score(net, cfg, train, series(test_values))
        assert len(out) == 200
        assert 120 in np.argsort(out)[-3:]

    def test_custom_hidden_dims(self):
        detector = get_detector("mlp")
        cfg = DetectorConfig(
            name="mlp",
            window_width=6,
            hyperparameters={"hidden_dims": (12,), "epochs": 1},
        )
        net = detector.fit(wavy_series(150, 5), cfg)
        shapes = [layer.weights.shape for layer in net.layers]
        assert shapes == [(6, 12), (12, 1)]


class TestAutoencoder:
    def test_architecture_mirrors_the_encoder(self):
        net = _build_autoencoder(30, (32, 16), seed=0)
        dims = [net.layers[0].weights.shape[0]] + [layer.weights.shape[1] for layer in net.layers]
        assert dims == [30, 32, 16, 32, 30]
        activations = [layer.activation for layer in net.layers]
        assert activations == ["relu", "relu", "relu", "linear"]

    def test_bottleneck_must_compress(self):
        # Narrower, equal and wider than the window: none compresses it.
        for width, hidden in ((10, (32, 16)), (16, (32, 16)), (4, (8,))):
            with pytest.raises(DimensionMismatch):
                _build_autoencoder(width, hidden, seed=0)

    def test_reconstructs_familiar_shapes(self):
        detector = get_detector("autoencoder")
        cfg = DetectorConfig(
            name="autoencoder",
            window_width=16,
            hyperparameters={"hidden_dims": (12, 4), "epochs": 80},
            seed=1,
        )
        train = wavy_series(400, 6, noise=0.02)
        net = detector.fit(train, cfg)
        out = detector.score(net, cfg, train, wavy_series(200, 7, noise=0.02))
        assert float(np.mean(out)) < 0.5

    def test_corrupted_window_scores_higher(self):
        detector = get_detector("autoencoder")
        cfg = DetectorConfig(
            name="autoencoder",
            window_width=16,
            hyperparameters={"hidden_dims": (12, 4), "epochs": 80},
            seed=2,
        )
        train = wavy_series(400, 8, noise=0.02)
        net = detector.fit(train, cfg)
        test_values = wavy_series(200, 9, noise=0.02).values.copy()
        test_values[100] += 4.0
        out = detector.score(net, cfg, train, series(test_values))
        # The 16 windows that hold the corrupted point end at 100 .. 115.
        hit = np.zeros(len(out), dtype=bool)
        hit[100:116] = True
        assert float(out[hit].max()) > 3.0 * float(np.median(out[~hit]))


class TestForwardOnlyScoring:
    """Scoring runs the layers without keeping backprop's intermediates."""

    @pytest.fixture(params=["mlp", "autoencoder"])
    def fitted(self, request):
        detector = get_detector(request.param)
        cfg = DetectorConfig(name=request.param, window_width=30, hyperparameters={"epochs": 1})
        return detector, cfg, detector.fit(wavy_series(400, 11), cfg)

    def test_outputs_match_the_training_pass(self, fitted):
        _, _, net = fitted
        batch = wavy_series(500, 12).values[:480].reshape(16, 30)
        trained = _train_forward(net, _workspace(net, batch.shape[0]), batch)
        assert same_bits(_forward(net, batch), trained)

    @pytest.mark.parametrize("n", [1500, 6000])
    def test_score_holds_two_layer_outputs_and_their_input(self, fitted, n):
        detector, cfg, net = fitted
        train, test = wavy_series(400, 11), wavy_series(n, 13)
        _, peak = traced_peak(lambda: detector.score(net, cfg, train, test))
        widths = [layer.weights.shape[1] for layer in net.layers]
        widest_pair = max(a + b for a, b in zip(widths, widths[1:]))
        # Windows and a few length-n vectors (the test after its lookback,
        # scores and their scratch), plus the widest two adjacent layer
        # outputs: over all n rows at most, and over one row block (each of
        # at most _BLOCK_ENTRIES entries) once n exceeds a block.
        one_pass = 8 * n * (30 + widest_pair + 4)
        blocked = 8 * n * (30 + 4) + 2 * 8 * ml._BLOCK_ENTRIES
        assert peak <= min(one_pass, blocked), (peak, one_pass, blocked)

    @pytest.mark.parametrize("name", ["mlp", "autoencoder"])
    def test_score_peak_at_forty_thousand_points(self, name):
        # 28,000 test windows; one pass over all of them would hold
        # 38.7 MiB (mlp) and 19.9 MiB (autoencoder), and a copy of their
        # 28,000 x 30 window matrix 6.41 MiB.  The windows are a view of
        # the test values, copied one row block at a time.
        train, test = long_synth()
        detector = get_detector(name)
        cfg = DetectorConfig(name=name, hyperparameters={"epochs": 1})
        net = detector.fit(train, cfg)
        _, peak = traced_peak(lambda: detector.score(net, cfg, train, test))
        assert peak <= 2 * 2**20, peak / 2**20


class TestShuffleBuffers:
    def test_net_train_holds_no_copy_of_the_data(self):
        rng = np.random.default_rng(21)
        inputs, targets = rng.normal(0.0, 1.0, (4000, 30)), rng.normal(0.0, 1.0, 4000)
        net = dense_net([30, 8, 1], ["relu", "linear"], seed=5)
        spec = TrainSpec(epochs=3, batch_size=256)
        _, peak = traced_peak(lambda: net_train(net, (inputs, targets), spec))
        # The epoch's order and batch-sized scratch: each batch is gathered
        # from the data by the order, so no shuffled copy of it exists.
        data_bytes = inputs.nbytes + targets.nbytes
        assert peak <= 0.25 * data_bytes, peak / data_bytes
