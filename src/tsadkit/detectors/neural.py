"""Minimal dense-network engine and the two detectors built on it.

The engine is a plain list of affine layers with relu or linear
activations, trained by mini-batch gradient descent with adaptive moment
estimates on a squared-error loss.  All weights and biases of a net live in
one flat vector, so Adam updates them in one step per batch.  Training
runs forward and backward through per-layer buffers built once per fit,
one set per batch height, so a step allocates nothing beyond its gathered
batch.  Scoring runs the layers forward only, in row blocks.  The
forecaster predicts the value after each window; the autoencoder
reconstructs whole windows and scores by reconstruction error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core import (
    DetectorConfig,
    TimeSeries,
    frame,
    resolve,
    subsequences,
    with_lookback,
)
from ..errors import DimensionMismatch, InvalidHyperparameter, NumericalDivergence
from .ml import _test_subsequences, _window_blocks

__all__ = [
    "DenseLayer",
    "DenseNet",
    "TrainSpec",
    "dense_net",
    "net_forward",
    "net_gradients",
    "net_train",
]

_ACTIVATIONS = ("relu", "linear")
# Adam's moment decay rates and denominator guard, at the values Kingma & Ba
# (ICLR 2015, Alg. 1) recommend.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class DenseLayer:
    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise DimensionMismatch("bias must match the weight matrix's output dimension")


def _param_views(flat: np.ndarray, layers: Sequence[DenseLayer]) -> list[tuple]:
    """(weights, bias) views of ``flat``, laid out layer by layer."""
    views = []
    offset = 0
    for layer in layers:
        fan_in, fan_out = layer.weights.shape
        weights = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        views.append((weights, flat[offset : offset + fan_out]))
        offset += fan_out
    return views


@dataclass
class DenseNet:
    """Chain of dense layers; mutated in place by training.

    The layers' weights and biases are copied into one flat vector,
    ``params``, and each layer then holds views of it: write through them
    rather than rebinding them.
    """

    layers: list[DenseLayer]
    seed: int = 0
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for previous, current in zip(self.layers, self.layers[1:]):
            if previous.weights.shape[1] != current.weights.shape[0]:
                raise DimensionMismatch(
                    f"layer dimensions do not chain: {previous.weights.shape} then "
                    f"{current.weights.shape}"
                )
        self.params = np.empty(sum(l.weights.size + l.bias.size for l in self.layers))
        for layer, (weights, bias) in zip(self.layers, _param_views(self.params, self.layers)):
            weights[...] = layer.weights
            bias[...] = layer.bias
            layer.weights, layer.bias = weights, bias

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[1]


@dataclass(frozen=True)
class TrainSpec:
    """Mini-batch schedule and Adam step size."""

    batch_size: int = 32
    epochs: int = 50
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidHyperparameter(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise InvalidHyperparameter(f"epochs must be >= 1, got {self.epochs}")
        if not self.learning_rate > 0.0:  # also rejects nan
            raise InvalidHyperparameter("learning_rate must be positive")


def dense_net(dims: Sequence[int], activations: Sequence[str], seed: int = 0) -> DenseNet:
    """Build a net with uniform +-sqrt(6/(fan_in+fan_out)) weights, zero bias."""
    if len(activations) != len(dims) - 1:
        raise DimensionMismatch("need one activation per layer")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out, activation in zip(dims, dims[1:], activations):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append(
            DenseLayer(
                weights=rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                bias=np.zeros(fan_out),
                activation=activation,
            )
        )
    return DenseNet(layers=layers, seed=seed)


def _forward(net: DenseNet, batch: np.ndarray) -> np.ndarray:
    """Outputs only, each layer computed in place in its own output: at most
    two layer outputs are alive at once, beside the batch."""
    out = batch
    for layer in net.layers:
        out = out @ layer.weights
        out += layer.bias
        if layer.activation == "relu":
            np.maximum(out, 0.0, out=out)
    return out


def _score_rows(net: DenseNet, windows: np.ndarray, row_score) -> np.ndarray:
    """``row_score(outputs, inputs)`` of each row block of ``windows``, one
    score per row.  A block holds about ml._BLOCK_ENTRIES entries of the
    net's widest layer, so scoring holds a copy of the block's windows and
    two block-sized layer outputs whatever the number of windows.  The
    copy is overwritten by the next block's, so ``row_score`` returns
    scores, not a view of its inputs."""
    widest = max(max(layer.weights.shape) for layer in net.layers)
    scores = np.empty(windows.shape[0])
    for rows, block in _window_blocks(windows, widest):
        scores[rows] = row_score(_forward(net, block), block)
    return scores


def net_forward(net: DenseNet, x) -> np.ndarray:
    """Evaluate the net on one input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise DimensionMismatch(f"expected input of shape ({net.input_dim},), got {x.shape}")
    return _forward(net, x[None, :])[0]


def _workspace(net: DenseNet, rows: int) -> list[tuple]:
    """Backprop buffers for batches of ``rows`` rows: per layer, a
    ``(z, gate, delta)`` triple of its pre-activation (relu applied in place,
    so it then holds the layer's output), its relu gate (None on a linear
    layer) and the loss gradient at its pre-activation."""
    work = []
    for layer in net.layers:
        shape = (rows, layer.weights.shape[1])
        gate = np.empty(shape, dtype=bool) if layer.activation == "relu" else None
        work.append((np.empty(shape), gate, np.empty(shape)))
    return work


def _train_forward(net: DenseNet, work: list[tuple], batch: np.ndarray) -> np.ndarray:
    """The net's outputs on ``batch``, each layer computed in its ``work``
    buffers; the relu gates are set on the way."""
    out = batch
    for layer, (z, gate, _) in zip(net.layers, work):
        np.matmul(out, layer.weights, out=z)
        z += layer.bias
        if gate is not None:
            np.greater(z, 0.0, out=gate)
            np.maximum(z, 0.0, out=z)
        out = z
    return out


def _backprop(
    net: DenseNet, work: list[tuple], batch: np.ndarray, targets: np.ndarray, grads: list
) -> float:
    """Mean squared error over the batch; writes its gradients into ``grads``.

    Every intermediate lives in ``work``, from ``_workspace(net,
    len(batch))``, so a training step allocates nothing here.  The
    operations are those of fresh-array backprop in the same order (a
    ``float x bool`` product applies a relu gate), so the bits are too."""
    out = _train_forward(net, work, batch)
    delta = work[-1][2]
    np.subtract(out, targets, out=delta)
    # The outputs are not read again: their buffer takes the squared errors,
    # summed and divided as np.mean does.
    np.square(delta, out=out)
    loss = float(np.add.reduce(out, axis=None)) / out.size
    delta *= 2.0
    delta /= delta.size
    for i in range(len(net.layers) - 1, -1, -1):
        _, gate, delta = work[i]
        if gate is not None:
            np.multiply(delta, gate, out=delta)
        grad_w, grad_b = grads[i]
        np.matmul((work[i - 1][0] if i else batch).T, delta, out=grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)
        if i:
            np.matmul(delta, net.layers[i].weights.T, out=work[i - 1][2])
    return loss


def net_gradients(net: DenseNet, batch: np.ndarray, targets: np.ndarray):
    """Loss and backprop gradients of mean squared error over the batch, in
    fresh arrays."""
    grads = _param_views(np.empty_like(net.params), net.layers)
    return _backprop(net, _workspace(net, batch.shape[0]), batch, targets, grads), grads


def net_train(net: DenseNet, data, spec: TrainSpec = TrainSpec()) -> list[float]:
    """Train in place; returns one mean loss per epoch.

    ``data`` is an (inputs, targets) array pair; one-dimensional targets
    are one output each.  Shuffling is seeded from the net, so training is
    reproducible bit for bit.  Each batch is gathered from ``data`` by the
    epoch's shuffle, so a strided window view is never copied whole, and
    runs through the ``_workspace`` of its height.  Each batch is one Adam
    step on the whole parameter vector (Kingma & Ba, ICLR 2015, Alg. 1).
    """
    inputs, targets = data
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    n = inputs.shape[0]
    if n == 0:
        raise DimensionMismatch("training data is empty")
    if inputs.shape[1] != net.input_dim or targets.shape[1] != net.output_dim:
        raise DimensionMismatch(
            f"data shapes {inputs.shape}/{targets.shape} do not fit net "
            f"{net.input_dim}->{net.output_dim}"
        )

    # The autoencoder reconstructs its inputs: one gather serves both.
    autoencoding = targets is inputs
    # Buffers for the two batch heights an epoch sees, the full batch and
    # the short last one, built once per fit.
    full = min(spec.batch_size, n)
    work = {rows: _workspace(net, rows) for rows in {full, n % full or full}}
    rng = np.random.default_rng(net.seed)
    theta = net.params
    grad = np.empty_like(theta)
    grad_views = _param_views(grad, net.layers)
    moment1 = np.zeros_like(theta)
    moment2 = np.zeros_like(theta)
    denominator = np.empty_like(theta)
    update = np.empty_like(theta)
    step = 0
    history = []
    for epoch in range(spec.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        # Overflow inside a batch is not a crash: the non-finite epoch loss
        # below turns it into a NumericalDivergence report.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, spec.batch_size):
                rows = order[start : start + spec.batch_size]
                batch = inputs[rows]
                batch_targets = batch if autoencoding else targets[rows]
                loss = _backprop(net, work[rows.size], batch, batch_targets, grad_views)
                epoch_loss += loss * rows.size
                step += 1
                correction1 = 1.0 - _BETA1**step
                correction2 = 1.0 - _BETA2**step
                # Adam, with each product and quotient in the order that
                # tests/test_neural.py's per-layer oracle fixes bit for bit:
                # m = m*b1 + (1-b1)g;  v = v*b2 + (1-b2)g^2
                moment1 *= _BETA1
                np.multiply(grad, 1.0 - _BETA1, out=update)
                moment1 += update
                moment2 *= _BETA2
                np.square(grad, out=update)
                update *= 1.0 - _BETA2
                moment2 += update
                # theta -= lr * (m/c1) / (sqrt(v/c2) + eps)
                np.divide(moment2, correction2, out=denominator)
                np.sqrt(denominator, out=denominator)
                denominator += _EPS
                if correction1 == 1.0:
                    # From step 356 on, 1 - b1**t rounds to 1.0, and m/1.0
                    # is m bit for bit: skip the divide.
                    np.multiply(moment1, spec.learning_rate, out=update)
                else:
                    np.divide(moment1, correction1, out=update)
                    update *= spec.learning_rate
                update /= denominator
                theta -= update
        mean_loss = epoch_loss / n
        if not np.isfinite(mean_loss):
            raise NumericalDivergence(epoch)
        history.append(mean_loss)
    return history


def _build_autoencoder(width: int, hidden_dims: Sequence[int], seed: int) -> DenseNet:
    """Window reconstructor: relu encoder/decoder stack, linear output.

    The bottleneck must be narrower than the window, otherwise identity
    copying makes reconstruction error meaningless.
    """
    hidden = tuple(int(h) for h in hidden_dims)
    if hidden[-1] >= width:
        raise DimensionMismatch(
            f"bottleneck {hidden[-1]} must be narrower than the window width {width}"
        )
    dims = [width, *hidden, *reversed(hidden[:-1]), width]
    activations = ["relu"] * (len(dims) - 2) + ["linear"]
    return dense_net(dims, activations, seed=seed)


# Both detectors take TrainSpec's schedule keys; the defaults live in TrainSpec.
_TRAIN_PARAMS = {
    "epochs": TrainSpec.epochs,
    "batch_size": TrainSpec.batch_size,
    "learning_rate": TrainSpec.learning_rate,
}


class MlpDetector:
    """Window-to-next-value forecaster: relu hidden layers, one linear output."""

    name = "mlp"
    family = "neural"
    params = {"hidden_dims": (100, 50), **_TRAIN_PARAMS}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> DenseNet:
        p = resolve(cfg, self.params)
        hidden = p.pop("hidden_dims")
        dims = [cfg.window_width, *hidden, 1]
        net = dense_net(dims, ["relu"] * len(hidden) + ["linear"], seed=cfg.seed)
        net_train(net, frame(train, cfg.window_width), TrainSpec(**p))
        return net

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        w = cfg.window_width
        windows, targets = frame(with_lookback(train, test, w), w)
        forecasts = _score_rows(model, windows, lambda out, _: out[:, 0])
        return np.abs(forecasts - targets)


class AutoencoderDetector:
    """Window reconstruction error; high error flags an unfamiliar shape."""

    name = "autoencoder"
    family = "neural"
    params = {"hidden_dims": (32, 16), **_TRAIN_PARAMS}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> DenseNet:
        p = resolve(cfg, self.params)
        net = _build_autoencoder(cfg.window_width, p.pop("hidden_dims"), cfg.seed)
        windows = subsequences(train, cfg.window_width)
        net_train(net, (windows, windows), TrainSpec(**p))
        return net

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        windows = _test_subsequences(train, test, cfg.window_width)
        errors = _score_rows(model, windows, lambda out, rows: ((out - rows) ** 2).sum(axis=1))
        return np.sqrt(errors)
