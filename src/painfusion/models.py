"""Small binary classifiers trained with class-weighted cross entropy.

Three architectures over a [window_length x 70] feature window:

* ``logistic``: time-mean pooling, then a single linear unit.
* ``mlp``: time-mean pooling, one ReLU hidden layer, linear output.
* ``cnn1d``: temporal convolution (stride 1), ReLU, global max pooling
  over time, linear output.

All parameters live in one flat float64 vector per model (layouts are
documented on the architecture classes), gradients are hand-derived,
and optimization is plain mini-batch SGD with optional momentum. Every
random draw goes through ``numpy.random.SeedSequence`` so that training
is a pure function of (windows, labels, spec).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError

CLASSIFIER_KINDS = ("logistic", "mlp", "cnn1d")
# The kinds that see a window only through its per-column time mean.
POOLED_KINDS = ("logistic", "mlp")

STD_FLOOR = 1e-8

@dataclass(frozen=True)
class ClassifierSpec:
    """Architecture and training hyperparameters.

    ``positive_class_weight`` of None means "balance the classes":
    the weight on positive terms becomes n_negative / n_positive,
    computed from the training labels.
    """

    kind: str
    seed: int
    hidden_units: int = 16
    conv_channels: int = 8
    kernel_width: int = 5
    learning_rate: float = 0.05
    epochs: int = 40
    batch_size: int = 32
    momentum: float = 0.9
    l2: float = 1e-4
    positive_class_weight: float | None = None

    def validate(self) -> None:
        if self.kind not in CLASSIFIER_KINDS:
            raise ConfigError(f"kind must be one of {CLASSIFIER_KINDS}, got {self.kind!r}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        for name in ("hidden_units", "conv_channels", "kernel_width", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must lie in [0, 1)")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ConfigError("l2 must be finite and nonnegative")
        if self.positive_class_weight is not None and not (
            math.isfinite(self.positive_class_weight) and self.positive_class_weight > 0
        ):
            raise ConfigError("positive_class_weight must be finite and positive")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _he_uniform(rng, fan_in: int, size: int) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size)


class _Logistic:
    """Flat layout: [w: d][b: 1]."""

    def __init__(self, spec: ClassifierSpec, n_features: int):
        self.d = n_features
        self.n_params = n_features + 1

    def init(self, rng) -> np.ndarray:
        params = np.zeros(self.n_params)
        params[: self.d] = _he_uniform(rng, self.d, self.d)
        return params

    def raw_scores(self, params, X):
        w, b = params[: self.d], params[self.d]
        return X @ w + b, None

    def backward(self, params, X, cache, dz):
        grad = np.empty_like(params)
        grad[: self.d] = X.T @ dz
        grad[self.d] = dz.sum()
        return grad


class _Mlp:
    """Flat layout: [W1: d*h, row-major][b1: h][w2: h][b2: 1]."""

    def __init__(self, spec: ClassifierSpec, n_features: int):
        self.d, self.h = n_features, spec.hidden_units
        self.n_params = self.d * self.h + self.h + self.h + 1

    def _unpack(self, params):
        d, h = self.d, self.h
        W1 = params[: d * h].reshape(d, h)
        b1 = params[d * h : d * h + h]
        w2 = params[d * h + h : d * h + 2 * h]
        b2 = params[-1]
        return W1, b1, w2, b2

    def init(self, rng) -> np.ndarray:
        d, h = self.d, self.h
        params = np.zeros(self.n_params)
        params[: d * h] = _he_uniform(rng, d, d * h)
        params[d * h + h : d * h + 2 * h] = _he_uniform(rng, h, h)
        return params

    def raw_scores(self, params, X):
        W1, b1, w2, b2 = self._unpack(params)
        pre = X @ W1 + b1
        hidden = np.maximum(pre, 0.0)
        return hidden @ w2 + b2, (pre, hidden)

    def backward(self, params, X, cache, dz):
        pre, hidden = cache
        _, _, w2, _ = self._unpack(params)
        d, h = self.d, self.h
        dpre = np.outer(dz, w2) * (pre > 0.0)
        grad = np.empty_like(params)
        grad[: d * h] = (X.T @ dpre).reshape(-1)
        grad[d * h : d * h + h] = dpre.sum(axis=0)
        grad[d * h + h : d * h + 2 * h] = hidden.T @ dz
        grad[-1] = dz.sum()
        return grad


class _Cnn1d:
    """Flat layout: [W: C*K*d, (channel, tap, feature) order][b_conv: C]
    [w: C][b: 1]. The convolution slides over time with stride 1, so a
    window of T frames yields T - K + 1 activations per channel before
    the global max pool."""

    def __init__(self, spec: ClassifierSpec, n_features: int):
        self.d = n_features
        self.C, self.K = spec.conv_channels, spec.kernel_width
        self.n_params = self.C * self.K * self.d + self.C + self.C + 1

    def _unpack(self, params):
        C, K, d = self.C, self.K, self.d
        W = params[: C * K * d].reshape(C, K, d)
        b_conv = params[C * K * d : C * K * d + C]
        w = params[C * K * d + C : C * K * d + 2 * C]
        b = params[-1]
        return W, b_conv, w, b

    def init(self, rng) -> np.ndarray:
        C, K, d = self.C, self.K, self.d
        params = np.zeros(self.n_params)
        params[: C * K * d] = _he_uniform(rng, K * d, C * K * d)
        params[C * K * d + C : C * K * d + 2 * C] = _he_uniform(rng, C, C)
        return params

    def raw_scores(self, params, X):
        W, b_conv, w, b = self._unpack(params)
        (B, T, d), C, K = X.shape, self.C, self.K
        if T < K:
            raise DataError(f"window length {T} shorter than kernel width {K}")
        span = T - K + 1
        # Every frame against every (channel, tap) filter row in one
        # matmul; activation t then sums tap k's response at frame t + k.
        per_tap = (X.reshape(-1, d) @ W.reshape(C * K, d).T).reshape(B, T, C, K)
        act = per_tap[:, :span, :, 0].copy()
        for k in range(1, K):
            act += per_tap[:, k : k + span, :, k]
        act += b_conv
        relu = np.maximum(act, 0.0)
        peak_at = relu.argmax(axis=1)
        pooled = np.take_along_axis(relu, peak_at[:, None, :], axis=1)[:, 0, :]
        return pooled @ w + b, (act, relu, peak_at, pooled)

    def backward(self, params, X, cache, dz):
        act, relu, peak_at, pooled = cache
        _, _, w, _ = self._unpack(params)
        (B, T, d), C, K = X.shape, self.C, self.K
        span = act.shape[1]
        dpooled = np.outer(dz, w)
        drelu = np.zeros_like(relu)
        np.put_along_axis(drelu, peak_at[:, None, :], dpooled[:, None, :], axis=1)
        dact = drelu * (act > 0.0)
        # Tap k of filter c saw frame t + k for activation t: place dact
        # there, and one matmul against the frames gives every tap's
        # gradient in the (channel, tap, feature) order of the layout.
        shifted = np.zeros((B, T, C, K))
        for k in range(K):
            shifted[:, k : k + span, :, k] = dact
        grad = np.empty_like(params)
        grad[: C * K * d] = (shifted.reshape(-1, C * K).T @ X.reshape(-1, d)).reshape(-1)
        grad[C * K * d : C * K * d + C] = dact.sum(axis=(0, 1))
        grad[C * K * d + C : C * K * d + 2 * C] = pooled.T @ dz
        grad[-1] = dz.sum()
        return grad

    def pool_margin(self, cache) -> float:
        """Smallest gap between the winning and runner-up max-pool
        activation over all (example, channel) pairs; infinity when a
        window yields a single temporal position."""
        relu = cache[1]
        if relu.shape[1] < 2:
            return math.inf
        top2 = np.partition(relu, -2, axis=1)[:, -2:, :]
        return float(np.min(top2[:, 1, :] - top2[:, 0, :]))


def _architecture(spec: ClassifierSpec, n_features: int):
    if spec.kind == "logistic":
        return _Logistic(spec, n_features)
    if spec.kind == "mlp":
        return _Mlp(spec, n_features)
    return _Cnn1d(spec, n_features)


def _loss_and_grad(arch, params, X, pos_y, neg_y, l2):
    """Mean class-weighted cross entropy plus the L2 penalty, and its
    gradient; ``pos_y`` is positive_weight * y and ``neg_y`` is 1 - y."""
    z, cache = arch.raw_scores(params, X)
    # softplus(-z) = -log(sigmoid(z)); both branches via logaddexp stay
    # finite for any z.
    per_example = pos_y * np.logaddexp(0.0, -z) + neg_y * np.logaddexp(0.0, z)
    loss = float(np.add.reduce(per_example) / len(z)) + l2 * float(params @ params)
    s = _sigmoid(z)
    grad = arch.backward(params, X, cache, (pos_y * (s - 1.0) + neg_y * s) / len(z))
    grad += 2.0 * l2 * params
    return loss, grad


BLOCK_WINDOWS = 256


class WindowSet:
    """An [n, length, columns] stack of windows that is never joined
    unless asked: it holds one [n_i, length, width] array per sequence
    (the read-only strided views that ``make_windows`` returns) and the
    columns to read from them (all ``width`` when None). ``shape`` is
    the joined stack's and ``len`` its window count.

    ``blocks`` copies the selected columns of at most BLOCK_WINDOWS
    windows of one part at a time, so the pooled models and the
    weighting never hold the joined tensor; only ``array``, which the
    convolution reads, builds it.
    """

    def __init__(self, parts, length: int, width: int, columns=None):
        self.parts = tuple(parts)
        self._columns = _column_index(columns)
        n_columns = width if columns is None else len(columns)
        self.shape = (sum(len(part) for part in self.parts), length, n_columns)

    def __len__(self) -> int:
        return self.shape[0]

    def blocks(self):
        """(first window index, block) pairs in window order; each block
        is a new C-ordered float64 array of at most BLOCK_WINDOWS windows
        and never spans two parts."""
        offset = 0
        for part in self.parts:
            for start in range(0, len(part), BLOCK_WINDOWS):
                block = part[start : start + BLOCK_WINDOWS, :, self._columns]
                yield offset + start, np.array(block, np.float64, order="C")
            offset += len(part)

    def array(self) -> np.ndarray:
        """The joined C-ordered [n, length, columns] float64 tensor."""
        joined = np.empty(self.shape)
        for start, block in self.blocks():
            joined[start : start + len(block)] = block
        return joined


def _column_index(columns):
    """An index for the last axis: a slice for all columns or for one
    ascending run, which reads a view so that a block costs one copy
    rather than two; else the index list."""
    if columns is None:
        return slice(None)
    columns = list(columns)
    first = columns[0] if columns else 0
    if columns == list(range(first, first + len(columns))):
        return slice(first, first + len(columns))
    return columns


def _as_windows(windows, width=None) -> WindowSet:
    """Windows as a WindowSet (a 3-D array becomes its single part);
    ``width``, when given, is the required number of columns."""
    if not isinstance(windows, WindowSet):
        array = np.asarray(windows, dtype=np.float64)
        if array.ndim != 3:
            raise DataError(
                f"windows have shape {array.shape}, expected [n, length, {width or 'columns'}]"
            )
        windows = WindowSet([array], *array.shape[1:])
    if width not in (None, windows.shape[2]):
        raise DataError(f"windows have shape {windows.shape}, expected [n, length, {width}]")
    return windows


def pool_windows(windows, reduction: str = "mean") -> np.ndarray:
    """The [n, columns] reduction of every window over its frames
    (``mean``, ``max`` or ``std``), one block at a time."""
    windows = _as_windows(windows)
    pooled = np.empty((len(windows), windows.shape[2]))
    for start, block in windows.blocks():
        pooled[start : start + len(block)] = getattr(block, reduction)(axis=1)
    return pooled


def _frame_sum(windows: WindowSet, center=None) -> np.ndarray:
    """Sum over every (window, frame) row of the values, or with
    ``center`` of their squared deviations from it. Each block adds the
    running total into its first row and is then summed row by row: the
    order in which NumPy sums a C-ordered [n, length, width] tensor over
    axes (0, 1) when width >= 2 (one column is summed pairwise)."""
    total = np.zeros(windows.shape[2])
    for _, block in windows.blocks():
        if center is not None:
            block -= center
            block *= block
        rows = block.reshape(-1, windows.shape[2])
        rows[0] += total
        total = np.add.reduce(rows, axis=0)
    return total


def frame_statistics(windows) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and std over every frame of every window (a frame
    shared by overlapping windows counts once per window), with the std
    floored at STD_FLOOR to keep constant features harmless. For two or
    more columns both equal ``mean``/``std(axis=(0, 1))`` of the joined
    tensor bit for bit."""
    windows = _as_windows(windows)
    count = len(windows) * windows.shape[1]
    mean = _frame_sum(windows) / count
    std = np.sqrt(_frame_sum(windows, mean) / count)
    return mean, np.maximum(std, STD_FLOOR)


def _model_input(kind: str, windows, mean, std, width: int) -> np.ndarray:
    """A model's standardized input: for the pooled kinds the [n, width]
    window time means, which a 2-D ``windows`` holds in any layout, made C
    order (a Fortran-ordered one takes another BLAS path); else the tensor."""
    if kind not in POOLED_KINDS:
        joined = _as_windows(windows, width).array()
        joined -= mean
        joined /= std
        return joined
    if not (isinstance(windows, np.ndarray) and windows.ndim == 2):
        windows = pool_windows(_as_windows(windows, width))
    elif windows.shape[1] != width:
        raise DataError(f"pooled windows have shape {windows.shape}, expected [n, {width}]")
    X = np.subtract(windows, mean, order="C")
    X /= std
    return X


def _training_inputs(windows, labels, spec: ClassifierSpec, frame_stats=None):
    """Architecture, standardized input, float labels, and the frame
    statistics of the windows (``frame_stats`` when given)."""
    spec.validate()
    if len(windows) == 0:
        raise DataError("no training windows")
    if len(windows) != len(labels):
        raise DataError(f"{len(windows)} windows vs {len(labels)} labels")
    y = np.asarray(labels, dtype=np.float64)
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("training labels must be 0 or 1")
    mean, std = frame_statistics(windows) if frame_stats is None else frame_stats
    X = _model_input(spec.kind, windows, mean, std, len(mean))
    return _architecture(spec, len(mean)), X, y, mean, std


def resolve_positive_weight(spec: ClassifierSpec, y: np.ndarray) -> tuple[float, bool]:
    n_pos = int(y.sum())
    single_class = n_pos in (0, len(y))
    if spec.positive_class_weight is not None:
        return float(spec.positive_class_weight), single_class
    return (1.0 if single_class else (len(y) - n_pos) / n_pos), single_class


@dataclass(frozen=True)
class TrainedClassifier:
    """A fitted model: spec, standardization constants, flat parameters,
    and the per-epoch training losses. ``single_class`` records that the
    training set contained only one label value."""

    spec: ClassifierSpec
    n_features: int
    feature_mean: np.ndarray
    feature_std: np.ndarray
    params: np.ndarray
    positive_weight: float
    single_class: bool
    training_log: tuple[float, ...] = field(repr=False, default=())

    def predict_proba_windows(self, windows) -> np.ndarray:
        """Probability of the positive class for each window of a
        [n, length, n_features] array or WindowSet, or for the pooled
        kinds of the [n, n_features] array of the windows' time means."""
        if len(windows) == 0:
            return np.zeros(0)
        X = _model_input(
            self.spec.kind, windows, self.feature_mean, self.feature_std, self.n_features
        )
        z, _ = _architecture(self.spec, self.n_features).raw_scores(self.params, X)
        return _sigmoid(z)


def fit(windows, labels, spec: ClassifierSpec, frame_stats=None) -> TrainedClassifier:
    """Train a classifier with mini-batch SGD on a [n, length, columns]
    array or WindowSet of windows. For the pooled kinds ``windows`` may
    be the [n, columns] array of the windows' time means instead, with
    ``frame_stats`` the (mean, std) that ``frame_statistics`` gives for
    the windows.

    Standardization constants come from the training windows only.
    Positive examples are up-weighted in the loss (see ClassifierSpec).
    Raises NumericError when the loss or the gradient leaves the finite
    range; a single-label training set only sets a flag.
    """
    arch, X, y, mean, std = _training_inputs(windows, labels, spec, frame_stats)
    pos_weight, single_class = resolve_positive_weight(spec, y)

    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    params = arch.init(rng)
    velocity = np.zeros_like(params)
    n = len(y)
    log = []
    X_epoch = np.empty_like(X) if X.ndim == 2 else None
    # Overflow surfaces as a non-finite loss or gradient, which the checks
    # below report; NumPy's own warning would add a second stderr line.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(spec.epochs):
            order = rng.permutation(n)
            y_epoch = y[order]
            pos_y, neg_y = pos_weight * y_epoch, 1.0 - y_epoch
            # Pooled rows are gathered into one buffer per epoch (mode "clip"
            # skips the temporary that "raise" makes) and read in contiguous
            # batches; the convolution's joined tensor is never copied whole.
            if X_epoch is not None:
                np.take(X, order, axis=0, out=X_epoch, mode="clip")
            total = 0.0
            for start in range(0, n, spec.batch_size):
                rows = slice(start, start + spec.batch_size)
                X_batch = X[order[rows]] if X_epoch is None else X_epoch[rows]
                loss, grad = _loss_and_grad(
                    arch, params, X_batch, pos_y[rows], neg_y[rows], spec.l2
                )
                if not math.isfinite(loss):
                    raise NumericError(f"epoch {epoch}: loss became {loss!r}")
                if not np.isfinite(grad).all():
                    raise NumericError(f"epoch {epoch}: gradient left the finite range")
                velocity *= spec.momentum
                velocity -= spec.learning_rate * grad
                params += velocity
                total += loss * len(X_batch)
            log.append(total / n)

    return TrainedClassifier(
        spec=spec,
        n_features=len(mean),
        feature_mean=mean,
        feature_std=std,
        params=params,
        positive_weight=pos_weight,
        single_class=single_class,
        training_log=tuple(log),
    )


_POOL_MARGIN = 1e-3
_MAX_REDRAWS = 32


def grad_check(spec: ClassifierSpec, windows, labels, epsilon: float = 1e-5) -> float:
    """Compare the analytic gradient against central finite differences
    at a freshly initialized parameter vector; returns the worst relative
    error max|ga - gn| / max(|ga| + |gn|, 1e-8) over all parameters.

    For the max-pooling architecture, draws where some channel's top two
    pooled activations nearly tie are rejected and redrawn, since there
    the finite difference straddles a kink.
    """
    arch, X, y, _, _ = _training_inputs(windows, labels, spec)
    pos_weight, _ = resolve_positive_weight(spec, y)
    pos_y, neg_y = pos_weight * y, 1.0 - y

    for child in np.random.SeedSequence(spec.seed).spawn(_MAX_REDRAWS):
        params = arch.init(np.random.default_rng(child))
        if not hasattr(arch, "pool_margin"):
            break
        if arch.pool_margin(arch.raw_scores(params, X)[1]) > _POOL_MARGIN:
            break
    else:
        raise NumericError("could not find a max-pool-stable initialization")

    _, analytic = _loss_and_grad(arch, params, X, pos_y, neg_y, spec.l2)
    worst = 0.0
    for i in range(arch.n_params):
        bumped = params.copy()
        bumped[i] = params[i] + epsilon
        hi, _ = _loss_and_grad(arch, bumped, X, pos_y, neg_y, spec.l2)
        bumped[i] = params[i] - epsilon
        lo, _ = _loss_and_grad(arch, bumped, X, pos_y, neg_y, spec.l2)
        numeric = (hi - lo) / (2.0 * epsilon)
        rel = abs(analytic[i] - numeric) / max(abs(analytic[i]) + abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
