"""Small binary classifiers trained with class-weighted cross entropy.

Three architectures over a [window_length x 70] feature window:

* ``logistic``: time-mean pooling, then a single linear unit.
* ``mlp``: time-mean pooling, one ReLU hidden layer, linear output.
* ``cnn1d``: temporal convolution (stride 1), ReLU, global max pooling
  over time, linear output.

All parameters live in one flat float64 vector per model (layouts are
documented on the architecture classes; each ends with the output
bias), gradients are hand-derived, and optimization is plain mini-batch
SGD with optional momentum; models that share a train size and
hyperparameters advance in lockstep (``fit_lockstep``). Every
architecture has one interface, over a stack of models of its layout
(a ``_Group``): ``parts``, ``scores`` and ``grads``, which for the
pooled kinds make one stacked matmul per product, whatever the number
of models (see ``_losses_and_grads``). One model is a group of one, in
prediction and ``grad_check`` alike.
Every random draw goes through ``numpy.random.SeedSequence``, and
OpenBLAS, where numpy links it, runs training and prediction on one
thread, so that training is a pure function of (windows, labels, spec),
whatever BLAS's thread count.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import groupby

import numpy as np

from .errors import ConfigError, DataError, NumericError

CLASSIFIER_KINDS = ("logistic", "mlp", "cnn1d")
# The kinds that see a window only through its per-column time mean.
POOLED_KINDS = ("logistic", "mlp")

STD_FLOOR = 1e-8
_OPENBLAS = ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}")


@cache
def _openblas_threads():
    """The (get, set) thread-count functions of numpy's OpenBLAS (wheel or
    system build), or None for another BLAS; looked up once per process."""
    import ctypes

    blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    name = next((n for n in _OPENBLAS if hasattr(blas, n.format("set_num_threads"))), None)
    if name is None:
        return None
    get_threads = getattr(blas, name.format("get_num_threads"))
    set_threads = getattr(blas, name.format("set_num_threads"))
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


@contextmanager
def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread in the block or decorated call:
    its threads change some products' last bits, and in ``--threads``
    worker processes they would crowd the cores."""
    functions = _openblas_threads()
    if functions is None:
        yield
        return
    get_threads, set_threads = functions
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


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
    d = 1.0 + e
    # e / d, overwritten by 1 / d where z >= 0: the bits of np.where.
    return np.divide(1.0, d, out=e / d, where=z >= 0)


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite: ``np.isfinite(a).all()``
    without ``ndarray.all``'s Python wrapper, which a step would pay
    three times."""
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


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

    def parts(self, S):
        """w of a [M, n_params] stack, as [M, d, 1]."""
        return (S[:, :-1, None],)

    def scores(self, parts, X, Z):
        (w,) = parts
        np.matmul(X, w, out=Z)

    def grads(self, parts, X, cache, DZ, grad_parts):
        (gw,) = grad_parts
        np.matmul(X.transpose(0, 2, 1), DZ, out=gw)


class _Mlp:
    """Flat layout: [W1: d*h, row-major][b1: h][w2: h][b2: 1]."""

    def __init__(self, spec: ClassifierSpec, n_features: int):
        self.d, self.h = n_features, spec.hidden_units
        self.n_params = self.d * self.h + self.h + self.h + 1

    def init(self, rng) -> np.ndarray:
        d, h = self.d, self.h
        params = np.zeros(self.n_params)
        params[: d * h] = _he_uniform(rng, d, d * h)
        params[d * h + h : d * h + 2 * h] = _he_uniform(rng, h, h)
        return params

    def parts(self, S):
        """W1, b1 and w2 of a [M, n_params] stack, as [M, d, h], [M, 1, h]
        and [M, h, 1]."""
        d, h = self.d, self.h
        W1 = S[:, : d * h].reshape(-1, d, h)
        return W1, S[:, None, -2 * h - 1 : -h - 1], S[:, -h - 1 : -1, None]

    def scores(self, parts, X, Z):
        W1, b1, w2 = parts
        pre = np.matmul(X, W1)
        pre += b1
        hidden = np.maximum(pre, 0.0)
        np.matmul(hidden, w2, out=Z)
        return pre, hidden

    def grads(self, parts, X, cache, DZ, grad_parts):
        (_, _, w2), (gW1, gb1, gw2), (pre, hidden) = parts, grad_parts, cache
        dpre = DZ * w2.transpose(0, 2, 1)
        dpre *= pre > 0.0
        np.matmul(X.transpose(0, 2, 1), dpre, out=gW1)
        gb1[:] = np.add.reduce(dpre, axis=1, keepdims=True)
        np.matmul(hidden.transpose(0, 2, 1), DZ, out=gw2)


class _Cnn1d:
    """Flat layout: [W: C*K*d, (channel, tap, feature) order][b_conv: C]
    [w: C][b: 1]. The convolution slides over time with stride 1, so a
    window of T frames yields T - K + 1 activations per channel before
    the global max pool. Its ``parts`` are the rows of a stack, and
    ``scores`` and ``grads`` run ``_forward`` and ``_backward`` model by
    model; a model's cache is (act, relu, peak, pooled), and
    ``_backward`` writes its gradient row but the output bias."""

    def __init__(self, spec: ClassifierSpec, n_features: int):
        self.d = n_features
        self.C, self.K = spec.conv_channels, spec.kernel_width
        self.n_params = self.C * self.K * self.d + self.C + self.C + 1

    def _unpack(self, params):
        C, K = self.C, self.K
        W = params[: -2 * C - 1].reshape(C, K, -1)
        b_conv = params[-2 * C - 1 : -C - 1]
        w = params[-C - 1 : -1]
        b = params[-1]
        return W, b_conv, w, b

    def init(self, rng) -> np.ndarray:
        C, K, d = self.C, self.K, self.d
        params = np.zeros(self.n_params)
        params[: C * K * d] = _he_uniform(rng, K * d, C * K * d)
        params[C * K * d + C : C * K * d + 2 * C] = _he_uniform(rng, C, C)
        return params

    def _forward(self, params, X):
        W, b_conv, w, _ = self._unpack(params)
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
        peak = (np.arange(B)[:, None], relu.argmax(axis=1), np.arange(C))
        pooled = relu[peak]
        return pooled @ w, (act, relu, peak, pooled)

    def _backward(self, params, X, cache, dz, grad):
        act, relu, peak, pooled = cache
        _, _, w, _ = self._unpack(params)
        (B, T, d), C, K = X.shape, self.C, self.K
        span = act.shape[1]
        drelu = np.zeros_like(relu)
        drelu[peak] = np.outer(dz, w)
        dact = drelu * (act > 0.0)
        # Tap k of filter c saw frame t + k for activation t: place dact
        # there, and one matmul against the frames gives every tap's
        # gradient in the (channel, tap, feature) order of the layout.
        shifted = np.zeros((B, T, C, K))
        for k in range(K):
            shifted[:, k : k + span, :, k] = dact
        grad[: C * K * d] = (shifted.reshape(-1, C * K).T @ X.reshape(-1, d)).reshape(-1)
        grad[C * K * d : C * K * d + C] = dact.sum(axis=(0, 1))
        grad[C * K * d + C : C * K * d + 2 * C] = pooled.T @ dz

    def parts(self, S):
        return S

    def scores(self, parts, X, Z):
        caches = []
        for p, x, z in zip(parts, X, Z):
            z[:, 0], cache = self._forward(p, x)
            caches.append(cache)
        return caches

    def grads(self, parts, X, caches, DZ, grad_parts):
        for p, x, cache, dz, grad in zip(parts, X, caches, DZ, grad_parts):
            self._backward(p, x, cache, dz[:, 0], grad)

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


class _Group:
    """Models of one parameter layout at rows ``rows`` of a lockstep's
    [M, width] stacks, which hold each model's flat vector right-aligned.
    Its views are built once: ``P`` and ``G`` of those rows' parameters
    and gradients, and their ``arch.parts``, the layout's parts as
    stacked-matmul operands. ``inputs`` are the models' (source, index)
    pairs from ``_model_input``, which ``batch`` gathers from.

    An architecture's ``scores(parts, X, Z)`` writes each model's scores
    but the output bias into the [models, m, 1] Z and returns a cache, and
    ``grads(parts, X, cache, DZ, grad_parts)`` the gradient of every part
    but the output bias, given DZ, that of the scores, shaped as Z. Every
    layout ends with that bias, which ``_scores`` and ``_grads`` handle
    over all rows."""

    def __init__(self, arch, rows: slice, P, G, inputs=()):
        self.arch, self.rows, self.inputs, self._buffers = arch, rows, inputs, {}
        self.P, self.G = (S[rows, S.shape[1] - arch.n_params :] for S in (P, G))
        self.parts, self.grad_parts = arch.parts(self.P), arch.parts(self.G)
        self.norm_operands = self.P[:, None, :], self.P[:, :, None]

    def batch(self, order, rows: slice) -> np.ndarray:
        """The group's [models, m, ...] batch: each model's windows at
        ``rows`` of its row of the epoch's window order ``order``, a
        C-ordered [m, ...] slice per model, as a lone model's batch is."""
        picks = order[self.rows, rows]
        if isinstance(self.arch, _Cnn1d):
            ((source, index),) = self.inputs
            return _windows_at(source, index[picks[0]])[None]
        m = picks.shape[1]
        if m not in self._buffers:
            buffer = np.empty((len(picks), m, self.arch.d))
            self._buffers[m] = buffer, list(buffer)
        buffer, slots = self._buffers[m]
        # A pooled input's index counts its rows, so the picks are rows. No
        # pick is out of range; "clip" lets take write into out, where
        # "raise" would gather into a buffer and copy it over.
        for (source, _), pick, out in zip(self.inputs, picks, slots):
            source.take(pick, axis=0, out=out, mode="clip")
        return buffer


def _alone(arch, params) -> _Group:
    """A group of one model, with flat parameters ``params`` and a
    gradient row of its own."""
    P = params[None]
    return _Group(arch, slice(0, 1), P, np.empty_like(P))


class _Stacks:
    """The step arrays of the models of ``groups`` on batches of m
    windows: the [M, m] scores Z, their gradient DZ and the [M, 1, 1] L2
    norms (``norm_column`` their [M] view), with ``views``, each group's
    rows of the three, Z and DZ as the [models, m, 1] operands of its
    stacked matmuls. A lockstep builds them once per batch size."""

    def __init__(self, groups, m: int):
        M = groups[-1].rows.stop
        self.Z, self.DZ, self.norms = np.empty((M, m)), np.empty((M, m)), np.empty((M, 1, 1))
        self.norm_column = self.norms[:, 0, 0]
        self.views = [
            (self.Z[g.rows, :, None], self.DZ[g.rows, :, None], self.norms[g.rows]) for g in groups
        ]


def _scores(groups, batches, P, stacks=None):
    """The [M, m] scores of the models of ``groups``, whose parameters P
    holds, on the groups' [models, m, ...] batches, written into the Z of
    ``stacks`` (new ones when None), and each group's cache."""
    stacks = _Stacks(groups, len(batches[0][0])) if stacks is None else stacks
    caches = [g.arch.scores(g.parts, X, Z) for g, X, (Z, *_) in zip(groups, batches, stacks.views)]
    stacks.Z += P[:, -1:]
    return stacks.Z, caches


def _grads(groups, batches, caches, stacks, G):
    """Write into G the gradients, given the DZ of ``stacks``, of a loss
    of ``_scores``."""
    for g, X, cache, (_, DZ, _) in zip(groups, batches, caches, stacks.views):
        g.arch.grads(g.parts, X, cache, DZ, g.grad_parts)
    G[:, -1] = np.add.reduce(stacks.DZ, axis=1)


def _cross_entropy(Z, y, weight):
    """Per row of the [M, m] scores Z, the mean class-weighted cross
    entropy against the boolean labels y, positive examples weighted by
    the row's ``weight`` ([M, 1]); and each example's weight, [M, m].

    Each example pays the one softplus its label reads, via logaddexp:
    softplus(-z) = -log(sigmoid(z)) where y = 1, softplus(z) where y = 0.
    For finite scores that is the two-term form weight * y * softplus(-z)
    + (1 - y) * softplus(z) bit for bit: softplus is finite and >= 0
    there, 0 * finite is +0.0, and x + 0.0 == x for every x >= 0. Any
    non-finite score takes the two-term form, whose NaN or inf the
    lockstep reports."""
    scale = np.where(y, weight, 1.0)
    if _finite(Z):
        per_example = np.logaddexp(0.0, np.where(y, -Z, Z))
        per_example *= scale
    else:
        per_example = weight * y * np.logaddexp(0.0, -Z) + (1.0 - y) * np.logaddexp(0.0, Z)
    return np.add.reduce(per_example, axis=1) / Z.shape[1], scale


def _losses_and_grads(groups, batches, y, weight, l2, P, G, stacks=None):
    """Each of M models' mean class-weighted cross entropy plus its L2
    penalty, with the gradients written into G. Row i of the [M, width]
    stacks P and G holds model i's flat parameters and gradient
    right-aligned, so that the tail of every layout (biases, output
    weights) lines up in columns. ``batches`` holds each ``_Group``'s
    [models, m, ...] batch; ``y`` is the [M, m] boolean labels and
    ``weight`` the [M, 1] positive weights. The step's arrays are those
    of ``stacks`` (``_Stacks``; new ones when None).

    A group makes one stacked matmul per product (the architecture's,
    and the L2 term's [1, n] @ [n, 1] per row). NumPy's matmul loops over
    the stack, making for each model the gemv, gemm or ddot call that a
    lone model makes at the same shape and strides; every other step is
    elementwise or a per-row reduction over the stacks, so model i gets
    the bits it would get alone."""
    stacks = _Stacks(groups, y.shape[1]) if stacks is None else stacks
    Z, caches = _scores(groups, batches, P, stacks)
    losses, scale = _cross_entropy(Z, y, weight)
    for g, (_, _, norms) in zip(groups, stacks.views):
        np.matmul(*g.norm_operands, out=norms)
    losses += l2 * stacks.norm_column
    # (s - y) * scale is weight * y * (s - 1) + (1 - y) * s bit for bit,
    # as 0 * (s - 1) and 0 * s add nothing to a sigmoid s in [0, 1].
    DZ = np.subtract(_sigmoid(Z), y, out=stacks.DZ)
    DZ *= scale
    DZ /= Z.shape[1]
    _grads(groups, batches, caches, stacks, G)
    G += 2.0 * l2 * P
    return losses


def _loss_and_grad(arch, params, X, y, pos_weight, l2):
    """One model's loss and gradient through ``_losses_and_grads``, on
    the windows X with the 0/1 labels y."""
    group, weight = _alone(arch, params), np.array([[pos_weight]])
    losses = _losses_and_grads([group], [X[None]], y[None] == 1.0, weight, l2, group.P, group.G)
    return float(losses[0]), group.G[0]


BLOCK_WINDOWS = 256


class WindowSet:
    """An [n, length, width] stack of windows that is never joined: it
    holds each sequence's read-only [n_frames, width] frames and the
    window length and stride. ``shape`` is the joined stack's, ``len``
    its window count and ``counts`` each sequence's.

    Pooling and the frame statistics reduce strided views of the frames
    (``_spans``), and the convolution reads the frames (``_model_input``).
    """

    def __init__(self, frames, length: int, stride: int, width: int):
        self.frames, self.stride = tuple(frames), stride
        self.counts = tuple(max(0, (len(f) - length) // stride + 1) for f in self.frames)
        self.shape = (sum(self.counts), length, width)

    def __len__(self) -> int:
        return self.shape[0]


def _spans(windows: WindowSet):
    """(first window index, frames) pairs in window order: a view of the
    frames of at most BLOCK_WINDOWS windows of one sequence."""
    offset, (_, length, _), stride = 0, windows.shape, windows.stride
    for frames, count in zip(windows.frames, windows.counts):
        for start in range(0, count, BLOCK_WINDOWS):
            stop = min(count, start + BLOCK_WINDOWS)
            yield offset + start, frames[start * stride : (stop - 1) * stride + length]
        offset += count


def _windows_of(span: np.ndarray, windows: WindowSet) -> np.ndarray:
    """The [n, length, width] windows of a C-ordered span (F order sums differently)."""
    view = np.lib.stride_tricks.sliding_window_view(span, windows.shape[1], axis=0)
    return view[:: windows.stride].transpose(0, 2, 1)


def _column_index(columns):
    """An index for the last axis: a slice for all columns or for one
    ascending run, which reads a view so that the input costs one copy
    rather than two; else the index list."""
    if columns is None:
        return slice(None)
    columns = list(columns)
    first = columns[0] if columns else 0
    if columns == list(range(first, first + len(columns))):
        return slice(first, first + len(columns))
    return columns


def _as_windows(windows, width=None) -> WindowSet:
    """Windows as a WindowSet (a 3-D array becomes one sequence of its
    windows' frames); ``width``, when given, is the required column count."""
    if not isinstance(windows, WindowSet):
        array = np.asarray(windows, dtype=np.float64)
        if array.ndim != 3:
            raise DataError(
                f"windows have shape {array.shape}, expected [n, length, {width or 'columns'}]"
            )
        n, length, d = array.shape
        windows = WindowSet([array.reshape(n * length, d)], length, length, d)
    if width not in (None, windows.shape[2]):
        raise DataError(f"windows have shape {windows.shape}, expected [n, length, {width}]")
    return windows


def pool_windows(windows, reduction: str = "mean") -> np.ndarray:
    """The [n, columns] reduction of every window over its frames
    (``mean``, ``max`` or ``std``), read in place, a span at a time."""
    windows = _as_windows(windows)
    pooled = np.empty((len(windows), windows.shape[2]))
    for start, span in _spans(windows):
        view = _windows_of(np.ascontiguousarray(span, dtype=np.float64), windows)
        pooled[start : start + len(view)] = getattr(view, reduction)(axis=1)
    return pooled


def _frame_sum(windows: WindowSet, center=None) -> np.ndarray:
    """Sum over every (window, frame) row of the values, or with
    ``center`` of their squared deviations from it. Each span is copied
    once (centred and squared), adds the running total into its first row
    and its windows' view is summed row by row: the order in which NumPy
    sums a C-ordered [n, length, width] tensor over axes (0, 1), width > 1."""
    total = np.zeros(windows.shape[2])
    for _, span in _spans(windows):
        if center is None:
            span = np.array(span, np.float64, order="C")
        else:
            span = np.subtract(span, center, order="C")
            span *= span
        span[0] += total
        total = np.add.reduce(_windows_of(span, windows), axis=(0, 1))
    return total


def sequence_moments(windows) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per sequence with a window, in sequence order, the moments of its
    frames over its windows alone: (frame count, per-feature mean, sum of
    squared deviations from that mean), by ``_frame_sum``. A frame shared
    by overlapping windows counts once per window that holds it."""
    windows = _as_windows(windows)
    (_, length, width), moments = windows.shape, []
    with np.errstate(over="ignore"):
        for frames, count in zip(windows.frames, windows.counts):
            if count:
                alone = WindowSet([frames], length, windows.stride, width)
                mean = _frame_sum(alone) / (count * length)
                moments.append((count * length, mean, _frame_sum(alone, mean)))
    return moments


def merge_moments(moments: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and std of the frames of a list of
    ``sequence_moments`` entries, merged in order by Chan, Golub and
    LeVeque's pairwise update (1983), with the std floored at STD_FLOOR to
    keep constant features harmless. One entry gives its own mean and sqrt(m2 / count): for one
    sequence of two or more columns, ``mean``/``std(axis=(0, 1))`` of its
    joined window tensor bit for bit. No entry, or a column whose sums
    overflow, from values too large to square, raises DataError."""
    if not moments:
        raise DataError("no window to take frame statistics from")
    count, mean, m2 = moments[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for n, other_mean, other_m2 in moments[1:]:
            total = count + n
            delta = other_mean - mean
            mean = mean + delta * (n / total)
            m2 = m2 + other_m2 + delta * delta * (count * n / total)
            count = total
        std = np.sqrt(m2 / count)
    overflowed = np.flatnonzero(~np.isfinite(std))
    if len(overflowed):
        raise DataError(
            f"feature column {overflowed[0]}: frame std overflows (values too large in magnitude)"
        )
    return mean, np.maximum(std, STD_FLOOR)


def frame_statistics(windows) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and std over every frame of every window, each
    sequence's moments merged in order (``merge_moments``)."""
    return merge_moments(sequence_moments(windows))


def _model_input(kind: str, windows, mean, std, width: int, columns=None):
    """A model's standardized input, a source and an index such that
    ``_windows_at(source, index[i])`` is window i, from ``columns`` (all
    when None) of width-column windows. For the pooled kinds the source
    is the time means (a 2-D ``windows`` as it is, in any layout, else the
    pooled windows) in C order (a Fortran-ordered one takes another BLAS
    path) and the index counts its rows; else it is the [starts, length,
    columns] strided window view of the joined frames, indexed by each
    window's first frame."""
    index = _column_index(columns)
    if kind in POOLED_KINDS:
        if not (isinstance(windows, np.ndarray) and windows.ndim == 2):
            windows = pool_windows(_as_windows(windows, width))
        if windows.shape[1] != width:
            raise DataError(f"pooled windows have shape {windows.shape}, expected [n, {width}]")
        X = np.subtract(windows[:, index], mean, order="C")
        X /= std
        return X, np.arange(len(X))
    windows = _as_windows(windows, width)
    X = np.empty((sum(len(f) for f in windows.frames), width if columns is None else len(columns)))
    starts, offset, length = [], 0, windows.shape[1]
    for frames in windows.frames:
        np.subtract(frames[:, index], mean, out=X[offset : offset + len(frames)])
        starts.append(np.arange(offset, offset + len(frames) - length + 1, windows.stride))
        offset += len(frames)
    X /= std
    starts = np.concatenate(starts)
    if len(X) < length:  # no window, and too few frames for a view
        return np.empty((0, length, X.shape[1])), starts
    return np.lib.stride_tricks.sliding_window_view(X, length, axis=0).transpose(0, 2, 1), starts


def _windows_at(source, index) -> np.ndarray:
    """The windows of a model input (``_model_input``) at ``index``, a new
    C-ordered array: ``take`` from the pooled kinds' rows, a fancy index
    into cnn1d's window view, which ``take`` would first copy whole."""
    return source.take(index, axis=0) if source.ndim == 2 else source[index]


def _training_labels(windows, labels) -> np.ndarray:
    """The labels as floats, after checking them against the windows."""
    if len(windows) == 0:
        raise DataError("no training windows")
    if len(windows) != len(labels):
        raise DataError(f"{len(windows)} windows vs {len(labels)} labels")
    y = np.asarray(labels, dtype=np.float64)
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("training labels must be 0 or 1")
    return y


def resolve_positive_weight(spec: ClassifierSpec, y: np.ndarray) -> tuple[float, bool]:
    n_pos = int(y.sum())
    single_class = n_pos in (0, len(y))
    if spec.positive_class_weight is not None:
        return float(spec.positive_class_weight), single_class
    return (1.0 if single_class else (len(y) - n_pos) / n_pos), single_class


@dataclass(frozen=True)
class TrainedClassifier:
    """A fitted model: spec, standardization constants, flat parameters,
    the per-epoch training losses, and the ``columns`` (all when None) of
    an ``n_features``-column input that it reads. ``single_class`` records
    that the training set contained only one label value."""

    spec: ClassifierSpec
    n_features: int
    feature_mean: np.ndarray
    feature_std: np.ndarray
    params: np.ndarray
    positive_weight: float
    single_class: bool
    training_log: tuple[float, ...] = field(repr=False, default=())
    columns: tuple[int, ...] | None = None

    @_one_blas_thread()
    def predict_proba_windows(self, windows) -> np.ndarray:
        """Probability of the positive class for each window of a
        [n, length, n_features] array or WindowSet, or for the pooled
        kinds of the [n, n_features] array of the windows' time means."""
        mean, std, width = self.feature_mean, self.feature_std, self.n_features
        source, index = _model_input(self.spec.kind, windows, mean, std, width, self.columns)
        group = _alone(_architecture(self.spec, len(mean)), self.params)
        # BLOCK_WINDOWS at a time, the last block taking the remainder: BLAS
        # gives small products other kernels and can change a row's bits.
        ends = range(BLOCK_WINDOWS, len(index) - BLOCK_WINDOWS + 1, BLOCK_WINDOWS)
        blocks = np.split(index, ends)
        z = [_scores([group], [_windows_at(source, b)[None]], group.P)[0][0] for b in blocks]
        return _sigmoid(np.concatenate(z))


def fit(windows, labels, spec: ClassifierSpec, frame_stats=None) -> TrainedClassifier:
    """Train a classifier with mini-batch SGD on a [n, length, columns]
    array or WindowSet of windows. For the pooled kinds ``windows`` may
    be the [n, columns] array of the windows' time means instead, with
    ``frame_stats`` the (mean, std) that ``frame_statistics`` gives for
    the windows.

    Standardization constants come from the training windows only.
    Positive examples are up-weighted in the loss (see ClassifierSpec).
    Raises NumericError when the loss or the gradient leaves the finite
    range; a single-label training set only sets a flag. This is
    ``fit_lockstep`` with one set of one model.
    """
    (models,) = fit_lockstep(spec, [(windows, labels, frame_stats, [(spec.seed, None)])])
    if isinstance(models, NumericError):
        raise models
    return models[0]


@_one_blas_thread()
def fit_lockstep(spec: ClassifierSpec, sets) -> list:
    """Train models side by side, all with ``spec`` but for their seeds, on
    one or more training sets. ``sets`` yields (windows, labels,
    frame_stats, models) tuples, with windows and frame statistics as
    ``fit`` takes them and ``models`` a list of (seed, columns) pairs: that
    model reads and records the feature columns ``columns`` (every column
    when None). Each model gets the bits of ``fit`` with its seed on those
    columns of its set's windows, with the matching entries of the set's
    frame statistics (when None, the ``frame_statistics`` of all the
    columns). ``sets`` is read once, in order, and each set's windows are
    let go before the next set is read, so a caller may build them on
    demand.

    All the models share the train window count. Each keeps its own labels
    (hence its positive weight), its own RNG (initialization, then one
    permutation per epoch) and its own unchanging standardized input, from
    which it gathers each batch's windows in the epoch's order. Models of
    one parameter layout form a group (``_Group``; a cnn1d model is a
    group of one) at consecutive rows of the stacks, and a step gathers
    each group's batch once and makes one stacked matmul per product; the
    output bias, loss terms, row sums, sigmoid, L2 term, finiteness checks
    and momentum update run once per step over all the models (see
    ``_losses_and_grads``). Results and errors keep the input order.

    Returns, per set, its trained models, or for a set that diverged a
    NumericError for the first of its models, in input order, whose loss
    or gradient left the finite range at the set's first diverging step,
    with the error's ``model`` that model's index in the set and its
    ``step`` that step's count from 0, over all epochs. From that
    step on the set's models are masked: their rows stay in the stacks and
    are computed until the lockstep ends or no set is live, but nothing
    reads them, and every step is elementwise, per row or per model, so
    the other sets train on to their own bits. A diverged set fails its
    command, so that cost falls on the failure path only.
    """
    spec.validate()
    ys, owner, inputs, archs, models = [], [], [], [], []
    for windows, labels, frame_stats, set_models in sets:
        y = _training_labels(windows, labels)
        pos_weight, single_class = resolve_positive_weight(spec, y)
        mean, std = frame_statistics(windows) if frame_stats is None else frame_stats
        width = len(mean)
        for seed, given in set_models:
            c = list(range(width)) if given is None else list(given)
            # Each model standardizes its own copy of its columns,
            # elementwise, so it gets the bits of a model given only those.
            inputs.append(_model_input(spec.kind, windows, mean[c], std[c], width, c))
            archs.append(_architecture(spec, len(c)))
            models.append(
                TrainedClassifier(
                    spec=replace(spec, seed=seed),
                    n_features=width,
                    feature_mean=mean[c],
                    feature_std=std[c],
                    params=None,
                    positive_weight=pos_weight,
                    single_class=single_class,
                    columns=None if given is None else tuple(c),
                )
            )
            owner.append(len(ys))
        ys.append(y)
        del windows  # a set built on demand is freed before the next one
    if any(len(y) != len(ys[0]) for y in ys):
        raise ConfigError("models trained in lockstep must share a train window count")

    # Models of one parameter layout form a group at consecutive rows, in
    # input order (a cnn1d model is a group of one): slot s trains model
    # slots[s], and model i sits at slot at[i].
    keys = [a.n_params if spec.kind in POOLED_KINDS else i for i, a in enumerate(archs)]
    slots = sorted(range(len(models)), key=lambda i: keys.index(keys[i]))
    at = np.argsort(slots).tolist()
    models, archs, inputs = ([items[i] for i in slots] for items in (models, archs, inputs))
    P = np.zeros((len(models), max(a.n_params for a in archs)))
    velocity, G = np.zeros_like(P), np.zeros_like(P)
    groups = []
    for _, run in groupby(range(len(slots)), key=lambda s: keys[slots[s]]):
        run = list(run)
        rows = slice(run[0], run[-1] + 1)
        groups.append(_Group(archs[run[0]], rows, P, G, inputs[rows]))
    params = [p for group in groups for p in group.P]
    rngs = [np.random.default_rng(np.random.SeedSequence(m.spec.seed)) for m in models]
    for p, a, rng in zip(params, archs, rngs):
        p[:] = a.init(rng)
    Y, owners = np.array(ys) == 1.0, np.array(owner)[slots]
    weights = np.array([[m.positive_weight] for m in models])
    n, live, logs, errors = len(ys[0]), np.ones(len(models), bool), [[] for _ in models], {}
    starts = range(0, n, spec.batch_size)
    # The step arrays of a full batch and of the last one.
    stacks = {m: _Stacks(groups, m) for m in (min(spec.batch_size, n), n - starts[-1])}
    # Overflow surfaces as a non-finite loss or gradient, which the checks
    # below report; NumPy's own warning would add a second stderr line.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(spec.epochs):
            order = np.array([rng.permutation(n) for rng in rngs])
            y_epoch = Y[owners[:, None], order]
            totals = np.zeros(len(models))
            for step, start in enumerate(starts, epoch * len(starts)):
                rows = slice(start, start + spec.batch_size)
                batches = [group.batch(order, rows) for group in groups]
                y = y_epoch[:, rows]
                step_stacks = stacks[y.shape[1]]
                losses = _losses_and_grads(groups, batches, y, weights, spec.l2, P, G, step_stacks)
                if not (_finite(losses) and _finite(G)):
                    finite = np.isfinite(losses) & np.isfinite(G).all(axis=1)
                    # Mask every set that diverges at this step, naming its
                    # first diverging model in input order.
                    for i in sorted(slots[s] for s in np.flatnonzero(live & ~finite)):
                        g, loss = owner[i], float(losses[at[i]])
                        if g not in errors:
                            reason = "gradient left the finite range"
                            if not math.isfinite(loss):
                                reason = f"loss became {loss!r}"
                            errors[g] = NumericError(f"epoch {epoch}: {reason}")
                            errors[g].model, errors[g].step = owner[:i].count(g), step
                    live &= ~np.isin(owners, list(errors))
                    if not live.any():
                        break
                velocity *= spec.momentum
                velocity -= spec.learning_rate * G
                P += velocity
                totals += losses * y.shape[1]
            if not live.any():
                break
            for log, total in zip(logs, (totals / n).tolist()):
                log.append(total)

    outcomes = [[] for _ in ys]
    for g, s in zip(owner, at):
        outcomes[g].append(replace(models[s], params=params[s].copy(), training_log=tuple(logs[s])))
    return [errors.get(g, trained) for g, trained in enumerate(outcomes)]


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
    spec.validate()
    y = _training_labels(windows, labels)
    mean, std = frame_statistics(windows)
    arch = _architecture(spec, len(mean))
    X = _windows_at(*_model_input(spec.kind, windows, mean, std, len(mean)))
    pos_weight, _ = resolve_positive_weight(spec, y)

    for child in np.random.SeedSequence(spec.seed).spawn(_MAX_REDRAWS):
        params = arch.init(np.random.default_rng(child))
        if not hasattr(arch, "pool_margin"):
            break
        group = _alone(arch, params)
        if arch.pool_margin(_scores([group], [X[None]], group.P)[1][0][0]) > _POOL_MARGIN:
            break
    else:
        raise NumericError("could not find a max-pool-stable initialization")

    _, analytic = _loss_and_grad(arch, params, X, y, pos_weight, spec.l2)
    worst = 0.0
    for i in range(arch.n_params):
        bumped = params.copy()
        bumped[i] = params[i] + epsilon
        hi, _ = _loss_and_grad(arch, bumped, X, y, pos_weight, spec.l2)
        bumped[i] = params[i] - epsilon
        lo, _ = _loss_and_grad(arch, bumped, X, y, pos_weight, spec.l2)
        numeric = (hi - lo) / (2.0 * epsilon)
        rel = abs(analytic[i] - numeric) / max(abs(analytic[i]) + abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
