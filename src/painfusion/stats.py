"""Rank statistics, correlation coefficients, normality diagnostics, and
derivation of per-modality fusion weights from feature-label correlations.

All correlation routines return a :class:`CorrelationResult`. Constant input
is never an error: it yields ``degenerate=True`` with coefficient 0 by
convention, which downstream weighting treats as "no relevance".
"""

import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, ZeroVariance
from .modality import ModalityScheme
from .models import pool_windows

STATISTICAL = "statistical"
AVERAGE = "average"
SINGULAR = "singular"

REDUCTIONS = ("mean", "max", "std")


@dataclass(frozen=True)
class CorrelationResult:
    coefficient: float
    degenerate: bool = False


@dataclass(frozen=True)
class NormalityReport:
    """Moment-based normality diagnostics plus Q-Q pairs.

    ``qq_pairs`` is an array of (theoretical_quantile, sample_quantile)
    rows sorted ascending in the theoretical coordinate. The theoretical
    side is the standard-normal quantile at probability (i - 0.5)/n,
    rescaled by the sample mean and standard deviation.
    """

    n: int
    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    jarque_bera_stat: float
    jarque_bera_p: float
    qq_pairs: np.ndarray

    def to_text(self) -> str:
        names = ("n", "mean", "std", "skewness", "excess_kurtosis")
        names += ("jarque_bera_stat", "jarque_bera_p")
        return "".join(f"{name} = {getattr(self, name)!r}\n" for name in names)

    def qq_csv(self) -> str:
        lines = ["theoretical_quantile,sample_quantile"]
        for t, s in self.qq_pairs:
            lines.append(f"{float(t)!r},{float(s)!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FusionWeights:
    """Normalized nonnegative per-modality weights with provenance.

    ``raw_relevance`` holds the pre-normalization aggregate |rho| per
    modality (all 1.0 for average weighting). Weights sum to 1 within
    1e-12 and share the scheme's key set.
    """

    scheme_name: str
    weights: dict[str, float]
    provenance: str
    raw_relevance: dict[str, float]

    def __post_init__(self):
        total = math.fsum(self.weights.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")
        if any(w < 0.0 for w in self.weights.values()):
            raise ValueError("negative weight")
        if set(self.weights) != set(self.raw_relevance):
            raise ValueError("weights/raw_relevance key mismatch")

    def to_text(self) -> str:
        lines = [f"scheme = {self.scheme_name}", f"provenance = {self.provenance}"]
        lines += [f"weight.{name} = {w!r}" for name, w in self.weights.items()]
        lines += [f"raw_relevance.{name} = {r!r}" for name, r in self.raw_relevance.items()]
        return "\n".join(lines) + "\n"


def _as_finite_vector(values, *, min_n: int) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        x = x.reshape(-1)
    if x.size == 0:
        raise DataError("empty input vector")
    if x.size < min_n:
        raise DataError(f"need at least {min_n} samples, got {x.size}")
    if not np.isfinite(x).all():
        raise DataError("input contains NaN or Inf")
    return x


def rank_with_ties(values) -> np.ndarray:
    """Fractional (average) ranks, 1-based; ties share the mean of the
    rank positions they span. The rank sum is exactly n(n+1)/2."""
    x = _as_finite_vector(values, min_n=1)
    order = np.argsort(x, kind="stable")
    return _sorted_ranks(x[order], order)


def _sorted_ranks(xs: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``rank_with_ties`` of x from xs == x[order], sorted; ties share a rank."""
    boundaries = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1], True])
    starts, ends = boundaries[:-1], boundaries[1:]
    # average of 1-based positions start+1 .. end
    group_rank = (starts + ends - 1) * 0.5 + 1.0
    ranks = np.empty(len(xs), dtype=np.float64)
    ranks[order] = np.repeat(group_rank, ends - starts)
    return ranks


def _validate_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=np.float64).reshape(-1)
    ya = np.asarray(y, dtype=np.float64).reshape(-1)
    if xa.size != ya.size:
        raise DataError(f"length {xa.size} vs {ya.size}")
    if xa.size < 3:
        raise DataError(f"need at least 3 samples, got {xa.size}")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise DataError("input contains NaN or Inf")
    return xa, ya


def _centered(x: np.ndarray) -> tuple[np.ndarray, float]:
    xc = x - x.mean()
    return xc, float(np.dot(xc, xc))


def _centered_r(xc, sxx: float, yc, syy: float) -> tuple[float, bool]:
    if sxx <= 0.0 or syy <= 0.0:
        return 0.0, True
    return float(np.dot(xc, yc)) / math.sqrt(sxx * syy), False


def _pearson_coefficient(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    if x.max() == x.min() or y.max() == y.min():
        return 0.0, True
    return _centered_r(*_centered(x), *_centered(y))


def pearson_r(x, y) -> CorrelationResult:
    """Product-moment correlation; constant input is degenerate."""
    xa, ya = _validate_pair(x, y)
    r, degenerate = _pearson_coefficient(xa, ya)
    return CorrelationResult(r, degenerate)


def spearman_rho(x, y) -> CorrelationResult:
    """Spearman's rho as Pearson correlation of fractional ranks.

    Computed rank-then-Pearson rather than via the 6*sum(d^2) shortcut,
    which is invalid under ties (and ties are certain against a binary
    label).
    """
    xa, ya = _validate_pair(x, y)
    if xa.max() == xa.min() or ya.max() == ya.min():
        return CorrelationResult(0.0, True)
    rho, degenerate = _pearson_coefficient(rank_with_ties(xa), rank_with_ties(ya))
    return CorrelationResult(rho, degenerate)


def _merge_count(seq: list) -> tuple[list, int]:
    # counts strict inversions (left > right); ties are not inversions
    n = len(seq)
    if n <= 1:
        return seq, 0
    mid = n // 2
    left, inv_l = _merge_count(seq[:mid])
    right, inv_r = _merge_count(seq[mid:])
    merged = []
    inv = inv_l + inv_r
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            inv += len(left) - i
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inv


def _tied_pair_count(changes: np.ndarray) -> int:
    """Tied pairs of a sorted sequence, given where each value changes."""
    counts = np.diff(np.flatnonzero(np.r_[True, changes, True]))
    return int(sum(int(c) * (int(c) - 1) // 2 for c in counts))


def kendall_tau_b(x, y) -> CorrelationResult:
    """Tie-corrected Kendall tau-b via merge-sort inversion counting.

    Sorting by (x, y) and counting strict inversions in the y sequence
    yields the discordant-pair count in O(n log n); tie corrections come
    from run lengths. All pair counts are exact integers, so the result
    matches direct pair enumeration bit for bit.
    """
    xa, ya = _validate_pair(x, y)
    n = xa.size
    order = np.lexsort((ya, xa))
    xs, ys = xa[order], ya[order]

    n0 = n * (n - 1) // 2
    tx = _tied_pair_count(xs[1:] != xs[:-1])
    y_sorted = np.sort(ya, kind="stable")
    ty = _tied_pair_count(y_sorted[1:] != y_sorted[:-1])
    if tx == n0 or ty == n0:
        return CorrelationResult(0.0, True)

    txy = _tied_pair_count((xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]))

    _, discordant = _merge_count(ys.tolist())
    c_minus_d = n0 - tx - ty + txy - 2 * discordant
    tau = c_minus_d / math.sqrt((n0 - tx) * (n0 - ty))
    return CorrelationResult(tau, False)


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (the standard library's, Wichura's AS241)."""
    if not (0.0 < p < 1.0):
        raise DataError(f"probability must lie strictly in (0, 1), got {p!r}")
    return statistics.NormalDist().inv_cdf(p)


def normality_report(values, qq_points: int | None = None) -> NormalityReport:
    """Sample moments, Jarque-Bera statistic, and Q-Q pairs.

    Skewness and excess kurtosis are the bias-uncorrected moment
    estimators. JB = n*(g1^2/6 + g2^2/24) with the p-value from the
    chi-square(2) upper tail, which is exp(-JB/2).

    ``qq_points`` caps how many Q-Q pairs are materialized: when set and
    smaller than n, an evenly spaced subset of order statistics is used,
    each still at its exact (rank - 0.5)/n plotting position.
    """
    x = _as_finite_vector(values, min_n=8)
    n = x.size
    if x.max() == x.min():
        raise ZeroVariance("constant input has no normality diagnostics")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(x.mean())
        centered = x - mean
        m2 = float(np.mean(centered**2))
        if m2 <= 0.0:
            raise ZeroVariance("zero variance input")
        m3 = float(np.mean(centered**3))
        m4 = float(np.mean(centered**4))
    # m4 >= m2 * m2, so finite moments keep m2 ** 1.5 and m2 * m2 finite.
    if not all(map(math.isfinite, (mean, m2, m3, m4))):
        raise DataError("normality moments overflow (values too large in magnitude)")
    # A tiny spread underflows m2 * m2 (m2 below about 1e-154) or m2 ** 1.5 to 0.
    if m2**1.5 == 0.0 or m2 * m2 == 0.0:
        raise ZeroVariance("variance too small for skewness and kurtosis")
    std = math.sqrt(m2)
    g1 = m3 / m2**1.5
    g2 = m4 / (m2 * m2) - 3.0
    jb = n * (g1 * g1 / 6.0 + g2 * g2 / 24.0)
    jb_p = math.exp(-jb / 2.0)

    xs = np.sort(x, kind="stable")
    if qq_points is not None and qq_points < n:
        idx = np.unique(np.linspace(0, n - 1, qq_points).round().astype(np.int64))
    else:
        idx = np.arange(n)
    probs = (idx + 0.5) / n
    theoretical = np.array([mean + std * normal_quantile(p) for p in probs])
    qq = np.column_stack([theoretical, xs[idx]])
    return NormalityReport(n, mean, std, g1, g2, jb, jb_p, qq)


def recommend_method(pooled: NormalityReport, alpha: float = 0.05) -> list[str]:
    """Correlation-method recommendation lines from a pooled report."""
    rejected = pooled.jarque_bera_p < alpha
    lines = []
    if rejected:
        lines.append(
            f"normality rejected (jarque_bera_p = {pooled.jarque_bera_p:.3g} "
            f"< alpha = {alpha:g}): heavy tails / skew make Pearson and "
            "ANOVA assumptions untenable"
        )
        lines.append(
            "recommendation: opt for Spearman rank correlation "
            "(monotonic association, distribution-free, scales to large n)"
        )
        lines.append(
            "note: Kendall tau-b is an exact alternative for small samples "
            "or heavy ties, but its pair-enumeration oracle is quadratic"
        )
    else:
        lines.append(
            f"normality not rejected (jarque_bera_p = {pooled.jarque_bera_p:.3g} "
            f">= alpha = {alpha:g})"
        )
        lines.append(
            "recommendation: Pearson correlation is admissible; Spearman "
            "remains valid and is used for weighting by default"
        )
    return lines


def normalize_relevances(raw: dict[str, float]) -> dict[str, float] | None:
    """Relevances -> weights by total-sum normalization; None if all zero."""
    total = math.fsum(raw.values())
    if total <= 0.0:
        return None
    return {name: value / total for name, value in raw.items()}


def feature_relevance(windows, labels, reduction: str = "mean") -> np.ndarray:
    """|rho| of every feature column against the window labels.

    ``windows`` is a [n_windows, window_length, n_features] array or a
    ``WindowSet``, each feature reduced over time within its window (mean
    by default), or a 2-D array of reduced windows. Each column's |rho|
    equals ``spearman_rho``'s bit for bit, with the labels ranked once per
    call; a degenerate column scores 0. See ``ranked_relevance``.
    """
    if reduction not in REDUCTIONS:
        raise ConfigError(f"reduction must be one of {REDUCTIONS}, got {reduction!r}")
    reduced_already = isinstance(windows, np.ndarray) and windows.ndim == 2
    reduced = windows if reduced_already else pool_windows(windows, reduction)
    return ranked_relevance(*sort_columns(reduced), labels)


def sort_columns(reduced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A 2-D matrix and the stable argsort of each of its columns, as an
    int32 [columns, rows] array, sorted one column at a time."""
    order = np.empty(reduced.shape[::-1], dtype=np.int32)
    for j, column in enumerate(order):
        column[:] = np.argsort(reduced[:, j], kind="stable")
    return reduced, order


def ranked_relevance(reduced, order, labels, rows=(slice(None),)) -> np.ndarray:
    """``feature_relevance`` of the joined ``rows`` slices of ``reduced``, bit
    for bit, ranked from the ``sort_columns`` order of all of it, which sorts
    those rows too (ties share a rank); finiteness is checked on them alone."""
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    picked = np.concatenate([np.arange(len(reduced))[r] for r in rows])
    if len(picked) == 0:
        raise DataError("no windows")
    if y.size != len(picked):
        raise DataError(f"{len(picked)} windows vs {y.size} labels")
    _validate_pair(y, y)
    if not all(np.isfinite(reduced[r]).all() for r in rows):
        raise DataError("input contains NaN or Inf")
    label = _centered(rank_with_ties(y)) if y.max() != y.min() else None
    position = np.full(len(reduced), -1, dtype=np.int32)  # in the joined rows
    position[picked] = np.arange(len(picked))
    abs_rho = np.zeros(reduced.shape[1])
    for j, run_order in enumerate(order):
        kept = run_order[position[run_order] >= 0]  # the joined rows, by value
        xs = reduced[kept, j]
        if label is not None and xs[0] != xs[-1]:
            rho, degenerate = _centered_r(*_centered(_sorted_ranks(xs, position[kept])), *label)
            abs_rho[j] = 0.0 if degenerate else abs(rho)
    return abs_rho


def relevance_weights(abs_rho, scheme: ModalityScheme) -> FusionWeights:
    """Fusion weights from per-feature relevance: a modality's raw
    relevance is the mean |rho| over its features, normalized to sum 1.
    All-zero relevance falls back to equal weights with provenance
    downgraded to "average"."""
    abs_rho = np.asarray(abs_rho, dtype=np.float64)
    n_features = len(abs_rho)
    for name, indices in scheme.modalities.items():
        if indices and (indices[-1] >= n_features or indices[0] < 0):
            raise ConfigError(
                f"modality {name!r} references feature outside [0, {n_features})"
            )
    raw = {
        name: float(np.mean(abs_rho[np.asarray(indices)]))
        for name, indices in scheme.modalities.items()
    }
    weights = normalize_relevances(raw)
    if weights is None:
        return replace(average_weights(scheme), raw_relevance=raw)
    provenance = SINGULAR if len(scheme.modalities) == 1 else STATISTICAL
    return FusionWeights(scheme.name, weights, provenance, raw)


def modality_weights(
    windows, labels, scheme: ModalityScheme, reduction: str = "mean"
) -> FusionWeights:
    """Fusion weights from per-feature Spearman correlation against
    labels: ``feature_relevance`` followed by ``relevance_weights``."""
    return relevance_weights(feature_relevance(windows, labels, reduction), scheme)


def average_weights(scheme: ModalityScheme) -> FusionWeights:
    """Equal weights over the scheme's modalities (1/M each)."""
    m = len(scheme.modalities)
    weights = {name: 1.0 / m for name in scheme.modalities}
    raw = {name: 1.0 for name in scheme.modalities}
    provenance = SINGULAR if m == 1 else AVERAGE
    return FusionWeights(scheme.name, weights, provenance, raw)


def fusion_weights(weighting: str, scheme: ModalityScheme, relevance) -> FusionWeights:
    """The scheme's weights under a weighting rule: ``relevance_weights``
    for "statistical", ``average_weights`` for "average". ``relevance()``
    is called only for "statistical" and returns ``feature_relevance``."""
    if weighting == STATISTICAL:
        return relevance_weights(relevance(), scheme)
    return average_weights(scheme)
