"""Decision-level fusion of per-modality classifier outputs.

Soft voting sums weight * probability over modalities and compares the
result against a decision threshold (ties go to the positive class).
Hard voting first thresholds each modality, then weighs the votes.
"""

import math

import numpy as np

from .errors import ConfigError, DataError, InternalError
from .stats import FusionWeights

VOTE_MODES = ("soft", "hard")


def check_threshold(threshold: float) -> None:
    if not (math.isfinite(threshold) and 0.0 < threshold < 1.0):
        raise ConfigError(f"decision threshold must lie strictly in (0, 1), got {threshold!r}")


def check_mode(mode: str) -> None:
    if mode not in VOTE_MODES:
        raise ConfigError(f"vote mode must be one of {VOTE_MODES}, got {mode!r}")


def _check_keys(probas_keys, weights: FusionWeights) -> list[str]:
    got, want = set(probas_keys), set(weights.weights)
    if got != want:
        raise InternalError(
            f"modalities {sorted(got)} do not match weight table {sorted(want)}"
        )
    return sorted(want)


def fuse_batch(
    probas: dict[str, np.ndarray],
    weights: FusionWeights,
    threshold: float = 0.5,
    mode: str = "soft",
) -> tuple[np.ndarray, np.ndarray]:
    """Combine aligned per-modality probability arrays into one decision
    per window; returns (fused_probabilities, labels) in input order.

    Accumulation runs in sorted key order, so the result is independent
    of the dict's insertion order.
    """
    check_threshold(threshold)
    check_mode(mode)
    names = _check_keys(probas.keys(), weights)
    lengths = {name: len(probas[name]) for name in names}
    if len(set(lengths.values())) > 1:
        raise DataError(f"modality arrays differ in length: {lengths}")
    n = lengths[names[0]]
    fused = np.zeros(n)
    for name in names:
        p = np.asarray(probas[name], dtype=np.float64)
        bad = ~(np.isfinite(p) & (p >= 0.0) & (p <= 1.0))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise InternalError(
                f"modality {name!r}, window {i}: probability {float(p[i])!r}"
            )
        votes = p if mode == "soft" else (p >= threshold).astype(np.float64)
        fused += weights.weights[name] * votes
    labels = (fused >= threshold).astype(np.int8)
    return fused, labels
