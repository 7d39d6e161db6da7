"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (pair
enumeration, two-pass sums, arbitrary-precision special functions) so
that agreement with the fast implementations is meaningful evidence.
Nothing in this module imports from painfusion.
"""

import math

import mpmath
import numpy as np


def rank_oracle(values):
    """Fractional ranks by O(n^2) counting: for each element, the number
    of strictly smaller elements plus (tied count + 1) / 2."""
    v = np.asarray(values, dtype=np.float64)
    out = np.empty(len(v))
    for i, x in enumerate(v):
        smaller = int(np.sum(v < x))
        tied = int(np.sum(v == x))
        out[i] = smaller + (tied + 1) / 2.0
    return out


def pearson_oracle(x, y):
    """Textbook two-pass product-moment correlation."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mx = x.mean()
    my = y.mean()
    dx = x - mx
    dy = y - my
    denom = np.sqrt(np.sum(dx * dx)) * np.sqrt(np.sum(dy * dy))
    if denom == 0.0:
        return None
    return float(np.sum(dx * dy) / denom)


def spearman_oracle(x, y):
    """Rank both inputs with the counting oracle, then textbook Pearson."""
    return pearson_oracle(rank_oracle(x), rank_oracle(y))


def kendall_oracle(x, y):
    """Tau-b by full pair enumeration.

    Concordant, discordant, and tied pair counts are exact integers, so
    the only floating-point step is the final division; it is written
    the same way as in the package so agreement must be bit-for-bit.
    Returns None when either input is constant (tau-b undefined).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(len(x), k=1)
    prod = sx[iu] * sy[iu]
    concordant = int(np.sum(prod > 0))
    discordant = int(np.sum(prod < 0))
    n0 = len(iu[0])
    ties_x = int(np.sum(sx[iu] == 0))
    ties_y = int(np.sum(sy[iu] == 0))
    if ties_x == n0 or ties_y == n0:
        return None
    return (concordant - discordant) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def normal_quantile_oracle(p, dps=50):
    """Standard normal inverse CDF through arbitrary-precision erfinv."""
    with mpmath.workdps(dps):
        return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))


def metric_oracle(tp, fp, fn, tn):
    """Closed-form confusion metrics with the 0/0 -> 0 convention.

    Returns a dict keyed like MetricSet fields, plus a 'degenerate'
    flag that is true when any ratio hit 0/0.
    """

    degenerate = False

    def ratio(num, den):
        nonlocal degenerate
        if den == 0:
            degenerate = True
            return 0.0
        return num / den

    def f1(p, r):
        nonlocal degenerate
        if p + r == 0.0:
            degenerate = True
            return 0.0
        return 2.0 * p * r / (p + r)

    total = tp + fp + fn + tn
    precision_pos = ratio(tp, tp + fp)
    recall_pos = ratio(tp, tp + fn)
    precision_neg = ratio(tn, tn + fn)
    recall_neg = ratio(tn, tn + fp)
    return {
        "accuracy": ratio(tp + tn, total),
        "precision_pos": precision_pos,
        "recall_pos": recall_pos,
        "f1_pos": f1(precision_pos, recall_pos),
        "precision_neg": precision_neg,
        "recall_neg": recall_neg,
        "f1_neg": f1(precision_neg, recall_neg),
        "precision_macro": (precision_pos + precision_neg) / 2.0,
        "recall_macro": (recall_pos + recall_neg) / 2.0,
        "f1_macro": (f1(precision_pos, recall_pos) + f1(precision_neg, recall_neg)) / 2.0,
        "degenerate": degenerate,
    }


def conv_taps_oracle(X, W, b_conv):
    """Stride-1 temporal convolution by an explicit tap tensor: stack the
    K shifted [B, span, d] slices of X into [B, span, K, d] and contract
    with the [C, K, d] filters, then add the channel biases."""
    span = X.shape[1] - W.shape[1] + 1
    taps = np.stack([X[:, k : k + span, :] for k in range(W.shape[1])], axis=2)
    return np.einsum("btkj,ckj->btc", taps, W) + b_conv


def conv_weight_grad_oracle(X, dact, kernel_width):
    """Gradient of the [C, K, d] filters given d(loss)/d(activation)
    [B, span, C], through the same explicit tap tensor."""
    span = dact.shape[1]
    taps = np.stack([X[:, k : k + span, :] for k in range(kernel_width)], axis=2)
    return np.einsum("btc,btkj->ckj", dact, taps)


def sigmoid_oracle(z):
    """Logistic function, split by sign so that exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def weighted_bce_oracle(z, y, pos_weight):
    """Mean cross entropy of scores z against labels y, with positive
    terms weighted by pos_weight."""
    per_example = pos_weight * y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    return float(np.mean(per_example))


def bce_dz_oracle(z, y, pos_weight):
    """Gradient of weighted_bce_oracle with respect to the scores z."""
    s = sigmoid_oracle(z)
    return (pos_weight * y * (s - 1.0) + (1.0 - y) * s) / len(z)


def sgd_oracle(arch, X, y, pos_weight, spec, rng):
    """Mini-batch SGD with momentum, one fancy-indexed gather per batch
    and out-of-place updates. ``arch`` supplies init and the stacked
    scores and grads of every part but the output bias, last in every
    layout, called for one model; the oracle adds that bias and its
    gradient itself. Returns the final parameters and the per-epoch mean
    loss."""
    params = arch.init(rng)
    velocity = np.zeros_like(params)
    log = []
    for _ in range(spec.epochs):
        order = rng.permutation(len(X))
        total = 0.0
        for start in range(0, len(X), spec.batch_size):
            batch = order[start : start + spec.batch_size]
            Xb, yb = X[batch], y[batch]
            P, G = params[None], np.empty((1, len(params)))
            Z = np.empty((1, len(batch), 1))
            cache = arch.scores(arch.parts(P), Xb[None], Z)
            z = Z[0, :, 0] + params[-1]
            loss = weighted_bce_oracle(z, yb, pos_weight) + spec.l2 * float(params @ params)
            dz = bce_dz_oracle(z, yb, pos_weight)
            arch.grads(arch.parts(P), Xb[None], cache, dz[None, :, None], arch.parts(G))
            grad = G[0]
            grad[-1] = dz.sum()
            grad += 2.0 * spec.l2 * params
            velocity = spec.momentum * velocity - spec.learning_rate * grad
            params = params + velocity
            total += loss * len(batch)
        log.append(total / len(X))
    return params, log


def serialize_oracle(features, extras, labels):
    """Row-per-frame corpus text built one NumPy scalar at a time with
    ``repr(float(v))``, the rendering the corpus files have always had:
    70 features, 2 extras and the integer label per comma-joined row."""
    out = []
    for i in range(len(labels)):
        fields = [repr(float(v)) for v in features[i]]
        fields.extend(repr(float(v)) for v in extras[i])
        fields.append(str(int(labels[i])))
        out.append(",".join(fields))
    return "\n".join(out) + "\n"


def joined_windows_oracle(views, columns=None):
    """The C-ordered [n, length, columns] float64 tensor of every window:
    the per-sequence [n_i, length, 70] window views joined along the
    window axis, then the selected columns (all when None)."""
    joined = np.concatenate(views)
    if columns is not None:
        joined = joined[:, :, list(columns)]
    return np.ascontiguousarray(joined, dtype=np.float64)


def stacked_windows_oracle(frames, length, stride):
    """The C-ordered float64 [n, length, width] tensor of every window of
    each sequence's [n_frames, width] frames, sliced one window at a time
    and joined in sequence order."""
    width = np.shape(frames[0])[1]
    windows = [
        np.asarray(f[s : s + length], dtype=np.float64)
        for f in frames
        for s in range(0, len(f) - length + 1, stride)
    ]
    return np.array(windows, dtype=np.float64).reshape(-1, length, width)


def window_blocks_oracle(frames, length, stride, block_windows):
    """(first window index, block) pairs in window order, each block a new
    C-ordered float64 copy of at most ``block_windows`` windows of one
    sequence: the block-copy reading of a stack of windows that pooling
    and the frame statistics once made."""
    offset = 0
    for f in frames:
        count = max(0, (len(f) - length) // stride + 1)
        for start in range(0, count, block_windows):
            block = np.lib.stride_tricks.sliding_window_view(f, length, axis=0)
            block = block[::stride][start : start + block_windows]
            yield offset + start, np.array(block.transpose(0, 2, 1), np.float64, order="C")
        offset += count


def pool_windows_oracle(frames, length, stride, block_windows, reduction):
    """Each window's reduction over time, taken block copy by block copy."""
    width = np.shape(frames[0])[1]
    parts = [np.zeros((0, width))]
    for _, block in window_blocks_oracle(frames, length, stride, block_windows):
        parts.append(getattr(block, reduction)(axis=1))
    return np.concatenate(parts)


def frame_sum_oracle(frames, length, stride, block_windows, center=None):
    """Sum over every (window, frame) row of the values, or with ``center``
    of their squared deviations, block copy by block copy: each block is
    centred and squared in place, takes the running total into its first
    row and is summed row by row."""
    total = np.zeros(np.shape(frames[0])[1])
    for _, block in window_blocks_oracle(frames, length, stride, block_windows):
        if center is not None:
            block -= center
            block *= block
        rows = block.reshape(-1, len(total))
        rows[0] += total
        total = np.add.reduce(rows, axis=0)
    return total


def merged_statistics_oracle(frames, length, stride, block_windows, floor):
    """Per-feature frame mean and std of the windows of several sequences:
    each sequence's count, mean (``frame_sum_oracle`` over its own windows,
    divided by its count) and sum of squared deviations, merged column by
    column in Python floats, in sequence order, by Chan, Golub and
    LeVeque's pairwise update; a sequence with no window is skipped. The
    std is sqrt(m2 / count), floored at ``floor``."""
    merged = None
    for f in frames:
        count = max(0, (len(f) - length) // stride + 1) * length
        if count == 0:
            continue
        mean = frame_sum_oracle([f], length, stride, block_windows) / count
        m2 = frame_sum_oracle([f], length, stride, block_windows, mean)
        if merged is None:
            merged = count, mean.tolist(), m2.tolist()
            continue
        n, means, m2s = merged
        total = n + count
        for j, (a, b, sa, sb) in enumerate(zip(means, mean.tolist(), m2s, m2.tolist())):
            delta = b - a
            means[j] = a + delta * (count / total)
            m2s[j] = sa + sb + delta * delta * (n * count / total)
        merged = total, means, m2s
    n, means, m2s = merged
    return np.array(means), np.array([max(math.sqrt(s / n), floor) for s in m2s])
