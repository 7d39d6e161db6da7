"""Dataset handling: row-per-frame file parsing, subject splits, window
extraction, manifests, and statistically controlled synthetic data.

File layout per frame (1-based columns): 1-22 joint X coordinates,
23-44 Y, 45-66 Z, 67-70 sEMG channels, 71-72 opaque extras, 73 the
binary protective-behavior label. Columns beyond 73 are ignored.
"""

import csv
import hashlib
import io
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .modality import (
    N_FEATURES,
    SEMG_INDICES,
    bifurcated_scheme,
    quadrifurcated_scheme,
    singular_scheme,
)

CHRONIC = "chronic_pain"
HEALTHY = "healthy"
GROUPS = (CHRONIC, HEALTHY)
SPLITS = ("train", "valid")

_MIN_COLUMNS = 73
_LABEL_TOL = 1e-9


@dataclass(frozen=True)
class SequenceData:
    """One subject-session time series, stored column-major friendly:
    ``features`` is [n_frames x 70], ``labels`` is the per-frame binary
    vector, ``extras`` the two undocumented columns. Arrays are marked
    read-only; frame order matches file order."""

    subject_id: str
    group: str
    features: np.ndarray
    labels: np.ndarray
    extras: np.ndarray

    def __post_init__(self):
        for name in ("features", "labels", "extras"):
            getattr(self, name).flags.writeable = False

    def __reduce__(self):
        # Unpickle through __init__, so that a sequence sent between
        # processes gets read-only arrays again.
        return type(self), (self.subject_id, self.group, self.features, self.labels, self.extras)

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]


def _locate_bad_token(rows: list[list[str]]) -> tuple[int, int, str]:
    for i, row in enumerate(rows):
        for j, token in enumerate(row):
            try:
                value = float(token)
            except ValueError:
                return i, j, token
            if not math.isfinite(value):
                return i, j, token
    raise AssertionError("no bad token found")  # pragma: no cover


def parse_emopain_file(data: str, subject_id: str, group: str) -> SequenceData:
    """Parse row-per-frame numeric text into a SequenceData.

    The field delimiter (comma or whitespace) is auto-detected from the
    first data row. Rows need at least 73 columns; extra columns are
    ignored. The label column must be 0 or 1 within 1e-9.
    """
    if group not in GROUPS:
        raise DataError(f"unknown group {group!r}; expected one of {GROUPS}")
    lines = [ln for ln in data.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"no data rows for subject {subject_id!r}")

    sep = "," if "," in lines[0] else None  # None -> any whitespace
    try:  # one bulk parse; text that it refuses or reads otherwise goes row by row
        matrix = np.loadtxt(
            io.StringIO(data), delimiter=sep, usecols=range(_MIN_COLUMNS), comments=None, ndmin=2
        )
    except ValueError:
        matrix = None
    if matrix is None or len(matrix) != len(lines) or not np.isfinite(matrix).all():
        rows = []
        for i, line in enumerate(lines):
            tokens = [t for t in line.split(sep) if t != ""]
            if len(tokens) < _MIN_COLUMNS:
                raise DataError(
                    f"row {i + 1}: {len(tokens)} columns, need {_MIN_COLUMNS}"
                )
            rows.append(tokens[:_MIN_COLUMNS])
        try:
            matrix = np.array(rows, dtype=np.float64)
        except ValueError:
            i, j, token = _locate_bad_token(rows)
            raise DataError(
                f"row {i + 1}, column {j + 1}: cannot parse {token!r}"
            ) from None
        if not np.isfinite(matrix).all():
            i, j = np.argwhere(~np.isfinite(matrix))[0]
            raise DataError(
                f"row {i + 1}, column {j + 1}: non-finite value {rows[i][j]!r}"
            )

    raw_labels = matrix[:, 72]
    labels = np.empty(len(matrix), dtype=np.int8)
    near_zero = np.abs(raw_labels) <= _LABEL_TOL
    near_one = np.abs(raw_labels - 1.0) <= _LABEL_TOL
    bad = ~(near_zero | near_one)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise DataError(f"row {i + 1}: label {float(raw_labels[i])!r} not in {{0, 1}}")
    labels[near_zero] = 0
    labels[near_one] = 1

    return SequenceData(
        subject_id=subject_id,
        group=group,
        features=matrix[:, :N_FEATURES].copy(),
        labels=labels,
        extras=matrix[:, 70:72].copy(),
    )


def serialize_sequence(seq: SequenceData) -> str:
    """Render a sequence back to comma-separated row-per-frame text;
    parsing the result reproduces the sequence exactly (floats via
    shortest round-trip repr)."""
    cells = np.concatenate([seq.features, seq.extras], axis=1)
    labels = seq.labels.tolist()
    out = [",".join(map(repr, row.tolist())) + f",{label}" for row, label in zip(cells, labels)]
    return "\n".join(out) + "\n"


def write_sequence_file(seq: SequenceData, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_sequence(seq))


def split_train_valid(
    sequences: list[SequenceData],
    train_subjects: list[str],
    valid_subjects: list[str],
) -> tuple[list[SequenceData], list[SequenceData]]:
    """Split sequences by subject according to an explicit assignment."""
    overlap = set(train_subjects) & set(valid_subjects)
    if overlap:
        raise DataError(f"subject(s) in both splits: {sorted(overlap)}")
    train_set, valid_set = set(train_subjects), set(valid_subjects)
    unassigned = sorted({s.subject_id for s in sequences} - train_set - valid_set)
    if unassigned:
        raise DataError(f"subject(s) in neither split: {unassigned}")
    train = [s for s in sequences if s.subject_id in train_set]
    valid = [s for s in sequences if s.subject_id in valid_set]
    return train, valid


def check_window_rule(length: int, stride: int, positive_fraction_threshold: float) -> None:
    if length < 1 or stride < 1:
        raise ConfigError(f"length and stride must be positive, got {length}, {stride}")
    if not (0.0 < positive_fraction_threshold <= 1.0):
        raise ConfigError(
            f"positive_fraction_threshold must lie in (0, 1], got {positive_fraction_threshold}"
        )


def make_windows(
    seq: SequenceData,
    length: int,
    stride: int,
    positive_fraction_threshold: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Slice a sequence into fixed-length windows at offsets 0, stride,
    2*stride, ...; a window is labeled 1 iff the fraction of label-1
    frames reaches the threshold. The trailing partial window is dropped.

    Returns the windows as a read-only [n_windows, length, 70] strided
    view of the sequence's features, which copies nothing, and the int8
    window labels.
    """
    check_window_rule(length, stride, positive_fraction_threshold)
    n = seq.n_frames
    if length > n:
        raise DataError(f"window length {length} > {n} frames in subject {seq.subject_id!r}")
    windows = sliding_window_view(seq.features, length, axis=0)[::stride].transpose(0, 2, 1)
    cum = np.concatenate([[0], np.cumsum(seq.labels, dtype=np.int64)])
    starts = np.arange(0, n - length + 1, stride)
    positives = cum[starts + length] - cum[starts]
    labels = (positives / length >= positive_fraction_threshold).astype(np.int8)
    return windows, labels


# --- synthetic data -------------------------------------------------------

EXPRESSION_MODES = ("joint", "complementary")


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings. Labels arrive in contiguous bouts (geometric
    lengths) rather than i.i.d. frames; during positive bouts each
    signal-bearing modality's features are shifted by snr times a fixed
    unit-RMS pattern on top of cross-feature correlated noise.

    ``expression`` chooses whether every positive bout expresses all
    signal-bearing modalities ("joint") or exactly one body side per
    bout ("complementary"): movement-coordinate modalities form one
    side, muscle-activity channels the other, and each positive bout
    expresses only the modalities of the side it drew. Bouts are then
    predictable from either side alone, never both. Movement-side
    expression additionally carries a subject-fixed polarity (half the
    subjects shift up, half down), so coordinate shifts stay predictive
    within a subject while pooling across subjects cancels their mean.
    """

    n_subjects: int
    frames_per_subject: int
    positive_rate: float
    modality_snr: dict[str, float]
    seed: int
    mean_positive_bout: int = 120
    expression: str = "joint"
    noise_correlation: float = 0.3

    def validate(self) -> None:
        if self.n_subjects < 1 or self.frames_per_subject < 1:
            raise ConfigError("n_subjects and frames_per_subject must be positive")
        if not (0.0 < self.positive_rate < 1.0):
            raise ConfigError(
                f"positive_rate must lie strictly in (0, 1), got {self.positive_rate}"
            )
        if not self.modality_snr:
            raise ConfigError("modality_snr needs at least one entry")
        resolvable = set(_snr_index_map())
        for name, snr in self.modality_snr.items():
            if name not in resolvable:
                raise ConfigError(
                    f"unknown modality {name!r}; expected one of {sorted(resolvable)}"
                )
            if not (math.isfinite(snr) and snr >= 0.0):
                raise ConfigError(f"snr for {name!r} must be finite and >= 0")
        if self.mean_positive_bout < 1:
            raise ConfigError("mean_positive_bout must be >= 1")
        if self.expression not in EXPRESSION_MODES:
            raise ConfigError(
                f"expression must be one of {EXPRESSION_MODES}, got {self.expression!r}"
            )
        if not (0.0 <= self.noise_correlation < 1.0):
            raise ConfigError("noise_correlation must lie in [0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")


def _snr_index_map() -> dict[str, tuple[int, ...]]:
    names: dict[str, tuple[int, ...]] = {}
    for scheme in (singular_scheme(), bifurcated_scheme(), quadrifurcated_scheme()):
        names.update(scheme.modalities)
    return names


def _stable_key(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _signal_pattern(seed: int, name: str, width: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, _stable_key("pattern:" + name)]))
    pattern = rng.standard_normal(width)
    return pattern / math.sqrt(float(np.mean(pattern**2)))


def _draw_bouts(rng, n_frames: int, positive_rate: float, mean_positive: float):
    """Alternating label bouts with geometric lengths; stationary start."""
    mean_negative = mean_positive * (1.0 - positive_rate) / positive_rate
    p_pos = min(1.0, 1.0 / mean_positive)
    p_neg = min(1.0, 1.0 / mean_negative)
    labels = np.zeros(n_frames, dtype=np.int8)
    bouts = []
    state = 1 if rng.random() < positive_rate else 0
    t = 0
    while t < n_frames:
        length = int(rng.geometric(p_pos if state else p_neg))
        end = min(t + length, n_frames)
        if state:
            labels[t:end] = 1
            bouts.append((t, end))
        state = 1 - state
        t = end
    return labels, bouts


def generate_synthetic(config: SyntheticConfig, workers: int = 1) -> list[SequenceData]:
    """Deterministic synthetic dataset; a pure function of the config.

    Subjects are built on up to ``min(workers, n_subjects)`` threads,
    subject i on thread i % workers: NumPy's random fills and large ufuncs
    release the interpreter lock, so the threads overlap, and a forked
    worker would cost more to send its subjects back than to build them.
    Subject i draws from the i-th child of the seed's SeedSequence on any
    thread and writes only its own arrays, so the result is the same bytes
    at any count. Every thread has ended when this returns, so a caller
    may fork afterwards. The first subject, in subject order, whose build
    raises raises here."""
    config.validate()
    index_map = _snr_index_map()
    patterns = {
        name: _signal_pattern(config.seed, name, len(index_map[name]))
        for name in config.modality_snr
    }
    active = [name for name, snr in config.modality_snr.items() if snr > 0.0]
    sides = [
        [n for n in active if min(index_map[n]) < SEMG_INDICES[0]],
        [n for n in active if min(index_map[n]) >= SEMG_INDICES[0]],
    ]
    sides = [s for s in sides if s]

    children = np.random.SeedSequence(config.seed).spawn(config.n_subjects)
    c = config.noise_correlation

    def subject(i: int) -> SequenceData:
        rng = np.random.default_rng(children[i])
        n = config.frames_per_subject
        labels, bouts = _draw_bouts(
            rng, n, config.positive_rate, float(config.mean_positive_bout)
        )
        shared = rng.standard_normal((n, 1))
        # Scaled and shifted in place: the same sums, in the other operand
        # order, without two more [n, 70] temporaries.
        features = rng.standard_normal((n, N_FEATURES))
        features *= math.sqrt(1.0 - c)
        features += math.sqrt(c) * shared

        complementary = config.expression == "complementary" and sides
        polarity = 1.0 if (i // 2) % 2 == 0 else -1.0
        for start, end in bouts:
            if complementary:
                expressed = sides[int(rng.integers(len(sides)))]
            else:
                expressed = active
            for name in expressed:
                idx = list(index_map[name])
                sign = polarity if complementary and min(idx) < SEMG_INDICES[0] else 1.0
                features[start:end, idx] += sign * config.modality_snr[name] * patterns[name]

        return SequenceData(
            subject_id=f"S{i + 1:02d}",
            group=CHRONIC if i % 2 == 0 else HEALTHY,
            features=features,
            labels=labels,
            extras=np.zeros((n, 2)),
        )

    count = min(workers, config.n_subjects)
    if count <= 1:
        return [subject(i) for i in range(config.n_subjects)]
    sequences: list = [None] * config.n_subjects

    def build(first: int) -> None:
        for i in range(first, config.n_subjects, count):
            try:
                sequences[i] = subject(i)
            except Exception as exc:  # raised by the caller, in subject order
                sequences[i] = exc
                return

    threads = []
    try:
        for k in range(count):
            thread = threading.Thread(target=build, args=(k,))
            thread.start()
            threads.append(thread)
    finally:  # joined even when a thread cannot start
        for thread in threads:
            thread.join()
    # A thread stops at its first failure, so a subject left unbuilt comes
    # after a failure in subject order.
    for result in sequences:
        if isinstance(result, Exception):
            raise result
    return sequences


# --- manifests ------------------------------------------------------------

MANIFEST_FIELDS = ("subject_id", "group", "split", "path")


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: str
    group: str
    split: str
    path: str


def read_text(path, error, what: str, newline=None) -> str:
    """The UTF-8 text of an existing file; a file that cannot be opened
    or decoded raises ``error`` naming it."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"cannot read {what} {path}: {reason}") from None


def read_manifest(path) -> list[ManifestEntry]:
    entries = []
    text = read_text(path, DataError, "manifest", newline="")
    reader = csv.reader(io.StringIO(text, newline=""))
    if [f.strip() for f in next(reader, [])] != list(MANIFEST_FIELDS):
        raise DataError(
            f"manifest {path}: header must be {','.join(MANIFEST_FIELDS)}"
        )
    for row in filter(None, reader):
        where = f"manifest {path} line {reader.line_num}"
        if len(row) != len(MANIFEST_FIELDS):
            raise DataError(f"{where}: need exactly {len(MANIFEST_FIELDS)} fields, got {len(row)}")
        subject_id, group, split, file = (f.strip() for f in row)
        if not subject_id:
            raise DataError(f"{where}: empty subject_id")
        if group not in GROUPS:
            raise DataError(f"{where}: bad group {group!r}")
        if split not in SPLITS:
            raise DataError(f"{where}: bad split {split!r}")
        entries.append(ManifestEntry(subject_id, group, split, file))
    if not entries:
        raise DataError(f"manifest {path}: no records")
    return entries


def write_manifest(entries: list[ManifestEntry], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_FIELDS)
        for e in entries:
            writer.writerow([e.subject_id, e.group, e.split, e.path])


_work = {}  # the fn and items of the map_ordered call a worker was forked for


def _apply(index: int):
    return _work["fn"](_work["items"][index])


def map_ordered(fn, items, workers: int) -> list:
    """Apply ``fn`` to every item on up to ``workers`` forked worker
    processes, returning the results in input order; the first item, in
    input order, whose call raises raises here. One worker or one item
    runs serially in this process. Workers inherit ``fn`` and the items
    when forked, so any callable will do: tasks carry item indices, and
    only results are pickled back. Call it while the process runs no
    threads of its own, as the CLI does.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here, so that serial runs skip the pool's import. "fork" is
    # named because the default start method differs across Python
    # versions; forked workers import nothing again and stay children of
    # this process.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    size, work = min(workers, len(items)), {"fn": fn, "items": items}
    with ProcessPoolExecutor(size, context, initializer=_work.update, initargs=(work,)) as pool:
        return list(pool.map(_apply, range(len(items))))


def _load_entry(job: tuple[ManifestEntry, str]) -> SequenceData:
    entry, path = job
    if not os.path.exists(path):
        raise DataError(f"data file not found: {path}")
    text = read_text(path, DataError, "data file", newline="")
    try:
        return parse_emopain_file(text, entry.subject_id, entry.group)
    except DataError as exc:
        raise DataError(f"data file {path}: {exc}") from None


def load_sequences(manifest_path, workers: int = 1) -> list[tuple[ManifestEntry, SequenceData]]:
    """Read a manifest and parse every referenced data file, on up to
    ``workers`` processes; relative paths resolve against the manifest's
    directory. The first bad entry in manifest order raises."""
    entries = read_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    jobs = [(entry, os.path.join(base, entry.path)) for entry in entries]
    return list(zip(entries, map_ordered(_load_entry, jobs, workers)))


def split_by_manifest(
    pairs: list[tuple[ManifestEntry, SequenceData]],
) -> tuple[list[SequenceData], list[SequenceData]]:
    train_ids = sorted({e.subject_id for e, _ in pairs if e.split == "train"})
    valid_ids = sorted({e.subject_id for e, _ in pairs if e.split == "valid"})
    sequences = [seq for _, seq in pairs]
    return split_train_valid(sequences, train_ids, valid_ids)
