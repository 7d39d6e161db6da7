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


def _loads(line: str, sep, columns) -> bool:
    try:
        np.loadtxt([line], delimiter=sep, usecols=columns, comments=None)
    except ValueError:
        return False
    return True


def _locate(lines: list[str], numbers: list[int], sep, matrix) -> str:
    """The error for rows that ``np.loadtxt`` refused (``matrix`` is None)
    or read as non-finite: the first row with too few fields, else the first
    field that does not parse on its own, else the first non-finite value.
    A row is named by ``numbers``, its 1-based line in the file."""
    if matrix is not None:
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        return f"row {numbers[i]}, column {j + 1}: non-finite value {lines[i].split(sep)[j]!r}"
    for i, line in enumerate(lines):
        if (n := len(line.split(sep))) < _MIN_COLUMNS:
            return f"row {numbers[i]}: {n} columns, need {_MIN_COLUMNS}"
    for i, line in enumerate(lines):
        if not _loads(line, sep, range(_MIN_COLUMNS)):
            j = next(j for j in range(_MIN_COLUMNS) if not _loads(line, sep, [j]))
            return f"row {numbers[i]}, column {j + 1}: cannot parse {line.split(sep)[j]!r}"
    raise AssertionError("np.loadtxt refused the rows together, none alone")  # pragma: no cover


def parse_emopain_file(data: str, subject_id: str, group: str) -> SequenceData:
    """Parse row-per-frame numeric text into a SequenceData.

    The field delimiter (comma or whitespace) is auto-detected from the
    first data row. Rows need at least 73 columns; extra columns are
    ignored. The label column must be 0 or 1 within 1e-9. An error names
    the bad row by its line in the file, blank lines counted.
    """
    if group not in GROUPS:
        raise DataError(f"unknown group {group!r}; expected one of {GROUPS}")
    kept = [(number, ln) for number, ln in enumerate(data.splitlines(), 1) if ln.strip()]
    if not kept:
        raise DataError(f"no data rows for subject {subject_id!r}")
    numbers, lines = (list(column) for column in zip(*kept))

    sep = "," if "," in lines[0] else None  # None -> any whitespace
    try:  # one row per non-blank line
        matrix = np.loadtxt(
            lines, delimiter=sep, usecols=range(_MIN_COLUMNS), comments=None, ndmin=2
        )
    except ValueError:
        matrix = None
    if matrix is None or not np.isfinite(matrix).all():
        raise DataError(_locate(lines, numbers, sep, matrix))

    raw_labels = matrix[:, 72]
    near_zero = np.abs(raw_labels) <= _LABEL_TOL
    near_one = np.abs(raw_labels - 1.0) <= _LABEL_TOL
    bad = ~(near_zero | near_one)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise DataError(f"row {numbers[i]}: label {float(raw_labels[i])!r} not in {{0, 1}}")

    return SequenceData(
        subject_id=subject_id,
        group=group,
        features=matrix[:, :N_FEATURES].copy(),
        labels=near_one.astype(np.int8),
        extras=matrix[:, 70:72].copy(),
    )


_BLOCK_ROWS = 128  # a block's floats and text stay under 1 MB at 72 columns


def write_sequence_file(seq: SequenceData, path) -> None:
    """Write a sequence as comma-separated row-per-frame text; parsing the
    file reproduces the sequence exactly (floats via shortest round-trip
    repr). Rows are rendered and written ``_BLOCK_ROWS`` at a time, so the
    file's text is never held whole."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, seq.n_frames, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            cells = np.concatenate([seq.features[block], seq.extras[block]], axis=1)
            rows = zip(cells.tolist(), seq.labels[block].tolist())
            fh.write("".join(",".join(map(repr, row)) + f",{label}\n" for row, label in rows))


def split_train_valid(
    sequences: list[SequenceData],
    train_subjects: list[str],
    valid_subjects: list[str],
) -> tuple[list[SequenceData], list[SequenceData]]:
    """Split sequences, or anything else with a ``subject_id``, by subject
    according to an explicit assignment."""
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


def subject_builder(config: SyntheticConfig):
    """The builder of the config's synthetic subjects: ``subject(i)`` is
    subject i, drawn from the i-th child of the seed's SeedSequence and
    writing only its own arrays, so it is the same bytes on any thread or
    process. The config is validated here, before any subject is built."""
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

    return subject


def generate_synthetic(config: SyntheticConfig, workers: int = 1) -> list:
    """Deterministic synthetic dataset; a pure function of the config.

    Subjects come from ``subject_builder`` and are built on a
    ``ThreadPoolExecutor`` of up to ``min(workers, n_subjects)`` threads:
    NumPy's random fills and large ufuncs release the interpreter lock, so
    the threads overlap, and a forked worker would cost more to send its
    subjects' frames back than to build them. The result is the same bytes
    at any count. The pool is shut down, its threads joined, when this
    returns, so a caller may fork afterwards. The first subject, in subject
    order, whose build raises raises here. A caller that keeps only a
    summary of each subject maps ``subject_builder`` on forked workers
    instead, as the CLI does: the threads' malloc arenas would keep the
    memory of the subjects it let go."""
    subject = subject_builder(config)
    count = min(workers, config.n_subjects)
    if count <= 1:
        return [subject(i) for i in range(config.n_subjects)]
    from concurrent.futures import ThreadPoolExecutor  # here, so serial runs skip its import

    with ThreadPoolExecutor(count) as pool:
        return list(pool.map(subject, range(config.n_subjects)))


# --- manifests ------------------------------------------------------------

MANIFEST_FIELDS = ("subject_id", "group", "split", "path")


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: str
    group: str
    split: str
    path: str


def read_text(path, error, what: str, newline=None) -> str:
    """The UTF-8 text of a file, without a leading byte-order mark; a file
    that cannot be opened or decoded raises ``error`` naming it."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
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
        if set(subject_id) & set(',"\r\n'):  # it is written unquoted into CSV artifacts
            raise DataError(
                f"{where}: subject_id {subject_id!r} holds a comma, quote or line break"
            )
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


def load_sequences(
    manifest_path, workers: int = 1, each=None
) -> list[tuple[ManifestEntry, object]]:
    """Read a manifest and parse every referenced data file, on up to
    ``workers`` processes; relative paths resolve against the manifest's
    directory. The first bad entry in manifest order raises. ``each``,
    when given, maps every entry and its sequence in the worker that
    parsed it, and the result stands in for the sequence, so that a
    worker sends back only that."""
    entries = read_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))

    def load(entry: ManifestEntry):
        path = os.path.join(base, entry.path)
        text = read_text(path, DataError, "data file", newline="")
        try:
            seq = parse_emopain_file(text, entry.subject_id, entry.group)
        except DataError as exc:
            raise DataError(f"data file {path}: {exc}") from None
        return seq if each is None else each(entry, seq)

    return list(zip(entries, map_ordered(load, entries, workers)))


def split_by_manifest(pairs: list[tuple[ManifestEntry, object]]) -> tuple[list, list]:
    train_ids = sorted({e.subject_id for e, _ in pairs if e.split == "train"})
    valid_ids = sorted({e.subject_id for e, _ in pairs if e.split == "valid"})
    sequences = [seq for _, seq in pairs]
    return split_train_valid(sequences, train_ids, valid_ids)
