"""Experiment orchestration: confusion-matrix metrics, train/valid
evaluation of one fused configuration, the four-arm comparison matrix,
and leave-one-subject-out cross validation.

Class 1 (protective behavior present) is the positive class throughout.
Ratios with an empty denominator are reported as 0.0 and flagged, never
raised, so heavily imbalanced splits still produce a full report.
"""

from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .data import (
    _BLOCK_ROWS,
    SequenceData,
    _stable_key,
    check_window_rule,
    make_windows,
    map_ordered,
)
from .errors import ConfigError, DataError, NumericError, PainFusionError
from .fusion import check_mode, check_threshold, fuse_batch
from .modality import N_FEATURES, JointSegmentMap, SCHEME_NAMES, scheme_by_name
from .models import POOLED_KINDS, ClassifierSpec, TrainedClassifier, WindowSet
from .models import fit_lockstep, merge_moments, pool_windows, sequence_moments
from .stats import (
    AVERAGE,
    REDUCTIONS,
    STATISTICAL,
    FusionWeights,
    fusion_weights,
    ranked_relevance,
    sort_columns,
)

WEIGHTINGS = (STATISTICAL, AVERAGE)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )


def confusion(predicted, truth) -> ConfusionMatrix:
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if len(t) != len(p):
        raise DataError(f"{len(p)} predictions vs {len(t)} true labels")
    if len(t) == 0:
        raise DataError("cannot build a confusion matrix from zero examples")
    for name, arr in (("predicted", p), ("true", t)):
        if not np.isin(arr, (0, 1)).all():
            raise DataError(f"{name} labels must be 0 or 1")
    p = p.astype(np.int64)
    t = t.astype(np.int64)
    return ConfusionMatrix(
        tp=int(((t == 1) & (p == 1)).sum()),
        fp=int(((t == 0) & (p == 1)).sum()),
        fn=int(((t == 1) & (p == 0)).sum()),
        tn=int(((t == 0) & (p == 0)).sum()),
    )


@dataclass(frozen=True)
class MetricSet:
    """Positive-class and macro-averaged metrics for one confusion
    matrix. ``degenerate`` is set when any ratio hit 0/0 and was
    reported as 0.0."""

    accuracy: float
    precision_pos: float
    recall_pos: float
    f1_pos: float
    precision_neg: float
    recall_neg: float
    f1_neg: float
    precision_macro: float
    recall_macro: float
    f1_macro: float
    degenerate: bool


def _ratio(num: int, den: int, flags: list) -> float:
    if den == 0:
        flags.append(True)
        return 0.0
    return num / den


def _f1(precision: float, recall: float, flags: list) -> float:
    if precision + recall == 0.0:
        flags.append(True)
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metrics(cm: ConfusionMatrix) -> MetricSet:
    flags: list = []
    accuracy = _ratio(cm.tp + cm.tn, cm.total, flags)
    precision_pos = _ratio(cm.tp, cm.tp + cm.fp, flags)
    recall_pos = _ratio(cm.tp, cm.tp + cm.fn, flags)
    precision_neg = _ratio(cm.tn, cm.tn + cm.fn, flags)
    recall_neg = _ratio(cm.tn, cm.tn + cm.fp, flags)
    f1_pos = _f1(precision_pos, recall_pos, flags)
    f1_neg = _f1(precision_neg, recall_neg, flags)
    return MetricSet(
        accuracy=accuracy,
        precision_pos=precision_pos,
        recall_pos=recall_pos,
        f1_pos=f1_pos,
        precision_neg=precision_neg,
        recall_neg=recall_neg,
        f1_neg=f1_neg,
        precision_macro=(precision_pos + precision_neg) / 2.0,
        recall_macro=(recall_pos + recall_neg) / 2.0,
        f1_macro=(f1_pos + f1_neg) / 2.0,
        degenerate=bool(flags),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One fused run: a modality scheme, a weighting rule, one classifier
    spec applied identically to every modality (each modality's training
    stream is derived from the classifier seed and the modality name),
    and the windowing plus decision settings."""

    scheme_name: str
    weighting: str
    classifier: ClassifierSpec
    seed: int
    window_length: int
    window_stride: int
    positive_fraction_threshold: float = 0.5
    decision_threshold: float = 0.5
    vote_mode: str = "soft"
    reduction: str = "mean"
    joint_map: JointSegmentMap | None = None

    def validate(self) -> None:
        if self.scheme_name not in SCHEME_NAMES:
            raise ConfigError(
                f"scheme_name must be one of {SCHEME_NAMES}, got {self.scheme_name!r}"
            )
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        check_mode(self.vote_mode)
        check_threshold(self.decision_threshold)
        check_window_rule(self.window_length, self.window_stride, self.positive_fraction_threshold)
        if self.reduction not in REDUCTIONS:
            raise ConfigError(f"reduction must be one of {REDUCTIONS}, got {self.reduction!r}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        self.classifier.validate()
        kernel_width = self.classifier.kernel_width
        if self.classifier.kind == "cnn1d" and self.window_length < kernel_width:
            raise ConfigError(
                f"window length {self.window_length} shorter than kernel width {kernel_width}"
            )


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    weights: FusionWeights
    classifiers: dict[str, TrainedClassifier]
    n_train_windows: int
    valid_subjects: tuple[str, ...]
    valid_labels: np.ndarray
    per_modality_probas: dict[str, np.ndarray]
    fused_probabilities: np.ndarray
    predicted: np.ndarray
    confusion_matrix: ConfusionMatrix
    metric_set: MetricSet


def derive_seed(base_seed: int, label: str) -> int:
    """A reproducible child seed from (base_seed, label); used to give
    every modality and every cross-validation fold its own stream."""
    key = np.random.SeedSequence([base_seed, _stable_key(label)])
    return int(key.generate_state(1, dtype=np.uint64)[0])


def _stage(name: str, fn):
    try:
        return fn()
    except PainFusionError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class Piece:
    """One sequence windowed under a run's rule (``window_sequence``): what
    a run reads of it. ``labels`` are its int8 window labels, ``means`` its
    [n_windows, 70] window time means, and ``reduced``, when the
    statistical weighting reads the sequence, its windows reduced under the
    config's reduction (``means`` themselves under ``mean``), else None.
    ``moments`` is its ``sequence_moments`` entry when a split trains on
    it, else None, and ``windows`` its one-sequence WindowSet when the
    model reads frames (``cnn1d``), else None: a pooled-kind piece holds no
    frame. A sequence that cannot be windowed leaves a piece of its
    ``error`` alone, which ``window_run`` raises."""

    subject_id: str
    labels: np.ndarray | None = None
    means: np.ndarray | None = None
    reduced: np.ndarray | None = None
    moments: tuple | None = None
    windows: WindowSet | None = None
    error: PainFusionError | None = None


def window_sequence(
    seq: SequenceData, config: ExperimentConfig, trains: bool = True, weighs: bool = True
) -> Piece:
    """Window one sequence into a Piece under the config's window rule,
    reduction and classifier kind; ``trains`` says whether a split trains
    on it and ``weighs`` whether the statistical weighting reads it. Every
    array is reduced one sequence at a time, so joined pieces hold the bits
    of the same reductions over a WindowSet of all their sequences."""
    rule = (config.window_length, config.window_stride, config.positive_fraction_threshold)
    try:
        labels = make_windows(seq, *rule)[1]
    except PainFusionError as exc:
        return Piece(seq.subject_id, error=exc)
    windows = WindowSet([seq.features], *rule[:2], N_FEATURES)
    means, r = pool_windows(windows), config.reduction
    return Piece(
        seq.subject_id,
        labels,
        means,
        (means if r == "mean" else pool_windows(windows, r)) if weighs else None,
        sequence_moments(windows)[0] if trains else None,
        None if config.classifier.kind in POOLED_KINDS else windows,
    )


def as_pieces(items, config: ExperimentConfig, trains: bool, weighs: bool) -> list[Piece]:
    """Pieces as they are, and sequences windowed into pieces in this thread."""
    return [
        item if isinstance(item, Piece) else window_sequence(item, config, trains, weighs)
        for item in items
    ]


def _join(arrays) -> np.ndarray:
    """[n, 70] arrays joined by rows; one is returned as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate([np.zeros((0, N_FEATURES))] + arrays)


@dataclass(frozen=True)
class WindowedRun:
    """Pieces joined into a run (see ``window_run``): the pieces, their
    joined int8 window labels, ``rows``, the slices of ``sort``'s matrix
    that hold the run's windows, and ``sort``, cached per process,
    ``sort_columns`` of the joined ``reduced`` matrices of the
    ``window_run`` run whose pieces these are. The run holds no joined copy
    of its pieces' time means: ``means`` joins them on each use (one
    piece's are its own array), and ``windows`` joins their frames."""

    pieces: tuple[Piece, ...]
    labels: np.ndarray
    rows: tuple[slice, ...]
    sort: Callable[[], tuple[np.ndarray, np.ndarray]]

    @property
    def subjects(self) -> tuple[str, ...]:
        return tuple(p.subject_id for p in self.pieces)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(p.labels) for p in self.pieces)

    @property
    def means(self) -> np.ndarray:
        return _join([p.means for p in self.pieces])

    @property
    def windows(self) -> WindowSet:
        """The pieces' frames as one WindowSet; every piece must have kept its own."""
        (_, length, width), stride = self.pieces[0].windows.shape, self.pieces[0].windows.stride
        return WindowSet([p.windows.frames[0] for p in self.pieces], length, stride, width)

    def moments(self) -> list:
        return [p.moments for p in self.pieces]

    def relevance(self) -> np.ndarray:
        """``feature_relevance`` of the run under its reduction, bit for
        bit, ranked from its rows of the sorted reduced matrix."""
        return ranked_relevance(*self.sort(), self.labels, self.rows)


def window_run(pieces) -> WindowedRun:
    """Join pieces (``window_sequence``) into a run: the one windowing path.
    The first piece that carries an error raises it, with the stage
    prefixed. The sort joins the pieces' ``reduced`` matrices on first use."""
    pieces = tuple(pieces)
    for piece in pieces:
        if piece.error is not None:
            raise type(piece.error)(f"windowing: {piece.error}") from piece.error
    labels = np.concatenate([np.zeros(0, dtype=np.int8)] + [p.labels for p in pieces])
    sort = cache(lambda: sort_columns(_join([p.reduced for p in pieces])))
    return WindowedRun(pieces, labels, (slice(None),), sort)


def _pick(run: WindowedRun, indices) -> WindowedRun:
    """The run of the pieces at ``indices`` of a run that ``window_run``
    made, in that order, ranked from ``run``'s sort."""
    starts = np.cumsum((0,) + run.counts).tolist()
    rows = tuple(slice(starts[i], starts[i + 1]) for i in indices)
    labels = np.concatenate([run.labels[r] for r in rows])
    return WindowedRun(tuple(run.pieces[i] for i in indices), labels, rows, run.sort)


@dataclass(frozen=True)
class TrainedSplit:
    """A trained train/valid split: (model, validation probabilities) per
    distinct (modality name, columns), the train window count, the
    validation labels and subjects, and ``relevance``: the train run's
    relevance, or None when no arm weighs statistically."""

    models: dict[tuple[str, tuple[int, ...]], tuple[TrainedClassifier, np.ndarray]]
    n_train_windows: int
    valid_labels: np.ndarray
    valid_subjects: tuple[str, ...]
    relevance: np.ndarray | None


LOCKSTEP_SPLITS = 6  # the most splits whose inputs one pooled lockstep holds
# The largest |standardized window time mean| of a validation run: beyond
# it the values dwarf every train value and would saturate the
# probabilities of their windows.
Z_BOUND = 1e6


def _cut(items, j: int, n: int):
    """Chunk j of ``items`` cut into n contiguous chunks, in order."""
    return items[len(items) * j // n : len(items) * (j + 1) // n]


def _largest_z(run: WindowedRun, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Per column, the largest |(window time mean - mean) / std| of a run,
    NaN where any is NaN. It is taken one piece at a time in one buffer,
    so that no joined copy of the run is made."""
    peak, buffer = np.zeros(N_FEATURES), np.empty((max(run.counts), N_FEATURES))
    with np.errstate(over="ignore", invalid="ignore"):
        for piece in run.pieces:
            z = np.subtract(piece.means, mean, out=buffer[: len(piece.means)])
            z /= std
            np.maximum(peak, np.abs(z, out=z).max(axis=0), out=peak)
    return peak


def train_split(splits, configs, threads: int) -> list:
    """Train each distinct modality of the configs' schemes once per split
    and predict the split's validation run. A split is a (train, valid,
    base) triple: two ``WindowedRun``s and the config whose classifier seed
    each model's seed is derived from, by modality name.

    Every split's frame statistics are merged here, before any task, from
    its train run's sequence moments, and its validation run's window time
    means, standardized by them, must lie within Z_BOUND; they are checked
    one piece at a time (``_largest_z``), so this process makes no joined
    copy of a validation run. The one training planner; its tasks run on
    ``threads`` workers (``map_ordered``), and every task is one
    ``fit_lockstep`` of a (split chunk, key chunk) pair, the keys being
    the distinct (modality name, columns) pairs in scheme order. Pooled
    kinds train on time means: each group of splits that share a train
    window count is cut into at most ``threads`` contiguous chunks of at
    most LOCKSTEP_SPLITS, and when that leaves workers idle the keys are
    cut too, into ``threads // split chunks`` contiguous chunks (at most
    one per key), so that a one-split run trains on every worker. A cnn1d
    model trains alone on the WindowSet, so a cnn1d task is one (split,
    key) pair. When a config weighs statistically, the task that trains a
    split's last key computes the split's relevance too (a matrix's last
    keys are its lighter chunk at two threads); otherwise none is
    computed.

    The splits' classifiers must agree but for the seed. Returns per split
    its TrainedSplit, or its first error, prefixed with the stage: a
    DataError for a train run whose frame statistics overflow or a
    validation run with a non-finite or out-of-bound standardized window
    time mean (such a split is not trained), the NumericError of the
    modality that diverged at the earliest step, the first in key order
    on a tie, named, or else the error its relevance raised; the other
    splits train on. Other errors raise, with the stage prefixed."""
    spec = splits[0][2].classifier
    if any(replace(base.classifier, seed=spec.seed) != spec for _, _, base in splits):
        raise ConfigError("models trained in lockstep must share every spec field but the seed")
    for train, valid, _ in splits:
        train_ids, valid_ids = (set(run.subjects) for run in (train, valid))
        if train_ids & valid_ids:
            raise DataError(f"subject(s) in both splits: {sorted(train_ids & valid_ids)}")
    schemes = [scheme_by_name(c.scheme_name, c.joint_map) for c in configs]
    keys = list(dict.fromkeys(k for s in schemes for k in sorted(s.modalities.items())))
    weighs = any(c.weighting == STATISTICAL for c in configs)
    per_split, relevances, stats = [[] for _ in splits], [None] * len(splits), {}
    for i, (train, valid, _) in enumerate(splits):
        try:
            mean, std = stats[i] = merge_moments(train.moments())
        except DataError as exc:
            per_split[i].append(DataError(f"training: {exc}"))
            continue
        peak = _largest_z(valid, mean, std)
        beyond = np.flatnonzero(~(peak <= Z_BOUND))
        if len(beyond):
            j = beyond[0]
            per_split[i].append(DataError(
                f"validation: feature column {j}: standardized window time mean of "
                f"magnitude {peak[j]:.3g} exceeds {Z_BOUND:g} (values too large in magnitude)"
            ))
    pooled, groups, tasks = spec.kind in POOLED_KINDS, {}, []
    for i, outcomes in enumerate(per_split):
        if not outcomes:
            groups.setdefault(len(splits[i][0].labels) if pooled else i, []).append(i)
    for group in groups.values():
        if pooled:
            n = max(min(threads, len(group)), -(-len(group) // LOCKSTEP_SPLITS))
            parts = min(max(threads // n, 1), len(keys))
        else:
            # A cnn1d model holds all of its modality's frames, so it trains alone.
            n, parts = 1, len(keys)
        tasks += [(_cut(group, j, n), _cut(keys, k, parts))
                  for j in range(n) for k in range(parts)]

    def inputs(run: WindowedRun):
        return run.means if pooled else run.windows

    def training_set(i, task_keys):
        train, _, base = splits[i]
        models = [(derive_seed(base.classifier.seed, "clf:" + n), c) for n, c in task_keys]
        return inputs(train), train.labels, stats[i], models

    def relevance_of(i):
        try:
            return _stage("weighting", splits[i][0].relevance)
        except PainFusionError as exc:
            return exc

    def train_task(task):
        """Per split of the task: its index, its (model, validation
        probabilities) pairs or its error, with the ``step`` at which it
        diverged, and, when an arm weighs statistically and the task trains
        its last key, its relevance or the error it raised, else None."""
        indices, task_keys = task
        computes = weighs and task_keys[-1] == keys[-1]
        # fit_lockstep reads the sets one at a time, so each train run's
        # time means are joined only while its models' inputs are built.
        sets = (training_set(i, task_keys) for i in indices)
        done = []
        for i, models in zip(indices, fit_lockstep(spec, sets)):
            if isinstance(models, NumericError):
                error = NumericError(f"training: {task_keys[models.model][0]}: {models}")
                error.step, outcomes = models.step, [error]
            else:
                valid_X = inputs(splits[i][1])
                outcomes = [(model, model.predict_proba_windows(valid_X)) for model in models]
            done.append((i, outcomes, relevance_of(i) if computes else None))
        return done

    for results in _stage("training", lambda: map_ordered(train_task, tasks, threads)):
        for i, outcomes, relevance in results:
            per_split[i] += outcomes
            if relevance is not None:
                relevances[i] = relevance
    trained = []
    for (train, valid, _), outcomes, relevance in zip(splits, per_split, relevances):
        errors = [o for o in outcomes if isinstance(o, PainFusionError)]
        if errors or isinstance(relevance, PainFusionError):
            # The earliest diverging step, ties in key order, as one lockstep
            # of all the keys reports it; then the relevance's error.
            first = min(errors, key=lambda e: getattr(e, "step", 0)) if errors else relevance
            trained.append(first)
            continue
        subjects = np.repeat(valid.subjects, valid.counts)
        trained.append(
            TrainedSplit(
                models=dict(zip(keys, outcomes)),
                n_train_windows=len(train.labels),
                valid_labels=valid.labels.astype(np.int64),
                valid_subjects=tuple(subjects.tolist()),
                relevance=relevance,
            )
        )
    return trained


def score_arm(split: TrainedSplit, config: ExperimentConfig) -> ExperimentResult:
    """Score one arm on a trained split without training anything: the
    weights of the config's scheme under its weighting rule, the vote of
    the scheme's modalities' validation probabilities, and the confusion
    matrix and metrics against the validation labels."""
    scheme, rule = scheme_by_name(config.scheme_name, config.joint_map), config.weighting
    weights = _stage("weighting", lambda: fusion_weights(rule, scheme, lambda: split.relevance))
    outcomes = {name: split.models[name, scheme.modalities[name]] for name in sorted(scheme.names)}
    probas = {name: p for name, (_, p) in outcomes.items()}
    threshold, mode = config.decision_threshold, config.vote_mode
    fused, predicted = _stage("fusion", lambda: fuse_batch(probas, weights, threshold, mode))
    cm = _stage("scoring", lambda: confusion(predicted, split.valid_labels))
    return ExperimentResult(
        config=config,
        weights=weights,
        classifiers={name: model for name, (model, _) in outcomes.items()},
        n_train_windows=split.n_train_windows,
        valid_subjects=split.valid_subjects,
        valid_labels=split.valid_labels,
        per_modality_probas=probas,
        fused_probabilities=fused,
        predicted=predicted.astype(np.int64),
        confusion_matrix=cm,
        metric_set=metrics(cm),
    )


def check_split(items, split: str) -> None:
    """DataError when no sequence is assigned to ``split``, "train" or "valid"."""
    if not items:
        name = "validation" if split == "valid" else split
        raise DataError(f"{name} split is empty: no sequence is assigned to {split}")


def _run_arms(
    train_seqs: list[SequenceData | Piece],
    valid_seqs: list[SequenceData | Piece],
    configs: list[ExperimentConfig],
    threads: int,
) -> list[ExperimentResult]:
    """One result per config, the configs differing in scheme and weighting
    only: each split windowed once (``window_run``), trained once
    (``train_split``) and scored per config (``score_arm``). The splits
    are sequences or their pieces, windowed under the first config; an
    empty one raises DataError (``check_split``) before any is windowed."""
    for config in configs:
        config.validate()
    check_split(train_seqs, "train")
    check_split(valid_seqs, "valid")
    weighs = any(c.weighting == STATISTICAL for c in configs)
    train, valid = (
        window_run(as_pieces(items, configs[0], trains, weighs))
        for items, trains in ((train_seqs, True), (valid_seqs, False))
    )
    (split,) = train_split([(train, valid, configs[0])], configs, threads)
    if isinstance(split, PainFusionError):
        raise split
    return [score_arm(split, config) for config in configs]


def run_experiment(
    train_seqs: list[SequenceData | Piece],
    valid_seqs: list[SequenceData | Piece],
    config: ExperimentConfig,
    threads: int = 1,
) -> ExperimentResult:
    """Train per-modality classifiers on the train split, fuse their
    validation probabilities, and score the result: ``window_run``,
    ``train_split`` and ``score_arm`` for the config's one arm."""
    return _run_arms(train_seqs, valid_seqs, [config], threads)[0]


MATRIX_ARMS = (
    ("singular", "singular", STATISTICAL),
    ("bifurcated_statistical", "bifurcated", STATISTICAL),
    ("quadrifurcated_statistical", "quadrifurcated", STATISTICAL),
    ("quadrifurcated_average", "quadrifurcated", AVERAGE),
)


def run_matrix(
    train_seqs: list[SequenceData | Piece],
    valid_seqs: list[SequenceData | Piece],
    base: ExperimentConfig,
    threads: int = 1,
) -> list[tuple[str, ExperimentResult]]:
    """Run the four standard arms (one scheme/weighting pair each) with
    shared windowing, classifier, and seed settings. One ``train_split``
    trains each of the six distinct modalities once, and ``score_arm``
    scores every arm on it, so the two quadrifurcated arms share their
    models and differ only in weighting. Every arm equals a
    ``run_experiment`` on its own config, bit for bit."""
    configs = [replace(base, scheme_name=s, weighting=w) for _, s, w in MATRIX_ARMS]
    results = _run_arms(train_seqs, valid_seqs, configs, threads)
    return [(arm[0], result) for arm, result in zip(MATRIX_ARMS, results)]


@dataclass(frozen=True)
class FoldResult:
    fold_id: str
    result: ExperimentResult


@dataclass(frozen=True)
class LoocvResult:
    config: ExperimentConfig
    granularity: str
    folds: tuple[FoldResult, ...]
    pooled_confusion: ConfusionMatrix
    pooled_metrics: MetricSet


GRANULARITIES = ("subject", "sequence")


def loocv(
    sequences: list[SequenceData | Piece],
    config: ExperimentConfig,
    granularity: str = "subject",
    threads: int = 1,
) -> LoocvResult:
    """Leave-one-out cross validation, by subject (default) or by
    individual sequence, of sequences or their pieces. The run is windowed
    once, before any fold (``window_run``); each fold picks its train and
    its held-out run from it and redoes standardization and training from
    its own train part, with a classifier seed derived from (config.seed,
    fold id). One
    ``train_split`` trains every fold on ``threads`` workers, and each
    fold is scored by ``score_arm`` in this process. The first failing
    fold in fold order raises, named.
    """
    if granularity not in GRANULARITIES:
        raise ConfigError(f"granularity must be one of {GRANULARITIES}, got {granularity!r}")
    config.validate()
    if granularity == "subject":
        keys = sorted({s.subject_id for s in sequences})
        held_out = {k: [i for i, s in enumerate(sequences) if s.subject_id == k] for k in keys}
    else:
        subjects = [s.subject_id for s in sequences]
        for subject in subjects:
            if subjects.count(subject) > 1:
                message = f"subject {subject!r} has {subjects.count(subject)} sequences"
                raise DataError(message + "; sequence folds need one sequence per subject")
        keys = [f"{s.subject_id}#{i}" for i, s in enumerate(sequences)]
        held_out = {k: [i] for i, k in enumerate(keys)}
    if len(keys) < 2:
        raise DataError(f"cross validation needs at least 2 folds, got {len(keys)}")
    run = window_run(as_pieces(sequences, config, True, config.weighting == STATISTICAL))
    splits = []
    for key in keys:
        train = [i for i in range(len(sequences)) if i not in held_out[key]]
        fold_spec = replace(config.classifier, seed=derive_seed(config.seed, "fold:" + key))
        fold_config = replace(config, classifier=fold_spec)
        splits.append((_pick(run, train), _pick(run, held_out[key]), fold_config))
    folds = []
    for key, split, trained in zip(keys, splits, train_split(splits, [config], threads)):
        if isinstance(trained, PainFusionError):
            raise type(trained)(f"fold {key}: {trained}") from trained
        folds.append(FoldResult(key, _stage(f"fold {key}", lambda: score_arm(trained, split[2]))))
    matrices = [f.result.confusion_matrix for f in folds]
    pooled = sum(matrices[1:], matrices[0])
    return LoocvResult(
        config=config,
        granularity=granularity,
        folds=tuple(folds),
        pooled_confusion=pooled,
        pooled_metrics=metrics(pooled),
    )


# --- report rendering -----------------------------------------------------

METRIC_COLUMNS = (
    "scheme",
    "weighting",
    "classifier",
    "acc",
    "prec_pos",
    "rec_pos",
    "f1_pos",
    "prec_macro",
    "rec_macro",
    "f1_macro",
)


def _metric_row(name: str, config: ExperimentConfig, ms: MetricSet) -> str:
    values = (
        ms.accuracy,
        ms.precision_pos,
        ms.recall_pos,
        ms.f1_pos,
        ms.precision_macro,
        ms.recall_macro,
        ms.f1_macro,
    )
    fields = [name, config.scheme_name, config.weighting, config.classifier.kind]
    fields.extend(repr(v) for v in values)
    return ",".join(fields)


def metrics_csv(rows: list[tuple[str, ExperimentConfig, MetricSet]]) -> str:
    """Machine CSV, one row per arm/fold; floats keep full precision."""
    out = ["name," + ",".join(METRIC_COLUMNS)]
    for name, config, ms in rows:
        out.append(_metric_row(name, config, ms))
    return "\n".join(out) + "\n"


def confusion_csv(rows: list[tuple[str, ConfusionMatrix, MetricSet]]) -> str:
    out = ["name,tp,fp,fn,tn,total,degenerate"]
    for name, cm, ms in rows:
        out.append(
            f"{name},{cm.tp},{cm.fp},{cm.fn},{cm.tn},{cm.total},{int(ms.degenerate)}"
        )
    return "\n".join(out) + "\n"


def metrics_table(rows: list[tuple[str, ConfusionMatrix, MetricSet]]) -> str:
    """Human-oriented fixed-width summary table."""
    header = (
        f"{'name':<28} {'acc':>7} {'prec+':>7} {'rec+':>7} {'f1+':>7} "
        f"{'f1macro':>8} {'tp':>6} {'fp':>6} {'fn':>6} {'tn':>6}"
    )
    lines = [header, "-" * len(header)]
    for name, cm, ms in rows:
        lines.append(
            f"{name:<28} {ms.accuracy:>7.4f} {ms.precision_pos:>7.4f} {ms.recall_pos:>7.4f} "
            f"{ms.f1_pos:>7.4f} {ms.f1_macro:>8.4f} {cm.tp:>6} {cm.fp:>6} {cm.fn:>6} {cm.tn:>6}"
        )
    return "\n".join(lines) + "\n"


def predictions_csv(result: ExperimentResult) -> Iterator[str]:
    """Per-window fused decisions: window_index, subject, per-modality
    probabilities in sorted key order, fused value, label, truth. Yields
    the header line, then the rows ``_BLOCK_ROWS`` at a time, so that the
    file's text is never held whole."""
    names = sorted(result.per_modality_probas)
    header = ["window_index", "subject_id"]
    header.extend("proba_" + n for n in names)
    header.extend(["fused_probability", "label", "true_label"])
    yield ",".join(header) + "\n"
    probas = [result.per_modality_probas[n] for n in names] + [result.fused_probabilities]
    labels = (result.predicted, result.valid_labels)
    for start in range(0, len(result.valid_labels), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        columns = [map(str, range(len(result.valid_labels))[block]), result.valid_subjects[block]]
        columns.extend(map(repr, p[block].tolist()) for p in probas)
        columns.extend(map(str, y[block].tolist()) for y in labels)
        yield "".join(",".join(row) + "\n" for row in zip(*columns))


def weights_csv(weights: FusionWeights) -> str:
    lines = [f"# scheme={weights.scheme_name} provenance={weights.provenance}"]
    lines.append("modality,weight,raw_relevance")
    for name in sorted(weights.weights):
        lines.append(
            f"{name},{repr(weights.weights[name])},{repr(weights.raw_relevance[name])}"
        )
    return "\n".join(lines) + "\n"
