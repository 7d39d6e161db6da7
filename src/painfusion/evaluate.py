"""Experiment orchestration: confusion-matrix metrics, train/valid
evaluation of one fused configuration, the four-arm comparison matrix,
and leave-one-subject-out cross validation.

Class 1 (protective behavior present) is the positive class throughout.
Ratios with an empty denominator are reported as 0.0 and flagged, never
raised, so heavily imbalanced splits still produce a full report.
"""

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .data import SequenceData, _stable_key, check_window_rule, make_windows, map_ordered
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
class WindowedRun:
    """Sequences windowed once (see ``window_run``): the sequences, their
    windows as one WindowSet over the 70 feature columns (each model reads
    its own), the int8 window labels and ``means``, the [n_windows, 70]
    window time means: the ``rows`` slices of ``pooled``, joined on each
    use (one slice is a view), so that a run holds no copy of them.
    ``sort()``, cached per process, is ``sort_columns`` of the reduced
    matrix of the ``window_run`` run that ``pooled`` pools, and
    ``moments()`` the ``sequence_moments`` entries of the run's sequences,
    in order, taken from that run's cached ones."""

    sequences: tuple[SequenceData, ...]
    windows: WindowSet
    labels: np.ndarray
    pooled: np.ndarray
    rows: tuple[slice, ...]
    sort: Callable[[], tuple[np.ndarray, np.ndarray]]
    moments: Callable[[], list]

    @property
    def means(self) -> np.ndarray:
        parts = [self.pooled[r] for r in self.rows]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def relevance(self) -> np.ndarray:
        """``feature_relevance`` of the run under its reduction, bit for
        bit, ranked from its rows of the sorted reduced matrix."""
        return ranked_relevance(*self.sort(), self.labels, self.rows)


def window_run(sequences, config: ExperimentConfig) -> WindowedRun:
    """Window and pool sequences once under the config's window rule. The
    WindowSet copies nothing: it holds each sequence's read-only frames. The
    run reduces by the config's reduction. A sequence shorter than a window
    raises, with the stage prefixed, so every sequence has its entry of
    ``moments()``, which sums its frames on first use only."""
    rule = (config.window_length, config.window_stride, config.positive_fraction_threshold)
    labels = _stage("windowing", lambda: [make_windows(seq, *rule)[1] for seq in sequences])
    windows = WindowSet([seq.features for seq in sequences], *rule[:2], N_FEATURES)
    labels = np.concatenate([np.zeros(0, dtype=np.int8)] + labels)
    pooled = pool_windows(windows)
    r = config.reduction
    sort = cache(lambda: sort_columns(pooled if r == "mean" else pool_windows(windows, r)))
    moments = cache(lambda: sequence_moments(windows))
    return WindowedRun(tuple(sequences), windows, labels, pooled, (slice(None),), sort, moments)


def _pick(run: WindowedRun, indices) -> WindowedRun:
    """The run of the sequences at ``indices`` of a run that ``window_run``
    made, in that order, windowed, pooled, sorted and summed by ``run``."""
    starts = np.cumsum((0,) + run.windows.counts).tolist()
    rows = tuple(slice(starts[i], starts[i + 1]) for i in indices)
    sequences = tuple(run.sequences[i] for i in indices)
    rule = (run.windows.shape[1], run.windows.stride, N_FEATURES)
    windows = WindowSet([s.features for s in sequences], *rule)
    labels = np.concatenate([run.labels[r] for r in rows])
    picked = lambda: [run.moments()[i] for i in indices]
    return WindowedRun(sequences, windows, labels, run.pooled, rows, run.sort, picked)


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


def train_split(splits, configs, threads: int) -> list:
    """Train each distinct modality of the configs' schemes once per split
    and predict the split's validation run. A split is a (train, valid,
    base) triple: two ``WindowedRun``s and the config whose classifier seed
    each model's seed is derived from, by modality name.

    Every split's frame statistics are merged here, before any task, from
    its train run's sequence moments, and its validation run's window time
    means, standardized by them, must lie within Z_BOUND. The one training
    planner; its tasks run on ``threads`` workers (``map_ordered``), and
    every task is one ``fit_lockstep``. Pooled kinds train on time means:
    each group of splits that share a train window count is cut into at
    most ``threads`` contiguous chunks of at most LOCKSTEP_SPLITS, and a
    chunk is a task. A cnn1d model trains alone on the WindowSet, so a
    cnn1d task is one (split, modality) pair. When a config weighs
    statistically, the task that trains a split's first modality computes
    the split's relevance too; otherwise none is computed.

    The splits' classifiers must agree but for the seed. Returns per split
    its TrainedSplit, or its first error, prefixed with the stage: a
    DataError for a train run whose frame statistics overflow or a
    validation run with a non-finite or out-of-bound standardized window
    time mean (such a split is not trained), the NumericError of its
    first diverging modality, named, or else the error its relevance
    raised; the other splits train on. Other errors raise, with the stage
    prefixed."""
    spec = splits[0][2].classifier
    if any(replace(base.classifier, seed=spec.seed) != spec for _, _, base in splits):
        raise ConfigError("models trained in lockstep must share every spec field but the seed")
    for train, valid, _ in splits:
        train_ids, valid_ids = ({s.subject_id for s in run.sequences} for run in (train, valid))
        if train_ids & valid_ids:
            raise DataError(f"subject(s) in both splits: {sorted(train_ids & valid_ids)}")
        for name, run in (("train", train), ("validation", valid)):
            if not run.sequences:
                raise DataError(f"windowing: {name} split produced no windows")
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
        with np.errstate(over="ignore", invalid="ignore"):
            peak = np.abs((valid.means - mean) / std).max(axis=0)
        beyond = np.flatnonzero(~(peak <= Z_BOUND))
        if len(beyond):
            j = beyond[0]
            per_split[i].append(DataError(
                f"validation: feature column {j}: standardized window time mean of "
                f"magnitude {peak[j]:.3g} exceeds {Z_BOUND:g} (values too large in magnitude)"
            ))
    live = [i for i, outcomes in enumerate(per_split) if not outcomes]
    pooled = spec.kind in POOLED_KINDS
    if pooled:
        by_size = {}
        for i in live:
            by_size.setdefault(len(splits[i][0].labels), []).append(i)
        tasks = []
        for group in by_size.values():
            n = max(min(threads, len(group)), -(-len(group) // LOCKSTEP_SPLITS))
            tasks += [(group[len(group) * j // n : len(group) * (j + 1) // n], keys) for j in range(n)]
    else:
        # A cnn1d model holds all of its modality's frames, so it trains alone.
        tasks = [([i], [key]) for i in live for key in keys]

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
        probabilities) pairs or its error, and, when an arm weighs
        statistically and the task trains its first modality, its relevance
        or the error it raised, else None."""
        indices, task_keys = task
        computes = weighs and task_keys[0] == keys[0]
        # fit_lockstep reads the sets one at a time, so each train run's
        # time means are joined only while its models' inputs are built.
        sets = (training_set(i, task_keys) for i in indices)
        done = []
        for i, models in zip(indices, fit_lockstep(spec, sets)):
            if isinstance(models, NumericError):
                outcomes = [NumericError(f"training: {task_keys[models.model][0]}: {models}")]
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
        errors = [o for o in outcomes + [relevance] if isinstance(o, PainFusionError)]
        if errors:
            trained.append(errors[0])
            continue
        subjects = np.repeat([s.subject_id for s in valid.sequences], valid.windows.counts)
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


def _run_arms(
    train_seqs: list[SequenceData],
    valid_seqs: list[SequenceData],
    configs: list[ExperimentConfig],
    threads: int,
) -> list[ExperimentResult]:
    """One result per config, the configs differing in scheme and weighting
    only: each split windowed once (``window_run``), trained once
    (``train_split``) and scored per config (``score_arm``)."""
    for config in configs:
        config.validate()
    train, valid = (window_run(seqs, configs[0]) for seqs in (train_seqs, valid_seqs))
    (split,) = train_split([(train, valid, configs[0])], configs, threads)
    if isinstance(split, PainFusionError):
        raise split
    return [score_arm(split, config) for config in configs]


def run_experiment(
    train_seqs: list[SequenceData],
    valid_seqs: list[SequenceData],
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
    train_seqs: list[SequenceData],
    valid_seqs: list[SequenceData],
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
    sequences: list[SequenceData],
    config: ExperimentConfig,
    granularity: str = "subject",
    threads: int = 1,
) -> LoocvResult:
    """Leave-one-out cross validation, by subject (default) or by
    individual sequence. The run is windowed once, before any fold
    (``window_run``); each fold picks its train and its held-out run from
    it and redoes standardization and training from its own train part,
    with a classifier seed derived from (config.seed, fold id). One
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
    run = window_run(sequences, config)
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


def predictions_csv(result: ExperimentResult) -> str:
    """Per-window fused decisions: window_index, subject, per-modality
    probabilities in sorted key order, fused value, label, truth."""
    names = sorted(result.per_modality_probas)
    header = ["window_index", "subject_id"]
    header.extend("proba_" + n for n in names)
    header.extend(["fused_probability", "label", "true_label"])
    columns = [map(str, range(len(result.valid_labels))), result.valid_subjects]
    probas = [result.per_modality_probas[n] for n in names] + [result.fused_probabilities]
    columns.extend(map(repr, p.tolist()) for p in probas)
    columns.extend(map(str, y.tolist()) for y in (result.predicted, result.valid_labels))
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


def weights_csv(weights: FusionWeights) -> str:
    lines = [f"# scheme={weights.scheme_name} provenance={weights.provenance}"]
    lines.append("modality,weight,raw_relevance")
    for name in sorted(weights.weights):
        lines.append(
            f"{name},{repr(weights.weights[name])},{repr(weights.raw_relevance[name])}"
        )
    return "\n".join(lines) + "\n"
