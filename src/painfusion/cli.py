"""Command-line surface.

Subcommands: analyze, weights, synth, evaluate, matrix, loocv. Shared
flags: --config, --out, --seed, --threads, --manifest. Every artifact is
written under --out; reruns with the same config, seed, and any thread
count produce byte-identical files.

Exit codes: 0 success, 2 ConfigError, 3 DataError, 4 NumericError, 5
InternalError or any unplanned exception. Failures print one line to
stderr of the form ``error[<category>]: <message>``. ZeroVariance, a
DataError, is the one finer class; ``analyze`` catches it.
"""

import argparse
import os
import sys
from collections.abc import Iterable
from dataclasses import replace

import numpy as np

from .config import RunConfig, load_run_config
from .data import (
    ManifestEntry,
    generate_synthetic,
    load_sequences,
    map_ordered,
    split_by_manifest,
    split_train_valid,
    subject_builder,
    write_manifest,
    write_sequence_file,
)
from .evaluate import (
    as_pieces,
    check_split,
    confusion_csv,
    loocv,
    metrics_csv,
    metrics_table,
    predictions_csv,
    run_experiment,
    run_matrix,
    weights_csv,
    window_run,
    window_sequence,
)
from .errors import ConfigError, DataError, PainFusionError, ZeroVariance
from .modality import scheme_by_name
from .models import POOLED_KINDS
from .presets import synthetic_split
from .stats import STATISTICAL, fusion_weights, normality_report, recommend_method

_POOLED_QQ_POINTS = 512
_FEATURE_QQ_POINTS = 64


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="INI run configuration file")
    shared.add_argument("--out", default="painfusion-out", help="output directory")
    shared.add_argument("--seed", type=int, help="seed (overrides [run] seed)")
    shared.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker processes for training tasks (a one-split logistic or mlp run spreads "
        "its modalities over them), corpus files to parse and synthetic subjects (each "
        "built, and written or windowed, in its worker), and threads building the "
        "synthetic subjects that analyze and cnn1d runs keep whole",
    )
    shared.add_argument("--manifest", help="dataset manifest CSV (overrides [run] manifest)")

    parser = argparse.ArgumentParser(
        prog="painfusion",
        description="correlation-weighted multimodal fusion for protective-behavior recognition",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[shared], help="normality diagnostics and method recommendation")
    sub.add_parser("weights", parents=[shared], help="derive fusion weights from the training split")
    sub.add_parser("synth", parents=[shared], help="generate a synthetic dataset and manifest")
    p_eval = sub.add_parser("evaluate", parents=[shared], help="run one train/valid experiment arm")
    p_eval.add_argument("--scheme", help="override the configured modality scheme")
    p_eval.add_argument("--weighting", help="override the configured weighting mode")
    sub.add_parser("matrix", parents=[shared], help="run all four scheme/weighting arms")
    p_loocv = sub.add_parser("loocv", parents=[shared], help="leave-one-out cross validation")
    p_loocv.add_argument("--granularity", choices=("subject", "sequence"))
    return parser


def _map_subjects(run: RunConfig, fn) -> list:
    """``fn(subject)`` for every synthetic subject, in subject order. Each
    subject is built and mapped in the worker that maps its index
    (``map_ordered`` on ``--threads`` forked workers), so only what ``fn``
    returns comes back, and the calling process holds no subject's frames."""
    subject = subject_builder(run.synthetic)
    return map_ordered(lambda i: fn(subject(i)), range(run.synthetic.n_subjects), run.threads)


def _load_dataset(run: RunConfig, window=None):
    """Resolve the data source: manifest if configured, otherwise the
    synthetic generator. Returns (train, valid, all) sequences or, given
    ``window(sequence, trains)``, what it makes of each sequence in the
    worker that parses or builds it, ``trains`` telling whether the
    sequence is in the train split. Without ``window``, synthetic subjects
    are built on ``generate_synthetic``'s threads and kept whole."""
    if run.manifest is not None:
        each = None if window is None else lambda entry, seq: window(seq, entry.split == "train")
        pairs = load_sequences(run.manifest, run.threads, each)
        train, valid = split_by_manifest(pairs)
        return train, valid, [seq for _, seq in pairs]
    train_ids, valid_ids = synthetic_split(run.synthetic.n_subjects)
    if window is None:
        sequences = generate_synthetic(run.synthetic, run.threads)
    else:
        sequences = _map_subjects(run, lambda seq: window(seq, seq.subject_id in train_ids))
    train, valid = split_train_valid(sequences, train_ids, valid_ids)
    return train, valid, sequences


def _window(config, trains: bool | None = None, weighs: bool | None = None):
    """A ``_load_dataset`` window: each sequence's piece under the config
    (``window_sequence``), with its moments when it is in the train split,
    or always or never when ``trains`` is given, and the reduction that
    the statistical weighting reads when the config, or ``weighs``, says
    that it weighs statistically. None for a kind that reads frames
    (``cnn1d``): its pieces keep them, so making them in a worker would
    only send the frames back, and the run windows its sequences here."""
    if config.classifier.kind not in POOLED_KINDS:
        return None
    if weighs is None:
        weighs = config.weighting == STATISTICAL
    return lambda seq, train: window_sequence(
        seq, config, train if trains is None else trains, weighs
    )


def _train_split(run: RunConfig, window=None):
    """The train split, which ``analyze`` and ``weights`` read; an empty
    one raises DataError (``check_split``)."""
    train = _load_dataset(run, window)[0]
    check_split(train, "train")
    return train


def _check_out(out_dir: str) -> None:
    """--out must name a directory, or a missing path whose nearest existing
    ancestor is one; an empty one names none (abspath would read it as the
    current directory, and writing would fail)."""
    if not out_dir:
        raise ConfigError("--out is empty: name an output directory")
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {out_dir}: {path} exists and is not a directory")


def _write(run: RunConfig, name: str, text: str | Iterable[str]) -> str:
    """Write a text, or the pieces of text that an iterable yields, each
    as it is made, to ``name`` under --out."""
    os.makedirs(run.out_dir, exist_ok=True)
    path = os.path.join(run.out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
    return path


def cmd_analyze(run: RunConfig, args) -> int:
    train = _train_split(run)
    frames = np.concatenate([seq.features for seq in train], axis=0)

    rows = [
        "feature,n,mean,std,skewness,excess_kurtosis,jarque_bera_stat,jarque_bera_p,constant"
    ]
    for j in range(frames.shape[1]):
        try:
            r = normality_report(frames[:, j], qq_points=_FEATURE_QQ_POINTS)
        except ZeroVariance:
            rows.append(f"{j},{frames.shape[0]},,,,,,,1")
            continue
        except DataError as exc:
            raise DataError(f"feature column {j}: {exc}") from None
        rows.append(
            f"{j},{r.n},{r.mean!r},{r.std!r},{r.skewness!r},{r.excess_kurtosis!r},"
            f"{r.jarque_bera_stat!r},{r.jarque_bera_p!r},0"
        )
    _write(run, "normality_per_feature.csv", "\n".join(rows) + "\n")

    pooled = normality_report(frames.reshape(-1), qq_points=_POOLED_QQ_POINTS)
    _write(run, "normality_pooled.txt", pooled.to_text())
    _write(run, "qq_pooled.csv", pooled.qq_csv())
    recommendation = recommend_method(pooled)
    _write(run, "recommendation.txt", "\n".join(recommendation) + "\n")
    for line in recommendation:
        print(line)
    return 0


def cmd_weights(run: RunConfig, args) -> int:
    config = run.experiment
    train = _train_split(run, _window(config, trains=False))
    scheme = scheme_by_name(config.scheme_name, config.joint_map)
    relevance = lambda: window_run(as_pieces(train, config, False, True)).relevance()
    weights = fusion_weights(config.weighting, scheme, relevance)
    _write(run, "weights.csv", weights_csv(weights))
    _write(run, "weights.txt", weights.to_text())
    print(weights.to_text(), end="")
    return 0


def cmd_synth(run: RunConfig, args) -> int:
    train_ids = set(synthetic_split(run.synthetic.n_subjects)[0])
    os.makedirs(run.out_dir, exist_ok=True)

    def write(seq):
        """Write a subject's file in the worker that built it; only the
        manifest entry and counts go back."""
        filename = f"{seq.subject_id}.csv"
        write_sequence_file(seq, os.path.join(run.out_dir, filename))
        split = "train" if seq.subject_id in train_ids else "valid"
        entry = ManifestEntry(seq.subject_id, seq.group, split, filename)
        return entry, seq.n_frames, int(seq.labels.sum())

    entries, frames, positives = zip(*_map_subjects(run, write))
    write_manifest(entries, os.path.join(run.out_dir, "manifest.csv"))

    total, positives = sum(frames), sum(positives)
    print(f"wrote {len(entries)} sequences, {total} frames, manifest.csv")
    print(f"frame positive rate = {positives / total!r} (target {run.synthetic.positive_rate!r})")
    return 0


def _write_report(run: RunConfig, rows) -> int:
    """Write metrics.csv, confusion.csv and report.txt from (name, config,
    confusion matrix, metric set) rows, and print the report."""
    _write(run, "metrics.csv", metrics_csv([(n, c, ms) for n, c, _, ms in rows]))
    confusion_rows = [(n, cm, ms) for n, _, cm, ms in rows]
    _write(run, "confusion.csv", confusion_csv(confusion_rows))
    table = metrics_table(confusion_rows)
    _write(run, "report.txt", table)
    print(table, end="")
    return 0


def cmd_evaluate(run: RunConfig, args) -> int:
    config = run.experiment
    if getattr(args, "scheme", None):
        config = replace(config, scheme_name=args.scheme)
    if getattr(args, "weighting", None):
        config = replace(config, weighting=args.weighting)
    config.validate()
    train, valid, _ = _load_dataset(run, _window(config))
    result = run_experiment(train, valid, config, threads=run.threads)
    name = f"{config.scheme_name}_{config.weighting}"
    _write(run, "weights.csv", weights_csv(result.weights))
    _write(run, "predictions.csv", predictions_csv(result))
    return _write_report(run, [(name, config, result.confusion_matrix, result.metric_set)])


def cmd_matrix(run: RunConfig, args) -> int:
    train, valid, _ = _load_dataset(run, _window(run.experiment, weighs=True))
    results = run_matrix(train, valid, run.experiment, threads=run.threads)
    for arm_name, result in results:
        _write(run, f"weights_{arm_name}.csv", weights_csv(result.weights))
        _write(run, f"predictions_{arm_name}.csv", predictions_csv(result))
    rows = [(name, r.config, r.confusion_matrix, r.metric_set) for name, r in results]
    return _write_report(run, rows)


def cmd_loocv(run: RunConfig, args) -> int:
    granularity = getattr(args, "granularity", None) or run.granularity
    pieces = _load_dataset(run, _window(run.experiment, trains=True))[2]
    result = loocv(pieces, run.experiment, granularity, threads=run.threads)
    rows = [
        (f.fold_id, f.result.config, f.result.confusion_matrix, f.result.metric_set)
        for f in result.folds
    ]
    rows.append(("pooled", result.config, result.pooled_confusion, result.pooled_metrics))
    return _write_report(run, rows)


_COMMANDS = {
    "analyze": cmd_analyze,
    "weights": cmd_weights,
    "synth": cmd_synth,
    "evaluate": cmd_evaluate,
    "matrix": cmd_matrix,
    "loocv": cmd_loocv,
}


def _fail(category: str, message: str, code: int) -> int:
    flat = " ".join(str(message).split())
    print(f"error[{category}]: {flat}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = load_run_config(args.config, args.out, args.seed, args.threads)
        _check_out(run.out_dir)
        if args.manifest is not None:
            run = replace(run, manifest=args.manifest)
        return _COMMANDS[args.command](run, args)
    except PainFusionError as exc:
        return _fail(exc.category, str(exc), exc.exit_code)
    except Exception as exc:  # classifies anything unplanned as internal
        return _fail("internal", f"{type(exc).__name__}: {exc}", 5)


if __name__ == "__main__":
    sys.exit(main())
