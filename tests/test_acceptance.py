"""Package-level guarantees, one test per criterion.

Each test prints a single PASS/FAIL line (run ``pytest -s`` to see them
on passing runs) and then asserts. The checks run against the shipped
defaults; nothing here depends on external data except the last one,
which only activates when EMOPAIN_MANIFEST points at a real corpus.
"""

import contextlib
import io
import os
import time

import numpy as np
import pytest

from oracles import (
    kendall_oracle,
    metric_oracle,
    pearson_oracle,
    spearman_oracle,
)
from painfusion import (
    ClassifierSpec,
    ConfusionMatrix,
    ExperimentConfig,
    SequenceData,
    generate_synthetic,
    grad_check,
    kendall_tau_b,
    loocv,
    make_windows,
    metrics,
    modality_weights,
    pearson_r,
    run_experiment,
    run_matrix,
    scheme_by_name,
    spearman_rho,
    split_train_valid,
)
from painfusion.cli import main
from painfusion.data import SyntheticConfig, load_sequences, split_by_manifest
from painfusion.presets import (
    default_experiment_config,
    default_synthetic_config,
    synthetic_split,
)
from painfusion.stats import normalize_relevances

SCHEMES = ("singular", "bifurcated", "quadrifurcated")


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _small_corpus(seed=0, n_subjects=6):
    config = SyntheticConfig(
        n_subjects=n_subjects,
        frames_per_subject=300,
        positive_rate=0.15,
        modality_snr={"coords": 1.0, "semg": 1.5},
        seed=seed,
        mean_positive_bout=30,
    )
    return generate_synthetic(config)


def _small_config(seed=0, scheme="bifurcated", weighting="statistical"):
    spec = ClassifierSpec(kind="logistic", seed=seed, epochs=4, learning_rate=0.1)
    return ExperimentConfig(
        scheme_name=scheme,
        weighting=weighting,
        classifier=spec,
        seed=seed,
        window_length=20,
        window_stride=10,
    )


def test_correlation_oracles():
    """1,000 random pairs with planted ties: spearman and pearson agree
    with their textbook oracles to 1e-12, kendall agrees exactly."""
    rng = np.random.default_rng(20260816)
    t0 = time.time()
    worst_s = worst_p = 0.0
    kendall_bad = 0
    for _ in range(1000):
        n = int(rng.integers(3, 501))
        alphabet = max(2, n // 3)
        x = rng.integers(0, alphabet, size=n).astype(float)
        y = 0.5 * x + rng.integers(0, alphabet, size=n).astype(float)

        s = spearman_rho(x, y)
        so = spearman_oracle(x, y)
        if so is None:
            assert s.degenerate
        else:
            worst_s = max(worst_s, abs(s.coefficient - so))

        p = pearson_r(x, y)
        po = pearson_oracle(x, y)
        if po is None:
            assert p.degenerate
        else:
            worst_p = max(worst_p, abs(p.coefficient - po))

        k = kendall_tau_b(x, y)
        ko = kendall_oracle(x, y)
        if ko is None:
            kendall_bad += 0 if k.degenerate else 1
        elif k.coefficient != ko:
            kendall_bad += 1
    elapsed = time.time() - t0
    ok = worst_s <= 1e-12 and worst_p <= 1e-12 and kendall_bad == 0 and elapsed < 30
    _report(
        1,
        "correlation oracles",
        ok,
        f"spearman {worst_s:.2e}, pearson {worst_p:.2e}, "
        f"kendall mismatches {kendall_bad}, {elapsed:.1f}s",
    )


def test_gradient_checks():
    """Analytic gradients vs central differences over 20 seeds per
    architecture: < 1e-7 logistic, < 1e-6 mlp, < 1e-5 cnn1d."""
    t0 = time.time()
    tolerances = {"logistic": 1e-7, "mlp": 1e-6, "cnn1d": 1e-5}
    worst = {}
    for kind in tolerances:
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            draws = [(rng.standard_normal((8, 6)), int(rng.integers(2))) for _ in range(6)]
            windows = np.stack([features for features, _ in draws])
            labels = np.array([label for _, label in draws])
            spec = ClassifierSpec(
                kind=kind, seed=seed, hidden_units=5, conv_channels=3, kernel_width=3
            )
            errs.append(grad_check(spec, windows, labels))
        worst[kind] = max(errs)
    elapsed = time.time() - t0
    ok = all(worst[k] < tolerances[k] for k in tolerances) and elapsed < 60
    detail = ", ".join(f"{k} {worst[k]:.2e}" for k in tolerances)
    _report(2, "gradient checks", ok, f"{detail}, {elapsed:.1f}s")


def test_weight_contract():
    """Across a corpus of datasets and every scheme: weights nonnegative,
    sum 1 within 1e-12, invariant under positive scaling of the raw
    relevances; constant-feature modalities get 0; an all-degenerate
    dataset falls back to equal weights with downgraded provenance."""
    datasets = {}

    def windows_of(seqs):
        pairs = [make_windows(s, 20, 10) for s in seqs]
        return np.concatenate([w for w, _ in pairs]), np.concatenate([y for _, y in pairs])

    datasets["signal"] = windows_of(_small_corpus(seed=0))
    datasets["noise"] = windows_of(
        generate_synthetic(
            SyntheticConfig(4, 300, 0.15, {"coords": 0.0, "semg": 0.0}, seed=1,
                            mean_positive_bout=30)
        )
    )
    def overwrite(seqs, columns, value):
        out = []
        for s in seqs:
            features = s.features.copy()
            features[:, columns] = value
            out.append(SequenceData(s.subject_id, s.group, features, s.labels, s.extras))
        return out

    datasets["constant_semg"] = windows_of(
        overwrite(_small_corpus(seed=2, n_subjects=4), slice(66, 70), 3.7)
    )
    datasets["all_constant"] = windows_of(
        overwrite(_small_corpus(seed=3, n_subjects=4), slice(0, 70), -1.25)
    )

    failures = []
    for ds_name, (wins, labels) in datasets.items():
        for scheme_name in SCHEMES:
            scheme = scheme_by_name(scheme_name)
            fw = modality_weights(wins, labels, scheme)
            tag = f"{ds_name}/{scheme_name}"
            if any(v < 0 for v in fw.weights.values()):
                failures.append(f"{tag}: negative weight")
            if abs(sum(fw.weights.values()) - 1.0) > 1e-12:
                failures.append(f"{tag}: weights sum {sum(fw.weights.values())!r}")
            for scale in (1e-6, 3.7, 1e6):
                scaled = normalize_relevances(
                    {k: scale * v for k, v in fw.raw_relevance.items()}
                )
                if scaled is None:
                    if fw.provenance == "statistical":
                        failures.append(f"{tag}: scaling collapsed relevances")
                    continue
                drift = max(abs(scaled[k] - fw.weights[k]) for k in fw.weights)
                if drift > 1e-9:
                    failures.append(f"{tag}: scaling drift {drift:.2e} at {scale}")
            if ds_name == "constant_semg" and "semg" in fw.weights:
                if fw.weights["semg"] != 0.0:
                    failures.append(f"{tag}: constant modality weight {fw.weights['semg']!r}")
            if ds_name == "all_constant" and scheme_name != "singular":
                equal = 1.0 / len(scheme.names)
                if fw.provenance != "average":
                    failures.append(f"{tag}: provenance {fw.provenance!r}")
                if any(abs(v - equal) > 1e-12 for v in fw.weights.values()):
                    failures.append(f"{tag}: fallback weights {fw.weights}")
    _report(
        3,
        "weight contract",
        not failures,
        failures[0] if failures else
        f"{len(datasets)} datasets x {len(SCHEMES)} schemes clean",
    )


def test_metric_oracle():
    """500 random confusion matrices match the closed-form oracle
    exactly; the 171/2698 all-negative illustration lands near 0.94
    accuracy with zero positive recall."""
    rng = np.random.default_rng(4)
    mismatches = 0
    for _ in range(500):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 300, size=4))
        if tp + fp + fn + tn == 0:
            tn = 1
        ms = metrics(ConfusionMatrix(tp, fp, fn, tn))
        expected = metric_oracle(tp, fp, fn, tn)
        for key, value in expected.items():
            if getattr(ms, key) != value:
                mismatches += 1
    ms = metrics(ConfusionMatrix(tp=0, fp=0, fn=171, tn=2527))
    illustration = abs(ms.accuracy - 0.940) < 0.005 and ms.recall_pos == 0.0
    ok = mismatches == 0 and illustration
    _report(
        4,
        "metric oracle",
        ok,
        f"{mismatches} mismatches; all-negative accuracy {ms.accuracy:.4f}, "
        f"recall_pos {ms.recall_pos}",
    )


def test_leakage_invariant():
    """Flipping every validation label must leave all fitted parameters,
    standardization constants, fusion weights, and per-modality
    probabilities bit-identical."""
    seqs = _small_corpus()
    train, valid = seqs[:4], seqs[4:]
    flipped = [
        SequenceData(s.subject_id, s.group, s.features,
                     (1 - s.labels).astype(s.labels.dtype), s.extras)
        for s in valid
    ]
    config = _small_config()
    a = run_experiment(train, valid, config)
    b = run_experiment(train, flipped, config)

    same = a.weights == b.weights
    for name in a.classifiers:
        ca, cb = a.classifiers[name], b.classifiers[name]
        same = same and ca.params.tobytes() == cb.params.tobytes()
        same = same and ca.feature_mean.tobytes() == cb.feature_mean.tobytes()
        same = same and ca.feature_std.tobytes() == cb.feature_std.tobytes()
        same = same and (
            a.per_modality_probas[name].tobytes() == b.per_modality_probas[name].tobytes()
        )
    differs = a.confusion_matrix != b.confusion_matrix
    _report(
        5,
        "leakage invariant",
        same and differs,
        "training artifacts bit-identical, scores moved" if same and differs
        else "validation data influenced training",
    )


def test_directional_fusion_gain():
    """On the shipped synthetic configuration, over seeds 0..9:
    (a) bifurcated+statistical f1_pos >= singular f1_pos in >= 8 seeds;
    (b) quadrifurcated+statistical >= quadrifurcated+average likewise."""
    t0 = time.time()
    a_wins = b_wins = 0
    for seed in range(10):
        seqs = generate_synthetic(default_synthetic_config(seed))
        train_ids, valid_ids = synthetic_split(len(seqs))
        train, valid = split_train_valid(seqs, train_ids, valid_ids)
        rows = dict(run_matrix(train, valid, default_experiment_config(seed), threads=4))
        f1 = {name: r.metric_set.f1_pos for name, r in rows.items()}
        a_wins += f1["bifurcated_statistical"] >= f1["singular"]
        b_wins += f1["quadrifurcated_statistical"] >= f1["quadrifurcated_average"]
    elapsed = time.time() - t0
    ok = a_wins >= 8 and b_wins >= 8 and elapsed < 300
    _report(
        6,
        "directional fusion gain",
        ok,
        f"bifurcated vs singular {a_wins}/10, statistical vs average "
        f"{b_wins}/10, {elapsed:.0f}s",
    )


def test_loocv_structure():
    """Fold count equals subject count, every window is tested exactly
    once, pooled confusion covers the whole corpus, and fold weights
    differ when fold data differs."""
    seqs = _small_corpus(n_subjects=4)
    config = _small_config()
    result = loocv(seqs, config)

    subjects = sorted({s.subject_id for s in seqs})
    corpus_windows = sum(
        len(make_windows(s, config.window_length, config.window_stride)[1]) for s in seqs
    )
    fold_ok = [f.fold_id for f in result.folds] == subjects
    tested_once = all(
        set(f.result.valid_subjects) == {f.fold_id} for f in result.folds
    )
    tested_count = sum(len(f.result.valid_subjects) for f in result.folds)
    pooled_ok = result.pooled_confusion.total == corpus_windows == tested_count
    weight_variants = {
        tuple(sorted(f.result.weights.weights.items())) for f in result.folds
    }
    weights_differ = len(weight_variants) > 1
    ok = fold_ok and tested_once and pooled_ok and weights_differ
    _report(
        7,
        "cross-validation structure",
        ok,
        f"{len(result.folds)} folds over {len(subjects)} subjects, "
        f"{tested_count}/{corpus_windows} windows tested, "
        f"{len(weight_variants)} distinct weightings",
    )


CLI_INI = """\
[run]
seed = 3
scheme = bifurcated
weighting = statistical

[windows]
length = 20
stride = 10

[classifier]
kind = logistic
epochs = 4
learning_rate = 0.1

[synthetic]
n_subjects = 6
frames_per_subject = 300
positive_rate = 0.15
mean_positive_bout = 30
snr.coords = 1.0
snr.semg = 1.5
"""


def test_cli_determinism(tmp_path):
    """Every CLI command, rerun with the same config and seed at varying
    thread counts, writes byte-identical artifacts."""
    ini = tmp_path / "run.ini"
    ini.write_text(CLI_INI)

    def run(command, tag, threads):
        out = tmp_path / f"{command}-{tag}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(
                [command, "--config", str(ini), "--out", str(out), "--threads", str(threads)]
            )
        assert code == 0, f"{command} exited {code}"
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    unstable = []
    for command in ("synth", "analyze", "weights", "evaluate", "matrix", "loocv"):
        first = run(command, "a", 1)
        second = run(command, "b", 1)
        threaded = run(command, "c", 3)
        if not (first == second == threaded):
            unstable.append(command)
    _report(
        8,
        "deterministic CLI",
        not unstable,
        ", ".join(unstable) if unstable else "6 commands x 3 runs byte-identical",
    )


def test_real_data_direction():
    """Optional: with EMOPAIN_MANIFEST set, the full pipeline runs on the
    real corpus and statistical weighting beats the single-model
    benchmark on positive-class F1."""
    manifest = os.environ.get("EMOPAIN_MANIFEST")
    if not manifest:
        print("criterion 9 (real-data direction): SKIP [EMOPAIN_MANIFEST not set]")
        pytest.skip("EMOPAIN_MANIFEST not set")
    pairs = load_sequences(manifest)
    train, valid = split_by_manifest(pairs)
    rows = dict(run_matrix(train, valid, default_experiment_config(7), threads=4))
    singular = rows["singular"].metric_set.f1_pos
    statistical = rows["quadrifurcated_statistical"].metric_set.f1_pos
    ok = statistical > singular
    _report(
        9,
        "real-data direction",
        ok,
        f"quadrifurcated+statistical f1 {statistical:.3f} vs singular {singular:.3f}",
    )
