"""Scoring, the experiment pipeline, and cross validation."""

import concurrent.futures
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from painfusion import (
    ClassifierSpec,
    ConfusionMatrix,
    ExperimentConfig,
    JointSegmentMap,
    confusion,
    fit,
    loocv,
    make_windows,
    metrics,
    run_experiment,
    run_matrix,
    scheme_by_name,
)
from painfusion import evaluate as evaluate_module
from painfusion import models as models_module
from painfusion import stats as stats_module
from painfusion.config import load_run_config
from painfusion.data import SyntheticConfig, generate_synthetic, split_train_valid
from painfusion.errors import ConfigError, DataError, NumericError
from painfusion.evaluate import (
    MATRIX_ARMS,
    _pick,
    METRIC_COLUMNS,
    confusion_csv,
    derive_seed,
    metrics_csv,
    score_arm,
    train_split,
    weights_csv,
    window_run,
)
from painfusion.modality import SEGMENTS
from painfusion.models import WindowSet, frame_statistics, merge_moments
from painfusion.stats import feature_relevance, modality_weights, spearman_rho
from painfusion.presets import synthetic_split

from oracles import joined_windows_oracle, metric_oracle


def _corpus(n_subjects=6, seed=0, frames=300):
    config = SyntheticConfig(
        n_subjects=n_subjects,
        frames_per_subject=frames,
        positive_rate=0.15,
        modality_snr={"coords": 1.0, "semg": 1.5},
        seed=seed,
        mean_positive_bout=30,
    )
    return generate_synthetic(config)


def _config(scheme="bifurcated", weighting="statistical", seed=0, **clf):
    clf.setdefault("epochs", 4)
    clf.setdefault("learning_rate", 0.1)
    spec = ClassifierSpec(kind="logistic", seed=seed, **clf)
    return ExperimentConfig(
        scheme_name=scheme,
        weighting=weighting,
        classifier=spec,
        seed=seed,
        window_length=20,
        window_stride=10,
    )


class TestConfusion:
    def test_counts(self):
        cm = confusion([1, 0, 1, 0], [1, 0, 0, 0])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 0, 2)
        assert cm.total == 4

    def test_perfect_and_inverted(self):
        truth = [1, 0, 1, 1, 0]
        perfect = confusion(truth, truth)
        assert perfect.fp == 0 and perfect.fn == 0
        inverted = confusion([1 - t for t in truth], truth)
        assert inverted.tp == 0 and inverted.tn == 0

    def test_addition_pools_counts(self):
        a = ConfusionMatrix(1, 2, 3, 4)
        b = ConfusionMatrix(10, 20, 30, 40)
        assert a + b == ConfusionMatrix(11, 22, 33, 44)

    def test_validation(self):
        with pytest.raises(DataError, match="2 predictions vs 1 true labels"):
            confusion([1, 0], [1])
        with pytest.raises(DataError, match="zero examples"):
            confusion([], [])
        with pytest.raises(DataError, match="predicted labels must be 0 or 1"):
            confusion([1, 2], [1, 0])


class TestMetrics:
    def test_worked_example(self):
        ms = metrics(ConfusionMatrix(tp=1, fp=1, fn=0, tn=2))
        assert ms.accuracy == pytest.approx(0.75)
        assert ms.precision_pos == pytest.approx(0.5)
        assert ms.recall_pos == pytest.approx(1.0)
        assert ms.f1_pos == pytest.approx(2 / 3)
        assert not ms.degenerate

    def test_imbalance_hides_in_accuracy(self):
        """An all-negative predictor on a corpus with 171 positives out
        of 2698 windows looks strong on accuracy alone."""
        ms = metrics(ConfusionMatrix(tp=0, fp=0, fn=171, tn=2527))
        assert ms.accuracy == pytest.approx(2527 / 2698)
        assert ms.accuracy > 0.93
        assert ms.recall_pos == 0.0
        assert ms.f1_pos == 0.0
        assert ms.degenerate

    def test_all_negative_truth_is_degenerate(self):
        ms = metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=5))
        assert ms.degenerate
        assert ms.precision_pos == 0.0

    def test_empty_matrix_is_all_zero_and_degenerate(self):
        """Every ratio of an empty matrix has a zero denominator, accuracy
        included, so every metric is 0.0 and flagged, never raised."""
        ms = metrics(ConfusionMatrix(0, 0, 0, 0))
        values = [v for k, v in vars(ms).items() if k != "degenerate"]
        assert values == [0.0] * 10
        assert ms.degenerate

    @given(
        st.integers(0, 400),
        st.integers(0, 400),
        st.integers(0, 400),
        st.integers(0, 400),
    )
    @settings(max_examples=200)
    def test_matches_closed_form_oracle(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            tn = 1
        ms = metrics(ConfusionMatrix(tp, fp, fn, tn))
        expected = metric_oracle(tp, fp, fn, tn)
        for key, value in expected.items():
            assert getattr(ms, key) == value, key


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "clf:semg") == derive_seed(7, "clf:semg")

    def test_distinct_by_label_and_base(self):
        seeds = {
            derive_seed(7, "clf:semg"),
            derive_seed(7, "clf:coords"),
            derive_seed(8, "clf:semg"),
            derive_seed(7, "fold:S01"),
        }
        assert len(seeds) == 4

    def test_range(self):
        s = derive_seed(123, "fold:S07#3")
        assert isinstance(s, int) and 0 <= s < 2**64


class TestRunExperiment:
    def test_validation_split_never_touches_training(self):
        """Swapping the validation split must leave every fitted
        parameter and every fusion weight bit-identical."""
        seqs = _corpus()
        train = seqs[:3]
        a = run_experiment(train, [seqs[3]], _config())
        b = run_experiment(train, [seqs[4], seqs[5]], _config())
        assert a.weights == b.weights
        for name in a.classifiers:
            assert (
                a.classifiers[name].params.tobytes()
                == b.classifiers[name].params.tobytes()
            )
            assert (
                a.classifiers[name].feature_mean.tobytes()
                == b.classifiers[name].feature_mean.tobytes()
            )

    def test_single_modality_weighting_is_irrelevant(self):
        """With one modality both weighting rules assign weight 1.0, so
        the fused stream and every metric must agree exactly."""
        seqs = _corpus()
        stat = run_experiment(seqs[:4], seqs[4:], _config(scheme="singular"))
        avg = run_experiment(
            seqs[:4], seqs[4:], _config(scheme="singular", weighting="average")
        )
        assert stat.weights.weights == {"all": 1.0}
        assert avg.weights.weights == {"all": 1.0}
        assert stat.fused_probabilities.tobytes() == avg.fused_probabilities.tobytes()
        assert stat.metric_set == avg.metric_set

    def test_shared_subject_rejected(self):
        seqs = _corpus()
        with pytest.raises(DataError, match=r"in both splits: \['S01'\]"):
            run_experiment(seqs[:3], seqs[:1], _config())

    def test_stage_prefix_on_failure(self):
        seqs = _corpus(frames=100)
        config = _config()
        bad = ExperimentConfig(
            scheme_name=config.scheme_name,
            weighting=config.weighting,
            classifier=config.classifier,
            seed=0,
            window_length=500,
            window_stride=10,
        )
        with pytest.raises(DataError, match="^windowing: window length 500 > 100 frames"):
            run_experiment(seqs[:3], seqs[3:], bad)

    def test_divergence_names_the_modality(self):
        seqs = _corpus()
        config = _config(scheme="quadrifurcated", learning_rate=1e200)
        names = "|".join(["lower_limbs", "semg", "trunk", "upper_limbs"])
        with pytest.raises(NumericError, match=rf"^training: ({names}): epoch \d+: "):
            run_experiment(seqs[:4], seqs[4:], config)
        # cnn1d trains each modality on its own task, in a worker process at
        # two threads; the first failing modality's error crosses back whole.
        cnn = replace(config, classifier=replace(config.classifier, kind="cnn1d", epochs=1))
        messages = []
        for threads in (1, 2):
            with pytest.raises(NumericError, match=r"^training: lower_limbs: epoch 0: ") as caught:
                run_experiment(seqs[:4], seqs[4:], cnn, threads=threads)
            assert caught.value.exit_code == 4
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("kind", ["logistic", "cnn1d"])
    @pytest.mark.parametrize("reduction", ["mean", "max", "std"])
    def test_weights_are_modality_weights_of_train_windows(self, reduction, kind):
        """A statistical run's weights equal ``modality_weights`` on its
        joined train windows under the config's reduction bit for bit, for
        every reduction and kind: under ``mean`` ``train_split`` reads
        ``window_run``'s time means, else it reduces the train windows."""
        seqs = _corpus(n_subjects=4)
        config = _config(scheme="quadrifurcated", epochs=1)
        classifier = replace(config.classifier, kind=kind)
        config = replace(config, reduction=reduction, classifier=classifier)
        result = run_experiment(seqs[:3], seqs[3:], config)
        pairs = [make_windows(s, 20, 10) for s in seqs[:3]]
        windows, labels = (np.concatenate(part) for part in zip(*pairs))
        expected = modality_weights(windows, labels, scheme_by_name("quadrifurcated"), reduction)
        assert expected.provenance == "statistical"
        assert result.weights == expected

    def test_threads_do_not_change_results(self):
        seqs = _corpus()
        one = run_experiment(seqs[:4], seqs[4:], _config(), threads=1)
        four = run_experiment(seqs[:4], seqs[4:], _config(), threads=4)
        assert one.fused_probabilities.tobytes() == four.fused_probabilities.tobytes()
        assert one.confusion_matrix == four.confusion_matrix
        for name in one.classifiers:
            assert (
                one.classifiers[name].params.tobytes()
                == four.classifiers[name].params.tobytes()
            )

    def test_matrix_covers_all_arms(self):
        seqs = _corpus()
        rows = run_matrix(seqs[:4], seqs[4:], _config(), threads=2)
        assert [name for name, _ in rows] == [arm[0] for arm in MATRIX_ARMS]
        by_name = dict(rows)
        assert by_name["singular"].config.scheme_name == "singular"
        assert by_name["quadrifurcated_average"].config.weighting == "average"

    def test_matrix_trains_each_modality_once(self, monkeypatch):
        """Six distinct modalities give six models in the lockstep, and
        every arm is bit for bit the standalone run of its own config."""
        import painfusion.evaluate as evaluate_module

        seqs = _corpus()
        real_fit, calls = evaluate_module.fit_lockstep, []

        def counting_fit(spec, sets):
            def counted():
                for training_set in sets:
                    calls.extend(seed for seed, _ in training_set[3])
                    yield training_set

            return real_fit(spec, counted())

        monkeypatch.setattr(evaluate_module, "fit_lockstep", counting_fit)
        rows = run_matrix(seqs[:4], seqs[4:], _config(), threads=2)
        assert len(calls) == 6
        assert len(set(calls)) == 6
        for _, arm in rows:
            alone = run_experiment(seqs[:4], seqs[4:], arm.config)
            assert arm.fused_probabilities.tobytes() == alone.fused_probabilities.tobytes()
            assert sorted(arm.classifiers) == sorted(alone.classifiers)
            for name in arm.classifiers:
                assert (
                    arm.classifiers[name].params.tobytes()
                    == alone.classifiers[name].params.tobytes()
                )
            assert arm.weights == alone.weights
            assert arm.confusion_matrix == alone.confusion_matrix

    def test_weighting_change_never_retrains(self, monkeypatch):
        """One ``train_split`` serves both weighting rules: with training
        disabled, ``score_arm`` gives each config's ``run_experiment``
        result bit for bit."""
        seqs = _corpus()
        weightings = ("statistical", "average")
        configs = [_config(scheme="quadrifurcated", weighting=w) for w in weightings]
        expected = [run_experiment(seqs[:4], seqs[4:], config) for config in configs]
        train, valid = (window_run(part, configs[0]) for part in (seqs[:4], seqs[4:]))
        (split,) = train_split([(train, valid, configs[0])], configs, 1)

        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(evaluate_module, "fit_lockstep", no_training)
        for config, reference in zip(configs, expected, strict=True):
            result = score_arm(split, config)
            _assert_same_models(result, reference)
            assert result.weights == reference.weights
            assert result.confusion_matrix == reference.confusion_matrix
        assert expected[0].weights != expected[1].weights

    def test_matrix_memory_stays_below_train_tensor(self):
        """A logistic matrix on the default windowing never allocates as
        much as one joined 70-column train tensor: pooling and weighting
        read the windows block by block."""
        run = load_run_config(None, "unused", 7, 1)
        corpus = replace(run.synthetic, n_subjects=6, frames_per_subject=1500)
        train_ids, valid_ids = synthetic_split(corpus.n_subjects)
        train, valid = split_train_valid(generate_synthetic(corpus), train_ids, valid_ids)
        base = replace(run.experiment, classifier=replace(run.experiment.classifier, epochs=1))
        assert base.classifier.kind == "logistic"

        tracemalloc.start()
        try:
            rows = run_matrix(train, valid, base, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tensor_bytes = rows[0][1].n_train_windows * base.window_length * 70 * 8
        assert peak < tensor_bytes

    def test_matrix_holds_the_time_means_once_while_training(self, monkeypatch):
        """When a logistic matrix starts training, the memory traced since
        the corpus was built is under 1.5 times one [n_windows, 70] float64
        array of the run's time means: each split's means are held once,
        not once for the run and again joined per split."""
        run = load_run_config(None, "unused", 7, 1)
        corpus = replace(run.synthetic, n_subjects=6, frames_per_subject=1500)
        train_ids, valid_ids = synthetic_split(corpus.n_subjects)
        train, valid = split_train_valid(generate_synthetic(corpus), train_ids, valid_ids)
        base = replace(run.experiment, classifier=replace(run.experiment.classifier, epochs=1))
        real_fit, held = evaluate_module.fit_lockstep, []

        def measuring_fit(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(evaluate_module, "fit_lockstep", measuring_fit)
        tracemalloc.start()
        try:
            run_matrix(train, valid, base, threads=1)
        finally:
            tracemalloc.stop()
        rule = (base.window_length, base.window_stride)
        n_windows = sum(len(make_windows(s, *rule)[1]) for s in train + valid)
        assert len(held) == 1
        assert held[0] < 1.5 * n_windows * 70 * 8


def _count_pools(run):
    """run() and the number of process pools it opened."""
    real_pool, opened = concurrent.futures.ProcessPoolExecutor, []

    def counting_pool(*args, **kwargs):
        opened.append(args)
        return real_pool(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
        return run(), len(opened)


def _assert_same_models(result, reference):
    """Two experiment results hold bit-identical models, probabilities,
    weights and confusion matrices."""
    assert sorted(result.classifiers) == sorted(reference.classifiers)
    for name, model in result.classifiers.items():
        alone = reference.classifiers[name]
        for field in ("params", "feature_mean", "feature_std"):
            assert getattr(model, field).tobytes() == getattr(alone, field).tobytes(), field
        assert model.training_log == alone.training_log
        assert (
            result.per_modality_probas[name].tobytes()
            == reference.per_modality_probas[name].tobytes()
        )
    assert result.fused_probabilities.tobytes() == reference.fused_probabilities.tobytes()
    assert result.weights == reference.weights
    assert result.confusion_matrix == reference.confusion_matrix


class TestPooledPath:
    @pytest.mark.parametrize("kind", ["logistic", "mlp", "cnn1d"])
    def test_matrix_modalities_equal_fits_on_their_own_windows(self, kind):
        """Each modality of a matrix trains and predicts on column
        selections of one input per split (the pooled rows for the pooled
        kinds, the 70-column windows for cnn1d), standardized by slices of
        the split's 70-column frame statistics. Under a joint map that
        scatters every segment over the columns, its parameters,
        standardization constants and validation probabilities equal those
        of ``fit`` on a WindowSet of its columns of each train sequence and
        of ``predict_proba_windows`` on its own joined validation windows."""
        seqs = _corpus()
        joint_map = JointSegmentMap({j: SEGMENTS[j % 3] for j in range(22)})
        config = replace(_config(hidden_units=4), joint_map=joint_map)
        config = replace(config, classifier=replace(config.classifier, kind=kind))
        rule = (config.window_length, config.window_stride)
        checked = set()
        for _, result in run_matrix(seqs[:4], seqs[4:], config):
            scheme = scheme_by_name(result.config.scheme_name, joint_map)
            for name, model in result.classifiers.items():
                columns = scheme.modalities[name]
                labels = window_run(seqs[:4], config).labels
                frames = [s.features[:, list(columns)] for s in seqs[:4]]
                train = WindowSet(frames, *rule, len(columns))
                valid = joined_windows_oracle([make_windows(s, *rule)[0] for s in seqs[4:]], columns)
                seed = derive_seed(config.classifier.seed, "clf:" + name)
                alone = fit(train, labels, replace(config.classifier, seed=seed))
                assert np.array_equal(model.params, alone.params)
                assert np.array_equal(model.feature_mean, alone.feature_mean)
                assert np.array_equal(model.feature_std, alone.feature_std)
                assert model.training_log == alone.training_log
                expected = alone.predict_proba_windows(valid)
                assert np.array_equal(result.per_modality_probas[name], expected)
                checked.add(name)
        assert checked == {"all", "coords", "semg", *SEGMENTS}

    def test_cnn1d_matrix_trains_on_one_round(self, monkeypatch):
        """Every task that ``train_split`` hands ``map_ordered`` is one
        ``fit_lockstep``. A task is (split indices, modality keys), and its
        models are every pair of the two; a cnn1d task is one (split,
        modality) pair at every thread count, so a matrix trains its six
        modalities in six tasks on one round, and a loocv its four folds'
        two modalities in eight. A pooled loocv at three threads cuts its
        four equal folds into three chunks."""
        real_map, real_fit = evaluate_module.map_ordered, evaluate_module.fit_lockstep
        rounds, fits = [], []

        def recording_fit(spec, sets):
            fits.append(spec)
            return real_fit(spec, sets)

        def recording_map(fn, items, workers):
            def counted(item):
                fits.clear()
                return fn(item), len(fits)

            results = real_map(counted, items, workers)
            rounds.append([(len(i), len(k), n) for (i, k), (_, n) in zip(items, results)])
            return [result for result, _ in results]

        monkeypatch.setattr(evaluate_module, "fit_lockstep", recording_fit)
        monkeypatch.setattr(evaluate_module, "map_ordered", recording_map)
        seqs = _corpus(n_subjects=4, frames=120)
        config = _config(epochs=1)
        cnn = replace(config, classifier=replace(config.classifier, kind="cnn1d"))
        for threads in (1, 2, 3):
            rounds.clear()
            run_matrix(seqs[:3], seqs[3:], cnn, threads=threads)
            assert rounds == [[(1, 1, 1)] * 6]
            rounds.clear()
            loocv(seqs, cnn, threads=threads)
            assert rounds == [[(1, 1, 1)] * 8]
        rounds.clear()
        loocv(seqs, config, threads=3)
        assert rounds == [[(1, 2, 1), (1, 2, 1), (2, 2, 1)]]


class TestLoocv:
    def test_subject_folds(self):
        seqs = _corpus(n_subjects=4)
        result = loocv(seqs, _config())
        assert [f.fold_id for f in result.folds] == ["S01", "S02", "S03", "S04"]
        pooled = result.folds[0].result.confusion_matrix
        for fold in result.folds[1:]:
            pooled = pooled + fold.result.confusion_matrix
        assert result.pooled_confusion == pooled
        assert result.pooled_metrics == metrics(pooled)

    def test_sequence_folds(self):
        seqs = _corpus(n_subjects=3)
        result = loocv(seqs, _config(), granularity="sequence")
        assert [f.fold_id for f in result.folds] == ["S01#0", "S02#1", "S03#2"]

    def test_each_fold_sees_the_other_subjects(self):
        seqs = _corpus(n_subjects=3)
        result = loocv(seqs, _config())
        for fold in result.folds:
            assert set(fold.result.valid_subjects) == {fold.fold_id}

    def test_sequence_folds_need_one_sequence_per_subject(self):
        """A subject with two sequences cannot be held out one sequence at
        a time; loocv says so up front, with the data exit code."""
        seqs = _corpus(n_subjects=3)
        seqs.append(replace(seqs[0]))
        with pytest.raises(DataError) as caught:
            loocv(seqs, _config(), granularity="sequence")
        assert str(caught.value) == (
            "subject 'S01' has 2 sequences; sequence folds need one sequence per subject"
        )
        assert caught.value.exit_code == 3

    def test_too_few_subjects(self):
        seqs = _corpus(n_subjects=1)
        with pytest.raises(DataError, match="needs at least 2 folds, got 1"):
            loocv(seqs, _config())

    def test_unknown_granularity(self):
        seqs = _corpus(n_subjects=2)
        with pytest.raises(ConfigError, match="granularity must be one of"):
            loocv(seqs, _config(), granularity="session")

    @pytest.mark.parametrize("kind", ["logistic", "mlp", "cnn1d"])
    def test_folds_reuse_pooled_rows(self, kind, monkeypatch):
        """A loocv call windows and pools every sequence once, not once per
        fold: every kind pools every window once, in ``window_run``, and the
        statistical weighting of each fold reads those time means. Every
        fold equals a standalone ``run_experiment`` on its split and fold
        config bit for bit."""
        seqs = _corpus(n_subjects=4)
        config = _config(scheme="quadrifurcated", hidden_units=4)
        config = replace(config, classifier=replace(config.classifier, kind=kind))
        real_windows, windowed = evaluate_module.make_windows, []
        real_pool, pooled = models_module.pool_windows, []

        def counting_windows(seq, *rule):
            windowed.append(seq.subject_id)
            return real_windows(seq, *rule)

        def counting_pool(module):
            def pool(windows, reduction="mean"):
                pooled.append((module.__name__, len(windows)))
                return real_pool(windows, reduction)

            return pool

        monkeypatch.setattr(evaluate_module, "make_windows", counting_windows)
        for module in (evaluate_module, models_module, stats_module):
            monkeypatch.setattr(module, "pool_windows", counting_pool(module))
        result = loocv(seqs, config)
        monkeypatch.undo()
        assert windowed == [s.subject_id for s in seqs]
        counts = [len(make_windows(s, 20, 10)[1]) for s in seqs]
        assert pooled == [("painfusion.evaluate", sum(counts))]

        for fold in result.folds:
            train = [s for s in seqs if s.subject_id != fold.fold_id]
            valid = [s for s in seqs if s.subject_id == fold.fold_id]
            seed = derive_seed(config.seed, "fold:" + fold.fold_id)
            fold_config = replace(config, classifier=replace(config.classifier, seed=seed))
            assert fold.result.config == fold_config
            _assert_same_models(fold.result, run_experiment(train, valid, fold_config))

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_pooled_kinds_open_no_process_pool(self, kind, monkeypatch):
        """The pooled kinds train in the calling process, so a matrix opens
        no pool whatever ``threads`` is. loocv spreads its folds over one
        pool at three threads, none at one, and gets the same folds back in
        fold order."""
        seqs = _corpus(n_subjects=4)
        config = _config(scheme="quadrifurcated", hidden_units=4)
        config = replace(config, classifier=replace(config.classifier, kind=kind))
        matrix_one = run_matrix(seqs[:3], seqs[3:], config, threads=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was opened")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        matrix_three = run_matrix(seqs[:3], seqs[3:], config, threads=3)
        for (name, one), (name_three, three) in zip(matrix_one, matrix_three):
            assert name == name_three
            _assert_same_models(three, one)
        monkeypatch.undo()

        loocv_one, pools_one = _count_pools(lambda: loocv(seqs, config, threads=1))
        loocv_three, pools_three = _count_pools(lambda: loocv(seqs, config, threads=3))
        assert (pools_one, pools_three) == (0, 1)
        assert loocv_three.pooled_confusion == loocv_one.pooled_confusion
        assert [f.fold_id for f in loocv_three.folds] == ["S01", "S02", "S03", "S04"]
        for one, three in zip(loocv_one.folds, loocv_three.folds, strict=True):
            assert one.fold_id == three.fold_id
            _assert_same_models(three.result, one.result)

    def test_cnn1d_folds_share_one_pool(self):
        """A cnn1d fold trains its modalities one after another in its
        worker, so a loocv run forks one pool, not one per fold, and its
        folds are the same bytes as at one thread."""
        seqs = _corpus(n_subjects=4)
        config = _config(epochs=1)
        config = replace(config, classifier=replace(config.classifier, kind="cnn1d"))
        one, pools_one = _count_pools(lambda: loocv(seqs, config, threads=1))
        three, pools_three = _count_pools(lambda: loocv(seqs, config, threads=3))
        assert (pools_one, pools_three) == (0, 1)
        assert one.pooled_confusion == three.pooled_confusion
        for fa, fb in zip(one.folds, three.folds, strict=True):
            assert fa.fold_id == fb.fold_id
            assert (
                fa.result.fused_probabilities.tobytes()
                == fb.result.fused_probabilities.tobytes()
            )

    def test_failing_fold_names_itself(self, monkeypatch):
        """A fold's error carries its fold id, keeps its type, and the
        earliest failing fold in fold order is the one raised, whatever
        fold fails first: S04's models blow up in epoch 0 and S02's, or
        S03's, in a later epoch (their frame std shrunk until they do).
        S03 and S05 hold out shorter subjects, so at one thread S01, S02
        and S04 train in one lockstep and S03 and S05 in another; at three
        every fold is a task of its own."""
        lengths = [300, 300, 250, 300, 250]
        seqs = [
            replace(s, features=s.features[:k], labels=s.labels[:k], extras=s.extras[:k])
            for s, k in zip(_corpus(n_subjects=5), lengths)
        ]
        config = _config(epochs=8)
        names = sorted(scheme_by_name(config.scheme_name).names)
        fold_of = {
            derive_seed(derive_seed(config.seed, "fold:" + key), "clf:" + names[0]): key
            for key in ("S02", "S03", "S04")
        }
        real_fit, failing = evaluate_module.fit_lockstep, {}

        def shrunk(spec, training_set, later):
            """The set with its frame std shrunk until it diverges alone,
            in epoch 0 or (``later``) in a later one."""
            windows, labels, (mean, std), pairs = training_set
            for exponent in np.arange(150.0, 160.0, 0.125):
                candidate = (windows, labels, (mean, std * 10.0**-exponent), pairs)
                (outcome,) = real_fit(spec, [candidate])
                if isinstance(outcome, NumericError):
                    if str(outcome).startswith("epoch 0: ") != later:
                        return candidate
            raise AssertionError("no std makes the set diverge as asked")

        def fit_failing_folds(spec, sets):
            def patched():
                for training_set in sets:
                    key = fold_of.get(training_set[3][0][0])
                    if key in failing:
                        training_set = shrunk(spec, training_set, failing[key] == "later")
                    yield training_set

            return real_fit(spec, patched())

        # Forked fold workers inherit the patch and the failing folds.
        monkeypatch.setattr(evaluate_module, "fit_lockstep", fit_failing_folds)
        for late in ("S02", "S03"):
            failing.clear()
            failing.update({late: "later", "S04": "epoch 0"})
            messages = []
            for threads in (1, 3):
                with pytest.raises(NumericError) as caught:
                    loocv(seqs, config, threads=threads)
                assert caught.value.exit_code == 4
                messages.append(str(caught.value))
            pattern = rf"^fold {late}: training: ({'|'.join(names)}): epoch [1-7]: "
            assert re.match(pattern, messages[0]), messages[0]
            assert messages[0] == messages[1]

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_unequal_subjects_match_per_fold_runs(self, kind, monkeypatch):
        """Subjects of 300, 250 and 200 frames: the five folds that hold out
        a 300-frame subject share a train window count, the two 250-frame
        folds another, and S05 trains alone, so one thread trains them in
        three lockstep chunks of 5, 2 and 1 folds. At one thread and at
        three every fold equals a ``run_experiment`` on its own split and
        fold config bit for bit."""
        lengths = [300, 250, 300, 300, 200, 300, 250, 300]
        seqs = [
            replace(s, features=s.features[:k], labels=s.labels[:k], extras=s.extras[:k])
            for s, k in zip(_corpus(n_subjects=8), lengths)
        ]
        config = _config(scheme="quadrifurcated", hidden_units=4)
        config = replace(config, classifier=replace(config.classifier, kind=kind))
        real_fit, chunks = evaluate_module.fit_lockstep, []

        def recording_fit(spec, sets):
            outcomes = real_fit(spec, sets)
            chunks.append(len(outcomes))
            return outcomes

        monkeypatch.setattr(evaluate_module, "fit_lockstep", recording_fit)
        one = loocv(seqs, config, threads=1)
        assert chunks == [5, 2, 1]
        three = loocv(seqs, config, threads=3)
        assert [f.fold_id for f in three.folds] == [s.subject_id for s in seqs]
        for fa, fb, held in zip(one.folds, three.folds, seqs, strict=True):
            train = [s for s in seqs if s is not held]
            seed = derive_seed(config.seed, "fold:" + held.subject_id)
            fold_config = replace(config, classifier=replace(config.classifier, seed=seed))
            alone = run_experiment(train, [held], fold_config)
            _assert_same_models(fa.result, alone)
            _assert_same_models(fb.result, alone)
        assert one.pooled_confusion == three.pooled_confusion

    def test_a_lockstep_trains_at_most_six_folds(self, monkeypatch):
        """At one thread, eight folds of one train size train as two
        locksteps of four, never more than LOCKSTEP_SPLITS folds in one,
        and the memory traced while a lockstep runs peaks under six
        [n_windows, 70] float64 arrays of the run's time means: one
        lockstep of all eight folds' inputs would add about ten."""
        seqs = _corpus(n_subjects=8, frames=1500)
        config = _config(scheme="quadrifurcated", epochs=1)
        real_fit, sizes, peaks = evaluate_module.fit_lockstep, [], []

        def measuring_fit(spec, sets):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            outcomes = real_fit(spec, sets)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            sizes.append(len(outcomes))
            return outcomes

        monkeypatch.setattr(evaluate_module, "fit_lockstep", measuring_fit)
        tracemalloc.start()
        try:
            loocv(seqs, config, threads=1)
        finally:
            tracemalloc.stop()
        n_windows = sum(len(make_windows(s, 20, 10)[1]) for s in seqs)
        assert evaluate_module.LOCKSTEP_SPLITS == 6
        assert sizes == [4, 4]
        assert max(peaks) < 6 * n_windows * 70 * 8

    @pytest.mark.parametrize("kind", ["logistic", "cnn1d"])
    def test_each_split_has_its_statistics_and_relevance_once(self, kind, tmp_path, monkeypatch):
        """A training run's sequence moments are summed once, in the calling
        process, before any task, and every fold's frame statistics merge
        their entries. Every fold's relevance is computed once, by the task
        that trains the fold, so a loocv at three threads computes none of
        them in the calling process. A loocv whose only arm weighs by
        average computes no relevance. A cnn1d matrix at two threads computes
        its split's relevance once, in the worker that trains its first
        modality; a logistic one trains its one split in one task, which
        ``map_ordered`` runs in the calling process."""
        log = tmp_path / "calls"
        for name in ("sequence_moments", "ranked_relevance"):

            def recording(*args, _real=getattr(evaluate_module, name), _name=name):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{_name} {os.getpid()}\n")
                return _real(*args)

            monkeypatch.setattr(evaluate_module, name, recording)

        def calls(run):
            """The (function name, called in this process) pairs of run()."""
            log.write_text("", encoding="utf-8")
            run()
            lines = log.read_text(encoding="utf-8").split()
            return sorted((n, int(pid) == os.getpid()) for n, pid in zip(lines[::2], lines[1::2]))

        seqs = _corpus(n_subjects=4)
        config = _config(scheme="quadrifurcated", epochs=1)
        config = replace(config, classifier=replace(config.classifier, kind=kind))
        moments = [("sequence_moments", True)]
        each = [("ranked_relevance", True)] * 4 + moments
        assert calls(lambda: loocv(seqs, config, threads=1)) == each
        in_workers = [("ranked_relevance", False)] * 4 + moments
        assert calls(lambda: loocv(seqs, config, threads=3)) == in_workers
        average = replace(config, weighting="average")
        for threads in (1, 3):
            assert calls(lambda: loocv(seqs, average, threads=threads)) == moments
        matrix = calls(lambda: run_matrix(seqs[:3], seqs[3:], config, threads=2))
        assert matrix == [("ranked_relevance", kind == "logistic")] + moments

    def test_relevance_error_names_its_fold(self):
        """A fold whose training task computes its relevance and fails
        there (two train windows are too few to rank) reports it as its
        weighting stage, as scoring would, at one thread and at three."""
        seqs = [
            replace(s, features=s.features[:20], labels=s.labels[:20], extras=s.extras[:20])
            for s in _corpus(n_subjects=3)
        ]
        for kind in ("logistic", "cnn1d"):
            config = _config(epochs=1)
            config = replace(config, classifier=replace(config.classifier, kind=kind))
            for threads in (1, 3):
                with pytest.raises(DataError) as caught:
                    loocv(seqs, config, threads=threads)
                assert str(caught.value) == "fold S01: weighting: need at least 3 samples, got 2"
                with pytest.raises(DataError, match="^weighting: need at least 3 samples, got 2$"):
                    run_matrix(seqs[:2], seqs[2:], config, threads=threads)

    def test_model_error_comes_before_relevance_error(self):
        """A cnn1d split whose models diverge and whose relevance fails too
        (two train windows are too few to rank) reports the NumericError
        of its first diverging modality, at one thread and at three."""
        seqs = [
            replace(s, features=s.features[:20], labels=s.labels[:20], extras=s.extras[:20])
            for s in _corpus(n_subjects=3)
        ]
        config = _config(epochs=4, learning_rate=1e200)
        config = replace(config, classifier=replace(config.classifier, kind="cnn1d"))
        for run in (lambda t: run_matrix(seqs[:2], seqs[2:], config, threads=t),
                    lambda t: loocv(seqs, config, threads=t)):
            messages = []
            for threads in (1, 3):
                with pytest.raises(NumericError) as caught:
                    run(threads)
                messages.append(str(caught.value))
            assert re.match(r"^(fold S01: )?training: \w+: epoch \d+: ", messages[0]), messages[0]
            assert messages[0] == messages[1]

    def test_threads_do_not_change_folds(self):
        seqs = _corpus(n_subjects=4)
        one = loocv(seqs, _config(), threads=1)
        three = loocv(seqs, _config(), threads=3)
        assert one.pooled_confusion == three.pooled_confusion
        for fa, fb in zip(one.folds, three.folds):
            assert fa.fold_id == fb.fold_id
            assert (
                fa.result.fused_probabilities.tobytes()
                == fb.result.fused_probabilities.tobytes()
            )


def _tied_corpus():
    """Five quantized sequences, so that time means tie, with a constant
    column: S01 holds the first and the third, and only S02 has positive
    windows, so the S02 subject fold trains on one class."""
    sequences = []
    for i, subject in enumerate(["S01", "S02", "S01", "S03", "S04"]):
        seq = _corpus(n_subjects=1, seed=i, frames=200)[0]
        features = np.round(seq.features * 2.0) / 2.0
        features[:, 5] = 3.0
        labels = seq.labels if subject == "S02" else np.zeros_like(seq.labels)
        sequences.append(replace(seq, subject_id=subject, features=features, labels=labels))
    return sequences


class TestFoldRelevance:
    @pytest.mark.parametrize("reduction", ["mean", "max", "std"])
    def test_folds_rank_from_the_run_sort(self, reduction):
        """Every run that ``_pick`` builds ranks its relevance from the sort
        of the run it is picked from, and gets, bit for bit, the
        ``feature_relevance`` of its own joined reduced matrix, which is
        ``spearman_rho``'s |rho| column by column: subject folds (S01's two
        sequences are not adjacent), sequence folds, their held-out runs,
        and a pick out of run order; with tied time means, a constant
        column and a fold with one train class."""
        sequences = _tied_corpus()
        run = window_run(sequences, replace(_config(), reduction=reduction))
        subjects = [s.subject_id for s in sequences]
        held_out = [[i for i, s in enumerate(subjects) if s == k] for k in sorted(set(subjects))]
        held_out += [[i] for i in range(len(sequences))]
        picks = [[i for i in range(len(sequences)) if i not in out] for out in held_out]
        picks += held_out + [[3, 0, 2]]
        single_class = 0
        for indices in picks:
            fold = _pick(run, indices)
            assert fold.sort is run.sort
            reduced = models_module.pool_windows(fold.windows, reduction)
            expected = feature_relevance(reduced, fold.labels)
            assert fold.relevance().tobytes() == expected.tobytes()
            rhos = [spearman_rho(column, fold.labels) for column in reduced.T]
            alone = [0.0 if r.degenerate else abs(r.coefficient) for r in rhos]
            assert expected.tobytes() == np.array(alone).tobytes()
            single_class += len(set(fold.labels.tolist())) == 1
        assert single_class > 0
        means = run.means
        assert len(np.unique(means[:, 0])) < len(means)
        assert np.all(means[:, 5] == 3.0)

    def test_a_bad_row_fails_only_the_runs_that_hold_it(self):
        """Finiteness is checked on a run's own rows: a non-finite frame in
        one sequence fails every run that holds its window, with the message
        of ``feature_relevance``, and no other."""
        sequences = _tied_corpus()
        features = sequences[3].features.copy()
        features[7, 2] = np.nan
        sequences[3] = replace(sequences[3], features=features)
        for reduction in ("mean", "max", "std"):
            run = window_run(sequences, replace(_config(), reduction=reduction))
            for indices in ([0, 1, 2, 4], [3], [0, 3]):
                fold = _pick(run, indices)
                if 3 in indices:
                    with pytest.raises(DataError, match=r"^input contains NaN or Inf$"):
                        fold.relevance()
                else:
                    expected = feature_relevance(fold.windows, fold.labels, reduction)
                    assert fold.relevance().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("reduction", ["mean", "max", "std"])
    def test_one_run_sort_per_loocv(self, reduction, monkeypatch):
        """A loocv at one thread sorts its run once for the reduction it
        weighs by, however many folds it has."""
        sorts = []

        def counting(reduced):
            sorts.append(len(reduced))
            return sort_columns(reduced)

        sort_columns = evaluate_module.sort_columns
        monkeypatch.setattr(evaluate_module, "sort_columns", counting)
        seqs = _corpus(n_subjects=4)
        result = loocv(seqs, replace(_config(), reduction=reduction), threads=1)
        assert len(result.folds) == 4
        assert sorts == [sum(len(make_windows(s, 20, 10)[1]) for s in seqs)]


class TestFoldStatistics:
    def test_picked_runs_get_the_statistics_of_their_own_sequences(self):
        """Every run that ``_pick`` builds takes its sequences' moments
        from the run it is picked from, in pick order, and merges them to
        the bits of a ``window_run`` of its own sequences, which equal
        ``frame_statistics`` of its windows: subject folds (S01's two
        sequences are not adjacent), sequence folds, their held-out runs
        and a pick out of run order, over sequences of unequal lengths."""
        lengths = [300, 220, 260, 300, 240]
        sequences = [
            replace(s, subject_id=k, features=s.features[:n], labels=s.labels[:n],
                    extras=s.extras[:n])
            for s, k, n in zip(_corpus(n_subjects=5), ["S01", "S02", "S01", "S03", "S04"], lengths)
        ]
        config = _config()
        run = window_run(sequences, config)
        subjects = [s.subject_id for s in sequences]
        held_out = [[i for i, s in enumerate(subjects) if s == k] for k in sorted(set(subjects))]
        held_out += [[i] for i in range(len(sequences))]
        picks = [[i for i in range(len(sequences)) if i not in out] for out in held_out]
        picks += held_out + [[3, 0, 2]]
        for indices in picks:
            fold = _pick(run, indices)
            alone = window_run([sequences[i] for i in indices], config)
            expected = merge_moments(alone.moments())
            for got, want, direct in zip(
                merge_moments(fold.moments()), expected, frame_statistics(alone.windows)
            ):
                assert got.tobytes() == want.tobytes() == direct.tobytes()


class TestReportRendering:
    def test_metrics_csv_columns(self):
        seqs = _corpus()
        result = run_experiment(seqs[:4], seqs[4:], _config())
        text = metrics_csv([("demo", result.config, result.metric_set)])
        lines = text.splitlines()
        assert lines[0] == "name," + ",".join(METRIC_COLUMNS)
        fields = lines[1].split(",")
        assert fields[:4] == ["demo", "bifurcated", "statistical", "logistic"]
        assert float(fields[4]) == result.metric_set.accuracy

    def test_confusion_csv_exact(self):
        cm = ConfusionMatrix(1, 2, 3, 4)
        text = confusion_csv([("demo", cm, metrics(cm))])
        assert text == "name,tp,fp,fn,tn,total,degenerate\ndemo,1,2,3,4,10,0\n"

    def test_weights_csv_lists_sorted_modalities(self):
        seqs = _corpus()
        result = run_experiment(seqs[:4], seqs[4:], _config(scheme="quadrifurcated"))
        lines = weights_csv(result.weights).splitlines()
        assert lines[1] == "modality,weight,raw_relevance"
        names = [line.split(",")[0] for line in lines[2:]]
        assert names == sorted(names)
        total = sum(float(line.split(",")[1]) for line in lines[2:])
        assert total == pytest.approx(1.0, abs=1e-12)
