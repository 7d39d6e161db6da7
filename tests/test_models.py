"""Classifier training, gradients, and prediction."""

import ctypes
import gc
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from painfusion import (
    ClassifierSpec,
    TrainedClassifier,
    fit,
    grad_check,
    make_windows,
)
from painfusion import models
from painfusion.data import SequenceData, SyntheticConfig, generate_synthetic
from painfusion.errors import ConfigError, DataError, NumericError
from painfusion.evaluate import (
    ExperimentConfig,
    confusion,
    metrics,
    train_split,
    window_run,
    window_sequence,
)
from painfusion.modality import quadrifurcated_scheme
from painfusion.models import STD_FLOOR, WindowSet, fit_lockstep, frame_statistics, pool_windows

from oracles import (
    bce_dz_oracle,
    conv_taps_oracle,
    conv_weight_grad_oracle,
    frame_sum_oracle,
    joined_windows_oracle,
    merged_statistics_oracle,
    pool_windows_oracle,
    sgd_oracle,
    stacked_windows_oracle,
    weighted_bce_oracle,
)


def _separable(n=40, d=6, frames=5, seed=0, margin=2.0):
    """Windows whose pooled first feature sits at +/-margin by class."""
    rng = np.random.default_rng(seed)
    windows, labels = np.empty((n, frames, d)), []
    for i in range(n):
        label = i % 2
        windows[i] = 0.1 * rng.standard_normal((frames, d))
        windows[i, :, 0] += margin if label else -margin
        labels.append(label)
    return windows, labels


def _random_windows(n=16, d=6, frames=8, seed=1):
    rng = np.random.default_rng(seed)
    windows = np.stack([rng.standard_normal((frames, d)) for _ in range(n)])
    return windows, [i % 2 for i in range(n)]


def _windows_of(seqs, length, stride):
    pairs = [make_windows(s, length, stride) for s in seqs]
    return np.concatenate([w for w, _ in pairs]), np.concatenate([y for _, y in pairs])


def _hand_built(params, d=4):
    return TrainedClassifier(
        spec=ClassifierSpec(kind="logistic", seed=0),
        n_features=d,
        feature_mean=np.zeros(d),
        feature_std=np.ones(d),
        params=np.asarray(params, dtype=np.float64),
        positive_weight=1.0,
        single_class=False,
    )


class TestFit:
    def test_separable_reaches_perfect_accuracy(self):
        windows, labels = _separable()
        spec = ClassifierSpec(kind="logistic", seed=0, learning_rate=0.5, epochs=60, batch_size=16)
        assert spec.epochs <= 200
        model = fit(windows, labels, spec)
        predicted = (model.predict_proba_windows(windows) >= 0.5).astype(int)
        assert (predicted == np.asarray(labels)).all()

    def test_single_class_flag(self):
        windows, _ = _random_windows(n=20)
        model = fit(windows, [0] * 20, ClassifierSpec(kind="logistic", seed=0, epochs=20))
        assert model.single_class
        assert model.positive_weight == 1.0
        assert (model.predict_proba_windows(windows) < 0.5).all()

    def test_empty_and_mismatched_inputs(self):
        spec = ClassifierSpec(kind="logistic", seed=0)
        with pytest.raises(DataError, match="no training windows"):
            fit([], [], spec)
        windows, labels = _random_windows(n=4)
        with pytest.raises(DataError, match="4 windows vs 3 labels"):
            fit(windows, labels[:3], spec)
        with pytest.raises(DataError, match="training labels must be 0 or 1"):
            fit(windows, [0, 1, 2, 1], spec)

    def test_inconsistent_feature_width(self):
        windows, labels = _random_windows(n=4, d=6)
        with pytest.raises(DataError, match=r"windows have shape \(4, 8\),"):
            fit(windows[:, :, 0], labels, ClassifierSpec(kind="logistic", seed=0))
        model = fit(windows, labels, ClassifierSpec(kind="logistic", seed=0, epochs=2))
        with pytest.raises(DataError, match=r"shape \(4, 8, 5\), expected \[n, length, 6\]"):
            model.predict_proba_windows(windows[:, :, :5])

    @pytest.mark.parametrize("kind", ["logistic", "cnn1d"])
    def test_modality_model_reads_its_columns(self, kind):
        """A model that ``fit_lockstep`` trains on the sEMG columns of a
        70-column input records them and reads them from any 70-column
        input, with the bits of ``fit`` on the 4-column windows alone, which
        reads all of them. It refuses a 4-column array or WindowSet with a
        DataError (exit code 3), not an IndexError."""
        rng = np.random.default_rng(4)
        frames = rng.standard_normal((200, 70)) * rng.uniform(0.5, 2.0, 70)
        windows = WindowSet([frames], 10, 5, 70)
        labels = np.arange(len(windows)) % 2
        semg = quadrifurcated_scheme().modalities["semg"]
        spec = ClassifierSpec(kind=kind, seed=2, epochs=2)
        ((model,),) = fit_lockstep(spec, [(windows, labels, None, [(spec.seed, semg)])])
        narrow = WindowSet([frames[:, list(semg)]], 10, 5, 4)
        alone = fit(narrow, labels, spec)
        assert (model.columns, model.n_features) == (semg, 70)
        assert (alone.columns, alone.n_features) == (None, 4)
        assert model.params.tobytes() == alone.params.tobytes()
        probas = model.predict_proba_windows(windows)
        assert probas.tobytes() == alone.predict_proba_windows(narrow).tobytes()
        joined = stacked_windows_oracle(narrow.frames, 10, 5)
        for bad in (narrow, joined, pool_windows(narrow)):
            with pytest.raises(DataError, match=r"expected \[n, (length, )?70\]") as caught:
                model.predict_proba_windows(bad)
            assert caught.value.exit_code == 3

    def test_huge_learning_rate_diverges(self):
        windows, labels = _separable()
        spec = ClassifierSpec(
            kind="logistic", seed=0, learning_rate=1e8, epochs=40, batch_size=8
        )
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="loss became inf"):
            fit(windows, labels, spec)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_fit_is_deterministic(self, seed):
        windows, labels = _random_windows()
        spec = ClassifierSpec(kind="mlp", seed=seed, epochs=3, hidden_units=4)
        a = fit(windows, labels, spec)
        b = fit(windows, labels, spec)
        assert a.params.tobytes() == b.params.tobytes()
        assert a.training_log == b.training_log


class TestSgdReference:
    @pytest.mark.parametrize("kind", ["logistic", "mlp", "cnn1d"])
    @pytest.mark.parametrize(
        "n, d, batch_size",
        [(23, 6, 5), (7, 6, 16), (300, 70, 64)],
        ids=["ragged-last-batch", "batch-above-n", "shipped-shape"],
    )
    @pytest.mark.parametrize("positive_class_weight", [None, 2.5], ids=["balanced", "explicit"])
    def test_matches_per_batch_loop(self, kind, n, d, batch_size, positive_class_weight):
        """Training takes each batch's rows of the standardized input by
        the epoch permutation; its parameters and losses equal, bit for
        bit, those of a loop that fancy-indexes every batch and updates out
        of place. The oracle reads the pooled kinds' standardized time
        means, which ``fit`` pools itself or is given with the frame
        statistics, and the convolution's standardized windows."""
        rng = np.random.default_rng(n)
        windows = rng.standard_normal((n, 7, d)) + rng.uniform(-2, 2, d)
        labels = (rng.random(n) < 0.3).astype(np.int8)
        labels[:2] = (0, 1)
        spec = ClassifierSpec(
            kind=kind,
            seed=n,
            hidden_units=4,
            conv_channels=3,
            kernel_width=3,
            epochs=3,
            batch_size=batch_size,
            positive_class_weight=positive_class_weight,
        )
        y = labels.astype(np.float64)
        n_pos = int(y.sum())
        pos_weight = positive_class_weight or (n - n_pos) / n_pos
        mean, std = frame_statistics(windows)
        pooled = kind in models.POOLED_KINDS
        X = ((pool_windows(windows) if pooled else windows) - mean) / std
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        params, log = sgd_oracle(models._architecture(spec, d), X, y, pos_weight, spec, rng)

        fitted = [fit(windows, labels, spec)]
        if pooled:
            fitted.append(fit(pool_windows(windows), labels, spec, (mean, std)))
        for model in fitted:
            assert model.positive_weight == pos_weight
            assert model.params.tobytes() == params.tobytes()
            assert model.training_log == tuple(log)


class TestLockstep:
    @given(
        kind=st.sampled_from(["logistic", "mlp"]),
        n=st.integers(1, 50),
        batch_size=st.integers(1, 16),
        columns=st.lists(
            st.lists(st.integers(0, 11), min_size=1, max_size=9, unique=True),
            min_size=1,
            max_size=6,
        ),
        fortran=st.booleans(),
        positive_class_weight=st.sampled_from([None, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        kind="logistic",
        n=23,
        batch_size=5,
        columns=[[3, 0, 7], [1, 2, 3, 4, 5, 6, 7, 8, 9], [11]],
        fortran=False,
        positive_class_weight=None,
        seed=0,
    )
    @example(
        kind="mlp",
        n=40,
        batch_size=16,
        columns=[[0, 4, 8, 9], [10, 11], [2], [5, 6, 7], [0, 1, 2, 3, 4, 5, 6, 7, 8], [3]],
        fortran=True,
        positive_class_weight=0.5,
        seed=1,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_separate_fits(
        self, kind, n, batch_size, columns, fortran, positive_class_weight, seed
    ):
        """Every model of a lockstep gets the parameters, losses and
        positive weight of its own ``fit`` on its columns, bit for bit,
        down to a Fortran-ordered scattered-column slice, a last batch
        shorter than the others and 1 to 6 models of widths 1 to 9."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 12)) * rng.uniform(0.1, 10, 12) + rng.uniform(-3, 3, 12)
        if fortran:
            X = np.asfortranarray(X)
        labels = rng.integers(0, 2, n).astype(np.int8)
        mean, std = X.mean(axis=0), np.maximum(X.std(axis=0), STD_FLOOR)
        spec = ClassifierSpec(
            kind=kind,
            seed=0,
            hidden_units=3,
            epochs=3,
            batch_size=batch_size,
            positive_class_weight=positive_class_weight,
        )
        seeds = rng.integers(0, 2**32, len(columns)).tolist()
        (trained,) = fit_lockstep(spec, [(X, labels, (mean, std), list(zip(seeds, columns)))])
        assert len(trained) == len(seeds)
        for model, seed, c in zip(trained, seeds, columns):
            alone = fit(X[:, c], labels, replace(spec, seed=seed), (mean[c], std[c]))
            assert model.spec == alone.spec
            assert model.params.tobytes() == alone.params.tobytes()
            assert model.training_log == alone.training_log
            assert model.positive_weight == alone.positive_weight
            assert model.feature_mean.tobytes() == alone.feature_mean.tobytes()
            assert model.feature_std.tobytes() == alone.feature_std.tobytes()

    def test_divergence_names_the_first_failing_model(self):
        """Only model 1's inputs blow up (its columns' frame std is tiny),
        and the error names model 1 with the epoch it failed in."""
        windows, labels = _separable(n=40, d=6)
        mean, std = frame_statistics(windows)
        std[2:4] = 1e-300
        spec = ClassifierSpec(kind="logistic", seed=0, epochs=3)
        pairs = [(1, [0, 1]), (2, [2, 3]), (3, [4, 5])]
        (error,) = fit_lockstep(spec, [(windows, labels, (mean, std), pairs)])
        assert isinstance(error, NumericError)
        assert str(error).startswith("epoch 0: ")
        assert error.model == 1

    def test_sets_keep_their_own_labels_and_inputs(self):
        """Three training sets of 37 windows, each with its own windows,
        labels (hence positive weight) and frame statistics, train in one
        lockstep; every model gets the bits of ``fit`` on its own set."""
        rng = np.random.default_rng(5)
        spec = ClassifierSpec(kind="mlp", seed=0, epochs=3, batch_size=8)
        sets = []
        for g in range(3):
            X = rng.standard_normal((37, 8)) * rng.uniform(0.5, 4, 8)
            labels = (rng.random(37) < 0.2 + 0.25 * g).astype(np.int8)
            stats = (X.mean(axis=0), np.maximum(X.std(axis=0), STD_FLOOR))
            sets.append((X, labels, stats, [(g, [0, 2, 4]), (g + 10, None)]))
        outcomes = fit_lockstep(spec, sets)
        assert len({m.positive_weight for models in outcomes for m in models}) == 3
        for (X, labels, (mean, std), set_models), models in zip(sets, outcomes, strict=True):
            for model, (seed, c) in zip(models, set_models, strict=True):
                c = slice(None) if c is None else c
                alone = fit(X[:, c], labels, replace(spec, seed=seed), (mean[c], std[c]))
                assert model.params.tobytes() == alone.params.tobytes()
                assert model.training_log == alone.training_log
                assert model.positive_weight == alone.positive_weight

    @pytest.mark.parametrize("kind", ["logistic", "mlp", "cnn1d"])
    def test_diverged_set_leaves_the_others_intact(self, kind):
        """Set 1's inputs blow up in epoch 0 (a tiny frame std), set 0's in
        a later epoch (a std shrunk until they do) and set 2's never. Each
        diverged set gets the error of its own lockstep, message and model
        index, while set 2 trains on to the bits of its own lockstep: the
        masked rows of the diverged sets never reach it, through the mlp's
        hidden ReLU or the cnn1d max pool's argmax either."""
        rng = np.random.default_rng(8)
        spec = ClassifierSpec(kind=kind, seed=0, epochs=8, batch_size=8, kernel_width=3)
        sets = []
        for g in range(3):
            X = rng.standard_normal((48, 4, 6) if kind == "cnn1d" else (48, 6))
            signal = X[..., 0].reshape(48, -1).mean(axis=1)
            labels = (signal + rng.standard_normal(48) > 0).astype(np.int8)
            axes = tuple(range(X.ndim - 1))
            pairs = [(g, [0, 1, 2]), (g + 10, [3, 4, 5])]
            sets.append((X, labels, (X.mean(axis=axes), X.std(axis=axes)), pairs))

        def alone(training_set):
            return fit_lockstep(spec, [training_set])[0]

        def shrunk(training_set, factor):
            X, labels, (mean, std), pairs = training_set
            return X, labels, (mean, std * factor), pairs

        # A hidden layer or a convolution diverges at a far milder scale.
        low = 150.0 if kind == "logistic" else 1.0
        sets[1] = shrunk(sets[1], 1e-300)
        for exponent in np.arange(low, low + 10.0, 0.125):
            late = shrunk(sets[0], 10.0**-exponent)
            outcome = alone(late)
            if isinstance(outcome, NumericError) and not str(outcome).startswith("epoch 0: "):
                sets[0] = late
                break
        else:
            pytest.fail("no std makes set 0 diverge after epoch 0")

        together = fit_lockstep(spec, sets)
        assert str(together[1]).startswith("epoch 0: ")
        assert not str(together[0]).startswith("epoch 0: ")
        for g, outcome in enumerate(together):
            reference = alone(sets[g])
            if g < 2:
                assert isinstance(outcome, NumericError)
                assert (str(outcome), outcome.model) == (str(reference), reference.model)
                continue
            for model, single in zip(outcome, reference, strict=True):
                assert model.params.tobytes() == single.params.tobytes()
                assert model.training_log == single.training_log

    def test_all_sets_diverged_ends_the_lockstep(self, monkeypatch):
        """When every set diverges at its first step, the lockstep returns
        only errors, each for its set's first model, after that one step."""
        real_step, steps = models._losses_and_grads, []

        def counting_step(*args):
            steps.append(len(args[2]))
            return real_step(*args)

        monkeypatch.setattr(models, "_losses_and_grads", counting_step)
        windows, labels = _separable(n=40, d=6)
        mean, std = frame_statistics(windows)
        spec = ClassifierSpec(kind="logistic", seed=0, epochs=5, batch_size=8)
        # Every standardized input overflows to infinity.
        stats = (mean, std * 1e-310)
        sets = [(windows, labels, stats, [(g, [0, 1]), (g + 5, [2, 3])]) for g in range(3)]
        with np.errstate(over="ignore"):
            outcomes = fit_lockstep(spec, sets)
        assert steps == [6]
        for error in outcomes:
            assert isinstance(error, NumericError)
            assert re.match(r"^epoch 0: loss became (inf|nan)$", str(error)), str(error)
            assert error.model == 0

    def test_interleaved_widths_keep_input_order(self):
        """Models of widths 3, 2, 3, 1, 2 train in three width groups, yet
        every set's results come back in input order, each with the bits
        of its own ``fit``."""
        windows, labels = _separable(n=37, d=6)
        mean, std = frame_statistics(windows)
        spec = ClassifierSpec(kind="mlp", seed=0, hidden_units=3, epochs=2, batch_size=8)
        columns = [[0, 1, 2], [3, 4], [2, 3, 5], [1], [0, 5]]
        sets = [
            (windows, labels, (mean, std), [(g * 10 + i, c) for i, c in enumerate(columns)])
            for g in range(2)
        ]
        outcomes = fit_lockstep(spec, sets)
        for (_, _, _, pairs), trained in zip(sets, outcomes, strict=True):
            assert [m.columns for m in trained] == [tuple(c) for c in columns]
            for model, (seed, c) in zip(trained, pairs, strict=True):
                alone = fit(windows[:, :, c], labels, replace(spec, seed=seed), (mean[c], std[c]))
                assert model.spec.seed == seed
                assert model.params.tobytes() == alone.params.tobytes()
                assert model.training_log == alone.training_log

    def test_divergence_names_the_first_model_in_input_order(self):
        """Models 1 (width 2) and 2 (width 3) both read a column whose tiny
        std blows up their inputs, and model 2's width group comes first in
        the stacks; the error still names model 1, with its own message."""
        windows, labels = _separable(n=40, d=6)
        mean, std = frame_statistics(windows)
        std[4] = 1e-300
        spec = ClassifierSpec(kind="logistic", seed=0, epochs=3)
        pairs = [(1, [0, 1, 2]), (2, [3, 4]), (3, [4, 5, 0])]
        (error,) = fit_lockstep(spec, [(windows, labels, (mean, std), pairs)])
        assert isinstance(error, NumericError)
        assert error.model == 1
        (alone,) = fit_lockstep(spec, [(windows, labels, (mean, std), [pairs[1]])])
        assert str(error) == str(alone)

    def test_sets_must_share_a_train_size(self):
        windows, labels = _random_windows()
        spec = ClassifierSpec(kind="logistic", seed=0)
        sets = [
            (windows, labels, None, [(1, None)]),
            (windows[:-1], labels[:-1], None, [(2, None)]),
        ]
        with pytest.raises(ConfigError, match="must share a train window count"):
            fit_lockstep(spec, sets)

    def test_specs_must_agree_but_for_the_seed(self):
        """``train_split`` trains every split's models with one spec, so the
        splits' classifiers may differ only in their seeds."""
        corpus = SyntheticConfig(3, 100, 0.2, {"coords": 1.0}, seed=0, mean_positive_bout=20)
        seqs = generate_synthetic(corpus)
        spec = ClassifierSpec(kind="logistic", seed=1)
        config = ExperimentConfig("singular", "average", spec, 0, 20, 10)
        train, valid = (window_run(window_sequence(s, config) for s in part)
                        for part in (seqs[:2], seqs[2:]))
        other = replace(config, classifier=replace(spec, seed=2, learning_rate=0.01))
        with pytest.raises(ConfigError, match="share every spec field but the seed"):
            train_split([(train, valid, config), (train, valid, other)], [config], 1)


class TestStackedSteps:
    @given(
        kind=st.sampled_from(["logistic", "mlp"]),
        models_in_group=st.integers(1, 6),
        d=st.integers(1, 9),
        n=st.integers(1, 40),
        batch_size=st.integers(1, 16),
        h=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="logistic", models_in_group=3, d=1, n=11, batch_size=4, h=2, seed=0)
    @example(kind="mlp", models_in_group=6, d=1, n=23, batch_size=5, h=3, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_match_per_model_products(self, kind, models_in_group, d, n, batch_size, h, seed):
        """A group of equal-width models, right-aligned in wider stacks,
        gathers each batch (the last one short when the batch size does
        not divide n) and gets, bit for bit, each model's own 2-D products
        at its lone shape: its scores, loss (the two-term cross entropy
        plus l2 * p.p) and gradient."""
        rng = np.random.default_rng(seed)
        spec = ClassifierSpec(kind=kind, seed=0, hidden_units=h)
        arch = models._architecture(spec, d)
        M, l2, pad = models_in_group, 1e-3, 3
        P = np.zeros((M, arch.n_params + pad))
        P[:, pad:] = rng.standard_normal((M, arch.n_params))
        G = np.zeros_like(P)
        inputs = [(rng.standard_normal((n, d)), np.arange(n)) for _ in range(M)]
        group = models._Group(arch, slice(0, M), P, G, inputs)
        order = np.array([rng.permutation(n) for _ in range(M)])
        y = rng.random((M, n)) < 0.4
        weight = rng.uniform(0.5, 4.0, (M, 1))
        for start in range(0, n, batch_size):
            rows = slice(start, start + batch_size)
            batch = group.batch(order, rows)
            losses = models._losses_and_grads([group], [batch], y[:, rows], weight, l2, P, G)
            Z, _ = models._scores([group], [batch], P)
            for i, ((X, _), p) in enumerate(zip(inputs, P[:, pad:].copy())):
                Xb, yb = X[order[i, rows]], y[i, rows].astype(np.float64)
                assert batch[i].tobytes() == Xb.tobytes()
                if kind == "logistic":
                    z = Xb @ p[:-1]
                else:
                    pre = Xb @ p[: d * h].reshape(d, h)
                    pre += p[-2 * h - 1 : -h - 1]
                    hidden, w2 = np.maximum(pre, 0.0), p[-h - 1 : -1]
                    z = hidden @ w2
                z += p[-1]
                assert Z[i].tobytes() == z.tobytes()
                loss = weighted_bce_oracle(z, yb, weight[i, 0]) + l2 * p.dot(p)
                assert losses[i] == loss
                dz = bce_dz_oracle(z, yb, weight[i, 0])
                if kind == "logistic":
                    grad = np.concatenate([Xb.T @ dz, [dz.sum()]])
                else:
                    dpre = dz[:, None] * w2
                    dpre *= pre > 0.0
                    parts = [(Xb.T @ dpre).reshape(-1), np.add.reduce(dpre, axis=0), hidden.T @ dz]
                    grad = np.concatenate(parts + [[dz.sum()]])
                grad += 2.0 * l2 * p
                assert G[i, pad:].tobytes() == grad.tobytes()
                assert not G[i, :pad].any()

    _finite = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 710.0, -710.0]),
    )

    @given(
        z=st.lists(_finite, min_size=1, max_size=20),
        labels=st.lists(st.booleans(), min_size=20, max_size=20),
        weight=st.floats(1e-6, 1e6),
        broken=st.lists(st.tuples(st.integers(0, 19), st.sampled_from([np.inf, -np.inf, np.nan]))),
    )
    @example(z=[0.0, -0.0], labels=[True, False] * 10, weight=1.0, broken=[])
    @example(z=[-1e308, 1e308], labels=[True, True] + [False] * 18, weight=3.0, broken=[])
    @example(z=[1.0, 2.0], labels=[True, False] * 10, weight=2.0, broken=[(0, np.inf)])
    @settings(max_examples=300, deadline=None)
    def test_one_softplus_matches_two_term_loss(self, z, labels, weight, broken):
        """The one-softplus loss equals ``weighted_bce_oracle``'s two-term
        form bit for bit on finite scores, down to +-0 and |z| near 1e308;
        with a non-finite score it is the same NaN or inf."""
        z = np.array(z)
        for i, value in broken:
            if i < len(z):
                z[i] = value
        y = np.array(labels[: len(z)])
        with np.errstate(all="ignore"):
            (loss,), _ = models._cross_entropy(z[None], y[None], np.array([[weight]]))
            expected = weighted_bce_oracle(z, y.astype(np.float64), weight)
        if math.isnan(expected):
            assert math.isnan(loss)
        else:
            assert np.float64(loss).tobytes() == np.float64(expected).tobytes()

    def test_cnn1d_batch_reads_the_window_view(self):
        """A cnn1d batch is a fancy index of the strided window view of the
        standardized frames, by window start: the windows' values in a new
        C-ordered array, the rows ``take`` once gathered."""
        rng = np.random.default_rng(2)
        frames = [rng.standard_normal((n, 5)) for n in (40, 33)]
        windows = WindowSet(frames, 6, 4, 5)
        mean, std = frame_statistics(windows)
        source, starts = models._model_input("cnn1d", windows, mean, std, 5)
        assert len(starts) == len(windows)
        picks = rng.permutation(len(windows))[:7]
        batch = models._windows_at(source, starts[picks])
        assert batch.flags.c_contiguous
        expected = (stacked_windows_oracle(frames, 6, 4)[picks] - mean) / std
        assert batch.tobytes() == expected.tobytes()


class TestPredict:
    def test_zero_parameters_give_half(self):
        model = _hand_built(np.zeros(5))
        window = np.ones((1, 3, 4))
        assert model.predict_proba_windows(window)[0] == 0.5

    def test_hand_set_weight_matches_sigmoid(self):
        model = _hand_built([1.0, 0.0, 0.0, 0.0, 0.0])
        window = np.zeros((1, 4, 4))
        window[:, :, 0] = 2.0
        assert model.predict_proba_windows(window)[0] == 1.0 / (1.0 + math.exp(-2.0))

    def test_repeated_prediction_is_identical(self):
        windows, labels = _random_windows()
        model = fit(windows, labels, ClassifierSpec(kind="cnn1d", seed=2, epochs=4))
        first = model.predict_proba_windows(windows)
        second = model.predict_proba_windows(windows)
        assert first.tobytes() == second.tobytes()

    def test_conv_rejects_windows_shorter_than_kernel(self):
        windows, labels = _random_windows(frames=8)
        model = fit(windows, labels, ClassifierSpec(kind="cnn1d", seed=0, epochs=2))
        with pytest.raises(DataError, match="window length 4 shorter than kernel width 5"):
            model.predict_proba_windows(windows[:, :4])

    def test_empty_batch(self):
        model = _hand_built(np.zeros(5))
        assert model.predict_proba_windows(np.zeros((0, 3, 4))).shape == (0,)

    def test_cnn1d_predicts_block_by_block(self):
        """cnn1d scores BLOCK_WINDOWS windows at a time from its
        standardized frames, the last block taking the remainder. With
        32-window blocks, the second of which spans two sequences, on the
        shipped window and layer sizes, its probabilities equal, bit for
        bit, the sigmoid of the raw scores of the whole standardized joined
        tensor. (Scored alone, the 65th window would reach BLAS's
        small-matrix kernels, which here move its last bits.)"""
        rng = np.random.default_rng(3)
        seqs = [
            SequenceData(
                "A",
                "healthy",
                rng.standard_normal((n, 70)) + rng.uniform(-2, 2, 70),
                (rng.random(n) < 0.3).astype(np.int8),
                np.zeros((n, 2)),
            )
            for n in (600, 405)
        ]
        windows = WindowSet([s.features for s in seqs], 30, 15, 70)
        labels = np.concatenate([make_windows(s, 30, 15)[1] for s in seqs])
        labels[:2] = (0, 1)
        spec = ClassifierSpec(kind="cnn1d", seed=3, epochs=2)
        model = fit(windows, labels, spec)
        joined = joined_windows_oracle([make_windows(s, 30, 15)[0] for s in seqs])
        joined -= model.feature_mean
        joined /= model.feature_std
        arch = models._architecture(spec, 70)
        group = models._alone(arch, model.params)
        z = models._scores([group], [joined[None]], group.P)[0][0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "BLOCK_WINDOWS", 32)
            probas = model.predict_proba_windows(windows)
        assert len(windows) == 65
        assert probas.tobytes() == models._sigmoid(z).tobytes()


class TestWindowBlocks:
    @given(
        length=st.integers(1, 40),
        stride=st.integers(1, 40),
        extra_frames=st.lists(st.integers(0, 300), min_size=1, max_size=4),
        block=st.sampled_from(["smaller", "equal", "larger"]),
        columns=st.sampled_from([None, "semg", "trunk"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_joined_tensor(self, length, stride, extra_frames, block, columns, seed):
        """Time reductions read block by block from per-sequence frames
        equal those of the joined C-ordered tensor of ``make_windows`` views
        bit for bit, for blocks smaller than, equal to and larger than the
        first sequence's window count, and for all 70 columns, the
        contiguous sEMG and the scattered trunk columns picked from them;
        so do the blocks themselves and a model's input from those columns:
        the pooled kinds' time means, and the convolution's frame columns
        gathered by window frame rows. So do the frame statistics of one
        sequence; those of several are its sequences' moments merged in
        order, bit for bit, and lie within 1e-11 std of the joined
        tensor's, or for the mean within the rounding of a sum of frames."""
        rng = np.random.default_rng(seed)
        selected = None if columns is None else quadrifurcated_scheme().modalities[columns]
        frames, parts = [], []
        for extra in extra_frames:
            n_frames = length + extra
            seq = SequenceData(
                "A",
                "healthy",
                rng.standard_normal((n_frames, 70)) * 10.0 ** rng.uniform(-3, 3, 70) + 5.0,
                np.zeros(n_frames, dtype=np.int8),
                np.zeros((n_frames, 2)),
            )
            frames.append(seq.features)
            parts.append(make_windows(seq, length, stride)[0])
        joined = joined_windows_oracle(parts, selected)
        pick = slice(None) if selected is None else list(selected)
        first = len(parts[0])
        size = {"smaller": max(1, first - 1), "equal": first, "larger": first + 5}[block]
        windows = WindowSet(frames, length, stride, 70)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "BLOCK_WINDOWS", size)
            offsets = np.cumsum([0] + [len(p) for p in parts])
            assert [(start, len(span)) for start, span in models._spans(windows)] == [
                (offset + start, (min(size, len(p) - start) - 1) * stride + length)
                for offset, p in zip(offsets, parts)
                for start in range(0, len(p), size)
            ]
            for reduction in ("mean", "max", "std"):
                pooled = pool_windows(windows, reduction)
                assert np.array_equal(pooled[:, pick], getattr(joined, reduction)(axis=1))
            mean, std = frame_statistics(windows)
            merged = merged_statistics_oracle(frames, length, stride, size, STD_FLOOR)
            first = frame_statistics(WindowSet(frames[:1], length, stride, 70))
        assert np.array_equal(mean, merged[0])
        assert np.array_equal(std, merged[1])
        joined_std = np.maximum(joined.std(axis=(0, 1)), STD_FLOOR)
        # Summing n frames, joined or per sequence, rounds a mean by up to
        # about n * eps * mean|x|, more than 1e-11 std where a column's
        # spread is 1e-3 of its offset of 5.
        rounding = len(windows) * length * np.finfo(float).eps * np.abs(joined).mean(axis=(0, 1))
        bound = np.maximum(1e-11 * joined_std, rounding)
        assert np.all(np.abs(mean[pick] - joined.mean(axis=(0, 1))) <= bound)
        assert np.all(np.abs(std[pick] - joined_std) <= 1e-11 * joined_std)
        alone = joined_windows_oracle(parts[:1], selected)
        assert np.array_equal(first[0][pick], alone.mean(axis=(0, 1)))
        assert np.array_equal(first[1][pick], np.maximum(alone.std(axis=(0, 1)), STD_FLOOR))
        blocks = stacked_windows_oracle(frames, length, stride)
        assert np.array_equal(blocks, joined_windows_oracle(parts))
        assert np.array_equal(blocks[:, :, pick], joined)
        X, rows = models._model_input("logistic", windows, 0.0, 1.0, 70, selected)
        assert np.array_equal(X, joined.mean(axis=1))
        X, rows = models._model_input("cnn1d", windows, 0.0, 1.0, 70, selected)
        assert np.array_equal(X.take(rows, axis=0), joined)


class TestInPlaceReductions:
    @pytest.mark.parametrize("width", [1, 2, 4, 70])
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_equal_block_copies(self, width, layout, block):
        """Pooling (mean, max, std), the frame sums and the frame statistics
        of one sequence, read in place from strided views of the frames,
        equal bit for bit the block-copy reading that copied every window;
        those of several sequences are the block-copy moments of each
        sequence merged in order, bit for bit, within 1e-11 std of the
        block-copy sums over all of them: for one to 70 columns, C- and
        Fortran-ordered frames, BLOCK_WINDOWS of 1, 7 and 256, a sequence
        with no window, and a stride shorter than, equal to and longer than
        the window."""
        rng = np.random.default_rng(width * 100 + block)
        for length, stride in ((30, 15), (6, 6), (4, 9)):
            frames = [
                np.asarray(
                    rng.standard_normal((n, width)) * 10.0 ** rng.uniform(-3, 3, width) + 5.0,
                    order=layout,
                )
                for n in (length + 290, length - 1, length, 3 * length + 7)
            ]
            windows = WindowSet(frames, length, stride, width)
            empty = WindowSet(frames[1:2], length, stride, width)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(models, "BLOCK_WINDOWS", block)
                for reduction in ("mean", "max", "std"):
                    pooled = pool_windows(windows, reduction)
                    expected = pool_windows_oracle(frames, length, stride, block, reduction)
                    assert pooled.tobytes() == expected.tobytes()
                    assert pool_windows(empty, reduction).shape == (0, width)
                total = frame_sum_oracle(frames, length, stride, block)
                assert models._frame_sum(windows).tobytes() == total.tobytes()
                count = len(windows) * length
                squares = frame_sum_oracle(frames, length, stride, block, total / count)
                mean, std = frame_statistics(windows)
                merged = merged_statistics_oracle(frames, length, stride, block, STD_FLOOR)
                first = frame_statistics(WindowSet(frames[:1], length, stride, width))
                first_total = frame_sum_oracle(frames[:1], length, stride, block)
                first_count = (len(frames[0]) - length) // stride * length + length
                first_squares = frame_sum_oracle(
                    frames[:1], length, stride, block, first_total / first_count
                )
            assert mean.tobytes() == merged[0].tobytes()
            assert std.tobytes() == merged[1].tobytes()
            joined_std = np.maximum(np.sqrt(squares / count), STD_FLOOR)
            assert np.all(np.abs(mean - total / count) <= 1e-11 * joined_std)
            assert np.all(np.abs(std - joined_std) <= 1e-11 * joined_std)
            assert first[0].tobytes() == (first_total / first_count).tobytes()
            floored = np.maximum(np.sqrt(first_squares / first_count), STD_FLOOR)
            assert first[1].tobytes() == floored.tobytes()

    def test_no_window_raises_data_error(self):
        """Frame statistics skip a sequence with no window, so a set whose
        first sequence is shorter than a window gets the bits of the set
        without it; a set with no window at all, of no sequence or of only
        short ones, raises DataError, with no NumPy warning."""
        rng = np.random.default_rng(3)
        frames = [rng.standard_normal((n, 4)) + 2.0 for n in (5, 40, 23)]
        short_first = frame_statistics(WindowSet(frames, 6, 3, 4))
        rest = frame_statistics(WindowSet(frames[1:], 6, 3, 4))
        for got, expected in zip(short_first, rest):
            assert got.tobytes() == expected.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for empty in (WindowSet([], 6, 3, 4), WindowSet(frames[:1], 6, 3, 4)):
                assert len(empty) == 0
                with pytest.raises(DataError, match="^no window to take frame statistics from$"):
                    frame_statistics(empty)


class TestGradients:
    """Quick one-seed gradient checks; the acceptance suite sweeps 20
    seeds per architecture at the same tolerances."""

    def test_logistic(self):
        windows, labels = _random_windows(seed=5)
        err = grad_check(ClassifierSpec(kind="logistic", seed=5), windows, labels)
        assert err < 1e-7

    def test_mlp(self):
        windows, labels = _random_windows(seed=6)
        err = grad_check(ClassifierSpec(kind="mlp", seed=6, hidden_units=8), windows, labels)
        assert err < 1e-6

    def test_cnn1d(self):
        # Windows need enough frames that max pooling has comfortably
        # separated activations; 8-frame windows exhaust the redraws.
        windows, labels = _random_windows(seed=7, frames=12)
        err = grad_check(ClassifierSpec(kind="cnn1d", seed=7), windows, labels)
        assert err < 1e-5


def _assert_close(actual, expected, rtol=1e-12):
    """Agreement to rtol relative to the largest reference magnitude."""
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


class TestConvKernel:
    @given(
        batch=st.integers(1, 6),
        d=st.integers(1, 9),
        channels=st.integers(1, 5),
        kernel=st.integers(1, 6),
        extra_frames=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=4, d=70, channels=8, kernel=5, extra_frames=0, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_matches_tap_tensor_reference(self, batch, d, channels, kernel, extra_frames, seed):
        """The convolution's activations and the loss gradient equal those
        computed through an explicit [B, span, K, d] tap tensor, to a
        relative 1e-12, for windows from one kernel long (span 1) up."""
        rng = np.random.default_rng(seed)
        spec = ClassifierSpec(kind="cnn1d", seed=0, conv_channels=channels, kernel_width=kernel)
        arch = models._Cnn1d(spec, d)
        X = rng.standard_normal((batch, kernel + extra_frames, d))
        y = rng.integers(0, 2, batch).astype(np.float64)
        params = rng.standard_normal(arch.n_params)
        pos_weight, l2 = 3.0, 1e-3
        W, b_conv, w, b = arch._unpack(params)

        expected_act = conv_taps_oracle(X, W, b_conv)
        act = arch.scores(arch.parts(params[None]), X[None], np.empty((1, batch, 1)))[0][0]
        _assert_close(act, expected_act)

        # Backward through max pooling and ReLU from the reference
        # activations: each (window, channel) passes its gradient to its
        # peak frame, if that activation is positive.
        relu = np.maximum(expected_act, 0.0)
        peak_at = relu.argmax(axis=1)
        pooled = relu.max(axis=1)
        dz = bce_dz_oracle(pooled @ w + b, y, pos_weight)
        dact = np.zeros_like(expected_act)
        for i in range(batch):
            for c in range(channels):
                if expected_act[i, peak_at[i, c], c] > 0.0:
                    dact[i, peak_at[i, c], c] = dz[i] * w[c]
        expected_grad = np.concatenate(
            [
                conv_weight_grad_oracle(X, dact, kernel).reshape(-1),
                dact.sum(axis=(0, 1)),
                pooled.T @ dz,
                [dz.sum()],
            ]
        )
        expected_grad += 2.0 * l2 * params
        _, grad = models._loss_and_grad(arch, params, X, y, pos_weight, l2)
        n_filter = channels * kernel * d
        _assert_close(grad[:n_filter], expected_grad[:n_filter])
        _assert_close(grad[n_filter:], expected_grad[n_filter:])


class TestConvRegression:
    def test_cnn1d_learns_bout_structure(self):
        """Frozen regression floor for the convolutional model on a
        bout-structured corpus. Measured 0.932 when the floor was set;
        anything under 0.6 means the temporal path broke."""
        config = SyntheticConfig(
            n_subjects=6,
            frames_per_subject=3000,
            positive_rate=0.15,
            modality_snr={"coords": 1.0},
            seed=0,
            mean_positive_bout=60,
        )
        seqs = generate_synthetic(config)
        train, train_labels = _windows_of(seqs[:4], 30, 15)
        valid, valid_labels = _windows_of(seqs[4:], 30, 15)
        spec = ClassifierSpec(
            kind="cnn1d", seed=0, learning_rate=0.02, epochs=20, batch_size=64
        )
        model = fit(train, train_labels, spec)
        predicted = (model.predict_proba_windows(valid) >= 0.5).astype(int)
        report = metrics(confusion(predicted, valid_labels))
        assert report.f1_pos >= 0.6


class TestBlasThreads:
    def test_repeated_fits_leave_no_ctypes_garbage(self):
        """OpenBLAS and its thread functions are looked up once per
        process, so fitting and predicting again leave no ctypes object
        for the garbage collector."""
        windows, labels = _random_windows()
        spec = ClassifierSpec(kind="logistic", seed=0, epochs=1)
        fit(windows, labels, spec).predict_proba_windows(windows)
        gc.collect()
        flags = gc.get_debug()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(3):
                fit(windows, labels, spec).predict_proba_windows(windows)
            gc.collect()
            leaked = [o for o in gc.garbage if type(o).__module__ in ("ctypes", "_ctypes")]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert leaked == []

    def test_training_and_prediction_run_one_openblas_thread(self, monkeypatch):
        """OpenBLAS's threads can change a product's last bits, so ``fit``
        and ``predict_proba_windows`` run it on one thread, and leave the
        caller's thread count as they found it."""
        blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        names = [n for n in models._OPENBLAS if hasattr(blas, n.format("set_num_threads"))]
        if not names:
            pytest.skip("NumPy does not link OpenBLAS")
        get_threads = getattr(blas, names[0].format("get_num_threads"))
        set_threads = getattr(blas, names[0].format("set_num_threads"))
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        real_sigmoid, seen = models._sigmoid, []

        def recording_sigmoid(z):
            seen.append(get_threads())
            return real_sigmoid(z)

        monkeypatch.setattr(models, "_sigmoid", recording_sigmoid)
        before = get_threads()
        set_threads(2)
        try:
            windows, labels = _separable()
            model = fit(windows, labels, ClassifierSpec(kind="cnn1d", seed=0, epochs=1))
            model.predict_proba_windows(windows)
            assert get_threads() == 2
        finally:
            set_threads(before)
        assert seen and set(seen) == {1}
