"""Correlation, normality, and fusion-weight statistics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (
    kendall_oracle,
    normal_quantile_oracle,
    pearson_oracle,
    rank_oracle,
    spearman_oracle,
)
from painfusion import (
    FusionWeights,
    average_weights,
    bifurcated_scheme,
    feature_relevance,
    generate_synthetic,
    kendall_tau_b,
    make_windows,
    modality_weights,
    normal_quantile,
    normality_report,
    pearson_r,
    quadrifurcated_scheme,
    rank_with_ties,
    singular_scheme,
    spearman_rho,
)
from painfusion.data import SyntheticConfig
from painfusion.errors import ConfigError, DataError, ZeroVariance
from painfusion.stats import normalize_relevances, recommend_method

def _windows_of(seqs, length, stride):
    """Windows and labels of all sequences, concatenated in order."""
    pairs = [make_windows(s, length, stride) for s in seqs]
    return np.concatenate([w for w, _ in pairs]), np.concatenate([y for _, y in pairs])


# Vectors with planted ties: duplicates are likely because draws come
# from a small integer alphabet.
tied_vectors = st.integers(3, 60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 8), min_size=n, max_size=n),
        st.lists(st.integers(0, 8), min_size=n, max_size=n),
    )
)


class TestRankWithTies:
    def test_distinct(self):
        assert_array_equal(rank_with_ties([10, 20, 30]), [1, 2, 3])

    def test_tie_averaging(self):
        assert_array_equal(rank_with_ties([10, 20, 20, 30]), [1, 2.5, 2.5, 4])

    def test_against_counting_oracle(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 300, size=1000).astype(float)
        assert_array_equal(rank_with_ties(values), rank_oracle(values))

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=40))
    def test_oracle_property(self, values):
        assert_array_equal(rank_with_ties(values), rank_oracle(values))


class TestSpearman:
    def test_increasing(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]).coefficient == 1.0

    def test_decreasing(self):
        assert spearman_rho([1, 2, 3, 4], [8, 6, 4, 2]).coefficient == -1.0

    def test_tied_example_matches_oracle(self):
        x = [1, 2, 2, 4, 5]
        y = [2, 1, 3, 5, 4]
        r = spearman_rho(x, y)
        assert not r.degenerate
        assert abs(r.coefficient - spearman_oracle(x, y)) < 1e-12

    def test_constant_degenerate(self):
        r = spearman_rho([3, 3, 3, 3], [1, 2, 3, 4])
        assert r.degenerate and r.coefficient == 0.0

    @given(tied_vectors)
    @settings(max_examples=60)
    def test_matches_oracle(self, xy):
        x, y = xy
        ours = spearman_rho(x, y)
        ref = spearman_oracle(x, y)
        if ref is None:
            assert ours.degenerate
        else:
            assert abs(ours.coefficient - ref) < 1e-12


class TestFeatureRelevance:
    @given(
        n=st.integers(3, 50),
        n_columns=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        constant_columns=st.sets(st.integers(0, 7)),
        label_rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_per_column_spearman(self, n, n_columns, seed, constant_columns, label_rate):
        """Ranking the labels once per call gives, bit for bit, the |rho|
        of a per-column ``spearman_rho`` loop: with tied values, constant
        columns and constant labels, and whether the windows are reduced
        over time by the call or given reduced."""
        rng = np.random.default_rng(seed)
        reduced = rng.integers(0, 5, (n, n_columns)) * 0.37
        for j in constant_columns & set(range(n_columns)):
            reduced[:, j] = 2.5
        labels = (rng.random(n) < label_rate).astype(np.int8)
        expected = []
        for j in range(n_columns):
            r = spearman_rho(reduced[:, j], labels)
            expected.append(0.0 if r.degenerate else abs(r.coefficient))
        expected = np.array(expected)
        assert feature_relevance(reduced, labels).tobytes() == expected.tobytes()
        windows = reduced[:, None, :]  # one-frame windows, whose time mean is the frame
        assert feature_relevance(windows, labels).tobytes() == expected.tobytes()

    def test_unknown_reduction_is_a_config_error(self):
        """An unknown reduction is rejected as a configuration error, with
        the wording of ``ExperimentConfig.validate``, by library calls too."""
        windows = np.arange(840.0).reshape(4, 3, 70)
        labels = np.array([0, 1, 0, 1])
        expected = "reduction must be one of ('mean', 'max', 'std'), got 'median'"
        with pytest.raises(ConfigError) as relevance_error:
            feature_relevance(windows, labels, "median")
        with pytest.raises(ConfigError) as weights_error:
            modality_weights(windows, labels, singular_scheme(), reduction="median")
        assert str(relevance_error.value) == str(weights_error.value) == expected


class TestPearson:
    def test_affine(self):
        x = np.arange(10.0)
        assert pearson_r(x, 2 * x + 1).coefficient == pytest.approx(1.0, abs=1e-15)

    def test_negation(self):
        x = np.arange(5.0)
        assert pearson_r(x, -x).coefficient == pytest.approx(-1.0, abs=1e-15)

    def test_random_pair_matches_two_pass(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        assert abs(pearson_r(x, y).coefficient - pearson_oracle(x, y)) < 1e-12

    def test_too_short(self):
        with pytest.raises(DataError, match="need at least 3 samples, got 1"):
            pearson_r([1.0], [2.0])


class TestKendall:
    def test_concordant(self):
        assert kendall_tau_b([1, 2, 3, 4, 5], [2, 4, 6, 8, 10]).coefficient == 1.0

    def test_constant_degenerate(self):
        r = kendall_tau_b([7, 7, 7], [1, 2, 3])
        assert r.degenerate and r.coefficient == 0.0

    def test_500_tied_values_exact(self):
        """Merge-sort counting must agree with pair enumeration exactly,
        not just approximately: the pair counts are integers."""
        rng = np.random.default_rng(23)
        x = rng.integers(0, 40, size=500).astype(float)
        y = (x + rng.integers(0, 40, size=500)).astype(float)
        assert kendall_tau_b(x, y).coefficient == kendall_oracle(x, y)

    @given(tied_vectors)
    @settings(max_examples=60)
    def test_matches_oracle(self, xy):
        x, y = xy
        ours = kendall_tau_b(x, y)
        ref = kendall_oracle(x, y)
        if ref is None:
            assert ours.degenerate
        else:
            assert ours.coefficient == ref


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_upper_tail(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)

    def test_lower_tail(self):
        assert normal_quantile(0.0228) == pytest.approx(-2.0, abs=1e-3)

    @given(st.floats(1e-7, 1 - 1e-7))
    @example(1e-10)
    @example(1 - 1e-10)
    @settings(max_examples=80)
    def test_against_erfinv(self, p):
        assert normal_quantile(p) == pytest.approx(
            normal_quantile_oracle(p), abs=1e-9
        )

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-12)


class TestNormalityReport:
    def test_normal_sample(self):
        rng = np.random.default_rng(5)
        rep = normality_report(rng.standard_normal(10_000))
        assert abs(rep.skewness) < 0.1
        assert abs(rep.excess_kurtosis) < 0.2
        assert rep.jarque_bera_p > 0.01

    def test_exponential_sample(self):
        rng = np.random.default_rng(5)
        rep = normality_report(rng.exponential(size=10_000))
        assert rep.skewness == pytest.approx(2.0, abs=0.2)
        assert rep.jarque_bera_p < 1e-6

    def test_constant_input(self):
        with pytest.raises(ZeroVariance):
            normality_report(np.full(100, 3.25))

    def test_tiny_spread_is_zero_variance(self):
        """A spread whose variance is subnormal underflows m2 ** 1.5 and
        m2 * m2 to 0: ZeroVariance, not ZeroDivisionError or a warning."""
        x = np.random.default_rng(2).standard_normal(100) * 1e-155
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroVariance):
                normality_report(x)

    @pytest.mark.parametrize("huge", [1e300, -1e300, 1e160, 1.7e308])
    def test_overflowing_moments_raise(self, huge):
        """A finite value whose square or fourth power overflows raises a
        DataError, not a NumPy warning and a NaN p-value."""
        x = np.random.default_rng(2).standard_normal(100)
        x[7] = huge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^normality moments overflow"):
                normality_report(x)

    def test_qq_subset(self):
        rng = np.random.default_rng(1)
        rep = normality_report(rng.standard_normal(5000), qq_points=64)
        assert rep.qq_pairs.shape == (64, 2)
        # empirical column must be a subsequence of the sorted sample
        assert np.all(np.diff(rep.qq_pairs[:, 1]) >= 0)

    def test_qq_full(self):
        rng = np.random.default_rng(1)
        rep = normality_report(rng.standard_normal(300))
        assert rep.qq_pairs.shape == (300, 2)

    def test_qq_csv_rows_are_plain_floats(self):
        """Every Q-Q row is two plain numbers that read back to the pair
        exactly, not NumPy scalar reprs such as ``np.float64(...)``."""
        rng = np.random.default_rng(1)
        rep = normality_report(rng.standard_normal(300) * 3.0 + 1.0)
        header, *rows = rep.qq_csv().splitlines()
        assert header == "theoretical_quantile,sample_quantile"
        assert len(rows) == len(rep.qq_pairs)
        for row, pair in zip(rows, rep.qq_pairs):
            t, s = (float(field) for field in row.split(","))
            assert (t, s) == (pair[0], pair[1])


class TestRecommendMethod:
    def test_skewed_recommends_spearman(self):
        rng = np.random.default_rng(2)
        rep = normality_report(rng.exponential(size=5000))
        lines = recommend_method(rep)
        assert any("normality rejected" in line for line in lines)
        assert any("opt for Spearman" in line for line in lines)

    def test_normal_not_rejected(self):
        rng = np.random.default_rng(2)
        rep = normality_report(rng.standard_normal(5000))
        lines = recommend_method(rep)
        assert any("normality not rejected" in line for line in lines)


class TestWeights:
    def test_normalization_arithmetic(self):
        weights = normalize_relevances({"A": 0.3, "B": 0.1})
        assert weights == pytest.approx({"A": 0.75, "B": 0.25}, abs=1e-12)

    def test_all_constant_falls_back_to_average(self):
        wins = np.ones((3, 6, 70))
        labels = np.array([0, 1, 0])
        fw = modality_weights(wins, labels, bifurcated_scheme())
        assert fw.provenance == "average"
        assert set(fw.weights.values()) == {0.5}

    def test_average_quadrifurcated(self):
        fw = average_weights(quadrifurcated_scheme())
        assert all(w == 0.25 for w in fw.weights.values())

    def test_average_bifurcated(self):
        fw = average_weights(bifurcated_scheme())
        assert all(w == 0.5 for w in fw.weights.values())

    def test_singular_weight_is_one(self):
        fw = average_weights(singular_scheme())
        assert fw.weights == {"all": 1.0}
        assert fw.provenance == "singular"

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            FusionWeights("bifurcated", {"coords": 0.9, "semg": 0.2}, "average", {})
        with pytest.raises(ValueError):
            FusionWeights("bifurcated", {"coords": 1.2, "semg": -0.2}, "average", {})

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.one_of(st.just(0.0), st.floats(1e-9, 100.0)),
            min_size=1,
            max_size=4,
        ),
        st.floats(1e-6, 1e6),
    )
    def test_scaling_invariance(self, raw, scale):
        base = normalize_relevances(raw)
        scaled = normalize_relevances({k: v * scale for k, v in raw.items()})
        if base is None:
            assert scaled is None
            return
        assert scaled is not None
        assert sum(base.values()) == pytest.approx(1.0, abs=1e-12)
        for key in raw:
            assert scaled[key] == pytest.approx(base[key], abs=1e-9)

    def test_signal_modality_dominates(self):
        """With all the planted signal on the coordinate side, the
        statistical weights must concentrate there."""
        hits = 0
        for seed in range(10):
            syn = SyntheticConfig(
                n_subjects=4,
                frames_per_subject=3000,
                positive_rate=0.1,
                modality_snr={"coords": 1.0, "semg": 0.0},
                seed=seed,
                mean_positive_bout=60,
            )
            wins, labels = _windows_of(generate_synthetic(syn), 30, 15)
            fw = modality_weights(wins, labels, bifurcated_scheme())
            if fw.weights["coords"] > 0.8:
                hits += 1
        assert hits >= 9

    def test_pure_noise_semg_gets_minimum_weight(self):
        hits = 0
        for seed in range(10):
            syn = SyntheticConfig(
                n_subjects=4,
                frames_per_subject=3000,
                positive_rate=0.1,
                modality_snr={"trunk": 1.0, "upper_limbs": 1.0, "lower_limbs": 1.0, "semg": 0.0},
                seed=seed,
                mean_positive_bout=60,
            )
            wins, labels = _windows_of(generate_synthetic(syn), 30, 15)
            fw = modality_weights(wins, labels, quadrifurcated_scheme())
            if min(fw.weights, key=fw.weights.get) == "semg":
                hits += 1
        assert hits >= 9

    def test_constant_modality_gets_zero(self):
        rng = np.random.default_rng(3)
        wins = np.empty((40, 6, 70))
        labels = np.empty(40, dtype=int)
        for i in range(40):
            wins[i] = rng.standard_normal((6, 70))
            wins[i, :, 66:] = 5.0
            labels[i] = int(i % 7 == 0)
        fw = modality_weights(wins, labels, bifurcated_scheme())
        assert fw.weights["semg"] == 0.0
        assert fw.weights["coords"] == 1.0
