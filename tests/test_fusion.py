"""Decision-level vote combination."""

import numpy as np
import pytest

from painfusion import FusionWeights, fuse_batch
from painfusion.errors import ConfigError, DataError, InternalError


def _weights(mapping, scheme="bifurcated"):
    return FusionWeights(scheme, mapping, "statistical", dict(mapping))


TWO = _weights({"coords": 0.75, "semg": 0.25})
FOUR = _weights(
    {"trunk": 0.25, "upper_limbs": 0.25, "lower_limbs": 0.25, "semg": 0.25},
    scheme="quadrifurcated",
)
ONE = _weights({"all": 1.0}, scheme="singular")


def fuse_one(probas, weights, **kwargs):
    """fuse_batch on length-1 arrays: (fused probability, label)."""
    fused, labels = fuse_batch(
        {name: np.array([p]) for name, p in probas.items()}, weights, **kwargs
    )
    return fused[0], labels[0]


class TestSoftVote:
    def test_weighted_two_modality_example(self):
        fused, label = fuse_one({"coords": 0.8, "semg": 0.2}, TWO)
        assert fused == pytest.approx(0.65, abs=1e-12)
        assert label == 1

    def test_equal_four_modality_example(self):
        fused, label = fuse_one(
            {"trunk": 0.2, "upper_limbs": 0.2, "lower_limbs": 0.2, "semg": 0.2}, FOUR
        )
        assert fused == pytest.approx(0.2, abs=1e-12)
        assert label == 0

    def test_singular_is_identity(self):
        for p in (0.0, 0.3, 0.5, 0.999, 1.0):
            fused, label = fuse_one({"all": p}, ONE)
            assert fused == p
            assert label == (1 if p >= 0.5 else 0)

    def test_tie_goes_positive(self):
        fused, label = fuse_one({"coords": 0.5, "semg": 0.5}, TWO)
        assert fused == 0.5
        assert label == 1

    def test_insertion_order_does_not_matter(self):
        a, _ = fuse_one({"coords": 0.731, "semg": 0.118}, TWO)
        b, _ = fuse_one({"semg": 0.118, "coords": 0.731}, TWO)
        assert a == b


class TestHardVote:
    def test_votes_are_thresholded_first(self):
        # coords votes 1, semg votes 0: fused = 0.75 over threshold 0.5.
        fused, label = fuse_one({"coords": 0.51, "semg": 0.49}, TWO, mode="hard")
        assert fused == 0.75
        assert label == 1

    def test_minority_vote_loses(self):
        fused, label = fuse_one({"coords": 0.1, "semg": 0.99}, TWO, mode="hard")
        assert fused == 0.25
        assert label == 0

    def test_both_stages_use_the_same_threshold(self):
        fused, label = fuse_one(
            {"coords": 0.35, "semg": 0.35}, TWO, threshold=0.3, mode="hard"
        )
        assert fused == 1.0
        assert label == 1


class TestValidation:
    def test_key_mismatch(self):
        with pytest.raises(InternalError, match="do not match weight table"):
            fuse_one({"coords": 0.5}, TWO)
        with pytest.raises(InternalError, match="do not match weight table"):
            fuse_one({"coords": 0.5, "semg": 0.5, "extra": 0.5}, TWO)

    def test_probability_out_of_range(self):
        for bad in (-0.1, 1.1, float("nan"), float("inf")):
            with pytest.raises(InternalError, match="modality 'semg', window 0: probability"):
                fuse_one({"coords": 0.5, "semg": bad}, TWO)

    def test_threshold_domain(self):
        for bad in (0.0, 1.0, -1.0, float("nan")):
            with pytest.raises(ConfigError, match=r"threshold must lie strictly in \(0, 1\)"):
                fuse_one({"coords": 0.5, "semg": 0.5}, TWO, threshold=bad)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="vote mode must be one of"):
            fuse_one({"coords": 0.5, "semg": 0.5}, TWO, mode="ranked")

    def test_batch_length_mismatch(self):
        with pytest.raises(DataError, match="modality arrays differ in length"):
            fuse_batch({"coords": np.zeros(3), "semg": np.zeros(2)}, TWO)

    def test_batch_locates_bad_probability(self):
        probas = {"coords": np.array([0.5, 0.5]), "semg": np.array([0.5, 1.5])}
        with pytest.raises(InternalError, match=r"modality 'semg', window 1: probability 1\.5$"):
            fuse_batch(probas, TWO)


class TestBatch:
    def test_empty(self):
        fused, labels = fuse_batch({"coords": np.zeros(0), "semg": np.zeros(0)}, TWO)
        assert fused.shape == (0,) and labels.shape == (0,)

    def test_three_windows_in_order(self):
        probas = {
            "coords": np.array([0.9, 0.1, 0.5]),
            "semg": np.array([0.9, 0.1, 0.5]),
        }
        fused, labels = fuse_batch(probas, TWO)
        assert fused == pytest.approx([0.9, 0.1, 0.5], abs=1e-12)
        assert labels.tolist() == [1, 0, 1]
