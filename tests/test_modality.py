"""Feature partitioning schemes and modality column selection."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_array_equal

from painfusion import (
    SequenceData,
    bifurcated_scheme,
    make_windows,
    quadrifurcated_scheme,
    scheme_by_name,
    singular_scheme,
)
from painfusion.errors import ConfigError
from painfusion.modality import (
    JointSegmentMap,
    N_FEATURES,
    default_joint_segment_map,
    parse_joint_segment_map,
)
from painfusion.models import WindowSet, _model_input

from oracles import joined_windows_oracle


class TestSchemes:
    def test_singular_covers_everything(self):
        s = singular_scheme()
        assert list(s.modalities) == ["all"]
        assert s.modalities["all"] == tuple(range(70))

    def test_bifurcated_split(self):
        s = bifurcated_scheme()
        assert s.modalities["coords"] == tuple(range(66))
        assert s.modalities["semg"] == (66, 67, 68, 69)

    def test_quadrifurcated_joint_blocks(self):
        """Joint j owns columns j, 22+j, 44+j (its X, Y, Z slots)."""
        s = quadrifurcated_scheme()
        for j in range(6, 14):
            for col in (j, 22 + j, 44 + j):
                assert col in s.modalities["upper_limbs"]
        assert set(s.modalities["upper_limbs"]) & set(s.modalities["trunk"]) == set()

    def test_joint_five_in_trunk_by_default(self):
        s = quadrifurcated_scheme()
        for col in (5, 27, 49):
            assert col in s.modalities["trunk"]

    def test_partition_is_exact(self):
        s = quadrifurcated_scheme()
        seen = sorted(i for idx in s.modalities.values() for i in idx)
        assert seen == list(range(N_FEATURES))

    def test_scheme_by_name(self):
        assert scheme_by_name("singular").name == "singular"
        assert scheme_by_name("bifurcated").name == "bifurcated"
        assert scheme_by_name("quadrifurcated").name == "quadrifurcated"

    def test_custom_joint_map_moves_joint(self):
        """Reassigning joint 5 to upper_limbs must carry its three
        coordinate columns along."""
        assignments = dict(default_joint_segment_map().assignments)
        assignments[5] = "upper_limbs"
        s = quadrifurcated_scheme(JointSegmentMap(assignments))
        for col in (5, 27, 49):
            assert col in s.modalities["upper_limbs"]
            assert col not in s.modalities["trunk"]


class TestJointMapParsing:
    def test_default_round_trip(self):
        d = default_joint_segment_map()
        text = "\n".join(f"{j} {seg}" for j, seg in d.assignments.items())
        assert parse_joint_segment_map(text).assignments == d.assignments

    def test_comments_and_blanks_ignored(self):
        d = default_joint_segment_map()
        lines = ["# layout", ""]
        lines += [f"{j} {seg}" for j, seg in d.assignments.items()]
        assert parse_joint_segment_map("\n".join(lines)).assignments == d.assignments

    def test_duplicate_joint_rejected(self):
        text = "0 trunk\n0 upper_limbs\n" + "\n".join(
            f"{j} trunk" for j in range(1, 22)
        )
        with pytest.raises(ConfigError, match="line 2: joint 0 assigned twice"):
            parse_joint_segment_map(text)

    def test_missing_joint_rejected(self):
        text = "\n".join(f"{j} trunk" for j in range(21))
        with pytest.raises(ConfigError, match=r"expected exactly joints 0\.\.21"):
            parse_joint_segment_map(text)

    def test_bad_segment_rejected(self):
        text = "\n".join(f"{j} torso" for j in range(22))
        with pytest.raises(ConfigError, match=r"unknown segment name\(s\): \['torso'\]"):
            parse_joint_segment_map(text)


def _window(features, columns=None):
    """The single window spanning all frames, with the selected columns,
    as a model's input reads them from a WindowSet over the frames; it
    must equal the joined ``make_windows`` view."""
    n = len(features)
    seq = SequenceData("s1", "healthy", features, np.zeros(n, dtype=np.int8), np.zeros((n, 2)))
    windows, _ = make_windows(seq, n, n)
    X, rows = _model_input("cnn1d", WindowSet([seq.features], n, n, 70), 0.0, 1.0, 70, columns)
    block = X.take(rows, axis=0)
    assert np.array_equal(block, joined_windows_oracle([windows], columns))
    return block[0]


class TestProjection:
    def test_singular_is_identity(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((5, 70))
        assert_array_equal(_window(features, singular_scheme().modalities["all"]), features)

    def test_concatenation_is_column_permutation(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((4, 70))
        for scheme in (bifurcated_scheme(), quadrifurcated_scheme()):
            parts = [_window(features, idx) for idx in scheme.modalities.values()]
            stacked = np.concatenate(parts, axis=1)
            order = [i for idx in scheme.modalities.values() for i in idx]
            assert_array_equal(stacked, features[:, order])

    @given(st.integers(0, 2**32 - 1))
    def test_projection_width_matches_scheme(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((3, 70))
        scheme = quadrifurcated_scheme()
        for name, idx in scheme.modalities.items():
            assert _window(features, idx).shape == (3, len(idx))
