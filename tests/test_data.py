"""Parsing, windowing, synthetic generation, manifests, and the worker pool."""

import multiprocessing
import os
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_array_equal

from oracles import joined_windows_oracle, serialize_oracle, stacked_windows_oracle

from painfusion import (
    ClassifierSpec,
    ExperimentConfig,
    SequenceData,
    generate_synthetic,
    make_windows,
    parse_emopain_file,
    spearman_rho,
    split_train_valid,
)
from painfusion.data import (
    ManifestEntry,
    SyntheticConfig,
    load_sequences,
    map_ordered,
    read_manifest,
    read_text,
    write_manifest,
    write_sequence_file,
)
from painfusion import data as data_module
from painfusion.evaluate import window_run, window_sequence
from painfusion.models import _model_input
from painfusion.modality import quadrifurcated_scheme
from painfusion.errors import ConfigError, DataError
from painfusion.presets import (
    WINDOW_LENGTH,
    WINDOW_STRIDE,
    default_synthetic_config,
)


def _window_count(n_frames, length, stride):
    """Windows at offsets 0, stride, ... that fit in n_frames frames."""
    return (n_frames - length) // stride + 1


def _row(features, extras=(0.0, 0.0), label=0.0):
    values = list(features) + list(extras) + [label]
    return ",".join(repr(float(v)) for v in values)


def _make_sequence(subject_id, n_frames=8, seed=0, group="healthy"):
    rng = np.random.default_rng(seed)
    return SequenceData(
        subject_id=subject_id,
        group=group,
        features=rng.standard_normal((n_frames, 70)),
        labels=(rng.random(n_frames) < 0.3).astype(np.int8),
        extras=np.zeros((n_frames, 2)),
    )


class TestParser:
    def test_label_column(self):
        text = _row(range(70), label=1.0) + "\n"
        seq = parse_emopain_file(text, "P1", "chronic_pain")
        assert seq.labels[0] == 1
        assert seq.features.shape == (1, 70)

    def test_row_too_short(self):
        text = ",".join(["0.0"] * 70)
        with pytest.raises(DataError, match="row 1: 70 columns, need 73"):
            parse_emopain_file(text, "P1", "healthy")

    def test_three_row_fixture(self):
        """Hand-written rows; the expected matrix was transcribed by
        hand before the parser existed and must never drift."""
        lines = [
            _row([0.5] + [0.0] * 69, extras=(7.0, 8.0), label=0.0),
            _row([0.0, -1.25] + [0.0] * 68, extras=(0.0, 0.0), label=1.0),
            _row([float(i) for i in range(70)], label=1.0),
        ]
        seq = parse_emopain_file("\n".join(lines), "P2", "healthy")
        expected = np.zeros((3, 70))
        expected[0, 0] = 0.5
        expected[1, 1] = -1.25
        expected[2] = np.arange(70.0)
        assert_array_equal(seq.features, expected)
        assert_array_equal(seq.labels, [0, 1, 1])
        assert_array_equal(seq.extras[0], [7.0, 8.0])

    def test_whitespace_delimiter(self):
        text = " ".join(["0.0"] * 72 + ["1"])
        seq = parse_emopain_file(text, "P1", "healthy")
        assert seq.labels[0] == 1

    def test_non_numeric_field_located(self):
        good = _row(range(70))
        bad = good.replace("3.0", "x3", 1)
        with pytest.raises(DataError, match="row 2, column 4: cannot parse 'x3'"):
            parse_emopain_file(good + "\n" + bad, "P1", "healthy")

    def test_non_finite_rejected(self):
        text = _row([float("inf")] + [0.0] * 69)
        with pytest.raises(DataError, match="row 1, column 1: non-finite value"):
            parse_emopain_file(text, "P1", "healthy")

    def test_label_tolerance(self):
        ok = _row(range(70), label=1.0 + 5e-10)
        assert parse_emopain_file(ok, "P1", "healthy").labels[0] == 1
        bad = _row(range(70), label=0.4)
        with pytest.raises(DataError, match=r"row 1: label 0\.4 not in \{0, 1\}"):
            parse_emopain_file(bad, "P1", "healthy")

    def test_extra_columns_ignored(self):
        text = _row(range(70)) + ",99.0,98.0"
        seq = parse_emopain_file(text, "P1", "healthy")
        assert seq.features.shape == (1, 70)

    def test_bad_group(self):
        with pytest.raises(DataError, match="unknown group 'patients'"):
            parse_emopain_file(_row(range(70)), "P1", "patients")

    _VALUES = [i * 0.37 - 5.0 for i in range(70)]
    _GOOD = _row(_VALUES, extras=(1.5, -2.0), label=1.0)
    _TAIL = _GOOD[_GOOD.index(",") :]
    _BLANK4 = ",".join(field if j != 3 else "" for j, field in enumerate(_GOOD.split(",")))
    _PARSE_CASES = {
        # case: (file text, the number of _GOOD rows it reads as, or the error)
        "blank lines": (f"\n{_GOOD}\n\n{_GOOD}\n\n", 2),
        "whitespace line": (f"{_GOOD}\n   \n{_GOOD}\n", 2),
        "whitespace only": (" \t\n  \n", "no data rows for subject 'P1'"),
        "hash": ("#5" + _TAIL, "row 1, column 1: cannot parse '#5'"),
        "underscore": ("1_0" + _TAIL, "row 1, column 1: cannot parse '1_0'"),
        "quoted": ('"5"' + _TAIL, "row 1, column 1: cannot parse '\"5\"'"),
        "nan": (f"{_GOOD}\nnan" + _TAIL, "row 2, column 1: non-finite value 'nan'"),
        "74 columns": (f"{_GOOD},7.5\n{_GOOD},x\n", 2),
        "70 columns": (",".join(["0.5"] * 70) + "\n", "row 1: 70 columns, need 73"),
        "empty field": (f"{_GOOD}\n{_BLANK4}\n", "row 2, column 4: cannot parse ''"),
        "empty field, 74 columns": (
            f"{_GOOD},0\n{_BLANK4},0\n", "row 2, column 4: cannot parse ''"
        ),
        "blank line, then empty field": (
            f"{_GOOD},0\n\n{_BLANK4},0\n", "row 3, column 4: cannot parse ''"
        ),
        "blank lines, then nan": (
            f"\n{_GOOD}\r\n\r\nnan" + _TAIL, "row 4, column 1: non-finite value 'nan'"
        ),
        "blank line, then 70 columns": (
            f"{_GOOD}\n \n" + ",".join(["0.5"] * 70), "row 3: 70 columns, need 73"
        ),
        "blank line, then bad label": (
            f"\n{_GOOD.rsplit(',', 1)[0]},0.5\n", "row 2: label 0.5 not in {0, 1}"
        ),
        "crlf": (f"{_GOOD}\r\n{_GOOD}\r\n", 2),
        "whitespace": (_GOOD.replace(",", " ") + "\n" + _GOOD.replace(",", "\t"), 2),
        "comma space": (_GOOD.replace(",", ", ") + "\n", 1),
        "trailing comma": (f"{_GOOD},\n{_GOOD},\n", 2),
        "bom": (f"\ufeff{_GOOD}\n", 1),
    }

    @pytest.mark.parametrize("case", sorted(_PARSE_CASES))
    def test_bulk_parse_matches_row_parse(self, case, tmp_path, monkeypatch):
        """A data file, read as the loader reads it, is parsed by one
        ``np.loadtxt`` call into the values written on each of its rows;
        text that it refuses or reads as non-finite fails naming the row by
        its line in the file, blank lines counted, and the column where there
        is one."""
        text, expected = self._PARSE_CASES[case]
        path = tmp_path / "p1.csv"
        path.write_bytes(text.encode("utf-8"))
        real_loadtxt, calls = np.loadtxt, []
        monkeypatch.setattr(
            data_module.np, "loadtxt", lambda *a, **k: calls.append(a) or real_loadtxt(*a, **k)
        )
        try:
            text = read_text(path, DataError, "data file", newline="")
            seq = parse_emopain_file(text, "P1", "healthy")
        except DataError as exc:
            assert str(exc) == expected
            return
        assert len(calls) == 1
        assert seq.features.tobytes() == np.array([self._VALUES] * expected).tobytes()
        assert seq.extras.tobytes() == np.array([[1.5, -2.0]] * expected).tobytes()
        assert seq.labels.tobytes() == np.ones(expected, dtype=np.int8).tobytes()

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=300),
        st.integers(0, 2**31 - 1),
    )
    @example([-0.0], 0)
    @example([5e-324], 0)
    @example([1e-05], 0)
    @example([1e16], 0)
    @example([1.7e308, -1.7e308], 0)
    @settings(max_examples=60, deadline=None)
    def test_serialize_round_trip(self, tmp_path_factory, values, seed):
        """Every finite float64, in features and extras alike, written to a
        file comes back bit for bit, and the file's text is the per-scalar
        repr rendering."""
        n_frames = len(values) // 72 + 1
        cells = np.resize(np.array(values), (n_frames, 72))
        rng = np.random.default_rng(seed)
        seq = SequenceData(
            subject_id="P9",
            group="healthy",
            features=cells[:, :70].copy(),
            labels=(rng.random(n_frames) < 0.5).astype(np.int8),
            extras=cells[:, 70:].copy(),
        )
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        write_sequence_file(seq, path)
        text = read_text(path, DataError, "data file", newline="")
        assert text == serialize_oracle(seq.features, seq.extras, seq.labels)
        back = parse_emopain_file(text, "P9", "healthy")
        for name in ("features", "labels", "extras"):
            assert getattr(back, name).tobytes() == getattr(seq, name).tobytes()


class TestSplit:
    def test_full_cohort_split_accepted(self):
        chronic = [f"C{i}" for i in range(14)]
        healthy = [f"H{i}" for i in range(9)]
        seqs = [
            _make_sequence(s, group="chronic_pain" if s.startswith("C") else "healthy")
            for s in chronic + healthy
        ]
        train = chronic[:10] + healthy[:6]
        valid = chronic[10:] + healthy[6:]
        tr, va = split_train_valid(seqs, train, valid)
        assert len(tr) == 16 and len(va) == 7

    def test_subject_in_both(self):
        seqs = [_make_sequence("A"), _make_sequence("B")]
        with pytest.raises(DataError, match=r"in both splits: \['B'\]"):
            split_train_valid(seqs, ["A", "B"], ["B"])

    def test_unassigned_subject(self):
        seqs = [_make_sequence("A"), _make_sequence("B")]
        with pytest.raises(DataError, match=r"in neither split: \['B'\]"):
            split_train_valid(seqs, ["A"], [])


class TestWindows:
    def test_offsets(self):
        seq = _make_sequence("A", n_frames=10)
        wins, labels = make_windows(seq, 4, 2)
        assert wins.shape == (4, 4, 70) and labels.shape == (4,)
        for k in range(4):
            assert_array_equal(wins[k], seq.features[2 * k : 2 * k + 4])

    def test_all_zero_labels(self):
        seq = SequenceData(
            "A", "healthy", np.zeros((12, 70)), np.zeros(12, dtype=np.int8), np.zeros((12, 2))
        )
        _, labels = make_windows(seq, 4, 2)
        assert (labels == 0).all()

    def test_half_fraction_is_positive(self):
        labels = np.array([0, 0, 1, 1], dtype=np.int8)
        seq = SequenceData("A", "healthy", np.zeros((4, 70)), labels, np.zeros((4, 2)))
        assert make_windows(seq, 4, 4)[1][0] == 1

    def test_window_longer_than_sequence(self):
        seq = _make_sequence("A", n_frames=3)
        with pytest.raises(DataError, match="window length 4 > 3 frames"):
            make_windows(seq, 4, 2)

    def test_short_sequence_names_its_subject(self):
        seq = _make_sequence("S01", n_frames=5)
        with pytest.raises(DataError, match=r"^window length 20 > 5 frames in subject 'S01'$"):
            make_windows(seq, 20, 10)

    def test_invalid_params(self):
        seq = _make_sequence("A")
        with pytest.raises(ConfigError, match="length and stride must be positive, got 0, 2"):
            make_windows(seq, 0, 2)
        with pytest.raises(ConfigError, match="length and stride must be positive, got 4, 0"):
            make_windows(seq, 4, 0)

    def test_features_are_views(self):
        """Windows must not copy frame data; 10k windows over a large
        corpus would otherwise blow up memory."""
        seq = _make_sequence("A", n_frames=20)
        wins, _ = make_windows(seq, 4, 2)
        assert np.shares_memory(wins, seq.features)

    @given(
        st.integers(1, 200),
        st.integers(1, 50),
        st.integers(1, 50),
    )
    @settings(max_examples=60)
    def test_count_formula(self, n_frames, length, stride):
        seq = SequenceData(
            "A",
            "healthy",
            np.zeros((n_frames, 70)),
            np.zeros(n_frames, dtype=np.int8),
            np.zeros((n_frames, 2)),
        )
        if length > n_frames:
            with pytest.raises(DataError, match=f"window length {length} > {n_frames} frames"):
                make_windows(seq, length, stride)
            return
        wins, labels = make_windows(seq, length, stride)
        assert len(wins) == len(labels) == _window_count(n_frames, length, stride)
        assert len(wins) >= 1

    @given(
        n_frames=st.integers(1, 120),
        length=st.integers(1, 40),
        stride=st.integers(1, 40),
        threshold=st.floats(0.01, 1.0),
        columns=st.sampled_from([None, "upper_limbs", "semg", "trunk"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_tensor(self, n_frames, length, stride, threshold, columns, seed):
        """The collected windows, stacked one by one from the run's
        WindowSet and as a model's input reads their columns, against the
        joined views of ``make_windows``, and that joined tensor against a
        per-window reference: contents, threshold labels, dropped partial window,
        count and memory layout, for contiguous and scattered column sets."""
        length = min(length, n_frames)
        rng = np.random.default_rng(seed)
        seq = SequenceData(
            "A",
            "healthy",
            rng.standard_normal((n_frames, 70)),
            (rng.random(n_frames) < 0.4).astype(np.int8),
            np.zeros((n_frames, 2)),
        )
        idx = list(range(70)) if columns is None else list(
            quadrifurcated_scheme().modalities[columns]
        )
        config = ExperimentConfig(
            scheme_name="quadrifurcated",
            weighting="statistical",
            classifier=ClassifierSpec(kind="cnn1d", seed=0),
            seed=0,
            window_length=length,
            window_stride=stride,
            positive_fraction_threshold=threshold,
        )
        run = window_run([window_sequence(seq, config)])
        windows, labels = run.windows, run.labels
        views = [make_windows(seq, length, stride, threshold)[0]]
        tensor = joined_windows_oracle(views, idx)
        blocks = stacked_windows_oracle(windows.frames, length, stride)
        assert np.array_equal(blocks, joined_windows_oracle(views))
        X, rows = _model_input("cnn1d", windows, 0.0, 1.0, 70, idx)
        assert np.array_equal(X.take(rows, axis=0), tensor)

        n = _window_count(n_frames, length, stride)
        assert len(windows) == n
        assert windows.shape == (n, length, 70)
        assert tensor.shape == (n, length, len(idx))
        assert labels.shape == (n,) and labels.dtype == np.int8
        assert tensor.flags.c_contiguous
        for k in range(n):
            rows = slice(k * stride, k * stride + length)
            assert_array_equal(tensor[k], seq.features[rows][:, idx])
            positives = int(seq.labels[rows].sum())
            assert labels[k] == (1 if positives / length >= threshold else 0)
        # The trailing partial window is dropped: one more stride would
        # run past the last frame.
        assert (n - 1) * stride + length <= n_frames < n * stride + length


class TestSynthetic:
    def test_positive_rate_at_scale(self):
        """At the shipped size (over 10k windows) the window-level
        positive rate stays within 0.01 of the configured 0.0596."""
        seqs = generate_synthetic(default_synthetic_config(7))
        labels = np.concatenate(
            [make_windows(s, WINDOW_LENGTH, WINDOW_STRIDE)[1] for s in seqs]
        )
        assert len(labels) >= 10_000
        rate = float(np.mean(labels))
        assert abs(rate - 0.0596) < 0.01

    def test_zero_snr_is_label_independent(self):
        syn = SyntheticConfig(
            n_subjects=1,
            frames_per_subject=10_000,
            positive_rate=0.1,
            modality_snr={"coords": 0.0, "semg": 0.0},
            seed=3,
            mean_positive_bout=60,
        )
        seq = generate_synthetic(syn)[0]
        labels = seq.labels.astype(float)
        worst = max(
            abs(spearman_rho(seq.features[:, j], labels).coefficient)
            for j in range(70)
        )
        assert worst < 0.05

    def test_equal_seeds_bit_identical(self):
        a = generate_synthetic(default_synthetic_config(11))
        b = generate_synthetic(default_synthetic_config(11))
        for sa, sb in zip(a, b):
            assert sa.subject_id == sb.subject_id
            assert sa.features.tobytes() == sb.features.tobytes()
            assert sa.labels.tobytes() == sb.labels.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        workers=st.integers(1, 5),
        n_subjects=st.integers(1, 7),
        expression=st.sampled_from(["joint", "complementary"]),
        seed=st.integers(0, 2**32),
    )
    def test_threads_build_the_serial_corpus(self, workers, n_subjects, expression, seed):
        """Built on threads, with the interpreter switching threads often,
        the corpus equals the serial one field for field and bit for bit,
        with read-only arrays, and every thread has ended when the call
        returns."""
        config = replace(
            default_synthetic_config(seed),
            n_subjects=n_subjects,
            frames_per_subject=240,
            mean_positive_bout=20,
            expression=expression,
        )
        serial = generate_synthetic(config)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = generate_synthetic(config, workers)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert len(threaded) == len(serial) == n_subjects
        for a, b in zip(serial, threaded):
            assert (a.subject_id, a.group) == (b.subject_id, b.group)
            for name in ("features", "labels", "extras"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x.dtype, x.shape) == (y.dtype, y.shape)
                assert x.tobytes() == y.tobytes()
                assert not y.flags.writeable

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failing_subject_raises(self, workers, monkeypatch):
        """Subjects S02 and S03 fail, S02 later than S03 on threads; the
        error of S02, first in subject order, is the one raised, after
        every thread has ended."""
        built = data_module.SequenceData

        def failing(subject_id, *args, **kwargs):
            if subject_id == "S02":
                time.sleep(0.2)
            if subject_id in ("S02", "S03"):
                raise DataError(f"subject {subject_id}")
            return built(subject_id, *args, **kwargs)

        monkeypatch.setattr(data_module, "SequenceData", failing)
        config = replace(default_synthetic_config(3), n_subjects=5, frames_per_subject=200)
        before = threading.active_count()
        with pytest.raises(DataError, match="^subject S02$"):
            generate_synthetic(config, workers)
        assert threading.active_count() == before

    def test_peak_memory_within_one_subject_of_the_corpus(self):
        """Each subject's noise is scaled and shifted in place, so the
        tracemalloc peak of a generation exceeds the arrays it returns by
        less than one subject's [n, 70] float64 array."""
        config = replace(default_synthetic_config(7), n_subjects=4, frames_per_subject=3000)
        tracemalloc.start()
        try:
            seqs = generate_synthetic(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for s in seqs for a in (s.features, s.labels, s.extras))
        assert peak - returned < 3000 * 70 * 8

    def test_labels_form_bouts(self):
        """Positive frames arrive in contiguous runs, not as salt and
        pepper: the number of 0->1 transitions must be far below the
        positive frame count."""
        seq = generate_synthetic(default_synthetic_config(5))[0]
        labels = seq.labels
        onsets = int(np.sum((labels[1:] == 1) & (labels[:-1] == 0)))
        positives = int(labels.sum())
        assert positives > 0
        assert onsets <= positives / 10

    def test_bad_configs_rejected(self):
        good = default_synthetic_config(0)
        with pytest.raises(ConfigError, match="n_subjects and frames_per_subject"):
            SyntheticConfig(0, 100, 0.1, {"coords": 1.0}, seed=0).validate()
        with pytest.raises(ConfigError, match="positive_rate must lie strictly in"):
            SyntheticConfig(2, 100, 1.5, {"coords": 1.0}, seed=0).validate()
        with pytest.raises(ConfigError, match="unknown modality 'torso'"):
            SyntheticConfig(2, 100, 0.1, {"torso": 1.0}, seed=0).validate()
        with pytest.raises(ConfigError, match="modality_snr needs at least one entry"):
            SyntheticConfig(2, 100, 0.1, {}, seed=0).validate()
        good.validate()


_UNQUOTABLE = "holds a comma, quote or line break"


class TestManifest:
    def _write_corpus(self, tmp_path, n=3):
        entries = []
        for i in range(n):
            seq = _make_sequence(f"P{i}", n_frames=6, seed=i)
            path = tmp_path / f"p{i}.csv"
            write_sequence_file(seq, path)
            entries.append(
                ManifestEntry(
                    subject_id=f"P{i}",
                    group="healthy",
                    split="train" if i else "valid",
                    path=f"p{i}.csv",
                )
            )
        manifest = tmp_path / "manifest.csv"
        write_manifest(entries, manifest)
        return manifest, entries

    def test_round_trip(self, tmp_path):
        manifest, entries = self._write_corpus(tmp_path)
        assert read_manifest(manifest) == entries

    def test_load_sequences_resolves_relative_paths(self, tmp_path):
        manifest, _ = self._write_corpus(tmp_path)
        pairs = load_sequences(manifest)
        assert [e.subject_id for e, _ in pairs] == ["P0", "P1", "P2"]

    def test_missing_data_file(self, tmp_path):
        manifest, _ = self._write_corpus(tmp_path)
        (tmp_path / "p1.csv").unlink()
        message = "cannot read data file .*p1.csv: No such file or directory"
        with pytest.raises(DataError, match=message):
            load_sequences(manifest)

    def test_worker_processes_return_read_only_sequences(self, tmp_path):
        manifest, _ = self._write_corpus(tmp_path)
        serial = load_sequences(manifest)
        pairs = load_sequences(manifest, workers=2)
        assert [e for e, _ in pairs] == [e for e, _ in serial]
        for (_, seq), (_, expected) in zip(pairs, serial):
            for name in ("features", "labels", "extras"):
                assert not getattr(seq, name).flags.writeable
                assert getattr(seq, name).tobytes() == getattr(expected, name).tobytes()

    def test_bad_header(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("subject,group,split,path\nP0,healthy,train,x.csv\n")
        with pytest.raises(DataError, match="header must be subject_id,group,split,path"):
            read_manifest(manifest)

    def test_bad_split_value(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "subject_id,group,split,path\nP0,healthy,test,x.csv\n"
        )
        with pytest.raises(DataError, match="line 2: bad split 'test'"):
            read_manifest(manifest)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("P0,healthy,train,x.csv,extra", "line 3: need exactly 4 fields, got 5"),
            ("P0,healthy,train", "line 3: need exactly 4 fields, got 3"),
            (",healthy,train,x.csv", "line 3: empty subject_id"),
            ("  ,healthy,train,x.csv", "line 3: empty subject_id"),
            ('"S,01",healthy,train,x.csv', f"line 3: subject_id 'S,01' {_UNQUOTABLE}"),
            ('"S""01",healthy,train,x.csv', f"line 3: subject_id 'S\"01' {_UNQUOTABLE}"),
            ('"S\n01",healthy,train,x.csv', rf"line 4: subject_id 'S\\n01' {_UNQUOTABLE}"),
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        """A row needs exactly the header's fields and a subject_id that
        artifacts can write unquoted; a blank line is skipped but counted,
        so the line named is the file's, where a record ends."""
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"subject_id,group,split,path\n\n{row}\n")
        with pytest.raises(DataError, match=f"^manifest {re.escape(str(manifest))} {message}$"):
            read_manifest(manifest)

    def test_header_fields_may_be_padded(self, tmp_path):
        """Header fields are compared stripped, and the rows read by them."""
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("subject_id, group, split, path\nP0,healthy,train,x.csv\n")
        assert read_manifest(manifest) == [ManifestEntry("P0", "healthy", "train", "x.csv")]

    def test_one_subject_may_be_listed_under_two_groups(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "subject_id,group,split,path\nP0,healthy,train,a.csv\nP0,chronic_pain,valid,b.csv\n"
        )
        assert [e.group for e in read_manifest(manifest)] == ["healthy", "chronic_pain"]


class TestMapOrdered:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_closures_and_lambdas_keep_input_order(self, workers):
        """Workers inherit the callable when they are forked, so a closure
        or a lambda serves as well as a module-level function."""
        offset = 10

        def shifted(x):
            return x + offset

        items = [3, 1, 4, 1, 5]
        assert map_ordered(shifted, items, workers) == [13, 11, 14, 11, 15]
        assert map_ordered(lambda x: x * x, items, workers) == [9, 1, 16, 1, 25]
        pids = set(map_ordered(lambda _: os.getpid(), items, workers))
        assert (os.getpid() in pids) == (workers == 1)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_item_raises(self, workers):
        """Items 1 and 2 fail, item 1 later than item 2 at two workers;
        the error of item 1, first in input order, is the one raised."""

        def check(x):
            if x == 1:
                time.sleep(0.2)
            if x in (1, 2):
                raise DataError(f"item {x}")
            return x

        with pytest.raises(DataError, match="^item 1$"):
            map_ordered(check, range(4), workers)
