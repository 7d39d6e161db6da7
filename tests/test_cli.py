"""End-to-end command-line behavior."""

import concurrent.futures
import dataclasses
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import painfusion
from painfusion.cli import main
from painfusion.data import generate_synthetic, read_manifest
from painfusion.config import KEYS, load_run_config
from painfusion.modality import JointSegmentMap

SMALL_INI = """\
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


AVERAGE = ("weighting = statistical", "weighting = average")
NO_POSITIVES = "positive_fraction_threshold = 0"


@pytest.fixture
def ini(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_INI)
    return str(path)


def _read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestSynth:
    def test_writes_corpus_and_manifest(self, ini, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["synth", "--config", ini, "--out", str(out)]) == 0
        entries = read_manifest(out / "manifest.csv")
        assert [e.subject_id for e in entries] == [f"S0{i}" for i in range(1, 7)]
        assert [e.split for e in entries] == ["train"] * 4 + ["valid"] * 2
        assert "wrote 6 sequences" in capsys.readouterr().out

    def test_files_round_trip_exactly(self, ini, tmp_path):
        out = tmp_path / "corpus"
        main(["synth", "--config", ini, "--out", str(out)])
        run = load_run_config(ini, str(out), None, 1)
        generated = generate_synthetic(run.synthetic)
        from painfusion.data import load_sequences

        loaded = load_sequences(out / "manifest.csv")
        for seq, (_, parsed) in zip(generated, loaded):
            assert_array_equal(parsed.features, seq.features)
            assert_array_equal(parsed.labels, seq.labels)

    @staticmethod
    def _synth_then_evaluate(ini, out, threads):
        """Exit codes of synth into out/corpus and of evaluate --manifest
        on it into out/evaluate, both at the given thread count."""
        flags = ["--config", ini, "--threads", str(threads)]
        corpus = out / "corpus"
        codes = [main(["synth", *flags, "--out", str(corpus)])]
        manifest = ["--manifest", str(corpus / "manifest.csv")]
        codes.append(main(["evaluate", *flags, *manifest, "--out", str(out / "evaluate")]))
        return codes

    def test_thread_count_does_not_change_bytes(self, ini, tmp_path):
        """Corpus files written and parsed on worker processes give the
        same corpus and outputs, and no worker outlives the command."""
        one, three = tmp_path / "one", tmp_path / "three"
        assert self._synth_then_evaluate(ini, one, 1) == [0, 0]
        assert self._synth_then_evaluate(ini, three, 3) == [0, 0]
        assert multiprocessing.active_children() == []
        for name in ("corpus", "evaluate"):
            assert _read_all(one / name) == _read_all(three / name)

    def test_one_thread_opens_no_process_pool(self, ini, tmp_path, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was opened")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert self._synth_then_evaluate(ini, tmp_path / "one", 1) == [0, 0]
        # At two, synth fails at the pool before writing the manifest, so
        # evaluate finds none.
        assert self._synth_then_evaluate(ini, tmp_path / "two", 2) == [5, 3]
        assert "a process pool was opened" in capsys.readouterr().err


class TestWeights:
    def test_singular_weight_is_one(self, ini, tmp_path, capsys):
        out = tmp_path / "w"
        code = main(
            ["weights", "--config", ini, "--out", str(out), "--seed", "3"]
        )
        assert code == 0
        lines = (out / "weights.csv").read_text().splitlines()
        assert lines[1] == "modality,weight,raw_relevance"
        names = [l.split(",")[0] for l in lines[2:]]
        assert names == ["coords", "semg"]
        total = sum(float(l.split(",")[1]) for l in lines[2:])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_average_quadrifurcated_is_uniform(self, tmp_path):
        ini = tmp_path / "avg.ini"
        ini.write_text(
            SMALL_INI.replace("scheme = bifurcated", "scheme = quadrifurcated").replace(
                "weighting = statistical", "weighting = average"
            )
        )
        out = tmp_path / "w"
        assert main(["weights", "--config", str(ini), "--out", str(out)]) == 0
        lines = (out / "weights.csv").read_text().splitlines()
        assert "provenance=average" in lines[0]
        weights = [float(l.split(",")[1]) for l in lines[2:]]
        assert weights == [0.25, 0.25, 0.25, 0.25]

    @pytest.mark.parametrize("reduction", ["mean", "max"])
    @pytest.mark.parametrize("kind", ["logistic", "cnn1d"])
    def test_weights_command_equals_evaluate(self, tmp_path, kind, reduction):
        """The weights command and evaluate weight the same train split
        through one relevance path: for configs/quick.ini under either
        kind and reduction, they write the same weights.csv bytes."""
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.ini")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        text = text.replace("kind = logistic", f"kind = {kind}")
        ini = tmp_path / "run.ini"
        ini.write_text(text.replace("[run]\n", f"[run]\nreduction = {reduction}\n"))
        loaded = load_run_config(str(ini), "unused", None, 1).experiment
        assert (loaded.classifier.kind, loaded.reduction) == (kind, reduction)
        for command in ("weights", "evaluate"):
            assert main([command, "--config", str(ini), "--out", str(tmp_path / command)]) == 0
        written = [(tmp_path / c / "weights.csv").read_bytes() for c in ("weights", "evaluate")]
        assert written[0] == written[1]


class TestFailureModes:
    def test_missing_manifest_exits_3(self, ini, tmp_path, capsys):
        missing = str(tmp_path / "nowhere" / "manifest.csv")
        code = main(
            ["evaluate", "--config", ini, "--out", str(tmp_path / "o"), "--manifest", missing]
        )
        assert code == 3
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error[data]: ")
        assert "manifest.csv" in err_lines[0]

    @pytest.mark.parametrize("command", ["analyze", "weights"])
    @pytest.mark.parametrize("source", ["one-subject", "all-valid-manifest"])
    def test_empty_train_split_exits_3(self, ini, tmp_path, capsys, command, source):
        """One synthetic subject goes to validation, and a manifest can mark
        every row valid; either way the train split is named, exit 3."""
        argv = [command, "--out", str(tmp_path / "o")]
        if source == "one-subject":
            one = tmp_path / "one.ini"
            one.write_text(SMALL_INI.replace("n_subjects = 6", "n_subjects = 1"))
            argv += ["--config", str(one)]
        else:
            corpus = tmp_path / "corpus"
            assert main(["synth", "--config", ini, "--out", str(corpus)]) == 0
            manifest = corpus / "manifest.csv"
            manifest.write_text(manifest.read_text().replace(",train,", ",valid,"))
            argv += ["--config", ini, "--manifest", str(manifest)]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error[data]: train split is empty: no sequence is assigned to train"
        ]

    @pytest.mark.parametrize("command", ["analyze", "weights", "synth", "evaluate", "matrix", "loocv"])
    @pytest.mark.parametrize("under", ["", "sub/dir"])
    def test_unusable_out_exits_2_before_loading(
        self, ini, tmp_path, capsys, monkeypatch, command, under
    ):
        """An --out that names an existing file, or a path under one, fails
        every command with one config line naming the path, before the
        dataset is generated or read, and creates nothing."""

        def unreachable(*args):
            raise AssertionError("the dataset was loaded")

        for name in ("generate_synthetic", "load_sequences"):
            monkeypatch.setattr(painfusion.cli, name, unreachable)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = os.path.join(str(blocker), under)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([command, "--config", ini, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == f"error[config]: --out {out}: {blocker} exists and is not a directory"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "row, message",
        [
            ("S01,healthy,train,S01.csv,extra", "need exactly 4 fields, got 5"),
            (" ,healthy,train,S01.csv", "empty subject_id"),
        ],
    )
    def test_bad_manifest_row_exits_3(self, ini, tmp_path, capsys, row, message):
        """A manifest row with an extra field, or with an empty subject_id,
        fails a loocv with the data exit code, naming its line."""
        corpus = tmp_path / "corpus"
        assert main(["synth", "--config", ini, "--out", str(corpus)]) == 0
        manifest = corpus / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[2] = row
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = ["loocv", "--config", ini, "--manifest", str(manifest), "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error[data]: manifest {manifest} line 3: {message}"
        ]

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nseed = 1\nlearning = 0.5\n")
        code = main(["evaluate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ")
        assert "'learning'" in err

    def test_seed_is_required(self, tmp_path, capsys):
        code = main(["weights", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed is required" in capsys.readouterr().err

    def test_malformed_file_seed_exits_2_with_seed_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nseed = x\n")
        code = main(["weights", "--config", str(bad), "--out", str(tmp_path / "o"), "--seed", "3"])
        assert code == 2
        assert "error[config]: [run] seed: cannot parse 'x'" in capsys.readouterr().err

    def test_bad_threads(self, ini, tmp_path, capsys):
        code = main(
            ["evaluate", "--config", ini, "--out", str(tmp_path / "o"), "--threads", "0"]
        )
        assert code == 2

    @staticmethod
    def _exits_2_before_loading(tmp_path, capsys, edits, command, message):
        text = SMALL_INI
        for old, new in edits:
            text = text.replace(old, new)
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        out = tmp_path / "o"
        code = main([command, "--config", str(bad), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ")
        assert message in err
        assert not out.exists()

    def test_window_shorter_than_kernel_exits_2(self, tmp_path, capsys):
        edits = [
            ("kind = logistic", "kind = cnn1d\nkernel_width = 5"),
            ("length = 20", "length = 4"),
        ]
        self._exits_2_before_loading(
            tmp_path, capsys, edits, "matrix", "window length 4 shorter than kernel width 5"
        )

    @pytest.mark.parametrize(
        "edits, command, message",
        [
            ([AVERAGE, ("length = 20", "length = 0")], "weights", "length and stride"),
            ([("stride = 10", "stride = 0")], "evaluate", "length and stride"),
            ([AVERAGE, ("stride = 10", "stride = 10\n" + NO_POSITIVES)], "weights", "(0, 1]"),
            ([("seed = 3", "seed = 3\ndecision_threshold = 1.5")], "weights", "(0, 1)"),
            ([("seed = 3", "seed = 3\ndecision_threshold = 1.5")], "evaluate", "(0, 1)"),
        ],
        ids=["length-weights", "stride-evaluate", "fraction-weights", "decision-weights",
             "decision-evaluate"],
    )
    def test_invalid_window_rule_or_threshold_exits_2(
        self, tmp_path, capsys, edits, command, message
    ):
        self._exits_2_before_loading(tmp_path, capsys, edits, command, message)

    @pytest.mark.parametrize(
        "case, code, category",
        [
            ("manifest-short-row", 3, "data"),
            ("sequence-not-utf8", 3, "data"),
            ("manifest-not-utf8", 3, "data"),
            ("config-not-utf8", 2, "config"),
            ("joint-map-not-utf8", 2, "config"),
            ("manifest-is-directory", 3, "data"),
        ],
    )
    def test_unreadable_input_exits_with_its_category(
        self, ini, tmp_path, capsys, case, code, category
    ):
        header = b"subject_id,group,split,path\n"
        config, manifest, culprit = ini, None, None
        if case.startswith("manifest") or case.startswith("sequence"):
            manifest = culprit = tmp_path / "manifest.csv"
            manifest.write_bytes(header + b"S01,healthy,train,S01.csv\n")
        if case == "manifest-short-row":
            manifest.write_bytes(header + b"S01,healthy\n")
        elif case == "sequence-not-utf8":
            culprit = tmp_path / "S01.csv"
            culprit.write_bytes(b"\xff\xfe0,1\n")
        elif case == "manifest-not-utf8":
            manifest.write_bytes(header + b"S01,healthy,train,S\xff.csv\n")
        elif case == "config-not-utf8":
            culprit = tmp_path / "bad.ini"
            culprit.write_bytes(b"[run]\nseed = 1 # \xff\n")
            config = str(culprit)
        elif case == "joint-map-not-utf8":
            culprit = tmp_path / "map.txt"
            culprit.write_bytes(b"0 trunk \xff\n")
            config = tmp_path / "map.ini"
            config.write_text(SMALL_INI + "\n[paths]\njoint_map = map.txt\n")
        elif case == "manifest-is-directory":
            manifest = culprit = tmp_path / "corpus"
            manifest.mkdir()
        argv = ["evaluate", "--config", str(config), "--out", str(tmp_path / "o")]
        if manifest is not None:
            argv += ["--manifest", str(manifest)]
        assert main(argv) == code
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"error[{category}]: ")
        assert str(culprit) in err_lines[0]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", ["bad-token", "not-utf8", "missing"])
    def test_bad_data_files_name_the_first(self, ini, tmp_path, capsys, case, threads):
        """With S02.csv and S04.csv both bad, evaluate --manifest exits 3
        with one stderr line naming S02.csv, at any thread count."""
        corpus = tmp_path / "corpus"
        assert main(["synth", "--config", ini, "--out", str(corpus)]) == 0
        for name in ("S02.csv", "S04.csv"):
            path = corpus / name
            if case == "bad-token":
                lines = path.read_text().splitlines(keepends=True)
                fields = lines[1].split(",")
                fields[3] = "x3"
                lines[1] = ",".join(fields)
                path.write_text("".join(lines))
            elif case == "not-utf8":
                path.write_bytes(b"\xff\xfe0,1\n")
            else:
                path.unlink()
        capsys.readouterr()
        argv = ["evaluate", "--config", ini, "--out", str(tmp_path / "o"),
                "--threads", str(threads), "--manifest", str(corpus / "manifest.csv")]
        assert main(argv) == 3
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error[data]: ")
        assert str(corpus / "S02.csv") in err_lines[0]
        assert "S04.csv" not in err_lines[0]
        if case == "bad-token":
            assert err_lines[0] == (
                f"error[data]: data file {corpus / 'S02.csv'}: row 2, column 4: cannot parse 'x3'"
            )

    @staticmethod
    def _huge_value_corpus(ini, tmp_path, subject, value="1e300"):
        """A synthetic corpus with ``value`` in column 3 of one frame of
        ``subject``'s file; returns its manifest path."""
        corpus = tmp_path / "corpus"
        assert main(["synth", "--config", ini, "--out", str(corpus)]) == 0
        path = corpus / f"{subject}.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[5].split(",")
        fields[3] = value
        lines[5] = ",".join(fields)
        path.write_text("".join(lines))
        return corpus / "manifest.csv"

    @staticmethod
    def _child(argv, out):
        """Run the CLI in a child process, since pytest captures warnings."""
        src = os.path.dirname(os.path.dirname(painfusion.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-m", "painfusion.cli", *argv, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )

    @classmethod
    def _child_error(cls, argv, out):
        """Check that the CLI exits 3 with no NumPy warning and return its
        one stderr line."""
        proc = cls._child(argv, out)
        assert proc.returncode == 3
        assert "RuntimeWarning" not in proc.stderr
        err_lines = proc.stderr.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error[data]: ")
        return err_lines[0]

    def test_huge_feature_value_names_its_column(self, ini, tmp_path):
        """A finite feature value too large to square (1e300 in column 3 of
        one train frame) exits 3 with one stderr line naming the column,
        and no NumPy overflow warning, at one thread and at two."""
        manifest = self._huge_value_corpus(ini, tmp_path, "S01")
        assert ",train,S01.csv\n" in manifest.read_text()
        for threads in (1, 2):
            argv = ["evaluate", "--config", ini, "--threads", str(threads),
                    "--manifest", str(manifest)]
            line = self._child_error(argv, tmp_path / f"o{threads}")
            assert "feature column 3: frame std overflows" in line

    def test_analyze_names_a_huge_column(self, ini, tmp_path):
        """The same train frame makes analyze's normality moments overflow:
        exit 3, one line naming the column, no warning, no recommendation."""
        manifest = self._huge_value_corpus(ini, tmp_path, "S01")
        for threads in (1, 2):
            out = tmp_path / f"o{threads}"
            argv = ["analyze", "--config", ini, "--threads", str(threads),
                    "--manifest", str(manifest)]
            assert self._child_error(argv, out) == (
                "error[data]: feature column 3: normality moments overflow "
                "(values too large in magnitude)"
            )
            assert not (out / "recommendation.txt").exists()

    def test_analyze_marks_a_tiny_column_constant(self, ini, tmp_path):
        """Column 3 scaled by 1e-155 in every train file has a subnormal
        variance, too small for skewness and kurtosis: analyze exits 0 with
        no warning and marks the column constant."""
        corpus = tmp_path / "corpus"
        assert main(["synth", "--config", ini, "--out", str(corpus)]) == 0
        for entry in read_manifest(corpus / "manifest.csv"):
            if entry.split == "train":
                path = corpus / entry.path
                rows = [line.split(",") for line in path.read_text().splitlines()]
                for fields in rows:
                    fields[3] = repr(float(fields[3]) * 1e-155)
                path.write_text("".join(",".join(fields) + "\n" for fields in rows))
        out = tmp_path / "o"
        argv = ["analyze", "--config", ini, "--manifest", str(corpus / "manifest.csv")]
        proc = self._child(argv, out)
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = (out / "normality_per_feature.csv").read_text().splitlines()
        assert rows[4].startswith("3,") and rows[4].endswith(",1")
        assert [row[-2:] for row in rows[1:]].count(",1") == 1

    def test_huge_validation_value_names_its_column(self, ini, tmp_path):
        """1e300 in a frame of the validation subject S05 would saturate
        the probabilities of its windows: evaluate and matrix exit 3 naming
        the column. In loocv every other fold trains on S05, so the first
        fold in fold order, S01, is the one named."""
        manifest = self._huge_value_corpus(ini, tmp_path, "S05")
        assert ",valid,S05.csv\n" in manifest.read_text()
        validation = (
            "validation: feature column 3: standardized window time mean of magnitude "
            "5.07e+298 exceeds 1e+06 (values too large in magnitude)"
        )
        expected = {
            "evaluate": validation,
            "matrix": validation,
            "loocv": "fold S01: training: feature column 3: frame std overflows "
            "(values too large in magnitude)",
        }
        for command, message in expected.items():
            for threads in (1, 2):
                argv = [command, "--config", ini, "--threads", str(threads),
                        "--manifest", str(manifest)]
                line = self._child_error(argv, tmp_path / f"{command}{threads}")
                assert line == "error[data]: " + message

    def test_squarable_validation_value_names_its_column(self, ini, tmp_path):
        """1e150 in a frame of S05 squares to a finite value, yet it lies
        about 5e148 train stds from the train mean of column 3: evaluate
        and matrix exit 3 naming the column. In loocv the folds that train
        on S05 take its frame into a finite std and train, so S05's own
        fold is the one named."""
        manifest = self._huge_value_corpus(ini, tmp_path, "S05", "1e150")
        assert ",valid,S05.csv\n" in manifest.read_text()
        expected = {
            "evaluate": "validation: feature column 3: standardized window time mean of "
            "magnitude 5.07e+148 exceeds 1e+06 (values too large in magnitude)",
            "loocv": "fold S05: validation: feature column 3: standardized window time mean "
            "of magnitude 5.11e+148 exceeds 1e+06 (values too large in magnitude)",
        }
        expected["matrix"] = expected["evaluate"]
        for command, message in expected.items():
            for threads in (1, 2):
                argv = [command, "--config", ini, "--threads", str(threads),
                        "--manifest", str(manifest)]
                line = self._child_error(argv, tmp_path / f"{command}{threads}")
                assert line == "error[data]: " + message

    def test_numeric_failure_prints_one_line(self, tmp_path):
        """A diverging fit exits 4 with one stderr line and no NumPy
        warning, also when cnn1d diverges in a worker process and when a
        loocv fold fails on the fold pool, named; the line is the same at
        one thread and at three. Runs in a child process, since pytest
        captures warnings."""
        diverging = SMALL_INI.replace("n_subjects = 6", "n_subjects = 4").replace(
            "learning_rate = 0.1", "learning_rate = 1e200"
        )
        src = os.path.dirname(os.path.dirname(painfusion.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs = (
            ("evaluate", "logistic", ""),
            ("evaluate", "cnn1d", ""),
            ("loocv", "logistic", "fold S01: "),
            ("matrix", "mlp", ""),
            ("loocv", "cnn1d", "fold S01: "),
        )
        for command, kind, prefix in runs:
            bad = tmp_path / f"{kind}.ini"
            bad.write_text(diverging.replace("kind = logistic", f"kind = {kind}"))
            lines = []
            for threads in (1, 3):
                proc = subprocess.run(
                    [sys.executable, "-m", "painfusion.cli", command, "--config", str(bad),
                     "--threads", str(threads), "--out", str(tmp_path / command / kind)],
                    capture_output=True, text=True, env=env, timeout=120,
                )
                assert proc.returncode == 4
                err_lines = proc.stderr.splitlines()
                assert len(err_lines) == 1
                pattern = rf"error\[numeric\]: {prefix}training: (all|coords|semg): epoch \d+: "
                assert re.match(pattern, err_lines[0])
                lines += err_lines
            assert lines[0] == lines[1], (command, kind)


class TestEvaluate:
    def test_artifacts_written(self, ini, tmp_path, capsys):
        out = tmp_path / "run1"
        assert main(["evaluate", "--config", ini, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "metrics.csv",
            "confusion.csv",
            "weights.csv",
            "predictions.csv",
            "report.txt",
        }
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header.startswith("name,scheme,weighting,classifier,acc")
        assert "bifurcated_statistical" in capsys.readouterr().out

    def test_scheme_override_flag(self, ini, tmp_path):
        out = tmp_path / "run1"
        main(["evaluate", "--config", ini, "--out", str(out), "--scheme", "singular"])
        row = (out / "metrics.csv").read_text().splitlines()[1]
        assert row.split(",")[1] == "singular"

    def test_rerun_is_byte_identical(self, ini, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["evaluate", "--config", ini, "--out", str(out1)])
        main(["evaluate", "--config", ini, "--out", str(out2)])
        assert _read_all(out1) == _read_all(out2)

    def test_thread_count_does_not_change_bytes(self, ini, tmp_path):
        out1, out4 = tmp_path / "a", tmp_path / "b"
        main(["evaluate", "--config", ini, "--out", str(out1), "--threads", "1"])
        main(["evaluate", "--config", ini, "--out", str(out4), "--threads", "4"])
        assert _read_all(out1) == _read_all(out4)

    @pytest.mark.parametrize("kind", ["logistic", "cnn1d"])
    @pytest.mark.parametrize("command", ["evaluate", "weights", "matrix", "loocv"])
    def test_short_sequence_file_names_its_subject(self, tmp_path, capsys, command, kind):
        """A corpus file with fewer frames than one window exits 3 with
        one stderr line that names the subject it holds, whatever the
        command and classifier kind: the run is windowed once, up front,
        so no loocv fold repeats or misplaces the error."""
        ini = tmp_path / "run.ini"
        ini.write_text(SMALL_INI.replace("kind = logistic", f"kind = {kind}"))
        assert f"kind = {kind}\n" in ini.read_text()
        corpus = tmp_path / "corpus"
        main(["synth", "--config", str(ini), "--out", str(corpus)])
        short = corpus / "S01.csv"
        short.write_text("".join(short.read_text().splitlines(keepends=True)[:5]))
        capsys.readouterr()
        argv = [command, "--config", str(ini), "--out", str(tmp_path / "o")]
        assert main(argv + ["--manifest", str(corpus / "manifest.csv")]) == 3
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines == [
            "error[data]: windowing: window length 20 > 5 frames in subject 'S01'"
        ]

    def test_manifest_run_matches_in_memory_run(self, ini, tmp_path):
        """Serialize, parse, train: the manifest path must reproduce the
        in-memory synthetic run byte for byte."""
        corpus = tmp_path / "corpus"
        main(["synth", "--config", ini, "--out", str(corpus)])
        direct, via_files = tmp_path / "direct", tmp_path / "viafiles"
        main(["evaluate", "--config", ini, "--out", str(direct)])
        main(
            [
                "evaluate",
                "--config",
                ini,
                "--out",
                str(via_files),
                "--manifest",
                str(corpus / "manifest.csv"),
            ]
        )
        assert _read_all(direct) == _read_all(via_files)


class TestMatrix:
    def test_all_arms_reported(self, ini, tmp_path):
        out = tmp_path / "m"
        assert main(["matrix", "--config", ini, "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        names = [r.split(",")[0] for r in rows[1:]]
        assert names == [
            "singular",
            "bifurcated_statistical",
            "quadrifurcated_statistical",
            "quadrifurcated_average",
        ]
        for name in names:
            assert (out / f"weights_{name}.csv").exists()
            assert (out / f"predictions_{name}.csv").exists()

    @pytest.mark.parametrize("command", ["matrix", "loocv"])
    def test_cnn1d_thread_count_does_not_change_bytes(self, tmp_path, command):
        path = tmp_path / "cnn1d.ini"
        path.write_text(SMALL_INI.replace("kind = logistic", "kind = cnn1d"))
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main([command, "--config", str(path), "--out", str(out1), "--threads", "1"]) == 0
        assert main([command, "--config", str(path), "--out", str(out2), "--threads", "2"]) == 0
        assert "cnn1d" in (out1 / "metrics.csv").read_text()
        assert _read_all(out1) == _read_all(out2)


class TestLoocv:
    def test_per_fold_and_pooled_rows(self, ini, tmp_path):
        out = tmp_path / "cv"
        assert main(["loocv", "--config", ini, "--out", str(out)]) == 0
        rows = (out / "confusion.csv").read_text().splitlines()
        names = [r.split(",")[0] for r in rows[1:]]
        assert names == [f"S0{i}" for i in range(1, 7)] + ["pooled"]
        counts = [tuple(int(v) for v in r.split(",")[1:5]) for r in rows[1:]]
        pooled = tuple(sum(c[i] for c in counts[:-1]) for i in range(4))
        assert counts[-1] == pooled

    def test_rerun_is_byte_identical(self, ini, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["loocv", "--config", ini, "--out", str(out1), "--threads", "2"])
        main(["loocv", "--config", ini, "--out", str(out2), "--threads", "1"])
        assert _read_all(out1) == _read_all(out2)


class TestAnalyze:
    def test_writes_diagnostics(self, ini, tmp_path, capsys):
        out = tmp_path / "diag"
        assert main(["analyze", "--config", ini, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "normality_per_feature.csv",
            "normality_pooled.txt",
            "qq_pooled.csv",
            "recommendation.txt",
        }
        recommendation = (out / "recommendation.txt").read_text()
        assert "normality" in recommendation
        assert recommendation.strip() == capsys.readouterr().out.strip()
        per_feature = (out / "normality_per_feature.csv").read_text().splitlines()
        assert len(per_feature) == 71


class TestShippedConfigs:
    def test_default_ini_equals_no_config(self, tmp_path):
        """configs/default.ini spells out the shipped defaults: loading it
        gives the same RunConfig as no file with its seed on the flag."""
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "default.ini")
        out = str(tmp_path / "o")
        assert load_run_config(path, out, None, 1) == load_run_config(None, out, 7, 1)


JOINT_MAP = JointSegmentMap({j: ("upper_limbs", "lower_limbs", "trunk")[j % 3] for j in range(22)})

# For each config key, a non-default value and the RunConfig attributes it
# must set (a callable takes the config file's directory). The attributes
# are written out here, not read from the table, so that a key wired to the
# wrong field fails.
KEY_CASES = {
    ("run", "seed"): (
        "8", {"experiment.seed": 8, "experiment.classifier.seed": 8, "synthetic.seed": 8}
    ),
    ("run", "scheme"): ("bifurcated", {"experiment.scheme_name": "bifurcated"}),
    ("run", "weighting"): ("average", {"experiment.weighting": "average"}),
    ("run", "vote_mode"): ("hard", {"experiment.vote_mode": "hard"}),
    ("run", "decision_threshold"): ("0.4", {"experiment.decision_threshold": 0.4}),
    ("run", "reduction"): ("max", {"experiment.reduction": "max"}),
    ("run", "granularity"): ("sequence", {"granularity": "sequence"}),
    ("run", "manifest"): ("corpus.csv", {"manifest": lambda d: str(d / "corpus.csv")}),
    ("windows", "length"): ("40", {"experiment.window_length": 40}),
    ("windows", "stride"): ("10", {"experiment.window_stride": 10}),
    ("windows", "positive_fraction_threshold"): (
        "0.25", {"experiment.positive_fraction_threshold": 0.25}
    ),
    ("classifier", "kind"): ("mlp", {"experiment.classifier.kind": "mlp"}),
    ("classifier", "hidden_units"): ("4", {"experiment.classifier.hidden_units": 4}),
    ("classifier", "conv_channels"): ("3", {"experiment.classifier.conv_channels": 3}),
    ("classifier", "kernel_width"): ("3", {"experiment.classifier.kernel_width": 3}),
    ("classifier", "learning_rate"): ("0.1", {"experiment.classifier.learning_rate": 0.1}),
    ("classifier", "epochs"): ("5", {"experiment.classifier.epochs": 5}),
    ("classifier", "batch_size"): ("16", {"experiment.classifier.batch_size": 16}),
    ("classifier", "momentum"): ("0.5", {"experiment.classifier.momentum": 0.5}),
    ("classifier", "l2"): ("0.001", {"experiment.classifier.l2": 0.001}),
    ("classifier", "positive_class_weight"): (
        "2.5", {"experiment.classifier.positive_class_weight": 2.5}
    ),
    ("synthetic", "n_subjects"): ("6", {"synthetic.n_subjects": 6}),
    ("synthetic", "frames_per_subject"): ("500", {"synthetic.frames_per_subject": 500}),
    ("synthetic", "positive_rate"): ("0.1", {"synthetic.positive_rate": 0.1}),
    ("synthetic", "mean_positive_bout"): ("30", {"synthetic.mean_positive_bout": 30}),
    ("synthetic", "expression"): ("joint", {"synthetic.expression": "joint"}),
    ("synthetic", "noise_correlation"): ("0.1", {"synthetic.noise_correlation": 0.1}),
    ("synthetic", "snr.semg"): ("3.0", {"synthetic.modality_snr": {"semg": 3.0}}),
    ("paths", "joint_map"): ("map.txt", {"experiment.joint_map": JOINT_MAP}),
}


def _settings(config) -> dict:
    """A RunConfig as {dotted attribute: value}, nested configs flattened."""
    flat = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.name in ("experiment", "classifier", "synthetic"):
            flat.update({f"{field.name}.{k}": v for k, v in _settings(value).items()})
        else:
            flat[field.name] = value
    return flat


class TestConfigKeys:
    def test_cases_cover_every_key(self):
        assert set(KEY_CASES) - {("synthetic", "snr.semg")} == set(KEYS)

    @pytest.mark.parametrize(
        "section, key", sorted(KEY_CASES), ids=[f"{s}.{k}" for s, k in sorted(KEY_CASES)]
    )
    def test_key_sets_only_its_field(self, tmp_path, section, key):
        raw, expected = KEY_CASES[section, key]
        (tmp_path / "map.txt").write_text(
            "".join(f"{j} {segment}\n" for j, segment in JOINT_MAP.assignments.items())
        )
        sections = {"run": {"seed": "7"}}
        sections.setdefault(section, {})[key] = raw
        path = tmp_path / "one.ini"
        path.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()
        ))
        out = str(tmp_path / "o")
        got = _settings(load_run_config(str(path), out, None, 1))
        base = _settings(load_run_config(None, out, 7, 1))
        changed = {name: value for name, value in got.items() if value != base[name]}
        assert changed == {
            name: value(tmp_path) if callable(value) else value
            for name, value in expected.items()
        }
