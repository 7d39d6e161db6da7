"""The determinism harness's table and tree comparison, without a CLI run."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "check_determinism.py")
spec = importlib.util.spec_from_file_location("check_determinism", SCRIPT)
harness = importlib.util.module_from_spec(spec)
spec.loader.exec_module(harness)

COMMANDS = ("synth", "evaluate", "matrix", "loocv", "analyze", "weights")


def test_rows_are_well_formed():
    """Names are unique, every config exists and every override names a
    key the config loader reads (config_for raises otherwise)."""
    names = [row.name for row in harness.ROWS]
    assert len(set(names)) == len(names)
    for row in harness.ROWS:
        assert row.command in COMMANDS
        assert row.corpus in (None, *harness.CORPORA)
        assert row.threads and len(set(row.threads)) == len(row.threads)
        if row.config:
            assert (harness.CONFIGS / f"{row.config}.ini").is_file()
        config = harness.config_for(row)
        for override in row.overrides:
            dotted, value = override.split("=")
            assert config.get(*dotted.split(".", 1)) == value


def test_unknown_override_is_refused():
    row = harness.Row("bad", "matrix", overrides=("classifier.kinds=mlp",))
    with pytest.raises(KeyError, match="classifier.kinds"):
        harness.config_for(row)


def test_cross_checks_name_rows():
    names = {row.name for row in harness.ROWS}
    for a, b in harness.SAME + harness.DIFFER:
        assert {a.split("/")[0], b.split("/")[0]} <= names


def test_every_command_and_kind_runs_at_two_thread_counts():
    covered = {
        (row.command, harness.config_for(row).get("classifier", "kind", fallback=None))
        for row in harness.ROWS if len(row.threads) >= 2
    }
    assert {command for command, _ in covered} == set(COMMANDS)
    for kind in harness.KINDS:
        for command in ("matrix", "loocv", "evaluate"):
            assert (command, kind) in covered


def test_first_difference_names_the_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for tree in (a, b):
        (tree / "sub").mkdir(parents=True)
        (tree / "x.csv").write_bytes(b"1,2\n")
        (tree / "sub" / "y.txt").write_bytes(b"same\n")
    digest = harness.digest_tree
    assert harness.first_difference(digest(a), digest(b)) is None
    (b / "sub" / "y.txt").write_bytes(b"samf\n")
    assert harness.first_difference(digest(a), digest(b)) == "sub/y.txt"
    (b / "sub" / "y.txt").write_bytes(b"same\n")
    (a / "extra.csv").write_bytes(b"")
    assert harness.first_difference(digest(a), digest(b)) == "extra.csv"
