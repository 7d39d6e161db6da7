#!/usr/bin/env python3
"""Check that every command writes the same bytes at every --threads count.

Each row of ROWS runs one command, under -W error::RuntimeWarning, at each
of its thread counts; the runs' output trees must be byte-identical. SAME
and DIFFER compare rows, or one file of a row ("row/file"). The digests go
to <out>/digests.json (row -> file -> sha256): cmp that file from two runs,
PYTHONPATH at each tree's src, to compare two source trees.

    PYTHONPATH=src python scripts/check_determinism.py --out "$(mktemp -d)"
"""

import argparse
import collections
import configparser
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from painfusion.config import KEYS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
KINDS = ("logistic", "mlp", "cnn1d")
CORPORA = ("synth", "uneven", "twice", "spaces", "variants")
# Spellings of a data file that read as the comma-separated original, one
# per subject file in turn. The first row picks the delimiter, so tabs get
# files of their own.
SPELLINGS = (
    lambda data: data.replace(b"\n", b"\r\n"),
    lambda data: data.replace(b"\n", b"\n \t\n", 1),
    lambda data: data.replace(b"\n", b",\n"),
    lambda data: data.replace(b"\n", b",0.5\n"),
    lambda data: data.replace(b",", b"\t"),
)

# config: configs/<config>.ini or None; overrides: "section.key=value"; corpus: in CORPORA or None
Row = collections.namedtuple(
    "Row", "name command config overrides corpus flags env threads",
    defaults=("quick", (), None, (), {}, (1, 2)),
)
ROWS = [
    Row("synth", "synth", threads=(1, 2, 3)),
    Row("analyze", "analyze"),
    Row("weights", "weights"),
    Row("evaluate", "evaluate", corpus="synth"),
    Row("evaluate-spaces", "evaluate", corpus="spaces", threads=(1,)),
    Row("evaluate-variants", "evaluate", corpus="variants", threads=(1,)),
    Row("cnn1d-evaluate-corpus", "evaluate", overrides=("classifier.kind=cnn1d",), corpus="synth"),
    Row("logistic-std-evaluate-corpus", "evaluate", corpus="synth",
        overrides=("classifier.kind=logistic", "run.reduction=std"), threads=(1, 2, 3)),
    *(Row(f"logistic-hard-{command}", command, threads=(1, 3),
          overrides=("classifier.kind=logistic", "run.vote_mode=hard"))
      for command in ("evaluate", "matrix")),
    *(Row(f"seven-{command}", command, overrides=("synthetic.n_subjects=7",), threads=(1, 3))
      for command in ("synth", "matrix", "analyze", "weights", "evaluate", "loocv")),
    Row("default-matrix", "matrix", "default", threads=(1, 2)),
    Row("default-loocv", "loocv", "default"),
    Row("default-mlp-loocv", "loocv", "default", ("classifier.kind=mlp",)),
    Row("weights-seed7", "weights", None, flags=("--seed", "7"), threads=(1,)),
    Row("weights-default", "weights", "default", threads=(1,)),
    Row("cnn1d-default-matrix", "matrix", "cnn1d", threads=(2,)),
    Row("cnn1d-matrix-blas1", "matrix", overrides=("classifier.kind=cnn1d",),
        env={"OPENBLAS_NUM_THREADS": "1"}, threads=(2,)),
    # One key, so one task, which trains in the calling process at every
    # thread count, on the frames standardized there.
    Row("cnn1d-singular-evaluate", "evaluate", overrides=("classifier.kind=cnn1d",),
        flags=("--scheme", "singular"), threads=(1, 2, 3)),
]
for k in KINDS:
    kind = f"classifier.kind={k}"
    # A pooled kind cuts a one-split run's keys over the workers, into as
    # many chunks as there are threads.
    pooled = k != "cnn1d"
    ROWS += [
        Row(f"{k}-matrix", "matrix", overrides=(kind,),
            threads=(1, 2, 3, 4) if pooled else (1, 2, 3)),
        Row(f"{k}-loocv", "loocv", overrides=(kind,), threads=(1, 2, 3)),
        Row(f"{k}-evaluate", "evaluate", overrides=(kind,),
            threads=(1, 2, 3) if pooled else (1, 2)),
        Row(f"{k}-loocv-sequence", "loocv", overrides=(kind,),
            flags=("--granularity", "sequence"), threads=(1, 3)),
    ]
    if k != "cnn1d":
        ROWS += [
            Row(f"{k}-uneven", "loocv", overrides=(kind,), corpus="uneven", threads=(1, 3)),
            Row(f"{k}-eight", "loocv", overrides=(kind, "synthetic.n_subjects=8"), threads=(1, 3)),
        ]
    if k != "mlp":
        ROWS += [
            Row(f"{k}-average", "loocv", overrides=(kind, "run.weighting=average"), threads=(1, 3)),
            Row(f"{k}-max-matrix", "matrix", overrides=(kind, "run.reduction=max")),
            Row(f"{k}-max-weights", "weights", overrides=(kind, "run.reduction=max")),
            *(Row(f"{k}-{r}-loocv", "loocv", overrides=(kind, f"run.reduction={r}"),
                  threads=(1, 3)) for r in ("max", "std")),
            Row(f"{k}-twice", "loocv", overrides=(kind,), corpus="twice", threads=(1, 3)),
        ]
WEIGHTS = "weights_bifurcated_statistical.csv"
SAME = [
    ("weights-seed7", "weights-default"),
    ("evaluate-spaces", "evaluate"),
    ("evaluate-variants", "evaluate"),
    # A corpus's pieces are made in parse workers, a generated one's in
    # subject workers: both give the same artifacts.
    ("evaluate", "logistic-evaluate"),
    ("cnn1d-evaluate-corpus", "cnn1d-evaluate"),
    ("cnn1d-matrix-blas1", "cnn1d-matrix"),
    *((f"{k}-max-weights/weights.csv", f"{k}-max-matrix/{WEIGHTS}") for k in ("logistic", "cnn1d")),
]
DIFFER = [(f"{k}-max-matrix/{WEIGHTS}", f"{k}-matrix/{WEIGHTS}") for k in ("logistic", "cnn1d")]


def config_for(row):
    """The row's config plus overrides, each a key that painfusion reads."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    if row.config:
        with open(CONFIGS / f"{row.config}.ini", encoding="utf-8") as fh:
            parser.read_file(fh)
    for override in row.overrides:
        dotted, value = override.split("=")
        section, key = dotted.split(".", 1)
        if (section, key) not in KEYS and not (section == "synthetic" and key.startswith("snr.")):
            raise KeyError(f"{row.name}: unknown config key {dotted}")
        parser[section][key] = value
    return parser


def cli(what, args, out, env=None):
    """Run one painfusion command into out; exit with one line on failure."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "painfusion.cli",
         *map(str, args), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, **(env or {})},
    )
    if proc.returncode:
        sys.exit(f"{what}: exit {proc.returncode}\n{proc.stderr.strip()}")


def build_corpora(root):
    """quick.ini's synth and four copies: S02 and S05 cut short (uneven),
    S04's manifest row renamed S01 (twice), every comma a space (spaces),
    each file in one of SPELLINGS (variants)."""
    synth = root / "synth"
    cli("corpus synth", ["synth", "--config", CONFIGS / "quick.ini"], synth)
    for name in CORPORA[1:]:
        shutil.copytree(synth, root / name)
    for subject, frames in (("S02", 200), ("S05", 150)):
        lines = (synth / f"{subject}.csv").read_bytes().splitlines(keepends=True)
        (root / "uneven" / f"{subject}.csv").write_bytes(b"".join(lines[:frames]))
    manifest = (synth / "manifest.csv").read_bytes().replace(b"\nS04,", b"\nS01,")
    assert manifest.count(b"\nS01,") == 2, "the twice manifest has no second S01 row"
    (root / "twice" / "manifest.csv").write_bytes(manifest)
    for i, path in enumerate(sorted(synth.glob("S*.csv"))):
        data = path.read_bytes()
        assert b"," in data, f"{path.name} has no comma to replace"
        (root / "spaces" / path.name).write_bytes(data.replace(b",", b" "))
        (root / "variants" / path.name).write_bytes(SPELLINGS[i % len(SPELLINGS)](data))


def digest_tree(root):
    """{path relative to root: sha256} for every file under root."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def first_difference(a, b):
    """The first path whose digest differs or that one map lacks, or None."""
    return next((path for path in sorted(a.keys() | b.keys()) if a.get(path) != b.get(path)), None)


def run_row(row, out):
    """{thread count: tree digest} of the row's runs."""
    config = row.config and CONFIGS / f"{row.config}.ini"
    if row.overrides:
        config = out / f"{row.name}.ini"
        with open(config, "w", encoding="utf-8") as fh:
            config_for(row).write(fh)
    args = [row.command, *row.flags, *(["--config", config] if config else [])]
    if row.corpus:
        args += ["--manifest", out / "corpora" / row.corpus / "manifest.csv"]
    trees = {}
    for n in row.threads:
        tree = out / f"{row.name}-{n}"
        cli(f"{row.name} at threads {n}", [*args, "--threads", n], tree, row.env)
        trees[n] = digest_tree(tree)
    return trees


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="an empty or new directory")
    out = parser.parse_args().out
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    build_corpora(out / "corpora")
    digests, failures = {}, []
    for row in ROWS:
        trees = run_row(row, out)
        first, *others = row.threads
        digests[row.name] = trees[first]
        for n in others:
            if (path := first_difference(trees[first], trees[n])) is not None:
                failures.append(f"{row.name}: threads {first} and {n} differ at {path}")
    def pick(entry):  # a row's tree, or {"": digest} of one of its files
        row, _, name = entry.partition("/")
        return {"": digests[row][name]} if name else digests[row]
    for pairs, same in ((SAME, True), (DIFFER, False)):
        for a, b in pairs:
            if ((path := first_difference(pick(a), pick(b))) is None) != same:
                verb = "are equal" if not same else f"differ at {path}" if path else "differ"
                failures.append(f"{a} and {b} {verb}")
    (out / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(*failures, f"{len(ROWS)} rows, {sum(map(len, digests.values()))} files, "
          f"{len(failures)} failures: {out / 'digests.json'}", sep="\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
