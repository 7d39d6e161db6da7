#!/usr/bin/env python3
"""painfusion benchmark.

Runs the painfusion CLI the way a user does, one operation at a time in a
child process (a closed loop with one client), times each operation from
outside, checks its outputs, and prints one JSON result as the last line:

    python3 perfbench/run.py --workload matrix_logistic --seed 7 --seconds 28 --trace 0

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs the operation once plainly and once under
perfbench/tracer.py and reports the per-layer metrics. See
perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")
CONFIGS = os.path.join(HERE, "configs")

THREADS = 2  # every workload runs at --threads 2; no child uses more
BLAS_THREADS = "1"  # so that --threads is the only parallelism
STARTED = time.monotonic()
RUN_LIMIT_S = 170  # a child still running this long after start is killed
MAX_SECONDS = 90  # --seconds above this leaves no room for the last operation
SETUP_REPEATS = 3  # set-up samples before the first operation and after each

# Matrix arms and the number of modalities (one fit each) in their scheme.
ARM_MODALITIES = {
    "singular": 1,
    "bifurcated_statistical": 2,
    "quadrifurcated_statistical": 4,
    "quadrifurcated_average": 4,
}
EVALUATE_ARM = "quadrifurcated_statistical"  # scheme/weighting of loocv and evaluate

# workload -> (config file, CLI steps of one operation). Every operation
# takes a few seconds, so that a run's medians are over several of them.
WORKLOADS = {
    "matrix_logistic": ("default.ini", ("matrix",)),
    "loocv_logistic": ("short.ini", ("loocv",)),
    "matrix_cnn1d": ("cnn1d.ini", ("matrix",)),
    "corpus_roundtrip": ("short.ini", ("synth", "evaluate")),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark at all."""


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    killed: bool = False


@dataclass
class Op:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    f1: dict = field(default_factory=dict)
    corpus_bytes: int = 0


# --- child processes --------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list, log_path: str) -> Child:
    """Run argv to completion; wall time from spawn to exit, CPU and peak
    RSS from the child's own rusage. A child still running RUN_LIMIT_S after
    the benchmark started is killed, so that the benchmark ends in time."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        remaining = RUN_LIMIT_S - (time.monotonic() - STARTED)
        watchdog = threading.Timer(max(remaining, 0.0), kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    cpu = usage.ru_utime + usage.ru_stime
    return Child(wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, killed.is_set())


def tail(path: str, lines: int = 5) -> str:
    with open(path, "rb") as fh:
        return b"\n".join(fh.read().splitlines()[-lines:]).decode("utf-8", "replace")


# --- expected outputs -------------------------------------------------------


def window_count(n_frames: int, length: int, stride: int) -> int:
    return (n_frames - length) // stride + 1


@dataclass(frozen=True)
class Expect:
    """What a workload's config implies about its outputs."""

    n_subjects: int
    frames: int
    length: int
    stride: int
    epochs: int

    @classmethod
    def from_config(cls, path: str) -> "Expect":
        ini = configparser.ConfigParser()
        if not ini.read(path):
            raise SetupError(f"missing benchmark config {path}")
        return cls(
            n_subjects=ini.getint("synthetic", "n_subjects"),
            frames=ini.getint("synthetic", "frames_per_subject"),
            length=ini.getint("windows", "length"),
            stride=ini.getint("windows", "stride"),
            epochs=ini.getint("classifier", "epochs"),
        )

    @property
    def subject_windows(self) -> int:
        return window_count(self.frames, self.length, self.stride)

    @property
    def n_valid(self) -> int:
        """Validation subjects under the generator's split: every third
        (chronic, healthy) pair."""
        valid = sum(1 for i in range(self.n_subjects) if (i // 2) % 3 == 2)
        return valid or 1

    def window_epochs(self, workload: str) -> int:
        """Training windows times epochs summed over the fits that the
        command's result needs (train-once does not change this)."""
        per_fit = self.subject_windows * self.epochs
        if workload.startswith("matrix"):
            fits = sum(ARM_MODALITIES.values())
            return fits * (self.n_subjects - self.n_valid) * per_fit
        fits = ARM_MODALITIES[EVALUATE_ARM]
        if workload.startswith("loocv"):
            return self.n_subjects * fits * (self.n_subjects - 1) * per_fit
        return fits * (self.n_subjects - self.n_valid) * per_fit


def read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_confusion(path: str, expected_totals: dict, problems: list) -> dict:
    """Row totals must match the expected window counts; returns the rows."""
    rows = {r["name"]: r for r in read_rows(path)}
    if sorted(rows) != sorted(expected_totals):
        problems.append(f"confusion.csv rows {sorted(rows)} != {sorted(expected_totals)}")
        return rows
    for name, want in expected_totals.items():
        r = rows[name]
        cells = sum(int(r[k]) for k in ("tp", "fp", "fn", "tn"))
        if cells != int(r["total"]) or cells != want:
            problems.append(
                f"confusion {name}: total {r['total']} (cells {cells}) != {want} windows"
            )
    return rows


def check_f1(out: str, confusion_rows: dict, problems: list) -> dict:
    """metrics.csv F1 per row, cross-checked against its confusion row."""
    f1 = {}
    for r in read_rows(os.path.join(out, "metrics.csv")):
        name, value = r["name"], float(r["f1_pos"])
        c = confusion_rows.get(name)
        if c is not None:
            tp, fp, fn = int(c["tp"]), int(c["fp"]), int(c["fn"])
            want = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
            if abs(value - want) > 1e-9:
                problems.append(f"metrics {name}: f1_pos {value!r} != {want!r} from confusion")
        f1[name] = value
    return f1


def check_weights(path: str, problems: list) -> None:
    weights = [float(r["weight"]) for r in read_rows(path)]
    if not weights or abs(math.fsum(weights) - 1.0) > 1e-9:
        problems.append(f"{os.path.basename(path)}: weights sum to {math.fsum(weights)!r}")


def require(out: str, names: list, problems: list) -> bool:
    absent = [n for n in names if not os.path.isfile(os.path.join(out, n))]
    if absent:
        problems.append(f"{os.path.basename(out)}: missing {absent}")
    return not absent


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def check_step(step: str, out: str, expect: Expect, op: Op, corpus: str) -> None:
    problems = op.problems
    w = expect.subject_windows
    if step == "matrix":
        files = ["metrics.csv", "confusion.csv", "report.txt"]
        for arm in ARM_MODALITIES:
            files += [f"weights_{arm}.csv", f"predictions_{arm}.csv"]
        if not require(out, files, problems):
            return
        valid = expect.n_valid * w
        rows = check_confusion(
            os.path.join(out, "confusion.csv"), {a: valid for a in ARM_MODALITIES}, problems
        )
        for arm in ARM_MODALITIES:
            check_weights(os.path.join(out, f"weights_{arm}.csv"), problems)
            if count_lines(os.path.join(out, f"predictions_{arm}.csv")) != valid + 1:
                problems.append(f"predictions_{arm}.csv: expected {valid} rows")
        op.f1.update(check_f1(out, rows, problems))
    elif step == "loocv":
        if not require(out, ["metrics.csv", "confusion.csv", "report.txt"], problems):
            return
        totals = {f"S{i + 1:02d}": w for i in range(expect.n_subjects)}
        totals["pooled"] = expect.n_subjects * w
        rows = check_confusion(os.path.join(out, "confusion.csv"), totals, problems)
        f1 = check_f1(out, rows, problems)
        op.f1["pooled"] = f1.get("pooled", 0.0)
    elif step == "synth":
        files = ["manifest.csv"] + [f"S{i + 1:02d}.csv" for i in range(expect.n_subjects)]
        if not require(out, files, problems):
            return
        for name in files[1:]:
            if count_lines(os.path.join(out, name)) != expect.frames:
                problems.append(f"synth {name}: expected {expect.frames} frames")
    elif step == "evaluate":
        files = ["metrics.csv", "confusion.csv", "weights.csv", "predictions.csv", "report.txt"]
        if not require(out, files, problems):
            return
        valid = 0
        for r in read_rows(os.path.join(corpus, "manifest.csv")):
            if r["split"] == "valid":
                frames = count_lines(os.path.join(corpus, r["path"]))
                valid += window_count(frames, expect.length, expect.stride)
        rows = check_confusion(os.path.join(out, "confusion.csv"), {EVALUATE_ARM: valid}, problems)
        check_weights(os.path.join(out, "weights.csv"), problems)
        op.f1.update(check_f1(out, rows, problems))


def digest_tree(path: str) -> dict:
    digests = {}
    for base, _, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            h = hashlib.sha256()
            with open(full, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[os.path.relpath(full, WORK)] = h.hexdigest()
    return digests


def csv_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, n)) for n in os.listdir(path) if n.endswith(".csv")
    )


# --- one operation ----------------------------------------------------------


def run_op(workload: str, seed: int, spans_dir: str | None = None) -> Op:
    """One CLI operation of the workload in WORK/op; under the tracer,
    writing spans_dir/<step>.npz, when spans_dir is given. Leaves its
    outputs for the caller to remove."""
    config_name, steps = WORKLOADS[workload]
    config = os.path.join(CONFIGS, config_name)
    expect = Expect.from_config(config)
    op_dir = os.path.join(WORK, "op")
    shutil.rmtree(op_dir, ignore_errors=True)
    os.makedirs(op_dir)
    corpus = os.path.join(op_dir, "synth")
    op = Op()
    for step in steps:
        out = os.path.join(op_dir, step)
        cli = [step, "--config", config, "--seed", str(seed), "--threads", str(THREADS)]
        cli += ["--out", out]
        if step == "evaluate":
            cli += ["--manifest", os.path.join(corpus, "manifest.csv")]
        if spans_dir is None:
            argv = [sys.executable, "-m", "painfusion.cli"] + cli
        else:
            spans = os.path.join(spans_dir, f"{step}.npz")
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans] + cli
        log = os.path.join(WORK, f"{step}.log")
        child = run_child(argv, log)
        op.wall += child.wall
        op.cpu += child.cpu
        op.rss_mb = max(op.rss_mb, child.rss_mb)
        if child.killed:
            op.problems.append(f"{step} killed at the benchmark's {RUN_LIMIT_S} s limit")
            return op
        if child.code != 0:
            op.problems.append(f"{step} exited {child.code}: {tail(log)}")
            return op
        check_step(step, out, expect, op, corpus)
        if step in ("synth", "evaluate"):  # written, then parsed back in
            op.corpus_bytes += csv_bytes(corpus)
    op.digests = digest_tree(op_dir)
    return op


def setup_times(workload: str, seed: int, warm_up: bool = False) -> list[float]:
    """SETUP_REPEATS times a fresh interpreter + import painfusion.cli +
    load_run_config, timed from outside; with warm_up, one untimed run first
    (bytecode compile, page cache)."""
    config = os.path.join(CONFIGS, WORKLOADS[workload][0])
    code = (
        "import sys, painfusion.cli; from painfusion.config import load_run_config; "
        "load_run_config(sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))"
    )
    out = os.path.join(WORK, "setup")
    argv = [sys.executable, "-c", code, config, out, str(seed), str(THREADS)]
    log = os.path.join(WORK, "setup.log")
    times = []
    for i in range(SETUP_REPEATS + int(warm_up)):
        child = run_child(argv, log)
        if child.killed:
            raise SetupError(f"setup child killed at the benchmark's {RUN_LIMIT_S} s limit")
        if child.code != 0:
            raise SetupError(f"setup child exited {child.code}: {tail(log)}")
        if i or not warm_up:
            times.append(child.wall)
    return times


# --- environment and results ------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = probe.stdout.strip() or None
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "cli_threads": THREADS,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def f1_metrics(f1: dict) -> dict:
    """Per-arm F1 as deterministic per-layer values; 0 where the workload
    has no such row."""
    names = list(ARM_MODALITIES) + ["pooled"]
    return {f"f1_pos.{n}": f1.get(n, 0.0) for n in names}


def measure(workload: str, seed: int, seconds: float) -> tuple[list, dict, dict]:
    """Operations, with set-up samples before the first and after each, so
    that set-up is timed across the whole run, for as long as the next
    operation and its set-up samples are expected to end within --seconds.
    At least one operation runs."""
    start = time.perf_counter()
    setup = setup_times(workload, seed, warm_up=True)
    config_name, _ = WORKLOADS[workload]
    expect = Expect.from_config(os.path.join(CONFIGS, config_name))
    ops = []
    while True:
        t0 = time.perf_counter()
        op = run_op(workload, seed)
        shutil.rmtree(os.path.join(WORK, "op"), ignore_errors=True)
        if ops and not op.problems and op.digests != ops[0].digests:
            op.problems.append("artifact digests differ from the first operation")
        ops.append(op)
        if op.problems:
            break
        setup += setup_times(workload, seed)
        lap = time.perf_counter() - t0
        if time.perf_counter() - start + lap > seconds:
            break
    wall = statistics.median(o.wall for o in ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": statistics.median(o.cpu for o in ops),
        "peak_rss_mb": statistics.median(o.rss_mb for o in ops),
        "window_epochs_per_s": expect.window_epochs(workload) / wall,
    }
    detail = {
        "samples": len(ops),
        "walls_s": [o.wall for o in ops],
        "setup_samples_s": setup,
        "window_epochs": expect.window_epochs(workload),
    }
    corpus_mb = statistics.median(o.corpus_bytes for o in ops) / 1e6
    if corpus_mb:
        detail["corpus_mb_per_s"] = corpus_mb / wall
    return ops, metrics, detail


def measure_traced(workload: str, seed: int) -> tuple[list, dict, dict]:
    from tracer import layer_metrics

    plain = run_op(workload, seed)
    shutil.rmtree(os.path.join(WORK, "op"), ignore_errors=True)
    if plain.problems:
        return [plain], {}, {}
    traced = run_op(workload, seed, spans_dir=WORK)
    shutil.rmtree(os.path.join(WORK, "op"), ignore_errors=True)
    if not traced.problems and traced.digests != plain.digests:
        traced.problems.append("traced artifacts differ from the untraced run")
    ops = [plain, traced]
    if traced.problems:
        return ops, {}, {}
    steps = WORKLOADS[workload][1]
    metrics, notes = layer_metrics([os.path.join(WORK, f"{s}.npz") for s in steps])
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    metrics["trace.overhead_frac"] = (traced.wall - plain.wall) / plain.wall
    metrics.update(f1_metrics(traced.f1))
    notes.update({"untraced_wall_s": plain.wall, "traced_wall_s": traced.wall})
    return ops, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=28.0, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]: longer runs cannot end "
                     f"within the {RUN_LIMIT_S} s limit")

    try:
        if not os.path.isfile(os.path.join(SRC, "painfusion", "cli.py")):
            raise SetupError(f"no painfusion sources under {SRC}")
        declared = declared_metrics(bool(args.trace))
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        if args.trace:
            ops, metrics, notes = measure_traced(args.workload, args.seed)
        else:
            ops, metrics, notes = measure(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = sum(1 for op in ops if op.problems)
    for op in ops:
        for problem in op.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    if not failed and set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}"
        )

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": len(ops),
        "failed": failed,
        "failed_frac": failed / len(ops),
        "f1_pos": ops[0].f1,
        "digests": ops[0].digests,
        "metrics": metrics,
        "notes": notes,
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {'failed_frac':<40} {failed / len(ops):>14.6g} ratio (of {len(ops)} operations)")
    for key, unit in declared.items():
        if key in metrics:
            print(f"  {key:<40} {metrics[key]:>14.6g} {unit}")
    if "corpus_mb_per_s" in notes:
        print(f"  {'corpus_mb_per_s':<40} {notes['corpus_mb_per_s']:>14.6g} MB/s")
    for arm, value in sorted(ops[0].f1.items()):
        print(f"  f1_pos[{arm}] = {value!r}")
    print(f"  results in {os.path.relpath(os.path.join(RESULTS, name), ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k], "unit": u} for k, u in declared.items() if k in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
