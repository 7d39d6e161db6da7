"""Run configuration: a flat INI file (sections per concern, key = value)
plus command-line overrides. Every run needs an explicit seed, either in
the file or via --seed; there is no wall-clock fallback.

Relative paths inside the file resolve against the file's directory.
"""

import configparser
import os
from dataclasses import dataclass

from .data import SyntheticConfig, read_text
from .errors import ConfigError
from .evaluate import ExperimentConfig, GRANULARITIES
from .modality import JointSegmentMap, parse_joint_segment_map
from .models import ClassifierSpec
from .presets import WINDOW_LENGTH, WINDOW_STRIDE, default_synthetic_config

_KNOWN_KEYS = {
    "run": {
        "seed",
        "scheme",
        "weighting",
        "vote_mode",
        "decision_threshold",
        "reduction",
        "granularity",
        "manifest",
    },
    "windows": {"length", "stride", "positive_fraction_threshold"},
    "classifier": {
        "kind",
        "hidden_units",
        "conv_channels",
        "kernel_width",
        "learning_rate",
        "epochs",
        "batch_size",
        "momentum",
        "l2",
        "positive_class_weight",
    },
    "synthetic": {
        "n_subjects",
        "frames_per_subject",
        "positive_rate",
        "mean_positive_bout",
        "expression",
        "noise_correlation",
    },
    "paths": {"joint_map"},
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: resolved experiment settings, the
    synthetic generator settings (used when no manifest is given), and
    the artifact plumbing (output directory, thread count)."""

    seed: int
    out_dir: str
    threads: int
    manifest: str | None
    granularity: str
    experiment: ExperimentConfig
    synthetic: SyntheticConfig


def _read_ini(path: str) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    text = read_text(path, ConfigError, "config")
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"config {path}: {' '.join(str(exc).split())}") from None
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"config {path}: unknown section [{section}]")
        for key in parser[section]:
            if key in _KNOWN_KEYS[section]:
                continue
            if section == "synthetic" and key.startswith("snr."):
                continue
            raise ConfigError(f"config {path}: unknown key {key!r} in [{section}]")
    return parser


def _typed(parser, section: str, key: str, default, convert):
    if parser is None or not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip()
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def _optional_float(raw: str):
    if raw == "" or raw.lower() == "none":
        return None
    return float(raw)


def _resolve(base_dir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _snr_map(parser) -> dict[str, float] | None:
    if parser is None or not parser.has_section("synthetic"):
        return None
    entries = {}
    for key in parser["synthetic"]:
        if key.startswith("snr."):
            name = key[len("snr.") :]
            entries[name] = _typed(parser, "synthetic", key, 0.0, float)
    return entries or None


def load_run_config(
    config_path: str | None,
    out_dir: str,
    seed_flag: int | None,
    threads: int,
) -> RunConfig:
    """Build a validated RunConfig from an optional INI file and the
    command-line flags; flags win over file values."""
    parser = _read_ini(config_path) if config_path else None
    base_dir = os.path.dirname(os.path.abspath(config_path)) if config_path else os.getcwd()

    seed = seed_flag if seed_flag is not None else _typed(parser, "run", "seed", None, int)
    if seed is None:
        raise ConfigError("seed is required: pass --seed or set [run] seed")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")

    granularity = _typed(parser, "run", "granularity", "subject", str)
    if granularity not in GRANULARITIES:
        raise ConfigError(
            f"[run] granularity must be one of {GRANULARITIES}, got {granularity!r}"
        )

    manifest = _typed(parser, "run", "manifest", None, str)
    if manifest is not None:
        manifest = _resolve(base_dir, manifest)

    joint_map: JointSegmentMap | None = None
    joint_map_path = _typed(parser, "paths", "joint_map", None, str)
    if joint_map_path is not None:
        joint_map_path = _resolve(base_dir, joint_map_path)
        if not os.path.exists(joint_map_path):
            raise ConfigError(f"joint_map file not found: {joint_map_path}")
        joint_map = parse_joint_segment_map(
            read_text(joint_map_path, ConfigError, "joint_map file")
        )

    classifier = ClassifierSpec(
        kind=_typed(parser, "classifier", "kind", "logistic", str),
        seed=seed,
        hidden_units=_typed(parser, "classifier", "hidden_units", 16, int),
        conv_channels=_typed(parser, "classifier", "conv_channels", 8, int),
        kernel_width=_typed(parser, "classifier", "kernel_width", 5, int),
        learning_rate=_typed(parser, "classifier", "learning_rate", 0.05, float),
        epochs=_typed(parser, "classifier", "epochs", 30, int),
        batch_size=_typed(parser, "classifier", "batch_size", 64, int),
        momentum=_typed(parser, "classifier", "momentum", 0.9, float),
        l2=_typed(parser, "classifier", "l2", 1e-4, float),
        positive_class_weight=_typed(
            parser, "classifier", "positive_class_weight", None, _optional_float
        ),
    )

    experiment = ExperimentConfig(
        scheme_name=_typed(parser, "run", "scheme", "quadrifurcated", str),
        weighting=_typed(parser, "run", "weighting", "statistical", str),
        classifier=classifier,
        seed=seed,
        window_length=_typed(parser, "windows", "length", WINDOW_LENGTH, int),
        window_stride=_typed(parser, "windows", "stride", WINDOW_STRIDE, int),
        positive_fraction_threshold=_typed(
            parser, "windows", "positive_fraction_threshold", 0.5, float
        ),
        decision_threshold=_typed(parser, "run", "decision_threshold", 0.5, float),
        vote_mode=_typed(parser, "run", "vote_mode", "soft", str),
        reduction=_typed(parser, "run", "reduction", "mean", str),
        joint_map=joint_map,
    )
    experiment.validate()

    defaults = default_synthetic_config(seed)
    snr = _snr_map(parser)
    synthetic = SyntheticConfig(
        n_subjects=_typed(parser, "synthetic", "n_subjects", defaults.n_subjects, int),
        frames_per_subject=_typed(
            parser, "synthetic", "frames_per_subject", defaults.frames_per_subject, int
        ),
        positive_rate=_typed(parser, "synthetic", "positive_rate", defaults.positive_rate, float),
        modality_snr=snr if snr is not None else dict(defaults.modality_snr),
        seed=seed,
        mean_positive_bout=_typed(
            parser, "synthetic", "mean_positive_bout", defaults.mean_positive_bout, int
        ),
        expression=_typed(parser, "synthetic", "expression", defaults.expression, str),
        noise_correlation=_typed(
            parser, "synthetic", "noise_correlation", defaults.noise_correlation, float
        ),
    )
    synthetic.validate()

    return RunConfig(
        seed=seed,
        out_dir=out_dir,
        threads=threads,
        manifest=manifest,
        granularity=granularity,
        experiment=experiment,
        synthetic=synthetic,
    )
