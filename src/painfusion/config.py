"""Run configuration: a flat INI file (sections per concern, key = value)
plus command-line overrides. Every run needs an explicit seed, either in
the file or via --seed; there is no wall-clock fallback.

Keys the file leaves unset take the values in :mod:`painfusion.presets`.
Relative paths inside the file resolve against the file's directory.
"""

import configparser
import os
from dataclasses import dataclass, replace

from .data import SyntheticConfig, read_text
from .errors import ConfigError
from .evaluate import ExperimentConfig, GRANULARITIES
from .modality import parse_joint_segment_map
from .presets import default_experiment_config, default_synthetic_config


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: resolved experiment settings, the
    synthetic generator settings (used when no manifest is given), and
    the artifact plumbing (output directory, thread count)."""

    out_dir: str
    threads: int
    experiment: ExperimentConfig
    synthetic: SyntheticConfig
    manifest: str | None = None
    granularity: str = "subject"


# Parsers take the stripped value and the config file's directory.
def _plain(convert):
    return lambda raw, base_dir: convert(raw)


_INT, _FLOAT, _STR = _plain(int), _plain(float), _plain(str)


def _optional_float(raw: str, base_dir: str) -> float | None:
    return None if raw.lower() in ("", "none") else float(raw)


def _path(raw: str, base_dir: str) -> str:
    return os.path.join(base_dir, raw)


def _joint_map(raw: str, base_dir: str):
    return parse_joint_segment_map(read_text(_path(raw, base_dir), ConfigError, "joint_map file"))


# (section, key) -> (target, field, parser). A target names the object the
# field belongs to: "run" is RunConfig (plus the seed, which goes to every
# seeded object), "experiment" and "classifier" the experiment config and
# its classifier spec, "synthetic" the generator config. [synthetic]
# snr.<modality> keys fill SyntheticConfig.modality_snr outside the table.
KEYS = {
    ("run", "seed"): ("run", "seed", _INT),
    ("run", "scheme"): ("experiment", "scheme_name", _STR),
    ("run", "weighting"): ("experiment", "weighting", _STR),
    ("run", "vote_mode"): ("experiment", "vote_mode", _STR),
    ("run", "decision_threshold"): ("experiment", "decision_threshold", _FLOAT),
    ("run", "reduction"): ("experiment", "reduction", _STR),
    ("run", "granularity"): ("run", "granularity", _STR),
    ("run", "manifest"): ("run", "manifest", _path),
    ("windows", "length"): ("experiment", "window_length", _INT),
    ("windows", "stride"): ("experiment", "window_stride", _INT),
    ("windows", "positive_fraction_threshold"): (
        "experiment", "positive_fraction_threshold", _FLOAT,
    ),
    ("classifier", "kind"): ("classifier", "kind", _STR),
    ("classifier", "hidden_units"): ("classifier", "hidden_units", _INT),
    ("classifier", "conv_channels"): ("classifier", "conv_channels", _INT),
    ("classifier", "kernel_width"): ("classifier", "kernel_width", _INT),
    ("classifier", "learning_rate"): ("classifier", "learning_rate", _FLOAT),
    ("classifier", "epochs"): ("classifier", "epochs", _INT),
    ("classifier", "batch_size"): ("classifier", "batch_size", _INT),
    ("classifier", "momentum"): ("classifier", "momentum", _FLOAT),
    ("classifier", "l2"): ("classifier", "l2", _FLOAT),
    ("classifier", "positive_class_weight"): (
        "classifier", "positive_class_weight", _optional_float,
    ),
    ("synthetic", "n_subjects"): ("synthetic", "n_subjects", _INT),
    ("synthetic", "frames_per_subject"): ("synthetic", "frames_per_subject", _INT),
    ("synthetic", "positive_rate"): ("synthetic", "positive_rate", _FLOAT),
    ("synthetic", "mean_positive_bout"): ("synthetic", "mean_positive_bout", _INT),
    ("synthetic", "expression"): ("synthetic", "expression", _STR),
    ("synthetic", "noise_correlation"): ("synthetic", "noise_correlation", _FLOAT),
    ("paths", "joint_map"): ("experiment", "joint_map", _joint_map),
}
_SECTIONS = {section for section, _ in KEYS}
_SNR_PREFIX = "snr."


def _parse(value, section: str, key: str, parse, base_dir: str):
    raw = value.strip()
    try:
        return parse(raw, base_dir)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def _read_ini(path: str | None) -> dict[str, dict]:
    """Parse every key of the file into {target: {field: value}}."""
    fields = {"run": {}, "experiment": {}, "classifier": {}, "synthetic": {}}
    if not path:
        return fields
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    text = read_text(path, ConfigError, "config")
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"config {path}: {' '.join(str(exc).split())}") from None
    base_dir = os.path.dirname(os.path.abspath(path))
    snr = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"config {path}: unknown section [{section}]")
        for key, value in parser[section].items():
            if (section, key) in KEYS:
                target, field, parse = KEYS[section, key]
                fields[target][field] = _parse(value, section, key, parse, base_dir)
            elif section == "synthetic" and key.startswith(_SNR_PREFIX):
                snr[key[len(_SNR_PREFIX) :]] = _parse(value, section, key, _FLOAT, base_dir)
            else:
                raise ConfigError(f"config {path}: unknown key {key!r} in [{section}]")
    if snr:
        fields["synthetic"]["modality_snr"] = snr
    return fields


def load_run_config(
    config_path: str | None,
    out_dir: str,
    seed_flag: int | None,
    threads: int,
) -> RunConfig:
    """Build a validated RunConfig from an optional INI file and the
    command-line flags; flags win over file values."""
    fields = _read_ini(config_path)
    file_seed = fields["run"].pop("seed", None)
    seed = seed_flag if seed_flag is not None else file_seed
    if seed is None:
        raise ConfigError("seed is required: pass --seed or set [run] seed")
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")

    preset = default_experiment_config(seed)
    run = RunConfig(
        out_dir=out_dir,
        threads=threads,
        experiment=replace(
            preset,
            classifier=replace(preset.classifier, **fields["classifier"]),
            **fields["experiment"],
        ),
        synthetic=replace(default_synthetic_config(seed), **fields["synthetic"]),
        **fields["run"],
    )
    if run.granularity not in GRANULARITIES:
        raise ConfigError(
            f"[run] granularity must be one of {GRANULARITIES}, got {run.granularity!r}"
        )
    run.experiment.validate()
    run.synthetic.validate()
    return run
