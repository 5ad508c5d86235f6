"""Plain-text run configuration.

Files are INI-style key = value pairs under [section] headers; '#' and ';'
start comments. KEYS maps each key to the dataclass field it sets and its
parser. Every key is optional; a section or key KEYS does not name, [DEFAULT]
included, is an error. A key left out is left out of the constructor call,
so every default is the dataclass's own (DiskGeometry, WorkloadConfig,
PerfWeights, TrainSchedule, TrainConfig, CompareSettings, AppConfig), and
so is every range check. Sections are checked in KEYS order; an invalid
value in any section fails every command, whichever sections it reads.
"""

import configparser
import os
from dataclasses import dataclass, fields

from .compare import CompareSettings
from .errors import ConfigError
from .model import DiskGeometry, Hyperparams, Neighborhood
from .policies import APEX, KINDS
from .recovery import PerfWeights
from .tuner import TrainConfig, TrainSchedule
from .workload import WorkloadConfig


@dataclass(frozen=True)
class AppConfig:
    """Everything a CLI command needs, already validated."""

    geometry: DiskGeometry
    workload: WorkloadConfig
    weights: PerfWeights
    training: TrainConfig
    compare_settings: CompareSettings
    policy_kind: str = APEX
    coefficients: Hyperparams = Hyperparams(4, 7, 1, 9)
    invert_link_rule: bool = False

    def train_config(self) -> TrainConfig:
        """The [train] settings, on this config's disk, workload and weights."""
        return self.training


def _parse_bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_floats(raw: str) -> tuple:
    return tuple(float(p) for p in raw.split(","))


def _parse_ints(raw: str) -> tuple:
    return tuple(int(p) for p in raw.split(","))


def _parse_names(raw: str) -> tuple:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def _parse_seed_count(raw: str) -> tuple:
    n = int(raw)
    if not 1 <= n <= CompareSettings.MAX_SEEDS:  # checked before the tuple is built
        raise ValueError(f"needs a count in 1..{CompareSettings.MAX_SEEDS}")
    return tuple(range(n))


# [section] key -> (dataclass field, parser), sections in the order they are
# checked. Each field has one key, unique across sections; it goes to every
# dataclass that has it ([disk] invert_link_rule to AppConfig and TrainConfig).
KEYS = {
    "disk": {
        "rows": ("rows", int),
        "cols": ("cols", int),
        "block_size": ("block_size_bytes", int),
        "neighborhood": ("neighborhood", Neighborhood.parse),
        "invert_link_rule": ("invert_link_rule", _parse_bool),
    },
    "policy": {
        "kind": ("policy_kind", str.strip),
        "coefficients": ("coefficients", Hyperparams.parse),
    },
    "workload": {
        "seed": ("rng_seed", int),
        "total_ops": ("total_ops", int),
        "max_file_blocks": ("max_file_blocks", int),
        "linked_percent": ("linked_file_percent", float),
        "min_utilization": ("min_utilization", float),
        "mix": ("op_mix", _parse_floats),
    },
    "perf": {
        "beta": ("beta", float),
    },
    "train": {
        "initial": ("initial", Hyperparams.parse),
        "min_budget": ("min_budget", int),
        "oin_per_min": ("oin_per_min", int),
        "epsilon_floor": ("epsilon_floor", float),
        "learning_rate": ("learning_rate", float),
        "discount": ("discount", float),
    },
    "compare": {
        "primary_count": ("primary_count", int),
        "primary_blocks": ("primary_data_blocks", int),
        "primary_type": ("primary_type", str.strip),
        "secondary_blocks": ("secondary_targets", _parse_ints),
        "secondary_min_blocks": ("secondary_min_blocks", int),
        "secondary_max_blocks": ("secondary_max_blocks", int),
        "seed_count": ("seeds", _parse_seed_count),
        "policies": ("policies", _parse_names),
    },
}


def load_config(path, seed_override=None, policy_override=None) -> AppConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"no config file at {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from None
    for section in parser:  # [DEFAULT] first: a key there would reach every section
        if section not in KEYS and parser.has_section(section):
            raise ConfigError(f"{path}: [{section}]: unknown section, not one of {', '.join(KEYS)}")
        if key := next((k for k in parser[section] if k not in KEYS.get(section, ())), None):
            raise ConfigError(f"{path}: [{section}] {key}: unknown key")

    given = {}  # dataclass field -> parsed value, for the keys the file sets

    def read(section):
        for key, (field, parse) in KEYS[section].items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    given[field] = parse(raw)
                except (ValueError, TypeError) as e:
                    raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {e}") from None

    def pick(cls):
        names = {f.name for f in fields(cls)}
        return {k: v for k, v in given.items() if k in names}

    def build(section, cls, **parts):
        try:
            return cls(**pick(cls), **parts)
        except ValueError as e:
            raise ConfigError(f"{path}: [{section}] {e}") from None

    read("disk")
    geometry = build("disk", DiskGeometry)
    read("policy")
    # the file's kind is checked even when the override replaces it
    for kind in (given.get("policy_kind"), policy_override):
        if kind is not None and kind not in KINDS:
            raise ConfigError(
                f"{path}: [policy] kind = {kind!r} (expected one of {', '.join(KINDS)})"
            )
    if policy_override is not None:
        given["policy_kind"] = policy_override
    read("workload")
    if seed_override is not None:
        given["rng_seed"] = seed_override
    workload = build("workload", WorkloadConfig)
    read("perf")
    weights = build("perf", PerfWeights)
    read("train")
    training = build("train", TrainConfig, geometry=geometry, workload=workload,
                     weights=weights, schedule=build("train", TrainSchedule))
    read("compare")
    compare_settings = build("compare", CompareSettings)
    return AppConfig(**pick(AppConfig), geometry=geometry, workload=workload,
                     weights=weights, training=training, compare_settings=compare_settings)
