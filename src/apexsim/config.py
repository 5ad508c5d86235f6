"""Plain-text run configuration.

Files are INI-style key = value pairs under [section] headers; '#' and ';'
start comments. Every section and key is optional and falls back to the
defaults baked into the corresponding dataclass. See the README for the full
grammar and an annotated example.
"""

import configparser
import os
from dataclasses import replace

from .compare import CompareSettings
from .errors import ConfigError
from .model import DiskGeometry, Hyperparams, Neighborhood
from .policies import APEX, KINDS
from .recovery import SEEK_COST, TIMESTAMP, PerfWeights
from .tuner import HILL_CLIMB, Q_LEARNING, TrainConfig, TrainSchedule
from .workload import WorkloadConfig


class AppConfig:
    """Everything a CLI command needs, already validated."""

    def __init__(self, geometry, policy_kind, coefficients, invert_link_rule,
                 workload, weights, train_settings, compare_settings):
        self.geometry = geometry
        self.policy_kind = policy_kind
        self.coefficients = coefficients
        self.invert_link_rule = invert_link_rule
        self.workload = workload
        self.weights = weights
        self.train_settings = train_settings
        self.compare_settings = compare_settings

    def train_config(self) -> TrainConfig:
        ts = self.train_settings
        try:
            return TrainConfig(
                geometry=self.geometry,
                schedule=TrainSchedule(
                    min_budget=ts["min_budget"],
                    oin_per_min=ts["oin_per_min"],
                    epsilon_floor=ts["epsilon_floor"],
                    tau=ts["tau"],
                ),
                workload=self.workload,
                weights=self.weights,
                initial=ts["initial"],
                learning_rate=ts["learning_rate"],
                discount=ts["discount"],
                mode=ts["mode"],
                invert_link_rule=self.invert_link_rule,
            )
        except ValueError as e:
            raise ConfigError(f"[train] {e}") from None


def _get(parser, section, key, cast, default, path):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {e}") from None


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


def load_config(path, seed_override=None, policy_override=None) -> AppConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from None

    try:
        neighborhood = _get(parser, "disk", "neighborhood", Neighborhood.parse,
                            Neighborhood.grid_row(), path)
        geometry = DiskGeometry(
            rows=_get(parser, "disk", "rows", int, 16, path),
            cols=_get(parser, "disk", "cols", int, 16, path),
            block_size_bytes=_get(parser, "disk", "block_size", int, 4096, path),
            neighborhood=neighborhood,
        )
    except ValueError as e:
        raise ConfigError(f"{path}: [disk] {e}") from None
    invert_link_rule = _get(parser, "disk", "invert_link_rule", _parse_bool, False, path)

    policy_kind = _get(parser, "policy", "kind", str, APEX, path).strip()
    if policy_override is not None:
        policy_kind = policy_override
    if policy_kind not in KINDS:
        raise ConfigError(
            f"{path}: [policy] kind = {policy_kind!r} (expected one of {', '.join(KINDS)})"
        )
    coefficients = _get(parser, "policy", "coefficients", Hyperparams.parse,
                        Hyperparams(4, 7, 1, 9), path)

    try:
        workload = WorkloadConfig(
            rng_seed=_get(parser, "workload", "seed", int, 0, path),
            total_ops=_get(parser, "workload", "total_ops", int, 1000, path),
            max_file_blocks=_get(parser, "workload", "max_file_blocks", int, 20, path),
            linked_file_percent=_get(parser, "workload", "linked_percent", float, 20.0, path),
            min_utilization=_get(parser, "workload", "min_utilization", float, 0.70, path),
            op_mix=_get(parser, "workload", "mix", _parse_floats, (0.70, 0.15, 0.15), path),
        )
        if seed_override is not None:
            workload = replace(workload, rng_seed=seed_override)
    except ValueError as e:
        raise ConfigError(f"{path}: [workload] {e}") from None

    aat_mode = _get(parser, "perf", "aat_mode", str, SEEK_COST, path).strip()
    try:
        weights = PerfWeights(
            alpha=_get(parser, "perf", "alpha", float, 1.0, path),
            beta=_get(parser, "perf", "beta", float, 0.0, path),
            aat_mode=aat_mode,
        )
    except ValueError as e:
        raise ConfigError(f"{path}: [perf] {e}") from None

    mode = _get(parser, "train", "mode", str, Q_LEARNING, path).strip()
    if mode not in (Q_LEARNING, HILL_CLIMB):
        raise ConfigError(f"{path}: [train] mode = {mode!r}")
    initial = _get(parser, "train", "initial", Hyperparams.parse, Hyperparams(1, 1, 1, 1), path)
    if not initial.in_lattice():
        raise ConfigError(
            f"{path}: [train] initial = {initial.as_tuple()} outside "
            f"[{Hyperparams.LATTICE_MIN}, {Hyperparams.LATTICE_MAX}]"
        )
    train_settings = {
        "min_budget": _get(parser, "train", "min_budget", int, 500, path),
        "oin_per_min": _get(parser, "train", "oin_per_min", int, 1000, path),
        "epsilon_floor": _get(parser, "train", "epsilon_floor", float, 3e-5, path),
        "tau": _get(parser, "train", "tau", float, None, path),
        "learning_rate": _get(parser, "train", "learning_rate", float, 0.1, path),
        "discount": _get(parser, "train", "discount", float, 0.9, path),
        "mode": mode,
        "initial": initial,
    }

    seeds = _get(parser, "compare", "seeds", _parse_ints, tuple(range(50)), path)
    seed_count = _get(parser, "compare", "seed_count", int, None, path)
    if seed_count is not None:
        seeds = tuple(range(seed_count))
    try:
        compare_settings = CompareSettings(
            primary_count=_get(parser, "compare", "primary_count", int, 5, path),
            primary_data_blocks=_get(parser, "compare", "primary_blocks", int, 25, path),
            primary_type=_get(parser, "compare", "primary_type", str, "partial", path).strip(),
            secondary_targets=_get(parser, "compare", "secondary_blocks", _parse_ints, (102, 200), path),
            secondary_min_blocks=_get(parser, "compare", "secondary_min_blocks", int, 4, path),
            secondary_max_blocks=_get(parser, "compare", "secondary_max_blocks", int, 16, path),
            seeds=seeds,
            policies=_parse_names(_get(parser, "compare", "policies", str, "apex,first-fit", path)),
        )
    except ValueError as e:
        raise ConfigError(f"{path}: [compare] {e}") from None

    return AppConfig(
        geometry=geometry,
        policy_kind=policy_kind,
        coefficients=coefficients,
        invert_link_rule=invert_link_rule,
        workload=workload,
        weights=weights,
        train_settings=train_settings,
        compare_settings=compare_settings,
    )
