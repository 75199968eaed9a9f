"""Experiment configuration: a flat ``section.key = value`` text format
that parses into typed dataclasses and serializes back canonically, so
configs are diffable and round-trip exactly."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from .channel import ChannelConfig, LinkBudget
from .packets import LAYOUTS

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "serialize_config"]


class ConfigError(ValueError):
    """Raised for unknown keys or malformed values in a config file."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a Monte-Carlo campaign needs to be replayed exactly."""

    schemes: tuple[str, ...] = tuple(LAYOUTS)
    environments: tuple[str, ...] = ("los", "nlos")
    runs: int = 1000
    master_seed: int = 1
    tx_antennas: int = 16
    rx_antennas: int = 16
    spacing: float = 0.5
    beams_per_packet: tuple[int, ...] = (1, 2, 4, 8, 16)
    quant_bits: tuple[int | None, ...] = (1, 2, 3, 4, None)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    budget: LinkBudget = field(default_factory=LinkBudget)
    out_dir: str = "results"


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _float(raw: str) -> float:
    """A float, not NaN: no campaign can work with a NaN setting."""
    value = float(raw)
    if math.isnan(value):
        raise ValueError("NaN is not a usable value")
    return value


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


def _parse_str_list(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


def _parse_bits_list(raw: str) -> tuple[int | None, ...]:
    out: list[int | None] = []
    for v in raw.split(","):
        v = v.strip()
        if not v:
            continue
        out.append(None if v in ("inf", "none") else int(v))
    return tuple(out)


def _fmt_bits_list(bits: tuple[int | None, ...]) -> str:
    return ",".join("inf" if b is None else str(b) for b in bits)


def _fmt_list(values) -> str:
    return ",".join(str(v) for v in values)


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


# key -> (target object, attribute, parser, formatter); "self" targets the
# ExperimentConfig itself, the others its nested configs.
_SCHEMA: dict[str, tuple[str, str, Callable, Callable]] = {
    "experiment.schemes": ("self", "schemes", _parse_str_list, _fmt_list),
    "experiment.environments": ("self", "environments", _parse_str_list, _fmt_list),
    "experiment.runs": ("self", "runs", int, str),
    "experiment.master_seed": ("self", "master_seed", int, str),
    "array.tx_antennas": ("self", "tx_antennas", int, str),
    "array.rx_antennas": ("self", "rx_antennas", int, str),
    "array.spacing": ("self", "spacing", _float, repr),
    "packet.beams_per_packet": ("self", "beams_per_packet", _parse_int_list, _fmt_list),
    "quant.bits": ("self", "quant_bits", _parse_bits_list, _fmt_bits_list),
    "channel.path_loss_exponent": ("channel", "path_loss_exponent", _float, repr),
    "channel.cluster_loss_mean_db": ("channel", "cluster_loss_mean_db", _float, repr),
    "channel.cluster_loss_rms_db": ("channel", "cluster_loss_rms_db", _float, repr),
    "channel.cluster_loss_truncation_db": ("channel", "cluster_loss_truncation_db", _float, repr),
    "channel.intra_cluster_angle_std_deg": ("channel", "intra_cluster_angle_std_deg", _float, repr),
    "channel.num_clusters": ("channel", "num_clusters", int, str),
    "channel.rays_per_cluster": ("channel", "rays_per_cluster", int, str),
    "channel.distance_m": ("channel", "distance_m", _float, repr),
    "channel.los": ("channel", "los", _parse_bool, _fmt_bool),
    "channel.max_excess_tap": ("channel", "max_excess_tap", int, str),
    "channel.intra_cluster_tap_spread": ("channel", "intra_cluster_tap_spread", int, str),
    "channel.carrier_hz": ("channel", "carrier_hz", _float, repr),
    "link.tx_power_dbm": ("budget", "tx_power_dbm", _float, repr),
    "link.bandwidth_hz": ("budget", "bandwidth_hz", _float, repr),
    "link.noise_figure_plus_impl_db": ("budget", "noise_figure_plus_impl_db", _float, repr),
    "output.dir": ("self", "out_dir", str.strip, str),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``section.key = value`` lines; '#' starts a comment."""
    values: dict[str, tuple[int, object]] = {}  # key -> (line, value)
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: {key} is already set on line {values[key][0]}")
        _, attr, parser, _ = _SCHEMA[key]
        try:
            values[key] = lineno, parser(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc

    cfg = ExperimentConfig()
    settings: dict[str, dict[str, object]] = {"self": {}, "channel": {}, "budget": {}}
    for key, (_, value) in values.items():
        settings[_SCHEMA[key][0]][key] = value
    self_kwargs = {_SCHEMA[key][1]: value for key, value in settings.pop("self").items()}
    for target, nested in settings.items():
        if nested:
            self_kwargs[target] = _nested_config(getattr(cfg, target), nested)
    return replace(cfg, **self_kwargs)


def _nested_config(default, settings: dict[str, object]):
    """``default`` with ``settings`` (config key -> value) applied.  When
    the config class rejects them, the ConfigError names the keys it
    rejects one at a time against the defaults, or every key set when it
    rejects none of them alone."""

    def build(keys):
        return replace(default, **{_SCHEMA[key][1]: settings[key] for key in keys})

    try:
        return build(settings)
    except ValueError as exc:
        failing = []
        for key in settings:
            try:
                build([key])
            except ValueError:
                failing.append(key)
        raise ConfigError(f"{', '.join(failing or settings)}: {exc}") from exc


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: every key, in schema order."""
    lines = []
    for key, (target, attr, _, fmt) in _SCHEMA.items():
        obj = cfg if target == "self" else getattr(cfg, target)
        lines.append(f"{key} = {fmt(getattr(obj, attr))}")
    return "\n".join(lines) + "\n"
