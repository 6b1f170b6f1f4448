"""Flat key = value experiment configuration, plus the run manifest.

The format is one assignment per line with ``#`` comments.  ``KEYS`` lists
every key once, in manifest order, with its kind and default; parsing, the
resolved (manifest) lines and sweeps all read it.  A manifest is itself a
valid configuration file (checksums ride along as comments), so a finished
run can be reproduced by pointing the CLI at its manifest.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .exponents import SystemParams, _fmt
from .kernels import SpectralGrid
from .solver import InitialData, RunConfig, TimeMesh, mesh_grading, write_artifact

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class ConfigError(ValueError):
    pass


class Kind(NamedTuple):
    parse: Callable    # text -> value; ValueError when the text is invalid
    needs: str         # what an invalid text is told the key needs


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not finite")
    return value


def _optional_number(text: str) -> Optional[float]:
    return _number(text) if text else None


def _numbers(text: str) -> tuple:
    return tuple(_number(v) for v in text.split(",")) if text else ()


NUMBER = Kind(_number, "a finite number")
INTEGER = Kind(int, "an integer")
TEXT = Kind(str, "text")
OPTIONAL_NUMBER = Kind(_optional_number, "a finite number or nothing")
NUMBERS = Kind(_numbers, "a comma-separated list of finite numbers")

# (key, kind, default or None when required, may be swept), in manifest
# order; the first nine keys are the system constants
KEYS = (
    ("alpha1", NUMBER, None, True), ("alpha2", NUMBER, None, True),
    ("beta1", NUMBER, None, True), ("beta2", NUMBER, None, True),
    ("rho1", NUMBER, None, True), ("rho2", NUMBER, None, True),
    ("sigma1", NUMBER, None, True), ("sigma2", NUMBER, None, True),
    ("dim", INTEGER, None, True),
    ("grid_n", INTEGER, None, False),
    ("half_length", NUMBER, None, False),
    ("horizon", NUMBER, None, False),
    ("steps", INTEGER, None, False),
    ("init", TEXT, "stable_kernel", False),
    ("epsilon", NUMBER, "0.01", True),
    ("width", NUMBER, "1.0", False),
    ("init_path", TEXT, "", False),
    ("snapshot_stride", INTEGER, "10", False),
    ("delta", OPTIONAL_NUMBER, "", True),
    ("run_id", TEXT, "run", False),
    ("output_dir", TEXT, "out", False),
    ("sweep_param", TEXT, "", False),
    ("sweep_values", NUMBERS, "", False),
)

# the typed value of every key
Values = namedtuple("Values", [key for key, *_ in KEYS])

PARAM_KEYS = Values._fields[:9]
_SWEPT = {key: (key,) for key, _, _, sweep in KEYS if sweep}
# a pair name sweeps both of its components: "beta" sets beta1 and beta2
_SWEPT.update({key[:-1]: (key, key[:-1] + "2") for key in list(_SWEPT) if key.endswith("1")})
_INTEGER_KEYS = {key for key, kind, _, _ in KEYS if kind is INTEGER}
# retired keys and the one value each still accepts, so that the manifest of
# a run made before their retirement still reproduces it; the mesh grading
# accepts the value derived from the system's sigma, so that a manifest whose
# mesh would change is refused, never re-meshed
RETIRED = {"dealias": "two_thirds", "coupling_scale": 1.0,
           "picard_tol": 1e-10, "picard_max_iter": 25,
           "grading": lambda params: mesh_grading(params.sigma)}


def _show(value) -> str:
    """The canonical text of a value, which parses back to the same value."""
    return ",".join(_fmt(v) for v in value) if isinstance(value, tuple) else _fmt(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """A valid experiment: the typed value of every key and the solver
    settings built from them.  :func:`build` makes one."""

    values: Values
    run: RunConfig

    @property
    def params(self) -> SystemParams:
        return self.run.params

    @property
    def delta(self) -> Optional[float]:
        return self.values.delta

    def with_values(self, **changes) -> "ExperimentConfig":
        return build(self.values._replace(**changes))

    def resolved_lines(self) -> list:
        """Canonical config text reproducing this experiment."""
        return [f"{key} = {_show(value)}" for key, value in zip(Values._fields, self.values)]

    def resolved_text(self) -> str:
        return "\n".join(self.resolved_lines()) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()


def system_params(v: Values) -> SystemParams:
    """The system constants of ``v``; invalid ones raise ValueError."""
    return SystemParams(alpha=(v.alpha1, v.alpha2), beta=(v.beta1, v.beta2),
                        rho=(v.rho1, v.rho2), sigma=(v.sigma1, v.sigma2), dim=v.dim)


def build(v: Values, source: str = "") -> ExperimentConfig:
    """Check ``v`` and build its solver settings; errors are ConfigErrors
    that name ``source`` when one is given."""
    prefix = f"{source}: " if source else ""
    try:
        params = system_params(v)
        run = RunConfig(params=params, grid=SpectralGrid(v.dim, v.grid_n, v.half_length),
                        mesh=TimeMesh(v.horizon, v.steps),
                        init=InitialData(v.init, v.epsilon, v.width, v.init_path or None),
                        snapshot_stride=v.snapshot_stride)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None
    if not _RUN_ID_RE.match(v.run_id):
        raise ConfigError(f"{prefix}run_id {v.run_id!r} is not filesystem-safe")
    return ExperimentConfig(v, run)


def swept(v: Values, name: str, value: float) -> Values:
    """``v`` with the sweep parameter ``name`` set to ``value``; an integer
    key refuses a non-integral value rather than truncate it."""
    if name not in _SWEPT:
        raise ConfigError(f"unsupported sweep parameter {name!r}")
    keys = _SWEPT[name]
    if keys[0] in _INTEGER_KEYS and value != int(value):
        raise ConfigError(f"sweep_param {name!r} needs integer sweep_values, got {_fmt(value)}")
    return v._replace(**{key: int(value) if key in _INTEGER_KEYS else value for key in keys})


def _check_retired(raw: dict, params: SystemParams, source: str):
    """Refuse a retired key of ``raw`` set to any value but the one it accepts."""
    for key, (text, lineno) in raw.items():
        if key not in RETIRED:
            continue
        accepted = RETIRED[key]
        if callable(accepted):
            accepted = accepted(params)
        try:
            ok = type(accepted)(text) == accepted
        except ValueError:
            ok = False
        if not ok:
            raise ConfigError(f"{source}:{lineno}: key {key!r} is retired and accepts only "
                              f"{_fmt(accepted)}, got {text!r}")


def _parse_lines(text: str, source: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in Values._fields and key not in RETIRED:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = (value, lineno)
    return out


def parse_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config_text(text, str(path))


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    raw = _parse_lines(text, source)
    typed = {}
    for key, kind, default, _ in KEYS:
        if default is None and key not in raw:
            raise ConfigError(f"{source}: missing required key {key!r}")
        value, lineno = raw.get(key, (default, 0))
        try:
            typed[key] = kind.parse(value)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: key {key!r} needs {kind.needs}, "
                              f"got {value!r}") from None
    config = build(Values(**typed), source)
    _check_retired(raw, config.params, source)
    return config


# no program path calls this (write_artifact hashes as it writes); it stays
# while perfbench/tracing.py traces it
def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_manifest(path, config: ExperimentConfig, artifacts: dict):
    """Manifest = resolved config + checksum comments; itself a valid config."""
    lines = ["# fracsys run manifest (feed back to --config to reproduce)",
             f"# config_sha256 = {config.config_hash()}"]
    lines += config.resolved_lines()
    for name in sorted(artifacts):
        lines.append(f"# sha256 {name} = {artifacts[name]}")
    write_artifact(path, [("\n".join(lines) + "\n").encode()])
