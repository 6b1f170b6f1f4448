"""Flat key = value experiment configuration, plus the run manifest.

The format is one assignment per line with ``#`` comments.  A manifest is
itself a valid configuration file (checksums ride along as comments), so a
finished run can be reproduced by pointing the CLI at its manifest.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .exponents import SystemParams
from .kernels import SpectralGrid
from .solver import InitialData, RunConfig, TimeMesh

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")

_DEFAULTS = {
    "grading": "1.0",
    "init": "stable_kernel",
    "epsilon": "0.01",
    "width": "1.0",
    "init_path": "",
    "picard_tol": "1e-10",
    "picard_max_iter": "25",
    "dealias": "two_thirds",
    "snapshot_stride": "10",
    "coupling_scale": "1.0",
    "delta": "",
    "run_id": "run",
    "output_dir": "out",
    "sweep_param": "",
    "sweep_values": "",
}

_REQUIRED = ("alpha1", "alpha2", "beta1", "beta2", "rho1", "rho2",
             "sigma1", "sigma2", "dim", "grid_n", "half_length",
             "horizon", "steps")

_ALL_KEYS = set(_REQUIRED) | set(_DEFAULTS)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    params: SystemParams
    grid: SpectralGrid
    mesh: TimeMesh
    init: InitialData
    picard_tol: float
    picard_max_iter: int
    dealias: str
    snapshot_stride: int
    coupling_scale: float
    delta: Optional[float]
    run_id: str
    output_dir: str
    sweep_param: str = ""
    sweep_values: tuple = ()

    def run_config(self) -> RunConfig:
        """The solver settings; invalid ones raise :class:`ConfigError`."""
        try:
            return RunConfig(params=self.params, grid=self.grid, mesh=self.mesh,
                             init=self.init, picard_tol=self.picard_tol,
                             picard_max_iter=self.picard_max_iter, dealias=self.dealias,
                             snapshot_stride=self.snapshot_stride,
                             coupling_scale=self.coupling_scale)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def resolved_lines(self) -> list:
        """Canonical config text reproducing this experiment."""
        p, g, m, i = self.params, self.grid, self.mesh, self.init

        def f(x):
            return f"{x:.17g}"

        items = [
            ("alpha1", f(p.alpha[0])), ("alpha2", f(p.alpha[1])),
            ("beta1", f(p.beta[0])), ("beta2", f(p.beta[1])),
            ("rho1", f(p.rho[0])), ("rho2", f(p.rho[1])),
            ("sigma1", f(p.sigma[0])), ("sigma2", f(p.sigma[1])),
            ("dim", str(p.dim)),
            ("grid_n", str(g.n)), ("half_length", f(g.half_length)),
            ("horizon", f(m.horizon)), ("steps", str(m.steps)), ("grading", f(m.grading)),
            ("init", i.kind), ("epsilon", f(i.epsilon)), ("width", f(i.width)),
            ("init_path", i.path or ""),
            ("picard_tol", f(self.picard_tol)),
            ("picard_max_iter", str(self.picard_max_iter)),
            ("dealias", self.dealias),
            ("snapshot_stride", str(self.snapshot_stride)),
            ("coupling_scale", f(self.coupling_scale)),
            ("delta", "" if self.delta is None else f(self.delta)),
            ("run_id", self.run_id),
            ("output_dir", self.output_dir),
            ("sweep_param", self.sweep_param),
            ("sweep_values", ",".join(f(v) for v in self.sweep_values)),
        ]
        return [f"{k} = {v}" for k, v in items]

    def resolved_text(self) -> str:
        return "\n".join(self.resolved_lines()) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()


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
        if key not in _ALL_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = (value, lineno)
    return out


def _get_float(raw, key, source):
    value, lineno = raw[key]
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{source}:{lineno}: key {key!r} needs a number, got {value!r}") from None


def _get_int(raw, key, source):
    value, lineno = raw[key]
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{source}:{lineno}: key {key!r} needs an integer, got {value!r}") from None


def parse_config(path) -> ExperimentConfig:
    source = str(path)
    text = Path(path).read_text()
    return parse_config_text(text, source)


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    raw = _parse_lines(text, source)
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"{source}: missing required key {key!r}")
    for key, default in _DEFAULTS.items():
        raw.setdefault(key, (default, 0))

    try:
        params = SystemParams(
            alpha=(_get_float(raw, "alpha1", source), _get_float(raw, "alpha2", source)),
            beta=(_get_float(raw, "beta1", source), _get_float(raw, "beta2", source)),
            rho=(_get_float(raw, "rho1", source), _get_float(raw, "rho2", source)),
            sigma=(_get_float(raw, "sigma1", source), _get_float(raw, "sigma2", source)),
            dim=_get_int(raw, "dim", source),
        )
        grid = SpectralGrid(dim=params.dim, n=_get_int(raw, "grid_n", source),
                            half_length=_get_float(raw, "half_length", source))
        mesh = TimeMesh(horizon=_get_float(raw, "horizon", source),
                        steps=_get_int(raw, "steps", source),
                        grading=_get_float(raw, "grading", source))
        init = InitialData(kind=raw["init"][0], epsilon=_get_float(raw, "epsilon", source),
                           width=_get_float(raw, "width", source),
                           path=raw["init_path"][0] or None)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{source}: {exc}") from exc

    delta_raw = raw["delta"][0]
    sweep_values = ()
    if raw["sweep_values"][0]:
        try:
            sweep_values = tuple(float(v) for v in raw["sweep_values"][0].split(","))
        except ValueError:
            raise ConfigError(f"{source}: sweep_values must be a comma-separated number list") from None

    run_id = raw["run_id"][0]
    if not _RUN_ID_RE.match(run_id):
        raise ConfigError(f"{source}: run_id {run_id!r} is not filesystem-safe")

    return ExperimentConfig(
        params=params, grid=grid, mesh=mesh, init=init,
        picard_tol=_get_float(raw, "picard_tol", source),
        picard_max_iter=_get_int(raw, "picard_max_iter", source),
        dealias=raw["dealias"][0],
        snapshot_stride=_get_int(raw, "snapshot_stride", source),
        coupling_scale=_get_float(raw, "coupling_scale", source),
        delta=float(delta_raw) if delta_raw else None,
        run_id=run_id,
        output_dir=raw["output_dir"][0],
        sweep_param=raw["sweep_param"][0],
        sweep_values=sweep_values,
    )


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
    Path(path).write_text("\n".join(lines) + "\n")
