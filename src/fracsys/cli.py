"""Command-line front end: regime classification, mild-solution runs with
verification artifacts, the kernel property suite, and parameter sweeps.

Exit codes: 0 success, 1 configuration or usage error, 2 solver divergence,
3 step rejection: a step's Picard iteration did not settle to a relative
change below 1e-10 within 25 iterations.  A sweep runs one worker per CPU
the process may run on (its affinity; limit it with e.g. ``taskset``).
``--log-level`` sets the level of the package's log lines on standard
error (default WARNING); they never reach an artifact.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path

import numpy as np

from . import verify
from .config import (PARAM_KEYS, ConfigError, ExperimentConfig, build, parse_config, swept,
                     system_params, write_manifest)
from .exponents import DeltaOutsideWindow, REGIME_NO_GUARANTEE, _fmt, classify
from .kernels import (KernelSpec, SpectralGrid, check_monotone_domination, check_scaling,
                      eval_density_grid, grid_mass, lp_norm_slope, semigroup_residual,
                      tail_mass_bound)
from .solver import SnapshotFormatError, solve, write_artifact, write_snapshot

# summary column -> the verification.txt key it copies
SUMMARY_SOURCES = {"sup_scaled_u1": "decay_sup_scaled_u1", "sup_scaled_u2": "decay_sup_scaled_u2",
                   "slope_u1": "decay_slope_u1", "slope_u2": "decay_slope_u2",
                   "env_k": "env_k_u1", "env_c": "env_c_u1"}
SUMMARY_COLUMNS = ("run_id", "regime", *SUMMARY_SOURCES, "verdict")


def _worker_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# regime

def cmd_regime(args) -> int:
    cfg = parse_config(args.config)
    if args.delta is not None:
        cfg = cfg.with_values(delta=args.delta)
    items = classify(cfg.params, delta=cfg.delta).flat_items()
    lines = [f"{key} = {value}" for key, value in items]
    # the file is written before anything is printed, so a failed write
    # prints nothing on standard output
    if args.out:
        path = Path(args.out) / "regime.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_artifact(path, [(",".join(k for k, _ in items) + "\n"
                               + ",".join(v for _, v in items) + "\n").encode()])
        lines.append(f"# wrote {path}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# solve

def _append_summary(path: Path, row: dict):
    new = not path.exists()
    with open(path, "a", newline="") as fh:
        if new:
            fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        fh.write(",".join(_fmt(row.get(col)) for col in SUMMARY_COLUMNS) + "\n")


def run_experiment(cfg: ExperimentConfig, out_base: Path, append_summary: bool = True):
    """Classify, solve, verify and write all artifacts for one experiment.

    Returns (exit_code, summary_row, solve_result).
    """
    report = classify(cfg.params, delta=cfg.delta)
    result = solve(cfg.run, report)
    run_dir = out_base / cfg.values.run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    # every writer returns the SHA-256 of the bytes it wrote
    artifacts = {"norms.csv": result.norms.write_csv(run_dir / "norms.csv")}
    for idx, snap in enumerate(result.snapshots):
        name = f"snap_{idx:06d}.bin"
        artifacts[name] = write_snapshot(run_dir / name, snap, result.grid, cfg.params)

    status = result.status
    entries = dict(report.flat_items())
    entries.update(status=status.kind, status_time=status.time)
    entries.update(sorted(result.diagnostics.items()))
    # (line prefix, skip name, check): each check decides itself whether it
    # applies and raises with the reason when it does not
    checks = (("decay", "decay", lambda: verify.decay_report(result.norms, report)),
              ("linf", "linf", lambda: verify.linf_bound_check(result.norms, report)),
              ("env", "envelope", lambda: verify.selfsimilar_envelope_check(
                  result.snapshots, cfg.params, report, cfg.run.init, result.grid)))
    verdicts = []
    for prefix, name, check in checks:
        if not status.completed:
            entries[f"{name}_skipped"] = f"run {status.kind} at t={_fmt(status.time)}"
            continue
        try:
            reports = check()
        except (verify.InsufficientData, verify.RegimeMismatch) as exc:
            entries[f"{name}_skipped"] = str(exc)
            continue
        for rep in reports:
            entries.update((f"{prefix}_{key}_u{rep.component}", value)
                         for key, value in vars(rep).items() if key != "component")
            verdicts.append(rep.verdict)
    row = {"run_id": cfg.values.run_id, "regime": report.regime,
           "verdict": all(verdicts) if verdicts else None}
    row.update((col, entries.get(key)) for col, key in SUMMARY_SOURCES.items())

    text = "".join(f"{key} = {_fmt(value)}\n" for key, value in entries.items())
    artifacts["verification.txt"] = write_artifact(run_dir / "verification.txt", [text.encode()])
    write_manifest(run_dir / "manifest.txt", cfg, artifacts)
    if append_summary:
        _append_summary(out_base / "summary.csv", row)

    if status.kind == "diverged":
        return 2, row, result
    if status.kind == "step_rejected":
        return 3, row, result
    return 0, row, result


def cmd_solve(args) -> int:
    cfg = parse_config(args.config)
    if args.seed_id:
        cfg = cfg.with_values(run_id=args.seed_id)
    if args.delta is not None:
        cfg = cfg.with_values(delta=args.delta)
    out_base = Path(args.out or cfg.values.output_dir)
    code, row, result = run_experiment(cfg, out_base)
    print(f"run_id = {cfg.values.run_id}")
    print(f"regime = {row['regime']}")
    print(f"status = {result.status.kind}")
    print(f"status_time = {_fmt(result.status.time)}")
    if result.status.kind == "diverged":
        print(f"# divergence signal near t = {_fmt(result.status.time)} (exploratory; not a blow-up proof)")
    return code


# ---------------------------------------------------------------------------
# verify-kernel

# the grid of the semigroup and mass checks, per dimension
KERNEL_GRIDS = {1: SpectralGrid(1, 512, 30.0), 2: SpectralGrid(2, 128, 20.0),
                3: SpectralGrid(3, 64, 15.0)}


def _kernel_checks(alpha: float, dim: int):
    """Property suite for one (alpha, dim): yields (name, value, bound, ok)."""
    tol_ident = 1e-12 if alpha in (1.0, 2.0) else 1e-6
    spec = KernelSpec(alpha, dim)
    radii = np.linspace(0.0, 8.0, 33)

    err = check_scaling(spec, 2.0, 0.7, radii)
    yield "scaling_rel_err", err, tol_ident, err <= tol_ident

    margin = check_monotone_domination(spec, 1.5, 0.6, radii)
    yield "domination_min_margin", margin, -1e-12, margin >= -1e-12

    grid = KERNEL_GRIDS[dim]
    res = semigroup_residual(spec, 1.0, 0.5, grid)
    yield "semigroup_residual", res, 1e-6, res <= 1e-6

    fld = eval_density_grid(spec, 1.0, grid)
    mass_err = abs(grid_mass(fld, grid) - 1.0)
    mass_tol = 2.0 * tail_mass_bound(spec, 1.0, grid.half_length) + 1e-9
    yield "mass_err", mass_err, mass_tol, mass_err <= mass_tol

    peak_idx = (grid.n // 2,) * dim
    unimodal = float(fld.max()) <= float(fld[peak_idx]) * (1.0 + 1e-12)
    yield "unimodal", 0.0 if unimodal else 1.0, 0.0, unimodal
    mirrored = np.roll(np.flip(fld), 1, axis=tuple(range(dim)))
    sym = float(np.abs(fld - mirrored).max()) / float(fld.max())
    yield "symmetry_rel_err", sym, 1e-14, sym <= 1e-14

    slope = lp_norm_slope(spec, 2.0, [1.0, 2.0, 4.0, 8.0])
    target = -(dim / alpha) * 0.5
    rel = abs(slope - target) / abs(target)
    yield "l2_slope_rel_err", rel, 5e-3, rel <= 5e-3


def cmd_verify_kernel(args) -> int:
    # every case is checked before the first one runs
    try:
        alphas = [float(v) for v in args.alpha.split(",") if v]
        dims = [int(v) for v in args.dims.split(",") if v]
    except ValueError as exc:
        raise ConfigError("verify-kernel: --alpha and --dims take comma-separated "
                          f"numbers; {exc}") from None
    if not alphas or not dims:
        raise ConfigError("verify-kernel: --alpha and --dims each need at least one value, "
                          f"got --alpha {args.alpha!r} --dims {args.dims!r}")
    if not all(0.0 < a <= 2.0 for a in alphas):
        raise ConfigError(f"verify-kernel: every --alpha must lie in (0, 2], got {args.alpha}")
    if not all(d in KERNEL_GRIDS for d in dims):
        raise ConfigError(f"verify-kernel: every --dims entry must be 1, 2 or 3, got {args.dims}")
    failures = total = 0
    for alpha in alphas:
        for dim in dims:
            try:
                for name, value, bound, ok in _kernel_checks(alpha, dim):
                    total += 1
                    failures += not ok
                    print(f"[{'PASS' if ok else 'FAIL'}] alpha={alpha:g} d={dim} {name} = "
                          f"{value:.6e} (bound {bound:.6e})")
            except ArithmeticError as exc:
                # the rest of this case is skipped; the other cases still run
                total += 1
                failures += 1
                print(f"[FAIL] alpha={alpha:g} d={dim} {type(exc).__name__}: {exc}")
    print(f"# {total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# sweep

SWEEP_COLUMNS = ("index", "sweep_param", "sweep_value", *PARAM_KEYS,
                 "window_lo", "window_hi", "delta", "regime", "theorem3",
                 "status", *SUMMARY_COLUMNS[2:], "error")


def sweep_point(task) -> dict:
    """One sweep point; runs in a worker process when dynamics are on."""
    idx, cfg, name, value, with_dynamics, out_base = task
    row = {"index": idx, "sweep_param": name, "sweep_value": value, "error": ""}
    try:
        values = swept(cfg.values, name, value)._replace(run_id=f"{cfg.values.run_id}-p{idx:04d}")
        # classification works in any dimension; only grids are capped at 3
        params = system_params(values)
        row.update((key, getattr(values, key)) for key in PARAM_KEYS)
        # the classification does not depend on Delta, so a point keeps it
        # when the config's Delta lies outside this point's window
        report = classify(params)
        row.update(window_lo=report.window.lo, window_hi=report.window.hi,
                   regime=report.regime, theorem3=report.theorem3_applicable)
        if values.delta is not None:
            report = classify(params, delta=values.delta)
        row["delta"] = report.delta
        if with_dynamics and report.regime != REGIME_NO_GUARANTEE:
            # workers never touch the shared summary; the sweep CSV is merged
            # by the coordinator
            _, run_row, result = run_experiment(build(values), Path(out_base),
                                                append_summary=False)
            row["status"] = result.status.kind
            row.update((key, run_row[key]) for key in SUMMARY_COLUMNS[2:])
    except Exception as exc:  # single-point failure must not kill the sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _row_text(row: dict) -> str:
    return ",".join(_fmt(row.get(col)) for col in SWEEP_COLUMNS) + "\n"


def _write_whole(path: Path, text: str):
    """Write ``path`` whole or not at all: a torn write leaves only the tmp
    file, which never counts as a finished point or a sweep key."""
    tmp = path.with_name(path.name + ".tmp")
    write_artifact(tmp, [text.encode()])
    os.replace(tmp, path)


def _write_point(points_dir: Path, idx: int, row: dict):
    _write_whole(points_dir / f"point_{idx:04d}.csv", _row_text(row))


SWEEP_KEY = "sweep_key.txt"


def _claim_points(points_dir: Path, key: str):
    """Tie ``points_dir`` to one sweep: finished points are reused only under
    the key they were written with.  A mismatch raises and deletes nothing."""
    path = points_dir / SWEEP_KEY
    if path.exists():
        found = path.read_text()
        if found != key:
            raise ConfigError(f"{points_dir} holds points of another sweep "
                              f"({'; '.join(found.splitlines())}); "
                              f"rerun with that config or choose another --out")
    elif any(points_dir.glob("point_*.csv")):
        raise ConfigError(f"{points_dir} holds points without a {SWEEP_KEY}; "
                          f"choose another --out")
    else:
        _write_whole(path, key)


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    if args.seed_id:
        cfg = cfg.with_values(run_id=args.seed_id)
    name, sweep_values = cfg.values.sweep_param, cfg.values.sweep_values
    if not name or not sweep_values:
        raise ConfigError(f"{args.config}: sweep needs sweep_param and sweep_values")
    for value in sweep_values:    # an unsupported name or value fails before any point
        swept(cfg.values, name, value)
    workers = _worker_count() if args.with_dynamics else 1
    out_base = Path(args.out or cfg.values.output_dir)
    points_dir = out_base / "points"
    points_dir.mkdir(parents=True, exist_ok=True)
    _claim_points(points_dir, f"config_sha256 = {cfg.config_hash()}\n"
                              f"with_dynamics = {_fmt(args.with_dynamics)}\n")

    tasks = []
    for idx, value in enumerate(sweep_values):
        point_path = points_dir / f"point_{idx:04d}.csv"
        if point_path.exists():
            continue  # resumable: keep finished points
        tasks.append((idx, cfg, name, value, args.with_dynamics, str(out_base)))

    # each point file is written as soon as its row is ready, so an
    # interrupted sweep keeps every finished point
    if args.with_dynamics and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = {pool.submit(sweep_point, task): task[0] for task in tasks}
            failures = []
            for done in as_completed(futures):
                try:
                    _write_point(points_dir, futures[done], done.result())
                except Exception as exc:  # e.g. a lost worker; the other points still land
                    failures.append(exc)
            if failures:
                raise failures[0]
    else:
        for task in tasks:
            _write_point(points_dir, task[0], sweep_point(task))

    merged = out_base / "sweep.csv"
    write_artifact(merged, [(",".join(SWEEP_COLUMNS) + "\n").encode()]
                   + [(points_dir / f"point_{idx:04d}.csv").read_bytes()
                      for idx in range(len(sweep_values))])
    print(f"# wrote {merged} ({len(sweep_values)} points)")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fracsys",
                                     description="numerical laboratory for weakly coupled "
                                                 "fractional diffusion systems")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"))

    p_regime = sub.add_parser("regime", parents=[common], help="classify a parameter set")
    p_regime.add_argument("--config", required=True)
    p_regime.add_argument("--out", default="")
    p_regime.add_argument("--delta", type=float, default=None)
    p_regime.set_defaults(func=cmd_regime)

    p_solve = sub.add_parser("solve", parents=[common], help="run the mild-solution solver")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default="")
    p_solve.add_argument("--delta", type=float, default=None)
    p_solve.add_argument("--seed-id", default="", dest="seed_id")
    p_solve.set_defaults(func=cmd_solve)

    p_vk = sub.add_parser("verify-kernel", parents=[common], help="run the kernel property suite")
    p_vk.add_argument("--alpha", default="1,1.5,2")
    p_vk.add_argument("--dims", default="1,2")
    p_vk.set_defaults(func=cmd_verify_kernel)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="classify (and optionally run) a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="")
    p_sweep.add_argument("--with-dynamics", action="store_true", dest="with_dynamics")
    p_sweep.add_argument("--seed-id", default="", dest="seed_id")
    p_sweep.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    # a handler on the root logger, unless one is there already
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("fracsys").setLevel(args.log_level)
    try:
        return args.func(args)
    except (ConfigError, DeltaOutsideWindow, SnapshotFormatError, ArithmeticError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
