"""The four benchmark workloads: the inputs each one generates from a seed,
the CLI call that runs it, and the checks its outputs must pass.

Seed 0 is the nominal seed: it runs the stated parameters in the stated
order, and only its norm histories are compared with the stored reference
files.  Any other seed scales the data amplitude epsilon by a factor drawn
uniformly from [0.8, 1.2] and shuffles the order of the sweep values (or of
the kernel suite's alpha values).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

NOMINAL_SEED = 0
EPSILON_JITTER = 0.2
REFERENCE_RTOL = 1e-13
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

NAMES = ("ref1d", "frac2d", "sweep", "kernel_suite")

# Every verdict run_experiment writes for a completed Theorem-3 run with
# kernel-shaped data in the bounded regime.
ALL_VERDICTS = frozenset(f"{kind}_verdict_u{i}" for kind in ("decay", "linf", "env")
                         for i in (1, 2))

# Regime per beta for the sweep at alpha = 1.5, d = 1, rho = 1, sigma = 0.
SWEEP_REGIMES = {1.5: "NoGuarantee", 2.0: "NoGuarantee", 2.5: "NoGuarantee",
                 3.0: "GlobalSmallDataBounded", 3.5: "GlobalSmallDataBounded",
                 4.0: "GlobalSmallDataBounded", 5.0: "GlobalSmallDataBounded",
                 6.0: "GlobalSmallDataBounded"}
NO_GUARANTEE = "NoGuarantee"

KERNEL_ALPHAS = (1.0, 1.5, 2.0)
KERNEL_DIMS = (1, 2)
KERNEL_CHECKS_PER_CASE = 7


@dataclass
class Workload:
    name: str
    seed: int
    smoke: bool
    config: dict = field(default_factory=dict)    # empty for kernel_suite
    argv_tail: tuple = ()                         # extra CLI arguments
    snapshots: int = 0                            # per solve
    sweep_regimes: dict = field(default_factory=dict)
    kernel_checks: int = 0

    @property
    def reference_checked(self) -> bool:
        return self.seed == NOMINAL_SEED and not self.smoke and self.name != "kernel_suite"

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())

    def argv(self, config_path: Path, out_dir: Path) -> list:
        if self.name == "kernel_suite":
            return ["verify-kernel", *self.argv_tail]
        command = "sweep" if self.name == "sweep" else "solve"
        return [command, "--config", str(config_path), "--out", str(out_dir), *self.argv_tail]

    def check(self, out_dir: Path, stdout: str, code) -> dict:
        """Run every output check; returns {check name: failure text or ''}."""
        results = {"exit_code": "" if code == 0 else f"exit code {code!r}"}
        if self.name == "kernel_suite":
            results["kernel_checks"] = _check_kernel_lines(stdout, self.kernel_checks)
            return results
        if self.name == "sweep":
            results.update(_check_sweep(self, out_dir))
            return results
        run_id = self.config["run_id"]
        results["status"] = "" if "status = completed" in stdout.splitlines() \
            else "run status is not 'completed'"
        results.update(_check_run_dir(self, out_dir / run_id, self.name))
        return results


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _rng(seed: int) -> Optional[random.Random]:
    return None if seed == NOMINAL_SEED else random.Random(seed)


def _epsilon(base: float, rng) -> str:
    if rng is None:
        return _fmt(base)
    return _fmt(base * (1.0 + EPSILON_JITTER * (2.0 * rng.random() - 1.0)))


def _system(alpha: float, beta: float, dim: int) -> dict:
    return {"alpha1": _fmt(alpha), "alpha2": _fmt(alpha), "beta1": _fmt(beta),
            "beta2": _fmt(beta), "rho1": "1", "rho2": "1", "sigma1": "0", "sigma2": "0",
            "dim": str(dim)}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``.

    ``smoke`` shrinks grids, meshes and value lists so that every code path
    and check runs in about a second; it is for the benchmark's own tests.
    """
    rng = _rng(seed)
    if name == "ref1d":
        n, steps, horizon, stride = (512, 40, 10.0, 4) if smoke else (2048, 500, 50.0, 10)
        config = {**_system(2.0, 4.0, 1), "grid_n": str(n), "half_length": "60",
                  "horizon": _fmt(horizon), "steps": str(steps), "snapshot_stride": str(stride),
                  "init": "stable_kernel", "epsilon": _epsilon(1e-2, rng), "delta": "0.3",
                  "run_id": "ref"}
        return Workload(name, seed, smoke, config=config, snapshots=steps // stride + 1)
    if name == "frac2d":
        # 25 steps of 0.1 rather than 100: four times the iterations per run, the same
        # per-step work
        n, half_length, steps, stride = (64, 20, 20, 2) if smoke else (256, 40, 25, 5)
        config = {**_system(1.5, 3.0, 2), "grid_n": str(n), "half_length": str(half_length),
                  "horizon": _fmt(steps / 10), "steps": str(steps), "snapshot_stride": str(stride),
                  "init": "stable_kernel", "epsilon": _epsilon(1e-2, rng), "run_id": "frac2d"}
        return Workload(name, seed, smoke, config=config, snapshots=steps // stride + 1)
    if name == "sweep":
        betas = [2.0, 3.5, 4.0] if smoke else sorted(SWEEP_REGIMES)
        if rng is not None:
            rng.shuffle(betas)
        n, steps, stride = (256, 20, 2) if smoke else (2048, 200, 10)
        config = {**_system(1.5, 4.0, 1), "grid_n": str(n), "half_length": "60",
                  "horizon": "20", "steps": str(steps), "snapshot_stride": str(stride),
                  "init": "stable_kernel",
                  "epsilon": _epsilon(1e-2, rng), "run_id": "sweep", "sweep_param": "beta",
                  "sweep_values": ",".join(_fmt(b) for b in betas)}
        return Workload(name, seed, smoke, config=config, argv_tail=("--with-dynamics",),
                        snapshots=steps // stride + 1, sweep_regimes={b: SWEEP_REGIMES[b] for b in betas})
    if name == "kernel_suite":
        alphas, dims = ([2.0], [1]) if smoke else (list(KERNEL_ALPHAS), list(KERNEL_DIMS))
        tail = ()
        if rng is not None or smoke:
            if rng is not None:
                rng.shuffle(alphas)
            tail = ("--alpha", ",".join(f"{a:g}" for a in alphas),
                    "--dims", ",".join(str(d) for d in dims))
        return Workload(name, seed, smoke, argv_tail=tail,
                        kernel_checks=KERNEL_CHECKS_PER_CASE * len(alphas) * len(dims))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# ---------------------------------------------------------------------------
# output checks

def digest_tree(root: Path) -> dict:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _read_kv(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _check_run_dir(wl: Workload, run_dir: Path, reference_name: str) -> dict:
    """Verdicts, snapshot count and (nominal seed) reference norms of one solve."""
    results = {}
    label = run_dir.name
    report = run_dir / "verification.txt"
    if not report.is_file():
        return {f"verdicts:{label}": f"{report.name} missing"}
    values = _read_kv(report)
    verdicts = {k: v for k, v in values.items() if "_verdict_" in k}
    missing = sorted(ALL_VERDICTS - verdicts.keys())
    false = sorted(k for k, v in verdicts.items() if v != "true")
    results[f"verdicts:{label}"] = "; ".join(filter(None, [
        f"missing {missing}" if missing else "", f"not true {false}" if false else ""]))
    snaps = len(list(run_dir.glob("snap_*.bin")))
    results[f"snapshots:{label}"] = "" if snaps == wl.snapshots else \
        f"{snaps} snapshot files, expected {wl.snapshots}"
    if wl.reference_checked:
        results[f"reference_norms:{label}"] = compare_norms(
            run_dir / "norms.csv", REFERENCE_DIR / f"{reference_name}.norms.csv")
    return results


def compare_norms(path: Path, reference: Path, rtol: float = REFERENCE_RTOL) -> str:
    """'' when every norm column of ``path`` matches ``reference`` within
    ``rtol`` relative (blank cells must stay blank), else the first mismatch."""
    if not path.is_file():
        return f"{path.name} missing"
    got = path.read_text().splitlines()
    want = reference.read_text().splitlines()
    if got[0] != want[0] or len(got) != len(want):
        return f"header or row count differs from {reference.name}"
    for lineno, (g_line, w_line) in enumerate(zip(got[1:], want[1:]), start=2):
        for g, w in zip(g_line.split(","), w_line.split(",")):
            if g == w:
                continue
            if not g or not w:
                return f"line {lineno}: {g!r} vs reference {w!r}"
            gv, wv = float(g), float(w)
            if not abs(gv - wv) <= rtol * abs(wv):
                return f"line {lineno}: {g} vs reference {w} (rel {abs(gv - wv) / abs(wv):.3e})"
    return ""


def _check_sweep(wl: Workload, out_dir: Path) -> dict:
    results = {}
    count = len(wl.sweep_regimes)
    expected = {f"point_{i:04d}.csv" for i in range(count)}
    points_dir = out_dir / "points"
    written = {p.name for p in points_dir.glob("point_*.csv")} if points_dir.is_dir() else set()
    results["point_files"] = "" if written == expected else \
        f"point files {sorted(written)}, expected {sorted(expected)}"
    merged = out_dir / "sweep.csv"
    if not merged.is_file():
        results["sweep_rows"] = "sweep.csv missing"
        return results
    lines = merged.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    problems = [] if len(rows) == count else [f"{len(rows)} rows, expected {count}"]
    dynamics = []
    for row in rows:
        beta = float(row["sweep_value"])
        want = wl.sweep_regimes.get(beta)
        if row["error"]:
            problems.append(f"beta={beta:g}: error {row['error']!r}")
        if row["regime"] != want:
            problems.append(f"beta={beta:g}: regime {row['regime']!r}, expected {want!r}")
        if want == NO_GUARANTEE:
            if row["status"]:
                problems.append(f"beta={beta:g}: NoGuarantee point ran dynamics")
        elif row["status"] != "completed" or row["verdict"] != "true":
            problems.append(f"beta={beta:g}: status {row['status']!r}, verdict {row['verdict']!r}")
        else:
            dynamics.append((int(row["index"]), beta))
    results["sweep_rows"] = "; ".join(problems)
    for idx, beta in dynamics:
        run_dir = out_dir / f"{wl.config['run_id']}-p{idx:04d}"
        results.update(_check_run_dir(wl, run_dir, f"sweep_beta{beta:g}"))
    return results


def _check_kernel_lines(stdout: str, expected: int) -> str:
    lines = stdout.splitlines()
    if not lines or lines[-1] != f"# {expected}/{expected} checks passed":
        return f"last line {lines[-1] if lines else ''!r}, expected {expected}/{expected} passed"
    failed = [line for line in lines[:-1] if not line.startswith("[PASS]")]
    return f"{len(failed)} lines not PASS" if failed else ""

