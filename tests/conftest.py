"""Shared fixtures and reference helpers: the reference experiment is
expensive enough to run once per session and share across the verification
and acceptance tests.  The comparison check lives here because only tests call
it: no program path compares two runs."""

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from fracsys.config import ExperimentConfig, parse_config_text
from fracsys.exponents import SystemParams, classify
from fracsys.kernels import symbol_exponent
from fracsys.solver import NORM_COLUMNS, FieldPair, NormSeries, SolveResult


REF_EPSILON = 1e-2
# Data scaled by SMALL leave the coupling term t^sigma u_j^beta_i at most
# SMALL**(beta_i - 1) of the linear flow, far below roundoff: a solve from
# them runs the program's path and takes one Picard iteration per step, and
# its fields times 1 / SMALL (exact in binary) are the linear flow of the
# unscaled data.
SMALL = 2.0**-100
# ordering tolerance of the comparison check, relative to the upper sup norm
COMPARISON_TOL = 1e-9

# snapshot header constants the paper excludes, each as (byte offset, value):
# alpha_1 lies at byte 32, beta_1 at 48, rho_1 at 64 and sigma_1 at 80 of
# the header
BAD_HEADER_VALUES = {"alpha1=5": (32, 5.0), "alpha1=nan": (32, math.nan),
                     "beta1=1": (48, 1.0), "sigma1=-2": (80, -2.0),
                     "beta1=inf": (48, math.inf), "rho1=inf": (64, math.inf),
                     "sigma1=inf": (80, math.inf)}

REFERENCE_TEXT = """
alpha1 = 2
alpha2 = 2
beta1 = 4
beta2 = 4
rho1 = 1
rho2 = 1
sigma1 = 0
sigma2 = 0
dim = 1
grid_n = 2048
half_length = 60
horizon = 50
steps = 500
delta = 0.3
run_id = ref
"""


def reference_params() -> SystemParams:
    return SystemParams(alpha=(2.0, 2.0), beta=(4.0, 4.0), rho=(1.0, 1.0),
                        sigma=(0.0, 0.0), dim=1)


def reference_config(epsilon=REF_EPSILON) -> ExperimentConfig:
    return parse_config_text(REFERENCE_TEXT + f"epsilon = {epsilon!r}\n")


def propagate_reference(values, grid, alpha, rho, t_from, t_to):
    """The linear flow exp(-(t_to^rho - t_from^rho)|xi|^alpha) applied with
    numpy's n-D transforms: the oracle for small-data runs."""
    tau = t_to**rho - t_from**rho
    spectrum = np.exp(-tau * symbol_exponent(grid, alpha)) * np.fft.rfftn(values)
    return np.fft.irfftn(spectrum, s=grid.shape(), axes=tuple(range(grid.dim)))


def unscaled(result: SolveResult) -> SolveResult:
    """A solve from data scaled by SMALL with its fields and norms scaled
    back: the linear flow of the unscaled data."""
    n = result.norms
    norms = replace(n, linf=n.linf / SMALL, ls=n.ls / SMALL, scaled=n.scaled / SMALL,
                    mass=n.mass / SMALL)
    snapshots = [FieldPair(s.u1 / SMALL, s.u2 / SMALL, s.time) for s in result.snapshots]
    return replace(result, snapshots=snapshots, norms=norms)


def read_norms_csv(path) -> NormSeries:
    """A ``norms.csv`` artifact read back; blank cells become NaN."""
    rows = Path(path).read_text().splitlines()
    assert tuple(rows[0].split(",")) == NORM_COLUMNS
    arr = np.array([[float(v) if v else math.nan for v in line.split(",")] for line in rows[1:]])
    return NormSeries(t=arr[:, 0], linf=arr[:, 1:3], ls=arr[:, 3:5], scaled=arr[:, 5:7],
                      mass=arr[:, 7:9], picard_iters=arr[:, 9].astype(int))


@dataclass
class ComparisonReport:
    ordered: bool
    worst_margin: float
    worst_time: float
    worst_index: tuple


def comparison_check(upper_snapshots, lower_snapshots) -> ComparisonReport:
    """Pointwise ordering of two runs sharing grid view and mesh: every shared
    snapshot must satisfy u >= v - tol with tol = COMPARISON_TOL * ||u||_inf."""
    if len(upper_snapshots) != len(lower_snapshots):
        raise ValueError("runs have different snapshot counts")
    worst = math.inf
    worst_t = math.nan
    worst_idx = ()
    ordered = True
    for up, lo in zip(upper_snapshots, lower_snapshots):
        if up.u1.shape != lo.u1.shape:
            raise ValueError("snapshot grids do not match")
        if up.time != lo.time:
            raise ValueError(f"snapshot times differ: {up.time} vs {lo.time}")
        for i, (a, b) in enumerate(zip(up.components(), lo.components())):
            diff = a - b
            m = float(diff.min())
            if m < worst:
                worst = m
                worst_t = up.time
                worst_idx = (i + 1,) + np.unravel_index(int(diff.argmin()), diff.shape)
            tol = COMPARISON_TOL * float(np.abs(a).max(initial=0.0))
            if m < -tol:
                ordered = False
    return ComparisonReport(ordered=ordered, worst_margin=worst,
                            worst_time=worst_t, worst_index=worst_idx)


def eta_theta_residuals(params, xi, delta_small):
    """The two window-derivation combinations

        eta_i   = xi_i + sigma_i - beta_i xi_j - delta_i rho_i + 1
        theta_i = sigma_i + [sigma_j - beta_j xi_i - delta_j rho_j + 1] beta_i
                  - delta_i rho_i + xi_i + 1

    in plain floats from derived xi and delta_small; both vanish
    identically when the norm orders are consistent."""
    eta, theta = [], []
    for i in (0, 1):
        j = 1 - i
        si, sj = params.sigma[i], params.sigma[j]
        bi, bj = params.beta[i], params.beta[j]
        ri, rj = params.rho[i], params.rho[j]
        eta.append(xi[i] + si - bi * xi[j] - delta_small[i] * ri + 1.0)
        theta.append(si + (sj - bj * xi[i] - delta_small[j] * rj + 1.0) * bi
                     - delta_small[i] * ri + xi[i] + 1.0)
    return tuple(eta), tuple(theta)


@pytest.fixture(scope="session")
def ref_report():
    return classify(reference_params(), delta=0.3)


@pytest.fixture(scope="session")
def ref_outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("refrun")


@pytest.fixture(scope="session")
def ref_run(ref_outdir, ref_report):
    """Reference experiment through the CLI runner (artifacts on disk)."""
    import time

    from fracsys.cli import run_experiment

    start = time.perf_counter()
    cfg = reference_config()
    code, row, result = run_experiment(cfg, ref_outdir / "a")
    assert code == 0
    return {"config": cfg, "row": row, "result": result, "dir": ref_outdir / "a",
            "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="session")
def ref_linear_run(ref_report):
    """The linear flow of the reference data: the same experiment from data
    scaled by SMALL, scaled back."""
    import time

    from fracsys.solver import solve

    start = time.perf_counter()
    cfg = reference_config(epsilon=REF_EPSILON * SMALL)
    result = unscaled(solve(cfg.run, ref_report))
    assert result.status.completed
    result.diagnostics["elapsed"] = time.perf_counter() - start
    return result
