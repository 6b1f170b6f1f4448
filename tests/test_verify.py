"""Bound verification on solver output: decay law, sup-norm bound,
self-similar envelope, and the discrete comparison principle."""

import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from conftest import SMALL, comparison_check, envelope_series, solve_kept, unscaled
from fracsys.exponents import SystemParams, classify
from fracsys.kernels import KernelSpec, SpectralGrid, eval_density_grid, lp_norm
from fracsys.solver import FieldPair, InitialData, NormSeries, RunConfig, TimeMesh, solve
from fracsys.verify import (InsufficientData, RegimeMismatch, decay_report, envelope_ratios,
                            linf_bound_check, selfsimilar_envelope_check)

PARAMS_B4 = SystemParams((2, 2), (4, 4), (1, 1), (0, 0), 1)
GRID = SpectralGrid(1, 512, 30.0)
EPS = 1e-2
KERNEL_DATA = InitialData("stable_kernel", epsilon=EPS)


@pytest.fixture(scope="module")
def report():
    return classify(PARAMS_B4, delta=0.3)


# a completed run's norm series and the snapshots its sink kept
Run = namedtuple("Run", "norms snapshots")


def _run(epsilon=EPS, horizon=6.0, steps=60, stride=5, scale=lambda res, kept: (res, kept)):
    cfg = RunConfig(PARAMS_B4, GRID, TimeMesh(horizon, steps),
                    InitialData("stable_kernel", epsilon=epsilon), snapshot_stride=stride)
    res, snapshots = scale(*solve_kept(cfg, classify(PARAMS_B4, delta=0.3)))
    assert res.status.completed
    return Run(res.norms, snapshots)


@pytest.fixture(scope="module")
def run_small():
    return _run()


@pytest.fixture(scope="module")
def run_half():
    return _run(epsilon=EPS / 2)


@pytest.fixture(scope="module")
def run_linear():
    """The linear flow of run_small's data."""
    return _run(epsilon=EPS * SMALL, scale=unscaled)


# ---------------------------------------------------------------------------
# decay law

def test_decay_constant_series_degenerate(report):
    t = np.linspace(0.0, 10.0, 41)
    ones = np.ones((t.size, 2))
    series = NormSeries(t=t, linf=ones.copy(), ls=ones.copy(), scaled=ones.copy(),
                        mass=ones.copy(), picard_iters=np.zeros(t.size, dtype=int))
    flat = replace(report, xi=(0.0, 0.0))
    for rep in decay_report(series, flat):
        assert rep.sup_scaled == 1.0
        assert abs(rep.slope) < 1e-12
        assert rep.verdict


def test_decay_small_data_run(run_small, report):
    for rep in decay_report(run_small.norms, report):
        assert math.isfinite(rep.sup_scaled)
        assert rep.verdict
        assert rep.slope_target == pytest.approx(-7.0 / 30.0)


def test_decay_linear_run_reproduces_lp_slope(ref_linear_run, report):
    # propagated kernel: ||u(t)||_s ~ t^{-(d rho/alpha)(1 - 1/s)} for large t;
    # needs the long-horizon run (the local slope is -0.4 t/(1+t))
    target = -(1.0 / 2.0) * (1.0 - 1.0 / 5.0)
    reps = decay_report(ref_linear_run.norms, report)
    for rep in reps:
        assert abs(rep.slope - target) <= 0.05 * abs(target)


@pytest.mark.parametrize("alpha,n,half_length,scale", [
    pytest.param(1.0, 4096, 600.0, 2.0**-40, id="1.0-4096-600.0"),
    pytest.param(1.5, 2048, 150.0, 2.0**-40, id="1.5-2048-150.0"),
    # u^10 of data near 1e-32 underflows: the s-norm must be taken relative to the peak
    pytest.param(1.0, 4096, 600.0, 2.0**-100, id="underflow-1.0-4096-600.0")])
def test_decay_linear_slope_heavy_tails(alpha, n, half_length, scale):
    # same norm-decay law for the heavy-tailed kernels; the s-norm amplifies
    # the periodic wrap-around floor by a factor ~s, so the box must grow as
    # the tails get heavier (for alpha=1 the floor is ~t^2/(2 L^2) of peak).
    # Data of size 1e-2 * 2**-40 leave the beta = 4 coupling (1e-14)^3 of the
    # linear flow.
    params = SystemParams((alpha, alpha), (4, 4), (1, 1), (0, 0), 1)
    rep = classify(params, delta=0.3)
    cfg = RunConfig(params, SpectralGrid(1, n, half_length), TimeMesh(40.0, 200),
                    InitialData("stable_kernel", epsilon=1e-2 * scale), snapshot_stride=10**9)
    res = solve(cfg, rep)
    assert res.status.completed
    assert np.all(res.norms.ls > 0.0)
    target = -(1.0 / alpha) * (1.0 - 1.0 / rep.s[0])
    for d in decay_report(res.norms, rep):
        assert abs(d.slope - target) <= 0.05 * abs(target)


def test_decay_zero_norms_fail(report):
    # log(0) leaves no slope to fit; a NaN slope must not pass
    t = np.linspace(0.0, 10.0, 41)
    zeros = np.zeros((t.size, 2))
    series = NormSeries(t=t, linf=zeros, ls=zeros, scaled=zeros, mass=zeros,
                        picard_iters=np.zeros(t.size, dtype=int))
    with np.errstate(divide="ignore", invalid="ignore"):
        reps = decay_report(series, report)
    for rep in reps:
        assert not math.isfinite(rep.slope)
        assert not rep.verdict


def test_decay_insufficient_data(report):
    t = np.linspace(0.0, 2.0, 6)
    ones = np.ones((t.size, 2))
    series = NormSeries(t=t, linf=ones, ls=ones, scaled=ones, mass=ones,
                        picard_iters=np.zeros(t.size, dtype=int))
    with pytest.raises(InsufficientData):
        decay_report(series, report)


def test_decay_requires_norm_orders():
    no_guarantee = classify(SystemParams((2, 2), (2, 2), (1, 1), (0, 0), 1))
    t = np.linspace(0, 5, 20)
    ones = np.ones((t.size, 2))
    series = NormSeries(t=t, linf=ones, ls=ones, scaled=ones, mass=ones,
                        picard_iters=np.zeros(t.size, dtype=int))
    with pytest.raises(RegimeMismatch, match="global-existence regime, got NoGuarantee"):
        decay_report(series, no_guarantee)
    self_similar = classify(SystemParams((1, 1), (3, 3), (1, 1), (3, 3), 3))
    with pytest.raises(RegimeMismatch, match="norm orders attached"):
        decay_report(series, self_similar)


# ---------------------------------------------------------------------------
# sup-norm bound

def test_linf_bound_exponent_and_verdict(run_small, report):
    reps = linf_bound_check(run_small.norms, report)
    for rep in reps:
        assert rep.exponent == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert rep.verdict
        assert rep.max_excess <= 0.05


def test_linf_bound_linear_run_trivial(run_linear, report):
    for rep in linf_bound_check(run_linear.norms, report):
        assert rep.verdict


def test_linf_bound_regime_gate(run_small):
    small_data_only = classify(SystemParams((2, 2), (2, 2), (1, 1), (0, 0), 3))
    with pytest.raises(RegimeMismatch):
        linf_bound_check(run_small.norms, small_data_only)


def test_linf_bound_alpha_equals_dim_boundary():
    # alpha_i = d: the boundedness cap coincides with the window cap, so the
    # bounded regime is automatic whenever the window is nonempty
    params = SystemParams((1, 1), (4, 4), (1, 1), (0, 0), 1)
    rep = classify(params, delta=0.3)
    assert rep.regime == "GlobalSmallDataBounded"
    assert rep.k_hat == rep.k_tilde
    cfg = RunConfig(params, SpectralGrid(1, 512, 40.0), TimeMesh(6.0, 60),
                    InitialData("stable_kernel", epsilon=1e-2), snapshot_stride=10)
    res = solve(cfg, rep)
    assert res.status.completed
    for b in linf_bound_check(res.norms, rep):
        assert math.isfinite(b.exponent)
        assert b.exponent == pytest.approx(-1.0 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# self-similar envelope

def test_envelope_initial_ratio_is_epsilon(run_small):
    first = run_small.snapshots[0]
    assert first.time == 0.0
    assert envelope_ratios(first, PARAMS_B4, GRID) == pytest.approx([EPS, EPS], abs=1e-10)


def test_envelope_ratios_of_an_aliased_pair_are_those_of_its_copy(run_small):
    # the one field of an aliased pair is divided once
    for s in run_small.snapshots:
        got, want = (envelope_ratios(FieldPair(s.u1, u2, s.time), PARAMS_B4, GRID)
                     for u2 in (s.u1, s.u1.copy()))
        assert np.array(got).tobytes() == np.array(want).tobytes()


def _shape_ratios(snapshots, mask_threshold):
    """max_x u_i(t, x) / p(1 + t, x) per snapshot and component, over the
    points where p(1 + t, x) is at least ``mask_threshold`` of its peak."""
    spec = KernelSpec(PARAMS_B4.alpha[0], PARAMS_B4.dim)
    times = np.array([snap.time for snap in snapshots])
    shapes = np.zeros((times.size, 2))
    for k, snap in enumerate(snapshots):
        kern = eval_density_grid(spec, 1.0 + snap.time, GRID)
        mask = kern >= mask_threshold * kern.max()
        for i, u in enumerate(snap.components()):
            shapes[k, i] = float((u[mask] / kern[mask]).max())
    return times, shapes


def test_envelope_linear_run_flat_shape(run_linear, report):
    # mask above the per-step clamp noise so the semigroup identity is clean
    times, shapes = _shape_ratios(run_linear.snapshots, 1e-6)
    fit = times >= 1.0
    for i in (0, 1):
        # the shape ratio is constant by the semigroup law
        assert np.ptp(shapes[:, i]) <= 1e-6 * shapes[:, i].max()
        # so the envelope ratio decays like (1 + t)^{-d rho/alpha}
        ratios = shapes[:, i] * (1.0 + times) ** -0.5
        slope, intercept = np.polyfit(np.log1p(times[fit]), np.log(ratios[fit]), 1)
        assert -slope == pytest.approx(0.5, rel=0.05)
        bound = math.exp(intercept) * (1.0 + times) ** slope
        assert float(np.max(ratios / bound)) - 1.0 <= 1e-8
    # the check at its own mask fits the same decay
    for rep in selfsimilar_envelope_check(*envelope_series(run_linear.snapshots, PARAMS_B4, GRID),
                                          report, KERNEL_DATA):
        assert rep.k == pytest.approx(0.5, rel=0.05)


def test_envelope_default_mask_still_passes_verdict(run_linear, report):
    # at the default mask floor the far-tail clamp noise inflates ratios by well
    # under the 10% slack
    for rep in selfsimilar_envelope_check(*envelope_series(run_linear.snapshots, PARAMS_B4, GRID),
                                          report, KERNEL_DATA):
        assert rep.verdict
        assert rep.violation <= 0.05


def test_envelope_small_data_verdict(run_small, report):
    for rep in selfsimilar_envelope_check(*envelope_series(run_small.snapshots, PARAMS_B4, GRID),
                                          report, KERNEL_DATA):
        assert rep.k > 0.0
        assert rep.verdict


def test_envelope_requires_matching_generators(run_small):
    mixed = SystemParams((2, 1), (4, 4), (1, 1), (0, 0), 1)
    with pytest.raises(RegimeMismatch, match="hypothesis does not hold"):
        selfsimilar_envelope_check(*envelope_series(run_small.snapshots, mixed, GRID),
                                   classify(mixed), KERNEL_DATA)


def test_envelope_requires_kernel_shaped_data(run_small, report):
    assert report.theorem3_applicable
    with pytest.raises(RegimeMismatch, match="stable_kernel initial data, got gaussian"):
        selfsimilar_envelope_check(*envelope_series(run_small.snapshots, PARAMS_B4, GRID), report,
                                   InitialData("gaussian", epsilon=EPS))


# ---------------------------------------------------------------------------
# comparison principle

def test_comparison_reflexive(run_small):
    rep = comparison_check(run_small.snapshots, run_small.snapshots)
    assert rep.ordered
    assert rep.worst_margin == 0.0


def test_comparison_ordered_in_data(run_small, run_half):
    rep = comparison_check(run_small.snapshots, run_half.snapshots)
    assert rep.ordered


def test_comparison_nonlinear_dominates_linear(run_small, run_linear):
    # the coupling only adds a nonnegative contribution to the linear flow
    rep = comparison_check(run_small.snapshots, run_linear.snapshots)
    assert rep.ordered


def test_comparison_transitive_triple(run_small, run_half):
    quarter = _run(epsilon=EPS / 4)
    assert comparison_check(run_small.snapshots, run_half.snapshots).ordered
    assert comparison_check(run_half.snapshots, quarter.snapshots).ordered
    assert comparison_check(run_small.snapshots, quarter.snapshots).ordered


def test_comparison_detects_violation(run_small):
    bumped = [FieldPair(s.u1.copy(), s.u2.copy(), s.time) for s in run_small.snapshots]
    bumped[1].u1 += 1.0
    rep = comparison_check(run_small.snapshots, bumped)
    assert not rep.ordered
    assert rep.worst_margin <= -1.0
    assert rep.worst_time == run_small.snapshots[1].time


def test_comparison_grid_mismatch(run_small):
    other = _run(epsilon=EPS, stride=7)
    with pytest.raises(ValueError):
        comparison_check(run_small.snapshots, other.snapshots)
