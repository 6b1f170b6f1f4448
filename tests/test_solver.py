"""Solver mechanics: multiplier propagation, coupling terms, Picard stepping,
trajectory invariants, and the snapshot/norm file formats."""

import math
import struct
import tempfile
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import solve_ivp

from conftest import BAD_HEADER_VALUES, SMALL, propagate_reference, read_norms_csv, solve_kept
from fracsys import solver as solver_module
from fracsys.config import RETIRED, sha256_file
from fracsys.exponents import SystemParams, _fmt, classify
from fracsys import kernels
from fracsys.kernels import (EvenGrid, KernelSpec, SpectralGrid, dealias_mask, density_profile,
                             eval_density_grid, symbol_exponent)
from fracsys.solver import (GAUSS_X, Divergence, FieldPair, InitialData, NormSeries, RunConfig,
                            SnapshotFormatError, StepDiagnostics, StepRejected, TimeMesh,
                            _grid_norms, _Plan, _power, make_initial_data, mesh_grading,
                            _HEADER, read_snapshot, recommended_half_length, solve, step,
                            write_artifact, write_snapshot)
from fracsys.verify import envelope_ratios

PARAMS_B4 = SystemParams((2, 2), (4, 4), (1, 1), (0, 0), 1)
PARAMS_B2 = SystemParams((2, 2), (2, 2), (1, 1), (0, 0), 1)
GRID = SpectralGrid(1, 512, 30.0)


def _config(params=PARAMS_B4, grid=GRID, horizon=2.0, steps=20, init=None, **kw):
    init = init or InitialData("gaussian", epsilon=0.5, width=1.0)
    return RunConfig(params, grid, TimeMesh(horizon, steps), init, **kw)


def _times(cfg):
    """The mesh nodes after t = 0 that :func:`solve` marches for ``cfg``."""
    return [float(t) for t in cfg.mesh.nodes(mesh_grading(cfg.params.sigma))[1:]]


# ---------------------------------------------------------------------------
# mesh and config validation

def test_mesh_nodes_grading():
    mesh = TimeMesh(8.0, 4)
    assert np.allclose(mesh.nodes(2.0), [0.0, 0.5, 2.0, 4.5, 8.0])
    assert np.array_equal(mesh.nodes(1.0), [0.0, 2.0, 4.0, 6.0, 8.0])
    with pytest.raises(ValueError):
        TimeMesh(0.0, 4)
    # solve marches the nodes of the grading that its sigma derives
    params = SystemParams((2, 2), (2, 2), (1, 1), (0.5, 0.5), 1)
    res = solve(_config(params=params, horizon=8.0, steps=4,
                        init=InitialData("gaussian", epsilon=SMALL, width=1.0)))
    assert np.array_equal(res.norms.t, mesh.nodes(4.0 / 3.0))


def test_config_requires_grading_for_singular_weight():
    # the grading is derived, so no config under-resolves the weight: sigma
    # = -1/2 takes 1/(1 + sigma) = 2, the least grading it was allowed
    params = SystemParams((2, 2), (2, 2), (1, 1), (-0.5, -0.5), 1)
    assert _Plan(_config(params=params)).grading == 2.0


# (sigma1, sigma2) and the grading they derive: gamma (1 + sigma_i) is 1 or
# >= 2 for both components, at the least such gamma >= 1
MESH_GRADINGS = [((0.0, 0.0), 1.0), ((1.0, 1.0), 1.0), ((1.5, 1.5), 1.0),
                 ((-0.5, -0.5), 2.0), ((-0.3, -0.3), 1.0 / (1.0 + -0.3)),
                 ((0.5, 0.5), 4.0 / 3.0), ((0.25, 0.25), 1.6), ((0.05, 0.05), 2.0 / 1.05),
                 ((0.0, 0.5), 2.0), ((0.25, 0.5), 1.6), ((-0.25, 0.5), 4.0 / 3.0),
                 ((-0.5, 0.5), 2.0), ((-0.5, 0.0), 2.0), ((0.0, 1.5), 1.0),
                 ((-0.5, -0.25), 4.0)]


@pytest.mark.parametrize("sigma, gamma", MESH_GRADINGS)
def test_mesh_grading_table(sigma, gamma):
    assert mesh_grading(sigma) == gamma
    assert mesh_grading(sigma[::-1]) == gamma


def test_config_dim_mismatch():
    with pytest.raises(ValueError):
        _config(params=SystemParams((2, 2), (2, 2), (1, 1), (0, 0), 2))


def test_recommended_half_length():
    assert recommended_half_length(PARAMS_B4, 50.0) == pytest.approx(6.0 * math.sqrt(50.0))


# ---------------------------------------------------------------------------
# linear propagation: steps from data scaled by SMALL, scaled back

def _decoupled_step(values, t_from, t_to, params=PARAMS_B4):
    small = values * SMALL
    out, diag = step(FieldPair(small, small.copy(), t_from), t_to, _Plan(_config(params=params)))
    assert diag.iterations == 1
    return out.u1 / SMALL


def test_propagate_identity_when_times_equal():
    # the multiplier at tau = 0 is exactly one, so what is left of a step's
    # linear part is a transform round trip
    u = eval_density_grid(KernelSpec(2.0, 1), 1.0, GRID)
    plan = _Plan(_config())
    assert np.all(plan.multiplier(0, 0.0, np.empty_like(plan.symb[0])) == 1.0)
    out = GRID.inverse(GRID.forward(u, plan.hat), plan.work)
    assert np.max(np.abs(out - u)) < 1e-14


def test_propagate_gaussian_semigroup():
    t0, t = 0.5, 2.0
    u = eval_density_grid(KernelSpec(2.0, 1), t0, GRID)
    out = _decoupled_step(u, 0.0, t)
    ref = eval_density_grid(KernelSpec(2.0, 1), t0 + t, GRID, clamp=False)
    assert np.max(np.abs(out - ref)) < 1e-10


def test_propagate_single_mode_multiplier():
    x = GRID.axis()
    k = 2.0 * math.pi * 8 / (2.0 * GRID.half_length)
    u = 1.0 + 0.5 * np.cos(k * x)       # positive, so the step's clamp keeps it
    out = _decoupled_step(u, 0.0, 3.0, params=SystemParams((1.5, 1.5), (4, 4), (0.5, 0.5), (0, 0), 1))
    factor = math.exp(-(3.0**0.5) * k**1.5)
    assert np.max(np.abs(out - (1.0 + 0.5 * factor * np.cos(k * x)))) < 1e-13


def test_propagate_preserves_mass_and_rejects_backwards():
    u = eval_density_grid(KernelSpec(2.0, 1), 1.0, GRID)
    out = _decoupled_step(u, 0.0, 5.0)
    assert out.sum() * GRID.spacing == pytest.approx(u.sum() * GRID.spacing, rel=1e-14)
    with pytest.raises(ValueError):
        step(FieldPair(u, u.copy(), 1.0), 0.5, _Plan(_config()))


def test_time_change_consistency():
    # multiplier over [0, t] equals [0, s] then [s, t]: additivity of t^rho - s^rho
    symb = symbol_exponent(GRID, 1.5)
    rho = 0.7
    t, s = 2.5, 1.2
    direct = np.exp(-(t**rho) * symb)
    split = np.exp(-(s**rho) * symb) * np.exp(-(t**rho - s**rho) * symb)
    assert np.max(np.abs(direct - split)) < 1e-13


# ---------------------------------------------------------------------------
# coupling term: constant fields reduce the system to u1' = u2^beta1,
# u2' = u1^beta2

@pytest.fixture
def tight_picard(monkeypatch):
    """Picard steps that iterate to a change of 1e-14, not the solver's 1e-10."""
    monkeypatch.setattr(solver_module, "PICARD_TOL", 1e-14)


def _constant_step(c1, c2, t_to, params):
    pair = FieldPair(np.full(GRID.shape(), c1), np.full(GRID.shape(), c2), 0.0)
    out, _ = step(pair, t_to, _Plan(_config(params=params)))
    for u in out.components():
        assert np.ptp(u) <= 1e-15 * u.max()      # still constant
    return float(out.u1[0]), float(out.u2[0])


def test_nonlinear_term_zero_component(tight_picard):
    # u2 = 0 feeds u1 nothing to first order; u1 = 2 feeds u2 at rate
    # 2^beta2 = 8, so each power lands in the right equation
    u1, u2 = _constant_step(2.0, 0.0, 1e-3, SystemParams((2, 2), (4, 3), (1, 1), (0, 0), 1))
    assert u1 == pytest.approx(2.0, rel=1e-10)
    assert u2 == pytest.approx(8e-3, rel=1e-9)


def test_nonlinear_term_constant_field(tight_picard):
    # u' = u^2 from u(0) = 3.  The step interpolates u linearly, u = 3 + theta D,
    # and 2-point Gauss integrates the square exactly, so its fixed point solves
    # D = dt (9 + 3 D + D^2 / 3), within O(dt^3) of the exact 3 / (1 - 3 dt) - 3
    dt = 0.01
    a, b, c = dt / 3.0, 3.0 * dt - 1.0, 9.0 * dt
    fixed_point = 3.0 + 2.0 * c / (-b + math.sqrt(b * b - 4.0 * a * c))
    u1, u2 = _constant_step(3.0, 3.0, dt, PARAMS_B2)
    assert u1 == u2 == pytest.approx(fixed_point, rel=1e-13)
    assert u1 == pytest.approx(3.0 / (1.0 - 3.0 * dt), rel=1e-4)


def test_nonlinear_term_fractional_power_refinement_oracle():
    params = SystemParams((2, 2), (2.5, 2.5), (1, 1), (0, 0), 1)
    ends = []
    for grid in (SpectralGrid(1, 256, 30.0), SpectralGrid(1, 1024, 30.0)):
        u = eval_density_grid(KernelSpec(2.0, 1), 1.0, grid)
        plan = _Plan(_config(params=params, grid=grid))
        ends.append(step(FieldPair(u, u.copy(), 1.0), 1.5, plan)[0].u1)
    assert np.max(np.abs(ends[0] - ends[1][::4])) < 1e-8


def test_nonlinear_term_guards(monkeypatch):
    # no negative value reaches the power, in a run whose steps clamp: a step
    # interpolates clamped iterates or checked initial data with weights in (0, 1)
    seen = []
    real = solver_module._power

    def recording(x, beta, scratch):
        seen.append(float(x.min()))
        return real(x, beta, scratch)

    monkeypatch.setattr(solver_module, "_power", recording)
    params, grid, init = CLAMP_CASE
    res = solve(_config(params=params, grid=grid, init=init, horizon=0.6, steps=6))
    assert res.status.completed and res.diagnostics["clamped_values"] > 0
    assert seen and min(seen) >= 0.0
    # the singular weight s^sigma is never sampled at s = 0
    params = SystemParams((2, 2), (2, 2), (1, 1), (-0.5, -0.5), 1)
    u = eval_density_grid(KernelSpec(2.0, 1), 1.0, GRID)
    out, _ = step(FieldPair(u, u.copy(), 0.0), 0.01, _Plan(_config(params=params)))
    assert np.all(np.isfinite(out.u1)) and out.u1.sum() > _decoupled_step(u, 0.0, 0.01).sum()


# ---------------------------------------------------------------------------
# initial data

def test_initial_data_stable_kernel():
    init = InitialData("stable_kernel", epsilon=1.0)
    pair = make_initial_data(init, GRID, PARAMS_B4)
    assert pair.time == 0.0
    assert pair.u1.max() == pytest.approx((4 * math.pi) ** -0.5, rel=1e-10)


@pytest.mark.parametrize("alpha, evaluations", [((2.0, 2.0), 1), ((2.0, 1.5), 2)])
def test_initial_data_stable_kernel_evaluates_each_alpha_once(monkeypatch, alpha, evaluations):
    calls = []

    def counting(spec, t, grid):
        calls.append(spec.alpha)
        return eval_density_grid(spec, t, grid)

    monkeypatch.setattr(solver_module, "eval_density_grid", counting)
    params = SystemParams(alpha, (4, 4), (1, 1), (0, 0), 1)
    pair = make_initial_data(InitialData("stable_kernel", epsilon=0.5), GRID, params)
    assert calls == list(alpha[:evaluations])
    assert pair.u1 is not pair.u2
    for i in (0, 1):
        want = 0.5 * eval_density_grid(KernelSpec(alpha[i], 1), 1.0, GRID)
        assert pair.components()[i].tobytes() == want.tobytes()


def test_initial_data_gaussian_mass():
    init = InitialData("gaussian", epsilon=0.25, width=1.5)
    pair = make_initial_data(init, GRID, PARAMS_B4)
    assert pair.u1.sum() * GRID.spacing == pytest.approx(0.25, rel=1e-10)


def test_initial_data_from_file_roundtrip(tmp_path):
    src = make_initial_data(InitialData("stable_kernel", epsilon=0.5), GRID, PARAMS_B4)
    path = tmp_path / "init.bin"
    write_snapshot(path, src, GRID, PARAMS_B4)
    init = InitialData("from_file", path=str(path))
    back = make_initial_data(init, GRID, PARAMS_B4)
    assert np.array_equal(back.u1, src.u1) and np.array_equal(back.u2, src.u2)


def test_initial_data_grid_mismatch(tmp_path):
    src = make_initial_data(InitialData("stable_kernel"), GRID, PARAMS_B4)
    path = tmp_path / "init.bin"
    write_snapshot(path, src, GRID, PARAMS_B4)
    other = SpectralGrid(1, 256, 30.0)
    with pytest.raises(SnapshotFormatError):
        make_initial_data(InitialData("from_file", path=str(path)), other, PARAMS_B4)


def test_initial_data_kind_validation():
    with pytest.raises(ValueError):
        InitialData("bump")
    with pytest.raises(ValueError):
        InitialData("from_file")


@pytest.mark.parametrize("kw", [{"epsilon": math.nan}, {"epsilon": math.inf},
                                {"epsilon": -1.0}, {"width": 0.0}, {"width": -1.0},
                                {"width": math.nan}, {"epsilon": 0.0}])
def test_initial_data_rejects_bad_amplitude_and_width(kw):
    with pytest.raises(ValueError):
        InitialData("gaussian", **kw)


# ---------------------------------------------------------------------------
# stepping

def _step_reference(pair, t_next, plan):
    """The stepping loop as first written: every Gauss-node term is masked,
    propagated and inverted on its own and summed in real space (8 transforms
    per Picard iteration), with x**beta for every beta."""
    params, grid = plan.config.params, plan.grid
    t_cur = pair.time
    gamma = plan.grading
    tau_a, tau_b = t_cur ** (1.0 / gamma), t_next ** (1.0 / gamma)
    half = 0.5 * (tau_b - tau_a)
    tau_q = 0.5 * (tau_a + tau_b) + half * np.array(solver_module.GAUSS_X)
    s_q = tau_q**gamma
    theta_q = (tau_q - tau_a) / (tau_b - tau_a)
    jac_q = half * gamma * tau_q ** (gamma - 1.0)

    def inverse(spectrum):
        return np.fft.irfftn(spectrum, s=grid.shape(), axes=tuple(range(grid.dim)))

    hat_cur = [np.fft.rfftn(pair.u1), np.fft.rfftn(pair.u2)]
    base, weights, node_mult = [], [], []
    for i in (0, 1):
        rho_i = params.rho[i]
        g_full = np.exp(-(t_next**rho_i - t_cur**rho_i) * plan.symb[i])
        base.append(inverse(g_full * hat_cur[i]))
        weights.append(jac_q * s_q ** params.sigma[i])
        node_mult.append([np.exp(-(t_next**rho_i - s**rho_i) * plan.symb[i]) for s in s_q])

    cur = [pair.u1, pair.u2]
    v = [np.maximum(b, 0.0) for b in base]
    changes = []
    for _ in range(solver_module.PICARD_MAX_ITER):
        new = []
        for i in (0, 1):
            j = 1 - i
            acc = base[i].copy()
            for q in range(s_q.size):
                interp = (1.0 - theta_q[q]) * cur[j] + theta_q[q] * v[j]
                np.maximum(interp, 0.0, out=interp)
                hat = np.fft.rfftn(interp ** params.beta[i]) * plan.mask
                acc += weights[i][q] * inverse(node_mult[i][q] * hat)
            new.append(np.maximum(acc, 0.0))
        diff = 0.0
        for i in (0, 1):
            scale = float(np.abs(new[i]).max(initial=0.0))
            d = float(np.abs(new[i] - v[i]).max(initial=0.0))
            diff = max(diff, d / scale if scale > 0.0 else d)
        changes.append(diff)
        v = new
        if diff < solver_module.PICARD_TOL:
            break
    else:
        raise StepRejected(t_next, changes[-1])
    return FieldPair(v[0], v[1], t_next), StepDiagnostics(len(changes), changes, 0)


GRID_2D = SpectralGrid(2, 32, 10.0)
# the one dealias rule: the two-thirds mask
DEALIAS = [RETIRED["dealias"]]


def _amplitude(epsilon, coupling):
    """Data amplitude for a run with the coupling on (1.0) or, through data
    scaled by SMALL, below roundoff (0.0)."""
    return epsilon if coupling else epsilon * SMALL


@pytest.mark.parametrize("dealias", DEALIAS)
@pytest.mark.parametrize("beta", [2.0, 3.0, 4.0, 3.5])
@pytest.mark.parametrize("coupling", [0.0, 1.0])
def test_step_matches_per_node_reference_2d(dealias, beta, coupling):
    params = SystemParams((1.5, 1.5), (beta, beta), (1.0, 0.7), (0.0, 0.5), 2)
    cfg = _config(params=params, grid=GRID_2D, horizon=0.4, steps=2,
                  init=InitialData("gaussian", epsilon=_amplitude(5.0, coupling), width=1.0))
    plan = _Plan(cfg)
    assert plan.mask.tobytes() == dealias_mask(cfg.grid).tobytes()
    pair = ref = make_initial_data(cfg.init, cfg.grid, cfg.params)
    for t_next in _times(cfg):
        pair, diag = step(pair, t_next, plan)
        ref, ref_diag = _step_reference(ref, t_next, plan)
        assert diag.iterations == ref_diag.iterations
        assert (diag.iterations > 2) == (coupling != 0.0)
        for got, want in zip(pair.components(), ref.components()):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("beta", [2.0, 3.0, 4.0, 3.5])
def test_power_matches_pow(beta):
    x = np.random.default_rng(7).uniform(0.0, 3.0, 4096)
    x[:3] = (0.0, 1.0, 1e-100)
    scratch = np.empty_like(x)
    np.testing.assert_array_max_ulp(_power(x.copy(), beta, scratch), x**beta, maxulp=4)
    work = x.copy()
    assert _power(work, beta, scratch) is work


# ---------------------------------------------------------------------------
# the plan's workspace

@pytest.mark.parametrize("dealias", DEALIAS)
@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
def test_plan_transforms_bitwise_equal_numpy(dim, n, dealias):
    params = SystemParams((1.5, 1.5), (3.0, 3.0), (1.0, 1.0), (0.0, 0.0), dim)
    grid = SpectralGrid(dim, n, 10.0)
    plan = _Plan(_config(params=params, grid=grid))
    assert plan.mask.tobytes() == dealias_mask(grid).tobytes()
    values = np.random.default_rng(dim).standard_normal((n,) * dim)
    spectrum = grid.forward(values, plan.hat)
    assert spectrum is plan.hat
    assert np.array_equal(spectrum, np.fft.rfftn(values))
    assert np.array_equal(grid.forward(values), spectrum)
    want = np.fft.irfftn(spectrum, s=(n,) * dim, axes=tuple(range(dim)))
    assert np.array_equal(grid.inverse(spectrum), want)
    assert grid.inverse(spectrum, plan.work) is plan.work
    assert np.array_equal(plan.work, want)
    out = np.empty(plan.symb[1].shape)
    assert plan.multiplier(1, 0.3, out=out) is out
    assert np.array_equal(out, np.exp(-0.3 * plan.symb[1]))


def _stepper(beta=3.0, epsilon=5.0, steps=6):
    params = SystemParams((1.5, 1.5), (beta, beta), (1.0, 0.7), (0.0, 0.5), 2)
    cfg = _config(params=params, grid=GRID_2D, horizon=0.6, steps=steps,
                  init=InitialData("gaussian", epsilon=epsilon, width=1.0))
    return cfg, _times(cfg)


def test_step_result_survives_later_steps():
    cfg, times = _stepper()
    plan = _Plan(cfg)
    pair = make_initial_data(cfg.init, cfg.grid, cfg.params)
    pair, _ = step(pair, times[0], plan)
    kept = FieldPair(pair.u1.copy(), pair.u2.copy(), pair.time)
    later = pair
    for t_next in times[1:3]:
        later, _ = step(later, t_next, plan)
    for got, want in zip(pair.components(), kept.components()):
        assert np.array_equal(got, want)
    workspace = [plan.hat, plan.work, plan.scratch, *plan.base, *plan.cell,
                 *plan.coef[0], *plan.coef[1]]
    assert not any(np.shares_memory(u, w) for u in later.components() for w in workspace)


def test_interleaved_plans_match_separate_runs():
    runs = [_stepper(beta=3.0), _stepper(beta=2.0, epsilon=3.0)]
    alone = []
    for cfg, times in runs:
        plan = _Plan(cfg)
        pair = make_initial_data(cfg.init, cfg.grid, cfg.params)
        for t_next in times:
            pair, _ = step(pair, t_next, plan)
        alone.append(pair)
    plans = [_Plan(cfg) for cfg, _ in runs]
    pairs = [make_initial_data(cfg.init, cfg.grid, cfg.params) for cfg, _ in runs]
    for k in range(len(runs[0][1])):
        for r in (0, 1):
            pairs[r], _ = step(pairs[r], runs[r][1][k], plans[r])
    for got, want in zip(pairs, alone):
        assert np.array_equal(got.u1, want.u1) and np.array_equal(got.u2, want.u2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("coupling", [0.0, 1.0])
def test_step_non_finite_pair_diverges(bad, coupling):
    cfg = _config(init=InitialData("gaussian", epsilon=_amplitude(0.5, coupling), width=1.0))
    pair = make_initial_data(cfg.init, cfg.grid, cfg.params)
    pair.u2[100] = bad
    with np.errstate(invalid="ignore"), pytest.raises(Divergence):
        step(pair, 0.1, _Plan(cfg))


# ---------------------------------------------------------------------------
# symmetric runs: one computed component stands for both

SYMMETRIC_CASES = {
    "1d_clamping": dict(),
    "2d_fractional": dict(params=SystemParams((1.5, 1.5), (3.0, 3.0), (0.7, 0.7), (0.5, 0.5), 2),
                          grid=GRID_2D, horizon=0.6,
                          init=InitialData("gaussian", epsilon=5.0, width=1.0)),
    "decoupled": dict(init=InitialData("gaussian", epsilon=0.5 * SMALL, width=1.0)),
}


@pytest.mark.parametrize("case", sorted(SYMMETRIC_CASES))
def test_aliased_step_is_bitwise_the_unaliased_step(case):
    cfg = _config(steps=6, **SYMMETRIC_CASES[case])
    plan = _Plan(cfg)
    assert plan.symmetric
    u = make_initial_data(cfg.init, cfg.grid, cfg.params).u1
    alias, full = FieldPair(u, u, 0.0), FieldPair(u, u.copy(), 0.0)
    clamped = 0
    for t_next in _times(cfg):
        alias, a_diag = step(alias, float(t_next), plan)
        full, f_diag = step(full, float(t_next), plan)
        assert alias.u1 is alias.u2 and full.u1 is not full.u2
        assert alias.u1.tobytes() == full.u1.tobytes() == full.u2.tobytes()
        assert (a_diag.iterations, a_diag.changes, a_diag.clamped) \
            == (f_diag.iterations, f_diag.changes, f_diag.clamped)
        clamped += f_diag.clamped
    assert clamped > 0 or case == "2d_fractional"


@pytest.mark.parametrize("coupling", [0.0, 1.0])
def test_aliased_step_nan_diverges(coupling):
    cfg = _config(init=InitialData("gaussian", epsilon=_amplitude(0.5, coupling), width=1.0))
    u = make_initial_data(cfg.init, cfg.grid, cfg.params).u1
    u[100] = math.nan
    with np.errstate(invalid="ignore"), pytest.raises(Divergence):
        step(FieldPair(u, u, 0.0), 0.1, _Plan(cfg))


def test_aliased_step_stall_is_rejected(monkeypatch):
    monkeypatch.setattr(solver_module, "PICARD_MAX_ITER", 1)
    cfg = _config()
    pair = make_initial_data(cfg.init, cfg.grid, cfg.params)
    with pytest.raises(StepRejected):
        step(FieldPair(pair.u1, pair.u1, 0.0), 0.1, _Plan(cfg))


@pytest.mark.parametrize("name, pair", [("alpha", (2.0, 1.5)), ("beta", (4.0, 3.0)),
                                        ("rho", (1.0, 0.7)), ("sigma", (0.0, 0.5))])
def test_asymmetric_parameters_take_the_general_path(name, pair):
    fields = dict(alpha=(2.0, 2.0), beta=(4.0, 4.0), rho=(1.0, 1.0), sigma=(0.0, 0.0))
    fields[name] = pair
    cfg = _config(params=SystemParams(dim=1, **fields), horizon=0.5, steps=2)
    assert not _Plan(cfg).symmetric
    res, snapshots = solve_kept(cfg)
    assert res.status.completed
    assert all(snap.u1 is not snap.u2 for snap in snapshots)


@pytest.mark.parametrize("edit, aliased", [(None, True), ((200, 0.1), False),
                                           ((0, -0.0), False)])
def test_from_file_data_is_aliased_only_when_byte_equal(tmp_path, edit, aliased):
    u = make_initial_data(_config().init, GRID, PARAMS_B4).u1
    u[0] = 0.0
    u2 = u.copy()
    if edit is not None:
        u2[edit[0]] = edit[1]
    path = tmp_path / "phi.bin"
    write_snapshot(path, FieldPair(u, u2, 0.0), GRID, PARAMS_B4)
    res, snapshots = solve_kept(_config(init=InitialData("from_file", path=str(path)), horizon=0.5,
                                        steps=2))
    assert res.status.completed
    assert all((snap.u1 is snap.u2) == aliased for snap in snapshots)


@pytest.mark.parametrize("orders", [(5.0, 5.0), (5.0, 3.0)])
def test_symmetric_norms_match_the_general_path(monkeypatch, orders):
    exponents = SimpleNamespace(s=orders, xi=(0.2, 0.3))
    cfg = _config(horizon=0.5, steps=4)
    aliased = solve(cfg, exponents).norms
    monkeypatch.setattr(_Plan, "symmetric", False)
    general = solve(cfg, exponents).norms
    for col in ("t", "linf", "ls", "scaled", "mass", "picard_iters"):
        assert getattr(aliased, col).tobytes() == getattr(general, col).tobytes(), col
    assert (aliased.ls[1:, 0] == aliased.ls[1:, 1]).all() == (orders[0] == orders[1])


def test_symmetric_solve_snapshots_are_read_only_and_copies_independent():
    _, snapshots = solve_kept(_config(horizon=0.5, steps=4, snapshot_stride=2))
    assert len(snapshots) == 3
    for snap in snapshots:
        assert snap.u1 is snap.u2 and not snap.u1.flags.writeable
        dup = FieldPair(snap.u1.copy(), snap.u2.copy(), snap.time)
        dup.u1 += 1.0
        assert dup.u1 is not dup.u2 and np.array_equal(dup.u2, snap.u1)


# ---------------------------------------------------------------------------
# the even path: radial data in d >= 2 march on the x >= 0 corner of the grid

ASYM_RHO_2D = SystemParams((1.5, 1.5), (3.0, 3.0), (1.0, 0.7), (0.0, 0.0), 2)
EVEN_CASES = {
    "2d_symmetric_kernel": (SystemParams((1.5, 1.5), (3.0, 3.0), (1.0, 1.0), (0.0, 0.0), 2),
                            SpectralGrid(2, 64, 20.0), InitialData("stable_kernel", epsilon=5.0)),
    "2d_asymmetric_kernel": (ASYM_RHO_2D, SpectralGrid(2, 64, 20.0),
                             InitialData("stable_kernel", epsilon=5.0)),
    "2d_two_alphas_kernel": (SystemParams((2.0, 1.5), (2.0, 3.0), (1.0, 1.0), (0.0, 0.5), 2),
                             SpectralGrid(2, 32, 10.0), InitialData("stable_kernel", epsilon=2.0)),
    "2d_clamping_gaussian": (ASYM_RHO_2D, GRID_2D,
                             InitialData("gaussian", epsilon=5.0, width=1.0)),
    "3d_symmetric_gaussian": (SystemParams((1.5, 1.5), (3.0, 3.0), (0.7, 0.7), (0.5, 0.5), 3),
                              SpectralGrid(3, 16, 8.0),
                              InitialData("gaussian", epsilon=5.0, width=1.0)),
    "3d_asymmetric_kernel": (SystemParams((1.5, 1.5), (3.0, 2.0), (1.0, 0.7), (0.0, 0.0), 3),
                             SpectralGrid(3, 16, 8.0), InitialData("stable_kernel", epsilon=2.0)),
}


@pytest.mark.parametrize("case", sorted(EVEN_CASES))
def test_even_path_matches_its_full_grid_twin(tmp_path, caplog, case):
    # the even run's first snapshot, written as from_file data, starts the
    # same run on the full grid
    params, grid, init = EVEN_CASES[case]
    exponents = SimpleNamespace(s=(5.0, 3.0), xi=(0.2, 0.3))
    cfg = _config(params=params, grid=grid, init=init, horizon=0.6, steps=6, snapshot_stride=2)
    path = tmp_path / "phi.bin"
    with caplog.at_level("INFO", logger="fracsys.solver"):
        even, even_snaps = solve_kept(cfg, exponents)
        write_snapshot(path, even_snaps[0], even_snaps.view, params)
        twin, twin_snaps = solve_kept(replace(cfg, init=InitialData("from_file", path=str(path))),
                                      exponents)
    side = "x".join([str(grid.n // 2 + 1)] * grid.dim)
    assert [r.getMessage() for r in caplog.records] == [
        f"even quarter grid {side}: {init.kind} data are radial", "full grid: from_file data"]
    assert even.status.completed and twin.status.completed
    assert even.norms.picard_iters.max() > 2        # the coupling acts
    # the data are even to roundoff, so the expanded corner is the data
    phi = make_initial_data(init, grid, params)
    for got, want in zip(even_snaps[0].components(), phi.components()):
        assert np.max(np.abs(even_snaps.view.expand(got) - want)) <= 1e-15 * np.max(want)
    for col in ("t", "linf", "ls", "scaled", "mass", "picard_iters"):
        got, want = getattr(even.norms, col), getattr(twin.norms, col)
        assert np.nanmax(np.abs(got - want)) <= 1e-13 * np.nanmax(np.abs(want)), col
    symmetric = _Plan(cfg).symmetric
    assert len(even_snaps) == len(twin_snaps) == 4
    for snap, ref in zip(even_snaps, twin_snaps):
        assert (snap.u1 is snap.u2) == symmetric == (ref.u1 is ref.u2)
        for u, want in zip(snap.components(), ref.components()):
            got = even_snaps.view.expand(u)
            assert got.shape == grid.shape() and not u.flags.writeable
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
    # values clamped well away from roundoff have one sign on both paths, so
    # the weighted count equals the full grid's; one within roundoff of zero
    # may take either sign
    if case == "2d_clamping_gaussian":
        assert even.diagnostics["clamped_values"] == twin.diagnostics["clamped_values"] > 0


@pytest.mark.parametrize("case", ["2d_symmetric_kernel", "2d_asymmetric_kernel",
                                  "3d_symmetric_gaussian"])
def test_even_run_keeps_its_step_results_on_the_view(monkeypatch, case):
    returned = []
    real = solver_module.step

    def recording(*args):
        out = real(*args)
        returned.append(out[0])
        return out

    monkeypatch.setattr(solver_module, "step", recording)
    params, grid, init = EVEN_CASES[case]
    cfg = _config(params=params, grid=grid, init=init, horizon=0.6, steps=6, snapshot_stride=2)
    res, snapshots = solve_kept(cfg)
    view = snapshots.view
    assert res.status.completed and isinstance(view, EvenGrid) and view.full == grid
    # the sink gets the step results themselves, spectra included, not copies
    assert len(snapshots) == 4
    for k, snap in zip((2, 4, 6), snapshots[1:]):
        assert snap is returned[k - 1]
        assert any(s is not None for s in snap.spectra)
    symmetric = _Plan(cfg).symmetric
    assert symmetric == ("asymmetric" not in case)
    for snap in snapshots:
        assert (snap.u1 is snap.u2) == symmetric
        for u in snap.components():
            assert u.shape == (grid.n // 2 + 1,) * grid.dim and not u.flags.writeable


def test_full_grid_runs_keep_their_snapshots_on_the_config_grid(tmp_path):
    params, grid, init = EVEN_CASES["2d_asymmetric_kernel"]
    path = tmp_path / "phi.bin"
    write_snapshot(path, make_initial_data(init, grid, params), grid, params)
    from_file = _config(params=params, grid=grid, horizon=0.6, steps=4,
                        init=InitialData("from_file", path=str(path)))
    for cfg in (_config(horizon=0.5, steps=4), from_file):
        res, snapshots = solve_kept(cfg)
        assert res.status.completed and snapshots.view is cfg.grid
        for snap in snapshots:
            assert all(u.shape == cfg.grid.shape() and not u.flags.writeable
                       for u in snap.components())


@pytest.mark.parametrize("aliased", [False, True])
def test_write_snapshot_writes_the_expanded_view_fields(tmp_path, monkeypatch, aliased):
    params, grid, init = EVEN_CASES["2d_symmetric_kernel"]
    view = EvenGrid(grid)
    phi = make_initial_data(init, view, params)
    pair = FieldPair(phi.u1, phi.u1 if aliased else phi.u2, 0.25)
    full = FieldPair(view.expand(pair.u1), view.expand(pair.u2), 0.25)
    calls = []
    real = EvenGrid.expand

    def counting(self, values):
        calls.append(values)
        return real(self, values)

    monkeypatch.setattr(EvenGrid, "expand", counting)
    digest = write_snapshot(tmp_path / "view.bin", pair, view, params)
    assert len(calls) == (1 if aliased else 2)
    assert write_snapshot(tmp_path / "full.bin", full, grid, params) == digest
    data = (tmp_path / "view.bin").read_bytes()
    assert data == (tmp_path / "full.bin").read_bytes()
    assert len(data) == 96 + 2 * grid.n**2 * 8
    back, back_grid, _ = read_snapshot(tmp_path / "view.bin")
    assert back_grid == grid and back.time == 0.25
    for got, want in zip(back.components(), full.components()):
        assert got.tobytes() == want.tobytes()


def test_step_decoupled_equals_propagator():
    cfg = _config(init=InitialData("gaussian", epsilon=0.5 * SMALL, width=1.0))
    plan = _Plan(cfg)
    pair = make_initial_data(cfg.init, cfg.grid, cfg.params)
    out, diag = step(pair, 0.4, plan)
    ref = propagate_reference(pair.u1 / SMALL, cfg.grid, 2.0, 1.0, 0.0, 0.4)
    assert np.max(np.abs(out.u1 / SMALL - np.maximum(ref, 0.0))) < 1e-15
    assert diag.iterations == 1


def test_step_small_data_converges_fast():
    cfg = _config(init=InitialData("stable_kernel", epsilon=1e-3))
    plan = _Plan(cfg)
    pair = make_initial_data(cfg.init, cfg.grid, cfg.params)
    out, diag = step(pair, 0.1, plan)
    assert diag.iterations <= 2
    assert out.time == 0.1


def test_step_picard_contraction_monotone(tight_picard):
    cfg = _config(init=InitialData("gaussian", epsilon=0.8, width=1.0), params=PARAMS_B2)
    plan = _Plan(cfg)
    pair = make_initial_data(cfg.init, cfg.grid, cfg.params)
    _, diag = step(pair, 0.25, plan)
    changes = diag.changes
    assert len(changes) >= 3
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(changes, changes[1:]))


def test_step_rejection_and_divergence():
    cfg = _config(params=PARAMS_B2, init=InitialData("gaussian", epsilon=30.0, width=1.0))
    plan = _Plan(cfg)
    pair = make_initial_data(cfg.init, cfg.grid, cfg.params)
    with pytest.raises((StepRejected, Divergence)):
        out = pair
        for k in range(1, 21):
            out, _ = step(out, 0.1 * k, plan)


# ---------------------------------------------------------------------------
# full trajectories

def test_solve_linear_matches_multiplier_at_every_node():
    cfg = _config(init=InitialData("gaussian", epsilon=0.5 * SMALL, width=1.0), horizon=3.0,
                  steps=24, snapshot_stride=1)
    res, snapshots = solve_kept(cfg)
    assert res.status.completed
    phi = make_initial_data(cfg.init, cfg.grid, cfg.params)
    for snap in snapshots:
        ref = propagate_reference(phi.u1, cfg.grid, 2.0, 1.0, 0.0, snap.time)
        rel = np.linalg.norm(snap.u1 - ref) / np.linalg.norm(ref)
        assert rel < 1e-10


def test_solve_linear_matches_multiplier_2d_fractional():
    params = SystemParams((1.5, 1.5), (3.0, 3.0), (1.0, 1.0), (0.0, 0.0), 2)
    cfg = _config(params=params, grid=GRID_2D, horizon=1.0, steps=8, snapshot_stride=1,
                  init=InitialData("gaussian", epsilon=SMALL, width=1.0))
    res, snapshots = solve_kept(cfg)
    assert res.status.completed and len(snapshots) == 9
    phi = make_initial_data(cfg.init, cfg.grid, cfg.params)
    for snap in snapshots[1:]:
        ref = propagate_reference(phi.u2, cfg.grid, 1.5, 1.0, 0.0, snap.time)
        rel = np.linalg.norm(snapshots.view.expand(snap.u2) - ref) / np.linalg.norm(ref)
        assert rel < 1e-10


def test_solve_positivity_and_status():
    cfg = _config(horizon=2.0, steps=30, snapshot_stride=5)
    res, snapshots = solve_kept(cfg)
    assert res.status.completed
    for snap in snapshots:
        assert snap.u1.min() >= 0.0 and snap.u2.min() >= 0.0
    assert res.norms.picard_iters[1:].max() <= 25


def test_solve_records_norm_columns(ref_report=None):
    rep = classify(PARAMS_B4, delta=0.3)
    cfg = _config(horizon=2.0, steps=30)
    res, snapshots = solve_kept(cfg, rep)
    assert rep.s == (5.0, 5.0)
    assert np.all(np.isfinite(res.norms.ls[1:]))
    last = snapshots[-1]
    ls_last = float((last.u1**5.0).sum() * cfg.grid.cell_volume) ** 0.2
    assert res.norms.ls[-1, 0] == pytest.approx(ls_last, rel=1e-12)
    scaled = res.norms.t ** rep.xi[0] * res.norms.ls[:, 0]
    assert np.allclose(res.norms.scaled[1:, 0], scaled[1:], rtol=1e-12)


def test_solve_without_exponents_blanks_ls():
    cfg = _config(horizon=1.0, steps=10)
    res = solve(cfg)
    assert np.all(np.isnan(res.norms.ls))
    assert np.all(np.isnan(res.norms.scaled))
    assert np.all(np.isfinite(res.norms.linf))


def test_solve_mesh_refinement_first_order_or_better():
    def terminal(steps):
        cfg = _config(params=PARAMS_B2, horizon=1.0, steps=steps, snapshot_stride=10**9)
        res, snapshots = solve_kept(cfg)
        assert res.status.completed
        return snapshots[-1].u1

    u1, u2, u4 = terminal(12), terminal(24), terminal(48)
    ratio = np.linalg.norm(u1 - u2) / np.linalg.norm(u2 - u4)
    assert ratio >= 2.0


def test_solve_mesh_refinement_second_order_2d_fractional():
    params = SystemParams((1.5, 1.5), (2, 2), (1, 1), (0, 0), 2)

    def terminal(steps):
        cfg = _config(params=params, grid=SpectralGrid(2, 64, 10.0), horizon=1.0, steps=steps,
                      snapshot_stride=10**9)
        res, snapshots = solve_kept(cfg)
        assert res.status.completed
        return snapshots[-1].u1

    u1, u2, u4 = terminal(8), terminal(16), terminal(32)
    ratio = np.max(np.abs(u1 - u2)) / np.max(np.abs(u2 - u4))
    assert ratio == pytest.approx(4.0, abs=0.5)


def test_solve_monotone_in_initial_data():
    rep = classify(PARAMS_B4, delta=0.3)
    _, big = solve_kept(_config(init=InitialData("stable_kernel", epsilon=1e-2),
                                horizon=2.0, steps=20, snapshot_stride=4), rep)
    _, small = solve_kept(_config(init=InitialData("stable_kernel", epsilon=5e-3),
                                  horizon=2.0, steps=20, snapshot_stride=4), rep)
    for a, b in zip(big, small):
        tol = 1e-9 * float(np.abs(a.u1).max())
        assert float((a.u1 - b.u1).min()) >= -tol
        assert float((a.u2 - b.u2).min()) >= -tol


def test_solve_divergence_signal():
    cfg = _config(params=PARAMS_B2, horizon=5.0, steps=50,
                  init=InitialData("gaussian", epsilon=20.0, width=1.0))
    res = solve(cfg)
    assert res.status.kind in ("diverged", "step_rejected")
    assert res.status.time <= 5.0
    assert np.all(np.isfinite(res.norms.linf))   # only finite rows recorded


def test_solve_iteration_counts_grow_toward_breakdown():
    # moderately large data: the per-step fixed point contracts more and more
    # slowly until a step is refused (or values overflow)
    cfg = _config(params=PARAMS_B2, grid=SpectralGrid(1, 256, 20.0),
                  horizon=5.0, steps=50,
                  init=InitialData("gaussian", epsilon=3.0, width=1.0))
    res = solve(cfg)
    assert res.status.kind in ("diverged", "step_rejected")
    iters = res.norms.picard_iters[1:]
    assert iters[-1] >= iters[0] + 5


@given(lam=st.floats(0.5, 2.0), alpha=st.tuples(st.floats(1.0, 2.0), st.floats(1.0, 2.0)),
       rho1=st.floats(0.6, 1.4), beta=st.tuples(st.floats(2.0, 4.0), st.floats(2.0, 4.0)),
       sigma=st.tuples(st.floats(-0.5, 1.0), st.floats(-0.5, 1.0)), dim=st.sampled_from((1, 2)))
@settings(max_examples=5, deadline=None)
def test_solve_is_covariant_under_the_scaling_twin(lam, alpha, rho1, beta, sigma, dim):
    # with alpha_i / rho_i = c, u_i^lam(t, x) = lam^(a_i) u_i(lam^c t, lam x)
    # solves the system when a_i - beta_i a_j = -c (1 + sigma_i), i.e.
    # a_i = c theta3_i; the scheme is covariant too with the same n and
    # steps on the box L / lam up to T / lam^c, so the twin's sup norm at
    # every node is lam^(a_i) times the run's
    c = alpha[0] / rho1
    assume(alpha[1] / c <= 2.0)
    params = SystemParams(alpha, beta, (rho1, alpha[1] / c), sigma, dim)
    a = [c * theta for theta in classify(params).theta3]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for scale in (1.0, lam):
            grid = SpectralGrid(dim, 64 if dim == 1 else 32, 12.0 / scale)
            w2 = (1.0 / scale) ** 2
            bump = (2.0 * math.pi * w2) ** (-dim / 2.0) * np.exp(-grid.radius() ** 2 / (2.0 * w2))
            eps = [0.5 * scale ** (a[i] - dim) for i in (0, 1)]
            path = f"{tmp}/phi_{scale!r}.bin"
            write_snapshot(path, FieldPair(eps[0] * bump, eps[1] * bump, 0.0), grid, params)
            runs.append(solve(_config(params=params, grid=grid, horizon=1.0 / scale**c, steps=8,
                                      init=InitialData("from_file", path=path))))
    run, twin = runs
    assert run.status.completed and twin.status.completed
    assert run.norms.picard_iters.max() > 1                  # the coupling acts
    assert np.array_equal(twin.norms.picard_iters, run.norms.picard_iters)
    assert np.allclose(twin.norms.t, run.norms.t / lam**c, rtol=1e-14, atol=0.0)
    expected = run.norms.linf * lam ** np.array(a)
    assert np.max(np.abs(twin.norms.linf / expected - 1.0)) < 1e-13


# ---------------------------------------------------------------------------
# time axis: spatially constant data live on mode zero, where every multiplier
# is 1, so a solve from them is the time scheme applied to the ODE system
# u_i' = t^sigma_i u_j^beta_i

ORACLE_GRID = SpectralGrid(1, 8, 1.0)


def _constant_run(tmp_path, beta, sigma, c, horizon, steps):
    """(result, snapshots) of a solve from the constant data ``c``."""
    params = SystemParams((2.0, 2.0), beta, (1.0, 1.0), sigma, 1)
    path = tmp_path / "constant.bin"
    write_snapshot(path, FieldPair(np.full(8, c[0]), np.full(8, c[1]), 0.0), ORACLE_GRID, params)
    cfg = RunConfig(params, ORACLE_GRID, TimeMesh(horizon, steps),
                    InitialData("from_file", path=str(path)), snapshot_stride=10**9)
    return solve_kept(cfg)


def _blowup_time(beta, sigma, c):
    """T* of the symmetric system from u_1 = u_2 = c."""
    return ((1.0 + sigma) * c ** (1.0 - beta) / (beta - 1.0)) ** (1.0 / (1.0 + sigma))


def _exact(beta, sigma, c, t):
    """u^(1 - beta) = c^(1 - beta) - (beta - 1) t^(1 + sigma) / (1 + sigma)."""
    return (c ** (1.0 - beta) - (beta - 1.0) * t ** (1.0 + sigma) / (1.0 + sigma)) \
        ** (1.0 / (1.0 - beta))


def _orders(errors):
    return [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]


@pytest.mark.parametrize("sigma", [0.0, 0.5, -0.5])
def test_second_order_against_the_closed_form(tmp_path, sigma):
    horizon = _blowup_time(3.0, sigma, 0.7) / 2.0
    want = _exact(3.0, sigma, 0.7, horizon)
    errors = [float(np.max(np.abs(_constant_run(tmp_path, (3.0, 3.0), (sigma, sigma), (0.7, 0.7),
                                                horizon, k)[1][-1].u1 - want)))
              for k in (100, 200, 400)]
    assert all(1.95 <= p <= 2.05 for p in _orders(errors)), errors


def test_second_order_for_unequal_sigma_against_an_ode_reference(tmp_path):
    beta, sigma, c, horizon = (3.0, 2.0), (0.0, 0.5), (0.7, 0.6), 0.5

    # in tau = t^(1/2) both weights are smooth: du_i/dtau = 2 tau^(2 sigma_i + 1) u_j^beta_i
    def rhs(tau, u):
        return [2.0 * tau ** (2.0 * sigma[i] + 1.0) * u[1 - i] ** beta[i] for i in (0, 1)]

    want = solve_ivp(rhs, (0.0, math.sqrt(horizon)), c, method="DOP853",
                     rtol=1e-13, atol=1e-15).y[:, -1]
    errors = []
    for k in (100, 200, 400):
        last = _constant_run(tmp_path, beta, sigma, c, horizon, k)[1][-1]
        errors.append(max(float(np.max(np.abs(u - w))) for u, w in zip(last.components(), want)))
    assert all(1.95 <= p <= 2.05 for p in _orders(errors)), errors


@pytest.mark.parametrize("beta, sigma, c, horizon", [(2.0, 0.0, 1.0, 1.5), (3.0, 0.5, 0.7, 2.0)])
@pytest.mark.parametrize("steps", [100, 1000])
def test_stop_time_brackets_the_blowup_time(tmp_path, beta, sigma, c, horizon, steps):
    res, _ = _constant_run(tmp_path, (beta, beta), (sigma, sigma), (c, c), horizon, steps)
    assert res.status.kind in ("step_rejected", "diverged")
    t_stop = res.status.time
    width = t_stop - res.norms.t[-1]
    assert 0.0 < _blowup_time(beta, sigma, c) - t_stop < 2.0 * width


def _grid_norms_reference(values, grid, order):
    """The norms as first written, with fresh temporaries; an EvenGrid's
    samples count with its multiplicity weights."""
    weights = 1.0 if grid.weights is None else grid.weights
    linf = float(np.abs(values).max(initial=0.0))
    mass = float((values * weights).sum() * grid.cell_volume)
    ls = float((np.abs(values) ** order * weights).sum() * grid.cell_volume) ** (1.0 / order)
    return linf, ls, mass


@pytest.mark.parametrize("order", [2.0, 5.0, 16.0 / 3.0])
def test_grid_norms_bitwise_equal_temporaries(order):
    values = np.random.default_rng(5).uniform(-0.1, 2.0, GRID.shape())
    values[:2] = (-0.0, 0.0)
    kept = values.copy()
    buf = np.empty_like(values)
    assert _grid_norms(values, GRID, order, buf) == _grid_norms_reference(values, GRID, order)
    assert values.tobytes() == kept.tobytes()
    linf, ls, mass = _grid_norms(values, GRID, None, buf)
    assert (linf, mass) == _grid_norms_reference(values, GRID, order)[::2] and math.isnan(ls)


def test_even_grid_norms_allocate_no_field():
    # the weighted sums of the 65^3 view of a 3-D 128^3 run go through buf
    view = EvenGrid(SpectralGrid(3, 128, 20.0))
    values = np.random.default_rng(6).uniform(-0.1, 2.0, view.shape())
    kept, buf = values.copy(), np.empty_like(values)
    want = _grid_norms_reference(values, view, 5.0)
    tracemalloc.start()
    try:
        got = _grid_norms(values, view, 5.0, buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and values.tobytes() == kept.tobytes()
    assert peak < values.nbytes / 16


# ---------------------------------------------------------------------------
# carried spectra: a step may start from the spectrum the last one returned

CARRY_PARAMS = {d: SystemParams((1.5, 1.5), (3.0, 3.0), (1.0, 0.7), (0.0, 0.5), d) for d in (1, 2)}
# (params, grid, init, on the even view); the 2-D full grid is the view whose
# inverse takes a complex pass out of place before its in-place ones
CARRY_VIEWS = {
    "1d_full": (CARRY_PARAMS[1], GRID, InitialData("stable_kernel", epsilon=1.0), False),
    "2d_even": (CARRY_PARAMS[2], SpectralGrid(2, 64, 20.0), InitialData("stable_kernel", epsilon=5.0),
                True),
    "2d_full": (CARRY_PARAMS[2], SpectralGrid(2, 64, 20.0), InitialData("stable_kernel", epsilon=5.0),
                False),
}
# 2-D, alpha = 2, beta = 2, n = 32, L = 10, epsilon = 5: the first steps clamp
# their accepted iterates, the later ones do not
CLAMP_CASE = (SystemParams((2.0, 2.0), (2.0, 2.0), (1.0, 1.0), (0.0, 0.0), 2), GRID_2D,
              InitialData("stable_kernel", epsilon=5.0))


def _carry_run(params, grid, init, even):
    """A config, its plan on the view, the unaliased initial pair and the mesh."""
    cfg = _config(params=params, grid=grid, init=init, horizon=0.6, steps=6)
    view = EvenGrid(grid) if even else grid
    phi = make_initial_data(init, view, params)
    return cfg, _Plan(cfg, view), FieldPair(phi.u1, phi.u2.copy(), 0.0), _times(cfg)


@pytest.mark.parametrize("case", sorted(CARRY_VIEWS))
def test_carried_step_matches_a_fresh_forward_step(monkeypatch, case):
    cfg, plan, pair, times = _carry_run(*CARRY_VIEWS[case])
    view = plan.grid
    forwards = []
    real_forward = type(view).forward

    def counting(self, values, out=None):
        forwards.append(values)
        return real_forward(self, values, out)

    monkeypatch.setattr(type(view), "forward", counting)
    carried, kept = 0, []
    for t_next in times:
        # the same fields without their spectra are transformed afresh
        forwards.clear()
        fresh, f_diag = step(replace(pair, spectra=(None, None)), t_next, plan)
        assert sum(v is u for v in forwards for u in pair.components()) == 2
        n_fresh = len(forwards)
        spectra = pair.spectra
        if pair.time > 0.0:
            assert all(s is not None for s in spectra)
            before = [s.tobytes() for s in spectra]
            forwards.clear()
            got, diag = step(pair, t_next, plan)
            # the carried spectra stand in for the start fields' transforms
            assert len(forwards) == n_fresh - 2
            assert not any(v is u for v in forwards for u in pair.components())
            # the carried spectra are read-only inputs, never written
            assert [s.tobytes() for s in spectra] == before
            assert not any(s.flags.writeable for s in spectra)
            assert diag.iterations == f_diag.iterations
            for a, b in zip(got.components(), fresh.components()):
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(b)
            carried += 1
            kept.append((spectra, [s.copy() for s in spectra]))
        assert f_diag.clamped == 0 and f_diag.iterations > 2          # the coupling acts
        assert not any(u.flags.writeable for u in fresh.components())
        for spectrum, u in zip(fresh.spectra, fresh.components()):
            want = view.forward(u)
            assert spectrum.shape == want.shape and spectrum.dtype == want.dtype
            assert np.max(np.abs(spectrum - want)) <= 1e-14 * np.max(np.abs(want))
        workspace = [plan.hat, plan.work, plan.scratch, *plan.base, *plan.cell,
                     *plan.coef[0], *plan.coef[1]]
        assert not any(np.shares_memory(s, w) for s in fresh.spectra for w in workspace)
        pair = fresh
    assert carried == len(times) - 1
    # spectra stay valid after later steps
    for spectra, copies in kept:
        assert all(np.array_equal(s, c) for s, c in zip(spectra, copies))


@pytest.mark.parametrize("even", [False, True])
def test_carry_is_dropped_after_a_clamped_accepted_iterate(monkeypatch, even):
    counts = []
    real = solver_module._clamp

    def recording(values, weights=None):
        out = real(values, weights)
        counts.append(out[1])
        return out

    monkeypatch.setattr(solver_module, "_clamp", recording)
    cfg, plan, pair, times = _carry_run(*CLAMP_CASE, even)
    outcomes = []
    for t_next in times:
        counts.clear()
        pair, diag = step(pair, t_next, plan)
        # the last clamp of each component is that of its accepted iterate
        for spectrum, count in zip(pair.spectra, counts[-2:]):
            assert (spectrum is None) == (count > 0)
            outcomes.append(spectrum is None)
    assert any(outcomes) and not all(outcomes)


def test_aliased_step_carries_one_spectrum_for_both():
    params = SystemParams((1.5, 1.5), (3.0, 3.0), (1.0, 1.0), (0.0, 0.0), 2)
    cfg, plan, pair, times = _carry_run(params, SpectralGrid(2, 64, 20.0),
                                        InitialData("stable_kernel", epsilon=5.0), True)
    assert plan.symmetric
    alias = FieldPair(pair.u1, pair.u1, 0.0)
    for t_next in times:
        alias, _ = step(alias, t_next, plan)
        pair, _ = step(pair, t_next, plan)
        assert alias.spectra[0] is alias.spectra[1] is not None
        assert alias.u1.tobytes() == pair.u1.tobytes() == pair.u2.tobytes()
        assert all(alias.spectra[0].tobytes() == s.tobytes() for s in pair.spectra)


def test_solve_carries_spectra_only_between_its_own_steps(monkeypatch):
    # every step of a solve gets exactly the pair, and so the spectra, that
    # the previous step returned, and the sink gets those pairs as they are
    seen = []
    real = solver_module.step

    def recording(pair, t_next, plan):
        seen.append(pair)
        out = real(pair, t_next, plan)
        seen.append(out[0])
        return out

    monkeypatch.setattr(solver_module, "step", recording)
    params, grid, init, _ = CARRY_VIEWS["2d_even"]
    res, snapshots = solve_kept(_config(params=params, grid=grid, init=init, horizon=0.6, steps=6,
                                        snapshot_stride=1))
    assert res.status.completed
    assert all(s is None for s in seen[0].spectra)
    assert all(given is returned for returned, given in zip(seen[1:-1:2], seen[2::2]))
    assert all(s is not None for given in seen[2::2] for s in given.spectra)
    assert len(snapshots) == 7 and snapshots[0] is seen[0]
    assert all(snap is returned for snap, returned in zip(snapshots[1:], seen[1::2]))


# ---------------------------------------------------------------------------
# the workspace a run makes

# (params, grid, epsilon) of symmetric runs on the full grid and the even view
SYMMETRIC_RUNS = {
    "1d_full": (SystemParams((1.5, 1.5), (3.0, 3.0), (1.0, 1.0), (0.0, 0.0), 1), GRID, 1.0),
    "2d_even": (SystemParams((1.5, 1.5), (3.0, 3.0), (1.0, 1.0), (0.0, 0.0), 2),
                SpectralGrid(2, 64, 20.0), 5.0),
}


@pytest.mark.parametrize("case", sorted(SYMMETRIC_RUNS))
def test_aliased_solve_makes_no_workspace_for_component_1(monkeypatch, case):
    plans = []

    class Recording(_Plan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(solver_module, "_Plan", Recording)
    params, grid, epsilon = SYMMETRIC_RUNS[case]
    cfg = _config(params=params, grid=grid, init=InitialData("stable_kernel", epsilon=epsilon),
                  horizon=0.6, steps=6, snapshot_stride=1)
    res, snapshots = solve_kept(cfg)
    (plan,) = plans
    assert res.status.completed and res.norms.t.size == 7
    assert all(s.u1 is s.u2 for s in snapshots)
    assert plan.base[1] is None and plan.coef[1] is None
    assert plan.base[0] is not None and len(plan.coef[0]) == len(GAUSS_X)
    # an unaliased pair on the same plan makes component 1's workspace and
    # steps bitwise as the aliased pair does, both without carried spectra
    last, prev = snapshots[-1], snapshots[-2]
    start = FieldPair(prev.u1, prev.u1.copy(), prev.time)
    got, _ = step(start, last.time, plan)
    assert plan.base[1] is not None and plan.coef[1] is not None
    want = step(FieldPair(prev.u1, prev.u1, prev.time), last.time, plan)[0]
    assert got.u1.tobytes() == got.u2.tobytes() == want.u1.tobytes()


# ---------------------------------------------------------------------------
# propagators: built once on a uniform clock, every step on any other

# (params, multiplier calls of a solve of k steps): a uniform clock
# (gamma rho_i = 1 and gamma (1 + sigma_i) = 1) builds a computed component's
# cell propagator and two node coefficients once, any other clock every step
BUILD_CASES = {
    "uniform_aliased": (SystemParams((1.5, 1.5), (3.0, 3.0), (1.0, 1.0), (0.0, 0.0), 1),
                        lambda k: 3),
    "uniform_pair": (SystemParams((1.5, 2.0), (3.0, 3.0), (1.0, 1.0), (0.0, 0.0), 1),
                     lambda k: 6),
    # gamma = 2, so t^rho = tau and s^sigma ds = 2 dtau
    "uniform_graded_mesh": (SystemParams((1.5, 1.5), (3.0, 3.0), (0.5, 0.5), (-0.5, -0.5), 1),
                            lambda k: 3),
    "mixed": (SystemParams((1.5, 1.5), (3.0, 3.0), (1.0, 0.7), (0.0, 0.0), 1),
              lambda k: 3 + 3 * k),
    "graded": (SystemParams((2.0, 1.5), (4.0, 3.0), (1.0, 0.7), (0.0, 0.5), 1),
               lambda k: 6 * k),
}


@pytest.mark.parametrize("case", sorted(BUILD_CASES))
def test_solve_builds_uniform_propagators_once(monkeypatch, case):
    params, calls = BUILD_CASES[case]
    cfg = _config(params=params, init=InitialData("stable_kernel", epsilon=1.0),
                  horizon=0.6, steps=6, snapshot_stride=1)
    # step by step on the same mesh
    plan = _Plan(cfg)
    pair = make_initial_data(cfg.init, cfg.grid, params)
    if plan.symmetric:
        pair = FieldPair(pair.u1, pair.u1, 0.0)
    per_cell = []
    for t_next in _times(cfg):
        pair, diag = step(pair, t_next, plan)
        per_cell.append((pair, diag.iterations))

    built = []
    real = _Plan.multiplier

    def counting(self, i, tau, out):
        built.append(i)
        return real(self, i, tau, out)

    monkeypatch.setattr(_Plan, "multiplier", counting)
    res, snapshots = solve_kept(cfg)
    assert res.status.completed and len(built) == calls(6)
    for snap, iters, (want, want_iters) in zip(snapshots[1:], res.norms.picard_iters[1:], per_cell):
        assert iters == want_iters
        for got, ref in zip(snap.components(), want.components()):
            assert got.tobytes() == ref.tobytes()


def test_plan_times_on_a_uniform_clock_are_multiples_of_the_width():
    params = SystemParams((1.5, 1.5), (3.0, 3.0), (0.5, 1.0), (-0.5, 0.0), 1)
    plan = _Plan(_config(params=params, horizon=0.6, steps=6))
    assert plan.grading == 2.0 and plan.uniform == [True, False]
    assert plan.width == 0.6**0.5 / 6

    def exact(w):
        h = 0.5 * w
        return (w, [h * (1.0 - x) for x in GAUSS_X], [2.0 * h, 2.0 * h])

    nodes = plan.config.mesh.nodes(2.0).tolist()
    for t_cur, t_next in zip(nodes, nodes[1:]):
        theta, times = plan.times(t_cur, t_next)
        # every cell of the mesh: the mesh's width, so the same times
        assert times[0] == exact(plan.width)
        assert theta == pytest.approx([(1.0 + x) / 2.0 for x in GAUSS_X], rel=1e-12)
    # any other cell: its own width
    theta, times = plan.times(0.3**2, 0.4**2)
    assert times[0] == exact(0.4 - 0.3)
    # component 1's times are differences of the cell's times
    rho, s_q = 1.0, [(0.35 + 0.05 * x) ** 2 for x in GAUSS_X]
    assert times[1][0] == pytest.approx(0.4**2 - 0.3**2, rel=1e-14)
    assert times[1][1] == pytest.approx([0.4**2 - s**rho for s in s_q], rel=1e-14)
    # a plan that holds one cell's propagators rebuilds them for another
    pair = make_initial_data(plan.config.init, plan.config.grid, params)
    step(FieldPair(pair.u1, pair.u2, nodes[1]), nodes[2], plan)
    other = FieldPair(pair.u1, pair.u2, 0.3**2)
    got, want = (step(other, 0.4**2, p)[0] for p in (plan, _Plan(plan.config)))
    assert got.u1.tobytes() == want.u1.tobytes() and got.u2.tobytes() == want.u2.tobytes()


def test_even_solve_builds_no_full_grid_symbol():
    params = SystemParams((1.5, 1.5), (3.0, 3.0), (1.0, 1.0), (0.0, 0.0), 2)
    cfg = _config(params=params, grid=SpectralGrid(2, 32, 17.25),
                  init=InitialData("stable_kernel", epsilon=1.0), horizon=0.6, steps=6)
    res, snapshots = solve_kept(cfg)
    for snap in snapshots:
        envelope_ratios(snap, params, snapshots.view)
    assert isinstance(snapshots.view, EvenGrid) and res.status.completed
    assert snapshots.view in kernels._SYMBOLS and cfg.grid not in kernels._SYMBOLS


# ---------------------------------------------------------------------------
# file formats

def test_snapshot_roundtrip_bits(tmp_path):
    pair = make_initial_data(InitialData("stable_kernel", epsilon=0.3), GRID, PARAMS_B4)
    pair.time = 1.25
    path = tmp_path / "snap.bin"
    write_snapshot(path, pair, GRID, PARAMS_B4)
    back, grid, params = read_snapshot(path)
    assert np.array_equal(back.u1, pair.u1)
    assert np.array_equal(back.u2, pair.u2)
    assert back.time == 1.25
    assert (grid.dim, grid.n, grid.half_length) == (1, 512, 30.0)
    assert params.beta == (4.0, 4.0)


@pytest.mark.parametrize("aliased", [False, True])
def test_snapshot_digest_is_the_written_files(tmp_path, aliased):
    params = CARRY_PARAMS[2]
    pair = make_initial_data(InitialData("gaussian", epsilon=0.3), GRID_2D, params)
    pair = FieldPair(pair.u1, pair.u1 if aliased else pair.u2 + 1.0, 0.75)
    for u in pair.components():
        u.flags.writeable = False        # as the snapshots a solve hands its sink are
    path = tmp_path / "snap.bin"
    digest = write_snapshot(path, pair, GRID_2D, params)
    assert digest == sha256_file(path)
    back, grid, back_params = read_snapshot(path)
    assert back.u1.tobytes() == pair.u1.tobytes() and back.u2.tobytes() == pair.u2.tobytes()
    assert (back.time, grid, back_params) == (0.75, GRID_2D, params)


def test_norm_series_digest_is_the_written_file(tmp_path):
    res = solve(_config(horizon=1.0, steps=10), classify(PARAMS_B4, delta=0.3))
    path = tmp_path / "norms.csv"
    assert res.norms.write_csv(path) == sha256_file(path)


def _csv_reference(series):
    """The norms CSV as first written: ``_fmt`` of each numpy scalar cell."""
    lines = [",".join(solver_module.NORM_COLUMNS)]
    for k in range(series.t.size):
        row = [_fmt(series.t[k])]
        for pair in (series.linf, series.ls, series.scaled, series.mass):
            row += [_fmt(pair[k, 0]), _fmt(pair[k, 1])]
        row.append(str(int(series.picard_iters[k])))
        lines.append(",".join(row))
    return "".join(line + "\n" for line in lines)


def test_norm_series_csv_text_is_the_per_cell_format(tmp_path):
    odd = [math.nan, -0.0, 5e-324, 2.2250738585072009e-308, 1e300, 0.1, 1.0, -2.5]
    rng = np.random.default_rng(11)
    cols = [np.array(odd + rng.standard_normal(4).tolist()).reshape(-1, 2)[::-1] for _ in range(4)]
    series = NormSeries(t=np.array([0.0, -0.0, 5e-324, 1e300, math.nan, 0.1]),
                        linf=cols[0], ls=cols[1][:, ::-1], scaled=cols[2], mass=cols[3],
                        picard_iters=np.array([0, 25, 2**31, 2**53 + 1, 2**62, 7]))
    path = tmp_path / "norms.csv"
    digest = series.write_csv(path)
    text = path.read_text()
    assert text == _csv_reference(series) and digest == sha256_file(path)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [r[0] for r in rows] == ["0", "-0", "4.9406564584124654e-324",
                                    "1.0000000000000001e+300", "", "0.10000000000000001"]
    assert [r[-1] for r in rows] == ["0", "25", "2147483648", "9007199254740993",
                                     "4611686018427387904", "7"]


def test_snapshot_header_layout(tmp_path):
    pair = FieldPair(np.zeros(8), np.zeros(8), 0.0)
    grid = SpectralGrid(1, 8, 1.0)
    path = tmp_path / "s.bin"
    write_snapshot(path, pair, grid, PARAMS_B4)
    raw = path.read_bytes()
    assert raw[:4] == b"FWCS"
    assert int.from_bytes(raw[4:8], "little") == 1        # version
    assert int.from_bytes(raw[8:12], "little") == 1       # dim
    assert int.from_bytes(raw[12:16], "little") == 8      # n
    assert len(raw) == 16 + 16 + 64 + 2 * 8 * 8


def _three_part_header(pair, grid, params):
    """The snapshot header as three packs: the reference form of ``_HEADER``."""
    return (struct.pack("<4sIII", b"FWCS", 1, grid.dim, grid.n)
            + struct.pack("<dd", grid.half_length, pair.time)
            + struct.pack("<8d", params.alpha[0], params.alpha[1], params.beta[0], params.beta[1],
                          params.rho[0], params.rho[1], params.sigma[0], params.sigma[1]))


@pytest.mark.parametrize("grid, params", [(SpectralGrid(1, 8, 1.0), PARAMS_B4),
                                          (SpectralGrid(2, 8, 2.5),
                                           SystemParams((1.5, 1.7), (3, 2.5), (1, 0.5),
                                                        (0.25, -0.5), 2))])
def test_snapshot_header_is_the_three_part_pack(tmp_path, grid, params):
    assert _HEADER.size == 96
    zeros = np.zeros(grid.shape())
    pair = FieldPair(zeros, zeros, 0.3125)
    path = tmp_path / "s.bin"
    write_snapshot(path, pair, grid, params)
    raw = path.read_bytes()
    assert raw[:96] == _three_part_header(pair, grid, params)
    back, back_grid, back_params = read_snapshot(path)
    assert (back.time, back_grid, back_params) == (0.3125, grid, params)


@pytest.mark.parametrize("case", sorted(BAD_HEADER_VALUES))
def test_snapshot_bad_header_constants(tmp_path, case):
    path = tmp_path / "hdr.bin"
    write_snapshot(path, FieldPair(np.zeros(8), np.zeros(8), 0.0),
                   SpectralGrid(1, 8, 1.0), PARAMS_B4)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, *BAD_HEADER_VALUES[case])
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="bad header"):
        read_snapshot(path)


def test_write_artifact_digest_is_the_written_file(tmp_path):
    chunks = [b"head", bytearray(b"\x00\xff"), b"",
              memoryview(np.arange(6.0).reshape(2, 3)).cast("B")]
    path = tmp_path / "a.bin"
    assert write_artifact(path, chunks) == sha256_file(path)
    assert path.read_bytes() == b"".join(bytes(c) for c in chunks)
    # any iterable of chunks; a rewrite replaces the file
    assert write_artifact(path, iter([b"x"])) == sha256_file(path)
    assert path.read_bytes() == b"x"


def test_snapshot_format_errors(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 200)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)
    pair = FieldPair(np.zeros(8), np.zeros(8), 0.0)
    write_snapshot(path, pair, SpectralGrid(1, 8, 1.0), PARAMS_B4)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


@pytest.mark.parametrize("dim, n", [(2**31, 8), (0, 8), (1, 12), (1, 4), (3, 2**31 + 1)])
def test_snapshot_corrupt_header_dims(tmp_path, dim, n):
    path = tmp_path / "hdr.bin"
    write_snapshot(path, FieldPair(np.zeros(8), np.zeros(8), 0.0),
                   SpectralGrid(1, 8, 1.0), PARAMS_B4)
    raw = bytearray(path.read_bytes())
    raw[8:16] = dim.to_bytes(4, "little") + n.to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="bad header"):
        read_snapshot(path)


def test_norm_series_csv_roundtrip(tmp_path):
    rep = classify(PARAMS_B4, delta=0.3)
    cfg = _config(horizon=1.0, steps=10)
    res = solve(cfg, rep)
    path = tmp_path / "norms.csv"
    res.norms.write_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "t,linf_u1,linf_u2,ls_u1,ls_u2,scaled_u1,scaled_u2,mass_u1,mass_u2,picard_iters"
    back = read_norms_csv(path)
    assert np.allclose(back.t, res.norms.t, rtol=0, atol=0)
    assert np.allclose(back.linf, res.norms.linf, rtol=1e-16)
    assert np.allclose(back.ls, res.norms.ls, rtol=1e-16, equal_nan=True)
