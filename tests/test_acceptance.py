"""Acceptance suite: every criterion with its stated tolerance and runtime
budget, one printed PASS/FAIL line each (run with -s to see them inline).

The reference experiment (d=1, alpha=2, beta=4, rho=1, sigma=0, Delta=0.3,
kernel initial data with eps=1e-2 on N=2048, L=60, horizon 50) is shared
across criteria 5-8 and 10 through session fixtures.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (REF_EPSILON, SMALL, comparison_check, eta_theta_residuals,
                      propagate_reference, reference_config)
from fracsys.exponents import REGIME_NO_GUARANTEE, SystemParams, classify
from fracsys.kernels import (KernelSpec, SpectralGrid, check_monotone_domination,
                             check_scaling, lp_norm_slope, semigroup_residual)
from fracsys.solver import InitialData, RunConfig, TimeMesh, make_initial_data, solve
from fracsys.verify import (decay_report, envelope_ratios, linf_bound_check,
                            selfsimilar_envelope_check)


def _report(num, ok, desc, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d} ({elapsed:6.1f}s / {budget:.0f}s budget): {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


# ---------------------------------------------------------------------------

def test_criterion_01_kernel_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    notes = []

    for alpha, tol in ((1.0, 1e-12), (2.0, 1e-12), (1.5, 1e-6)):
        spec = KernelSpec(alpha, 1)
        worst_scal = 0.0
        worst_dom = 0.0
        for _ in range(100):
            t = rng.uniform(0.2, 5.0)
            s = rng.uniform(0.2, 5.0)
            radii = rng.uniform(0.0, 10.0, size=4)
            worst_scal = max(worst_scal, check_scaling(spec, t, s, radii))
            lo, hi = sorted((t, s))
            margin = check_monotone_domination(spec, hi, lo, radii)
            worst_dom = min(worst_dom, margin)
        ok &= worst_scal <= tol and worst_dom >= -1e-12
        notes.append(f"a={alpha:g} scal={worst_scal:.1e} dom={worst_dom:.1e}")

    worst_slope = 0.0
    for dim in (1, 2):
        for alpha in (1.0, 1.5, 2.0):
            for mu in (1.5, 2.0, 3.0):
                slope = lp_norm_slope(KernelSpec(alpha, dim), mu, [1.0, 2.0, 4.0, 8.0])
                target = -(dim / alpha) * (1.0 - 1.0 / mu)
                rel = abs(slope - target) / abs(target)
                worst_slope = max(worst_slope, rel)
    ok &= worst_slope <= 5e-3
    notes.append(f"slope_rel={worst_slope:.1e}")

    smg = max(semigroup_residual(KernelSpec(2.0, 1), 1.0, 1.0, SpectralGrid(1, 512, 20.0)),
              semigroup_residual(KernelSpec(1.0, 1), 1.0, 2.0, SpectralGrid(1, 1024, 40.0)),
              semigroup_residual(KernelSpec(1.5, 1), 0.5, 0.5, SpectralGrid(1, 512, 30.0)))
    ok &= smg <= 1e-6
    notes.append(f"smg={smg:.1e}")

    _report(1, ok, "kernel identity suite: " + ", ".join(notes),
            time.perf_counter() - start, 30.0)


def test_criterion_02_exponent_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    remark_checked = 0
    count = 0
    while count < 1000:
        params = SystemParams(
            alpha=tuple(rng.uniform(0.3, 2.0, 2)),
            beta=tuple(rng.uniform(1.05, 6.0, 2)),
            rho=tuple(rng.uniform(0.2, 3.0, 2)),
            sigma=tuple(rng.uniform(-0.9, 2.0, 2)),
            dim=int(rng.integers(1, 7)),
        )
        rep = classify(params)
        for i in (0, 1):
            if params.alpha[i] >= params.dim:
                assert rep.k_tilde[i] <= rep.k_hat[i]
                remark_checked += 1
        if rep.delta is None:
            continue
        count += 1
        delta = rep.delta
        for i in (0, 1):
            j = 1 - i
            bi, bj = params.beta[i], params.beta[j]
            closed = (1.0 - delta) * (1.0 + bi) / (bi * bj - 1.0)
            worst = max(worst, abs(rep.xi[i] - closed))
            worst = max(worst, abs(params.rho[i] * rep.delta_small[i] - params.sigma[i] - delta))
        eta, theta = eta_theta_residuals(params, rep.xi, rep.delta_small)
        worst = max(worst, max(abs(v) for v in eta + theta))
    assert remark_checked > 100

    # Delta-independence of r when alpha_j rho_i = alpha_i rho_j
    worst_indep = 0.0
    found = 0
    while found < 50:
        alpha = tuple(rng.uniform(0.3, 2.0, 2))
        rho1 = rng.uniform(0.2, 3.0)
        params = SystemParams(alpha, tuple(rng.uniform(1.05, 6.0, 2)),
                              (rho1, rho1 * alpha[1] / alpha[0]),
                              tuple(rng.uniform(-0.9, 2.0, 2)), int(rng.integers(1, 7)))
        info = classify(params)
        lo, hi = info.window.lo, info.window.hi
        if not lo < hi:
            continue
        try:
            r_a = classify(params, delta=lo + (hi - lo) / 3).r
            r_b = classify(params, delta=lo + 2 * (hi - lo) / 3).r
        except ValueError:
            continue
        found += 1
        for i in (0, 1):
            worst_indep = max(worst_indep, abs(r_a[i] - r_b[i]) / abs(r_a[i]))

    ok = worst <= 1e-12 and worst_indep <= 1e-14
    _report(2, ok, f"exponent identities on 1000 draws: worst={worst:.1e}, "
            f"delta-independence={worst_indep:.1e}, small-dim cap instances={remark_checked}",
            time.perf_counter() - start, 5.0)


def test_criterion_03_regime_table():
    start = time.perf_counter()
    ok = True
    for dim in range(1, 7):
        for beta in (1.5, 2.0, 3.0, 4.0, 5.0):
            params = SystemParams((2, 2), (beta, beta), (1, 1), (0, 0), dim)
            rep = classify(params)
            global_regime = rep.regime != REGIME_NO_GUARANTEE
            threshold = Fraction(beta) > 1 + Fraction(2, dim)
            window_nonempty = rep.window.lo < rep.window.hi
            ok &= global_regime == threshold == window_nonempty
    _report(3, ok, "classical regime flips exactly at beta = 1 + 2/d for d in 1..6",
            time.perf_counter() - start, 1.0)


def test_criterion_04_solver_linear_exactness():
    start = time.perf_counter()
    worst = 0.0
    for alpha, rho in ((2.0, 1.0), (1.0, 1.0), (1.5, 0.5)):
        params = SystemParams((alpha, alpha), (2, 2), (rho, rho), (0, 0), 1)
        grid = SpectralGrid(1, 1024, 40.0)
        cfg = RunConfig(params, grid, TimeMesh(4.0, 40), InitialData("gaussian", SMALL, 1.0),
                        snapshot_stride=1)
        res = solve(cfg)
        assert res.status.completed
        phi = make_initial_data(cfg.init, grid, params)
        for snap in res.snapshots[1:]:
            ref = propagate_reference(phi.u1, grid, alpha, rho, 0.0, snap.time)
            rel = float(np.linalg.norm(snap.u1 - ref) / np.linalg.norm(ref))
            worst = max(worst, rel)
    _report(4, worst <= 1e-10, f"linear runs match the multiplier solution: worst rel L2 = {worst:.1e}",
            time.perf_counter() - start, 20.0)


def test_criterion_05_decay_law_reference_run(ref_run, ref_report, ref_linear_run):
    # the runs happen in the session fixtures; charge them to this criterion
    start = time.perf_counter() - ref_run["elapsed"] - ref_linear_run.diagnostics["elapsed"]
    result = ref_run["result"]
    assert result.status.completed
    assert ref_report.s == (5.0, 5.0)
    assert ref_report.xi[0] == pytest.approx(7.0 / 30.0, abs=1e-15)

    decays = decay_report(result.norms, ref_report)
    ok = all(d.verdict and math.isfinite(d.sup_scaled) for d in decays)

    lin = decay_report(ref_linear_run.norms, ref_report)
    target = -(1.0 / 2.0) * (1.0 - 1.0 / 5.0)
    slope_ok = all(abs(d.slope - target) <= 0.05 * abs(target) for d in lin)

    _report(5, ok and slope_ok,
            f"scaled norm bounded on [1,50] (sup={decays[0].sup_scaled:.3e}), final/initial "
            f"within 10%, linear baseline slope {lin[0].slope:.4f} vs {target:.4f}",
            time.perf_counter() - start, 300.0)


def test_criterion_06_sup_norm_bound(ref_run, ref_report):
    start = time.perf_counter()
    reps = linf_bound_check(ref_run["result"].norms, ref_report)
    exponent_ok = all(abs(r.exponent + 1.0 / 3.0) <= 1e-12 for r in reps)
    ok = exponent_ok and all(r.verdict for r in reps)
    _report(6, ok, f"sup-norm bound with exponent -1/3: max excess = "
            f"{max(r.max_excess for r in reps):.2%}",
            time.perf_counter() - start, 300.0)


def test_criterion_07_selfsimilar_envelope(ref_run, ref_report):
    start = time.perf_counter()
    assert ref_report.theorem3_applicable     # 1/3 < 1/2
    cfg = ref_run["config"]
    snapshots = ref_run["result"].snapshots
    reps = selfsimilar_envelope_check(snapshots, cfg.params, ref_report, cfg.run.init, cfg.run.grid)
    _, ratios = envelope_ratios(snapshots, cfg.params, cfg.run.grid)
    init_ok = all(abs(r - REF_EPSILON) <= 1e-10 for r in ratios[0])
    ok = init_ok and all(r.verdict and r.k > 0.0 for r in reps)
    _report(7, ok, f"envelope: R(0)=eps to 1e-10, fitted k={reps[0].k:.3f} > 0, "
            f"max violation {max(r.violation for r in reps):.2%} <= 10%",
            time.perf_counter() - start, 300.0)


def test_criterion_08_comparison_principle(ref_run):
    start = time.perf_counter()
    runs = [ref_run["result"]]
    for eps in (REF_EPSILON / 2, REF_EPSILON / 4):
        cfg = reference_config(epsilon=eps)
        res = solve(cfg.run, classify(cfg.params, delta=0.3))
        assert res.status.completed
        runs.append(res)
    pairs = [(0, 1), (1, 2), (0, 2)]
    worst_rel = 0.0
    ok = True
    for a, b in pairs:
        rep = comparison_check(runs[a].snapshots, runs[b].snapshots)
        ok &= rep.ordered
        scale = max(float(np.abs(s.u1).max()) for s in runs[a].snapshots)
        worst_rel = min(worst_rel, rep.worst_margin / scale)
    _report(8, ok, f"snapshots of eps, eps/2, eps/4 runs pointwise ordered; "
            f"worst margin {worst_rel:.1e} of ||u||_inf >= -1e-9",
            time.perf_counter() - start, 300.0)


def test_criterion_09_convergence_order():
    start = time.perf_counter()

    def terminal(steps, sigma):
        params = SystemParams((2, 2), (2, 2), (1, 1), (sigma, sigma), 1)
        cfg = RunConfig(params, SpectralGrid(1, 256, 30.0), TimeMesh(1.0, steps),
                        InitialData("gaussian", 0.5, 1.0), snapshot_stride=10**9)
        res = solve(cfg)
        assert res.status.completed
        return res.snapshots[-1].u1

    # the solver derives the grading: 1, 2 and 4/3 for these sigma
    sigmas = (0.0, -0.5, 0.5)
    ratios = []
    for sigma in sigmas:
        u1, u2, u4 = (terminal(k, sigma) for k in (16, 32, 64))
        ratios.append(float(np.linalg.norm(u1 - u2) / np.linalg.norm(u2 - u4)))
    ok = all(r >= 2.0 for r in ratios)
    _report(9, ok, "mesh-doubling error ratios "
            + ", ".join(f"{r:.2f} (sigma={s:g})" for r, s in zip(ratios, sigmas))
            + ", all >= 2", time.perf_counter() - start, 180.0)


def test_criterion_10_determinism(ref_run, ref_outdir):
    start = time.perf_counter()
    from fracsys.cli import run_experiment

    cfg = reference_config()
    code, _, _ = run_experiment(cfg, ref_outdir / "b")
    assert code == 0
    dir_a = ref_run["dir"] / cfg.values.run_id
    dir_b = ref_outdir / "b" / cfg.values.run_id
    names = sorted(p.name for p in dir_a.iterdir())
    ok = names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        ok &= (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    _report(10, ok, f"repeated runs byte-identical across {len(names)} artifacts "
            "(norms CSV, snapshots, manifest)",
            time.perf_counter() - start, 300.0)
