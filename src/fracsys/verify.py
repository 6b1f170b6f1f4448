"""Post-processing checks of the solver's quantitative behaviour: the
scaled-norm decay law, the sup-norm bound in the essentially-bounded regime,
and the self-similar envelope for kernel-shaped initial data.  The discrete
comparison principle between runs is a test's concern: its helper lives in
``tests/conftest.py``.

Each check decides itself whether it applies: when its hypotheses fail it
raises :class:`RegimeMismatch`, when the run is too short
:class:`InsufficientData`, and the message says why.  Otherwise it returns one
report per component, whose fields after ``component`` are the keys of the
``verification.txt`` lines (``decay_slope_u1``, ``env_k_u2``, ...).

Fitted constants here are qualitative: the theory guarantees existence of
constants, not values, so verdicts combine boundedness with loose (5-10%)
shape tolerances, while exact algebraic identities are tested elsewhere at
machine tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import (ExponentReport, SystemParams, REGIME_NO_GUARANTEE,
                        REGIME_SMALL_DATA_BOUNDED)
from .kernels import KernelSpec, eval_density_grid
from .solver import InitialData, NormSeries

# scaled-norm growth allowed between t = 1 and the horizon
DECAY_GROWTH_SLACK = 0.10
# share of the t >= 1 nodes, at the end, that the decay slope is fitted on
DECAY_TAIL_FRACTION = 0.25
# pointwise slack for the fitted sup-norm bound
LINF_EXCESS_SLACK = 0.05
# pointwise slack for the fitted envelope
ENVELOPE_EXCESS_SLACK = 0.10
# envelope denominator mask threshold, relative to the kernel peak
ENVELOPE_MASK = 1e-12


class InsufficientData(ValueError):
    pass


class RegimeMismatch(ValueError):
    pass


@dataclass
class DecayReport:
    component: int
    sup_scaled: float
    slope: float
    slope_target: float
    verdict: bool


@dataclass
class LinfBoundReport:
    component: int
    exponent: float
    max_excess: float
    verdict: bool


@dataclass
class EnvelopeReport:
    component: int
    k: float
    c: float
    violation: float
    verdict: bool


def _tail_window(t: np.ndarray) -> np.ndarray:
    start = int(math.floor(t.size * (1.0 - DECAY_TAIL_FRACTION)))
    return np.arange(min(start, t.size - 2), t.size)


def decay_report(series: NormSeries, exps: ExponentReport):
    """Scaled-norm boundedness and tail log-log slope per component.

    The window is t >= 1 (the scaled quantity is examined away from the
    initial transient); the verdict requires a finite supremum, a finite
    slope and a final scaled value at most (1 + 10%) of its value at the
    first node >= 1.
    """
    if exps.regime == REGIME_NO_GUARANTEE:
        raise RegimeMismatch(f"decay law needs a global-existence regime, got {exps.regime}")
    if exps.s is None:
        raise RegimeMismatch("decay check needs a regime with norm orders attached")
    win = series.t >= 1.0
    if int(win.sum()) < 10:
        raise InsufficientData(f"only {int(win.sum())} nodes with t >= 1; need at least 10")
    out = []
    tw = series.t[win]
    for i in (0, 1):
        scaled = series.scaled[win, i]
        ls = series.ls[win, i]
        sup = float(np.max(scaled))
        tail = _tail_window(tw)
        slope = float(np.polyfit(np.log(tw[tail]), np.log(ls[tail]), 1)[0])
        verdict = bool(np.isfinite(sup) and math.isfinite(slope)
                       and scaled[-1] <= scaled[0] * (1.0 + DECAY_GROWTH_SLACK))
        out.append(DecayReport(component=i + 1, sup_scaled=sup, slope=slope,
                               slope_target=-exps.xi[i], verdict=verdict))
    return tuple(out)


def linf_bound_check(series: NormSeries, exps: ExponentReport):
    """Fit the sup-norm bound c1 ||phi||_inf + c2 t^e_i per component by
    nonnegative least squares over t >= 1.  The exponent e_i is the report's
    ``linf_exponent``: the paper's sigma_i - beta_i xi_j
    - rho_i d beta_i / (alpha_i s_j) + 1, evaluated exactly with the other
    exponents.

    The two constants are fitted separately (the bounding constant is not a
    single number across both terms).  Verdict: the recorded sup norm never
    exceeds the fitted bound by more than 5% at any positive time.
    """
    if exps.regime != REGIME_SMALL_DATA_BOUNDED:
        raise RegimeMismatch(f"sup-norm bound requires the bounded regime, got {exps.regime}")
    out = []
    pos = series.t > 0.0
    fit = series.t >= 1.0
    for i, e_i in enumerate(exps.linf_exponent):
        phinf = float(series.linf[0, i])
        y = series.linf[fit, i]
        design = np.column_stack([np.full(y.size, phinf), series.t[fit] ** e_i])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        coef = np.clip(coef, 0.0, None)
        bound = coef[0] * phinf + coef[1] * series.t[pos] ** e_i
        with np.errstate(divide="ignore"):
            excess = float(np.max(series.linf[pos, i] / bound)) - 1.0
        out.append(LinfBoundReport(component=i + 1, exponent=e_i, max_excess=excess,
                                   verdict=excess <= LINF_EXCESS_SLACK))
    return tuple(out)


def envelope_mismatch(exps: ExponentReport, init: InitialData):
    """Why the self-similar envelope does not apply, or None: it needs the
    Theorem 3 hypothesis and kernel-shaped initial data."""
    if not exps.theorem3_applicable:
        return "self-similar envelope hypothesis does not hold for these parameters"
    if init.kind != "stable_kernel":
        return f"self-similar envelope needs stable_kernel initial data, got {init.kind}"


def envelope_ratios(pair, params: SystemParams, grid):
    """The envelope ratios (R_1(t), R_2(t)) of one snapshot, t = pair.time:
    R_i(t) = max_x u_i(t, x) / D(t, x) over the grid points where the
    envelope denominator D(t, x) = (1 + t^rho)^(d/alpha) p(1 + t^rho, x) is
    at least ``ENVELOPE_MASK`` * p(1 + t^rho, 0).  Kernel-shaped data give
    R_i(0) = eps.  ``grid`` is the view the pair lives on, as ``solve``
    hands both to its sink: the kernel is evaluated there.
    """
    alpha, rho, d, t = params.alpha[0], params.rho[0], params.dim, pair.time
    kern = eval_density_grid(KernelSpec(alpha, d), 1.0 + t**rho, grid)
    peak = float(kern.max())
    prefac = (1.0 + t**rho) ** (d / alpha)
    mask = prefac * kern >= ENVELOPE_MASK * peak
    denom = kern[mask]
    r1 = float((pair.u1[mask] / denom).max()) / prefac
    # a symmetric run's aliased pair has one field
    return r1, r1 if pair.u2 is pair.u1 else float((pair.u2[mask] / denom).max()) / prefac


def selfsimilar_envelope_check(times, ratios, exps: ExponentReport, init: InitialData):
    """Fit the snapshot times and their :func:`envelope_ratios` as
    c*eps*(1+t)^(-k) over t >= 1, where :func:`envelope_mismatch` finds no
    reason against it.  Verdict: fitted k > 0 and no snapshot exceeds the
    fit by more than 10%.
    """
    reason = envelope_mismatch(exps, init)
    if reason is not None:
        raise RegimeMismatch(reason)
    times, ratios = np.array(times, dtype=float), np.array(ratios, dtype=float)
    fit = times >= 1.0
    if int(fit.sum()) < 3:
        raise InsufficientData("need at least 3 snapshots with t >= 1 to fit the envelope")
    out = []
    for i in (0, 1):
        slope, intercept = np.polyfit(np.log1p(times[fit]), np.log(ratios[fit, i]), 1)
        k_fit = -float(slope)
        c_fit = float(math.exp(intercept) / init.epsilon)
        bound = c_fit * init.epsilon * (1.0 + times) ** (-k_fit)
        violation = float(np.max(ratios[:, i] / bound)) - 1.0
        out.append(EnvelopeReport(component=i + 1, k=k_fit, c=c_fit, violation=violation,
                                  verdict=bool(k_fit > 0.0 and violation <= ENVELOPE_EXCESS_SLACK)))
    return tuple(out)
