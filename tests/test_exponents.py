"""Exponent calculus: window arithmetic, norm orders, internal identities,
and regime classification.  Expected values below were computed by hand from
the defining formulas (all rational arithmetic)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import eta_theta_residuals
from fracsys.exponents import (DeltaOutsideWindow, REGIME_NO_GUARANTEE,
                               REGIME_SELF_SIMILAR, REGIME_SMALL_DATA,
                               REGIME_SMALL_DATA_BOUNDED, SystemParams, _Calc, classify)
from fracsys.solver import NormSeries
from fracsys.verify import linf_bound_check

CLASSICAL_D3 = SystemParams((2, 2), (2, 2), (1, 1), (0, 0), 3)
CLASSICAL_D2 = SystemParams((2, 2), (2, 2), (1, 1), (0, 0), 2)
QUARTIC_D1 = SystemParams((2, 2), (4, 4), (1, 1), (0, 0), 1)
ASYMMETRIC = SystemParams((2, 1), (2, 2), (1, 2), (0, 0), 2)


def _random_params(rng) -> SystemParams:
    return SystemParams(
        alpha=tuple(rng.uniform(0.3, 2.0, 2)),
        beta=tuple(rng.uniform(1.05, 6.0, 2)),
        rho=tuple(rng.uniform(0.2, 3.0, 2)),
        sigma=tuple(rng.uniform(-0.9, 2.0, 2)),
        dim=int(rng.integers(1, 7)),
    )


def _swapped(params: SystemParams) -> SystemParams:
    """The same system with the component labels exchanged."""
    return SystemParams(params.alpha[::-1], params.beta[::-1], params.rho[::-1],
                        params.sigma[::-1], params.dim)


def _admissible_draws(count, seed=11):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        params = _random_params(rng)
        report = classify(params)
        if report.delta is not None:
            out.append((params, report))
    return out


# ---------------------------------------------------------------------------
# windows

def _r_lower_bound_interval_typed(c, lo, hi):
    """``_Calc.r_lower_bound_interval`` with the delta-coefficient of the
    r-denominator typed out: the reference form of its derived coefficient."""
    for i in (0, 1):
        j = 1 - i
        coef = -c.be[i] * (c.al[j] * c.ro[i] - c.al[i] * c.ro[j])
        const = c.norm_numerator - c.al[i] * c.ro[j] * (1 + c.be[i] + c.si[i]) \
            - c.be[i] * c.al[j] * c.ro[i] * c.si[j]
        if coef == 0:
            if const < 0:
                return lo, lo
        elif coef > 0:
            lo = max(lo, -const / coef)
        else:
            hi = min(hi, -const / coef)
    return lo, hi


def test_r_lower_bound_interval_is_its_typed_form():
    rng = np.random.default_rng(5)
    draws = [_random_params(rng) for _ in range(200)] + [CLASSICAL_D3, QUARTIC_D1, ASYMMETRIC]
    for params in draws:
        c = _Calc(params)
        for lo, hi in (c.window_bounds(c.k_tilde), (Fraction(-5), Fraction(5))):
            assert c.r_lower_bound_interval(lo, hi) == _r_lower_bound_interval_typed(c, lo, hi)


@st.composite
def _system_params(draw):
    """A system over ``_random_params``' ranges whose constants have equal
    components in about 30 % of the draws."""
    pairs = []
    for lo, hi in ((0.3, 2.0), (1.05, 6.0), (0.2, 3.0), (-0.9, 2.0)):
        first = draw(st.floats(lo, hi))
        pairs.append((first, first if draw(st.integers(0, 9)) < 3 else draw(st.floats(lo, hi))))
    return SystemParams(*pairs, draw(st.integers(1, 6)))


@given(params=_system_params())
@settings(max_examples=300, deadline=None)
def test_norm_order_denominators_are_positive_on_every_window(params):
    # _Calc.at divides by R_i and S_i unchecked; both are affine in Delta, so
    # positive values at the ends of a non-empty window cover all of it
    c = _Calc(params)
    for lo, hi in (c.window_bounds(c.k_tilde), c.window_bounds(map(min, c.k_tilde, c.k_hat))):
        if lo < hi:
            for const, slope in c.r_den + c.s_den:
                assert const + slope * lo > 0 and const + slope * hi > 0, (lo, hi)


def _delta_free_reference(params: SystemParams):
    """Each Delta-free pair typed out per component from its defining
    formula, and the Theorem-3 gate with its left-hand side typed out: the
    reference forms of the pairs ``_Calc`` forms once and of its gate."""
    al, be, ro, si = ([Fraction(float(v)) for v in pair]
                      for pair in (params.alpha, params.beta, params.rho, params.sigma))
    d, bb1 = Fraction(params.dim), be[0] * be[1] - 1

    def x_tilde(i):
        j = 1 - i
        return (1 + be[i] + si[i] * (1 - be[i] * be[j])) / (be[i] * (1 + be[j]))

    def k(i, lead):
        j = 1 - i
        num = lead * ro[i] * ro[j] * bb1 \
            - (al[j] * ro[i] * si[j] + al[i] * be[j] * ro[j] * si[i]) * be[i]
        return num / (be[i] * (al[j] * ro[i] + al[i] * be[j] * ro[j]))

    def theta3(i):
        j = 1 - i
        return (1 + si[i] + be[i] * (1 + si[j])) / bb1

    pairs = {"x_tilde": [x_tilde(0), x_tilde(1)], "rho_tilde": [ro[0] - si[0], ro[1] - si[1]],
             "k_tilde": [k(0, d), k(1, d)], "k_hat": [k(0, al[0]), k(1, al[1])],
             "theta3": [theta3(0), theta3(1)]}
    gate = al[0] == al[1] and ro[0] == ro[1] and ro[0] <= 1 \
        and (1 + max(si[0] + be[0] * (1 + si[1]), si[1] + be[1] * (1 + si[0]))) / bb1 \
        < d * ro[0] / al[0]
    return pairs, gate


def test_delta_free_pairs_are_their_reference_forms():
    # each constant's components are equal in 40 % of the draws, so the
    # Theorem-3 gate's equalities hold and tied pairs meet in max and min;
    # the draws are multiples of 2^-20, whose short binary expansions keep
    # the exact arithmetic of 2,000 draws near a second
    rng = np.random.default_rng(25)
    count = 2000
    constants = []
    for lo, hi in ((0.3, 2.0), (1.05, 6.0), (0.2, 2.0), (-0.9, 2.0)):
        pairs = rng.integers(lo * 2**20, hi * 2**20, (count, 2)) / 2**20
        tied = rng.random(count) < 0.4
        pairs[tied, 1] = pairs[tied, 0]
        constants.append(pairs.tolist())
    gates, unequal = {True: 0, False: 0}, []
    for *pairs, dim in zip(*constants, rng.integers(1, 7, count).tolist()):
        params = SystemParams(*map(tuple, pairs), dim)
        c = _Calc(params)
        reference, gate = _delta_free_reference(params)
        unequal += [(name, params) for name, pair in reference.items() if getattr(c, name) != pair]
        if c.theorem3_applicable() is not gate:
            unequal.append(("theorem3_applicable", params))
        gates[gate] += 1
    assert not unequal, unequal[:3]
    assert gates[True] >= 50 and gates[False] >= 50, gates


def test_time_change_is_exactly_covariant():
    # with rho_1 = rho_2 = rho, tau = t^rho maps the system to rho = 1 and
    # sigma'_i = (1 + sigma_i)/rho - 1: both windows map by
    # Delta' = 1 - (1 - Delta)/rho, r, s, delta_i and the role are equal at
    # mapped Deltas, and xi' = xi/rho, theta3' = theta3/rho.  Theorem 3's
    # rho <= 1 gate is not covariant and is left out.  Dyadic constants and
    # rho keep sigma' exact.
    rng = np.random.default_rng(27)
    nonempty = 0
    for _ in range(600):
        rho = Fraction(2) ** int(rng.choice([-2, -1, 1, 2]))
        alpha = tuple(rng.integers(1, 2**6 + 1, 2) / 2**5)
        beta = tuple(1 + rng.integers(1, 5 * 2**5, 2) / 2**5)
        sigma = tuple(rng.integers(-2**5 + 1, 2**6, 2) / 2**5)
        dim = int(rng.integers(1, 7))
        twin_sigma = tuple(float((1 + Fraction(s)) / rho - 1) for s in sigma)
        c = _Calc(SystemParams(alpha, beta, (float(rho),) * 2, sigma, dim))
        t = _Calc(SystemParams(alpha, beta, (1.0, 1.0), twin_sigma, dim))

        def mapped(*deltas):
            return tuple(1 - (1 - delta) / rho for delta in deltas)

        window = c.window_bounds(c.k_tilde)
        assert mapped(*window) == t.window_bounds(t.k_tilde)
        assert mapped(*c.window_bounds(map(min, c.k_tilde, c.k_hat))) \
            == t.window_bounds(map(min, t.k_tilde, t.k_hat))
        assert mapped(*c.r_lower_bound_interval(*window)) \
            == t.r_lower_bound_interval(*mapped(*window))
        assert t.theta3 == [theta / rho for theta in c.theta3]
        lo, hi = window
        if lo < hi:
            nonempty += 1
            r, s, xi, dsm, _, role = c.at((lo + hi) / 2)
            tr, ts, txi, tdsm, _, trole = t.at(*mapped((lo + hi) / 2))
            assert (tr, ts, tdsm, trole) == (r, s, dsm, role)
            assert txi == [x / rho for x in xi]
    assert nonempty >= 100, nonempty


def test_window_classical_d3():
    info = classify(CLASSICAL_D3)
    assert info.x_tilde == (0.5, 0.5)
    assert info.rho_tilde == (1.0, 1.0)
    assert info.k_tilde == (0.75, 0.75)
    assert (info.window.lo, info.window.hi) == (0.5, 0.75)


def test_window_classical_d2_empty():
    info = classify(CLASSICAL_D2)
    assert info.k_tilde == (0.5, 0.5)
    assert not info.window.lo < info.window.hi


def test_window_asymmetric():
    info = classify(ASYMMETRIC)
    assert info.x_tilde == (0.5, 0.5)
    assert info.rho_tilde == (1.0, 2.0)
    assert info.k_tilde[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert info.k_tilde[1] == pytest.approx(1.0, abs=1e-15)
    assert (info.window.lo, info.window.hi) == (0.5, 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams((2, 2), (1.0, 2), (1, 1), (0, 0), 1)     # beta must exceed 1
    with pytest.raises(ValueError):
        SystemParams((2, 2), (2, 2), (1, 1), (-1.0, 0), 1)    # sigma > -1
    with pytest.raises(ValueError):
        SystemParams((2, 3), (2, 2), (1, 1), (0, 0), 1)       # alpha <= 2
    with pytest.raises(ValueError):
        SystemParams((2, 2), (2, 2), (0, 1), (0, 0), 1)       # rho > 0
    with pytest.raises(ValueError, match="beta must be finite"):
        SystemParams((2, 2), (math.inf, 2), (1, 1), (0, 0), 1)
    with pytest.raises(ValueError, match="rho must be finite"):
        SystemParams((2, 2), (2, 2), (math.inf, 1), (0, 0), 1)
    with pytest.raises(ValueError, match="sigma must be finite"):
        SystemParams((2, 2), (2, 2), (1, 1), (math.inf, 0), 1)


def test_a_index_tiebreak():
    assert SystemParams((2, 2), (2, 2), (1, 1), (0, 0), 1).a_index == 1
    assert SystemParams((2, 1), (2, 2), (1, 1), (0, 0), 1).a_index == 2
    assert SystemParams((1, 2), (2, 2), (1, 1), (0, 0), 1).a_index == 1


# ---------------------------------------------------------------------------
# norm orders

def test_norm_exponents_classical_d3():
    ne = classify(CLASSICAL_D3, delta=0.6)
    assert ne.r == (1.5, 1.5)
    assert ne.s == (2.5, 2.5)
    assert ne.xi == (0.4, 0.4)
    assert ne.delta_small == (0.6, 0.6)


def test_norm_exponents_quartic_d1():
    ne = classify(QUARTIC_D1, delta=0.3)
    assert ne.r == (1.5, 1.5)
    assert ne.s == (5.0, 5.0)
    assert ne.xi[0] == pytest.approx(7.0 / 30.0, abs=1e-16)
    assert ne.delta_small == (0.3, 0.3)


def test_norm_exponents_asymmetric():
    ne = classify(ASYMMETRIC, delta=0.75)
    assert ne.r[0] == pytest.approx(1.6, abs=1e-15)
    assert ne.s[0] == pytest.approx(8.0 / 3.0, abs=1e-15)
    assert ne.xi[0] == pytest.approx(0.25, abs=1e-15)


def test_delta_outside_window_rejected():
    for params, delta in ((CLASSICAL_D3, 0.75), (CLASSICAL_D3, 0.5), (CLASSICAL_D2, 0.5),
                          (CLASSICAL_D3, math.nan), (CLASSICAL_D3, math.inf)):
        with pytest.raises(DeltaOutsideWindow):
            classify(params, delta=delta)


def _admissibility_margins(params: SystemParams, r, s, num=float) -> dict:
    """Reference of the paper's fixed-point and local-existence inequalities,
    in floats or, with ``num=Fraction`` and rational r and s, exactly:
    {role (1 or 2): {name: (margin, strict)}}; an inequality holds when its
    margin is > 0 (strict) or >= 0."""
    d = num(params.dim)
    out = {}
    for i in (0, 1):
        j = 1 - i
        bi, bj, ai = (num(float(v)) for v in (params.beta[i], params.beta[j], params.alpha[i]))
        I, J = i + 1, j + 1
        out[I] = {
            f"s_{I} >= r_{I}": (s[i] - r[i], False),
            f"s_{J} >= beta_{I}": (s[j] - bi, False),
            f"s_{I}*beta_{I} >= s_{J}": (s[i] * bi - s[j], False),
            f"beta_{I}/s_{J} - 1/s_{I} < alpha_{I}/d": (ai / d - (bi / s[j] - 1 / s[i]), True),
            f"s_{J} >= r_{J}": (s[j] - r[j], False),
            f"s_{J}*beta_{J} >= r_{I}": (s[j] * bj - r[i], False),
            f"r_{I} >= 1": (r[i] - 1, False),
            f"r_{J} >= 1": (r[j] - 1, False),
        }
    return out


def _reference_role(margins: dict):
    for role in (1, 2):
        if all(m > 0.0 if strict else m >= 0.0 for m, strict in margins[role].values()):
            return role
    return None


def test_admissibility_quartic():
    ne = classify(QUARTIC_D1, delta=0.3)
    margins = _admissibility_margins(QUARTIC_D1, ne.r, ne.s)
    assert _reference_role(margins) == ne.role_i == 1
    role1 = {name: m for name, (m, _) in margins[1].items()}
    assert role1["s_1 >= r_1"] == pytest.approx(3.5)
    assert role1["s_2 >= beta_1"] == pytest.approx(1.0)
    assert role1["s_1*beta_1 >= s_2"] == pytest.approx(15.0)


def test_admissibility_classical_d3():
    ne = classify(CLASSICAL_D3, delta=0.6)
    margins = _admissibility_margins(CLASSICAL_D3, ne.r, ne.s)
    assert _reference_role(margins) == ne.role_i == 1


def test_role_matches_the_float_inequalities_away_from_ties():
    # the draws of acceptance criterion 2 at Deltas across the main window,
    # where either role or neither may hold; a margin within 1e-9 of 0 is a
    # tie that float rounding may decide either way, so it is skipped
    rng = np.random.default_rng(2)
    roles = {1: 0, 2: 0, None: 0}
    while sum(roles.values()) < 600:
        params = _random_params(rng)
        window = classify(params).window
        if not window.lo < window.hi:
            continue
        for frac in (0.1, 0.5, 0.9):
            rep = classify(params, delta=window.lo + frac * (window.hi - window.lo))
            # the inequalities that _Calc.at's comment shows cannot fail
            # inside the window: delta_i < 1, s_i > r_i and s_i beta_i > s_j
            assert all(dsm < 1.0 for dsm in rep.delta_small), (params, rep.delta)
            assert all(s > r for r, s in zip(rep.r, rep.s)), (params, rep.delta)
            assert all(rep.s[i] * params.beta[i] > rep.s[1 - i] for i in (0, 1)), (params, rep.delta)
            margins = _admissibility_margins(params, rep.r, rep.s)
            if any(abs(m) < 1e-9 for role in margins.values() for m, _ in role.values()):
                continue
            assert rep.role_i == _reference_role(margins), (params, rep.delta)
            roles[rep.role_i] += 1
    assert roles[2] >= 20 and roles[None] >= 3, roles


_IMPLIED = ("s_{I} >= r_{I}", "s_{I}*beta_{I} >= s_{J}", "beta_{I}/s_{J} - 1/s_{I} < alpha_{I}/d",
            "s_{J} >= r_{J}", "s_{J}*beta_{J} >= r_{I}")


@given(params=_system_params())
@settings(max_examples=300, deadline=None)
def test_role_is_the_exact_inequalities_at_both_window_ends(params):
    # _Calc.at checks only r >= 1 and s_j >= beta_i; the other five of each
    # role hold strictly in the window, up to 1e-9 of either end
    c = _Calc(params)
    for lo, hi in (c.window_bounds(c.k_tilde), c.window_bounds(map(min, c.k_tilde, c.k_hat))):
        if not lo < hi:
            continue
        gap = min(Fraction(1, 10**9), (hi - lo) / 2)
        for delta in (lo + gap, hi - gap):
            r, s, _, _, _, role = c.at(delta)
            margins = _admissibility_margins(params, r, s, Fraction)
            assert role == _reference_role(margins), (lo, hi, delta)
            for I, J in ((1, 2), (2, 1)):
                for name in _IMPLIED:
                    name = name.format(I=I, J=J)
                    assert margins[I][name][0] > 0, (name, lo, hi, delta)


# ---------------------------------------------------------------------------
# k_hat and the bounded window

def test_k_hat_equals_k_tilde_when_alpha_is_dim():
    params = SystemParams((2, 1.5), (3, 2), (1, 0.7), (0, 0), 2)
    info = classify(params)
    assert info.k_hat[0] == pytest.approx(info.k_tilde[0], abs=1e-15)  # alpha_1 = d = 2


def test_k_hat_quartic():
    info = classify(QUARTIC_D1)
    assert info.k_tilde == (0.375, 0.375)
    assert info.k_hat == (0.75, 0.75)
    assert (info.window_bounded.lo, info.window_bounded.hi) == (0.25, 0.375)


def test_k_hat_classical_d3_bounded_window_empty():
    info = classify(CLASSICAL_D3)
    assert info.k_hat == (0.5, 0.5)
    assert not info.window_bounded.lo < info.window_bounded.hi
    assert info.window.lo < info.window.hi


# ---------------------------------------------------------------------------
# self-similar envelope hypothesis

def test_theorem3_quartic():
    rep = classify(QUARTIC_D1)
    assert rep.theorem3_applicable
    assert rep.theta3[0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_theorem3_classical_d1_fails():
    rep = classify(SystemParams((2, 2), (2, 2), (1, 1), (0, 0), 1))
    assert not rep.theorem3_applicable
    assert rep.theta3 == (1.0, 1.0)


def test_theorem3_gates():
    assert not classify(ASYMMETRIC).theorem3_applicable          # alpha_1 != alpha_2
    assert not classify(SystemParams((2, 2), (4, 4), (1, 2), (0, 0), 1)).theorem3_applicable
    assert not classify(SystemParams((2, 2), (4, 4), (1.5, 1.5), (0, 0), 9)).theorem3_applicable  # rho > 1


# ---------------------------------------------------------------------------
# classification

def test_classify_classical_d3():
    rep = classify(CLASSICAL_D3)
    assert rep.regime == REGIME_SMALL_DATA
    assert rep.delta == pytest.approx(0.625)          # window midpoint
    assert rep.role_i is not None


def test_classify_quartic_bounded_and_theorem3():
    rep = classify(QUARTIC_D1)
    assert rep.regime == REGIME_SMALL_DATA_BOUNDED
    assert rep.theorem3_applicable
    assert rep.delta == pytest.approx(0.3125)          # bounded-window midpoint


def test_classify_no_guarantee():
    rep = classify(SystemParams((2, 2), (2, 2), (1, 1), (0, 0), 1))
    assert rep.regime == REGIME_NO_GUARANTEE
    assert rep.delta is None and rep.r is None


def test_classify_theorem3_only_corner():
    # empty window (sigma too large for rho_tilde) but envelope hypothesis holds
    rep = classify(SystemParams((1, 1), (3, 3), (1, 1), (3, 3), 3))
    assert not rep.window.lo < rep.window.hi
    assert rep.theorem3_applicable
    assert rep.regime == REGIME_SELF_SIMILAR


def test_classify_rejects_delta_outside():
    with pytest.raises(DeltaOutsideWindow) as err:
        classify(CLASSICAL_D3, delta=0.9)
    assert "0.75" in str(err.value)


def test_classify_user_delta_kept():
    rep = classify(QUARTIC_D1, delta=0.3)
    assert rep.delta == 0.3
    assert rep.s == (5.0, 5.0)


# the Fujita exponent 1 + alpha (1 + sigma) / (rho d) of the equal system
# (Fujita 1966; Sugitani 1975 for alpha < 2; Qi 1998 for the t^sigma weight);
# it is not the boundary at every rho and sigma (see ROADMAP item 5)
@pytest.mark.parametrize("alpha,dim,rho,sigma", [
    (2, 1, 1, 0), (2, 1, 0.5, 0), (2, 1, 2, 0), (1.5, 1, 1, 0.5),
    (1.5, 1, 1, -0.5), (1, 2, 0.7, 0.3), (2, 1, 1.5, 1)])
def test_no_guarantee_boundary_is_the_fujita_exponent(alpha, dim, rho, sigma):
    fujita = 1.0 + alpha * (1.0 + sigma) / (rho * dim)

    def regime(beta):
        return classify(SystemParams((alpha, alpha), (beta, beta), (rho, rho),
                                     (sigma, sigma), dim)).regime

    assert regime(fujita - 1e-3) == REGIME_NO_GUARANTEE
    assert regime(fujita + 1e-3) != REGIME_NO_GUARANTEE


@given(alpha=st.floats(0.3, 2.0), dim=st.integers(1, 4),
       beta1=st.floats(1.05, 8.0), beta2=st.floats(1.05, 8.0))
@settings(max_examples=200, deadline=None)
def test_global_set_is_the_escobedo_herrero_condition(alpha, dim, beta1, beta2):
    # Escobedo & Herrero (1991): (max beta + 1)/(beta1 beta2 - 1) < d/alpha
    margin = dim / alpha - (max(beta1, beta2) + 1.0) / (beta1 * beta2 - 1.0)
    assume(abs(margin) > 1e-6)
    rep = classify(SystemParams((alpha, alpha), (beta1, beta2), (1, 1), (0, 0), dim))
    assert (rep.regime != REGIME_NO_GUARANTEE) == (margin > 0.0)


# ---------------------------------------------------------------------------
# identity properties on random admissible draws

def test_identity_suite_random_draws():
    draws = _admissible_draws(200)
    for params, rep in draws:
        delta = rep.delta
        for i in (0, 1):
            j = 1 - i
            bi, bj = params.beta[i], params.beta[j]
            # printed xi equals (1 - Delta)(1 + beta_i)/(beta_i beta_j - 1)
            xi_closed = (1.0 - delta) * (1.0 + bi) / (bi * bj - 1.0)
            assert abs(rep.xi[i] - xi_closed) <= 1e-12 * max(1.0, abs(xi_closed))
            # rho_i delta_i - sigma_i = Delta
            acde = params.rho[i] * rep.delta_small[i] - params.sigma[i]
            assert abs(acde - delta) <= 1e-12
            # xi_i = (d rho_i / alpha_i)(1/r_i - 1/s_i)
            xi_rs = (params.dim * params.rho[i] / params.alpha[i]) \
                * (1.0 / rep.r[i] - 1.0 / rep.s[i])
            assert abs(rep.xi[i] - xi_rs) <= 1e-12 * max(1.0, abs(rep.xi[i]))
        eta, theta = eta_theta_residuals(params, rep.xi, rep.delta_small)
        assert max(abs(v) for v in eta + theta) <= 1e-12


def test_linf_rate_is_the_decay_rate_of_the_norm_orders():
    # the paper prints e_i = sigma_i - beta_i xi_j - rho_i d beta_i / (alpha_i s_j) + 1;
    # with eta_i = 0 it equals -xi_i - rho_i d / (alpha_i s_i)
    t = np.linspace(0.0, 10.0, 21)
    ones = np.ones((t.size, 2))
    series = NormSeries(t=t, linf=ones, ls=ones, scaled=ones, mass=ones,
                        picard_iters=np.zeros(t.size, dtype=int))
    checked = 0
    for params, rep in _admissible_draws(200, seed=7):
        if rep.regime != REGIME_SMALL_DATA_BOUNDED:
            continue
        for b in linf_bound_check(series, rep):
            i = b.component - 1
            j = 1 - i
            printed = params.sigma[i] - params.beta[i] * rep.xi[j] \
                - params.rho[i] * params.dim * params.beta[i] / (params.alpha[i] * rep.s[j]) + 1.0
            assert b.exponent == pytest.approx(printed, rel=1e-12)
            rate = -rep.xi[i] - params.rho[i] * params.dim / (params.alpha[i] * rep.s[i])
            assert b.exponent == pytest.approx(rate, rel=1e-12)
            checked += 1
    assert checked >= 200


def test_norm_orders_at_least_one_in_regime():
    for params, rep in _admissible_draws(300, seed=5):
        assert min(rep.r) >= 1.0
        assert min(rep.s) >= 1.0
        assert rep.role_i is not None


def test_uda_delta_independence():
    rng = np.random.default_rng(3)
    found = 0
    while found < 50:
        params = _random_params(rng)
        # enforce alpha_j rho_i = alpha_i rho_j so the Delta term cancels
        rho2 = params.rho[0] * params.alpha[1] / params.alpha[0]
        params = SystemParams(params.alpha, params.beta, (params.rho[0], rho2),
                              params.sigma, params.dim)
        info = classify(params)
        lo, hi = info.window.lo, info.window.hi
        if not lo < hi:
            continue
        d1, d2 = lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3
        try:
            r_a = classify(params, delta=d1).r
            r_b = classify(params, delta=d2).r
        except ValueError:
            continue
        for i in (0, 1):
            assert abs(r_a[i] - r_b[i]) <= 1e-14 * abs(r_a[i])
        found += 1


def test_remark_k_tilde_le_k_hat_when_alpha_ge_dim():
    rng = np.random.default_rng(9)
    for _ in range(300):
        params = SystemParams(
            alpha=tuple(rng.uniform(0.3, 2.0, 2)),
            beta=tuple(rng.uniform(1.05, 6.0, 2)),
            rho=tuple(rng.uniform(0.2, 3.0, 2)),
            sigma=tuple(rng.uniform(-0.9, 2.0, 2)),
            dim=1,
        )
        info = classify(params)
        for i in (0, 1):
            if params.alpha[i] >= params.dim:
                assert info.k_tilde[i] <= info.k_hat[i]


def test_role_symmetry():
    for params, rep in _admissible_draws(60, seed=21):
        swapped = classify(_swapped(params))
        assert swapped.regime == rep.regime
        assert swapped.x_tilde == rep.x_tilde[::-1]
        assert swapped.k_tilde == rep.k_tilde[::-1]
        assert swapped.k_hat == rep.k_hat[::-1]
        assert (swapped.window.lo, swapped.window.hi) == (rep.window.lo, rep.window.hi)
        assert swapped.delta == rep.delta
        assert swapped.r == rep.r[::-1]
        assert swapped.s == rep.s[::-1]
        assert swapped.xi == rep.xi[::-1]


@given(beta1=st.floats(1.05, 6.0), beta2=st.floats(1.05, 6.0),
       delta_frac=st.floats(0.05, 0.95))
@settings(max_examples=80, deadline=None)
def test_xi_closed_form_property(beta1, beta2, delta_frac):
    params = SystemParams((2, 2), (beta1, beta2), (1, 1), (0, 0), 3)
    info = classify(params)
    if not info.window.lo < info.window.hi:
        return
    delta = info.window.lo + delta_frac * (info.window.hi - info.window.lo)
    try:
        ne = classify(params, delta=delta)
    except DeltaOutsideWindow:
        return
    for i in (0, 1):
        j = 1 - i
        closed = (1 - delta) * (1 + params.beta[i]) / (params.beta[i] * params.beta[j] - 1)
        assert ne.xi[i] == pytest.approx(closed, abs=1e-12)


def test_report_serialization_roundtrip_values():
    rep = classify(QUARTIC_D1, delta=0.3)
    items = dict(rep.flat_items())
    assert items["regime"] == REGIME_SMALL_DATA_BOUNDED
    assert float(items["delta"]) == 0.3
    assert float(items["s_1"]) == 5.0
    assert items["theorem3_applicable"] == "true"
