"""Exponent calculus and existence-regime classification for the coupled
fractional system

    du_i/dt = rho_i t^(rho_i - 1) Delta_{alpha_i} u_i + t^(sigma_i) u_j^(beta_i),

i in {1, 2}, j = 3 - i.  From the eight constants and the dimension this
module derives the admissible window for the auxiliary parameter Delta, the
initial-data and solution integrability orders (r_i, s_i), the decay rate
xi_i of t^(xi_i) ||u_i(t)||_{s_i}, the kernel singularity exponents delta_i,
the essential-boundedness caps (k_hat), and the self-similar-envelope rates
(theta), and classifies the parameter set into a global-existence regime.

All arithmetic runs over exact rationals (every input float is taken at its
exact binary value), so the internal consistency identities hold to machine
precision by construction; near-cancelling combinations at window edges
lose nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

__all__ = [
    "SystemParams", "Window", "ExponentReport",
    "REGIME_SMALL_DATA", "REGIME_SMALL_DATA_BOUNDED",
    "REGIME_SELF_SIMILAR", "REGIME_NO_GUARANTEE", "classify",
    "DeltaOutsideWindow",
]

REGIME_SMALL_DATA = "GlobalSmallData"
REGIME_SMALL_DATA_BOUNDED = "GlobalSmallDataBounded"
REGIME_SELF_SIMILAR = "Theorem3SelfSimilar"
REGIME_NO_GUARANTEE = "NoGuarantee"


def _fmt(x) -> str:
    """The artifact form of a value: floats as %.17g, bools as true/false,
    None and NaN blank."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x).lower() if isinstance(x, bool) else str(x)


class DeltaOutsideWindow(ValueError):
    """Requested Delta does not lie strictly inside the admissible window."""


@dataclass(frozen=True)
class SystemParams:
    """The eight PDE constants (alpha_i, beta_i, rho_i, sigma_i) plus dimension."""

    alpha: tuple
    beta: tuple
    rho: tuple
    sigma: tuple
    dim: int

    def __post_init__(self):
        for name, pair in (("alpha", self.alpha), ("beta", self.beta),
                           ("rho", self.rho), ("sigma", self.sigma)):
            if len(pair) != 2:
                raise ValueError(f"{name} must be a pair")
        for a in self.alpha:
            if not 0.0 < a <= 2.0:
                raise ValueError(f"alpha must lie in (0, 2], got {a}")
        for b in self.beta:
            if not (b > 1.0 and math.isfinite(b)):
                raise ValueError(f"beta must be finite and exceed 1, got {b}")
        for r in self.rho:
            if not (r > 0.0 and math.isfinite(r)):
                raise ValueError(f"rho must be finite and positive, got {r}")
        for s in self.sigma:
            if not (s > -1.0 and math.isfinite(s)):
                raise ValueError(f"sigma must be finite and exceed -1, got {s}")
        if self.dim < 1 or self.dim != int(self.dim):
            raise ValueError(f"dim must be a positive integer, got {self.dim}")

    @property
    def a_index(self) -> int:
        """Index (1 or 2) of the smaller stability index; ties go to 1."""
        return 1 if self.alpha[0] <= self.alpha[1] else 2


@dataclass(frozen=True)
class Window:
    """Open interval (lo, hi); empty when lo >= hi."""

    lo: float
    hi: float


class _Calc:
    """Exact-rational evaluation of every derived exponent.

    Index convention: arrays are 0-based internally, i and j = 1 - i label
    the two components.
    """

    def __init__(self, params: SystemParams):
        self.al = al = [Fraction(float(a)) for a in params.alpha]
        self.be = be = [Fraction(float(b)) for b in params.beta]
        self.ro = ro = [Fraction(float(r)) for r in params.rho]
        self.si = si = [Fraction(float(s)) for s in params.sigma]
        self.d = Fraction(int(params.dim))
        self.bb1 = bb1 = be[0] * be[1] - 1   # beta_i beta_j - 1 > 0
        rr = ro[0] * ro[1] * bb1               # rho_i rho_j (beta_i beta_j - 1)
        # the numerator d rho_i rho_j (beta_i beta_j - 1) of r_i and s_i
        self.norm_numerator = self.d * rr
        # the Delta-free pairs, each formed once: the window's lower ends
        # x_tilde and caps rho_tilde, the k-caps and the envelope rates theta3
        self.x_tilde, self.rho_tilde, self.k_tilde, self.k_hat, self.theta3 = [], [], [], [], []
        self.r_den, self.s_den = [], []
        for i, j in ((0, 1), (1, 0)):
            # (1 + beta_i + sigma_i (1 - beta_i beta_j)) / (beta_i (1 + beta_j))
            self.x_tilde.append((1 + be[i] - si[i] * bb1) / (be[i] * (1 + be[j])))
            self.rho_tilde.append(ro[i] - si[i])
            # k = (lead rr - rest) / den: the window cap k_tilde leads with d
            # (d rr is the norm numerator), the boundedness cap k_hat with alpha_i
            p, q = al[j] * ro[i], al[i] * be[j] * ro[j]
            rest, den = (p * si[j] + q * si[i]) * be[i], (p + q) * be[i]
            self.k_tilde.append((self.norm_numerator - rest) / den)
            self.k_hat.append((al[i] * rr - rest) / den)
            self.theta3.append((1 + si[i] + be[i] * (1 + si[j])) / bb1)
            # R_i and S_i of r_i = N / R_i and s_i = N / S_i (N the norm
            # numerator), affine in Delta, as (constant, slope)
            a = al[i] * ro[j]
            s0 = a * si[i] + be[i] * p * si[j]
            self.r_den.append((a * (1 + be[i]) + s0, be[i] * (p - a)))
            self.s_den.append((s0, a + be[i] * p))

    def window_bounds(self, caps):
        """The window (lo, hi) whose upper end takes the larger of the k-caps ``caps``."""
        return max(self.x_tilde), min(Fraction(1), *self.rho_tilde, max(caps))

    def at(self, delta):
        """The pairs r, s, xi, delta_small and sup-norm exponent e at ``delta``,
        and the first role whose admissibility holds, or None.

        With eta_i = 0 the paper's e_i = sigma_i - beta_i xi_j
        - rho_i d beta_i / (alpha_i s_j) + 1 is -xi_i - rho_i d / (alpha_i s_i),
        and role i's strict beta_i/s_j - 1/s_i < alpha_i/d is delta_i < 1.
        """
        # every Delta that classify evaluates lies in the open window (lo, hi),
        # where each denominator is a sum of positive terms: with a = alpha_i rho_j
        # and p = alpha_j rho_i, S_i = a (sigma_i + Delta) + beta_i p (sigma_j + Delta)
        # and R_i = a (1 + sigma_i) + a beta_i (1 - Delta) + beta_i p (sigma_j + Delta),
        # while hi <= 1 and lo = max_k x_tilde_k > -sigma_k, as x_tilde_k + sigma_k
        # = (1 + beta_k)(1 + sigma_k) / (beta_k (1 + beta_l)) > 0
        r = [self.norm_numerator / (c + g * delta) for c, g in self.r_den]
        s = [self.norm_numerator / (c + g * delta) for c, g in self.s_den]
        # the paper's printed xi_i, reduced
        xi = [(1 - delta) * (1 + self.be[i]) / self.bb1 for i in (0, 1)]
        dsm = [self.d / self.al[i] * (self.be[i] / s[1 - i] - 1 / s[i]) for i in (0, 1)]
        e = [-xi[i] - self.ro[i] * self.d / (self.al[i] * s[i]) for i in (0, 1)]
        # of role i's eight inequalities only r >= 1 and s_j >= beta_i can fail in
        # the window: Delta < rho_tilde_i gives delta_i < 1, xi_i > 0 gives s_i > r_i,
        # and beta_i S_j - S_i = alpha_i rho_j (beta_i beta_j - 1)(sigma_i + Delta) > 0
        # gives s_i beta_i > s_j, so s_j beta_j > s_i > r_i
        role = None if min(r) < 1 else next((i + 1 for i in (0, 1) if s[1 - i] >= self.be[i]), None)
        return r, s, xi, dsm, e, role

    def r_lower_bound_interval(self, lo, hi):
        """Intersect (lo, hi) with {delta : r_1 >= 1 and r_2 >= 1}.

        Each constraint is linear in delta with positive denominator inside
        the window, so the intersection stays an interval.  The local-existence
        argument needs integrability orders >= 1; the printed window alone
        does not always provide that.
        """
        for c, g in self.r_den:
            # numerator - denominator >= 0, affine in delta
            const, coef = self.norm_numerator - c, -g
            if coef == 0:
                if const < 0:
                    return lo, lo  # empty
            elif coef > 0:
                lo = max(lo, -const / coef)
            else:
                hi = min(hi, -const / coef)
        return lo, hi

    def theorem3_applicable(self):
        """The self-similar envelope gate: equal stability indices, equal
        time exponents with rho <= 1, and the strict rate inequality
        max_i theta3_i < d rho / alpha."""
        if self.al[0] != self.al[1] or self.ro[0] != self.ro[1] or self.ro[0] > 1:
            return False
        return max(self.theta3) < self.d * self.ro[0] / self.al[0]


def _pair(values) -> tuple:
    return tuple(map(float, values))


@dataclass(frozen=True)
class ExponentReport:
    """Every derived exponent plus the regime verdict for one parameter set."""

    a_index: int
    x_tilde: tuple
    rho_tilde: tuple
    k_tilde: tuple
    k_hat: tuple
    window: Window
    window_bounded: Window
    delta: Optional[float]
    r: Optional[tuple]
    s: Optional[tuple]
    xi: Optional[tuple]
    delta_small: Optional[tuple]
    linf_exponent: Optional[tuple]  # e_i of the sup-norm bound; not serialized
    theta3: tuple
    theorem3_applicable: bool
    regime: str
    role_i: Optional[int]          # role assignment whose admissibility holds

    def flat_items(self) -> list:
        """Key/value pairs for the text and CSV serializations."""
        items = [
            ("regime", self.regime),
            ("a_index", _fmt(self.a_index)),
            ("window_lo", _fmt(self.window.lo)), ("window_hi", _fmt(self.window.hi)),
            ("window_bounded_lo", _fmt(self.window_bounded.lo)),
            ("window_bounded_hi", _fmt(self.window_bounded.hi)),
            ("delta", _fmt(self.delta)),
            ("theorem3_applicable", _fmt(self.theorem3_applicable)),
            ("role_i", _fmt(self.role_i)),
        ]
        for name, pair in (("x_tilde", self.x_tilde), ("rho_tilde", self.rho_tilde),
                           ("k_tilde", self.k_tilde), ("k_hat", self.k_hat),
                           ("r", self.r), ("s", self.s), ("xi", self.xi),
                           ("delta_small", self.delta_small), ("theta3", self.theta3)):
            for idx in (0, 1):
                items.append((f"{name}_{idx + 1}", _fmt(None if pair is None else pair[idx])))
        return items


def classify(params: SystemParams, delta: Optional[float] = None) -> ExponentReport:
    """Assemble the full exponent report and the existence-regime verdict.

    Regime is ``GlobalSmallDataBounded`` when the tightened window admits a
    Delta with integrability orders >= 1, else ``GlobalSmallData`` when the
    main window does, else ``Theorem3SelfSimilar`` when only the self-similar
    envelope hypothesis holds, else ``NoGuarantee``.  The default Delta is
    the midpoint of the applicable (refined) window; a user-supplied Delta
    must lie strictly inside the main window.
    """
    c = _Calc(params)
    lo, hi = c.window_bounds(c.k_tilde)
    blo, bhi = c.window_bounds(map(min, c.k_tilde, c.k_hat))
    rlo, rhi = c.r_lower_bound_interval(lo, hi)
    rblo, rbhi = c.r_lower_bound_interval(blo, bhi)
    t3_ok = c.theorem3_applicable()

    if rblo < rbhi:
        regime = REGIME_SMALL_DATA_BOUNDED
        dlt = (rblo + rbhi) / 2
    elif rlo < rhi:
        regime = REGIME_SMALL_DATA
        dlt = (rlo + rhi) / 2
    elif t3_ok:
        regime = REGIME_SELF_SIMILAR
        dlt = None
    else:
        regime = REGIME_NO_GUARANTEE
        dlt = None

    if delta is not None:
        given = Fraction(float(delta)) if math.isfinite(delta) else None
        if given is None or not lo < given < hi:
            raise DeltaOutsideWindow(
                f"delta={delta!r} outside the admissible window ({float(lo):.17g}, {float(hi):.17g})")
        dlt = given

    r = s = xi = dsm = e = role = None
    if dlt is not None:
        *pairs, role = c.at(dlt)
        r, s, xi, dsm, e = map(_pair, pairs)

    return ExponentReport(
        a_index=params.a_index,
        x_tilde=_pair(c.x_tilde),
        rho_tilde=_pair(c.rho_tilde),
        k_tilde=_pair(c.k_tilde),
        k_hat=_pair(c.k_hat),
        window=Window(float(lo), float(hi)),
        window_bounded=Window(float(blo), float(bhi)),
        delta=None if dlt is None else float(dlt),
        r=r, s=s, xi=xi, delta_small=dsm, linf_exponent=e,
        theta3=_pair(c.theta3),
        theorem3_applicable=t3_ok,
        regime=regime,
        role_i=role,
    )
