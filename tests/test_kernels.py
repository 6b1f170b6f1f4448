"""Stable-kernel evaluation and the kernel identity suite.

Golden values frozen from independent oracles before the implementation:
  * p_{3/2}(1, 0) in d=1 equals Gamma(5/3)/pi, cross-checked against a
    40-digit quadrature of (1/pi) int_0^inf exp(-r^1.5) dr.
  * the cross-domination constant for (2 -> 1) in d=1 has the closed form
    2 sqrt(pi) exp(-3/4) (the ratio depends on |x| t^{-1/2} only).
  * the (2 -> 1.5) constant comes from a dense sweep at 8x quadrature
    resolution, stable to 3e-15 under refinement.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
from scipy.special import j0

import fracsys.kernels as K
from fracsys.kernels import (EvenGrid, KernelSpec, SpectralGrid, TruncationError,
                             check_monotone_domination, check_scaling, dealias_mask,
                             density_profile, eval_density_grid, grid_mass, lp_norm,
                             lp_norm_slope, semigroup_residual, symbol_exponent,
                             tail_mass_bound)

GOLD_P15_AT_ZERO = 0.2873527514521644      # Gamma(5/3)/pi
GOLD_CROSS_2_1 = 1.6744958308895501        # 2 sqrt(pi) e^{-3/4}
GOLD_CROSS_2_15 = 1.2275731081831947       # dense refined sweep
GOLD_GAUSS_L2 = 0.4466219208690012         # (8 pi)^{-1/4}


# ---------------------------------------------------------------------------
# spec construction

def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(0.0, 1)
    with pytest.raises(ValueError):
        KernelSpec(2.5, 1)
    with pytest.raises(ValueError):
        KernelSpec(1.5, 0)
    with pytest.raises(ValueError):
        KernelSpec(1.5, 1.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(1, 100, 10.0)      # not a power of two
    with pytest.raises(ValueError):
        SpectralGrid(1, 4, 10.0)        # too small
    with pytest.raises(ValueError):
        SpectralGrid(4, 16, 10.0)       # unsupported dim
    with pytest.raises(ValueError):
        SpectralGrid(1, 16, -1.0)
    g = SpectralGrid(2, 16, 8.0)
    assert g.spacing == 1.0
    assert g.axis()[0] == -8.0


# ---------------------------------------------------------------------------
# pointwise values

def test_gaussian_at_origin():
    assert density_profile(KernelSpec(2.0, 1), 1.0, 0.0)[0] == pytest.approx((4 * math.pi) ** -0.5, rel=1e-15)


def test_cauchy_at_origin():
    assert density_profile(KernelSpec(1.0, 1), 1.0, 0.0)[0] == pytest.approx(1 / math.pi, rel=1e-15)


def test_alpha15_golden_at_origin():
    v = density_profile(KernelSpec(1.5, 1), 1.0, 0.0)[0]
    assert v == pytest.approx(GOLD_P15_AT_ZERO, abs=1e-12)
    # oracle at 10x panel resolution agrees
    v10 = K._profile_quadrature(1.5, 1, 1.0, np.array([0.0]), 10.0)[0]
    assert v10 == pytest.approx(GOLD_P15_AT_ZERO, abs=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 1.5, 1.9])
def test_density_at_origin_is_the_closed_form_peak(alpha, dim):
    # p(t, 0) = (s/t)^(d/alpha) p(s, 0) holds exactly, so the domination
    # margin at r = 0 must not move with the quadrature's node set
    for t in (0.6, 1.5):
        assert density_profile(KernelSpec(alpha, dim), t, [0.0])[0] == K._peak_value(alpha, dim, t)
        assert density_profile(KernelSpec(alpha, dim), t, [0.5, 0.0])[1] == K._peak_value(alpha, dim, t)


@pytest.mark.parametrize("alpha,dim", [(2.0, 1), (2.0, 2), (2.0, 3), (1.0, 1), (1.0, 2), (1.0, 3)])
def test_quadrature_matches_closed_form(alpha, dim):
    r = np.linspace(0.0, 9.0, 46)
    ref = density_profile(KernelSpec(alpha, dim), 0.8, r)
    got = K._profile_quadrature(alpha, dim, 0.8, r, 1.0)
    assert np.max(np.abs(got - ref)) < 1e-13


def _profile_unblocked(alpha, dim, t, r):
    """The whole (nodes x radii) kernel matrix at once, reduced by one
    matrix-vector product: the form the blocked quadrature replaced."""
    rho, w = K._quad_panels(alpha, t, float(np.max(r)), 1.0)
    x = np.outer(rho, r)
    if dim == 1:
        return (w @ np.cos(x)) / math.pi
    if dim == 2:
        return (w @ (rho[:, None] * j0(x))) / (2.0 * math.pi)
    return (w @ (rho[:, None] ** 2 * np.sinc(x / math.pi))) / (2.0 * math.pi**2)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha,t", [(1.5, 1.0), (0.8, 2.0)])
def test_blocked_quadrature_matches_unblocked(alpha, dim, t):
    rho, _ = K._quad_panels(alpha, t, 8.0, 1.0)
    rows = K._BLOCK_ELEMENTS // rho.size
    assert rows > 2
    # every radius array reaches 8, so the nodes and the block height are fixed
    for count in (1, rows - 1, rows + 1, 3 * rows + 5):
        r = np.linspace(8.0, 0.0, count)
        got = K._profile_quadrature(alpha, dim, t, r, 1.0)
        ref = _profile_unblocked(alpha, dim, t, r)
        assert np.max(np.abs(got - ref)) <= 1e-14 * K._peak_value(alpha, dim, t), count


def test_blocked_quadrature_row_longer_than_block(monkeypatch):
    r = np.linspace(0.0, 8.0, 7)
    ref = K._profile_quadrature(1.5, 3, 1.0, r, 1.0)
    monkeypatch.setattr(K, "_BLOCK_ELEMENTS", 100)   # fewer than the nodes
    got = K._profile_quadrature(1.5, 3, 1.0, r, 1.0)
    assert np.max(np.abs(got - ref)) <= 1e-14 * K._peak_value(1.5, 3, 1.0)


def _profile_direct(alpha, dim, t, r):
    """The radial quadrature with the kernel evaluated at every node: the
    nodes below the Taylor split summed exactly (``math.fsum``), the others
    as the blocked quadrature sums them, so the two differ only in how the
    nodes below the split are summed."""
    rmax = float(np.max(r))
    rho, w = K._quad_panels(alpha, t, rmax, 1.0)
    if dim > 1:
        w = w * rho
    x = np.outer(r, rho)
    split = np.count_nonzero(rho * rmax <= K._TAYLOR_SPLIT)
    assert 0 < split < rho.size
    if dim == 1:
        low, kernel = np.cos(x[:, :split]) * w[:split], np.cos
    elif dim == 2:
        low, kernel = j0(x[:, :split]) * w[:split], j0
    else:
        low, kernel = np.sinc(x[:, :split] / math.pi) * (w[:split] * rho[:split]), np.sin
    high = np.einsum("ij,j->i", kernel(x[:, split:]), w[split:])
    if dim == 3:
        origin = r == 0.0
        high[~origin] /= r[~origin]
        high[origin] = np.einsum("i,i->", w[split:], rho[split:])
    out = np.array([math.fsum([*row, h]) for row, h in zip(low, high)])
    return out * {1: 1.0 / math.pi, 2: 1.0 / (2.0 * math.pi), 3: 1.0 / (2.0 * math.pi**2)}[dim]


def test_taylor_coefficients_are_the_kernels_series():
    x = np.linspace(0.0, K._TAYLOR_SPLIT, 11)
    for dim, kernel in ((1, np.cos(x)), (2, j0(x)), (3, np.sinc(x / math.pi))):
        a = K._taylor_coeffs(dim)
        assert a.size == 8
        assert np.max(np.abs(np.polyval(a[::-1], x * x) - kernel)) <= 2e-16, dim


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.2, 1.5, 1.7, 1.9])
def test_taylor_moments_match_the_direct_kernel_sum(alpha, dim):
    # the radii the quadrature serves in density_profile: 0 up to the switch radius
    for t in (1.0, 0.7, 2.0):
        r = np.linspace(0.0, K._far_series(alpha, dim)[1] * t ** (1.0 / alpha), 33)
        got = K._profile_quadrature(alpha, dim, t, r, 1.0)
        ref = _profile_direct(alpha, dim, t, r)
        assert np.max(np.abs(got - ref)) <= 2e-16 * K._peak_value(alpha, dim, t), t


def test_quad_panels_refuses_a_node_set_over_the_cap():
    # alpha = 0.2 needs 3e8 nodes out to r = 2.75 at t = 1.4, about 10 GB:
    # the count is checked before any array of that size is built
    tracemalloc.start()
    try:
        with pytest.raises(K.NodeCountError, match=r"needs 3\.185e\+08 nodes"):
            K._quad_panels(0.2, 1.4, 2.75, 1.0)
        with pytest.raises(K.NodeCountError):
            density_profile(KernelSpec(0.2, 1), 1.4, np.linspace(0.0, 8.0, 33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # verify-kernel reports an ArithmeticError as a failed case and goes on
    assert issubclass(K.NodeCountError, ArithmeticError)


def _quad_panels_per_level(alpha, t, rmax, resolution):
    """The node set built level by level with ``np.linspace``: the form the
    loop-free :func:`fracsys.kernels._quad_panels` replaced."""
    trunc = (K._LOG_TRUNC / t) ** (1.0 / alpha)
    width = math.pi / max(rmax, math.pi / trunc)
    edges = [0.0] + [trunc * 2.0 ** (-k) for k in range(K._GRADING_LEVELS, -1, -1)]
    subs = []
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(1, math.ceil((b - a) / width * resolution))
        subs.append(np.linspace(a, b, m + 1))
    rho, w = K._gauss_panels(np.unique(np.concatenate(subs)))
    w *= np.exp(-t * rho**alpha)
    return rho, w


def test_quad_panels_gives_the_bits_of_the_per_level_form():
    # alpha -> 0.2 or t -> 0.01 would build 1e8+ nodes, so the draws stay here
    rng = np.random.default_rng(20)
    for _ in range(1500):
        args = (rng.uniform(0.8, 2.0), rng.uniform(0.5, 10.0), 10.0 ** rng.uniform(-3.0, 2.0),
                float(rng.choice([0.5, 1.0, 2.0])))
        got, ref = K._quad_panels(*args), _quad_panels_per_level(*args)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1]), args


def test_gauss_rule_is_built_once_and_read_only(monkeypatch):
    leggauss = np.polynomial.legendre.leggauss
    calls = []

    def counted(order):
        calls.append(order)
        return leggauss(order)

    K._gauss_rule.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    r = np.linspace(0.0, 6.0, 13)
    for dim in (1, 2):
        for t in (0.5, 1.0, 2.0):
            density_profile(KernelSpec(1.5, dim), t, r)
    for mu in (2.0, 3.0, 4.0):
        lp_norm(KernelSpec(1.5, 1), 1.0, mu)
    assert calls == [K._GAUSS_ORDER]
    for cached, ref in zip(K._gauss_rule(), leggauss(K._GAUSS_ORDER)):
        assert cached.tobytes() == ref.tobytes()
        with pytest.raises(ValueError):
            cached[0] = 0.0


def test_gauss_panels_returns_arrays_of_its_own():
    cuts = np.array([0.0, 0.5, 2.0, 3.0])
    rho, w = K._gauss_panels(cuts)
    ref = rho.copy(), w.copy()
    rho[:] = -1.0
    w *= 3.0
    again = K._gauss_panels(cuts)
    assert again[0].tobytes() == ref[0].tobytes() and again[1].tobytes() == ref[1].tobytes()


# ---------------------------------------------------------------------------
# far-field series

SERIES_ALPHAS = [0.5, 0.8, 1.2, 1.5, 1.7, 1.9]


def _beyond_r_far(alpha, dim, t):
    """Radii from the switch radius r_far t^(1/alpha) to a quarter beyond it."""
    return K._far_series(alpha, dim)[1] * t ** (1.0 / alpha) * np.array([1.0, 1.1, 1.25])


@pytest.mark.parametrize("alpha", SERIES_ALPHAS + [1.0])
def test_far_series_leading_coefficient_is_the_tail_constant(alpha):
    for dim in (1, 2, 3):
        assert K._far_series(alpha, dim)[0][0] == pytest.approx(K._tail_coeff(alpha, dim), rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_far_series_is_the_cauchy_closed_form(dim):
    for t in (1.0, 0.3):
        r = K._far_series(1.0, dim)[1] * t * np.array([1.0, 1.5, 3.0, 10.0, 1e3])
        ref = density_profile(KernelSpec(1.0, dim), t, r)
        assert np.max(np.abs(K._profile_series(1.0, dim, t, r) / ref - 1.0)) <= 1e-14, t


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", SERIES_ALPHAS)
def test_far_series_matches_quadrature_beyond_r_far(alpha, dim):
    for t in (1.0, 0.7):
        r = _beyond_r_far(alpha, dim, t)
        ref = K._profile_quadrature(alpha, dim, t, r, 4.0)
        # the float64 quadrature errs by up to about 1e-16 of the peak (the
        # rounding of its nodes and weights), so up to 1e-12 of p at alpha = 1.9
        tol = 1e-13 * ref + 2e-16 * K._peak_value(alpha, dim, t)
        assert np.all(np.abs(K._profile_series(alpha, dim, t, r) - ref) <= tol), t


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1)


def _profile_long_double(alpha, dim, t, r):
    """p(t, r) for d = 1 or 3 by the radial quadrature with its rule, kernel
    and sums in 80-bit long double: dyadic panels toward rho = 0, then panels
    of a quarter period at the largest radius."""
    ld, n = np.longdouble, K._GAUSS_ORDER
    x = np.polynomial.legendre.leggauss(n)[0].astype(ld)
    for _ in range(3):
        p, dp = _legendre(n, x)
        x -= p / dp
    wg = 2 / ((1 - x * x) * _legendre(n, x)[1] ** 2)
    trunc = K._trunc(alpha, t)
    cuts = np.unique(np.concatenate([trunc * 2.0 ** -np.arange(40.0, 0.0, -1.0),
                                     np.linspace(0.0, trunc, math.ceil(2 * trunc * max(r) / math.pi) + 1)]))
    cuts = cuts.astype(ld)
    mid, half = (cuts[1:] + cuts[:-1]) / 2, (cuts[1:] - cuts[:-1]) / 2
    rho = (mid[:, None] + half[:, None] * x).ravel()
    w = (half[:, None] * wg).ravel() * np.exp(-t * rho ** ld(alpha))
    rr = np.asarray(r, dtype=ld)
    if dim == 1:
        return np.cos(np.outer(rr, rho)) @ w / ld(math.pi)
    return np.sin(np.outer(rr, rho)) @ (w * rho) / rr / (2 * ld(math.pi) ** 2)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than float64")
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("alpha", SERIES_ALPHAS)
def test_far_series_matches_long_double_quadrature(alpha, dim):
    # what the float64 comparison leaves to round-off: here the reference
    # holds p to about 1e-16 of itself, and so must the series
    for t in (1.0, 0.7):
        r = _beyond_r_far(alpha, dim, t)
        ref = _profile_long_double(alpha, dim, t, r)
        err = np.abs(K._profile_series(alpha, dim, t, r) / ref - 1)
        assert float(np.max(err)) <= 1e-13, t


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", SERIES_ALPHAS)
def test_density_profile_has_no_jump_at_r_far(alpha, dim):
    for t in (1.0, 0.7):
        edge = K._far_series(alpha, dim)[1] * t ** (1.0 / alpha)
        below, at = density_profile(KernelSpec(alpha, dim), t, [np.nextafter(edge, 0.0), edge])
        assert at == K._profile_series(alpha, dim, t, np.array([edge]))[0]
        assert abs(at - below) <= 1e-13 * at + 2e-16 * K._peak_value(alpha, dim, t), t


def test_domain_errors():
    spec = KernelSpec(2.0, 1)
    with pytest.raises(ValueError):
        density_profile(spec, 0.0, 1.0)
    with pytest.raises(ValueError):
        density_profile(spec, -1.0, 1.0)
    with pytest.raises(ValueError):
        lp_norm(spec, 1.0, 0.5)


# ---------------------------------------------------------------------------
# grid evaluation

def test_grid_matches_gaussian_pointwise():
    grid = SpectralGrid(1, 512, 20.0)
    field = eval_density_grid(KernelSpec(2.0, 1), 1.0, grid)
    ref = density_profile(KernelSpec(2.0, 1), 1.0, np.abs(grid.axis()))
    assert np.max(np.abs(field - ref)) < 1e-10


def test_grid_cauchy_mass_within_tail():
    grid = SpectralGrid(1, 1024, 40.0)
    spec = KernelSpec(1.0, 1)
    field = eval_density_grid(spec, 1.0, grid)
    tail = tail_mass_bound(spec, 1.0, 40.0)
    assert tail == pytest.approx((2 / math.pi) * math.atan(1.0 / 40.0), rel=1e-15)
    assert abs(grid_mass(field, grid) - 1.0) <= 2.0 * tail


def test_grid_small_time_concentrates():
    grid = SpectralGrid(1, 512, 20.0)
    spec = KernelSpec(2.0, 1)
    wide = eval_density_grid(spec, 1.0, grid)
    narrow = eval_density_grid(spec, 0.01, grid)
    # mass is exact before clamping; clamped ringing can add at most
    # NEG_TOL * peak * box volume
    assert abs(grid_mass(narrow, grid) - 1.0) < K.NEG_TOL * narrow.max() * 2 * grid.half_length
    assert abs(grid_mass(wide, grid) - 1.0) < 1e-12
    assert narrow.max() > 5.0 * wide.max()


def test_grid_truncation_error_for_unresolved_symbol():
    grid = SpectralGrid(1, 64, 30.0)
    with pytest.raises(TruncationError):
        eval_density_grid(KernelSpec(2.0, 1), 1e-4, grid)


def test_grid_symmetry_and_unimodality():
    grid = SpectralGrid(2, 64, 15.0)
    field = eval_density_grid(KernelSpec(1.5, 2), 1.0, grid)
    mirrored = np.roll(np.flip(field), 1, axis=(0, 1))
    assert np.max(np.abs(field - mirrored)) <= 1e-14 * field.max()
    assert field.max() == field[32, 32]


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
def test_dealias_mask_keeps_the_lower_two_thirds(dim, n):
    # |k| <= n // 3 on every axis of the rfftn layout: 2 keep + 1 modes on a
    # full axis, keep + 1 on the half axis
    keep = n // 3
    mask = dealias_mask(SpectralGrid(dim, n, 10.0))
    assert mask.dtype == bool and not mask.flags.writeable
    assert mask.shape == (n,) * (dim - 1) + (n // 2 + 1,)
    assert mask.sum() == (2 * keep + 1) ** (dim - 1) * (keep + 1)
    assert mask[(keep,) * dim] and mask[(-keep,) * (dim - 1) + (keep,)]
    assert not mask[(0,) * (dim - 1) + (keep + 1,)] and not mask[(keep + 1,) + (0,) * (dim - 1)]


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
def test_even_grid_is_the_full_grid_on_even_fields(dim, n):
    grid = SpectralGrid(dim, n, 10.0)
    even = EvenGrid(grid)
    m = n // 2 + 1
    corner = (slice(0, m),) * dim
    q = np.random.default_rng(dim).uniform(0.5, 1.5, even.shape())
    full = even.expand(q)
    assert full.shape == grid.shape()
    assert np.array_equal(full, np.flip(np.roll(full, -1, axis=tuple(range(dim)))))
    assert even.weights.sum() == n**dim
    assert grid_mass(q, even) == pytest.approx(grid_mass(full, grid), rel=1e-14)
    # the DCT-I is the rfftn of the field re-centred at x = 0
    want = np.fft.rfftn(np.fft.ifftshift(full)).real[corner]
    spectrum = even.forward(q)
    assert np.max(np.abs(spectrum - want)) <= 1e-14 * np.abs(want).max()
    out = np.empty(even.shape())
    assert even.inverse(spectrum, out) is out
    assert np.max(np.abs(out - q)) <= 1e-15 * q.max()
    assert np.array_equal(symbol_exponent(even, 1.5), symbol_exponent(grid, 1.5)[corner])
    assert np.array_equal(dealias_mask(even), dealias_mask(grid)[corner])


def _corner_ix(values, n):
    """The x >= 0 corner of a full-grid field by fancy indexing: the
    samples an EvenGrid keeps."""
    index = (n // 2 + np.arange(n // 2 + 1)) % n
    return values[np.ix_(*[index] * values.ndim)]


def _expand_ix(values, n):
    """The even full-grid field of a corner by fancy indexing (the reference
    form of EvenGrid.expand)."""
    index = np.abs(np.arange(n) - n // 2)
    return values[np.ix_(*[index] * values.ndim)]


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 64), (2, 8), (2, 32), (2, 256), (3, 16)])
def test_even_grid_slices_are_bitwise_the_fancy_index_forms(dim, n):
    grid = SpectralGrid(dim, n, 10.0)
    even = EvenGrid(grid)
    rng = np.random.default_rng(n + dim)
    q = rng.standard_normal(even.shape())
    full = rng.standard_normal(grid.shape())
    q.flags.writeable = full.flags.writeable = False
    got, want = even.expand(q), _expand_ix(q, n)
    assert got.shape == want.shape and got.dtype == want.dtype and got.flags.writeable
    assert got.tobytes() == want.tobytes()
    assert even.radius().tobytes() == _corner_ix(grid.radius(), n).tobytes()
    assert grid.expand(full) is full


def _inverse_in_place(grid, spectrum):
    """SpectralGrid.inverse with every complex pass in place, overwriting
    ``spectrum``: the reference form of its out-of-place first pass."""
    for ax in range(grid.dim - 1):
        np.fft.ifft(spectrum, axis=ax, out=spectrum)
    return np.fft.irfft(spectrum, n=grid.n, axis=-1)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
def test_no_view_transform_writes_into_its_input(dim, n):
    # read-only inputs: a write into one raises, and the bytes stay
    grid = SpectralGrid(dim, n, 10.0)
    rng = np.random.default_rng(dim)
    for view in (grid, EvenGrid(grid)):
        values = rng.standard_normal(view.shape())
        spectrum = view.forward(values)
        kept = values.tobytes(), spectrum.tobytes()
        values.flags.writeable = spectrum.flags.writeable = False
        view.forward(values, np.empty_like(spectrum))
        inverted = view.inverse(spectrum)
        assert view.inverse(spectrum, np.empty(view.shape())).tobytes() == inverted.tobytes()
        assert (values.tobytes(), spectrum.tobytes()) == kept
        assert np.max(np.abs(inverted - values)) <= 1e-14 * np.abs(values).max()


@pytest.mark.parametrize("dim, n", [(2, 8), (2, 32), (2, 256), (3, 16), (3, 64)])
def test_out_of_place_inverse_is_bitwise_the_in_place_form(dim, n):
    grid = SpectralGrid(dim, n, 10.0)
    spectrum = grid.forward(np.random.default_rng(n + dim).standard_normal(grid.shape()))
    want = _inverse_in_place(grid, spectrum.copy()).tobytes()
    assert grid.inverse(spectrum).tobytes() == want
    assert grid.inverse(spectrum, np.empty(grid.shape())).tobytes() == want


def _dct_two_buffers(even, values, scale):
    """EvenGrid's DCT-I with one extension buffer per axis and a fresh
    spectrum: the reference form of its one shared extension buffer."""
    m = even.n // 2 + 1
    spectrum = np.empty(even.shape(), dtype=complex)
    for ax in range(even.dim - 1, -1, -1):
        lead = (slice(None),) * ax
        ext = np.empty(even.shape()[:ax] + (even.n,) + even.shape()[ax + 1:])
        ext[lead + (slice(0, m),)] = values
        ext[lead + (slice(m, None),)] = ext[lead + (slice(m - 2, 0, -1),)]
        values = np.fft.rfft(ext, axis=ax, out=spectrum).real
    return values * scale


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 64), (2, 8), (2, 32), (3, 8), (3, 16)])
def test_one_buffer_dct_is_bitwise_the_two_buffer_form(dim, n):
    even = EvenGrid(SpectralGrid(dim, n, 10.0))
    exts = [ext for ext, *_ in even._passes]
    assert all(np.shares_memory(ext, exts[0]) and ext.size == n * (n // 2 + 1) ** (dim - 1)
               for ext in exts)
    rng = np.random.default_rng(n + dim)
    # twice, so the second pair of calls reads a buffer the first one filled
    for _ in range(2):
        values = rng.standard_normal(even.shape())
        spectrum = even.forward(values)
        assert spectrum.tobytes() == _dct_two_buffers(even, values, 1.0).tobytes()
        want = _dct_two_buffers(even, spectrum, float(n) ** -dim).tobytes()
        assert even.inverse(spectrum).tobytes() == want
        assert even.inverse(spectrum, np.empty(even.shape())).tobytes() == want


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 64), (2, 8), (2, 64), (2, 256), (3, 8), (3, 64)])
@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
def test_even_view_symbols_are_bitwise_the_full_grid_corners(dim, n, alpha):
    grid = SpectralGrid(dim, n, 10.0)
    even = EvenGrid(grid)
    corner = (slice(0, n // 2 + 1),) * dim
    for got, full in ((symbol_exponent(even, alpha), symbol_exponent(grid, alpha)),
                      (dealias_mask(even), dealias_mask(grid))):
        want = full[corner]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    # one symbol per view and alpha, shared by every caller of the view
    for view in (grid, even):
        assert symbol_exponent(view, alpha) is symbol_exponent(view, alpha)
    twin = SpectralGrid(dim, n, 10.0)
    assert twin is not grid
    assert symbol_exponent(twin, alpha).tobytes() == symbol_exponent(grid, alpha).tobytes()
    assert dealias_mask(even).tobytes() == dealias_mask(even).tobytes()


def test_symbol_memo_frees_each_symbol_with_its_grid():
    # four full-grid symbols of 64 x 64 x 33 values, about 1.1 MB each
    tracemalloc.start()
    try:
        grids = [SpectralGrid(3, 64, 10.0 + k) for k in range(4)]
        size = symbol_exponent(grids[0], 1.5).nbytes
        for grid in grids[1:]:
            symbol_exponent(grid, 1.5)
        built = tracemalloc.get_traced_memory()[0]
        del grids, grid
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert built >= 4 * size and held < size


@pytest.mark.parametrize("dim, n, half_length, alpha, t", [
    (1, 64, 10.0, 1.5, 1.0), (2, 32, 10.0, 1.5, 1.0), (2, 64, 15.0, 1.0, 1.0),
    (2, 256, 40.0, 1.5, 1.0), (2, 128, 20.0, 0.8, 2.0), (3, 32, 8.0, 2.0, 1.0),
    (3, 32, 10.0, 1.7, 0.5)])
def test_even_view_density_is_the_full_grid_corner(dim, n, half_length, alpha, t):
    grid = SpectralGrid(dim, n, half_length)
    even = EvenGrid(grid)
    spec = KernelSpec(alpha, dim)
    for clamp in (True, False):
        full = eval_density_grid(spec, t, grid, clamp=clamp)
        got = eval_density_grid(spec, t, even, clamp=clamp)
        assert got.shape == even.shape()
        assert np.max(np.abs(got - _corner_ix(full, n))) <= 1e-15 * full.max()
        assert (got.min() >= 0.0) == (full.min() >= 0.0)
    assert grid_mass(got, even) == pytest.approx(grid_mass(full, grid), rel=1e-13)


def test_even_view_density_clamps_like_the_full_grid():
    # h = 0.625 leaves e^(-t (pi/h)^alpha) = 2.6e-7 at the Nyquist radius:
    # negative lobes of 2.9e-8 of the peak, which both views clamp to zero
    grid = SpectralGrid(2, 32, 10.0)
    spec = KernelSpec(2.0, 2)
    raw = eval_density_grid(spec, 0.6, grid, clamp=False)
    assert -K.NEG_TOL * raw.max() < raw.min() < 0.0
    full = eval_density_grid(spec, 0.6, grid)
    got = eval_density_grid(spec, 0.6, EvenGrid(grid))
    assert got.min() == full.min() == 0.0
    assert np.array_equal(got == 0.0, _corner_ix(full, 32) == 0.0)


@pytest.mark.parametrize("even", [False, True])
def test_truncation_error_names_the_spacing_and_the_nyquist_symbol(even):
    # alpha = 1.2, t = 0.5 on 64^3 with L = 15: h = 0.46875, and the symbol
    # at pi/h is e^(-0.5 (6.702)^1.2) = 7.4e-3, far from negligible; a larger
    # L at the same n would make h, and the ringing, worse
    grid = SpectralGrid(3, 64, 15.0)
    view = EvenGrid(grid) if even else grid
    with pytest.raises(TruncationError) as info:
        eval_density_grid(KernelSpec(1.2, 3), 0.5, view)
    nyquist = math.exp(-0.5 * (math.pi / 0.46875) ** 1.2)
    assert str(info.value) == (
        "grid spacing h = 0.46875 does not resolve alpha=1.2, t=0.5: the symbol at the "
        f"Nyquist radius pi/h is e^(-t (pi/h)^alpha) = {nyquist:.3e} "
        f"(most negative value {info.value.min_value:.3e})")
    assert f"{nyquist:.3e}" == "7.428e-03"
    assert info.value.min_value == pytest.approx(-4.108e-05, rel=1e-3)
    assert "half_length" not in str(info.value)


# ---------------------------------------------------------------------------
# scaling and domination

def test_scaling_examples():
    assert check_scaling(KernelSpec(2.0, 1), 4.0, 1.0, np.linspace(0, 8, 33)) < 1e-12
    assert check_scaling(KernelSpec(1.0, 2), 3.0, 0.5, np.linspace(0, 8, 33)) < 1e-12
    assert check_scaling(KernelSpec(1.5, 1), 2.0, 1.0, np.linspace(0, 8, 33)) < 1e-6


def test_scaling_random_draws():
    rng = np.random.default_rng(42)
    for alpha, tol in ((2.0, 1e-12), (1.0, 1e-12), (1.5, 1e-6)):
        spec = KernelSpec(alpha, 1)
        for _ in range(25):
            t = rng.uniform(0.2, 5.0)
            s = rng.uniform(0.2, 5.0)
            radii = rng.uniform(0.0, 10.0, size=8)
            assert check_scaling(spec, t, s, radii) < tol


@given(t=st.floats(0.1, 10.0), s=st.floats(0.1, 10.0), r=st.floats(0.0, 20.0))
@settings(max_examples=60, deadline=None)
def test_scaling_identity_gaussian_property(t, s, r):
    assert check_scaling(KernelSpec(2.0, 1), t, s, [r]) < 1e-12


def test_domination_equality_at_origin():
    margin = check_monotone_domination(KernelSpec(2.0, 1), 2.0, 1.0, [0.0])
    assert abs(margin) < 1e-15


def test_domination_cauchy_hand_value():
    margin = check_monotone_domination(KernelSpec(1.0, 1), 2.0, 1.0, [1.0])
    assert margin == pytest.approx(3.0 / (20.0 * math.pi), rel=1e-14)


def test_domination_identity_case():
    margin = check_monotone_domination(KernelSpec(1.5, 1), 1.3, 1.3, np.linspace(0, 5, 11))
    assert abs(margin) < 1e-12


def test_domination_random_draws():
    rng = np.random.default_rng(7)
    for alpha in (1.0, 1.5, 2.0):
        spec = KernelSpec(alpha, 1)
        for _ in range(25):
            s = rng.uniform(0.2, 3.0)
            t = s + rng.uniform(0.0, 4.0)
            assert check_monotone_domination(spec, t, s, rng.uniform(0, 10, size=8)) >= -1e-12


# ---------------------------------------------------------------------------
# L^mu norms

def test_gaussian_l2_norm_golden():
    assert lp_norm(KernelSpec(2.0, 1), 1.0, 2.0) == pytest.approx(GOLD_GAUSS_L2, rel=1e-12)


def test_l1_norm_is_mass():
    assert lp_norm(KernelSpec(1.5, 1), 2.0, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert lp_norm(KernelSpec(1.0, 2), 0.5, 1.0) == pytest.approx(1.0, abs=1e-9)


def _lp_norm_one_node_set(spec, t, mu):
    """``lp_norm`` with every radius on the node set of the largest one: the
    form the octave bands replaced."""
    a, d = spec.alpha, spec.dim
    rcut = K._lp_radial_cut(a, d, t, mu)
    r, w = K._gauss_panels(np.concatenate([[0.0], np.geomspace(rcut * 2.0 ** (-24), rcut, 48)]))
    vals = density_profile(spec, t, r)
    surf = K._sphere_area(d)
    total = surf * float(np.dot(w, vals**mu * r ** (d - 1)))
    p_tail = mu * (d + a) - d
    total += surf * (t * K._tail_coeff(a, d)) ** mu * rcut ** (-p_tail) / p_tail
    return total ** (1.0 / mu)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
def test_banded_lp_norm_matches_one_node_set(alpha, dim):
    spec = KernelSpec(alpha, dim)
    for mu in (2.0, 3.0):
        for t in (1.0, 8.0):
            ref = _lp_norm_one_node_set(spec, t, mu)
            assert abs(lp_norm(spec, t, mu) - ref) <= 2e-15 * ref, (mu, t)


def test_banded_lp_norm_evaluates_few_kernel_elements(monkeypatch):
    cos = np.cos
    elements = []

    def counted(x, out=None):
        elements.append(np.size(x))
        return cos(x, out=out)

    monkeypatch.setattr(np, "cos", counted)
    lp_norm(KernelSpec(1.5, 1), 1.0, 2.0)
    # 1.51e6 with one node set for all 768 radii, 0.57e6 with the octave bands,
    # 0.125e6 with the core panels and the far-field series, 32,352 with the
    # nodes below rho rmax = 1/2 summed as Taylor moments
    assert 0 < sum(elements) <= 0.033e6


def test_lp_norm_takes_its_far_radii_in_one_series_call(monkeypatch):
    profile_series, profile = K._profile_series, K.density_profile
    series, profiles = [], []

    def counted_series(alpha, dim, t, r):
        series.append(r.size)
        return profile_series(alpha, dim, t, r)

    def counted_profile(spec, t, r):
        profiles.append(np.size(r))
        return profile(spec, t, r)

    monkeypatch.setattr(K, "_profile_series", counted_series)
    monkeypatch.setattr(K, "density_profile", counted_profile)
    lp_norm(KernelSpec(1.5, 1), 1.0, 2.0)
    # five bands below the switch radius (6.7) go to the quadrature alone
    assert len(profiles) == 6 and len(series) == 1 and series[0] == profiles[-1]
    for alpha in (1.0, 2.0):
        profiles.clear()
        lp_norm(KernelSpec(alpha, 2), 1.0, 2.0)
        assert len(profiles) == 1


@pytest.mark.parametrize("dim", [1, 2])
def test_heavy_tail_l1_norm_is_mass_from_few_kernel_elements(monkeypatch, dim):
    # the heavy-tail cut is 9.4e4 (d = 1) and 1.2e5 (d = 2): the octave bands
    # alone evaluated 6.3e8 and 8.3e8 kernel elements here
    elements = []

    def counting(kernel):
        def counted(x, out=None):
            elements.append(np.size(x))
            return kernel(x, out=out)
        return counted

    monkeypatch.setattr(np, "cos", counting(np.cos))
    monkeypatch.setattr(scipy.special, "j0", counting(scipy.special.j0))
    assert lp_norm(KernelSpec(1.2, dim), 2.0, 1.0) == pytest.approx(1.0, abs=1e-9)
    # 0.97e5 (d = 1) and 0.96e5 (d = 2) by the kernel at every node; 26,969
    # and 26,687 with the Taylor moments
    assert 0 < sum(elements) <= 2.8e4


def test_l2_slope_gaussian():
    slope = lp_norm_slope(KernelSpec(2.0, 1), 2.0, [1.0, 2.0, 4.0, 8.0])
    assert slope == pytest.approx(-0.25, rel=5e-3)


@pytest.mark.parametrize("alpha,mu,dim", [(1.0, 1.5, 1), (1.5, 2.0, 1), (2.0, 3.0, 2)])
def test_lp_slope_law_samples(alpha, mu, dim):
    slope = lp_norm_slope(KernelSpec(alpha, dim), mu, [1.0, 2.0, 4.0, 8.0])
    target = -(dim / alpha) * (1.0 - 1.0 / mu)
    assert abs(slope - target) <= 5e-3 * abs(target)


# ---------------------------------------------------------------------------
# semigroup and cross-domination

def test_semigroup_residuals():
    assert semigroup_residual(KernelSpec(2.0, 1), 1.0, 1.0, SpectralGrid(1, 512, 20.0)) < 1e-10
    assert semigroup_residual(KernelSpec(1.0, 1), 1.0, 2.0, SpectralGrid(1, 1024, 40.0)) < 1e-8
    assert semigroup_residual(KernelSpec(1.5, 1), 0.5, 0.5, SpectralGrid(1, 512, 30.0)) < 1e-6


def _profile(alpha, dim, t, r, resolution):
    """p(t, r), by the radial quadrature at ``resolution`` when alpha has no
    closed form."""
    if alpha in (1.0, 2.0):
        return density_profile(KernelSpec(alpha, dim), t, r)
    return K._profile_quadrature(alpha, dim, t, np.asarray(r, dtype=float), resolution)


def _cross_domination(alpha_i, alpha_a, dim, ts, radii, resolution=1.0):
    """sup p_{alpha_i}(t, x) / p_{alpha_a}(t^(alpha_a/alpha_i), x) over the
    sampled times and radii; finite and >= 1 when alpha_a <= alpha_i."""
    return max(float(np.max(_profile(alpha_i, dim, t, radii, resolution)
                            / _profile(alpha_a, dim, t ** (alpha_a / alpha_i), radii, resolution)))
               for t in ts)


def test_cross_domination_identity():
    c = _cross_domination(2.0, 2.0, 1, [0.5, 1.0, 2.0], np.linspace(0, 10, 101))
    assert c == pytest.approx(1.0, rel=1e-15)


def test_cross_domination_gaussian_vs_cauchy_golden():
    ts = np.geomspace(0.1, 10.0, 41)
    rs = np.linspace(0.0, 20.0, 2001)
    c = _cross_domination(2.0, 1.0, 1, ts, rs)
    assert c >= 1.0
    assert c == pytest.approx(GOLD_CROSS_2_1, rel=1e-4)


def test_cross_domination_2_vs_15_golden_and_stable():
    ts = np.geomspace(0.1, 10.0, 13)
    c = _cross_domination(2.0, 1.5, 1, ts, np.linspace(0.0, 20.0, 1001))
    c2 = _cross_domination(2.0, 1.5, 1, ts, np.linspace(0.0, 20.0, 2001), resolution=2.0)
    assert c >= 1.0
    assert c == pytest.approx(GOLD_CROSS_2_15, rel=1e-4)
    assert abs(c - c2) <= 0.01 * c2


def test_tail_bound_gaussian():
    spec = KernelSpec(2.0, 1)
    assert tail_mass_bound(spec, 1.0, 10.0) == pytest.approx(math.erfc(5.0), rel=1e-12)
