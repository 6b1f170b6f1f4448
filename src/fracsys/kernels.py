"""Symmetric alpha-stable heat kernels on R^d.

Pointwise and grid evaluation of the density p_alpha(t, x) (fundamental
solution of d/dt - Delta_alpha, where Delta_alpha has Fourier symbol
-|xi|^alpha), together with the identity checks the rest of the package
relies on: self-similar scaling, monotone domination in time, L^mu norm
decay and the Chapman-Kolmogorov convolution identity.

:func:`density_profile` takes the closed form for alpha = 2 (Gaussian) and
alpha = 1 (Cauchy).  For every other alpha, the radii from a switch radius
r_far t^(1/alpha) on take the far-field series of p in powers of
r^(-alpha), built from ``math.lgamma`` alone; r_far is derived from the
series' own terms.  The radii below it go through a graded-panel
Gauss-Legendre quadrature of the radial Fourier inversion integral, whose
node set is sized for the largest of them, and r = 0 takes the closed form
of p(t, 0).  The rule is built once per process, on the first quadrature;
the panel cuts of all dyadic levels are built at once, without a per-level
loop, and a node set larger than ``_MAX_NODES`` raises
:class:`NodeCountError` before it is built.  The nodes with rho rmax <= 1/2
(rmax the largest radius) are summed as moments of the kernel's Taylor
series, one polynomial in r^2 for all radii.  For the other nodes the
(radii x nodes) kernel matrix is evaluated in place, one cache-sized block
of ``_BLOCK_ELEMENTS`` at a time in a single reused buffer, and each block
is reduced by ``einsum`` on the calling thread: no BLAS call, so no BLAS
worker threads are started.  :func:`lp_norm` integrates over a few uniform
panels on the core [0, t^(1/alpha)] and two geometric panels per octave
from there to its heavy-tail cut, and evaluates its radii one octave at a
time up to the switch radius, each on the node set its largest radius
needs, and all radii beyond it in one series call.  ``scipy`` (for the
Bessel function J0) is imported only inside the d = 2 quadrature, the one
place that calls it.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Optional

import numpy as np

log = logging.getLogger(__name__)

# e^(-t R^alpha) < 1e-18 fixes the frequency truncation radius
_LOG_TRUNC = -math.log(1e-18)
# dyadic grading levels toward rho = 0 (the symbol rho^alpha is not smooth there)
_GRADING_LEVELS = 40
_GAUSS_ORDER = 16
# far-field series of p: terms considered, the smallest one's share of the sum,
# and the cancellation (sum of |terms| over |sum|) allowed
_SERIES_TERMS = 60
_SERIES_TOL = 1e-17
_SERIES_SPREAD = 8.0
# the radial quadrature sums its nodes with rho rmax <= _TAYLOR_SPLIT by the
# kernel's Taylor series; at 1 its values just beyond r_far (alpha = 1.9, d = 1)
# left the far-field series by more than the 2e-16 of the peak they keep
_TAYLOR_SPLIT = 0.5
# uniform Gauss-Legendre panels of lp_norm on the core [0, t^(1/alpha)]
_LP_CORE_PANELS = 4
# nodes of one radial quadrature at most: at its peak it holds about four
# float64 arrays of its node count (33 bytes a node under tracemalloc), so
# 2^22 nodes take about 140 MB
_MAX_NODES = 2**22
# elements per block of the radial kernel matrix: 2 MB of float64, one L2 cache
_BLOCK_ELEMENTS = 2**18
# grid ringing below -NEG_TOL * peak means the spacing cuts the symbol too early
NEG_TOL = 1e-6


class NodeCountError(ArithmeticError):
    """The radial quadrature would need more nodes than ``_MAX_NODES``."""


class TruncationError(ArithmeticError):
    """Grid spacing too coarse for the kernel's symbol: negative lobes
    exceed tolerance."""

    def __init__(self, message, min_value):
        super().__init__(f"{message} (most negative value {min_value:.3e})")
        self.min_value = min_value


@dataclass(frozen=True)
class KernelSpec:
    """One symmetric alpha-stable density: stability index and dimension."""

    alpha: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.dim < 1 or self.dim != int(self.dim):
            raise ValueError(f"dim must be a positive integer, got {self.dim}")


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid on [-L, L)^d with power-of-two points per axis."""

    dim: int
    n: int
    half_length: float

    # every sample stands for one grid point (see EvenGrid.weights)
    weights = None
    # spectra on the rfftn layout are complex (an EvenGrid's are real)
    spectral_dtype = complex

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not self.half_length > 0.0:
            raise ValueError("half_length must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis(self) -> np.ndarray:
        """Centered coordinates -L + j*h along one axis."""
        return -self.half_length + self.spacing * np.arange(self.n)

    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def _freqs(self) -> tuple:
        """The per-axis frequencies of the rfftn layout: full axes 0 .. d-2,
        the half axis last."""
        return (np.fft.fftfreq,) * (self.dim - 1) + (np.fft.rfftfreq,)

    def forward(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """rfftn of ``values``, into ``out`` when given, one axis pass at a
        time in numpy's own order, so the bits equal ``np.fft.rfftn``."""
        out = np.fft.rfft(values, axis=-1, out=out)
        for ax in range(self.dim - 2, -1, -1):
            np.fft.fft(out, axis=ax, out=out)
        return out

    def inverse(self, spectrum: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """irfftn of the complex ``spectrum``, into ``out`` when given;
        ``spectrum`` is left unchanged.

        The complex passes run over axes 0 .. d-2 as in ``np.fft.irfftn``;
        ``ifftn`` takes them in the other order and differs in the last bits
        for d = 3.  The first pass is out of place, the later ones in place
        on its result.
        """
        for ax in range(self.dim - 1):
            spectrum = np.fft.ifft(spectrum, axis=ax, out=None if ax == 0 else spectrum)
        return np.fft.irfft(spectrum, n=self.n, axis=-1, out=out)

    def centered(self, values: np.ndarray) -> np.ndarray:
        """A field of the transforms' layout (x = 0 at index 0) on the
        grid's own layout (x = 0 at index n//2)."""
        return np.fft.fftshift(values)

    def expand(self, values: np.ndarray) -> np.ndarray:
        """The full-grid field of these samples: they are one already."""
        return values

    def radius(self) -> np.ndarray:
        """|x| on the centered grid."""
        return _radius(self.axis(), self.dim)


def _radius(ax: np.ndarray, dim: int) -> np.ndarray:
    """|x| on the grid whose every axis takes the coordinates ``ax``."""
    if dim == 1:
        return np.abs(ax)
    mesh = np.meshgrid(*([ax] * dim), indexing="ij")
    return np.sqrt(sum(m * m for m in mesh))


# per live grid view, its symbols by alpha; the view's death drops its entry
_SYMBOLS = weakref.WeakKeyDictionary()


def symbol_exponent(view, alpha: float) -> np.ndarray:
    """|xi|^alpha on a grid view, meshed from its per-axis frequency
    functions ``view._freqs``.  Built once per view and alpha and kept
    only while the view lives, so read-only.  A :class:`SpectralGrid`
    hashes by value, so an equal grid shares the array while the first
    one lives."""
    symbols = _SYMBOLS.setdefault(view, {})
    if alpha not in symbols:
        k = [2.0 * np.pi * f(view.n, d=view.spacing) for f in view._freqs]
        out = sum(m * m for m in np.meshgrid(*k, indexing="ij", sparse=True)) ** (alpha / 2.0)
        out.flags.writeable = False
        symbols[alpha] = out
    return symbols[alpha]


def dealias_mask(view) -> np.ndarray:
    """The two-thirds rule |k| <= n // 3 on every axis, read-only, meshed
    from the per-axis frequency functions ``view._freqs`` of a grid view;
    built afresh on each call (a run makes it once)."""
    keep = [np.abs(f(view.n) * view.n) <= view.n // 3 for f in view._freqs]
    out = reduce(np.logical_and, np.meshgrid(*keep, indexing="ij", sparse=True))
    out.flags.writeable = False
    return out


class EvenGrid:
    """The x >= 0 samples x = 0, h, ..., L on each axis of a
    :class:`SpectralGrid`, (n/2 + 1)^d points, which fix a field that is
    even in every axis.

    The spectrum of such a field is real, so :meth:`forward` is a DCT-I:
    each axis pass copies the even extension of length n into one
    preallocated buffer (every pass holds n (n/2 + 1)^(d-1) values, so
    each views it in its own shape), takes its ``rfft`` and keeps the real
    part.  :meth:`inverse` is the same passes scaled by 1/n per axis.  Both
    equal the full grid's transforms of the field re-centred at x = 0,
    whose spectrum differs from the full grid's by (-1)^k per axis, a sign
    every radial multiplier and the mask commute with.  The view's
    :func:`symbol_exponent` and :func:`dealias_mask` take ``rfftfreq`` on
    every axis: they are the ``[:n/2+1]`` corners of the full grid's bit
    for bit, since -n/2, the full grid's Nyquist frequency, squares as n/2
    does, and the full grid's are never built.
    The view keeps x = 0 at index 0, where the transforms put it, so
    :meth:`centered` moves nothing, and its spacing and half-length are
    the full grid's.  A sum over the full grid weights each sample by its
    multiplicity ``weights``: per axis 1 at index 0 or n/2 and 2
    elsewhere, multiplied over the axes.  A run's fields stay on the view;
    only the snapshot writer takes the full-grid field, :meth:`expand`.
    Neither transform writes into its input, and the buffers make a view
    serve one transform at a time.
    """

    # the spectrum of an even field is real
    spectral_dtype = float

    def __init__(self, grid: SpectralGrid):
        self.full = grid
        self.dim, self.n, self.cell_volume = grid.dim, grid.n, grid.cell_volume
        self.half_length, self.spacing = grid.half_length, grid.spacing
        m = grid.n // 2 + 1
        per_axis = np.full(m, 2.0)
        per_axis[[0, -1]] = 1.0
        self.weights = reduce(np.multiply, np.ix_(*[per_axis] * grid.dim))
        self._passes = []
        ext = np.empty(grid.n * m ** (grid.dim - 1))
        for ax in range(grid.dim):
            # the pass along ax views the one buffer in its own shape: the
            # field fills [:m] of the extension, its mirror [m:]
            lead = (slice(None),) * ax
            shape = self.shape()[:ax] + (grid.n,) + self.shape()[ax + 1:]
            self._passes.append((ext.reshape(shape), lead + (slice(0, m),), lead + (slice(m, None),),
                                 lead + (slice(m - 2, 0, -1),)))
        self._spectrum = np.empty(self.shape(), dtype=complex)
        self._freqs = (np.fft.rfftfreq,) * grid.dim

    def shape(self) -> tuple:
        return (self.n // 2 + 1,) * self.dim

    def centered(self, values: np.ndarray) -> np.ndarray:
        return values

    def expand(self, values: np.ndarray) -> np.ndarray:
        """The full-grid field, even in every axis, with these x >= 0
        samples, by 2^d slice copies: per axis the samples reversed fill
        x <= 0 (x = L is x = -L), and those strictly inside fill x > 0."""
        h = self.n // 2
        pieces = ((slice(0, h + 1), slice(None, None, -1)), (slice(h + 1, None), slice(1, h)))
        out = np.empty(self.full.shape(), dtype=values.dtype)
        for combo in product(pieces, repeat=self.dim):
            out[tuple(dst for dst, _ in combo)] = values[tuple(src for _, src in combo)]
        return out

    def radius(self) -> np.ndarray:
        """|x| on the corner, bit for bit the full grid's |x| there."""
        ax = self.full.axis()
        return _radius(np.append(ax[self.n // 2:], ax[0]), self.dim)

    def forward(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """DCT-I of ``values``, into ``out`` when given."""
        return self._dct(values, out, 1.0)

    def inverse(self, spectrum: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Inverse DCT-I of the real ``spectrum``, into ``out`` when given."""
        return self._dct(spectrum, out, float(self.n) ** -self.dim)

    def _dct(self, values, out, scale):
        for ax in range(self.dim - 1, -1, -1):
            ext, head, tail, mirror = self._passes[ax]
            ext[head] = values
            ext[tail] = ext[mirror]
            values = np.fft.rfft(ext, axis=ax, out=self._spectrum).real
        # 1/n^d is a power of two, so one scaling is bitwise the per-axis ones
        return np.multiply(values, scale, out=out)


def _sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _tail_coeff(a: float, d: int) -> float:
    """A(alpha, d) of the heavy tail p(t, x) ~ t A |x|^(-d-alpha), alpha < 2."""
    return 2.0 ** (a - 1.0) * a * math.pi ** (-d / 2.0) * math.gamma((d + a) / 2.0) / math.gamma(1.0 - a / 2.0)


@lru_cache(maxsize=1)
def _gauss_rule():
    """Gauss-Legendre nodes and weights on [-1, 1], built on the first quadrature
    (not at import: ``numpy.polynomial`` loads with it); shared, so read-only."""
    xg, wg = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def _gauss_panels(cuts: np.ndarray):
    """Nodes and weights of the Gauss-Legendre rule on each panel [cuts[k], cuts[k+1]]."""
    xg, wg = _gauss_rule()
    mid = 0.5 * (cuts[1:] + cuts[:-1])
    half = 0.5 * (cuts[1:] - cuts[:-1])
    return (mid[:, None] + half[:, None] * xg[None, :]).ravel(), (half[:, None] * wg[None, :]).ravel()


def _peak_value(alpha: float, dim: int, t: float) -> float:
    """p(t, 0) in closed form: the inversion integral is nonoscillatory at 0."""
    return _sphere_area(dim) * math.gamma(dim / alpha) / ((2.0 * math.pi) ** dim * alpha) * t ** (-dim / alpha)


def _trunc(alpha: float, t: float) -> float:
    """Frequency truncation radius R: e^(-t R^alpha) = 1e-18."""
    return (_LOG_TRUNC / t) ** (1.0 / alpha)


def _quad_panels(alpha: float, t: float, rmax: float, resolution: float):
    """Gauss-Legendre nodes/weights for int_0^R e^(-t rho^alpha) K(rho r) drho.

    Panels are graded dyadically toward rho = 0 and kept below half an
    oscillation period of the kernel at the largest requested radius.  The
    m cuts of a level [lo, hi] are lo + k ((hi - lo)/m), k < m, built for
    all levels at once; they are the bits ``np.linspace(lo, hi, m + 1)``
    gives, whose last cut hi is the next level's first.
    """
    trunc = _trunc(alpha, t)
    width = math.pi / max(rmax, math.pi / trunc)
    edges = np.append(0.0, np.ldexp(trunc, np.arange(-_GRADING_LEVELS, 1)))
    lo, span = edges[:-1], np.diff(edges)
    m = np.maximum(1.0, np.ceil(span / width * resolution))
    nodes = _GAUSS_ORDER * float(m.sum())
    if nodes > _MAX_NODES:
        raise NodeCountError(f"alpha={alpha:g}, t={t:g}: the radial quadrature out to r = {rmax:.6g} "
                             f"needs {nodes:.3e} nodes, over the cap of {_MAX_NODES}")
    m = m.astype(np.intp)
    k = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    cuts = np.append(np.repeat(lo, m) + k * np.repeat(span / m, m), trunc)
    rho, w = _gauss_panels(cuts)
    w *= np.exp(-t * rho**alpha)
    return rho, w


@lru_cache(maxsize=64)
def _far_series(alpha: float, dim: int):
    """Coefficients c_1 .. c_K and switch radius r_far of the far-field series
    p(1, r) = r^(-d) sum_{k <= K} c_k r^(-k alpha), exact for r >= r_far.

    c_k = (-1)^(k+1)/k! 2^(k alpha) Gamma((k alpha + d)/2) Gamma(k alpha/2 + 1)
    sin(pi k alpha/2) / pi^(d/2 + 1) (Bergstrom 1952; Kolokoltsov 2000 for
    R^d), and c_1 is :func:`_tail_coeff`.  The series converges for
    alpha < 1 and is asymptotic for alpha > 1, so its smallest term of
    k = 2 .. ``_SERIES_TERMS`` ends the sum.  On a 2^(1/16) ladder of radii,
    r_far is the smallest from which on that term is below ``_SERIES_TOL``
    of the sum before it and the summed terms cancel by at most
    ``_SERIES_SPREAD``; K is the count summed there, and farther out the
    next term only shrinks.  Sizes omit the sine, which vanishes where
    k alpha/2 is an integer while the neighbouring terms do not.  c_1
    carries sin(pi alpha/2), so r_far grows as alpha -> 2; it is inf, with
    no coefficients, when even the last radius fails.  Cached, so read-only.
    """
    k = np.arange(1, _SERIES_TERMS + 1)
    ka = k * alpha
    log_size = ka * math.log(2.0) - (dim / 2.0 + 1.0) * math.log(math.pi) + np.array(
        [math.lgamma((x + dim) / 2.0) + math.lgamma(x / 2.0 + 1.0) - math.lgamma(j + 1.0)
         for x, j in zip(ka, k)])
    sine = (-1.0) ** (k + 1) * np.sin(0.5 * math.pi * ka)
    radii = np.exp2(np.arange(-160, 161) / 16.0)
    # each term's size over the first one's, per radius; clipped so nothing overflows
    log_rel = (log_size - log_size[0])[:, None] - (ka - alpha)[:, None] * np.log(radii)
    size = np.exp(np.minimum(log_rel, 700.0))
    end = 1 + np.argmin(size[1:], axis=0)
    head = np.where(k[:, None] <= end, sine[:, None] * size, 0.0)
    total = np.abs(head.sum(axis=0))
    exact = ((size[end, np.arange(radii.size)] <= _SERIES_TOL * total)
             & (np.abs(head).sum(axis=0) <= _SERIES_SPREAD * total))
    first = np.flatnonzero(~exact)[-1] + 1 if not exact.all() else 0
    if first == radii.size:
        return np.empty(0), math.inf
    coeffs = sine[: end[first]] * np.exp(log_size[: end[first]])
    coeffs.flags.writeable = False
    return coeffs, float(radii[first])


def _profile_series(alpha, dim, t, r):
    """p(t, r) = r^(-d) sum_k c_k (t r^(-alpha))^k by Horner's rule, for
    r >= r_far t^(1/alpha) (p(t, r) = t^(-d/alpha) p(1, r t^(-1/alpha)))."""
    coeffs, _ = _far_series(alpha, dim)
    x = t * r ** (-alpha)
    return x * np.polyval(coeffs[::-1], x) * r ** (-dim)


@lru_cache(maxsize=3)
def _taylor_coeffs(dim: int) -> np.ndarray:
    """a_0 .. a_(J-1) of the radial kernel K_d(x) = sum_j a_j x^(2j): cos x
    (d = 1), J0(x) (d = 2) and sin x / x (d = 3).  The series alternate with
    shrinking terms for x <= X = ``_TAYLOR_SPLIT``, so the first term left
    out bounds the remainder: J is the first j with X^(2j) |a_j| <=
    ``_SERIES_TOL`` (8 for all three).  Cached, so read-only.
    """
    term = {1: lambda j: (-1.0) ** j / math.factorial(2 * j),
            2: lambda j: (-0.25) ** j / math.factorial(j) ** 2,
            3: lambda j: (-1.0) ** j / math.factorial(2 * j + 1)}[dim]
    a = []
    while _TAYLOR_SPLIT ** (2 * len(a)) * abs(term(len(a))) > _SERIES_TOL:
        a.append(term(len(a)))
    out = np.array(a)
    out.flags.writeable = False
    return out


def _profile_quadrature(alpha, dim, t, r, resolution):
    """const * sum_i w_i rho_i^(d-1) K_d(rho_i r) for each radius r.

    The nodes with rho rmax <= ``_TAYLOR_SPLIT`` (rmax the largest radius)
    are summed by the kernel's Taylor series (:func:`_taylor_coeffs`) as
    moments: sum_j a_j M_j r^(2j) with M_j = sum_i w_i rho_i^(d-1+2j), one
    polynomial in r^2 for all radii.  The other nodes go through the
    (radii x nodes) kernel matrix; its blocks hold whole rows (one radius
    each), so a block is one row when a row alone exceeds ``_BLOCK_ELEMENTS``.
    """
    if dim == 1:
        kernel, const = np.cos, 1.0 / math.pi
    elif dim == 2:
        from scipy.special import j0  # loads in about 0.3 s; only this branch needs it
        kernel, const = j0, 1.0 / (2.0 * math.pi)
    elif dim == 3:
        # rho^2 sinc(rho r) = rho sin(rho r) / r; the 1/r comes after the sum
        kernel, const = np.sin, 1.0 / (2.0 * math.pi**2)
    else:
        raise ValueError("the radial quadrature supports dim 1, 2 or 3 only")
    rmax = float(np.max(r, initial=0.0))
    rho, w = _quad_panels(alpha, t, rmax, resolution)
    if dim > 1:
        w *= rho
    # rho ascends, so the Taylor nodes are a prefix
    split = np.count_nonzero(rho * rmax <= _TAYLOR_SPLIT)
    a = _taylor_coeffs(dim)
    # row j holds w_i rho_i^(d-1+2j); the series of sinc carries the whole
    # rho^2, so it needs no 1/r.  Rows are summed pairwise (numpy's sum along
    # a contiguous axis): einsum's running sum erred 2.4 times as much.
    terms = np.empty((a.size, split))
    terms[0] = w[:split] * rho[:split] if dim == 3 else w[:split]
    rho2 = rho[:split] ** 2
    for j in range(1, a.size):
        np.multiply(terms[j - 1], rho2, out=terms[j])
    moments = terms.sum(axis=1)
    out = np.polyval((a * moments)[::-1], r * r)
    rho, w = rho[split:], w[split:]
    if rho.size:
        high = np.empty_like(r)
        rows = max(1, min(r.size, _BLOCK_ELEMENTS // rho.size))
        buf = np.empty(rows * rho.size)
        for lo in range(0, r.size, rows):
            rr = r[lo : lo + rows]
            block = buf[: rr.size * rho.size].reshape(rr.size, rho.size)
            np.multiply(rr[:, None], rho, out=block)
            kernel(block, out=block)
            np.einsum("ij,j->i", block, w, out=high[lo : lo + rr.size])
        if dim == 3:
            origin = r == 0.0
            np.divide(high, r, out=high, where=~origin)
            high[origin] = np.einsum("i,i->", w, rho)
        out += high
    out *= const
    return out


def density_profile(spec: KernelSpec, t: float, r) -> np.ndarray:
    """Evaluate p(t, |x|) on an array of radii r >= 0.

    Closed forms for alpha = 2 and alpha = 1.  Otherwise the radii from
    r_far t^(1/alpha) on take the far-field series (:func:`_far_series`),
    r = 0 takes the closed form :func:`_peak_value`, and the others the
    radial quadrature, on a node set sized for the largest of them.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if spec.alpha == 2.0:
        return (4.0 * math.pi * t) ** (-spec.dim / 2.0) * np.exp(-(r**2) / (4.0 * t))
    if spec.alpha == 1.0:
        c = math.gamma((spec.dim + 1) / 2.0) / math.pi ** ((spec.dim + 1) / 2.0)
        return c * t / (t**2 + r**2) ** ((spec.dim + 1) / 2.0)
    _, r_far = _far_series(spec.alpha, spec.dim)
    far = r >= r_far * t ** (1.0 / spec.alpha)
    origin = r == 0.0
    near = ~(far | origin)
    out = np.empty_like(r)
    if far.any():
        out[far] = _profile_series(spec.alpha, spec.dim, t, r[far])
    out[origin] = _peak_value(spec.alpha, spec.dim, t)
    if near.any():
        out[near] = _profile_quadrature(spec.alpha, spec.dim, t, r[near], 1.0)
    return out


def eval_density_grid(spec: KernelSpec, t: float, grid, *, clamp: bool = True) -> np.ndarray:
    """Sample the periodized density on a grid view via the inverse
    transform of the symbol e^(-t |xi|^alpha).

    On a :class:`SpectralGrid` the field is centered (index n//2 is x = 0);
    on its :class:`EvenGrid` it is that field's x >= 0 corner (index 0 is
    x = 0), taken from the real corner of the symbol by the DCT-I without
    the full grid.  The view supplies what differs: the symbol's dtype, the
    centring and the half-length.  The Riemann mass h^d * sum equals 1
    exactly (mode zero of the symbol), so all error lives in periodic
    wrap-around of the tails; :func:`tail_mass_bound` budgets that.
    Ringing below ``-NEG_TOL * peak`` raises :class:`TruncationError`; the
    periodization of a positive kernel is positive, so such ringing comes
    from cutting the symbol at the Nyquist radius pi/h, and the message
    names h and the symbol's value there.  Smaller negative lobes are
    clamped to zero with a debug-logged count.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if grid.dim != spec.dim:
        raise ValueError(f"grid dim {grid.dim} != kernel dim {spec.dim}")
    symbol = np.exp(-t * symbol_exponent(grid, spec.alpha)).astype(grid.spectral_dtype, copy=False)
    raw = grid.inverse(symbol) * (grid.n**grid.dim / (2.0 * grid.half_length) ** grid.dim)
    raw = grid.centered(raw)
    peak = raw.max()
    mn = raw.min()
    if mn < -NEG_TOL * peak:
        h = grid.spacing
        raise TruncationError(
            f"grid spacing h = {h:.6g} does not resolve alpha={spec.alpha}, t={t}: the symbol "
            f"at the Nyquist radius pi/h is e^(-t (pi/h)^alpha) = "
            f"{math.exp(-t * (math.pi / h) ** spec.alpha):.3e}", mn)
    if clamp and mn < 0.0:
        log.debug("clamped %d negative ringing values (min %.3e)", np.count_nonzero(raw < 0.0), mn)
        np.maximum(raw, 0.0, out=raw)
    return raw


def grid_mass(values: np.ndarray, grid, out: Optional[np.ndarray] = None) -> float:
    """Riemann-sum mass h^d * sum(values) over the whole grid; on an
    :class:`EvenGrid` each sample counts with its multiplicity, and the
    weighted samples go to ``out`` (may be ``values``) if it is given."""
    if grid.weights is not None:
        values = np.multiply(values, grid.weights, out=out)
    return float(values.sum() * grid.cell_volume)


def tail_mass_bound(spec: KernelSpec, t: float, half_length: float) -> float:
    """Estimate of the kernel mass outside the box [-L, L)^d.

    Exact complementary-error-function tail for alpha = 2, exact arctangent
    tail for the one-dimensional Cauchy case, and the first-order heavy-tail
    asymptotic p(t, x) ~ t * A(alpha, d) |x|^(-d-alpha) otherwise.  This is a
    budget, not a rigorous bound.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    L = float(half_length)
    if spec.alpha == 2.0:
        return spec.dim * math.erfc(L / (2.0 * math.sqrt(t)))
    if spec.alpha == 1.0 and spec.dim == 1:
        return (2.0 / math.pi) * math.atan(t / L)
    a, d = spec.alpha, spec.dim
    return t * _tail_coeff(a, d) * _sphere_area(d) * L ** (-a) / a


def check_scaling(spec: KernelSpec, t: float, s: float, radii) -> float:
    """Max relative violation of p(ts, x) = t^(-d/alpha) p(s, t^(-1/alpha) x)."""
    if not (t > 0.0 and s > 0.0):
        raise ValueError("t and s must be positive")
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    lhs = density_profile(spec, t * s, r)
    rhs = t ** (-spec.dim / spec.alpha) * density_profile(spec, s, t ** (-1.0 / spec.alpha) * r)
    # where the density underflows to zero the absolute difference is reported
    denom = np.where(lhs > 0.0, lhs, 1.0)
    return float(np.max(np.abs(lhs - rhs) / denom))


def check_monotone_domination(spec: KernelSpec, t: float, s: float, radii) -> float:
    """Smallest margin p(t, x) - (s/t)^(d/alpha) p(s, x), t >= s, over the
    sample radii; the domination holds where it is nonnegative."""
    if not (t >= s > 0.0):
        raise ValueError("need t >= s > 0")
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    margin = density_profile(spec, t, r) - (s / t) ** (spec.dim / spec.alpha) * density_profile(spec, s, r)
    return float(margin.min())


def _lp_radial_cut(alpha: float, dim: int, t: float, mu: float) -> float:
    """Radius beyond which the analytic tail term is appended instead of
    quadrature (relative tail contribution about 1e-6)."""
    if alpha == 2.0:
        return math.sqrt(max(240.0 * t / mu, 100.0 * t))
    core = _peak_value(alpha, dim, t) ** mu * t ** (dim / alpha)
    p_tail = mu * (dim + alpha) - dim
    cut = ((t * _tail_coeff(alpha, dim)) ** mu / (p_tail * 1e-6 * core)) ** (1.0 / p_tail)
    return max(cut, 8.0 * t ** (1.0 / alpha))


def lp_norm(spec: KernelSpec, t: float, mu: float) -> float:
    """L^mu(R^d) norm of p(t, .) by radial quadrature.

    The integral S_{d-1} int_0^inf p(t,r)^mu r^(d-1) dr is evaluated on
    Gauss-Legendre panels out to a heavy-tail cut, after which the
    first-order |x|^(-d-alpha) asymptotic supplies the remainder (for
    alpha < 2; the Gaussian tail is negligible beyond the cut).  For
    alpha >= 1, ``_LP_CORE_PANELS`` uniform panels cover the core
    [0, t^(1/alpha)]; for alpha < 1 one panel covers [0, cut 2^(-24)].
    Geometric panels, two per octave, run from there to the cut.  p(t, r)
    is evaluated band by band, each band on the node set
    :func:`_quad_panels` sizes for its largest radius: one band for the
    radii up to 2 pi/trunc, below which every dyadic level takes one panel
    and the node set is the coarsest, then one band per octave up to the
    switch radius r_far t^(1/alpha) of :func:`density_profile`.  The radii
    beyond it form one band more, which takes the far-field series and no
    quadrature.  The closed forms (alpha = 1, 2) take all radii in one call.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if mu < 1.0:
        raise ValueError(f"mu must be >= 1, got {mu}")
    a, d = spec.alpha, spec.dim
    rcut = _lp_radial_cut(a, d, t, mu)
    if a >= 1.0:
        # p(t, .) is analytic at 0: a few uniform panels hold its core
        lo = t ** (1.0 / a)
        head = np.linspace(0.0, lo, _LP_CORE_PANELS + 1)
    else:
        # p(t, .) is only smooth at 0: the grading goes on 24 octaves below the cut
        lo = rcut * 2.0 ** (-24)
        head = np.array([0.0, lo])
    halves = math.ceil(2.0 * math.log2(rcut / lo))
    r, w = _gauss_panels(np.concatenate([head, np.geomspace(lo, rcut, halves + 1)[1:]]))
    if a in (1.0, 2.0):
        vals = density_profile(spec, t, r)
    else:
        r_one = 2.0 * math.pi / _trunc(a, t)
        octaves = max(0, math.ceil(math.log2(rcut / r_one)))
        edges = np.ldexp(r_one, np.arange(octaves))
        # the switch radius is the last edge: the series takes all radii beyond it
        r_far = _far_series(a, d)[1] * t ** (1.0 / a)
        edges = np.append(edges[edges < r_far], r_far)
        bands = np.split(r, np.searchsorted(r, edges, side="right"))
        vals = np.concatenate([density_profile(spec, t, band) for band in bands if band.size])
    surf = _sphere_area(d)
    total = surf * float(np.dot(w, vals**mu * r ** (d - 1)))
    if a < 2.0:
        p_tail = mu * (d + a) - d
        total += surf * (t * _tail_coeff(a, d)) ** mu * rcut ** (-p_tail) / p_tail
    return total ** (1.0 / mu)


def lp_norm_slope(spec: KernelSpec, mu: float, ts) -> float:
    """Least-squares slope of log ||p(t)||_mu against log t."""
    ts = np.asarray(ts, dtype=float)
    logn = np.log([lp_norm(spec, t, mu) for t in ts])
    return float(np.polyfit(np.log(ts), logn, 1)[0])


def semigroup_residual(spec: KernelSpec, t: float, s: float, grid: SpectralGrid) -> float:
    """Max absolute error of the convolution identity p(t) * p(s) = p(t+s).

    Both factor fields are built in real space and convolved spectrally
    (h^d-scaled circular convolution); the reference is the field built
    directly from the symbol at time t + s.
    """
    if not (t > 0.0 and s > 0.0):
        raise ValueError("t and s must be positive")
    u = eval_density_grid(spec, t, grid, clamp=False)
    v = eval_density_grid(spec, s, grid, clamp=False)
    w = eval_density_grid(spec, t + s, grid, clamp=False)
    conv = grid.inverse(grid.forward(u) * grid.forward(v)) * grid.cell_volume
    # both inputs are centered, so the circular convolution is centered too
    conv = grid.centered(conv)
    return float(np.max(np.abs(conv - w)))
