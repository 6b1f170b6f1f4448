"""Pseudospectral solver for the coupled mild-solution integral system

    u_i(t, x) = (G_i(t, 0) phi_i)(x)
                + int_0^t (G_i(t, s) [s^(sigma_i) u_j(s)^(beta_i)])(x) ds,

where G_i(t, s) is the Fourier multiplier exp(-(t^rho_i - s^rho_i)|xi|^alpha_i)
on a periodic truncation of R^d.  Time marching is a graded-mesh fixed-point
(Picard) iteration of the local integral form on each cell, with the singular
weight s^sigma absorbed into the quadrature weights so s = 0 is never sampled.
The grading of the mesh is derived from sigma (:func:`mesh_grading`), so that
the scheme keeps second order for every sigma > -1.
"""

from __future__ import annotations

import hashlib
import logging
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .exponents import SystemParams, _fmt
from .kernels import (NEG_TOL, EvenGrid, KernelSpec, SpectralGrid, dealias_mask, eval_density_grid,
                      grid_mass, symbol_exponent, tail_mass_bound)

log = logging.getLogger(__name__)

DIVERGENCE_LIMIT = 1e12
# a step's Picard iteration stops once the largest change relative to the
# peak is below PICARD_TOL, and is rejected after PICARD_MAX_ITER iterations
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 25
# nodes of the 2-point Gauss rule on the reference cell [-1, 1]; its weights are 1
GAUSS_X = np.array([-1.0, 1.0]) / math.sqrt(3.0)
# recommended half-length in units of the largest dispersive spread
HALF_LENGTH_SAFETY = 6.0

INIT_KINDS = ("stable_kernel", "gaussian", "from_file")
# kinds whose fields are radial by construction, so even in every axis
RADIAL_KINDS = ("stable_kernel", "gaussian")

SNAPSHOT_MAGIC = b"FWCS"
SNAPSHOT_VERSION = 1


class StepRejected(RuntimeError):
    """Picard iteration did not reach PICARD_TOL within PICARD_MAX_ITER iterations."""

    def __init__(self, time, diff):
        super().__init__(f"step to t={time:.6g} stalled (last change {diff:.3e})")
        self.time = time
        self.diff = diff


class Divergence(RuntimeError):
    """Overflow or non-finite values; the trajectory is presumed to blow up."""

    def __init__(self, time):
        super().__init__(f"solution diverged near t={time:.6g}")
        self.time = time


class UnresolvedData(ArithmeticError):
    """Gaussian data whose grid mass is off epsilon by more than NEG_TOL relative."""


class SnapshotFormatError(ValueError):
    pass


def mesh_grading(sigma) -> float:
    """The grading gamma of the time mesh for the weights s^sigma_i.

    In tau = s^(1/gamma) the weight s^sigma ds is
    gamma tau^(gamma (1 + sigma) - 1) dtau, which the 2-point Gauss rule of
    :func:`step` integrates at second order when it is constant or at least
    linear in tau: gamma (1 + sigma) is 1 or >= 2.  gamma is the smallest
    value >= 1 among 1, 1/(1 + sigma_i) and 2/(1 + sigma_i) at which that
    holds for both components (Brunner, *Collocation Methods for Volterra
    Integral and Related Functional Equations*, CUP 2004, ch. 2 and 6); it
    is 1 for sigma = 0 and for sigma >= 1.

    Known trade-off: sigma = (-0.5, -0.25) takes gamma = 4 at order 2, yet
    on constant data (beta = (3, 2), horizon 0.5, K = 1600) it errs 7.5e-6,
    where gamma = 2, at order 1.9, errs 2.7e-6.
    """
    def resolved(power):
        return abs(power - 1.0) <= 1e-12 or power >= 2.0 - 1e-12

    candidates = {1.0} | {k / (1.0 + s) for s in sigma for k in (1.0, 2.0)}
    # the largest candidate, max_i 2/(1 + sigma_i), always qualifies
    return next(gamma for gamma in sorted(g for g in candidates if g >= 1.0)
                if all(resolved(gamma * (1.0 + s)) for s in sigma))


@dataclass(frozen=True)
class TimeMesh:
    """Horizon T and step count K of the graded mesh t_k = T (k/K)^gamma on
    [0, T]; the grading gamma comes from :func:`mesh_grading`."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    def nodes(self, grading: float) -> np.ndarray:
        k = np.arange(self.steps + 1, dtype=float)
        return self.horizon * (k / self.steps) ** grading


@dataclass(frozen=True)
class InitialData:
    kind: str
    epsilon: float = 1.0
    width: float = 1.0
    path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ValueError(f"unknown initial data kind {self.kind!r}")
        if self.kind == "from_file" and not self.path:
            raise ValueError("from_file initial data needs a path")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not (math.isfinite(self.width) and self.width > 0.0):
            raise ValueError(f"width must be finite and positive, got {self.width}")


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    grid: SpectralGrid
    mesh: TimeMesh
    init: InitialData
    snapshot_stride: int = 10

    def __post_init__(self):
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.grid.dim != self.params.dim:
            raise ValueError("grid dimension does not match system dimension")
        if self.grid.dim == 3 and self.grid.n > 128:
            raise ValueError("dim 3 runs are limited to n <= 128 per axis")


@dataclass
class FieldPair:
    """Both solution components sampled on the grid at one time.

    On a symmetric run (see :func:`solve`) ``u1`` and ``u2`` are the same
    array.  The arrays of a solve's snapshots and of a step's result are
    read-only.
    ``spectra`` holds per component the read-only spectrum of the field, or
    None; only :func:`step` sets it, on the pair it returns.
    """

    u1: np.ndarray
    u2: np.ndarray
    time: float
    spectra: tuple = field(default=(None, None), repr=False, compare=False)

    def components(self):
        return (self.u1, self.u2)


@dataclass
class StepDiagnostics:
    iterations: int
    changes: list          # successive iterate distances
    clamped: int


@dataclass
class SolveStatus:
    kind: str              # "completed" | "diverged" | "step_rejected"
    time: float

    @property
    def completed(self) -> bool:
        return self.kind == "completed"


NORM_COLUMNS = ("t", "linf_u1", "linf_u2", "ls_u1", "ls_u2",
                "scaled_u1", "scaled_u2", "mass_u1", "mass_u2", "picard_iters")


@dataclass
class NormSeries:
    """Per-node norm history; ls/scaled columns are NaN when no integrability
    order is attached to the run."""

    t: np.ndarray
    linf: np.ndarray       # shape (nodes, 2)
    ls: np.ndarray         # shape (nodes, 2)
    scaled: np.ndarray     # shape (nodes, 2)
    mass: np.ndarray       # shape (nodes, 2)
    picard_iters: np.ndarray

    def write_csv(self, path) -> str:
        """Write the series as CSV through :func:`write_artifact`, one UTF-8
        chunk per row; returns the file's SHA-256 (hex)."""
        def rows():
            yield NORM_COLUMNS
            for k in range(self.t.size):
                row = [_fmt(self.t[k])]
                for pair in (self.linf, self.ls, self.scaled, self.mass):
                    row += [_fmt(pair[k, 0]), _fmt(pair[k, 1])]
                row.append(str(int(self.picard_iters[k])))
                yield row
        return write_artifact(path, ((",".join(row) + "\n").encode() for row in rows()))


@dataclass
class SolveResult:
    snapshots: list        # FieldPair at every stride-th node (first and last always)
    grid: object           # the view the snapshots live on (see solve)
    norms: NormSeries
    status: SolveStatus
    diagnostics: dict = field(default_factory=dict)


def recommended_half_length(params: SystemParams, horizon: float) -> float:
    """Dispersive-spread heuristic max_i (T^rho_i)^(1/alpha_i) times a safety factor."""
    spread = max((horizon ** params.rho[i]) ** (1.0 / params.alpha[i]) for i in (0, 1))
    return HALF_LENGTH_SAFETY * spread


def make_initial_data(init: InitialData, grid, params: SystemParams) -> FieldPair:
    """Nonnegative, integrable, bounded initial data at t = 0 on the grid
    view ``grid``: a :class:`SpectralGrid`, or for radial kinds also its
    :class:`EvenGrid`, where the fields are the x >= 0 corner.  Gaussian
    data the grid cannot hold (see :class:`UnresolvedData`) raise, as do
    ``from_file`` data with a value that is negative or not finite or with
    a component of zero mass (:class:`SnapshotFormatError`)."""
    if init.kind == "stable_kernel":
        def density(alpha):
            return init.epsilon * eval_density_grid(KernelSpec(alpha, grid.dim), 1.0, grid)

        u1 = density(params.alpha[0])
        u2 = u1.copy() if params.alpha[1] == params.alpha[0] else density(params.alpha[1])
        return FieldPair(u1, u2, 0.0)
    if init.kind == "gaussian":
        r2 = grid.radius() ** 2
        w2 = init.width**2
        bump = init.epsilon * (2.0 * math.pi * w2) ** (-grid.dim / 2.0) * np.exp(-r2 / (2.0 * w2))
        mass = grid_mass(bump, grid)
        if abs(mass - init.epsilon) > NEG_TOL * init.epsilon:
            raise UnresolvedData(f"gaussian data of width {init.width:.6g} have grid mass "
                                 f"{mass:.6g}, not epsilon = {init.epsilon:.6g}, at spacing "
                                 f"h = {grid.spacing:.6g} and half-length L = {grid.half_length:.6g}")
        return FieldPair(bump, bump.copy(), 0.0)
    pair, file_grid, _ = read_snapshot(init.path)
    if (file_grid.dim, file_grid.n) != (grid.dim, grid.n) \
            or abs(file_grid.half_length - grid.half_length) > 1e-12 * grid.half_length:
        raise SnapshotFormatError(
            f"snapshot grid (dim={file_grid.dim}, n={file_grid.n}, L={file_grid.half_length}) "
            f"does not match run grid (dim={grid.dim}, n={grid.n}, L={grid.half_length})")
    for name, u in zip(("u1", "u2"), pair.components()):
        # NaN fails both comparisons; -0.0 passes
        bad = np.flatnonzero(~((u >= 0.0) & (u < math.inf)))
        if bad.size:
            raise SnapshotFormatError(
                f"{init.path}: initial data must be nonnegative and finite; {name} has "
                f"{bad.size} values that are not, the first {float(u.flat[bad[0]])} at index {bad[0]}")
        if not grid_mass(u, grid) > 0.0:
            raise SnapshotFormatError(f"{init.path}: initial data must have positive mass; "
                                      f"{name} has grid mass 0")
    pair.time = 0.0
    return pair


def _power(x: np.ndarray, beta: float, scratch: np.ndarray) -> np.ndarray:
    """x**beta in place: overwrites ``x`` and returns it.

    beta in {2, 3, 4} goes by repeated multiplication, which differs from the
    general ``pow`` by a few ulp; beta = 3 puts x*x in ``scratch``.
    """
    if beta == 2.0:
        x *= x
    elif beta == 3.0:
        x *= np.multiply(x, x, out=scratch)
    elif beta == 4.0:
        x *= x
        x *= x
    else:
        np.power(x, beta, out=x)
    return x


class _Plan:
    """Precomputed spectral data and the reused workspace of one run.

    The workspace holds the spectrum ``hat`` and the real scratch fields
    ``work`` and ``scratch``, and per component i the spectrum ``base[i]``
    of its propagated start field and its node coefficients
    ``coef[i][q]``, both None until :meth:`component` makes them on the
    first step that computes component i.  The workspace is overwritten by
    every :func:`step`, so a plan serves one trajectory at a time; between
    steps ``work`` is free scratch.  ``grid`` is the view the fields live
    on: the config's grid, or its :class:`EvenGrid`.  ``grading`` is the
    mesh grading of the config's sigma.
    """

    def __init__(self, config: RunConfig, grid=None):
        self.config = config
        self.grading = mesh_grading(config.params.sigma)
        self.grid = grid = config.grid if grid is None else grid
        self.symb = [symbol_exponent(grid, config.params.alpha[i]) for i in (0, 1)]
        self.mask = dealias_mask(grid)

        self.hat = np.empty(self.symb[0].shape, dtype=grid.spectral_dtype)
        self.work = np.empty(grid.shape())
        self.scratch = np.empty(grid.shape())
        self.base = [None, None]
        self.coef = [None, None]

    def component(self, i: int):
        """(``base[i]``, ``coef[i]``), made on the first call for component i."""
        if self.base[i] is None:
            self.base[i] = np.empty_like(self.hat)
            self.coef[i] = [np.empty(self.hat.shape) for _ in GAUSS_X]
        return self.base[i], self.coef[i]

    @property
    def symmetric(self) -> bool:
        """Both components share alpha, beta, rho and sigma exactly."""
        p = self.config.params
        return all(v[0] == v[1] for v in (p.alpha, p.beta, p.rho, p.sigma))

    def multiplier(self, i: int, tau: float, out: np.ndarray) -> np.ndarray:
        """exp(-tau |xi|^alpha_i), written into ``out``."""
        out = np.multiply(self.symb[i], -tau, out=out)
        return np.exp(out, out=out)


def _clamp(values: np.ndarray, weights: Optional[np.ndarray] = None):
    """Negative values set to zero in place; returns (values, how many grid
    points were negative), each sample counting ``weights`` points if given."""
    mn = float(values.min())
    if mn >= 0.0:
        return values, 0
    negative = values < 0.0
    count = int(np.count_nonzero(negative) if weights is None else weights[negative].sum())
    np.maximum(values, 0.0, out=values)
    return values, count


def step(pair: FieldPair, t_next: float, plan: _Plan):
    """Advance both components from pair.time to t_next by Picard iteration
    of the local integral form.

    The coupling integral uses 2-point Gauss quadrature in the graded
    variable tau = s^(1/gamma), gamma the plan's grading; the integrand
    value of the other component at interior quadrature times is
    interpolated linearly in tau between the cell endpoints, with weights
    in (0, 1), so from nonnegative fields (clamped by a step or checked by
    :func:`make_initial_data`) it needs no clamp.  Propagation is a linear
    Fourier multiplier, so the node terms are weighted, masked by the
    two-thirds rule, propagated to t_next and summed in Fourier space, and
    each component takes one inverse transform per iteration (exponential
    quadrature).

    Each iterate is the inverse of its spectrum: the propagated start
    spectrum ``base`` plus the coupling terms, summed in the step's own
    spectrum per component, which no inverse writes into.  The returned
    pair carries that of the last iterate per component as its
    ``spectra``, unless the clamp touched the field (then None).  A step
    starts from ``pair.spectra`` where they are given and transforms the
    other start fields.

    The fields live on the plan's grid view, the full grid or its
    :class:`EvenGrid`, whose clamp counts take the multiplicity weights.
    Every pass writes into the plan's workspace (see :class:`_Plan`), made
    for a component on the first step that computes it: an aliased pair
    never makes component 1's, and an unaliased pair may go to any plan.
    The start field is transformed straight into its ``base`` buffer and
    multiplied there by the cell's propagator, which the first node
    coefficient holds until its node overwrites it.  The
    transforms fill given arrays axis by axis, interpolation and powers run
    in place, and each iterate is inverted straight into its output field.
    The only fresh arrays are two output field sets and one spectrum per
    computed component each step, and on the full grid in d >= 2 the
    out-of-place first pass of each inverse, so the returned fields and
    spectra never alias the plan and stay valid after later steps.  Both
    are read-only, so a carried spectrum always describes its field.  Clamped fields are
    nonnegative, so one ``max`` per component gives the peak, the scale of
    the change and, as it propagates NaN, the finiteness check.  Raises
    :class:`Divergence` on overflow and :class:`StepRejected` when the
    iteration does not settle.

    When the plan is symmetric and ``pair.u1 is pair.u2``, the two
    components solve the same equation from the same data, so only the
    first is computed and the returned pair is aliased the same way, as are
    its spectra; its clamped values count twice, as if both had been
    clamped.  The fields and diagnostics are bitwise those of the unaliased
    pair.  ``step`` never writes into its input.
    """
    params = plan.config.params
    t_cur = pair.time
    if not t_next > t_cur:
        raise ValueError("t_next must exceed the current time")
    gamma = plan.grading
    tau_a, tau_b = t_cur ** (1.0 / gamma), t_next ** (1.0 / gamma)
    half = 0.5 * (tau_b - tau_a)
    tau_q = 0.5 * (tau_a + tau_b) + half * GAUSS_X
    s_q = tau_q**gamma
    theta_q = (tau_q - tau_a) / (tau_b - tau_a)
    jac_q = half * gamma * tau_q ** (gamma - 1.0)

    cur, spectra = pair.components(), pair.spectra
    shared = plan.symmetric and pair.u1 is pair.u2
    comps = (0,) if shared else (0, 1)
    grid, hat, work, scratch = plan.grid, plan.hat, plan.work, plan.scratch
    base, coef = [None, None], [None, None]
    # coef[i][q] = propagator from s_q to t_next x weight x two-thirds mask
    for i in comps:
        base[i], coef[i] = plan.component(i)
        rho_i = params.rho[i]
        cell = plan.multiplier(i, t_next**rho_i - t_cur**rho_i, out=coef[i][0])
        if spectra[i] is None:
            grid.forward(cur[i], base[i])
            base[i] *= cell
        else:
            np.multiply(spectra[i], cell, out=base[i])
        weights = jac_q * s_q ** params.sigma[i]
        for q, s in enumerate(s_q):
            mult = plan.multiplier(i, t_next**rho_i - s**rho_i, out=coef[i][q])
            mult *= weights[q]
            mult *= plan.mask

    v = [np.empty(grid.shape()) for _ in comps]
    new = [np.empty_like(u) for u in v]
    spec = [np.empty_like(hat) for _ in comps]
    # a shared component's clamped values stand for both components
    clamp_weight = 2 if shared else 1
    clamped = 0
    for i in comps:
        # the first iterate is the propagated start field
        clamped += clamp_weight * _clamp(grid.inverse(base[i], v[i]), grid.weights)[1]
    if shared:
        v.append(v[0])
        new.append(new[0])
        spec.append(spec[0])

    changes = []
    iterations = 0
    carried = [None, None]
    for _ in range(PICARD_MAX_ITER):
        iterations += 1
        for i in comps:
            j = 1 - i
            for q in range(s_q.size):
                np.multiply(cur[j], 1.0 - theta_q[q], out=work)
                work += np.multiply(v[j], theta_q[q], out=scratch)
                spectrum = grid.forward(_power(work, params.beta[i], scratch),
                                        spec[i] if q == 0 else hat)
                spectrum *= coef[i][q]
                if q > 0:
                    spec[i] += spectrum
            spec[i] += base[i]
            grid.inverse(spec[i], new[i])
            count = _clamp(new[i], grid.weights)[1]
            carried[i] = None if count else spec[i]
            clamped += clamp_weight * count

        peaks = [float(new[i].max(initial=0.0)) for i in comps]
        if not all(peak <= DIVERGENCE_LIMIT for peak in peaks):
            raise Divergence(t_next)
        diff = 0.0
        for i in comps:
            np.subtract(new[i], v[i], out=work)
            d = float(np.abs(work, out=work).max(initial=0.0))
            diff = max(diff, d / peaks[i] if peaks[i] > 0.0 else d)
        changes.append(diff)
        v, new = new, v
        if diff < PICARD_TOL:
            break
    else:
        raise StepRejected(t_next, changes[-1])

    # read-only, so that a carried spectrum always describes its field
    for i in comps:
        v[i].flags.writeable = spec[i].flags.writeable = False
    if shared:
        carried[1] = carried[0]
    return FieldPair(v[0], v[1], t_next, tuple(carried)), StepDiagnostics(iterations, changes, clamped)


def _grid_norms(values: np.ndarray, grid, order: Optional[float], buf: np.ndarray):
    """(sup norm, L^order norm or NaN, mass) of ``values`` on the grid view
    ``grid``; ``buf`` is field-shaped scratch, which the weighted sums also use."""
    mass = grid_mass(values, grid, out=buf)
    np.abs(values, out=buf)
    linf = float(buf.max(initial=0.0))
    if order is None:
        return linf, math.nan, mass
    total = grid_mass(np.power(buf, order, out=buf), grid, out=buf)
    if total < np.finfo(float).tiny and linf > 0.0:
        # u^s underflowed: scale by the peak (only here, so other runs keep their bytes)
        np.divide(np.abs(values, out=buf), linf, out=buf)
        total = grid_mass(np.power(buf, order, out=buf), grid, out=buf)
        return linf, linf * total ** (1.0 / order), mass
    return linf, total ** (1.0 / order), mass


def solve(config: RunConfig, exponents=None) -> SolveResult:
    """March the graded mesh, recording norms at every node and field
    snapshots every ``snapshot_stride`` nodes (first and last included).

    ``exponents`` is an ExponentReport; when given (and carrying norm
    orders, so ``exponents.s`` is not None) the ls and scaled columns use
    its s_i and xi_i, otherwise those columns stay blank.

    A run in d >= 2 from radial data (``stable_kernel`` or ``gaussian``)
    marches on the :class:`EvenGrid` of its grid, and its initial fields
    are made there: every operator of the system commutes with
    x_a -> -x_a, so the solution stays even.  Norms and clamp counts take
    the view's multiplicity weights.  ``from_file`` data need not be even,
    and in 1-D a DCT-I on n/2 + 1 points costs what an rfft on n does, so
    those runs take the full grid.  Each step starts from the pair the last
    one returned, and so from its spectra (see :func:`step`).  The
    snapshots hold the step results' arrays, without their spectra, on the
    view ``result.grid``; ``result.grid.expand`` gives a full-grid field,
    as :func:`write_snapshot` writes it.

    A symmetric run, where both components share alpha, beta, rho, sigma
    and byte-equal initial fields, computes one component: every snapshot
    then has ``u1 is u2``, and its norms are taken once when the norm
    orders agree.  Snapshots are read-only.
    """
    orders, xi = (None, None), None
    if exponents is not None and exponents.s is not None:
        orders, xi = exponents.s, exponents.xi

    view = config.grid
    if view.dim >= 2 and config.init.kind in RADIAL_KINDS:
        view = EvenGrid(view)
        log.info("even quarter grid %s: %s data are radial",
                 "x".join(map(str, view.shape())), config.init.kind)
    else:
        log.info("full grid: %s", "1-D run" if view.dim == 1 else "from_file data")
    pair = make_initial_data(config.init, view, config.params)
    plan = _Plan(config, view)
    nodes = config.mesh.nodes(plan.grading)
    n_nodes = nodes.size
    # bytes, not values: -0.0 == 0.0 would alias fields that differ
    if plan.symmetric and pair.u1.tobytes() == pair.u2.tobytes():
        pair = FieldPair(pair.u1, pair.u1, pair.time)
    # step results are read-only already
    for u in pair.components():
        u.flags.writeable = False

    t_arr = np.full(n_nodes, math.nan)
    linf = np.full((n_nodes, 2), math.nan)
    ls = np.full((n_nodes, 2), math.nan)
    scaled = np.full((n_nodes, 2), math.nan)
    mass = np.full((n_nodes, 2), math.nan)
    iters = np.zeros(n_nodes, dtype=int)

    snapshots = []
    total_clamped = 0

    def record(k, fp, n_iter):
        t_arr[k] = fp.time
        iters[k] = n_iter
        for i in (0, 1):
            if i == 0 or fp.u2 is not fp.u1 or orders[1] != orders[0]:
                # the plan's scratch field is free between steps
                li, lsi, mi = _grid_norms(fp.components()[i], view, orders[i], plan.work)
            linf[k, i] = li
            ls[k, i] = lsi
            mass[k, i] = mi
            scaled[k, i] = math.nan if xi is None else fp.time ** xi[i] * lsi

    record(0, pair, 0)
    snapshots.append(pair)
    status = SolveStatus("completed", float(nodes[-1]))
    recorded = 1

    for k in range(1, n_nodes):
        try:
            pair, diag = step(pair, float(nodes[k]), plan)
        except Divergence as exc:
            status = SolveStatus("diverged", exc.time)
            log.warning("divergence signal at t=%.6g", exc.time)
            break
        except StepRejected as exc:
            status = SolveStatus("step_rejected", exc.time)
            log.warning("step rejected at t=%.6g (last change %.3e)", exc.time, exc.diff)
            break
        total_clamped += diag.clamped
        record(k, pair, diag.iterations)
        recorded = k + 1
        if k % config.snapshot_stride == 0 or k == n_nodes - 1:
            # a kept spectrum would only hold memory
            snapshots.append(replace(pair, spectra=(None, None)))

    norms = NormSeries(t=t_arr[:recorded], linf=linf[:recorded], ls=ls[:recorded],
                       scaled=scaled[:recorded], mass=mass[:recorded],
                       picard_iters=iters[:recorded])
    tail_budget = max(
        tail_mass_bound(KernelSpec(config.params.alpha[i], config.grid.dim),
                        max(config.mesh.horizon ** config.params.rho[i], 1e-300),
                        config.grid.half_length)
        for i in (0, 1))
    diagnostics = {
        "clamped_values": total_clamped,
        "tail_mass_budget": tail_budget,
        "recommended_half_length": recommended_half_length(config.params, config.mesh.horizon),
    }
    return SolveResult(snapshots=snapshots, grid=view, norms=norms, status=status,
                       diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# run files, each written by write_artifact.  A snapshot is little-endian:
# the 96-byte _HEADER, then u1 and u2 as float64 on the full grid.

_HEADER = struct.Struct("<4sIIIdd8d")   # magic, version, dim, n, L, t, alpha, beta, rho, sigma


def write_artifact(path, chunks) -> str:
    """Write the bytes-like ``chunks`` to ``path`` in order; returns the
    file's SHA-256 (hex), taken from the bytes as they are written, so the
    file is never read back."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def write_snapshot(path, pair: FieldPair, grid, params: SystemParams) -> str:
    """Write ``pair``, sampled on the grid view ``grid``, as a snapshot file
    of the full grid: the fields ``grid.expand(u)`` (an aliased pair is
    expanded once) under a header of the view's dim, n and half-length.
    Returns the file's SHA-256 (hex) from :func:`write_artifact`."""
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.dim, grid.n, grid.half_length,
                          pair.time, *params.alpha, *params.beta, *params.rho, *params.sigma)
    u1 = grid.expand(pair.u1)
    u2 = u1 if pair.u2 is pair.u1 else grid.expand(pair.u2)
    return write_artifact(path, [header] + [memoryview(np.ascontiguousarray(u, dtype="<f8")).cast("B")
                                            for u in (u1, u2)])


def read_snapshot(path):
    """The (FieldPair, SpectralGrid, SystemParams) of a snapshot file; a file
    that is not a valid snapshot raises SnapshotFormatError."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated snapshot")
    magic, version, dim, n, half_length, time, *pvals = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    # the grid checks dim and n before n**dim is formed from them
    try:
        grid = SpectralGrid(dim, n, half_length)
        params = SystemParams(*zip(pvals[::2], pvals[1::2]), dim)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: bad header: {exc}") from None
    expected = _HEADER.size + 2 * n**dim * 8
    if len(raw) != expected:
        raise SnapshotFormatError(f"{path}: expected {expected} bytes, got {len(raw)}")
    u1, u2 = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape((2, *grid.shape())).copy()
    return FieldPair(u1, u2, time), grid, params
