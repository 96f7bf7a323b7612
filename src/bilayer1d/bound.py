"""Bound-state ladders of the two-layer structure.

Every bound level kappa lies in (0, sqrt(-V_well)) for the deeper
attractive layer.  Substituting

    chi = l * sqrt(-V_well - kappa^2),    rho = l * sqrt(-V_well),

with l the width of that layer maps the levels to roots of
tan(chi) = y(chi) on the bounded interval (0, rho), where y is a ratio
of three coefficient functions C0, C1, C2 collecting the influence of
the other layer and of the gap.  Root finding happens on the cleared
form

    h(chi) = sin(chi) * (chi*C1 - C2/chi) - cos(chi) * C0,

which shares its zero set with tan(chi) - y(chi) and is continuous
except at poles of the cross-layer tangent factor.  Those pole abscissae
solve a quadratic and are used as scan-segment boundaries.  Every root
candidate is accepted only if the independent pole-free residual from
the total propagator vanishes there, which weeds out the measure-zero
coincidences where the cleared form has a spurious zero.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.optimize import brentq

from .core import validate_spec
from .kernels import _finite_scalar, tanc_sqrt, tanhc
from .xfer import _level_condition


def _plain(out):
    """A 0-d result as a Python float; arrays pass through."""
    return out if getattr(out, "ndim", 0) else float(out)


@dataclass(frozen=True)
class ChiProblem:
    """Compactified root problem for one choice of reference well.

    branch 1 takes layer 1 as the reference well, branch 2 layer 2.
    ratio is (other width)/(reference width), vshift = V_other * l^2,
    r_over_l = r / l.
    """

    spec: object
    branch: int
    rho: float
    l: float
    ratio: float
    vshift: float
    r_over_l: float

    def s(self, chi):
        """sqrt(rho^2 - chi^2) = kappa * l, evaluated stably near rho."""
        return _plain(self._evaluate(lambda chi, s: s, chi))

    def kappa_of_chi(self, chi):
        return self.s(chi) / self.l

    def _evaluate(self, formula, chi):
        """formula(chi, s), in plain floats for a finite scalar chi with
        chi > 0 and s > 0, where no divisor of the root equation
        vanishes; otherwise over a float array, where a zero divisor
        gives inf or NaN."""
        x = _finite_scalar(chi)
        if x is not None and x > 0.0:
            s2 = (self.rho - x) * (self.rho + x)
            if s2 > 0.0:
                return formula(x, math.sqrt(s2))
        chi = np.asarray(chi, dtype=float)
        s = np.sqrt(np.maximum((self.rho - chi) * (self.rho + chi), 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            return formula(chi, s)

    def _coefficients(self, chi, s):
        u = chi * chi - self.rho * self.rho - self.vshift
        ubar = u * self.ratio * self.ratio
        t = self.ratio * tanc_sqrt(ubar)  # tan(zbar)/z, branch free
        z = s * self.r_over_l
        t0 = np.tanh(z)
        c0 = 2.0 + (s - u / s) * t
        # t0/s^2 written through tanh(z)/z to stay finite as s -> 0
        c1 = 1.0 / s + (t - u * t * self.r_over_l * tanhc(z) / s) / (1.0 + t0)
        c2 = s - t * (u - s * s * t0) / (1.0 + t0)
        return c0, c1, c2

    def _denominator(self, chi, s):
        _, c1, c2 = self._coefficients(chi, s)
        return chi * c1 - c2 / chi

    def _cleared(self, chi, s):
        c0, c1, c2 = self._coefficients(chi, s)
        return np.sin(chi) * (chi * c1 - c2 / chi) - np.cos(chi) * c0

    def coefficients(self, chi):
        """C0, C1, C2 of the root equation, vectorized over chi."""
        return self._evaluate(self._coefficients, chi)

    def denominator(self, chi):
        return _plain(self._evaluate(self._denominator, chi))

    def cleared(self, chi):
        """h(chi); zero exactly at the bound levels (plus rare
        simultaneous-zero coincidences removed by the residual filter)."""
        return _plain(self._evaluate(self._cleared, chi))

    def tangent_pole_abscissae(self):
        """chi values in (0, rho) where the cross-layer tangent blows up.

        They satisfy ratio^2 * (chi^2 - rho^2 - vshift) = ((n+1/2)*pi)^2,
        solvable in closed form; present only when the other layer is
        also attractive (vshift < 0).
        """
        if self.ratio == 0.0 or self.vshift >= 0.0:
            return np.array([])
        out = []
        n = 0
        while True:
            val = ((n + 0.5) * np.pi / self.ratio) ** 2
            chi2 = self.rho * self.rho + self.vshift + val
            if chi2 >= self.rho * self.rho:
                break
            if chi2 > 0.0:
                out.append(np.sqrt(chi2))
            n += 1
        return np.array(out)


def build_chi_problem(spec, branch=None):
    """Choose the reference well (deeper layer by default) and set up
    the compactified problem.  Raises if no layer is attractive."""
    validate_spec(spec)
    if branch is None:
        if spec.v1 < 0 and (spec.v2 >= 0 or spec.v1 <= spec.v2):
            branch = 1
        elif spec.v2 < 0:
            branch = 2
        else:
            raise ValueError("no attractive layer, bound sector is empty")
    if branch == 1:
        if spec.v1 >= 0:
            raise ValueError("branch 1 requires an attractive first layer")
        l, vref, lother, vother = spec.l1, spec.v1, spec.l2, spec.v2
    elif branch == 2:
        if spec.v2 >= 0:
            raise ValueError("branch 2 requires an attractive second layer")
        l, vref, lother, vother = spec.l2, spec.v2, spec.l1, spec.v1
    else:
        raise ValueError(f"branch must be 1 or 2, got {branch!r}")
    if l == 0.0:
        return ChiProblem(spec, branch, 0.0, 0.0, 0.0, 0.0, 0.0)
    return ChiProblem(
        spec,
        branch,
        rho=math.sqrt(-vref) * l,
        l=l,
        ratio=lother / l,
        vshift=vother * l * l,
        r_over_l=spec.r / l,
    )


@dataclass(frozen=True)
class BoundLadder:
    """Roots chi_1 > ... > chi_N and the levels kappa_1 < ... < kappa_N."""

    chis: np.ndarray
    kappas: np.ndarray
    rho: float
    l: float
    branch: int

    @property
    def n(self):
        return len(self.kappas)


def _sign_cells(vals):
    """Indices i of the cells (i, i + 1) of a sampled function where it
    changes sign between finite values."""
    good = np.isfinite(vals)
    return np.flatnonzero(good[:-1] & good[1:] & (vals[:-1] * vals[1:] < 0.0))


def _sign_roots(f, grid, xtol):
    """Brent-refined zeros of f in each cell of grid where f changes sign
    between finite values."""
    return [brentq(f, grid[i], grid[i + 1], xtol=xtol) for i in _sign_cells(f(grid))]


def _segment_roots(problem, f, edge, pad, samples, xtol, tails=False):
    """Zeros of f on (edge, 1 - edge) * rho, scanned piece by piece
    between the tangent-pole cuts, with pad kept clear of every cut.

    tails adds geometric clusters approaching both ends of each piece:
    roots can hug a segment endpoint (a pole or the rho edge) at relative
    distances far below any affordable uniform spacing.
    """
    rho = problem.rho
    lo, hi = rho * edge, rho * (1.0 - edge)
    cuts = problem.tangent_pole_abscissae()
    edges = np.concatenate(([lo], cuts[(cuts > lo) & (cuts < hi)], [hi]))
    roots = []
    for a, b in zip(edges[:-1], edges[1:]):
        a, b = a + pad, b - pad
        if b <= a:
            continue
        grid = np.linspace(a, b, max(64, int(samples * (b - a) / rho)))
        if tails:
            steps = (b - a) * np.power(10.0, -np.arange(2.0, 14.0))
            grid = np.unique(np.concatenate((grid, a + steps, b - steps)))
        roots += _sign_roots(f, grid, xtol)
    return sorted(roots)


def find_roots(problem, samples=None, accept_tol=1e-6):
    """All roots of the compactified equation, refined to ~1e-15 * rho.

    The interval (0, rho) is cut at the closed-form tangent-pole
    abscissae; within each piece h(chi) is continuous, so a fine sign
    scan plus Brent refinement finds the crossings.  Candidates must
    also zero the independent propagator residual (scaled tolerance
    accept_tol) before they are accepted.
    """
    rho = problem.rho
    if rho <= 0.0 or problem.l == 0.0:
        empty = np.array([])
        return BoundLadder(empty, empty, rho, problem.l, problem.branch)
    if samples is None:
        waves = rho / np.pi
        cross = problem.ratio * np.sqrt(max(0.0, -problem.vshift)) / np.pi
        samples = max(2048, 256 * int(np.ceil(waves + cross + 1.0)))
    xtol = 1e-15 * rho
    roots = _segment_roots(
        problem, problem.cleared, 1e-12, 2.0 * xtol, samples, xtol, tails=True
    )
    accepted = []
    for chi in roots:
        if accepted and chi - accepted[-1] < 4.0 * xtol:
            continue
        kappa = problem.kappa_of_chi(chi)
        if kappa <= 0.0:
            continue
        res, scale = _level_condition(problem.spec, kappa)
        if abs(res) <= accept_tol * scale:
            accepted.append(chi)
    chis = np.array(accepted)[::-1]
    return BoundLadder(
        chis,
        problem.kappa_of_chi(chis) if len(chis) else np.array([]),
        rho,
        problem.l,
        problem.branch,
    )


def poles_of_y(problem, samples=4096):
    """Infinite-discontinuity points of y(chi): zeros of its denominator.

    Scanned piecewise between the tangent-pole cuts where the
    denominator is continuous, then refined.
    """
    rho = problem.rho
    if rho <= 0.0:
        return np.array([])
    f = problem.denominator
    return np.array(_segment_roots(problem, f, 1e-9, rho * 1e-11, samples, 1e-11 * rho))


# ---------------------------------------------------------------------------
# verification against the uncompactified level condition


def _direct_condition(spec, kappa):
    """Value and scale of the direct level condition built from the two
    layer tangents and tanh(kappa * r); has poles at the tangent poles."""
    kappa = np.asarray(kappa, dtype=float)
    k2 = -kappa * kappa
    q1 = k2 - spec.v1
    q2 = k2 - spec.v2
    t1 = spec.l1 * tanc_sqrt(q1 * spec.l1 * spec.l1)  # tan(k1 l1)/k1
    t2 = spec.l2 * tanc_sqrt(q2 * spec.l2 * spec.l2)
    t0 = np.tanh(kappa * spec.r)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (
            2.0 * (1.0 + t0),
            (kappa - q1 / kappa) * t1 * (1.0 + t0),
            (kappa - q2 / kappa) * t2 * (1.0 + t0),
            t1 * t2 * (kappa * kappa + q1 * q2 / (kappa * kappa)) * t0,
            -t1 * t2 * (q1 + q2),
        )
    value = sum(terms)
    scale = sum(np.abs(t) for t in terms)
    return value, np.maximum(scale, 1.0)


@dataclass(frozen=True)
class LadderReport:
    ok: bool
    residuals: np.ndarray
    missed: np.ndarray

    def __bool__(self):
        return self.ok


def verify_ladder(spec, ladder, f_tol=1e-8, grid=None):
    """Check a ladder against the direct level condition.

    Each kappa_i must zero the direct condition to f_tol (scaled), and a
    fine sign scan of the pole-free propagator residual over the whole
    admissible interval must produce no level absent from the ladder: a
    level found at kappa is missed unless some kappa_i lies within
    1e-8 * max(1, kappa) of it.

    A scan cell (a, b) where the residual changes sign and that holds a
    ladder level K is certified without refinement when the residual also
    changes sign on [K - d, K + d] within the cell, d = 5e-9 * max(1, K),
    since a root there passes the distance test.  The window ends of all
    such cells are evaluated in one array call; only the cells left
    uncertified are refined by Brent's method, and their roots are the
    candidates for missed levels.  For a cell holding one root this is the
    verdict refinement alone would give.  A cell holding three roots shows
    one sign change, so the scan can overlook levels there either way.
    """
    if ladder.n:
        value, scale = _direct_condition(spec, ladder.kappas)
        residuals = np.abs(value) / scale
    else:
        residuals = np.array([])
    kmax = np.sqrt(max(-spec.v1, -spec.v2, 0.0))
    missed = []
    if kmax > 0.0:
        if grid is None:
            grid = max(4096, 512 * (int(ladder.rho / np.pi) + 1))
        ks = np.linspace(kmax * 1e-9, kmax * (1.0 - 1e-12), grid)

        def f(k):
            return _level_condition(spec, k)[0]

        cells = _sign_cells(f(ks))
        if ladder.n and len(cells):
            cells = cells[~_certified(f, ks, cells, np.sort(ladder.kappas))]
        for i in cells:
            kappa = brentq(f, ks[i], ks[i + 1], xtol=1e-12 * kmax)
            if ladder.n:
                dist = np.min(np.abs(ladder.kappas - kappa))
            else:
                dist = np.inf
            if dist > 1e-8 * max(1.0, kappa):
                missed.append(kappa)
    missed = np.array(missed)
    ok = bool(
        (not len(residuals) or residuals.max() < f_tol) and not len(missed)
    )
    return LadderReport(ok, residuals, missed)


def _certified(f, ks, cells, levels):
    """Mask over the sign-change cells of the grid ks: True where the
    first of the ascending levels K in the cell has f change sign within
    5e-9 * max(1, K) of K, inside the cell."""
    a, b = ks[cells], ks[cells + 1]
    first = np.searchsorted(levels, a)
    inside = first < len(levels)
    level = levels[np.minimum(first, len(levels) - 1)]
    inside &= level <= b
    level = level[inside]
    half = 5e-9 * np.maximum(1.0, level)
    ends = f(np.concatenate((np.maximum(a[inside], level - half),
                             np.minimum(b[inside], level + half))))
    lo, hi = np.split(ends, 2)
    certified = np.zeros(len(cells), dtype=bool)
    certified[inside] = np.isfinite(lo) & np.isfinite(hi) & (lo * hi < 0.0)
    return certified
