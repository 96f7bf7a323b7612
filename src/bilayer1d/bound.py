"""Bound-state ladders of the two-layer structure.

Levels are counted by Sturm's oscillation theorem on the three constant
pieces, the setting of Pruess & Fulton (ACM TOMS 19, 360, 1993) and
Pryce (Numerical Solution of Sturm-Liouville Problems, OUP 1993).  At
energy -kappa^2, _phase matches in the layer with the larger phase w * l,
where w^2 = -V - kappa^2; the mirrored structure (v2, l2, v1, l1, r) has
the same levels, so that layer is taken as the second.  In plain floats
from the spec's five numbers, it carries the solution that decays on the
left through the first layer and the gap to the right end of the second,
where the one that decays on the right is the bare tail.  The Pruefer
phase G(kappa) of the first against the second is continuous and
decreasing; the count of levels with decay rate at least kappa is
N = floor(G / pi) + 1, and the levels are where G = j * pi.  Matching
inside the most oscillating piece, not beyond a barrier or in a thin
layer, keeps G nearly linear and well conditioned, so Brent's method
needs few steps.  find_roots bisects N until each interval holds one
level and refines it on G - j * pi, with a Brent that starts from the G
values the bisection has at the interval's ends; verify_ladder certifies
a ladder by counts and the direct level condition, in plain floats too,
so the ladder path calls no kernel.

The paper's compactified problem stays as ChiProblem.  With the deeper
attractive layer of width l as reference well, chi = l sqrt(-V - kappa^2)
maps the levels to the roots of tan(chi) = y(chi) on (0, rho),
rho = l sqrt(-V), where y is a ratio of coefficient functions C0, C1, C2
collecting the other layer and the gap.  Its cleared form

    h(chi) = sin(chi) * (chi*C1 - C2/chi) - cos(chi) * C0

vanishes at the levels.  Nothing in the library calls it or tanc_sqrt;
it stays as the tests' cross-check of the counted ladder, and because the
benchmark's tracer wraps it.  BoundLadder holds each level's kappa and chi.
"""

from dataclasses import dataclass
import math

import numpy as np

from .kernels import tanc_sqrt


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

    def _coefficients(self, chi, s):
        u = chi * chi - self.rho * self.rho - self.vshift
        ubar = u * self.ratio * self.ratio
        t = self.ratio * tanc_sqrt(ubar)  # tan(zbar)/z, branch free
        z = s * self.r_over_l
        t0 = np.tanh(z)
        c0 = 2.0 + (s - u / s) * t
        # t0/s^2 written through tanh(z)/z to stay finite as s -> 0
        c1 = 1.0 / s + (t - u * t * self.r_over_l * tanc_sqrt(-z * z) / s) / (1.0 + t0)
        c2 = s - t * (u - s * s * t0) / (1.0 + t0)
        return c0, c1, c2

    def cleared(self, chi):
        """h(chi) over chi, a Python float for a scalar; zero at the bound
        levels, and at rare points where the cleared factors vanish
        together.  s = sqrt(rho^2 - chi^2) clamps to 0 where |chi| >= rho,
        and a zero divisor gives inf or NaN without a warning."""
        chi = np.asarray(chi, dtype=float)
        s = np.sqrt(np.maximum((self.rho - chi) * (self.rho + chi), 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            c0, c1, c2 = self._coefficients(chi, s)
            out = np.sin(chi) * (chi * c1 - c2 / chi) - np.cos(chi) * c0
        return out if out.ndim else float(out)


def build_chi_problem(spec, branch=None):
    """Choose the reference well and set up the compactified problem.

    By default the reference is the deeper attractive layer of nonzero
    width (layer 1 on a tie); only when every attractive layer has zero
    width is one of those taken.  Raises if no layer is attractive.
    """
    if branch is None:
        wells = [(l == 0.0, v, b) for b, v, l in ((1, spec.v1, spec.l1), (2, spec.v2, spec.l2))
                 if v < 0]
        if not wells:
            raise ValueError("no attractive layer, bound sector is empty")
        branch = min(wells)[2]
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


def _carry(q, l, psi, dpsi):
    """(psi, psi') carried a distance l through a piece where
    psi'' = q * psi with q >= 0, divided by cosh(sqrt(q) * l) so that it
    cannot overflow.  1 - tanh(x) is written as 2 e^{-2x} / (1 + e^{-2x}),
    which keeps the decaying part of the solution across a wide barrier."""
    if q == 0.0:
        return psi + dpsi * l, dpsi
    w = math.sqrt(q)
    p = dpsi / w
    e = math.exp(-2.0 * w * l)
    grow = (psi + p) * math.tanh(w * l)
    rest = 2.0 * e / (1.0 + e)
    return grow + psi * rest, (grow + p * rest) * w


def _params(spec):
    """The five floats (v1, l1, v2, l2, r) that _phase reads."""
    return float(spec.v1), float(spec.l1), float(spec.v2), float(spec.l2), float(spec.r)


def _phase(p, kappa):
    """G(kappa) of the module docstring for kappa >= 0 and p = _params(spec),
    matched in the layer with the larger phase (mirrored if that is layer 1);
    -pi/2 where no piece oscillates, as no level lies deeper there."""
    v1, l1, v2, l2, r = p
    k2 = kappa * kappa
    # psi'' = q psi in each piece; the gap, q = k2, never oscillates
    q1, q2 = v1 + k2, v2 + k2
    # the mirrored structure has the same levels: match in the layer with
    # the larger phase w * l, which is layer 2 after the swap
    if q1 * l1 * l1 < q2 * l2 * l2:
        q1, l1, q2, l2 = q2, l2, q1, l1
    if not q2 < 0.0 < l2:
        return -0.5 * math.pi
    # the solution decaying on the left, through layer 1 and the gap
    psi, dpsi, zeros = 1.0, kappa, 0
    if q1 < 0.0 < l1:
        w = math.sqrt(-q1)
        angle = math.atan2(psi, dpsi / w)
        zeros += math.floor((angle + w * l1) / math.pi) - math.floor(angle / math.pi)
        c, s = math.cos(w * l1), math.sin(w * l1)
        psi, dpsi = psi * c + dpsi / w * s, dpsi * c - psi * w * s
    elif l1 > 0.0:
        new, dpsi = _carry(q1, l1, psi, dpsi)
        zeros += new * psi < 0.0
        psi = new
    if r > 0.0:
        new, dpsi = _carry(k2, r, psi, dpsi)
        zeros += new * psi < 0.0
        psi = new
    w = math.sqrt(-q2)
    # psi has the sign (-1)^zeros, so this angle lies in [0, pi]; the
    # solution decaying on the right is the bare tail (1, -kappa) there
    angle = math.atan2(psi, dpsi / w)
    if angle < 0.0:
        angle += math.pi
    return zeros * math.pi + angle + w * l2 - math.atan2(1.0, -kappa / w)


def _count(kappa, g):
    """N(kappa), the number of levels with decay rate at least kappa, from
    g = G(kappa).  At kappa = 0 a zero-energy state, G = j * pi, is a
    threshold resonance and not a level, so N(0) counts the levels with
    kappa > 0.
    """
    g /= math.pi
    return math.ceil(g) if kappa == 0.0 else math.floor(g) + 1


def brentq(f, a, fa, b, fb):
    """The root of f in [a, b] by Brent's method, from fa = f(a), fb = f(b).

    A line-for-line port of scipy's brentq.c (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973) at xtol = 1e-300, rtol = 1e-15
    and 100 iterations, root for root, with its checks: a zero end is
    returned, ends of one sign raise ValueError.  It lives here to start
    from the end values the count bisection already has, which scipy would
    compute again; the benchmark's tracer counts refinements by its name.
    """
    xpre, fpre, xcur, fcur = a, fa, b, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (1e-300 + 1e-15 * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"failed to converge after 100 iterations, value is {xcur!r}")


def _levels(p, lo, hi):
    """The levels with decay rate in [lo, hi), ascending, as a list.

    N is bisected until each interval holds one level, which Brent's
    method refines on G - j * pi to a relative 1e-15, so that a level
    near threshold keeps its digits; it starts from the G values the
    bisection has at the interval's ends.  Levels closer than the float
    spacing of their decay rate are returned as equal values.
    """
    levels = []
    glo, ghi = _phase(p, lo), _phase(p, hi)
    stack = [(lo, glo, _count(lo, glo), hi, ghi, _count(hi, ghi))]
    while stack:
        a, ga, na, b, gb, nb = stack.pop()
        if na - nb == 1:
            j = nb * math.pi
            levels.append(brentq(lambda k: _phase(p, k) - j, a, ga - j, b, gb - j))
        elif na > nb:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                levels += [mid] * (na - nb)
                continue
            gmid = _phase(p, mid)
            nmid = _count(mid, gmid)
            stack += [(mid, gmid, nmid, b, gb, nb), (a, ga, na, mid, gmid, nmid)]
    return levels


def find_roots(problem):
    """The levels of the problem's reference well, kappa in (0, rho / l).

    Counts of the oscillation theorem bracket each level and Brent's
    method refines it on the phase G (see the module docstring); chi
    follows from kappa in closed form.  The levels of a deeper other
    layer, below -V_well, are not part of the ladder.
    """
    rho, l = problem.rho, problem.l
    p = _params(problem.spec)
    kappas = _levels(p, 0.0, rho / l) if rho > 0.0 and l > 0.0 else []
    chis = [math.sqrt(max((rho - k * l) * (rho + k * l), 0.0)) for k in kappas]
    return BoundLadder(np.array(chis), np.array(kappas), rho, l, problem.branch)


# ---------------------------------------------------------------------------
# verification against the uncompactified level condition


def _tanc(q, l):
    """tan(w * l) / w for w^2 = q, continued to tanh(w * l) / w for q < 0,
    with s = w * l formed as sqrt(q * l^2), as tanc_sqrt forms it; l where
    s = 0 and for a NaN q, whose terms are NaN anyway."""
    s = math.sqrt(abs(q * l * l))
    return l * ((math.tan(s) if q > 0.0 else math.tanh(s)) / s) if s > 0.0 else l


def _direct_condition(p, kappa):
    """Scaled residual of the direct level condition at one kappa != 0, in
    plain floats from the two layer tangents and tanh(kappa * r), for
    p = _params(spec).  The scale counts kappa - q / kappa by its parts: on
    a tangent pole it can vanish, and its term is 0 * inf."""
    v1, l1, v2, l2, r = p
    k2 = kappa * kappa
    q1, q2 = -k2 - v1, -k2 - v2
    t1, t2 = _tanc(q1, l1), _tanc(q2, l2)
    t0 = math.tanh(kappa * r)
    right, r1, r2 = 1.0 + t0, q1 / kappa, q2 / kappa
    pole1, pole2 = t1 * right, t2 * right
    terms = (2.0 * right, (kappa - r1) * pole1, (kappa - r2) * pole2,
             t1 * t2 * (k2 + r1 * r2) * t0, -t1 * t2 * (q1 + q2))
    scale = (terms[0] + abs(terms[3]) + abs(terms[4])
             + (kappa + abs(r1)) * abs(pole1) + (kappa + abs(r2)) * abs(pole2))
    return abs(sum(terms)) / max(scale, 1.0)


@dataclass(frozen=True)
class LadderReport:
    ok: bool
    residuals: np.ndarray
    missed: np.ndarray

    def __bool__(self):
        return self.ok


# scaled residual of the direct level condition that verify_ladder accepts
LEVEL_TOL = 1e-8


def verify_ladder(spec, ladder):
    """Check a ladder against the direct level condition and the count.

    Each kappa_i must zero the direct condition to LEVEL_TOL (scaled).  The
    ladder is complete when N(0) equals its length and N steps by exactly
    one across the window kappa_i -+ h_i of each entry, h_i being
    5e-9 * kappa_i or a third of the gap to a neighbouring entry if less.
    The windows are disjoint, so every level then lies in the window of
    exactly one kappa_i, and a close doublet can be certified.
    A ladder that fails this is compared with all the levels, found as
    find_roots finds them, and a level with no kappa_i within
    1e-8 * max(1, kappa) of it is reported as missed.  Each level is
    checked in plain floats, as find_roots works, and no kernel is called;
    the report's two arrays are built at the end.
    """
    p = _params(spec)
    kappas = np.asarray(ladder.kappas, dtype=float).tolist()
    # no level lies at kappa = 0, where q / kappa is undefined
    residuals = [_direct_condition(p, k) if k else math.nan for k in kappas]

    def count(k):
        return _count(k, _phase(p, k))

    def steps_once(a, k, b):
        h = min(5e-9 * k, (k - a) / 3.0, (b - k) / 3.0)
        return count(k - h) - count(k + h) == 1

    levels = sorted(kappas)
    ends = [-math.inf, *levels, math.inf]
    complete = count(0.0) == len(levels) and all(map(steps_once, ends, levels, ends[2:]))
    missed = []
    if not complete:
        found = _levels(p, 0.0, math.sqrt(max(-spec.v1, -spec.v2, 0.0)))
        missed = [k for k in found
                  if not any(abs(x - k) <= 1e-8 * max(1.0, k) for x in kappas)]
    ok = complete and all(r < LEVEL_TOL for r in residuals)
    return LadderReport(ok, np.array(residuals), np.array(missed))
