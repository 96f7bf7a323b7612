"""Bound-state ladders of the two-layer structure.

Levels are counted by Sturm's oscillation theorem on the three constant
pieces, the setting of Pruess & Fulton (ACM TOMS 19, 360, 1993) and
Pryce (Numerical Solution of Sturm-Liouville Problems, OUP 1993).  At
energy -kappa^2, _phase matches in the layer with the larger phase w * l,
where w^2 = -V - kappa^2; the mirrored structure (v2, l2, v1, l1, r) has
the same levels, so that layer is taken as the second.  In plain floats
from the spec's five numbers, it carries the solution that decays on the
left through the first layer and the gap to the right end of the second,
where the one that decays on the right is the bare tail.  The carries
through the first layer and the gap are written out in _phase, from the
bare tail (1, kappa), as one phase evaluation is most of what a level
costs.  The Pruefer phase G(kappa) of the first against the second is
continuous and decreasing; the count of levels with decay rate at least
kappa is N = floor(G / pi) + 1, and the levels are where G = j * pi.
Matching inside the most oscillating piece, not beyond a barrier or in a
thin layer, keeps G nearly linear and well conditioned, so Brent's method
needs few steps.  find_roots bisects N until each interval holds one
level and refines it on G - j * pi, with a Brent that starts from the G
values the bisection has at the interval's ends (an end where G is within
rounding of j * pi, so that the count and G - j * pi disagree on its side,
counts as zero and is returned as the level); verify_ladder certifies
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


# the math functions of the phase and of Brent's loop as module globals,
# one lookup each where math.sqrt takes two
_atan2, _copysign, _cos, _exp = math.atan2, math.copysign, math.cos, math.exp
_floor, _sin, _sqrt, _tanh, _PI = math.floor, math.sin, math.sqrt, math.tanh, math.pi

#: most levels that one ladder search may hold; a deeper or wider well,
#: whose search takes about eight phase evaluations a level, is refused
MAX_LEVELS = 10_000


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


def _params(spec):
    """The five floats (v1, l1, v2, l2, r) that _phase reads."""
    return float(spec.v1), float(spec.l1), float(spec.v2), float(spec.l2), float(spec.r)


def _phase(p, kappa):
    """G(kappa) of the module docstring for kappa >= 0 and
    p = _params(spec), matched in the layer with the larger phase (mirrored
    if that is layer 1); -pi/2 where no piece oscillates, as no level lies
    deeper there.

    The pieces before the matching layer are written out in place.  A
    piece where psi'' = q psi with q > 0 carries (psi, psi') divided by
    cosh(w l), w = sqrt(q), so that it cannot overflow, with 1 - tanh(w l)
    written as 2 e^{-2 w l} / (1 + e^{-2 w l}) to keep the decaying part of
    the solution across a wide barrier."""
    v1, l1, v2, l2, r = p
    k2 = kappa * kappa
    # psi'' = q psi in each piece; the gap, q = k2, never oscillates
    q1, q2 = v1 + k2, v2 + k2
    # the mirrored structure has the same levels: match in the layer with
    # the larger phase w * l, which is layer 2 after the swap
    if q1 * l1 * l1 < q2 * l2 * l2:
        q1, l1, q2, l2 = q2, l2, q1, l1
    if not q2 < 0.0 < l2:
        return -0.5 * _PI
    # the solution decaying on the left starts as the bare tail (1, kappa)
    if q1 < 0.0 < l1:
        w = _sqrt(-q1)
        t = kappa / w
        wl = w * l1
        # the start angle atan2(1, t) lies in (0, pi/2], so no zero lies
        # before it
        zeros = _floor((_atan2(1.0, t) + wl) / _PI)
        c, s = _cos(wl), _sin(wl)
        psi, dpsi = c + t * s, kappa * c - w * s
    elif l1 > 0.0:
        if q1 == 0.0:
            psi, dpsi = 1.0 + kappa * l1, kappa
        else:
            w = _sqrt(q1)
            t = kappa / w
            e = _exp(-2.0 * w * l1)
            grow = (1.0 + t) * _tanh(w * l1)
            rest = 2.0 * e / (1.0 + e)
            psi, dpsi = grow + rest, (grow + t * rest) * w
        # from (1, kappa) psi stays positive unless kappa < 0, which the
        # windows of a malformed ladder can read
        zeros = psi < 0.0
    else:
        psi, dpsi, zeros = 1.0, kappa, 0
    if r > 0.0:
        # k2, not kappa: a subnormal kappa's square underflows to 0.0 too
        if k2 == 0.0:
            new = psi + dpsi * r
        else:
            w = _sqrt(k2)
            t = dpsi / w
            e = _exp(-2.0 * w * r)
            grow = (psi + t) * _tanh(w * r)
            rest = 2.0 * e / (1.0 + e)
            new, dpsi = grow + psi * rest, (grow + t * rest) * w
        zeros += new * psi < 0.0
        psi = new
    w = _sqrt(-q2)
    # psi has the sign (-1)^zeros, so this angle lies in [0, pi]; the
    # solution decaying on the right is the bare tail (1, -kappa) there
    angle = _atan2(psi, dpsi / w)
    if angle < 0.0:
        angle += _PI
    return zeros * _PI + angle + w * l2 - _atan2(1.0, -kappa / w)


def _count(kappa, g):
    """N(kappa), the number of levels with decay rate at least kappa, from
    g = G(kappa).  At kappa = 0 a zero-energy state, G = j * pi, is a
    threshold resonance and not a level, so N(0) counts the levels with
    kappa > 0.
    """
    g /= _PI
    return math.ceil(g) if kappa == 0.0 else _floor(g) + 1


def brentq(f, a, fa, b, fb):
    """The root of f in [a, b] by Brent's method, from fa = f(a), fb = f(b).

    A port of scipy's brentq.c (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973) at xtol = 1e-300, rtol = 1e-15 and 100
    iterations, iterate for iterate, with its checks: a zero end is
    returned, ends of one sign raise ValueError.  Each absolute value is
    taken once and kept, as the loop's cost is its interpreter work.  It
    lives here to start from the end values the count bisection already
    has, which scipy would compute again; the benchmark's tracer counts
    refinements by its name.
    """
    xpre, fpre, xcur, fcur = a, fa, b, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _copysign(1.0, fpre) == _copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    # afpre, afcur and afblk are |fpre|, |fcur| and |fblk|, each taken once
    xblk = fblk = afblk = spre = scur = 0.0
    afpre = abs(fpre)
    for _ in range(100):
        # brentq.c also tests fpre != 0, which always holds here: fpre is
        # fa or a value that passed the fcur == 0.0 return below
        if fcur != 0.0 and _copysign(1.0, fpre) != _copysign(1.0, fcur):
            xblk, fblk, afblk = xpre, fpre, afpre
            spre = scur = xcur - xpre
        afcur = abs(fcur)
        if afblk < afcur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            afpre, afcur, afblk = afcur, afblk, afcur
        delta = (1e-300 + 1e-15 * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        asbis = abs(sbis)
        if fcur == 0.0 or asbis < delta:
            return xcur
        aspre = abs(spre)
        if aspre > delta and afcur < afpre:
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            astry = abs(stry)
            # min(aspre, limit)
            limit = 3 * asbis - delta
            if 2 * astry < (limit if limit < aspre else aspre):
                spre, scur = scur, stry
                step = stry if astry > delta else (delta if sbis > 0 else -delta)
            else:
                spre = scur = step = sbis
        else:
            # asbis >= delta, so brentq.c's step of at least delta is sbis
            spre = scur = step = sbis
        xpre, fpre, afpre = xcur, fcur, afcur
        xcur += step
        fcur = f(xcur)
    raise RuntimeError(f"failed to converge after 100 iterations, value is {xcur!r}")


def _levels(p, lo, hi):
    """The levels with decay rate in [lo, hi), ascending, as a list.

    N is bisected until each interval holds one level, which Brent's
    method refines on G - j * pi to a relative 1e-15, so that a level near
    threshold keeps its digits; it starts from the G values the bisection
    has at the interval's ends.  Where G lies
    within rounding of j * pi at an end, floor(G / pi) can put the level
    in the interval while G - j * pi rounds to the wrong sign; that end
    value is taken as zero, and Brent returns the end.  Levels closer than
    the float spacing of their decay rate are returned as equal values.
    More than MAX_LEVELS levels in [lo, hi) raise ValueError.
    """
    levels = []
    glo, ghi = _phase(p, lo), _phase(p, hi)
    nlo, nhi = _count(lo, glo), _count(hi, ghi)
    if nlo - nhi > MAX_LEVELS:
        raise ValueError(f"the structure has {nlo - nhi} bound levels, more than "
                         f"MAX_LEVELS = {MAX_LEVELS}")
    stack = [(lo, glo, nlo, hi, ghi, nhi)]
    while stack:
        a, ga, na, b, gb, nb = stack.pop()
        if na - nb == 1:
            # an end whose G - j * pi rounds to the wrong sign counts as zero
            j = nb * _PI
            levels.append(brentq(lambda k: _phase(p, k) - j, a, max(ga - j, 0.0),
                                 b, min(gb - j, 0.0)))
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

    The ladder covers the levels with kappa in (0, rho / l), the window
    find_roots searched, or the whole half line when it has no reference
    width l.  Each kappa_i must zero the direct condition to LEVEL_TOL
    (scaled).  The ladder is complete when N(0) - N(rho / l) equals its
    length and N steps by exactly one across the window kappa_i -+ h_i of
    each entry, h_i being 5e-9 * kappa_i or a third of the gap to a
    neighbouring entry if less.  The windows are disjoint, so every level
    then lies in the window of exactly one kappa_i, and a close doublet can
    be certified.  A ladder that fails this is compared with the levels of
    its window, found as find_roots finds them, and a level with no kappa_i
    within 1e-8 * max(1, kappa) of it is reported as missed.  Each level is
    checked in plain floats, as find_roots works, and no kernel is called;
    the report's two arrays are built at the end.
    """
    p = _params(spec)
    kappas = np.asarray(ladder.kappas, dtype=float).tolist()
    # no level lies at kappa = 0, where q / kappa is undefined
    residuals = [_direct_condition(p, k) if k else math.nan for k in kappas]

    deepest = math.sqrt(max(-spec.v1, -spec.v2, 0.0))
    top = ladder.rho / ladder.l if ladder.l > 0.0 else deepest
    # no level lies below the deepest well, where N is 0
    beyond = _count(top, _phase(p, top)) if top < deepest else 0
    levels = sorted(kappas)
    complete = _count(0.0, _phase(p, 0.0)) - beyond == len(levels)
    if complete:
        # N steps by one across each window, up to the first that fails
        ends = [-math.inf, *levels, math.inf]
        for a, k, b in zip(ends, levels, ends[2:]):
            h = min(5e-9 * k, (k - a) / 3.0, (b - k) / 3.0)
            lo, hi = k - h, k + h
            if _count(lo, _phase(p, lo)) - _count(hi, _phase(p, hi)) != 1:
                complete = False
                break
    missed = []
    if not complete:
        found = _levels(p, 0.0, top)
        missed = [k for k in found
                  if not any(abs(x - k) <= 1e-8 * max(1.0, k) for x in kappas)]
    ok = complete and all(r < LEVEL_TOL for r in residuals)
    return LadderReport(ok, np.array(residuals), np.array(missed))
