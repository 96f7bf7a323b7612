"""Slow, independent integrators that cross-check the closed forms.

Everything here walks the stationary wave equation numerically: a
fixed-step RK4 on the fundamental matrix, or per-piece propagators built
from complex square roots and hyperbolic functions.  Neither path shares
code with the branch-free kernels used by the fast routines, so a bug
cannot cancel between the two.  The level count works in mpmath and the
bound levels are refined with scipy's brentq; both are imported only
when they run, so importing the library loads neither.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib import scimath

from .xfer import ScatteringData


@dataclass(frozen=True)
class IntegrationConfig:
    """Controls for the oracle integrators.

    h: RK4 step (None = auto; must resolve the narrowest piece).
    method: "rk4" or "exact" (per-piece complex propagators).
    """

    h: float = None
    method: str = "rk4"


def _pieces(spec):
    out = []
    if spec.l1 > 0.0:
        out.append((spec.l1, spec.v1))
    if spec.r > 0.0:
        out.append((spec.r, 0.0))
    if spec.l2 > 0.0:
        out.append((spec.l2, spec.v2))
    return out


def _auto_step(pieces, k2):
    """Step that keeps the local phase advance per step around 0.015."""
    vmax = max(abs(v) for _, v in pieces)
    qmax = math.sqrt(vmax + float(np.max(np.abs(k2))))
    min_piece = min(length for length, _ in pieces)
    return min(min_piece / 16.0, 0.015 / max(qmax, 1e-6))


def _rk4_matrix(spec, k2, step):
    n = k2.shape[0]
    m = np.zeros((2, 2, n))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    for length, v in _pieces(spec):
        q = v - k2
        steps = max(1, int(math.ceil(length / step)))
        h = length / steps

        def deriv(y):
            return np.stack([y[1], q * y[0]])

        for _ in range(steps):
            k1 = deriv(m)
            k2_ = deriv(m + 0.5 * h * k1)
            k3 = deriv(m + 0.5 * h * k2_)
            k4 = deriv(m + h * k3)
            m = m + (h / 6.0) * (k1 + 2.0 * k2_ + 2.0 * k3 + k4)
    return m


def _exact_matrix(spec, k2):
    n = k2.shape[0]
    m = np.zeros((2, 2, n), dtype=complex)
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    for length, v in _pieces(spec):
        q = v - k2
        kloc = scimath.sqrt(q.astype(complex))
        z = kloc * length
        small = np.abs(z) < 1e-8
        safe = np.where(small, 1.0, kloc)
        sh = np.sinh(z)
        p11 = np.cosh(z)
        p12 = np.where(small, length * (1.0 + z * z / 6.0), sh / safe)
        p21 = np.where(small, q * length * (1.0 + z * z / 6.0), kloc * sh)
        m = np.stack(
            [
                np.stack([p11 * m[0, 0] + p12 * m[1, 0], p11 * m[0, 1] + p12 * m[1, 1]]),
                np.stack([p21 * m[0, 0] + p11 * m[1, 0], p21 * m[0, 1] + p11 * m[1, 1]]),
            ]
        )
    return m


def oracle_entries(spec, k2, cfg=None):
    """Fundamental-matrix entries across the structure, by integration.

    k2 may be any real array (negative values reach the bound sector).
    Returns four real arrays (l11, l12, l21, l22).
    """
    cfg = cfg or IntegrationConfig()
    k2 = np.atleast_1d(np.asarray(k2, dtype=float))
    pieces = _pieces(spec)
    if not pieces:
        one = np.ones_like(k2)
        zero = np.zeros_like(k2)
        return one, zero, zero, one.copy()
    if cfg.method == "rk4":
        min_piece = min(length for length, _ in pieces)
        if cfg.h is not None and cfg.h > min_piece / 16.0:
            raise ValueError(
                f"integration step {cfg.h:g} too coarse for the narrowest "
                f"piece of width {min_piece:g}"
            )
        step = cfg.h if cfg.h is not None else _auto_step(pieces, k2)
        m = _rk4_matrix(spec, k2, step)
        return m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    if cfg.method == "exact":
        m = _exact_matrix(spec, k2)
        scale = np.max(np.abs(m))
        drift = np.max(np.abs(m.imag))
        if drift > 1e-9 * max(1.0, scale):
            raise ArithmeticError(
                f"propagator entries drifted off the real axis by {drift:g}"
            )
        mr = m.real
        return mr[0, 0], mr[0, 1], mr[1, 0], mr[1, 1]
    raise ValueError(f"unknown oracle method {cfg.method!r}")


def _amplitudes(l11, l12, l21, l22, k, extent):
    d = (l11 + l22) - 1j * (k * l12 - l21 / k)
    a = 0.5 * d * np.exp(1j * k * extent)
    b = 0.5 * ((l11 - l22) - 1j * (k * l12 + l21 / k)) * np.exp(-1j * k * extent)
    return a, b


def scatter_grid(spec, ks, cfg=None):
    """Amplitude pair (a, b) on a real-k grid, by numerical integration."""
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    if np.any(ks <= 0.0):
        raise ValueError("scattering oracle needs k > 0")
    l11, l12, l21, l22 = oracle_entries(spec, ks * ks, cfg)
    return _amplitudes(l11, l12, l21, l22, ks, spec.extent)


def integrate_scatter(spec, k, cfg=None):
    """Scattering amplitudes at one real k, by numerical integration."""
    a, b = scatter_grid(spec, [float(k)], cfg)
    return ScatteringData(complex(a[0]), complex(b[0]))


def integrate_bound(spec, cfg=None):
    """Bound levels kappa (ascending), located by shooting.

    The decaying-match function m(kappa) = psi'(L) + kappa psi(L) for the
    solution started as (1, kappa) at the left edge vanishes exactly at
    the bound levels.  Each level is first bracketed alone by bisecting
    (0, kmax) with level_count, then refined on m with brentq, so close
    doublets are separated.  Levels that no float midpoint separates are
    returned at the upper end of their bracket.  The default propagators
    are the exact per-piece ones, since RK4 struggles with the
    exponential growth in deep wells.
    """
    from scipy.optimize import brentq

    cfg = cfg or IntegrationConfig(method="exact")
    vmin = min(spec.v1, spec.v2, 0.0)
    if vmin >= 0.0:
        return np.array([])
    kmax = math.sqrt(-vmin) * (1.0 - 1e-12)

    def match(kappa):
        l11, l12, l21, l22 = oracle_entries(spec, [-kappa * kappa], cfg)
        return float(l21[0] + kappa * (l11[0] + l22[0]) + kappa * kappa * l12[0])

    levels = []
    # (lo, hi, N(lo), N(hi)): the interval (lo, hi] holds N(lo) - N(hi) levels
    stack = [(0.0, kmax, level_count(spec, 0.0), level_count(spec, kmax))]
    while stack:
        lo, hi, n_lo, n_hi = stack.pop()
        mid = 0.5 * (lo + hi)
        if n_lo - n_hi == 1:
            levels.append(brentq(match, lo, hi, xtol=1e-13))
        elif n_lo > n_hi and not lo < mid < hi:
            levels.extend([hi] * (n_lo - n_hi))
        elif n_lo > n_hi:
            n_mid = level_count(spec, mid)
            stack += [(lo, mid, n_lo, n_mid), (mid, hi, n_mid, n_hi)]
    return np.sort(np.array(levels))


def level_count(spec, kappa):
    """Number of bound levels with decay rate above kappa >= 0, in mpmath.

    By Sturm's oscillation theorem this is the number of zeros of the
    solution that decays on the left, e^{kappa x} for x < 0.  It is
    followed in 40-digit arithmetic through each piece with unscaled
    trigonometric and hyperbolic propagators.  A piece where it
    oscillates adds the zeros its Pruefer angle passes, a piece where it
    does not adds one zero when the sign changes, and the tail to the
    right adds one zero when its decaying part outweighs a growing part of
    the other sign.
    """
    import mpmath as mp

    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    with mp.workdps(40):
        kappa = mp.mpf(kappa)
        psi, dpsi = mp.mpf(1), kappa
        zeros = 0
        for length, v in _pieces(spec):
            length = mp.mpf(length)
            q = mp.mpf(v) + kappa * kappa
            if q < 0:
                w = mp.sqrt(-q)
                angle = mp.atan2(psi, dpsi / w)
                zeros += int(mp.floor((angle + w * length) / mp.pi) - mp.floor(angle / mp.pi))
                c, s = mp.cos(w * length), mp.sin(w * length)
                psi, dpsi = psi * c + dpsi * s / w, dpsi * c - psi * w * s
                continue
            if q > 0:
                w = mp.sqrt(q)
                c, s = mp.cosh(w * length), mp.sinh(w * length)
                new = psi * c + dpsi * s / w, dpsi * c + psi * w * s
            else:
                new = psi + dpsi * length, dpsi
            zeros += new[0] * psi < 0
            psi, dpsi = new
        if kappa == 0:
            return zeros + int(psi * dpsi < 0)
        grow, decay = psi * kappa + dpsi, psi * kappa - dpsi
        return zeros + int(grow * decay < 0 and abs(decay) > abs(grow))


def squeezed_matrix(family, j):
    """Zero-energy transfer matrix of a squeeze family at eps = 10**-j.

    The product M2 G M1 of the exact slab matrices
    [[cosh(k l), sinh(k l)/k], [k sinh(k l), cosh(k l)]], k = sqrt(v),
    and the gap [[1, r], [0, 1]], with v, l and r realized from the
    family's exponents in mpmath.  M21 is a difference of terms that grow
    like eps**(1 - mu), so the working precision grows with j: 40 + 4j
    digits.  As j grows, the result tends to the limiting connection
    matrix [[theta, 0], [alpha, 1/theta]], or grows where there is none.
    Returns a real 2x2 float array.
    """
    import mpmath as mp

    with mp.workdps(40 + 4 * j):
        eps = mp.mpf(10) ** -j

        def slab(h, d, p_v, p_l):
            v = mp.mpf(h) * eps ** -mp.mpf(p_v)
            length = mp.mpf(d) * eps ** mp.mpf(p_l)
            kl = mp.sqrt(mp.mpc(v)) * length
            shc = mp.sinh(kl) / kl if kl != 0 else mp.mpf(1)
            return mp.matrix(
                [[mp.cosh(kl), length * shc], [v * length * shc, mp.cosh(kl)]]
            )

        mu, nu = family.mu, family.nu
        gap = mp.matrix([[1, mp.mpf(family.c) * eps ** mp.mpf(family.tau)], [0, 1]])
        m = (slab(family.h2, family.d2, nu, 1.0 - mu + nu) * gap
             * slab(family.h1, family.d1, mu, 1.0))
        return np.array([[float(mp.re(m[i, k])) for k in (0, 1)] for i in (0, 1)])
